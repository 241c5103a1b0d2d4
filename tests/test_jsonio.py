from hypothesis import given, settings, strategies as st

from promptshap.jsonio import dumps, write_json

scalars = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(),
    st.floats(allow_nan=False),
    st.text(),   # non-ASCII included
)
documents = st.recursive(
    scalars,
    lambda inner: st.one_of(
        st.lists(inner, max_size=5),
        st.dictionaries(st.text(), inner, max_size=5),
    ),
    max_leaves=30,
)


@settings(max_examples=80, deadline=None)
@given(doc=documents)
def test_write_json_writes_the_bytes_of_dumps(tmp_path_factory, doc):
    path = tmp_path_factory.mktemp("doc") / "doc.json"
    write_json(path, doc)
    assert path.read_bytes() == dumps(doc).encode("utf-8")
