import ast
import json
from pathlib import Path

import pytest
from hypothesis import example, given, settings, strategies as st

import promptshap
from promptshap import jsonio
from promptshap.jsonio import all_numbers, dumps, write_json

floats = st.floats()   # NaN, infinities and -0.0 included
scalars = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(),
    floats,
    st.text(),   # non-ASCII included
)
# lists the encoder writes in one piece (every float finite) and lists it
# must hand on item by item (non-finite floats, ints and bools mixed in)
float_lists = st.one_of(
    st.lists(st.floats(allow_nan=False, allow_infinity=False), min_size=1, max_size=8),
    st.lists(floats, max_size=8),
    st.lists(st.one_of(floats, st.integers(), st.booleans()), max_size=8),
)
documents = st.recursive(
    st.one_of(scalars, float_lists),
    lambda inner: st.one_of(
        st.lists(inner, max_size=5),
        st.lists(inner, max_size=5).map(tuple),
        st.dictionaries(st.text(), inner, max_size=5),
        st.dictionaries(st.integers(), inner, max_size=3),
        st.dictionaries(st.floats(allow_nan=False), inner, max_size=3),
    ),
    max_leaves=30,
)


@settings(max_examples=300, deadline=None)
@given(doc=documents)
@example(doc={"parameters": {"x_train": [[0.5, -0.0, 1e300], [2.0, 3.0, 5e-324]]},
              "d": 3, "kind": "gp", "é": "\n "})
@example(doc=[[], {}, (), [[]], [1e308, 1e308], [float("nan"), 1.0], [True, 1.0, 2]])
@example(doc={1: [1.0], 2: {"b": [2.5], "a": ()}})
def test_write_json_writes_the_bytes_of_dumps(tmp_path_factory, doc):
    expected = json.dumps(doc, sort_keys=True, indent=2) + "\n"
    assert dumps(doc) == expected
    path = tmp_path_factory.mktemp("doc") / "doc.json"
    write_json(path, doc)
    assert path.read_bytes() == expected.encode("utf-8")


def test_a_float_list_is_one_chunk():
    rows = [[float(i + j) for j in range(50)] for i in range(4)]
    chunks = list(jsonio._encode({"rows": rows}))
    assert len([c for c in chunks if c.count(",") == 49]) == len(rows)
    assert max(map(len, chunks)) < len("".join(chunks)) / 2


def test_encoder_errors_match_json():
    for doc in ({"a": {1, 2}}, [object()], {"a": 1, 2: "b"}):
        with pytest.raises(TypeError):
            json.dumps(doc, sort_keys=True, indent=2)
        with pytest.raises(TypeError):
            dumps(doc)


@pytest.mark.parametrize("values, expected", [
    ([], True),
    ([1, 2.5, -0.0, float("nan")], True),
    ([1.0, True], False),
    ([1.0, "2.0"], False),
    ([None], False),
    ([[1.0]], False),
])
def test_all_numbers(values, expected):
    assert all_numbers(values) is expected


def _read_opens(source: str) -> list[int]:
    """Lines of ``source`` that open a file for reading: ``open`` or
    ``io.open`` without a write-only mode, or ``read_text``/``read_bytes``."""
    lines = []
    for node in ast.walk(ast.parse(source)):
        if not isinstance(node, ast.Call):
            continue
        func = node.func
        if isinstance(func, ast.Attribute) and func.attr in ("read_text", "read_bytes"):
            lines.append(node.lineno)
            continue
        is_open = (isinstance(func, ast.Name) and func.id == "open") or (
            isinstance(func, ast.Attribute) and func.attr == "open"
            and isinstance(func.value, ast.Name) and func.value.id == "io")
        if not is_open:
            continue
        modes = [kw.value for kw in node.keywords if kw.arg == "mode"] + node.args[1:2]
        mode = modes[0] if modes else ast.Constant("r")
        # a mode that is not a literal might read
        if (not isinstance(mode, ast.Constant) or "+" in mode.value
                or not set(mode.value) & set("wax")):
            lines.append(node.lineno)
    return lines


def test_only_jsonio_opens_files_for_reading():
    package = Path(promptshap.__file__).parent
    readers = {path.name: _read_opens(path.read_text(encoding="utf-8"))
               for path in sorted(package.glob("*.py"))}
    assert readers.pop("jsonio.py"), "the scan must find jsonio's own reader"
    assert {name: lines for name, lines in readers.items() if lines} == {}
