import ast
import json
from pathlib import Path

import pytest
from hypothesis import example, given, settings, strategies as st

import promptshap
from promptshap.cli import main
from promptshap.jsonio import all_numbers, dumps, write_json

from conftest import make_adversarial_fixture, model_doc, write_matrix, write_validation

floats = st.floats()   # NaN, infinities and -0.0 included
scalars = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(),
    floats,
    st.text(),   # non-ASCII included
)
# float lists: all finite, with non-finite floats, and with ints and bools mixed in
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


# ---------------------------------------------------------------------------
# inputs past the parsers' limits, through the CLI

DEEP = "[" * 5000 + "]" * 5000   # deeper than the JSON decoder's stack
WIDE = "x" * 200_000             # longer than csv's field limit of 131,072
TOO_DEEP = "maximum recursion depth exceeded while decoding a JSON array from a unicode string"
TOO_WIDE = "field larger than field limit (131072)"


def _write(path, text) -> str:
    path.write_text(text, encoding="utf-8")
    return str(path)


def _config(tmp_path, doc) -> str:
    return _write(tmp_path / "config.json", json.dumps({"schema_version": 1, **doc}))


def _matrix_config(tmp_path, matrix=None, validation=None, mode="matrix-vote") -> str:
    good_matrix, good_validation = make_adversarial_fixture()
    if matrix is None:
        write_matrix(good_matrix, tmp_path / "matrix.csv")
        matrix = str(tmp_path / "matrix.csv")
    if validation is None:
        write_validation(good_validation, tmp_path / "validation.csv")
        validation = str(tmp_path / "validation.csv")
    return _config(tmp_path, {
        "utility_mode": mode, "paths": {"matrix": matrix, "validation": validation}})


def _model(tmp_path) -> str:
    return _write(tmp_path / "model.json", json.dumps(
        model_doc("linear", 1, {"weights": [0.5], "intercept": 0.0})))


def _manifest(tmp_path) -> str:
    return _write(tmp_path / "manifest.jsonl", '{"id": "a", "text": "one"}\n')


def _values(tmp_path, players=None) -> str:
    if players is None:
        players = json.dumps([{"id": "a", "value": 0.1}, {"id": "b", "value": 0.2}])
    return _write(tmp_path / "values.json", '{"players": %s}' % players)


def deep_config(tmp_path):
    path = _write(tmp_path / "config.json", '{"schema_version": 1, "game": {"seed": %s}}' % DEEP)
    return ["value", "--config", path], path, 3, "ConfigError", TOO_DEEP


def deep_values(tmp_path):
    path = _values(tmp_path, DEEP)
    argv = ["curve", "--config", _matrix_config(tmp_path), "--values", path,
            "--out-dir", str(tmp_path / "curve")]
    return argv, path, 1, "ConsistencyError", TOO_DEEP


def deep_embeddings(tmp_path):
    path = _write(tmp_path / "embeddings.jsonl",
                  '{"id": "a", "vector": [1.0]}\n{"id": "b", "vector": %s}\n' % DEEP)
    argv = ["learn", "--config", _config(tmp_path, {}), "--embeddings", path,
            "--values", _values(tmp_path), "--out", str(tmp_path / "model.json")]
    return argv, f"{path}:2", 1, "ConsistencyError", TOO_DEEP


def deep_model(tmp_path):
    path = _write(tmp_path / "model.json", '{"schema_version": 2, "kind": "linear", "d": 1, '
                                           '"parameters": %s}' % DEEP)
    argv = ["predict", "--config", _config(tmp_path, {}), "--model", path,
            "--manifest", _manifest(tmp_path)]
    return argv, path, 1, "ConsistencyError", TOO_DEEP


def deep_manifest(tmp_path):
    path = _write(tmp_path / "manifest.jsonl",
                  '{"id": "a", "text": "one"}\n{"id": %s, "text": "two"}\n' % DEEP)
    argv = ["predict", "--config", _config(tmp_path, {}), "--model", _model(tmp_path),
            "--manifest", path]
    return argv, f"{path}:2", 1, "ConsistencyError", TOO_DEEP


def deep_questions(tmp_path):
    path = _write(tmp_path / "questions.jsonl",
                  '{"id": "q0", "question": "Q?", "gold": "A"}\n'
                  '{"id": "q1", "question": %s, "gold": "A"}\n' % DEEP)
    config = _config(tmp_path, {"utility_mode": "live-augmentation", "paths": {
        "manifest": _manifest(tmp_path), "questions": path}})
    return ["value", "--config", config], f"{path}:2", 1, "ConsistencyError", TOO_DEEP


def deep_probability_cell(tmp_path):
    path = _write(tmp_path / "deep.csv", 'prompt_id,q0\np0,"%s"\n' % DEEP)
    config = _matrix_config(tmp_path, matrix=path, mode="matrix-average")
    return ["value", "--config", config], path, 1, "ConsistencyError", TOO_DEEP


def wide_matrix_field(tmp_path):
    path = _write(tmp_path / "wide.csv", f'prompt_id,q0\np0,"{WIDE}"\n')
    config = _matrix_config(tmp_path, matrix=path)
    return ["value", "--config", config], path, 1, "ConsistencyError", TOO_WIDE


def wide_validation_field(tmp_path):
    path = _write(tmp_path / "wide.csv", f'#num_labels=2\ninstance_id,gold_label\n"{WIDE}",0\n')
    config = _matrix_config(tmp_path, validation=path)
    return ["value", "--config", config], path, 1, "ConsistencyError", TOO_WIDE


@pytest.mark.parametrize("case", [
    deep_config, deep_values, deep_embeddings, deep_model, deep_manifest, deep_questions,
    deep_probability_cell, wide_matrix_field, wide_validation_field,
], ids=lambda case: case.__name__.replace("_", "-"))
def test_an_input_past_a_parser_limit_is_a_typed_error_naming_the_file(case, tmp_path, capsys):
    argv, where, code, error, message = case(tmp_path)
    assert main(argv) == code
    out, err = capsys.readouterr()
    assert out == ""
    assert json.loads(err) == {"error": error, "message": f"{where}: {message}"}
