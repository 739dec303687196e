"""CLI behavior: outputs, exit codes, schema validation, determinism."""

import contextlib
import io
import json
import pathlib
import tempfile

import jsonschema
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nilinv.cli import main

SCHEMAS = pathlib.Path(__file__).parent.parent / "src" / "nilinv" / "schemas"
GOLDEN = pathlib.Path(__file__).parent / "golden"


def run(capsys, *args):
    code = main(list(args))
    out = capsys.readouterr().out
    return code, out


def validate(doc, schema_name):
    schema = json.loads((SCHEMAS / schema_name).read_text())
    jsonschema.validate(doc, schema)


def test_base_json(capsys):
    code, out = run(capsys, "base", "--type", "2,4,2", "--format", "json")
    assert code == 0
    doc = json.loads(out)
    assert doc["base"] == [[2, 3], [1, 4], [6, 7], [5, 8]]
    assert doc["dims"]["predicted_regular_orbit_dim"] == 12
    validate(doc, "base.schema.json")


def test_base_text(capsys):
    code, out = run(capsys, "base", "--type", "2,2,2,1,1")
    assert code == 0
    assert "base" in out and "(2,3)" in out


def test_diagram_formats(capsys):
    code, out = run(capsys, "diagram", "--type", "2,1,3,2")
    assert code == 0 and "⊗" in out
    code, out = run(capsys, "diagram", "--type", "2,1,3,2", "--format", "latex")
    assert code == 0 and r"\otimes" in out and out.count(r"$\otimes$") == 5
    code, out = run(capsys, "diagram", "--type", "2,1,3,2", "--format", "json")
    assert code == 0
    validate(json.loads(out), "diagram.schema.json")


def test_diagram_empty_type(capsys):
    code, out = run(capsys, "diagram", "--type", "9")
    assert code == 0
    assert "⊗" not in out


def test_invariants_outputs(capsys):
    code, out = run(capsys, "invariants", "--type", "2,4,2", "--format", "json")
    assert code == 0
    doc = json.loads(out)
    validate(doc, "generators.schema.json")
    names = [g["name"] for g in doc["generators"]]
    assert "D" in names and len(names) == 9
    code, out = run(capsys, "invariants", "--type", "2,4,2", "--format", "latex")
    assert code == 0 and "x_{23}" in out
    code, out = run(capsys, "invariants", "--type", "2,2")
    assert code == 0 and "M[2,3] = x[2,3]" in out


def test_verify_exit_codes(capsys):
    code, out = run(capsys, "verify", "--type", "2,4,2")
    assert code == 0
    doc = json.loads(out)
    assert doc["passed"] and doc["independence"]["rank"] == 8
    validate(doc, "verification.schema.json")
    # honest failure: the corank bookkeeping identity does not hold here
    code, out = run(capsys, "verify", "--type", "2,2,2,1,1")
    assert code == 1
    doc = json.loads(out)
    assert doc["flags"]["invariance"] and not doc["flags"]["corank_bookkeeping"]
    validate(doc, "verification.schema.json")


def test_orbit_dim_record(capsys):
    code, out = run(capsys, "orbit-dim", "--type", "2,4,2", "--trials", "20", "--seed", "5")
    assert code == 0
    doc = json.loads(out)
    assert doc["max_rank"] == 12 and doc["match"]
    validate(doc, "experiment.schema.json")


def test_reduce_roundtrip(tmp_path, capsys):
    point = {
        "n": 4,
        "entries": [[1, 3, "5"], [1, 4, "7"], [2, 3, "3"], [2, 4, "2"]],
    }
    path = tmp_path / "point.json"
    path.write_text(json.dumps(point))
    code, out = run(capsys, "reduce", "--type", "2,2", "--point", str(path))
    assert code == 0
    doc = json.loads(out)
    assert doc["pass"]
    assert doc["y"]["entries"] == [[1, 4, "11/3"], [2, 3, "3"]]
    validate(doc, "reduction.schema.json")


def test_reduce_outside_u0(tmp_path, capsys):
    path = tmp_path / "point.json"
    path.write_text(json.dumps({"n": 4, "entries": [[1, 4, "3"]]}))
    code, out = run(capsys, "reduce", "--type", "2,2", "--point", str(path))
    assert code == 1
    assert json.loads(out) == {"error": "outside U0", "xi": [2, 3]}


def test_reduce_size_mismatch(tmp_path, capsys):
    path = tmp_path / "point.json"
    path.write_text(json.dumps({"n": 3, "entries": []}))
    assert main(["reduce", "--type", "2,2", "--point", str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: point size 3 != type size 4\n"


@pytest.mark.parametrize(
    "doc",
    [
        {"n": 8, "entries": [[0, 3, "5"]]},
        {"n": 8, "entries": [[1, 9, "5"]]},
        {"n": 8},
        {"n": 8, "entries": [[1.7, 3, "5"]]},
        {"n": 8, "entries": [[True, 3, "5"]]},
        {"n": 8.9, "entries": [[1, 3, "5"]]},
        {"n": 8, "entries": [None]},
        {"n": 8, "entries": 5},
        {"n": None, "entries": [[1, 3, "5"]]},
        {"n": 8, "entries": [[1, 3, "1/0"]]},
        {"n": 8, "entries": [[1, 3]]},
        {"n": 8, "entries": [[1, 3, "0.5"]]},
        {"n": 8, "entries": [[1, 3, " +3 "]]},
        {"n": 8, "entries": [[1, 3, "1e300000"]]},
        {"n": 8, "entries": [[1, 3, "1e1000000"]]},
        {"n": 8, "entries": [[1, 3, "5"], [1, 3, "7"]]},
    ],
    ids=[
        "row-zero", "column-past-n", "no-entries", "float-index", "bool-index", "float-n",
        "null-entry", "entries-not-a-list", "null-n", "zero-denominator", "short-entry",
        "decimal", "padded-plus", "exponent", "huge-exponent", "duplicate-position",
    ],
)
def test_reduce_rejects_bad_point_files(tmp_path, capsys, doc):
    path = tmp_path / "point.json"
    path.write_text(json.dumps(doc))
    code = main(["reduce", "--type", "2,4,2", "--point", str(path)])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err.startswith("error: ") and captured.err.count("\n") == 1


def test_case242(capsys):
    code, out = run(capsys, "case242")
    assert code == 0
    doc = json.loads(out)
    assert doc["passed"] and doc["identity"] == {"holds": True, "sign": 1}
    validate(doc, "case242.schema.json")


def test_usage_errors(capsys):
    assert main(["nosuch"]) == 2
    capsys.readouterr()
    assert main(["base", "--type", "2,x"]) == 2
    capsys.readouterr()
    assert main(["base", "--type", "0,2"]) == 2
    capsys.readouterr()
    assert main(["diagram", "--type", "2,2", "--format", "svg"]) == 2
    capsys.readouterr()
    assert main(["diagram", "--type", "2,2", "--offset", "-3"]) == 2
    assert capsys.readouterr().out == ""


def test_out_file_and_outdir_env(tmp_path, capsys, monkeypatch):
    out_file = tmp_path / "diagram.json"
    code, _ = run(capsys, "diagram", "--type", "2,2", "--format", "json", "--out", str(out_file))
    assert code == 0
    assert json.loads(out_file.read_text())["n"] == 4
    monkeypatch.setenv("NILINV_OUTDIR", str(tmp_path))
    code, _ = run(capsys, "base", "--type", "2,2", "--format", "json", "--out", "rel.json")
    assert code == 0
    assert (tmp_path / "rel.json").exists()


def test_json_outputs_are_byte_identical(capsys):
    for args in [
        ["verify", "--type", "2,4,2", "--seed", "7"],
        ["orbit-dim", "--type", "2,2,2", "--trials", "10", "--seed", "7"],
        ["case242", "--seed", "7"],
        ["base", "--type", "2,1,3,2", "--format", "json"],
        ["diagram", "--type", "2,2,2,1,1", "--format", "json"],
    ]:
        _, first = run(capsys, *args)
        _, second = run(capsys, *args)
        assert first == second, args


@pytest.mark.parametrize(
    "golden, args",
    [
        ("base_242.json", ["base", "--type", "2,4,2", "--format", "json"]),
        ("invariants_2211.json", ["invariants", "--type", "2,2,1,1", "--format", "json"]),
        ("reduce_242.json", ["reduce", "--type", "2,4,2", "--point", str(GOLDEN / "point_242_u0.json")]),
        ("invariants_242.tex", ["invariants", "--type", "2,4,2", "--format", "latex"]),
        ("invariants_242.txt", ["invariants", "--type", "2,4,2", "--format", "text"]),
        ("invariants_433.tex", ["invariants", "--type", "4,3,3", "--format", "latex"]),
        ("invariants_433.txt", ["invariants", "--type", "4,3,3", "--format", "text"]),
    ],
    ids=["base", "invariants", "reduce", "invariants-242-latex", "invariants-242-text", "invariants-433-latex", "invariants-433-text"],
)
def test_output_matches_golden(capsys, golden, args):
    code, out = run(capsys, *args)
    assert code == 0
    assert out == (GOLDEN / golden).read_text(encoding="utf-8")


@st.composite
def block_sizes(draw):
    """A composition of some n <= 6, drawn block by block."""
    sizes, left = [], draw(st.integers(1, 6))
    while left:
        sizes.append(draw(st.integers(1, left)))
        left -= sizes[-1]
    return sizes


TYPE_ARGS = st.one_of(
    block_sizes().map(lambda s: ",".join(map(str, s))),
    st.sampled_from(["", "0,2", "2,x", "-1", "2,,2", "1.5"]),
)
SMALL = st.integers(-4, 3).map(str)


@st.composite
def cli_argvs(draw):
    command = draw(st.sampled_from(["diagram", "base", "invariants", "verify", "orbit-dim", "case242"]))
    argv = [command]
    if command != "case242":
        argv += ["--type", draw(TYPE_ARGS)]
    formats = {
        "diagram": ["text", "latex", "json"],
        "base": ["text", "json"],
        "invariants": ["text", "json", "latex"],
        "verify": ["json", "text"],
    }
    if command in formats and draw(st.booleans()):
        argv += ["--format", draw(st.sampled_from(formats[command] + ["svg"]))]
    if command in ("verify", "orbit-dim", "case242") and draw(st.booleans()):
        argv += ["--seed", draw(SMALL)]
    if command == "orbit-dim":
        argv += ["--trials", draw(SMALL)]
    if command == "diagram":
        argv += ["--offset", draw(SMALL), "--marked", draw(st.sampled_from(["phi", "psi", "chi"]))]
    return argv


SCALARS = st.one_of(
    st.integers(-1, 7), st.booleans(), st.none(), st.floats(-1, 7, allow_nan=False),
    st.sampled_from(["1", "-2", "3/4", "0", "1/0", "abc", ""]),
)
ENTRIES = st.one_of(
    st.tuples(st.integers(1, 6), st.integers(1, 6), st.sampled_from(["1", "-2", "3/4", "0"])).map(list),
    st.lists(SCALARS, max_size=4),
    SCALARS,
)
POINT_DOCS = st.one_of(
    st.fixed_dictionaries({"n": SCALARS, "entries": st.one_of(st.lists(ENTRIES, max_size=8), SCALARS)}),
    st.fixed_dictionaries({"n": st.integers(1, 6), "entries": st.lists(ENTRIES, max_size=12)}),
    st.fixed_dictionaries({"n": SCALARS}),
    st.lists(SCALARS, max_size=2),
    SCALARS,
)


def _exit_code(argv):
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        return main(argv)


@given(cli_argvs())
@settings(max_examples=80, deadline=None)
def test_fuzzed_argv_exit_codes(argv):
    assert _exit_code(argv) in (0, 1, 2)


@given(TYPE_ARGS, POINT_DOCS)
@settings(max_examples=120, deadline=None)
def test_fuzzed_point_files_exit_codes(type_arg, doc):
    with tempfile.TemporaryDirectory() as tmp:
        path = pathlib.Path(tmp) / "point.json"
        path.write_text(json.dumps(doc))
        assert _exit_code(["reduce", "--type", type_arg, "--point", str(path)]) in (0, 1, 2)
