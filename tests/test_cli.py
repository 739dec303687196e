"""CLI behavior: outputs, exit codes, schema validation, determinism."""

import contextlib
import io
import json
import os
import pathlib
import subprocess
import sys
import tempfile
import tracemalloc

import jsonschema
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nilinv import checker, cli, exactpoly, invgen, rootcomb
from nilinv.cli import COMMANDS, MAX_MINOR, MAX_ORBIT_WORK, MAX_TRIALS, main
from nilinv.invgen import build_generators
from nilinv.orbitlab import DEFAULT_SEED
from nilinv.rootcomb import ParabolicType

SRC = pathlib.Path(__file__).parent.parent / "src"
SCHEMAS = SRC / "nilinv" / "schemas"
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


def test_base_builds_its_base_and_pairs_once(capsys, monkeypatch):
    calls = {}
    modules = [m for name, m in sys.modules.items() if name == "nilinv" or name.startswith("nilinv.")]
    for name in ("compute_base", "admissible_pairs"):
        original = getattr(rootcomb, name)

        def counted(*args, name=name, original=original, **kwargs):
            calls[name] = calls.get(name, 0) + 1
            return original(*args, **kwargs)

        for module in modules:
            if getattr(module, name, None) is original:
                monkeypatch.setattr(module, name, counted)
    code, out = run(capsys, "base", "--type", "2,4,2", "--format", "json")
    assert code == 0 and out == (GOLDEN / "base_242.json").read_text(encoding="utf-8")
    assert calls == {"compute_base": 1, "admissible_pairs": 1}


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


def test_verify_reports_a_dependent_verdict(capsys, monkeypatch):
    monkeypatch.setattr(
        checker, "independence_details",
        lambda ptype, forms, seed: checker.IndependenceResult(rank=7, expected=8, seed=seed, attempts=5),
    )
    code, out = run(capsys, "verify", "--type", "2,4,2")
    doc = json.loads(out)
    assert code == 1 and doc["passed"] is False and doc["flags"]["independence"] is False
    assert doc["independence"] == {
        "rank": 7, "expected": 8, "seed": DEFAULT_SEED, "attempts": 5, "independent": False,
        "note": "dependent or unlucky (failure probability bounded by Schwartz-Zippel)",
    }
    validate(doc, "verification.schema.json")
    code, out = run(capsys, "verify", "--type", "2,4,2", "--format", "text")
    assert code == 1 and "passed=False" in out.split() and "independence=False" in out.split()


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
    # the size is checked before the dense n x n matrix is built (at n = 3000 that takes about 70 MB)
    path = tmp_path / "point.json"
    for n in (3, 3000):
        path.write_text(json.dumps({"n": n, "entries": []}))
        tracemalloc.start()
        try:
            assert main(["reduce", "--type", "2,2", "--point", str(path)]) == 2
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: point size {n} != type size 4\n"
        assert peak < 1 << 20, n


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


def test_reduce_rejects_a_deeply_nested_point_file(tmp_path):
    # json.load raises RecursionError here; the command must exit 2 with one line, not a traceback
    path = tmp_path / "point.json"
    path.write_text("[" * 100_000 + "]" * 100_000)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")])))
    argv = [sys.executable, "-m", "nilinv", "reduce", "--type", "2,4,2", "--point", str(path)]
    result = subprocess.run(argv, capture_output=True, text=True, env=env, timeout=60)
    assert result.returncode == 2
    assert result.stdout == ""
    assert result.stderr == f"error: point file {path} is nested too deeply\n"


def test_reduce_rejects_a_point_file_that_is_not_json(tmp_path, capsys):
    # the decoder's message alone would not name the file
    path = tmp_path / "point.json"
    path.write_text("n = 8\n")
    code = main(["reduce", "--type", "2,4,2", "--point", str(path)])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err == f"error: point file {path} is not JSON: Expecting value: line 1 column 1 (char 0)\n"


def test_case242(capsys):
    code, out = run(capsys, "case242")
    assert code == 0
    doc = json.loads(out)
    assert doc["passed"] and doc["identity"] == {"holds": True, "sign": 1}
    validate(doc, "case242.schema.json")


def test_case242_fails_on_a_rank_short_of_eight(capsys, monkeypatch):
    monkeypatch.setattr(
        checker, "independence_details",
        lambda ptype, forms, seed: checker.IndependenceResult(rank=7, expected=len(forms), seed=seed, attempts=5),
    )
    code, out = run(capsys, "case242")
    doc = json.loads(out)
    assert code == 1 and doc["nine_generator_rank"] == 7 and doc["passed"] is False
    assert doc["identity"] == {"holds": True, "sign": 1} and doc["table_ok"] and doc["l11_sign_exact"] and doc["d_sign_exact"]
    validate(doc, "case242.schema.json")


def test_case242_fails_on_a_table_entry_off_by_its_sign(capsys, monkeypatch):
    expected = checker._expected_y_table
    monkeypatch.setattr(checker, "_expected_y_table", lambda: {**expected(), "L11": -expected()["L11"]})
    code, out = run(capsys, "case242")
    doc = json.loads(out)
    assert code == 1 and doc["passed"] is False
    assert doc["l11_sign_exact"] is False and doc["table_ok"] is True and doc["d_sign_exact"] is True
    assert {row["name"]: row["sign"] for row in doc["y_table"]}["L11"] == -1
    validate(doc, "case242.schema.json")


def test_case242_refuses_an_open_d_before_expanding(capsys, monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("a polynomial was expanded")

    for module, name in ((invgen, "minor_poly"), (exactpoly, "det_minor"), (invgen, "det_minor")):
        monkeypatch.setattr(module, name, refuse)
    monkeypatch.setattr(invgen, "unproved_steps", lambda ptype, form: list(range(1, ptype.n)))
    assert main(["case242"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: invariance of generator D is not proved on index sets at k = 1, 2, 3, 4, 5, 6, 7\n"


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
    # --type is ASCII numerals and commas only: nothing else is read as a size
    for text in ("2_2,1", "+2,2", " 2 , 2", "\u0662,2", "2,2\n"):
        assert main(["base", "--type", text]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: cannot parse block sizes from {text!r}\n"


# the documented size limits (README, "Input limits"), each well above what tests, golden files and examples use
SIZE_LIMITS = {"diagram": 200, "base": 200, "invariants": 24, "verify": 24, "orbit-dim": 24, "reduce": 60, "case242": None}


def test_size_limits(capsys, tmp_path):
    assert {name: row[-1] for name, row in COMMANDS.items()} == SIZE_LIMITS
    for name, limit in SIZE_LIMITS.items():
        if limit is None:
            continue
        # one above the limit: exit 2 with one line, before any work (reduce never opens its point file)
        argv = [name, "--type", f"{limit},1"]
        if name == "reduce":
            argv += ["--point", str(tmp_path / "missing.json")]
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: type size {limit + 1} is above the limit {limit} of {name}\n"
    for name in ("diagram", "base"):
        assert main([name, "--type", ",".join(["1"] * SIZE_LIMITS[name])]) == 0
        assert capsys.readouterr().out
    # diagram draws n + --offset rows, so the limit bounds the sum
    assert main(["diagram", "--type", "2,2", "--offset", "196"]) == 0
    assert "\n200 |" in capsys.readouterr().out
    assert main(["diagram", "--type", "2,2", "--offset", "197"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: type size 4 plus --offset 197 is above the limit 200 of diagram\n"


def test_minor_order_limits(capsys, monkeypatch):
    # the corner-minor limit (README, "Input limits"): invariants prints every term of the largest minor;
    # verify proves invariance on index sets and has none (see test_verify_beyond_the_symbolic_orders)
    assert MAX_MINOR == 8
    # (k, k) has one corner minor of each order up to k
    for k in (MAX_MINOR, MAX_MINOR + 1):
        assert build_generators(ParabolicType((k, k))).largest_minor_order() == k
    # a stand-in for the expansion keeps the test from expanding 8! terms (9! would take minutes)
    expanded = []
    monkeypatch.setattr(invgen.GeneratorSet, "named", lambda self: expanded.append(self.ptype) or [("ran", "x")])
    # one above the limit: exit 2 with one line, before any expansion
    assert main(["invariants", "--type", f"{MAX_MINOR + 1},{MAX_MINOR + 1}"]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and expanded == []
    assert captured.err == f"error: corner minor order {MAX_MINOR + 1} is above the limit {MAX_MINOR} of invariants\n"
    # at the limit the command runs
    assert main(["invariants", "--type", f"{MAX_MINOR},{MAX_MINOR}"]) == 0
    assert capsys.readouterr().out == "ran = x\n" and expanded == [ParabolicType((MAX_MINOR, MAX_MINOR))]
    # the orders behind the golden files and the README examples sit at or below the limit
    for sizes in [(2, 4, 2), (4, 3, 3), (2, 2, 1, 1), (2, 2, 2, 1, 1), (2, 1, 3, 2), (6, 6, 6), (7, 7, 7)]:
        assert build_generators(ParabolicType(sizes)).largest_minor_order() <= MAX_MINOR, sizes


def test_invariants_builds_its_generators_once(capsys, monkeypatch):
    builds = []
    init = invgen.GeneratorSet.__init__

    def counted(self, ptype):
        builds.append(ptype)
        init(self, ptype)

    monkeypatch.setattr(invgen.GeneratorSet, "__init__", counted)
    # the limit check and the output read one GeneratorSet, in every format
    for sizes, fmt, golden in (("2,4,2", "text", "invariants_242.txt"), ("2,4,2", "latex", "invariants_242.tex"),
                               ("2,2,1,1", "json", "invariants_2211.json")):
        builds.clear()
        assert main(["invariants", "--type", sizes, "--format", fmt]) == 0
        assert capsys.readouterr().out == (GOLDEN / golden).read_text(), golden
        assert builds == [ParabolicType.from_string(sizes)], golden


def test_verify_beyond_the_symbolic_orders(capsys, monkeypatch):
    # corner minors of order 8, 8 and 15: invariance is proved on index sets, nothing is expanded
    def refuse(*args, **kwargs):
        raise AssertionError("a polynomial was expanded")

    for module, name in ((exactpoly, "det_minor"), (invgen, "det_minor"), (invgen, "minor_poly")):
        monkeypatch.setattr(module, name, refuse)
    pinned = {
        "8,8": (0, "type (8,8) passed=True corank_bookkeeping=True independence=True invariance=True\n"),
        "8,8,8": (0, "type (8,8,8) passed=True corank_bookkeeping=True independence=True invariance=True\n"),
        "1,8,7,8": (1, "type (1,8,7,8) passed=False corank_bookkeeping=False independence=True invariance=True\n"),
    }
    for sizes, (code, line) in pinned.items():
        assert run(capsys, "verify", "--type", sizes, "--format", "text") == (code, line), sizes
    # the size limit stays: (9,9,9) has n = 27
    assert main(["verify", "--type", "9,9,9"]) == 2
    assert capsys.readouterr().err == "error: type size 27 is above the limit 24 of verify\n"
    # a generator the index-set proof leaves open is refused with one line, before anything is expanded;
    # (2,2,1,1) has no minor above order 2, and it is refused all the same
    monkeypatch.setattr(invgen, "unproved_steps", lambda ptype, form: list(range(1, ptype.n)))
    for sizes, name in (("8,8", "M[8,9]"), ("2,2,1,1", "M[2,3]")):
        assert main(["verify", "--type", sizes]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        open_ks = ", ".join(map(str, range(1, sum(map(int, sizes.split(","))))))
        assert captured.err == f"error: invariance of generator {name} is not proved on index sets at k = {open_ks}\n"


def test_trials_limit(capsys, monkeypatch):
    assert MAX_TRIALS == 10_000
    assert main(["orbit-dim", "--type", "1,1", "--trials", str(MAX_TRIALS)]) == 0
    capsys.readouterr()
    # a refused run never samples: without the check, 10**20 trials would run for ever
    monkeypatch.setattr(cli, "orbit_experiment", lambda *args: pytest.fail("orbit-dim sampled past its trials limit"))
    assert main(["orbit-dim", "--type", "2,2", "--trials", "99999999999999999999"]) == 2
    assert main(["orbit-dim", "--type", "2,2", "--trials", str(MAX_TRIALS + 1)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.splitlines() == [
        f"error: --trials {n} is above the limit {MAX_TRIALS}" for n in (99999999999999999999, MAX_TRIALS + 1)
    ]


def test_orbit_work_limit(capsys, monkeypatch):
    # trials x rows x cols x min(rows, cols) of the bracket matrix; (1,)*24 has the largest one, 276 x 276
    ones24 = ",".join(["1"] * 24)
    # a stand-in for the sampler keeps (1,)*24 from sampling; a refused run never reaches it
    monkeypatch.setattr(cli, "orbit_experiment", lambda ptype, trials, seed: {"pass": True, "trials": trials})
    assert MAX_ORBIT_WORK == 20 * 276 * 276 * 276
    assert main(["orbit-dim", "--type", ones24, "--trials", "21"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: --trials 21 needs rank work {21 * 276**3}, above the limit {MAX_ORBIT_WORK}\n"
    # (4,)*6: a 276 x 240 matrix; 26 trials pass and 27 do not
    assert main(["orbit-dim", "--type", "4,4,4,4,4,4", "--trials", "27"]) == 2
    work = 27 * 276 * 240 * 240
    assert capsys.readouterr().err == f"error: --trials 27 needs rank work {work}, above the limit {MAX_ORBIT_WORK}\n"
    # the default trials at n = 24 and 10,000 trials on (2,2) are admitted
    for sizes, trials in ((ones24, None), ("4,4,4,4,4,4", 26), ("2,2", MAX_TRIALS)):
        argv = ["orbit-dim", "--type", sizes] + ([] if trials is None else ["--trials", str(trials)])
        assert main(argv) == 0
        assert json.loads(capsys.readouterr().out) == {"pass": True, "trials": trials or 20}


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
    "golden, args, exit_code",
    [
        ("base_242.json", ["base", "--type", "2,4,2", "--format", "json"], 0),
        ("invariants_2211.json", ["invariants", "--type", "2,2,1,1", "--format", "json"], 0),
        ("reduce_242.json", ["reduce", "--type", "2,4,2", "--point", str(GOLDEN / "point_242_u0.json")], 0),
        # (2,5,3) has pairs whose slice monomials carry two base roots and the sign -1
        ("reduce_253.json", ["reduce", "--type", "2,5,3", "--point", str(GOLDEN / "point_253_u0.json")], 0),
        ("invariants_242.tex", ["invariants", "--type", "2,4,2", "--format", "latex"], 0),
        ("invariants_242.txt", ["invariants", "--type", "2,4,2", "--format", "text"], 0),
        ("invariants_433.tex", ["invariants", "--type", "4,3,3", "--format", "latex"], 0),
        ("invariants_433.txt", ["invariants", "--type", "4,3,3", "--format", "text"], 0),
        ("verify_242_seed13.json", ["verify", "--type", "2,4,2", "--seed", "13"], 0),
        ("verify_22211.txt", ["verify", "--type", "2,2,2,1,1", "--format", "text"], 1),
        ("orbit_dim_222.json", ["orbit-dim", "--type", "2,2,2", "--trials", "10", "--seed", "7"], 0),
        # a covered type whose three draws all fall short of the bound: an early stop cannot hide the shortfall
        ("orbit_dim_1x20.json", ["orbit-dim", "--type", ",".join(["1"] * 20), "--trials", "3"], 1),
        ("base_242.txt", ["base", "--type", "2,4,2"], 0),
        ("case242_seed5.json", ["case242", "--seed", "5"], 0),
        ("verify_4.json", ["verify", "--type", "4"], 0),
        ("verify_22211.json", ["verify", "--type", "2,2,2,1,1"], 1),
    ],
    ids=[
        "base", "invariants", "reduce", "reduce-253", "invariants-242-latex", "invariants-242-text", "invariants-433-latex",
        "invariants-433-text", "verify-242-json", "verify-22211-text", "orbit-dim", "orbit-dim-1x20", "base-242-text", "case242-seed5",
        "verify-4-json", "verify-22211-json",
    ],
)
def test_output_matches_golden(capsys, golden, args, exit_code):
    code, out = run(capsys, *args)
    assert code == exit_code
    assert out == (GOLDEN / golden).read_text(encoding="utf-8")


def test_help_matches_golden(capsys, monkeypatch):
    # argparse wraps usage lines at the terminal width, read from COLUMNS
    monkeypatch.setenv("COLUMNS", "80")
    parts = []
    for command in ([], ["diagram"], ["base"], ["invariants"], ["verify"], ["orbit-dim"], ["reduce"], ["case242"]):
        argv = command + ["--help"]
        code, out = run(capsys, *argv)
        assert code == 0
        parts.append("$ nilinv " + " ".join(argv) + "\n" + out)
    assert "".join(parts) == (GOLDEN / "help.txt").read_text(encoding="utf-8")


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
    st.sampled_from(["", "0,2", "2,x", "-1", "2,,2", "1.5", "2_2", "+2", " 2", "\u0662"]),
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
