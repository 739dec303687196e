"""The experiment scripts, run as a user runs them."""

import json
import os
import pathlib
import subprocess
import sys

from nilinv.cli import main

ROOT = pathlib.Path(__file__).parent.parent
REPORTS = ["case242.json", "verify_2-1-3-2.json", "verify_2-2-1-1.json", "verify_2-2-2-1-1.json", "verify_2-4-2.json"]


def _run_script(name, *args, cwd=None, **environ):
    env = dict(os.environ, **environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, str(ROOT / "scripts" / name), *args], capture_output=True, text=True, env=env, timeout=300, cwd=cwd
    )


def test_scan_orbit_dims_finds_no_mismatch():
    result = _run_script("scan_orbit_dims.py", "--max-n", "5", "--trials", "3")
    assert result.returncode == 0, result.stderr
    lines = result.stdout.splitlines()
    assert len(lines) == 32 and lines[0].startswith("(1,) ")
    assert lines[-1] == "31 types, 0 mismatches"


def test_scan_orbit_dims_refuses_zero_trials_as_nilinv_does(capsys):
    result = _run_script("scan_orbit_dims.py", "--max-n", "3", "--trials", "0")
    assert (result.returncode, result.stdout, result.stderr) == (2, "", "error: trials must be >= 1\n")
    assert main(["orbit-dim", "--type", "2,1", "--trials", "0"]) == 2
    assert capsys.readouterr().err == result.stderr


def test_scan_orbit_dims_records_match_the_golden_file(tmp_path):
    # every record, max_rank included, pins the draw order of the sampler and the rank at each draw
    result = _run_script("scan_orbit_dims.py", "--max-n", "7", "--trials", "5", "--outdir", str(tmp_path))
    assert result.returncode == 0, result.stderr
    assert (tmp_path / "orbit_scan.json").read_bytes() == (ROOT / "tests" / "golden" / "orbit_scan_n7.json").read_bytes()


def test_verify_paper_types_reports_equal_the_cli(tmp_path, capsys):
    result = _run_script("verify_paper_types.py", "--outdir", str(tmp_path))
    # the honest corank_bookkeeping failure on (2,2,2,1,1) makes the battery fail
    assert result.returncode == 1, result.stderr
    assert "(2, 2, 2, 1, 1): passed=False  corank_bookkeeping=False" in result.stdout
    written = sorted(p.name for p in tmp_path.iterdir())
    assert written == REPORTS
    for name in written:
        argv = ["case242"] if name == "case242.json" else ["verify", "--type", name[7:-5].replace("-", ",")]
        code = main(argv)
        assert capsys.readouterr().out == (tmp_path / name).read_text(), name
        assert code == (0 if json.loads((tmp_path / name).read_text())["passed"] else 1)


def test_verify_paper_types_writes_into_its_outdir_under_nilinv_outdir(tmp_path):
    # the script hands nilinv absolute --out paths, so NILINV_OUTDIR does not move a relative --outdir
    elsewhere = tmp_path / "elsewhere"
    result = _run_script("verify_paper_types.py", "--outdir", "reports", cwd=tmp_path, NILINV_OUTDIR=str(elsewhere))
    assert result.returncode == 1, result.stderr
    assert sorted(p.name for p in (tmp_path / "reports").iterdir()) == REPORTS
    assert not elsewhere.exists()
