"""nilinv benchmark: one workload, one seed, one measured run.

Usage (from the repository root):
    python3 perfbench/run.py --workload verify_ladder --seed 1 --seconds 30 --trace 0

A single-process, single-thread, closed-loop benchmark: one caller that
waits for each result.  Every pass of the workload runs in a fresh interpreter
(``worker.py``) so caches start cold as for a CLI call; passes repeat until
``--seconds`` have passed.  A few extra interpreters only set up, so
that set-up time is a median.  With ``--trace 0`` the run prints every
end-to-end metric; with ``--trace 1`` it alternates untraced and traced
passes and prints the per-layer metrics and the tracing overhead.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the lines before it
are a table of every metric with its unit.  The full result, with run
provenance and the sample count behind each percentile, is written to
``perfbench/out/``.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
OUT = HERE / "out"
WORKLOADS = ("verify_ladder", "reduce_stream", "orbit_sweep")
# End-to-end metrics in the final JSON line (BENCHMARK.json "end_to_end").  Raw
# wall_s swings 10-20% between runs with the host's speed, so the gate is on
# wall_norm; wall_s and each workload's own metrics are in the table above it.
GATED = ("setup_s", "wall_norm", "peak_rss_mb")
SETUP_RUNS = 5
WORKER_TIMEOUT_S = 120  # a pass takes under 20 s; a run must end within 180 s


def percentile(values: list[float], q: float) -> float:
    """Nearest-rank percentile (q in (0, 1])."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


def git_sha() -> str | None:
    """HEAD of the checkout, or None when the checkout is not a git work tree."""
    try:
        done = subprocess.run(
            ["git", "rev-parse", "--show-toplevel", "HEAD"], cwd=HERE, capture_output=True, text=True, timeout=10
        )
    except (OSError, subprocess.SubprocessError):
        return None
    lines = done.stdout.split()
    if done.returncode != 0 or len(lines) != 2 or Path(lines[0]).resolve() != HERE.parent:
        return None
    return lines[1]


def spawn(workload: str, seed: int, tag: str, *, setup_only: bool = False, trace: bool = False) -> dict:
    """Run one worker interpreter to completion and return its result."""
    result = OUT / f"{workload}-{tag}.json"
    env = dict(os.environ)
    env["PYTHONPATH"] = "src" + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", workload, "--seed", str(seed), "--result", str(result)]
    cmd += ["--setup-only"] * setup_only + ["--trace"] * trace
    done = subprocess.run(
        cmd + ["--spawned", repr(time.monotonic())],
        env=env,
        stdout=subprocess.DEVNULL,
        timeout=WORKER_TIMEOUT_S,
    )
    if done.returncode != 0:
        raise SystemExit(f"perfbench: worker for {workload} exited with code {done.returncode}")
    doc = json.loads(result.read_text())
    result.unlink()
    return doc


def wall(p: dict) -> float:
    return sum(seconds for _, _, seconds, _ in p["jobs"])


def summed_self_s(p: dict) -> float:
    return sum(v for k, v in p["trace"].items() if k.endswith(".self_s"))


def wall_norm(p: dict) -> float:
    return wall(p) / statistics.median(p["calibration_s"])


def group_s(p: dict, group: str) -> float:
    return sum(seconds for _, g, seconds, _ in p["jobs"] if g == group)


def job_s(p: dict, job_id: str) -> float:
    return next(seconds for j, _, seconds, _ in p["jobs"] if j == job_id)


def failures(passes: list[dict]) -> list[list]:
    """[job id, errors] for every job whose result failed its check."""
    return [[job, errors] for p in passes for job, _, _, errors in p["jobs"] if errors]


def workload_details(workload: str, passes: list[dict]) -> dict:
    """The workload's own end-to-end metrics: (value, unit, sample count)."""
    med = statistics.median
    n = len(passes)
    if workload == "verify_ladder":
        return {
            "paper_s": (med(group_s(p, "paper") for p in passes), "s", n),
            "verify_s.5-5-5-5": (med(job_s(p, "verify.5-5-5-5") for p in passes), "s", n),
            "verify_s.6-6-6": (med(job_s(p, "verify.6-6-6") for p in passes), "s", n),
        }
    if workload == "reduce_stream":
        samples = [seconds * 1e3 for p in passes for _, _, seconds, _ in p["jobs"]]
        return {
            "reduce_ms.p50": (percentile(samples, 0.5), "ms", len(samples)),
            "reduce_ms.p90": (percentile(samples, 0.9), "ms", len(samples)),
            "points_per_s": (len(samples) / (sum(samples) / 1e3), "1/s", len(samples)),
        }
    return {
        "sweep_s": (med(group_s(p, "sweep") for p in passes), "s", n),
        "orbit_large_s": (med(group_s(p, "large") for p in passes), "s", n),
    }


def end_to_end(setups: list[float], passes: list[dict]) -> dict:
    med = statistics.median
    return {
        "setup_s": (med(setups), "s", len(setups)),
        "wall_s": (med(wall(p) for p in passes), "s", len(passes)),
        "wall_norm": (med(wall_norm(p) for p in passes), "ratio", len(passes)),
        "peak_rss_mb": (med(p["peak_rss_kb"] / 1024 for p in passes), "MB", len(passes)),
    }


def per_layer(untraced: list[dict], traced: list[dict]) -> dict:
    """Medians of the traced passes' layer summaries, plus derived ratios."""
    med = statistics.median
    names = traced[0]["trace"].keys()
    layer = {name: med(p["trace"][name] for p in traced) for name in names}
    attempts = layer["checker.independence_details.attempts"]
    verdicts = layer.pop("checker.independence_details.verdicts")
    layer["checker.independence_details.success_ratio"] = verdicts / attempts if attempts else 0.0
    hits = sum(p["minor_poly"]["hits"] for p in traced)
    lookups = hits + sum(p["minor_poly"]["misses"] for p in traced)
    layer["invgen.minor_poly.hit_ratio"] = hits / lookups if lookups else 0.0
    traced_wall = med(wall(p) for p in traced)
    layer["trace.wall_s"] = traced_wall
    layer["trace.overhead_s"] = traced_wall - med(wall(p) for p in untraced)
    layer["trace.summed_self_s"] = med(summed_self_s(p) for p in traced)
    return layer


def layer_unit(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    if name.endswith("_ratio"):
        return "ratio"
    return "count"


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (Path("src") / "nilinv" / "__init__.py").is_file():
        print("perfbench: run from the repository root; src/nilinv is missing", file=sys.stderr)
        return 2
    OUT.mkdir(exist_ok=True)

    setups = [spawn(args.workload, args.seed, f"setup{k}", setup_only=True)["setup_s"] for k in range(SETUP_RUNS)]
    passes: list[tuple[bool, dict]] = []
    deadline = time.monotonic() + args.seconds
    while True:
        traced = bool(args.trace) and len(passes) % 2 == 1
        passes.append((traced, spawn(args.workload, args.seed, f"pass{len(passes)}", trace=traced)))
        if len(passes) >= 1 + args.trace and time.monotonic() >= deadline:
            break
    untraced = [p for t, p in passes if not t]
    traced = [p for t, p in passes if t]
    setups += [p["setup_s"] for p in untraced]

    attempted = sum(len(p["jobs"]) for _, p in passes)
    failed_jobs = failures([p for _, p in passes])
    details = {**end_to_end(setups, untraced), **workload_details(args.workload, untraced)}
    if args.trace:
        layer = per_layer(untraced, traced)
        attempted += len(traced)
        for p in traced:
            if summed_self_s(p) > wall(p):
                failed_jobs.append(["trace", [f"summed self time {summed_self_s(p)} exceeds wall time {wall(p)}"]])
        metrics = {name: {"value": value, "unit": layer_unit(name)} for name, value in sorted(layer.items())}
    else:
        metrics = {name: {"value": details[name][0], "unit": details[name][1]} for name in GATED}
    failed = len(failed_jobs)
    details["fail_ratio"] = (failed / attempted, "ratio", attempted)

    doc = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "provenance": {
            "python": platform.python_version(),
            "nproc": os.cpu_count(),
            "git_sha": git_sha(),
            "passes": {"untraced": len(untraced), "traced": len(traced)},
        },
        "end_to_end": {name: {"value": v, "unit": u, "samples": n} for name, (v, u, n) in details.items()},
        "per_layer": metrics if args.trace else None,
        "attempted": attempted,
        "failed": failed,
        "failures": failed_jobs[:20],
        "pass_wall_s": {"untraced": [wall(p) for p in untraced], "traced": [wall(p) for p in traced]},
        "setup_s_samples": setups,
    }
    (OUT / f"BENCH_{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(json.dumps(doc, indent=1) + "\n")

    print(f"# {args.workload} seed={args.seed} passes={len(untraced)}+{len(traced)} traced python={doc['provenance']['python']}")
    for name, (value, unit, n) in details.items():
        print(f"{name:<28} {value:>14.6g} {unit:<6} (n={n})")
    if args.trace:
        for name, m in metrics.items():
            print(f"{name:<52} {m['value']:>14.6g} {m['unit']}")
    for job, errors in failed_jobs[:5]:
        print(f"FAILED {job}: {errors[0]}")
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
