"""One pass of a perfbench workload, run in a fresh interpreter.

``run.py`` starts this file once per pass (and a few times with
``--setup-only`` to sample set-up time) with ``PYTHONPATH=src``, the way
the tier-1 command imports the package, so every ``lru_cache`` in nilinv
starts cold as it does for a CLI call.  The pass generates its inputs from
``--seed``, times each job, checks each result against ``expected.json``
outside the timed region and writes one JSON document to ``--result``.

Usage:
    PYTHONPATH=src python3 perfbench/worker.py --workload orbit_sweep --seed 1 \\
        --spawned <time.monotonic() of the parent at spawn> --result out.json [--trace]
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import itertools
import json
import random
import resource
import shutil
import signal
import tempfile
import time
import traceback
from fractions import Fraction
from pathlib import Path
from typing import Callable, NamedTuple

from nilinv import checker, cli, invgen, orbitlab
from nilinv.exactpoly import MatrixPoint
from nilinv.rootcomb import ParabolicType, admissible_pairs, compute_base, nilradical_roots, phi_set, s_gamma

from tracing import Tracer

HERE = Path(__file__).resolve().parent
EXPECTED = json.loads((HERE / "expected.json").read_text())

PAPER_TYPES = [(2, 1, 3, 2), (2, 2, 2, 1, 1), (2, 2, 1, 1), (2, 4, 2)]
LADDER_TYPES = [(3, 3, 3, 3), (4, 4, 4), (5, 5, 5, 5), (6, 6, 6)]
STREAM_TYPES = [(4, 4, 4, 4), (2, 5, 3)]
# three (4,4,4,4) points per (2,5,3) point, half of each type conjugated slice
# points: the median then lies inside the (4,4,4,4) cluster, not between the two
STREAM_PATTERN = [(0, "slice"), (0, "u0"), (0, "slice"), (1, "slice"), (0, "u0"), (0, "slice"), (0, "u0"), (1, "u0")]
STREAM_POINTS = 128  # >= 100, so at least ten samples lie beyond p90 in one pass
SWEEP_MAX_N = 8
SWEEP_TRIALS = 5
LARGE_TYPES = [(1,) * 20, (2,) * 8, (3,) * 6, (4,) * 4]
LARGE_POINTS = 2
CONJUGATIONS = 12  # elementary factors of g, as in orbitlab.random_unitriangular
NONZERO = [v for v in range(-9, 10) if v]
CALIBRATE_EVERY_S = 0.5


class Job(NamedTuple):
    id: str
    group: str
    call: Callable[[], object]
    check: Callable[[object], list[str]]


def key(sizes) -> str:
    return "-".join(str(x) for x in sizes)


# -- inputs -------------------------------------------------------------------


def compositions(n: int):
    """Every ordered composition of n, in the order of scripts/scan_orbit_dims.py."""
    for cuts in itertools.product((0, 1), repeat=n - 1):
        sizes, cur = [], 1
        for cut in cuts:
            if cut:
                sizes.append(cur)
                cur = 1
            else:
                cur += 1
        sizes.append(cur)
        yield tuple(sizes)


def det(rows: list[list[Fraction]]) -> Fraction:
    a = [row[:] for row in rows]
    out = Fraction(1)
    for c in range(len(a)):
        p = next((r for r in range(c, len(a)) if a[r][c] != 0), None)
        if p is None:
            return Fraction(0)
        if p != c:
            a[c], a[p] = a[p], a[c]
            out = -out
        out *= a[c][c]
        for r in range(c + 1, len(a)):
            f = a[r][c] / a[c][c]
            for k in range(c, len(a)):
                a[r][k] -= f * a[c][k]
    return out


def slice_point(ptype: ParabolicType, rng: random.Random) -> dict[tuple, int]:
    """Nonzero values on the base, any values on the marked positions Phi."""
    base = compute_base(ptype)
    entries = {tuple(r): rng.choice(NONZERO) for r in sorted(base.roots)}
    entries.update({tuple(r): rng.randint(-9, 9) for r in sorted(phi_set(admissible_pairs(ptype, base)))})
    return entries


def conjugate(n: int, entries: dict[tuple, int], rng: random.Random) -> list[list[int]]:
    """g x g^-1 for g a product of random elementary unitriangular matrices."""
    a = [[0] * n for _ in range(n)]
    for (i, j), v in entries.items():
        a[i - 1][j - 1] = v
    for _ in range(CONJUGATIONS):
        u = rng.randint(1, n - 1)
        v = rng.randint(u + 1, n)
        s = rng.randint(-4, 4)
        # (1 + s E_uv) a (1 - s E_uv): row u += s row v, then column v -= s column u
        for c in range(n):
            a[u - 1][c] += s * a[v - 1][c]
        for r in range(n):
            a[r][v - 1] -= s * a[r][u - 1]
    return a


def u0_point(ptype: ParabolicType, rng: random.Random) -> list[list[int]]:
    """Random integer point of the nilradical whose base minors are all nonzero.

    Draws in the order of orbitlab.sample_u0_point but decides membership of
    U0 with the benchmark's own determinant, so inputs do not depend on the
    program under test.
    """
    base = compute_base(ptype)
    positions = sorted(nilradical_roots(ptype))
    minors = []
    for xi in base.roots:
        inner = s_gamma(base, xi)
        minors.append((sorted({xi.i} | {r.i for r in inner}), sorted({r.j for r in inner} | {xi.j})))
    n = ptype.n
    while True:
        a = [[0] * n for _ in range(n)]
        for r in positions:
            a[r.i - 1][r.j - 1] = rng.randint(-9, 9)
        if all(det([[Fraction(a[i - 1][j - 1]) for j in cols] for i in rows]) != 0 for rows, cols in minors):
            return a


def matrix_point(a: list[list[int]]) -> MatrixPoint:
    return MatrixPoint(len(a), [[Fraction(v) for v in row] for row in a])


# -- checks -------------------------------------------------------------------


def check_report(doc: dict, want: dict, exit_code: int | None = None) -> list[str]:
    """Compare a verification report with its pinned flags, ranks and coranks."""
    got = {
        "flags": doc["flags"],
        "rank": doc["independence"]["rank"],
        "expected": doc["independence"]["expected"],
        "corank": {"alpha": doc["corank"]["alpha"], "s_phi": doc["corank"]["s_phi"]},
    }
    if exit_code is not None:
        got["exit"] = exit_code
    return [f"{k}: got {got[k]!r}, pinned {want[k]!r}" for k in want if got.get(k) != want[k]]


def check_case242(doc: dict, exit_code: int, want: dict) -> list[str]:
    got = {
        "exit": exit_code,
        "passed": doc["passed"],
        "identity_sign": doc["identity"]["sign"],
        "nine_generator_rank": doc["nine_generator_rank"],
    }
    return [f"{k}: got {got[k]!r}, pinned {want[k]!r}" for k in want if got[k] != want[k]]


def check_reduction(record: dict, y: dict[tuple, int] | None) -> list[str]:
    errors = [] if record["pass"] else ["pass is false"]
    if y is not None:
        got = {(i, j): Fraction(v) for i, j, v in record["y"]["entries"]}
        want = {pos: Fraction(v) for pos, v in y.items() if v}
        if got != want:
            errors.append(f"reduced point {got} differs from the conjugated slice point {want}")
    return errors


def check_value(got, want, what: str) -> list[str]:
    return [] if got == want else [f"{what}: got {got!r}, pinned {want!r}"]


# -- workloads ----------------------------------------------------------------


def verify_ladder(seed: int, tmp: Path, expected: dict) -> list[Job]:
    jobs = []
    for sizes in PAPER_TYPES:
        out = tmp / f"verify_{key(sizes)}.json"
        argv = ["verify", "--type", ",".join(map(str, sizes)), "--seed", str(seed), "--out", str(out)]
        want = expected["verify"][key(sizes)]
        jobs.append(
            Job(
                f"cli.verify.{key(sizes)}",
                "paper",
                lambda argv=argv: cli.main(argv),
                lambda rc, out=out, want=want: check_report(json.loads(out.read_text()), want, rc),
            )
        )
    out = tmp / "case242.json"
    argv = ["case242", "--seed", str(seed), "--out", str(out)]
    jobs.append(
        Job(
            "cli.case242",
            "paper",
            lambda: cli.main(argv),
            lambda rc: check_case242(json.loads(out.read_text()), rc, expected["case242"]),
        )
    )
    for sizes in LADDER_TYPES:
        ptype = ParabolicType(sizes)
        want = expected["verify"][key(sizes)]
        jobs.append(
            Job(
                f"verify.{key(sizes)}",
                "verify",
                lambda ptype=ptype: checker.verify_type(ptype, seed),
                lambda report, want=want: check_report(report.to_json_dict(), want),
            )
        )
    return jobs


def reduce_stream(seed: int, tmp: Path, expected: dict) -> list[Job]:
    rng = random.Random(seed)
    ptypes = [ParabolicType(sizes) for sizes in STREAM_TYPES]
    gens = [invgen.build_generators(p) for p in ptypes]
    jobs = []
    for k in range(STREAM_POINTS):
        which, kind = STREAM_PATTERN[k % len(STREAM_PATTERN)]
        ptype = ptypes[which]
        if kind == "slice":
            y = slice_point(ptype, rng)
            x = matrix_point(conjugate(ptype.n, y, rng))
        else:
            y = None
            x = matrix_point(u0_point(ptype, rng))
        jobs.append(
            Job(
                f"point.{k}.{key(ptype.block_sizes)}.{kind}",
                "point",
                lambda ptype=ptype, x=x, g=gens[which]: orbitlab.verify_unique_intersection(ptype, x, g),
                lambda record, y=y: check_reduction(record, y),
            )
        )
    return jobs


def orbit_sweep(seed: int, tmp: Path, expected: dict) -> list[Job]:
    jobs = []
    for n in range(1, SWEEP_MAX_N + 1):
        for sizes in compositions(n):
            ptype = ParabolicType(sizes)
            want = expected["sweep"][key(sizes)]
            jobs.append(
                Job(
                    f"sweep.{key(sizes)}",
                    "sweep",
                    lambda ptype=ptype: orbitlab.orbit_experiment(ptype, SWEEP_TRIALS, seed),
                    lambda rec, want=want: check_value([rec["max_rank"], rec["pass"]], [want, True], "[max_rank, pass]"),
                )
            )
    rng = random.Random(seed)
    for sizes in LARGE_TYPES:
        ptype = ParabolicType(sizes)
        want = expected["large"][key(sizes)]
        for k in range(LARGE_POINTS):
            x = matrix_point(conjugate(ptype.n, slice_point(ptype, rng), rng))
            jobs.append(
                Job(
                    f"large.{key(sizes)}.{k}",
                    "large",
                    lambda ptype=ptype, x=x: orbitlab.orbit_dim(ptype, x),
                    lambda dim, want=want: check_value(dim, want, "orbit_dim"),
                )
            )
    return jobs


WORKLOADS = {"verify_ladder": verify_ladder, "reduce_stream": reduce_stream, "orbit_sweep": orbit_sweep}


def _calibration_polys() -> tuple[dict, dict]:
    rng = random.Random(0)

    def poly() -> dict:
        terms = {}
        for _ in range(24):
            mono = tuple(sorted({(rng.randint(1, 12), rng.randint(1, 12)): 1 for _ in range(4)}.items()))
            terms[mono] = Fraction(rng.choice(NONZERO), rng.randint(1, 5))
        return terms

    return poly(), poly()


CALIBRATION_POLYS = _calibration_polys()


def calibrate() -> float:
    """Seconds taken by a fixed slice of exact arithmetic in this interpreter.

    The host's speed drifts by 10-20% over minutes; the program's work and
    this loop slow down together, so their ratio is far steadier than
    either time.  The loop has the mix of nilinv's hot paths: a sparse
    product of tuple-keyed polynomials with Fraction coefficients, Fraction
    sums, and fraction-free integer elimination.  It is the benchmark's own
    code and never changes with the program; the collector is paused so
    that the size of the program's heap does not leak into the reference.
    """
    gc.disable()
    start = time.perf_counter()
    p, q = CALIBRATION_POLYS
    product: dict = {}
    for m1, c1 in p.items():
        for m2, c2 in q.items():
            exps = dict(m1)
            for v, e in m2:
                exps[v] = exps.get(v, 0) + e
            mono = tuple(sorted(exps.items()))
            acc = product.get(mono, Fraction(0)) + c1 * c2
            if acc:
                product[mono] = acc
            else:
                product.pop(mono, None)
    acc = Fraction(0)
    for i in range(1, 600):
        acc += Fraction(i, i + 1)
    rows = [[(i * 31 + j * 17) % 19 - 9 for j in range(20)] for i in range(20)]
    prev = 1
    for c in range(19):
        pivot = rows[c][c] or 1
        for r in range(c + 1, 20):
            rows[r] = [(x * pivot - rows[r][c] * y) // prev for x, y in zip(rows[r], rows[c])]
        prev = pivot
    seconds = time.perf_counter() - start
    gc.enable()
    return seconds


class Calibrator:
    """Runs ``calibrate`` now, every CALIBRATE_EVERY_S from a timer signal, and at exit.

    The signal handler runs between bytecodes of whatever job is running, so
    long jobs are covered too; ``spent`` is the time the handler took, which
    ``run_jobs`` subtracts from the job it interrupted.
    """

    def __init__(self):
        self.samples: list[float] = []
        self.spent = 0.0
        self._previous = signal.SIG_DFL

    def tick(self, signum=None, frame=None) -> None:
        start = time.perf_counter()
        self.samples.append(calibrate())
        self.spent += time.perf_counter() - start

    def __enter__(self) -> "Calibrator":
        self.tick()
        self._previous = signal.signal(signal.SIGALRM, self.tick)
        signal.setitimer(signal.ITIMER_REAL, CALIBRATE_EVERY_S, CALIBRATE_EVERY_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)
        self.tick()


def run_jobs(jobs: list[Job], tracer: Tracer | None = None) -> tuple[list[list], list[float]]:
    """Time each call; check its result outside the timed region.

    Returns ``[id, group, seconds, errors]`` per job, and the calibration
    times of the pass.  A traced pass is not calibrated, so the timer signal
    lands in no span.  A job that raises is a failed check, not the end of
    the pass.
    """
    records = []
    calibrator = Calibrator()
    with contextlib.nullcontext() if tracer is not None else calibrator:
        for job in jobs:
            if tracer is not None:
                tracer.job = job.id
            spent = calibrator.spent
            start = time.perf_counter()
            try:
                out = job.call()
            except Exception:
                seconds = time.perf_counter() - start
                errors = [traceback.format_exc(limit=-3)]
            else:
                seconds = time.perf_counter() - start
                errors = None
            finally:
                if tracer is not None:
                    tracer.job = None
            seconds -= calibrator.spent - spent
            if errors is None:
                try:
                    errors = job.check(out)
                except Exception:
                    errors = [traceback.format_exc(limit=-3)]
            records.append([job.id, job.group, seconds, errors])
    return records, calibrator.samples


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--spawned", type=float, required=True)
    parser.add_argument("--result", type=Path, required=True)
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--trace", action="store_true")
    args = parser.parse_args(argv)

    tracer = None
    if args.trace:
        tracer = Tracer()
        tracer.install()
    tmp = Path(tempfile.mkdtemp(prefix="tmp-", dir=args.result.parent))
    try:
        jobs = WORKLOADS[args.workload](args.seed, tmp, EXPECTED)
        result = {"setup_s": time.monotonic() - args.spawned}
        if not args.setup_only:
            before = invgen.minor_poly.cache_info()
            result["jobs"], result["calibration_s"] = run_jobs(jobs, tracer)
            after = invgen.minor_poly.cache_info()
            result["minor_poly"] = {"hits": after.hits - before.hits, "misses": after.misses - before.misses}
            if tracer is not None:
                result["trace"] = tracer.summary()
                with open(args.result.with_suffix(".spans.jsonl"), "w", encoding="utf-8") as fh:
                    for span in tracer.spans:
                        fh.write(json.dumps(span) + "\n")
        result["peak_rss_kb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    finally:
        shutil.rmtree(tmp)
    args.result.write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
