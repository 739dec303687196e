"""Command-line front end.

Subcommands expose the whole toolkit with text, JSON, and LaTeX output:

  diagram    render the base/marked-root diagram of a type
  base       list base roots, admissible pairs, marked sets, dimensions
  invariants print the generator polynomials
  verify     invariance + independence + corank report (exit 1 on failure)
  orbit-dim  randomized maximal orbit dimension vs the predicted value
  reduce     conjugate a point file onto the slice and cross-check
  case242    the full (2,4,2) study

Exit codes: 0 all checks pass, 1 a verification failed, 2 usage error.
JSON outputs are deterministic for fixed seeds.  The NILINV_OUTDIR
environment variable supplies a base directory for relative --out paths.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from .checker import case242_report, verify_type
from .errors import NilinvError, OutsideU0Error
from .exactpoly import MatrixPoint
from .invgen import build_generators
from .orbitlab import DEFAULT_SEED, orbit_experiment, verify_unique_intersection
from .rootcomb import (
    ParabolicType,
    admissible_pairs,
    compute_base,
    dims,
    phi_set,
    psi_set,
    render_diagram,
)


def _emit(text: str, out_path: str | None) -> None:
    if out_path is None:
        sys.stdout.write(text)
        return
    if not os.path.isabs(out_path):
        out_path = os.path.join(os.environ.get("NILINV_OUTDIR", "."), out_path)
    os.makedirs(os.path.dirname(out_path) or ".", exist_ok=True)
    with open(out_path, "w", encoding="utf-8") as fh:
        fh.write(text)


def _json_doc(doc: dict) -> str:
    return json.dumps(doc, sort_keys=True, indent=2) + "\n"


def _base_doc(ptype: ParabolicType) -> dict:
    base = compute_base(ptype)
    pairs = admissible_pairs(ptype, base)
    return {
        "type": list(ptype.block_sizes),
        "blocks": list(ptype.block_sizes),
        "base": [[r.i, r.j] for r in base.by_column()],
        "pairs": [q.to_json_dict() for q in pairs],
        "phi": [list(r) for r in sorted(phi_set(pairs))],
        "psi": [list(r) for r in sorted(psi_set(pairs))],
        "dims": dims(ptype).to_dict(),
    }


def _base_text(doc: dict) -> str:
    lines = [f"type {tuple(doc['type'])}"]
    lines.append("base  " + " ".join(f"({i},{j})" for i, j in doc["base"]))
    for q in doc["pairs"]:
        lines.append(
            f"pair  xi=({q['xi'][0]},{q['xi'][1]}) xi'=({q['xi_prime'][0]},{q['xi_prime'][1]})"
            f" alpha=({q['alpha'][0]},{q['alpha'][1]}) phi=({q['phi'][0]},{q['phi'][1]})"
            f" psi=({q['psi'][0]},{q['psi'][1]})"
        )
    lines.append("phi   " + " ".join(f"({i},{j})" for i, j in doc["phi"]))
    lines.append("psi   " + " ".join(f"({i},{j})" for i, j in doc["psi"]))
    d = doc["dims"]
    lines.append(
        f"dim m = {d['dim_m']}, |S| = {d['base_size']}, |Q| = {d['pair_count']},"
        f" predicted regular orbit dim = {d['predicted_regular_orbit_dim']},"
        f" slice dim = {d['y_dim']}"
    )
    return "\n".join(lines) + "\n"


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(prog="nilinv", description=__doc__.split("\n")[0])
    sub = parser.add_subparsers(dest="command", required=True)

    p_diagram = sub.add_parser("diagram", help="render the diagram of a type")
    p_diagram.add_argument("--type", required=True)
    p_diagram.add_argument("--format", default="text", choices=["text", "latex", "json"])
    p_diagram.add_argument("--marked", default="phi", choices=["phi", "psi"])
    p_diagram.add_argument("--offset", type=int, default=0)
    p_diagram.add_argument("--out")

    p_base = sub.add_parser("base", help="base roots, pairs, marked sets, dimensions")
    p_base.add_argument("--type", required=True)
    p_base.add_argument("--format", default="text", choices=["text", "json"])
    p_base.add_argument("--out")

    p_inv = sub.add_parser("invariants", help="print the generator polynomials")
    p_inv.add_argument("--type", required=True)
    p_inv.add_argument("--format", default="text", choices=["text", "json", "latex"])
    p_inv.add_argument("--out")

    p_verify = sub.add_parser("verify", help="invariance/independence/corank report")
    p_verify.add_argument("--type", required=True)
    p_verify.add_argument("--seed", type=int, default=DEFAULT_SEED)
    p_verify.add_argument("--format", default="json", choices=["json", "text"])
    p_verify.add_argument("--out")

    p_orbit = sub.add_parser("orbit-dim", help="sampled maximal orbit dimension")
    p_orbit.add_argument("--type", required=True)
    p_orbit.add_argument("--trials", type=int, default=20)
    p_orbit.add_argument("--seed", type=int, default=DEFAULT_SEED)
    p_orbit.add_argument("--out")

    p_reduce = sub.add_parser("reduce", help="conjugate a point file onto the slice")
    p_reduce.add_argument("--type", required=True)
    p_reduce.add_argument("--point", required=True, help="JSON file {n, entries: [[i,j,'p/q'],...]}")
    p_reduce.add_argument("--out")

    p_case = sub.add_parser("case242", help="the full (2,4,2) study")
    p_case.add_argument("--seed", type=int, default=DEFAULT_SEED)
    p_case.add_argument("--out")

    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)

    try:
        if args.command in ("diagram", "base", "invariants", "verify", "orbit-dim", "reduce"):
            ptype = ParabolicType.from_string(args.type)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    try:
        if args.command == "diagram":
            _emit(render_diagram(ptype, args.format, args.marked, args.offset), args.out)
            return 0

        if args.command == "base":
            doc = _base_doc(ptype)
            _emit(_json_doc(doc) if args.format == "json" else _base_text(doc), args.out)
            return 0

        if args.command == "invariants":
            gens = build_generators(ptype)
            if args.format == "json":
                _emit(_json_doc(gens.to_json_dict()), args.out)
            elif args.format == "latex":
                _emit(gens.to_latex(), args.out)
            else:
                lines = [f"{name} = {poly}" for name, poly in gens.named()]
                _emit("\n".join(lines) + "\n", args.out)
            return 0

        if args.command == "verify":
            report = verify_type(ptype, args.seed)
            doc = report.to_json_dict()
            if args.format == "text":
                flags = " ".join(f"{k}={v}" for k, v in sorted(report.flags.items()))
                _emit(f"type {ptype} passed={report.passed} {flags}\n", args.out)
            else:
                _emit(_json_doc(doc), args.out)
            return 0 if report.passed else 1

        if args.command == "orbit-dim":
            record = orbit_experiment(ptype, args.trials, args.seed)
            _emit(_json_doc(record), args.out)
            return 0 if record["pass"] else 1

        if args.command == "reduce":
            with open(args.point, "r", encoding="utf-8") as fh:
                point = MatrixPoint.from_json_dict(json.load(fh))
            if point.n != ptype.n:
                print(f"error: point size {point.n} != type size {ptype.n}", file=sys.stderr)
                return 2
            try:
                record = verify_unique_intersection(ptype, point)
            except OutsideU0Error as exc:
                _emit(_json_doc({"error": "outside U0", "xi": list(exc.xi)}), args.out)
                return 1
            _emit(_json_doc(record), args.out)
            return 0 if record["pass"] else 1

        if args.command == "case242":
            report = case242_report(args.seed)
            _emit(_json_doc(report.to_json_dict()), args.out)
            return 0 if report.passed else 1
    except (ValueError, NilinvError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    return 2


def entry() -> None:
    raise SystemExit(main())


if __name__ == "__main__":
    entry()
