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
Each command bounds the size n of --type (n + --offset for diagram),
invariants the order of the largest corner minor it prints, and orbit-dim
--trials and its rank work; a larger value is a usage error.  The handlers
check the corner-minor, trials and work limits before any work is done.
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
from .invgen import GeneratorSet, build_generators
from .orbitlab import DEFAULT_SEED, orbit_experiment, verify_unique_intersection
from .rootcomb import (
    ParabolicType,
    dims,
    nilradical_roots,
    phi_set,
    psi_set,
    render_diagram,
)

MAX_MINOR = 8  # invariants prints every term of its largest corner minor, about order! of them
MAX_TRIALS = 10_000  # orbit-dim; the limits and their measured cost are listed in README
# default 20 trials on (1,)*24 (276 x 276); rank updates at most Bareiss's rows*cols*min cells plus a lift per touched row
MAX_ORBIT_WORK = 20 * 276**3


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


def _base_doc(gens: GeneratorSet) -> dict:
    return {
        "type": list(gens.ptype.block_sizes),
        "blocks": list(gens.ptype.block_sizes),
        "base": [[r.i, r.j] for r in gens.base.roots],
        "pairs": [q.to_json_dict() for q in gens.pairs],
        "phi": [list(r) for r in sorted(phi_set(gens.pairs))],
        "psi": [list(r) for r in sorted(psi_set(gens.pairs))],
        "dims": dims(gens),
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


def _diagram(args) -> tuple[str, int]:
    if args.type.n + args.offset > args.max_n:  # the grid has n + offset rows
        raise ValueError(f"type size {args.type.n} plus --offset {args.offset} is above the limit {args.max_n} of diagram")
    return render_diagram(args.type, args.format, args.marked, args.offset), 0


def _base(args) -> tuple[str, int]:
    doc = _base_doc(build_generators(args.type))
    return (_json_doc(doc) if args.format == "json" else _base_text(doc)), 0


def _invariants(args) -> tuple[str, int]:
    gens = build_generators(args.type)
    if (order := gens.largest_minor_order()) > MAX_MINOR:  # read off the forms, before anything is expanded
        raise ValueError(f"corner minor order {order} is above the limit {MAX_MINOR} of invariants")
    named = gens.named()
    if args.format == "json":
        doc = {key: value for key, value in _base_doc(gens).items() if key in ("type", "base", "pairs")}
        return _json_doc({**doc, "generators": [{"name": name, "poly": str(p)} for name, p in named]}), 0
    if args.format == "latex":
        labels = [f"M_{{{xi}}}" for xi in gens.base.roots] + [f"L_{{{q.xi},{q.xi_prime}}}" for q in gens.pairs] + ["D"]
        lines = [f"{label} &= {p.latex()}\\\\" for label, (_, p) in zip(labels, named)]
        return "\n".join([r"\begin{align*}", *lines, r"\end{align*}"]) + "\n", 0
    return "\n".join(f"{name} = {poly}" for name, poly in named) + "\n", 0


def _verify(args) -> tuple[str, int]:
    doc = verify_type(args.type, args.seed)
    code = 0 if doc["passed"] else 1
    if args.format == "json":
        return _json_doc(doc), code
    flags = " ".join(f"{k}={v}" for k, v in sorted(doc["flags"].items()))
    return f"type {args.type} passed={doc['passed']} {flags}\n", code


def _orbit_dim(args) -> tuple[str, int]:
    # one n(n-1)/2 x dim m bracket matrix is ranked per trial
    rows, cols = args.type.n * (args.type.n - 1) // 2, len(nilradical_roots(args.type))
    if args.trials > MAX_TRIALS:
        raise ValueError(f"--trials {args.trials} is above the limit {MAX_TRIALS}")
    if (work := args.trials * rows * cols * min(rows, cols)) > MAX_ORBIT_WORK:
        raise ValueError(f"--trials {args.trials} needs rank work {work}, above the limit {MAX_ORBIT_WORK}")
    record = orbit_experiment(args.type, args.trials, args.seed)
    return _json_doc(record), 0 if record["pass"] else 1


def _reduce(args) -> tuple[str, int]:
    with open(args.point, "r", encoding="utf-8") as fh:
        try:
            doc = json.load(fh)
        except RecursionError:  # json.load recurses once per level of nesting
            raise ValueError(f"point file {args.point} is nested too deeply") from None
        except json.JSONDecodeError as exc:
            raise ValueError(f"point file {args.point} is not JSON: {exc}") from None
    point = MatrixPoint.from_json_dict(doc, args.type.n)
    try:
        record = verify_unique_intersection(args.type, point)
    except OutsideU0Error as exc:
        return _json_doc({"error": "outside U0", "xi": list(exc.xi)}), 1
    return _json_doc(record), 0 if record["pass"] else 1


def _case242(args) -> tuple[str, int]:
    doc = case242_report(args.seed)
    return _json_doc(doc), 0 if doc["passed"] else 1


TYPE = ("--type", {"required": True})
SEED = ("--seed", {"type": int, "default": DEFAULT_SEED})


def _format(*names: str) -> tuple[str, dict]:
    return "--format", {"default": names[0], "choices": list(names)}


# name -> (help, handler, options in --help order, largest n of --type);
# every parser ends with --out
COMMANDS = {
    "diagram": ("render the diagram of a type", _diagram, [
        TYPE, _format("text", "latex", "json"),
        ("--marked", {"default": "phi", "choices": ["phi", "psi"]}),
        ("--offset", {"type": int, "default": 0}),
    ], 200),
    "base": ("base roots, pairs, marked sets, dimensions", _base, [TYPE, _format("text", "json")], 200),
    "invariants": ("print the generator polynomials", _invariants, [TYPE, _format("text", "json", "latex")], 24),
    "verify": ("invariance/independence/corank report", _verify, [TYPE, SEED, _format("json", "text")], 24),
    "orbit-dim": ("sampled maximal orbit dimension", _orbit_dim, [
        TYPE, ("--trials", {"type": int, "default": 20}), SEED,
    ], 24),
    "reduce": ("conjugate a point file onto the slice", _reduce, [
        TYPE, ("--point", {"required": True, "help": "JSON file {n, entries: [[i,j,'p/q'],...]}"}),
    ], 60),
    "case242": ("the full (2,4,2) study", _case242, [SEED], None),
}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(prog="nilinv", description=__doc__.split("\n")[0])
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (help_text, handler, options, max_n) in COMMANDS.items():
        command = sub.add_parser(name, help=help_text)
        for flag, spec in options + [("--out", {})]:
            command.add_argument(flag, **spec)
        command.set_defaults(handler=handler, max_n=max_n)

    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)

    try:
        if "type" in vars(args):
            args.type = ParabolicType.from_string(args.type)
            if args.type.n > args.max_n:
                raise ValueError(f"type size {args.type.n} is above the limit {args.max_n} of {args.command}")
        text, code = args.handler(args)
        _emit(text, args.out)
    except (ValueError, NilinvError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    return code


def entry() -> None:
    raise SystemExit(main())


if __name__ == "__main__":
    entry()
