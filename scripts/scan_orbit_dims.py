#!/usr/bin/env python3
"""Sweep every block composition with n <= N and compare the sampled
maximal orbit dimension against dim m - |S| - |Q|.

Usage: python3 scripts/scan_orbit_dims.py [--max-n 6] [--trials 20] [--seed N]
"""

import argparse
import json
import pathlib
import sys

from nilinv.orbitlab import DEFAULT_SEED, orbit_experiment
from nilinv.rootcomb import ParabolicType, compositions


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--max-n", type=int, default=6)
    parser.add_argument("--trials", type=int, default=20)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--outdir", default=None, help="also write experiment records here")
    args = parser.parse_args()

    records = []
    mismatches = 0
    for n in range(1, args.max_n + 1):
        for sizes in compositions(n):
            try:
                rec = orbit_experiment(ParabolicType(sizes), args.trials, args.seed)
            except ValueError as exc:  # a usage error such as --trials 0, as nilinv reports it
                print(f"error: {exc}", file=sys.stderr)
                return 2
            records.append(rec)
            tag = "covered" if rec["covered"] else "open   "
            status = "ok" if rec["pass"] else "MISMATCH"
            if not rec["pass"]:
                mismatches += 1
            print(
                f"{str(sizes):<18} {tag} sampled={rec['max_rank']:>2}"
                f" predicted={rec['predicted']:>2}  {status}"
            )
    if args.outdir:
        outdir = pathlib.Path(args.outdir)
        outdir.mkdir(parents=True, exist_ok=True)
        (outdir / "orbit_scan.json").write_text(json.dumps(records, sort_keys=True, indent=2) + "\n")
    print(f"{len(records)} types, {mismatches} mismatches")
    return 0 if mismatches == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
