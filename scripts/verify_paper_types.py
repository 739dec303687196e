#!/usr/bin/env python3
"""Run the full verification battery on the four worked types and the
(2,4,2) study, writing one JSON report per type into an output directory.

Each report is written by `nilinv verify` or `nilinv case242`; the exit code
is the largest of theirs, and a usage error (exit 2) stops the battery.

Usage: python3 scripts/verify_paper_types.py [--outdir out] [--seed N]
"""

import argparse
import json
import pathlib
import sys

from nilinv.cli import main as nilinv
from nilinv.orbitlab import DEFAULT_SEED

TYPES = [(2, 1, 3, 2), (2, 2, 2, 1, 1), (2, 2, 1, 1), (2, 4, 2)]


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--outdir", default="out")
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    args = parser.parse_args()
    outdir = pathlib.Path(args.outdir).resolve()  # an absolute --out is not moved by NILINV_OUTDIR
    seed = ["--seed", str(args.seed)]
    worst = 0
    for sizes in TYPES:
        path = outdir / ("verify_" + "-".join(map(str, sizes)) + ".json")
        if (code := nilinv(["verify", "--type", ",".join(map(str, sizes)), *seed, "--out", str(path)])) == 2:
            return 2
        worst, doc = max(worst, code), json.loads(path.read_text())
        flags = " ".join(f"{k}={v}" for k, v in sorted(doc["flags"].items()))
        print(f"{sizes}: passed={doc['passed']}  {flags}")

    path = outdir / "case242.json"
    if (code := nilinv(["case242", *seed, "--out", str(path)])) == 2:
        return 2
    study = json.loads(path.read_text())
    print(
        f"(2,4,2) study: passed={study['passed']} identity_sign={study['identity']['sign']}"
        f" nine_generator_rank={study['nine_generator_rank']}"
    )
    return max(worst, code)


if __name__ == "__main__":
    sys.exit(main())
