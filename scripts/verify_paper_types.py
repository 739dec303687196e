#!/usr/bin/env python3
"""Run the full verification battery on the four worked types and the
(2,4,2) study, writing one JSON report per type into an output directory.

Usage: python3 scripts/verify_paper_types.py [--outdir out] [--seed N]
"""

import argparse
import json
import pathlib
import sys

from nilinv.checker import case242_report, verify_type
from nilinv.orbitlab import DEFAULT_SEED
from nilinv.rootcomb import ParabolicType

TYPES = [(2, 1, 3, 2), (2, 2, 2, 1, 1), (2, 2, 1, 1), (2, 4, 2)]


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--outdir", default="out")
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    args = parser.parse_args()

    outdir = pathlib.Path(args.outdir)
    outdir.mkdir(parents=True, exist_ok=True)

    all_passed = True
    for sizes in TYPES:
        report = verify_type(ParabolicType(sizes), args.seed)
        doc = report.to_json_dict()
        name = "verify_" + "-".join(str(x) for x in sizes) + ".json"
        (outdir / name).write_text(json.dumps(doc, sort_keys=True, indent=2) + "\n")
        flags = " ".join(f"{k}={v}" for k, v in sorted(report.flags.items()))
        print(f"{sizes}: passed={report.passed}  {flags}")
        all_passed = all_passed and report.passed

    study = case242_report(args.seed)
    (outdir / "case242.json").write_text(
        json.dumps(study.to_json_dict(), sort_keys=True, indent=2) + "\n"
    )
    print(
        f"(2,4,2) study: passed={study.passed} identity_sign={study.identity_sign}"
        f" nine_generator_rank={study.nine_generator_rank}"
    )
    return 0 if all_passed and study.passed else 1


if __name__ == "__main__":
    sys.exit(main())
