"""Target-complexity study: does one policy spend more steps on harder targets?

Trains ring-mixture velocity fields at several component counts, RL-trains a
single policy round-robin across them, then reports per-level mean schedule
length and the step-count/complexity correlation.
"""

import argparse
import sys
from pathlib import Path

from flowsched.cli import main
from flowsched.config import PRESETS


def run(argv=None):
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--out", default="runs/complexity_study")
    ap.add_argument("--seed", type=int, default=None)
    ap.add_argument("--preset", choices=tuple(PRESETS), default="desk")
    ap.add_argument("--levels", default="1,2,4,8")
    args = ap.parse_args(argv)

    common = ["--out", args.out, "--preset", args.preset]
    if args.seed is not None:
        common += ["--seed", str(args.seed)]
    rc = main(["complexity-sweep", *common, "--levels", args.levels])
    if rc == 0:
        rc = main(["export-plots", *common])
    if rc == 0:
        print(Path(args.out, "complexity.csv").read_text(), end="")
        print(Path(args.out, "correlation.csv").read_text(), end="")
    return rc


if __name__ == "__main__":
    sys.exit(run())
