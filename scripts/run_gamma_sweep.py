"""Discount-factor sweep: how gamma trades step count against final quality.

Trains one policy per gamma with identical streams (only the discount
differs) against the standard-normal oracle field, then evaluates mean
schedule length and reward.
"""

import argparse
import sys
from pathlib import Path

from flowsched.cli import main
from flowsched.config import PRESETS


def run(argv=None):
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--out", default="runs/gamma_sweep")
    ap.add_argument("--seed", type=int, default=None)
    ap.add_argument("--preset", choices=tuple(PRESETS), default="desk")
    ap.add_argument("--gammas", default="0.85,0.90,0.95")
    args = ap.parse_args(argv)

    common = ["--out", args.out, "--preset", args.preset]
    if args.seed is not None:
        common += ["--seed", str(args.seed)]
    rc = main(["sweep-gamma", *common, "--gammas", args.gammas])
    if rc == 0:
        rc = main(["export-plots", *common])
    if rc == 0:
        print(Path(args.out, "sweep_gamma.csv").read_text(), end="")
    return rc


if __name__ == "__main__":
    sys.exit(run())
