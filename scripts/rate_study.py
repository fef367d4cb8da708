#!/usr/bin/env python3
"""Empirical convergence-rate study for both estimators.

A thin wrapper around ``flreg rate-check``: prints, per estimator and
sample size, the oracle-tuned MISE, the fitted log-log slope against n and
the minimax exponent -(2 beta - 1)/(alpha + 2 beta); for the default
design (alpha = 2, slope smoothness beta = 2) the target is -1/2.
"""

import argparse
import os
import sys

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))

from flreg.cli import run


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--alpha", default="2")
    parser.add_argument("--beta", default="2")
    parser.add_argument("--sigma", default="0.5")
    parser.add_argument("--n", default="100,200,400,800", help="comma list, >= 3 sizes")
    parser.add_argument("--reps", default="200")
    parser.add_argument("--seed", default="7")
    parser.add_argument("--threads", default=str(os.cpu_count() or 1))
    args = parser.parse_args()
    return run(
        ["rate-check", "--alpha", args.alpha, "--beta", args.beta, "--sigma", args.sigma,
         "--n", args.n, "--reps", args.reps, "--seed", args.seed, "--threads", args.threads]
    )


if __name__ == "__main__":
    sys.exit(main())
