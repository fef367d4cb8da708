#!/usr/bin/env python3
"""Run the Monte Carlo error tables for both eigenvalue designs.

A thin wrapper around ``flreg mc-table --format text --profile``: prints one
aligned table per design and writes its per-candidate MISE profiles to
``profile_<design>.tsv`` in ``--out-dir``.  The closely-spaced profile shows
how that design punishes cutoffs that land inside a block of nearly tied
eigenvalues.  Desk-scale defaults (200 replications); pass --reps 1000 for
the full run.
"""

import argparse
import os
import sys

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))

from flreg.cli import run


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--reps", default="200")
    parser.add_argument("--seed", default="7")
    parser.add_argument("--threads", default=str(os.cpu_count() or 1))
    parser.add_argument("--sigma", default="0.5,1", help="comma list")
    parser.add_argument("--n", default="100,500", help="comma list")
    parser.add_argument("--alpha", default="1.1,1.5,2,4", help="comma list")
    parser.add_argument("--out-dir", default=".", help="where the profiles go")
    args = parser.parse_args()

    os.makedirs(args.out_dir, exist_ok=True)
    for design in ("well", "closely"):
        print(f"\n== {design} ==", flush=True)
        profile = os.path.join(args.out_dir, f"profile_{design}.tsv")
        status = run(
            ["mc-table", "--spacing", design, "--sigma", args.sigma, "--n", args.n,
             "--alpha", args.alpha, "--reps", args.reps, "--seed", args.seed,
             "--threads", args.threads, "--format", "text", "--profile", profile]
        )
        if status:
            return status
        print(f"per-candidate MISE profiles: {profile}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
