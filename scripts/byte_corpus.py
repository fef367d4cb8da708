#!/usr/bin/env python3
"""Fingerprint every CLI output of a fixed argv list, for byte-identity checks.

    python3 scripts/byte_corpus.py SRC_DIR > corpus.txt

Imports ``flreg`` from SRC_DIR and runs each argv of ``CORPUS`` through
``flreg.cli.run``, in order, in one temporary working directory (later argv
read the files earlier ones wrote).  For each argv it prints one line: the
exit code, one sha256 over stdout, stderr and every file the run wrote, and
the argv.  Run it on two source trees and diff the outputs: a differing line
names a command whose bytes changed.

No hashes are kept in the repository: numpy's OpenBLAS picks its kernels by
CPU, so the last bits of some outputs depend on the machine.
"""

import contextlib
import hashlib
import io
import os
import shlex
import sys
import tempfile


def _diagnose(spacing, n, alpha, j_max):
    return ["diagnose", "--n", n, "--alpha", alpha, "--spacing", spacing,
            "--seed", "7", "--j-max", j_max]


MC_WELL = ["mc-table", "--spacing", "well", "--sigma", "0.5", "--n", "100",
           "--alpha", "1.1,4", "--reps", "130", "--seed", "7"]
MC_SMALL = ["mc-table", "--spacing", "well", "--sigma", "0.5", "--n", "40",
            "--alpha", "2", "--reps", "4", "--threads", "1"]

CORPUS = [
    ["simulate", "--n", "200", "--sigma", "0.5", "--alpha", "2", "--spacing", "well",
     "--seed", "1", "--out", "train.csv"],
    ["simulate", "--n", "2000", "--sigma", "0", "--alpha", "2", "--spacing", "well",
     "--seed", "2", "--out", "new.csv"],
    ["simulate", "--n", "50", "--sigma", "0.5", "--alpha", "1.1", "--spacing", "closely",
     "--seed", "3", "--p", "20", "--terms", "9", "--out", "p20.csv"],
    ["simulate", "--n", "2", "--sigma", "0.5", "--alpha", "2", "--spacing", "well",
     "--p", "3000", "--terms", "1", "--out", "p3000.csv"],
    ["fit", "--data", "train.csv", "--method", "pca", "--m", "5", "--out", "pca.model"],
    ["fit", "--data", "train.csv", "--method", "ridge", "--rho", "0.05", "--out", "ridge.model"],
    ["fit", "--data", "p20.csv", "--method", "ridge", "--rho", "0.01", "--out", "p20.model"],
    ["predict", "--model", "pca.model", "--data", "new.csv", "--out", "pca.pred"],
    ["predict", "--model", "ridge.model", "--data", "new.csv", "--out", "ridge.pred"],
    *(_diagnose(spacing, n, alpha, j_max)
      for spacing in ("well", "closely")
      for n in ("50", "200", "2000")
      for alpha in ("1.1", "2", "4")
      for j_max in ("1", "10", "30")),
    # The same output names at both thread counts: equal lines mean equal bytes.
    MC_WELL + ["--threads", "1", "--out", "t.tsv", "--profile", "p.tsv"],
    MC_WELL + ["--threads", "2", "--out", "t.tsv", "--profile", "p.tsv"],
    ["mc-table", "--spacing", "closely", "--sigma", "0.5", "--n", "100", "--alpha", "2",
     "--reps", "20", "--seed", "7", "--threads", "1", "--format", "text", "--m-max", "30"],
    ["mc-table", "--spacing", "well", "--sigma", "0.5,1", "--n", "100", "--alpha", "2",
     "--reps", "20", "--seed", "7", "--threads", "1", "--format", "text"],
    # Cutoffs beyond the usable rank at n = 20: the stderr note.
    ["mc-table", "--spacing", "closely", "--sigma", "0.5", "--n", "20,100", "--alpha", "2",
     "--reps", "6", "--seed", "7", "--threads", "2"],
    ["rate-check", "--alpha", "2", "--n", "30,60,120", "--reps", "20",
     "--seed", "7", "--threads", "1"],
    # beta is the simulator's slope decay, not a flag: a usage error.
    ["rate-check", "--alpha", "2", "--beta", "2", "--n", "30,60,120", "--reps", "20",
     "--seed", "7", "--threads", "1"],
    ["mc-table", "--spacing", "well", "--sigma", "1e300", "--n", "50", "--alpha", "2",
     "--reps", "4", "--threads", "1"],
    MC_SMALL + ["--threads", "abc"],
    MC_SMALL + ["--rho-count", "0", "--out", "rho.tsv"],
    MC_SMALL + ["--rho-count", "1001", "--out", "rho.tsv"],
    MC_SMALL + ["--reps", "1", "--out", "reps.tsv"],
    # A one-candidate cutoff grid.
    MC_SMALL + ["--m-max", "1", "--out", "m1.tsv", "--profile", "m1p.tsv"],
    # One file named twice: a usage error before any run.
    MC_SMALL + ["--out", "./same.tsv", "--profile", "same.tsv"],
    # Flags and scenarios are checked before any file is read or run started.
    ["fit", "--data", "missing.csv", "--method", "pca", "--out", "x.model"],
    ["fit", "--data", "train.csv", "--method", "ridge", "--out", "x.model"],
    # The other method's tuning flag is a usage error, not ignored.
    ["fit", "--data", "train.csv", "--method", "ridge", "--rho", "0.05", "--m", "5",
     "--out", "x.model"],
    ["fit", "--data", "train.csv", "--method", "pca", "--m", "5", "--rho", "0.1",
     "--out", "x.model"],
    # A bad tuning value fails the path kernel's rule before the data is read.
    ["fit", "--data", "missing.csv", "--method", "ridge", "--rho", "0", "--out", "x.model"],
    ["fit", "--data", "missing.csv", "--method", "pca", "--m", "0", "--out", "x.model"],
    # The report reads only the covariance of X: no noise flag.
    _diagnose("well", "40", "2", "10") + ["--sigma", "0.5"],
    ["mc-table", "--spacing", "well", "--sigma", "0.5", "--n", "40,1", "--alpha", "2",
     "--reps", "4", "--threads", "1"],
    _diagnose("well", "50", "2", "0"),
    # A rank-one truth: every eigenvalue after the first is rounding noise.
    ["diagnose", "--n", "40", "--alpha", "1e300", "--spacing", "well", "--j-max", "3"],
    # An output path naming a directory fails before any rename: t.tsv keeps its bytes.
    MC_SMALL + ["--out", "t.tsv", "--profile", "."],
    ["simulate", "--n", "5", "--sigma", "0.5", "--alpha", "2", "--spacing", "well",
     "--out", "."],
]


def _snapshot():
    """Name -> (inode, mtime) of each file in the working directory.  The CLI
    writes by atomic rename, so a rewritten file gets a new inode even when
    its bytes repeat."""
    return {entry.name: (entry.stat().st_ino, entry.stat().st_mtime_ns)
            for entry in os.scandir() if entry.is_file()}


def corpus(run, argvs):
    """One line per argv: exit code, sha256 of its outputs, the argv."""
    lines = []
    home = os.getcwd()
    with tempfile.TemporaryDirectory(prefix="byte-corpus-") as work:
        os.chdir(work)
        try:
            before = _snapshot()
            for argv in argvs:
                out, err = io.StringIO(), io.StringIO()
                with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                    status = run(argv)
                after = _snapshot()
                parts = [("stdout", out.getvalue().encode()), ("stderr", err.getvalue().encode())]
                for name in sorted(after):
                    if before.get(name) != after[name]:
                        with open(name, "rb") as handle:
                            parts.append((name, handle.read()))
                before = after
                digest = hashlib.sha256()
                for name, data in parts:
                    digest.update(f"{name}\0{len(data)}\0".encode() + data)
                lines.append(f"{status} {digest.hexdigest()} {shlex.join(argv)}")
        finally:
            os.chdir(home)
    return lines


def main(argv):
    if len(argv) != 1:
        sys.exit("usage: byte_corpus.py SRC_DIR")
    src = os.path.abspath(argv[0])
    sys.path.insert(0, src)
    import flreg.cli

    if not os.path.abspath(flreg.cli.__file__).startswith(src + os.sep):
        sys.exit(f"flreg was imported from {flreg.cli.__file__}, not from {src}")
    for line in corpus(flreg.cli.run, CORPUS):
        print(line)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
