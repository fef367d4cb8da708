"""Batch command-line interface.

Subcommands: simulate (write a dataset CSV), fit (estimate a model from a
dataset CSV), predict (apply a model file to new curves), mc-table (Monte
Carlo error tables), rate-check (empirical convergence-rate fit) and
diagnose (spectral perturbation report for a simulated covariance pair).
A command checks its flags and builds every scenario it will run before it
reads a file or starts a run, so a usage error or a bad scenario costs no I/O
and no Monte Carlo work: fit checks --m >= 1 or a finite, positive --rho (the
rules of the estimators' path kernels) before it reads --data.

Exit codes: 0 success, 2 usage (--threads below 1, --reps below 2, --m-max
outside 1..50, --rho-count outside 1..1000, --j-max outside 1..49, mc-table
--out and --profile naming one file, fit missing its method's tuning flag or
given the other's), 3 data format, 4 numeric/precondition (out of memory and
non-finite Monte Carlo errors included), 5 I/O.  File outputs are written to
temporary files and atomically renamed, so a failing run never leaves a partial
output behind, and mc-table --out --profile writes both or neither.
"""

from __future__ import annotations

import argparse
import math
import os
import sys
import tempfile
from typing import Sequence

import numpy as np

from .errors import DataFormatError, FlregError
from .estimators import (
    Dataset,
    check_cutoff,
    check_rhos,
    compute_moments,
    model_from_text,
    model_to_text,
    pca_fit,
    predict,
    ridge_fit,
)
from .evaluation import (
    DEFAULT_M_GRID,
    default_rho_grid,
    emit_profile,
    emit_table,
    mc_run,
    rate_fit,
    rate_sample_sizes,
)
from .simulation import (
    SLOPE_DECAY,
    SimConfig,
    dataset_from_csv,
    dataset_to_csv,
    draw_dataset,
    truth_bundle,
)
from .spectral import perturbation_report, report_to_tsv

__all__ = ["run", "main"]

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_DATA_FORMAT = 3
EXIT_NUMERIC = 4
EXIT_IO = 5

_SPACING = {"well": "well_spaced", "closely": "closely_spaced"}


class _UsageError(Exception):
    """Flag combination that argparse alone cannot reject."""


def _spacing(text: str) -> str:
    try:
        return _SPACING[text]
    except KeyError:
        raise argparse.ArgumentTypeError(
            f"spacing must be 'well' or 'closely', got {text!r}"
        ) from None


def _bounded_int(lo: int, hi: float = math.inf):
    """argparse type: an integer in lo..hi."""
    def parse(text: str) -> int:
        try:
            if lo <= int(text) <= hi:
                return int(text)
        except ValueError:
            pass
        bounds = f">= {lo}" if hi == math.inf else f"in {lo}..{hi}"
        raise argparse.ArgumentTypeError(f"expected an integer {bounds}, got {text!r}")
    return parse


def _list_of(kind: type, what: str):
    """argparse type: comma-separated ``kind`` values, as a tuple."""
    def parse(text: str) -> tuple:
        try:
            return tuple(kind(part) for part in text.split(","))
        except ValueError:
            raise argparse.ArgumentTypeError(f"expected comma-separated {what}, got {text!r}")
    return parse


_int_list, _float_list = _list_of(int, "integers"), _list_of(float, "numbers")


def _write_files(outputs: list[tuple[str, str]]) -> None:
    """Write each (path, text), or none of them if any write fails: every
    text goes to a temporary file first, and only then are they renamed."""
    staged: list[str] = []
    renamed: list[str] = []
    try:
        for path, text in outputs:
            directory = os.path.dirname(os.path.abspath(path)) or "."
            # A path that names a directory, or lies in a missing one, fails
            # here with the error that opening it gives: its rename would fail
            # only after earlier renames had replaced their files.
            if not os.path.basename(path) or os.path.isdir(path) or not os.path.isdir(directory):
                open(path, "w").close()
            fd, tmp = tempfile.mkstemp(dir=directory, prefix=".flreg-", suffix=".tmp")
            staged.append(tmp)
            with os.fdopen(fd, "w") as handle:
                handle.write(text)
        for tmp, (path, _) in zip(staged, outputs):
            os.replace(tmp, path)
            renamed.append(path)
    except BaseException:
        for path in staged + renamed:
            if os.path.exists(path):
                os.unlink(path)
        raise


def _emit(text: str, out: str | None) -> None:
    if out is None:
        sys.stdout.write(text)
    else:
        _write_files([(out, text)])


def _read_text(path: str) -> str:
    try:
        with open(path, encoding="utf-8") as handle:
            return handle.read()
    except UnicodeDecodeError as exc:
        raise DataFormatError(f"{path} is not UTF-8 text (byte {exc.start})") from None


def _cmd_simulate(args: argparse.Namespace) -> int:
    config = SimConfig(n=args.n, sigma_eps=args.sigma, alpha=args.alpha, spacing=args.spacing,
                       n_terms=args.terms, p=args.p, seed=args.seed)
    data, _ = draw_dataset(config)
    _emit(dataset_to_csv(data), args.out)
    return EXIT_OK


def _cmd_fit(args: argparse.Namespace) -> int:
    pca = args.method == "pca"
    flag, value, fit, rule = (("--m", args.m, pca_fit, check_cutoff) if pca
                              else ("--rho", args.rho, ridge_fit, check_rhos))
    other, stray = ("--rho", args.rho) if pca else ("--m", args.m)
    if value is None:
        raise _UsageError(f"--method {args.method} requires {flag}")
    if stray is not None:
        raise _UsageError(f"--method {args.method} does not take {other}")
    rule(value)  # the path kernel's own check, which needs no data
    X, Y = dataset_from_csv(_read_text(args.data))
    if Y is None:
        raise DataFormatError("dataset CSV header has no y column, which fit needs")
    moments = compute_moments(Dataset(X=X, Y=Y))
    _emit(model_to_text(fit(moments, value)), args.out)
    return EXIT_OK


def _cmd_predict(args: argparse.Namespace) -> int:
    model = model_from_text(_read_text(args.model))
    X, _ = dataset_from_csv(_read_text(args.data))
    if X.shape[1] != model.slope.size:
        raise DataFormatError(
            f"data grid (p={X.shape[1]}) does not match model grid (p={model.slope.size})"
        )
    _emit("".join(f"{y:.17g}\n" for y in predict(model, X).tolist()), args.out)
    return EXIT_OK


def _cmd_mc_table(args: argparse.Namespace) -> int:
    if args.out is not None and args.profile is not None and (
        os.path.realpath(args.out) == os.path.realpath(args.profile)
    ):
        raise _UsageError("--out and --profile name the same file")
    m_grid = tuple(range(1, args.m_max + 1))
    rho_grid = default_rho_grid(args.rho_count, args.rho_min, args.rho_max)
    configs = [
        SimConfig(n=n, sigma_eps=sigma, alpha=alpha, spacing=args.spacing, seed=args.seed)
        for sigma in args.sigma for n in args.n for alpha in args.alpha
    ]
    results = [
        mc_run(config, args.reps, m_grid, rho_grid, threads=args.threads)
        for config in configs
    ]
    table = emit_table(results, fmt=args.format)
    files = [] if args.out is None else [(args.out, table)]
    if args.profile is not None:
        files.append((args.profile, emit_profile(results)))
    _write_files(files)
    if args.out is None:
        sys.stdout.write(table)
    excluded = [(r.config, r.excluded_m) for r in results if r.excluded_m]
    for config, ms in excluded:
        print(
            f"note: excluded cutoffs {list(ms)} for n={config.n} "
            f"alpha={config.alpha:g} (usable rank exceeded)",
            file=sys.stderr,
        )
    return EXIT_OK


def _cmd_rate_check(args: argparse.Namespace) -> int:
    sizes = rate_sample_sizes(sorted(args.n))
    configs = [
        SimConfig(n=n, sigma_eps=args.sigma, alpha=args.alpha,
                  spacing="well_spaced", seed=args.seed)
        for n in sizes
    ]
    results = [mc_run(config, args.reps, threads=args.threads) for config in configs]
    lines = ["estimator\tn\tmise\tfitted_slope\ttheoretical_slope"]
    for estimator in ("pca", "ridge"):
        fit = rate_fit(args.alpha, SLOPE_DECAY, sizes, results, estimator=estimator)
        for n, mise in zip(fit.sample_sizes, fit.mise_values):
            lines.append(
                f"{estimator}\t{n}\t{mise:.17g}"
                f"\t{fit.fitted_slope:.17g}\t{fit.theoretical_slope:.17g}"
            )
    _emit("\n".join(lines) + "\n", args.out)
    return EXIT_OK


def _cmd_diagnose(args: argparse.Namespace) -> int:
    # The report reads only the covariance of X, which is drawn before the
    # noise, so the noise level is not a flag.
    config = SimConfig(n=args.n, sigma_eps=0.0, alpha=args.alpha, spacing=args.spacing,
                       seed=args.seed)
    truth = truth_bundle(config)
    data, _ = draw_dataset(config)
    _, _, cov, _ = compute_moments(data)
    report = perturbation_report(truth.kernel, cov, args.j_max)
    _emit(report_to_tsv(report), args.out)
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="flreg",
        description="Functional linear regression: simulate, fit, benchmark, diagnose.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sim = sub.add_parser("simulate", help="write a simulated dataset CSV")
    sim.add_argument("--n", type=int, required=True, help="sample size")
    sim.add_argument("--sigma", type=float, required=True, help="noise standard deviation")
    sim.add_argument("--alpha", type=float, required=True, help="eigenvalue decay exponent")
    sim.add_argument("--spacing", type=_spacing, required=True, help="well | closely")
    sim.add_argument("--seed", type=int, default=0)
    sim.add_argument("--p", type=int, default=50, help="grid size")
    sim.add_argument("--terms", type=int, default=50, help="number of basis terms")
    sim.add_argument("--out", required=True)
    sim.set_defaults(func=_cmd_simulate)

    fit = sub.add_parser("fit", help="fit a slope model from a dataset CSV")
    fit.add_argument("--data", required=True)
    fit.add_argument("--method", choices=("pca", "ridge"), required=True)
    fit.add_argument("--m", type=int, help="spectral cutoff (pca)")
    fit.add_argument("--rho", type=float, help="ridge parameter (ridge)")
    fit.add_argument("--out", required=True)
    fit.set_defaults(func=_cmd_fit)

    prd = sub.add_parser("predict", help="predict responses for new curves")
    prd.add_argument("--model", required=True)
    prd.add_argument("--data", required=True)
    prd.add_argument("--out", required=True)
    prd.set_defaults(func=_cmd_predict)

    mct = sub.add_parser("mc-table", help="Monte Carlo error table")
    mct.add_argument("--spacing", type=_spacing, required=True)
    mct.add_argument("--sigma", type=_float_list, required=True, help="comma list")
    mct.add_argument("--n", type=_int_list, required=True, help="comma list")
    mct.add_argument("--alpha", type=_float_list, required=True, help="comma list")
    mct.add_argument("--reps", type=_bounded_int(2), default=200)
    mct.add_argument("--seed", type=int, default=0)
    mct.add_argument("--threads", type=_bounded_int(1), default=os.cpu_count() or 1)
    # No cutoff can exceed the grid size of an mc-table scenario.
    mct.add_argument("--m-max", type=_bounded_int(1, SimConfig.p), default=max(DEFAULT_M_GRID))
    mct.add_argument("--rho-count", type=_bounded_int(1, 1000), default=25)
    mct.add_argument("--rho-min", type=float, default=1e-6)
    mct.add_argument("--rho-max", type=float, default=1.0)
    mct.add_argument("--format", choices=("tsv", "text"), default="tsv")
    mct.add_argument("--profile", help="also write per-candidate MISE profiles here")
    mct.add_argument("--out")
    mct.set_defaults(func=_cmd_mc_table)

    rate = sub.add_parser("rate-check", help="empirical convergence-rate fit")
    rate.add_argument("--alpha", type=float, required=True)
    rate.add_argument("--n", type=_int_list, required=True, help="comma list, >= 3 sizes")
    rate.add_argument("--sigma", type=float, default=0.5)
    rate.add_argument("--reps", type=_bounded_int(2), default=200)
    rate.add_argument("--seed", type=int, default=0)
    rate.add_argument("--threads", type=_bounded_int(1), default=os.cpu_count() or 1)
    rate.add_argument("--out")
    rate.set_defaults(func=_cmd_rate_check)

    diag = sub.add_parser("diagnose", help="spectral perturbation report")
    diag.add_argument("--n", type=int, required=True)
    diag.add_argument("--alpha", type=float, required=True)
    diag.add_argument("--spacing", type=_spacing, required=True)
    diag.add_argument("--seed", type=int, default=0)
    diag.add_argument("--j-max", type=_bounded_int(1, SimConfig.p - 1), default=10)
    diag.add_argument("--out")
    diag.set_defaults(func=_cmd_diagnose)

    return parser


def run(argv: Sequence[str]) -> int:
    """Parse argv, dispatch, and map failures to documented exit codes."""
    parser = build_parser()
    try:
        args = parser.parse_args(list(argv))
    except SystemExit as exc:  # argparse already printed its diagnostic
        return int(exc.code) if exc.code else EXIT_OK
    try:
        # Overflow is reported by the finiteness checks, not by numpy warnings.
        with np.errstate(all="ignore"):
            return args.func(args)
    except _UsageError as exc:
        print(f"flreg: usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except DataFormatError as exc:
        print(f"flreg: data format error: {exc}", file=sys.stderr)
        return EXIT_DATA_FORMAT
    except (FlregError, np.linalg.LinAlgError, MemoryError) as exc:
        print(f"flreg: {str(exc) or 'out of memory'}", file=sys.stderr)
        return EXIT_NUMERIC
    except OSError as exc:
        print(f"flreg: i/o error: {exc}", file=sys.stderr)
        return EXIT_IO


def main() -> None:
    sys.exit(run(sys.argv[1:]))
