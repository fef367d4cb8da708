"""Monte Carlo benchmark harness for the two slope estimators.

For a simulation scenario, ``mc_run`` builds the truth once and draws R
replicated datasets (replication r being exactly the dataset of ``config``
with seed ``replication_seed(config.seed, r)``).  It cuts the replications into
contiguous chunks of at most ``CHUNK``.  Per chunk it stacks the BLAS
moments of each replication into a (B, p, p) covariance and a (B, p)
cross-covariance array, decomposes the whole stack with one
``eigh_stack`` call, and ``cutoff_path`` and ``ridge_path`` give the
estimates for every candidate m and rho on the same data (common random
numbers) by batched matrix products.  Each (n, p) draw is reduced to its
moments and dropped; the (candidate, R, p) estimate stacks, one row of p
doubles per grid candidate and replication, are kept, as the variance needs
the mean over all R.  It then aggregates them in place, per candidate,

    Bias^2 = integral of (mean estimate - true slope)^2,
    Var    = mean integral of (estimate - mean estimate)^2,
    MISE   = Bias^2 + Var,

with the population divisor R so the decomposition is an exact identity.
``McResult`` derives MISE as that sum and rejects a negative or non-finite cell.
The tuning parameters are oracle-chosen: m_star and rho_star minimize the
Monte Carlo MISE over their grids, ties resolved toward the smaller m and
the larger rho (more regularisation).

With more than one chunk, chunks can run on a thread pool.  Each
replication owns its RNG stream, every stacked kernel treats each matrix of
a stack exactly as it would a stack of one, each chunk writes into its own
slots, and all reductions happen in fixed replication order, so results are
bit-identical for any thread count and any chunking.
"""

from __future__ import annotations

import contextlib
import ctypes
import functools
import math
import operator
import threading
from contextvars import copy_context
from dataclasses import dataclass

import numpy as np

from .errors import ParameterError, RankError
from .estimators import cutoff_path, moment_arrays, ridge_path
from .simulation import SimConfig, TruthBundle, draw_xy, replication_seed, truth_bundle
from .spectral import eigh_stack

# Not called here; perfbench/spans.py patches these names in this module.
from .estimators import compute_moments, pca_fit, ridge_fit  # noqa: F401
from .simulation import draw_dataset  # noqa: F401
from .spectral import eigendecompose  # noqa: F401

__all__ = [
    "McResult",
    "RateFit",
    "DEFAULT_M_GRID",
    "default_rho_grid",
    "integrated_bias_var",
    "mc_run",
    "rate_sample_sizes",
    "rate_fit",
    "emit_table",
    "emit_profile",
    "TABLE_COLUMNS",
]

DEFAULT_M_GRID: tuple[int, ...] = tuple(range(1, 21))

# Replications per stacked chunk.  At p = 50 a chunk's covariance and
# eigenvector stacks take 1.3 MB each, about 3 MB with the paths, whatever R.
CHUNK = 64


def default_rho_grid(count: int = 25, lo: float = 1e-6, hi: float = 1.0) -> tuple[float, ...]:
    """Log-spaced ridge candidates, 25 points in [1e-6, 1] by default."""
    if count < 1 or not 0.0 < lo <= hi < math.inf:
        raise ParameterError(f"invalid rho grid: count={count}, lo={lo:g}, hi={hi:g}")
    return tuple(float(r) for r in np.logspace(np.log10(lo), np.log10(hi), count))


@dataclass(frozen=True)
class McResult:
    """Oracle-tuned Monte Carlo error summary for one scenario.  Each MISE is
    Bias^2 + Var, derived on read; components are >= 0, every MISE finite."""

    config: SimConfig
    replications: int
    m_star: int
    rho_star: float
    bias2_pca: float
    bias2_ridge: float
    var_pca: float
    var_ridge: float
    m_profile: tuple[tuple[int, float], ...]  # (candidate m, mise)
    rho_profile: tuple[tuple[float, float], ...]  # (candidate rho, mise)
    excluded_m: tuple[int, ...] = ()

    @property
    def mise_pca(self) -> float:
        return self.bias2_pca + self.var_pca

    @property
    def mise_ridge(self) -> float:
        return self.bias2_ridge + self.var_ridge

    def __post_init__(self) -> None:
        parts = (self.bias2_pca, self.bias2_ridge, self.var_pca, self.var_ridge)
        mises = [self.mise_pca, self.mise_ridge] + [e for _, e in self.m_profile + self.rho_profile]
        if not (all(c >= 0.0 for c in parts) and all(map(math.isfinite, mises))):
            cfg = self.config
            raise ParameterError(f"Monte Carlo errors for n={cfg.n} alpha={cfg.alpha:g} "
                                 f"sigma_eps={cfg.sigma_eps:g} are negative or not finite")


def integrated_bias_var(
    estimates: np.ndarray, target: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Monte Carlo integrated squared bias and integrated variance.

    ``estimates`` is a (C, R, p) stack: for each of C candidates, R slope
    estimates on the grid; ``target`` is the true slope.  Returns two (C,)
    arrays.  The variance uses the population divisor R, which makes
    MISE = Bias^2 + Var exact.  Each candidate is reduced as an (R, p) array
    on its own: its mean over R in replication order, and its squared
    deviations, from its own block only, summed over the flattened R * p values.
    """
    _, r, p = estimates.shape
    mean_est = np.mean(estimates, axis=1)
    bias2 = np.sum((mean_est - target) ** 2, axis=1) / p
    var = np.array([np.sum((e - m) ** 2) for e, m in zip(estimates, mean_est)]) / (r * p)
    return bias2, var


def _replication_moments(
    config: SimConfig, truth: TruthBundle, reps: range
) -> tuple[np.ndarray, np.ndarray]:
    """(B, p, p) covariances and (B, p) cross-covariances of replications
    ``reps``; entry b is the moments of the dataset of ``config`` with seed
    ``replication_seed(config.seed, r)`` for r = reps[b], bit for bit."""
    covs = np.empty((len(reps), config.p, config.p))
    cross = np.empty((len(reps), config.p))
    for b, r in enumerate(reps):
        X, y = draw_xy(config.n, config.sigma_eps, replication_seed(config.seed, r), truth)
        _, _, covs[b], cross[b] = moment_arrays(X, y)
    if not np.all(np.isfinite(cross)):
        raise ParameterError("replication cross-covariances contain non-finite entries")
    return covs, cross


@functools.cache
def _openblas_threads():
    """(get, set) of the thread count of the scipy-openblas that numpy links,
    looked up through numpy's linalg extension: the loader resolves the
    names in the extension's dependencies, so these are the calls of the
    OpenBLAS behind ``eigh`` and ``matmul``.  None without it."""
    try:
        lib = ctypes.CDLL(np.linalg._umath_linalg.__file__)
        get = lib.scipy_openblas_get_num_threads64_
        set_ = lib.scipy_openblas_set_num_threads64_
    except (OSError, AttributeError):
        return None
    get.argtypes, get.restype = [], ctypes.c_int
    set_.argtypes, set_.restype = [ctypes.c_int], None
    return get, set_


# Holders of the one-thread BLAS pin, and the count the first one saved.
_blas_lock = threading.Lock()
_blas_holders = 0
_blas_saved = 0


@contextlib.contextmanager
def _one_blas_thread():
    """Hold OpenBLAS at one thread, so pool workers do not each start BLAS
    threads of their own.  The count is process-wide, so overlapping holders
    (``mc_run`` calls from several threads) share one pin: the first saves
    the count and sets one thread, the last restores the saved count.
    Without numpy's bundled OpenBLAS this does nothing."""
    global _blas_holders, _blas_saved
    calls = _openblas_threads()
    if calls is None:
        yield
        return
    get, set_ = calls
    with _blas_lock:
        if _blas_holders == 0:
            _blas_saved = get()
            set_(1)
        _blas_holders += 1
    try:
        yield
    finally:
        with _blas_lock:
            _blas_holders -= 1
            if _blas_holders == 0:
                set_(_blas_saved)


def mc_run(
    config: SimConfig,
    replications: int,
    m_grid: tuple[int, ...] = DEFAULT_M_GRID,
    rho_grid: tuple[float, ...] | None = None,
    threads: int = 1,
) -> McResult:
    """Run the Monte Carlo study for one scenario and oracle-tune m and rho.

    A cutoff candidate that fails the usable-rank precondition in any
    replication is excluded from the search and reported in
    ``excluded_m``.  With ``threads`` > 1 and more than one chunk, the
    chunks run on a pool of that many threads, with OpenBLAS held at one
    thread meanwhile.
    """
    if replications < 2:
        raise ParameterError(f"need at least 2 replications, got {replications}")
    if threads < 1:
        raise ParameterError(f"need at least 1 thread, got {threads}")
    m_grid = tuple(sorted({int(m) for m in m_grid}))
    if rho_grid is None:
        rho_grid = default_rho_grid()
    rho_grid = tuple(sorted({float(r) for r in rho_grid}))
    if not m_grid or m_grid[0] < 1:
        raise ParameterError(f"cutoff candidates must be nonempty and >= 1, got {m_grid}")
    if not rho_grid or not all(0.0 < rho < math.inf for rho in rho_grid):
        raise ParameterError(
            f"ridge candidates must be nonempty, finite and positive, got {rho_grid}"
        )

    truth = truth_bundle(config)
    target, p = truth.slope, config.p
    # (candidate, replication, p) stacks, one row per grid candidate (no cutoff
    # above p can be usable); chunks fill disjoint replication slots.
    cuts = np.empty((sum(m <= p for m in m_grid), replications, p))
    ridges = np.empty((len(rho_grid), replications, p))

    def solve_chunk(start: int) -> int:
        reps = range(start, min(start + CHUNK, replications))
        covs, cross = _replication_moments(config, truth, reps)
        vals, vecs = eigh_stack(covs)
        cut = cutoff_path(vals, vecs, cross, m_grid[-1])
        rows = [m - 1 for m in m_grid if m <= cut.shape[1]]
        cuts[: len(rows), start : reps.stop] = np.swapaxes(cut[:, rows], 0, 1)
        ridges[:, start : reps.stop] = np.swapaxes(ridge_path(vals, vecs, cross, rho_grid), 0, 1)
        return len(rows)

    starts = range(0, replications, CHUNK)
    if threads > 1 and len(starts) > 1:
        # Imported here, as it adds several ms to every start of the CLI.
        from concurrent.futures import ThreadPoolExecutor
        with _one_blas_thread(), ThreadPoolExecutor(min(threads, len(starts))) as pool:
            # Each chunk runs in its own copy of the caller's context, so under
            # the caller's numpy error state.
            contexts = [copy_context() for _ in starts]
            counts = list(pool.map(lambda ctx, start: ctx.run(solve_chunk, start),
                                   contexts, starts))
    else:
        counts = [solve_chunk(start) for start in starts]

    # Each chunk filled a prefix of the sorted grid: the cutoffs within its
    # usable rank.  A cutoff beyond the usable rank of any replication is excluded.
    valid_m = m_grid[: min(counts)]
    if not valid_m:
        raise RankError("every cutoff candidate exceeded the usable rank")
    pca_bias2, pca_var = integrated_bias_var(cuts[: len(valid_m)], target)
    ridge_bias2, ridge_var = integrated_bias_var(ridges, target)
    pca_mise, ridge_mise = pca_bias2 + pca_var, ridge_bias2 + ridge_var
    # argmin takes the first minimum: ties keep the smaller m and, over the
    # reversed rho grid, the larger rho.
    i = int(np.argmin(pca_mise))
    k = len(rho_grid) - 1 - int(np.argmin(ridge_mise[::-1]))

    return McResult(
        config=config,
        replications=replications,
        m_star=valid_m[i],
        rho_star=rho_grid[k],
        bias2_pca=float(pca_bias2[i]),
        bias2_ridge=float(ridge_bias2[k]),
        var_pca=float(pca_var[i]),
        var_ridge=float(ridge_var[k]),
        m_profile=tuple(zip(valid_m, pca_mise.tolist())),
        rho_profile=tuple(zip(rho_grid, ridge_mise.tolist())),
        excluded_m=m_grid[len(valid_m) :],
    )


@dataclass(frozen=True)
class RateFit:
    """Empirical convergence-rate fit of oracle MISE against sample size."""

    sample_sizes: tuple[int, ...]
    mise_values: tuple[float, ...]
    fitted_slope: float
    theoretical_slope: float  # -(2 beta - 1) / (alpha + 2 beta)


def theoretical_rate_slope(alpha: float, beta: float) -> float:
    """Log-log slope predicted by the minimax convergence rate, a decay
    for finite alpha > 0 and beta > 1/2."""
    if not (0.0 < alpha < math.inf and 0.5 < beta < math.inf):
        raise ParameterError(f"need finite alpha > 0 and beta > 1/2, got {alpha:g}, {beta:g}")
    return -(2.0 * beta - 1.0) / (alpha + 2.0 * beta)


def rate_sample_sizes(sample_sizes) -> tuple[int, ...]:
    """The sample sizes of a rate fit as ints: at least 3, strictly increasing."""
    sizes = tuple(int(n) for n in sample_sizes)
    if len(sizes) < 3 or any(a >= b for a, b in zip(sizes, sizes[1:])):
        raise ParameterError("need at least 3 strictly increasing sample sizes")
    return sizes


def rate_fit(
    alpha: float,
    beta: float,
    sample_sizes: tuple[int, ...],
    results: list[McResult],
    estimator: str = "pca",
) -> RateFit:
    """Least-squares slope of log(oracle MISE) on log(n).

    ``results`` holds one oracle-tuned McResult per sample size, in the same
    order as ``sample_sizes`` (at least 3, strictly increasing).
    """
    sizes = rate_sample_sizes(sample_sizes)
    if len(results) != len(sizes):
        raise ParameterError("one McResult per sample size required")
    if estimator == "pca":
        mise = tuple(r.mise_pca for r in results)
    elif estimator == "ridge":
        mise = tuple(r.mise_ridge for r in results)
    else:
        raise ParameterError(f"unknown estimator {estimator!r}")
    if min(mise) <= 0.0:
        raise ParameterError("MISE must be positive to fit a log-log slope")
    slope = float(np.polyfit(np.log(sizes), np.log(mise), 1)[0])
    return RateFit(
        sample_sizes=sizes,
        mise_values=mise,
        fitted_slope=slope,
        theoretical_slope=theoretical_rate_slope(alpha, beta),
    )


# One row per table column: its name, the McResult attribute it shows, and
# its cell format in the "tsv" and the "text" table.
_TABLE_SPEC = (
    ("sigma_eps", "config.sigma_eps", ".17g", "g"),
    ("n", "config.n", "", ""),
    ("alpha", "config.alpha", ".17g", "g"),
    ("m", "m_star", "", ""),
    ("rho", "rho_star", ".17g", ".4g"),
    ("bias2_pca", "bias2_pca", ".17g", ".3f"),
    ("bias2_ridge", "bias2_ridge", ".17g", ".3f"),
    ("var_pca", "var_pca", ".17g", ".3f"),
    ("var_ridge", "var_ridge", ".17g", ".3f"),
    ("mise_pca", "mise_pca", ".17g", ".3f"),
    ("mise_ridge", "mise_ridge", ".17g", ".3f"),
)
TABLE_COLUMNS = tuple(name for name, *_ in _TABLE_SPEC)
_TABLE_FORMATS = ("tsv", "text")


def emit_table(results: list[McResult], fmt: str = "tsv") -> str:
    """Render results as a table, one column per ``TABLE_COLUMNS`` name.

    ``fmt="tsv"`` emits machine-readable cells (17 significant digits,
    lossless round trip); ``fmt="text"`` emits an aligned human table with
    3-decimal error cells.
    """
    if len({r.config.spacing for r in results}) > 1:
        raise ParameterError("cannot mix spacing modes in one table")
    if fmt not in _TABLE_FORMATS:
        raise ParameterError(f"unknown table format {fmt!r}")
    column = _TABLE_FORMATS.index(fmt)
    rows = [TABLE_COLUMNS] + [
        [format(operator.attrgetter(attr)(result), formats[column])
         for _, attr, *formats in _TABLE_SPEC]
        for result in results
    ]
    if fmt == "tsv":
        return "".join("\t".join(row) + "\n" for row in rows)
    widths = [max(map(len, cells)) for cells in zip(*rows)]
    return "".join("  ".join(c.rjust(w) for c, w in zip(row, widths)) + "\n" for row in rows)


def emit_profile(results: list[McResult]) -> str:
    """Per-candidate MISE profiles as TSV (columns: candidate, mise).

    Rows for different scenarios are separated by a comment line naming the
    scenario.
    """
    lines = ["candidate\tmise"]
    for result in results:
        cfg = result.config
        lines.append(
            f"# sigma_eps={cfg.sigma_eps:g} n={cfg.n} alpha={cfg.alpha:g} "
            f"spacing={cfg.spacing}"
        )
        for m, mise in result.m_profile:
            lines.append(f"m={m}\t{mise:.17g}")
        for rho, mise in result.rho_profile:
            lines.append(f"rho={rho:.17g}\t{mise:.17g}")
        if result.excluded_m:
            lines.append(
                "# excluded m: " + ",".join(str(m) for m in result.excluded_m)
            )
    return "\n".join(lines) + "\n"
