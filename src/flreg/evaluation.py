"""Monte Carlo benchmark harness for the two slope estimators.

For a simulation scenario, ``mc_run`` builds the truth once and draws R
replicated datasets (one child seed per replication).  From one
eigendecomposition per replication, ``cutoff_path`` and ``ridge_path`` give
the estimates for every candidate m and rho on the same data (common random
numbers), and it aggregates, per candidate and on the evaluation grid,

    Bias^2 = integral of (mean estimate - true slope)^2,
    Var    = mean integral of (estimate - mean estimate)^2,
    MISE   = Bias^2 + Var,

with the population divisor R so the decomposition is an exact identity.
The tuning parameters are oracle-chosen: m_star and rho_star minimize the
Monte Carlo MISE over their grids, ties resolved toward the smaller m and
the larger rho (more regularisation).

Replications can run on a thread pool; each replication owns its RNG
stream and writes into its own result slot, and all reductions happen in
fixed replication order, so results are bit-identical for any thread count.
"""

from __future__ import annotations

import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from .errors import ParameterError, RankError
from .estimators import compute_moments, cutoff_path, ridge_path
from .estimators import pca_fit, ridge_fit  # noqa: F401 (perfbench traces these names)
from .simulation import SimConfig, draw_dataset, truth_bundle
from .spectral import eigendecompose

__all__ = [
    "McResult",
    "RateFit",
    "DEFAULT_M_GRID",
    "default_rho_grid",
    "integrated_bias_var",
    "mc_run",
    "rate_fit",
    "emit_table",
    "parse_table",
    "emit_profile",
    "TABLE_COLUMNS",
]

DEFAULT_M_GRID: tuple[int, ...] = tuple(range(1, 21))


def default_rho_grid(count: int = 25, lo: float = 1e-6, hi: float = 1.0) -> tuple[float, ...]:
    """Log-spaced ridge candidates, 25 points in [1e-6, 1] by default."""
    if count < 1 or not 0.0 < lo <= hi < math.inf:
        raise ParameterError(f"invalid rho grid: count={count}, lo={lo:g}, hi={hi:g}")
    return tuple(float(r) for r in np.logspace(np.log10(lo), np.log10(hi), count))


@dataclass(frozen=True)
class McResult:
    """Oracle-tuned Monte Carlo error summary for one scenario."""

    config: SimConfig
    replications: int
    m_star: int
    rho_star: float
    bias2_pca: float
    bias2_ridge: float
    var_pca: float
    var_ridge: float
    mise_pca: float
    mise_ridge: float
    m_profile: tuple[tuple[int, float], ...]  # (candidate m, mise)
    rho_profile: tuple[tuple[float, float], ...]  # (candidate rho, mise)
    excluded_m: tuple[int, ...] = ()

    def __post_init__(self) -> None:
        for bias2, var, mise in (
            (self.bias2_pca, self.var_pca, self.mise_pca),
            (self.bias2_ridge, self.var_ridge, self.mise_ridge),
        ):
            if min(bias2, var, mise) < 0.0:
                raise ParameterError("error components must be nonnegative")
            if abs(mise - (bias2 + var)) > 1e-10 * (1.0 + mise):
                raise ParameterError("MISE must equal Bias^2 + Var")


def integrated_bias_var(
    estimates: np.ndarray, target: np.ndarray, p: int
) -> tuple[float, float]:
    """Monte Carlo integrated squared bias and integrated variance.

    ``estimates`` is an (R, p) stack of slope estimates on the grid;
    ``target`` is the true slope.  The variance uses the population divisor
    R, which makes MISE = Bias^2 + Var exact.
    """
    mean_est = np.mean(estimates, axis=0)
    bias2 = float(np.sum((mean_est - target) ** 2)) / p
    var = float(np.sum((estimates - mean_est) ** 2)) / (estimates.shape[0] * p)
    return bias2, var


def _best_m(profile: dict[int, float]) -> int:
    best_m, best = None, np.inf
    for m in sorted(profile):  # ascending: ties keep the smaller m
        if profile[m] < best:
            best, best_m = profile[m], m
    return best_m


def _best_rho(profile: dict[float, float]) -> float:
    best_rho, best = None, np.inf
    for rho in sorted(profile, reverse=True):  # descending: ties keep the larger rho
        if profile[rho] < best:
            best, best_rho = profile[rho], rho
    return best_rho


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
    ``excluded_m``.
    """
    if replications < 2:
        raise ParameterError(f"need at least 2 replications, got {replications}")
    m_grid = tuple(sorted({int(m) for m in m_grid}))
    rho_grid = tuple(sorted({float(r) for r in (rho_grid or default_rho_grid())}))
    if not m_grid or m_grid[0] < 1:
        raise ParameterError(f"cutoff candidates must be nonempty and >= 1, got {m_grid}")
    if not all(0.0 < rho < math.inf for rho in rho_grid):
        raise ParameterError(f"ridge candidates must be finite and positive, got {rho_grid}")

    truth = truth_bundle(config)
    target = truth.slope.values

    def worker(r: int) -> tuple[np.ndarray, np.ndarray]:
        data, _ = draw_dataset(config.child(r), truth)
        moments = compute_moments(data)
        spectrum, g = eigendecompose(moments.cov), moments.cross_cov
        return cutoff_path(spectrum, g, m_grid[-1]), ridge_path(spectrum, g, rho_grid)

    if threads <= 1:
        slots = [worker(r) for r in range(replications)]
    else:
        with ThreadPoolExecutor(max_workers=threads) as pool:
            slots = list(pool.map(worker, range(replications)))

    # A cutoff beyond the usable rank of any replication is excluded.
    rank = min(len(cut) for cut, _ in slots)
    valid_m = [m for m in m_grid if m <= rank]
    if not valid_m:
        raise RankError("every cutoff candidate exceeded the usable rank")
    cuts = np.stack([cut[:rank] for cut, _ in slots])  # (R, rank, p)
    ridges = np.stack([ridge for _, ridge in slots])  # (R, K, p)
    pca_errors = {m: integrated_bias_var(cuts[:, m - 1], target, config.p) for m in valid_m}
    ridge_errors = {
        rho: integrated_bias_var(ridges[:, i], target, config.p)
        for i, rho in enumerate(rho_grid)
    }
    pca_mise = {m: bias2 + var for m, (bias2, var) in pca_errors.items()}
    ridge_mise = {rho: bias2 + var for rho, (bias2, var) in ridge_errors.items()}
    m_star, rho_star = _best_m(pca_mise), _best_rho(ridge_mise)

    return McResult(
        config=config,
        replications=replications,
        m_star=m_star,
        rho_star=rho_star,
        bias2_pca=pca_errors[m_star][0],
        bias2_ridge=ridge_errors[rho_star][0],
        var_pca=pca_errors[m_star][1],
        var_ridge=ridge_errors[rho_star][1],
        mise_pca=pca_mise[m_star],
        mise_ridge=ridge_mise[rho_star],
        m_profile=tuple(pca_mise.items()),
        rho_profile=tuple(ridge_mise.items()),
        excluded_m=tuple(m for m in m_grid if m > rank),
    )


@dataclass(frozen=True)
class RateFit:
    """Empirical convergence-rate fit of oracle MISE against sample size."""

    alpha: float
    beta: float
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
    sizes = tuple(int(n) for n in sample_sizes)
    if len(sizes) < 3 or any(a >= b for a, b in zip(sizes, sizes[1:])):
        raise ParameterError("need at least 3 strictly increasing sample sizes")
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
        alpha=alpha,
        beta=beta,
        sample_sizes=sizes,
        mise_values=mise,
        fitted_slope=slope,
        theoretical_slope=theoretical_rate_slope(alpha, beta),
    )


TABLE_COLUMNS = (
    "sigma_eps",
    "n",
    "alpha",
    "m",
    "rho",
    "bias2_pca",
    "bias2_ridge",
    "var_pca",
    "var_ridge",
    "mise_pca",
    "mise_ridge",
)


def _table_cells(result: McResult) -> tuple:
    return (
        result.config.sigma_eps,
        result.config.n,
        result.config.alpha,
        result.m_star,
        result.rho_star,
        result.bias2_pca,
        result.bias2_ridge,
        result.var_pca,
        result.var_ridge,
        result.mise_pca,
        result.mise_ridge,
    )


def emit_table(results: list[McResult], fmt: str = "tsv") -> str:
    """Render results as a table with the canonical 11 columns.

    ``fmt="tsv"`` emits machine-readable cells (17 significant digits,
    lossless round trip); ``fmt="text"`` emits an aligned human table with
    3-decimal error cells.
    """
    spacings = {r.config.spacing for r in results}
    if len(spacings) > 1:
        raise ParameterError("cannot mix spacing modes in one table")
    if fmt == "tsv":
        lines = ["\t".join(TABLE_COLUMNS)]
        for result in results:
            cells = _table_cells(result)
            rendered = [
                f"{cells[0]:.17g}",
                str(cells[1]),
                f"{cells[2]:.17g}",
                str(cells[3]),
            ] + [f"{c:.17g}" for c in cells[4:]]
            lines.append("\t".join(rendered))
        return "\n".join(lines) + "\n"
    if fmt == "text":
        rows = [list(TABLE_COLUMNS)]
        for result in results:
            cells = _table_cells(result)
            rows.append(
                [f"{cells[0]:g}", str(cells[1]), f"{cells[2]:g}", str(cells[3]),
                 f"{cells[4]:.4g}"] + [f"{c:.3f}" for c in cells[5:]]
            )
        widths = [max(len(row[i]) for row in rows) for i in range(len(TABLE_COLUMNS))]
        lines = ["  ".join(cell.rjust(w) for cell, w in zip(row, widths)) for row in rows]
        return "\n".join(lines) + "\n"
    raise ParameterError(f"unknown table format {fmt!r}")


def parse_table(text: str) -> list[dict]:
    """Parse a TSV table produced by ``emit_table`` back into row dicts."""
    lines = [line for line in text.splitlines() if line.strip() and not line.startswith("#")]
    if not lines or tuple(lines[0].split("\t")) != TABLE_COLUMNS:
        raise ParameterError("text does not start with the canonical table header")
    rows = []
    for line in lines[1:]:
        fields = line.split("\t")
        if len(fields) != len(TABLE_COLUMNS):
            raise ParameterError("table row has wrong number of columns")
        row = dict(zip(TABLE_COLUMNS, (float(f) for f in fields)))
        row["n"] = int(row["n"])
        row["m"] = int(row["m"])
        rows.append(row)
    return rows


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
