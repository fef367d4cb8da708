"""Slope and intercept estimation for the scalar-on-function linear model.

Given pairs (X_i, Y_i) with functional covariates, the centred second
moments are the empirical covariance kernel and the empirical
cross-covariance function; ``moment_arrays`` computes them with BLAS
(``syrk`` for the covariance, so it is exactly symmetric, and ``gemv`` for
the cross-covariance).  Both slope estimators filter the coordinates
<cross_cov, v_j> of an eigendecomposition, and one array kernel each gives
every candidate at once, for a whole (B, ...) stack of datasets:

* ``cutoff_path`` (spectral cutoff, smoothing parameter m) sums
  <cross_cov, v_j> / eigenvalue_j * v_j over j <= m by one cumulative sum,
  so the estimates are exactly nested in m; ``pca_fit`` is one of its rows
  on a stack of one.
* ``ridge_path`` (Tikhonov ridge, smoothing parameter rho) weights all p
  eigenpairs by 1 / (eigenvalue_j + rho) in one batched matrix product;
  ``ridge_filter_slope`` is one row.  ``ridge_fit`` instead solves
  (cov + rho * identity) slope = cross_cov densely: the single-fit route,
  and the oracle the spectral filter is checked against.

The kernels apply the same operations to every matrix of a stack, so a
dataset's estimates do not depend on which stack it was solved in.

The intercept is always the average of Y_i minus the fitted functional
term, which for centred moments reduces to y_mean - <slope, x_mean>.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import (
    DataFormatError,
    DimensionMismatchError,
    InsufficientDataError,
    ParameterError,
    RankError,
)
from .grid import Grid, GridFunction, SymmetricKernel, _frozen_array, inner_product
from .spectral import EigenSystem, eigendecompose

__all__ = [
    "Dataset",
    "CenteredMoments",
    "FittedModel",
    "moment_arrays",
    "compute_moments",
    "usable_rank",
    "cutoff_path",
    "ridge_path",
    "pca_fit",
    "ridge_fit",
    "ridge_filter_slope",
    "predict",
    "model_to_text",
    "model_from_text",
]

# An empirical eigenvalue is usable for spectral-cutoff inversion only if it
# exceeds this fraction of the leading eigenvalue.
PCA_RANK_RTOL = 1e-10


@dataclass(frozen=True)
class Dataset:
    """n functional observations with scalar responses.

    Row i of the (n, p) matrix ``X`` samples the covariate X_i at the grid
    midpoints; ``Y`` holds the n responses.
    """

    grid: Grid
    X: np.ndarray  # (n, p)
    Y: np.ndarray  # (n,)

    def __post_init__(self) -> None:
        n = len(self.X)
        if n < 2:
            raise InsufficientDataError(f"need at least 2 observations, got {n}")
        X = _frozen_array(self.X, (n, self.grid.p), "X")
        Y = _frozen_array(self.Y, (n,), "Y")
        object.__setattr__(self, "X", X)
        object.__setattr__(self, "Y", Y)

    @property
    def n(self) -> int:
        return self.X.shape[0]


@dataclass(frozen=True)
class CenteredMoments:
    """Empirical means plus centred covariance and cross-covariance."""

    x_mean: GridFunction
    y_mean: float
    cov: SymmetricKernel
    cross_cov: GridFunction

    def __post_init__(self) -> None:
        if self.cov.grid != self.x_mean.grid or self.cross_cov.grid != self.x_mean.grid:
            raise DimensionMismatchError("moment components live on different grids")

    @property
    def grid(self) -> Grid:
        return self.x_mean.grid


@dataclass(frozen=True)
class FittedModel:
    """A fitted slope function with its intercept and tuning metadata."""

    slope: GridFunction
    intercept: float
    method: str  # "pca" | "ridge"
    parameter: float  # the cutoff m (as a float) or the ridge rho


def moment_arrays(
    X: np.ndarray, Y: np.ndarray
) -> tuple[np.ndarray, float, np.ndarray, np.ndarray]:
    """Means, (p, p) covariance and (p,) cross-covariance of an (n, p)
    covariate matrix and its n responses.

    ``xc.T @ xc`` goes to BLAS ``syrk``, which computes one triangle and
    mirrors it, so the covariance is exactly symmetric; ``yc @ xc`` is a
    ``gemv``.  BLAS threads divide the outputs of both, not the sums over
    observations, so the bits do not depend on the BLAS thread count.
    """
    n = X.shape[0]
    x_mean = np.mean(X, axis=0)
    y_mean = float(np.mean(Y))
    xc = X - x_mean
    yc = Y - y_mean
    return x_mean, y_mean, xc.T @ xc / n, yc @ xc / n


def compute_moments(data: Dataset) -> CenteredMoments:
    """Empirical means, covariance kernel and cross-covariance function of
    a dataset: ``moment_arrays`` wrapped in grid types."""
    x_mean, y_mean, cov, cross = moment_arrays(data.X, data.Y)
    return CenteredMoments(
        x_mean=GridFunction(data.grid, x_mean),
        y_mean=y_mean,
        cov=SymmetricKernel(data.grid, cov),
        cross_cov=GridFunction(data.grid, cross),
    )


def _usable_ranks(vals: np.ndarray) -> np.ndarray:
    """Per row of the (B, p) nonincreasing eigenvalues, the number of leading
    eigenvalues safely above the numerical-null cutoff."""
    top = vals[:, :1]
    return np.where(top[:, 0] > 0.0, np.sum(vals > PCA_RANK_RTOL * top, axis=1), 0)


def usable_rank(spectrum: EigenSystem) -> int:
    """Number of leading eigenvalues safely above the numerical-null cutoff."""
    return int(_usable_ranks(spectrum.eigenvalues[None])[0])


def _intercept_from_moments(slope: GridFunction, moments: CenteredMoments) -> float:
    return moments.y_mean - inner_product(slope, moments.x_mean)


def _eigen_coords(vecs: np.ndarray, cross: np.ndarray) -> np.ndarray:
    """Quadrature inner products <cross_b, v_bj>, as (B, p), of each of the
    B cross-covariances with all p eigenfunctions of its own stack entry."""
    return (cross[:, None, :] @ vecs)[:, 0] / vecs.shape[-1]


def cutoff_path(
    vals: np.ndarray, vecs: np.ndarray, cross: np.ndarray, m_max: int
) -> np.ndarray:
    """Spectral-cutoff slopes for m = 1..k as a (B, k, p) array, from a stack
    of B eigendecompositions (``vals`` (B, p), ``vecs`` (B, p, p), as from
    ``eigh_stack``) and their (B, p) cross-covariances.  k = min(m_max,
    smallest usable rank in the stack); terms are summed in ascending j."""
    k = min(m_max, int(np.min(_usable_ranks(vals))))
    coefs = _eigen_coords(vecs, cross)[:, :k] / vals[:, :k]
    return np.cumsum(coefs[:, :, None] * np.swapaxes(vecs[:, :, :k], 1, 2), axis=1)


def ridge_path(
    vals: np.ndarray, vecs: np.ndarray, cross: np.ndarray, rhos: tuple[float, ...]
) -> np.ndarray:
    """Ridge slopes for each finite, positive rho in ``rhos``, as (B, K, p),
    from the same stacks as ``cutoff_path``."""
    rhos = np.asarray(rhos, dtype=float)
    if not np.all((rhos > 0.0) & (rhos < math.inf)):
        raise ParameterError(f"ridge parameters must be finite and positive, got {rhos}")
    coords = _eigen_coords(vecs, cross)[:, None, :]
    return (coords / (vals[:, None, :] + rhos[:, None])) @ np.swapaxes(vecs, 1, 2)


def _stack_of_one(
    spectrum: EigenSystem, cross_cov: GridFunction
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    if spectrum.grid != cross_cov.grid:
        raise DimensionMismatchError("spectrum and cross-covariance grids differ")
    return spectrum.eigenvalues[None], spectrum.vectors[None], cross_cov.values[None]


def pca_fit(
    moments: CenteredMoments, m: int, spectrum: EigenSystem | None = None
) -> FittedModel:
    """Spectral-cutoff slope estimate using the top m empirical eigenpairs,
    the m-th row of ``cutoff_path`` on a stack of one.  A precomputed
    ``spectrum`` of ``moments.cov`` may be passed to avoid repeated
    eigendecompositions.
    """
    if spectrum is None:
        spectrum = eigendecompose(moments.cov)
    rank = usable_rank(spectrum)
    if not 1 <= m <= rank:
        raise RankError(
            f"cutoff m={m} outside the usable spectral rank; "
            f"largest admissible m is {rank}"
        )
    path = cutoff_path(*_stack_of_one(spectrum, moments.cross_cov), m)
    slope_fn = GridFunction(moments.grid, path[0, -1])
    return FittedModel(
        slope=slope_fn,
        intercept=_intercept_from_moments(slope_fn, moments),
        method="pca",
        parameter=float(m),
    )


def ridge_fit(moments: CenteredMoments, rho: float) -> FittedModel:
    """Tikhonov-regularised slope estimate.

    Solves the p x p system (cov / p + rho * identity) slope = cross_cov,
    the grid discretisation of the regularised operator equation.  ``rho``
    must be strictly positive, which makes the system nonsingular.
    """
    if not rho > 0.0:
        raise ParameterError(f"ridge parameter must be positive, got {rho}")
    p = moments.grid.p
    system = moments.cov.values / p + rho * np.eye(p)
    slope = np.linalg.solve(system, moments.cross_cov.values)
    slope_fn = GridFunction(moments.grid, slope)
    return FittedModel(
        slope=slope_fn,
        intercept=_intercept_from_moments(slope_fn, moments),
        method="ridge",
        parameter=float(rho),
    )


def ridge_filter_slope(
    spectrum: EigenSystem, cross_cov: GridFunction, rho: float
) -> GridFunction:
    """Ridge slope via the spectral filter: the row of ``ridge_path`` for rho."""
    path = ridge_path(*_stack_of_one(spectrum, cross_cov), (rho,))
    return GridFunction(spectrum.grid, path[0, 0])


def predict(model: FittedModel, X: np.ndarray) -> np.ndarray:
    """Plug-in predictions intercept + <slope, X_i> for the rows of the
    (n, p) matrix ``X``."""
    X = np.asarray(X, dtype=float)
    p = model.slope.grid.p
    if X.ndim != 2 or X.shape[1] != p:
        raise DimensionMismatchError(f"X has shape {X.shape}, expected (n, {p})")
    return model.intercept + X @ model.slope.values / p


def model_to_text(model: FittedModel) -> str:
    """Serialize a fitted model to its plain-text file format.

    Four header lines (method, tuning parameter, intercept, grid size)
    followed by the p slope values, one per line, 17 significant digits.
    """
    if model.method == "pca":
        param_line = f"m={int(model.parameter)}"
    elif model.method == "ridge":
        param_line = f"rho={model.parameter:.17g}"
    else:
        raise ParameterError(f"unknown method {model.method!r}")
    lines = [
        f"method={model.method}",
        param_line,
        f"intercept={model.intercept:.17g}",
        f"p={model.slope.grid.p}",
    ]
    lines.extend(f"{v:.17g}" for v in model.slope.values)
    return "\n".join(lines) + "\n"


def model_from_text(text: str) -> FittedModel:
    """Parse a model file produced by ``model_to_text``."""
    lines = text.splitlines()
    if len(lines) < 4:
        raise DataFormatError("model file truncated: missing header lines")

    def _field(line: str, key: str) -> str:
        prefix = key + "="
        if not line.startswith(prefix):
            raise DataFormatError(f"model file: expected '{prefix}...', got {line!r}")
        return line[len(prefix):]

    method = _field(lines[0], "method")
    if method not in ("pca", "ridge"):
        raise DataFormatError(f"model file: unknown method {method!r}")
    try:
        if method == "pca":
            parameter = float(int(_field(lines[1], "m")))
        else:
            parameter = float(_field(lines[1], "rho"))
        intercept = float(_field(lines[2], "intercept"))
        p = int(_field(lines[3], "p"))
        values = np.array([float(line) for line in lines[4:] if line.strip()])
    except ValueError as exc:
        raise DataFormatError(f"model file: non-numeric field ({exc})") from exc
    if method == "pca" and parameter < 1:
        raise DataFormatError(f"model file: need m >= 1, got {parameter:g}")
    if method == "ridge" and not 0.0 < parameter < math.inf:
        raise DataFormatError(f"model file: need finite rho > 0, got {parameter:g}")
    if not (math.isfinite(intercept) and np.all(np.isfinite(values))):
        raise DataFormatError("model file: non-finite intercept or slope value")
    if len(values) != p:
        raise DataFormatError(
            f"model file: expected {p} slope values, found {len(values)}"
        )
    grid = Grid(p)
    return FittedModel(
        slope=GridFunction(grid, values),
        intercept=intercept,
        method=method,
        parameter=parameter,
    )
