"""Slope and intercept estimation for the scalar-on-function linear model.

Given pairs (X_i, Y_i) with functional covariates, the centred second
moments are the empirical covariance kernel and the empirical
cross-covariance function.  Both slope estimators filter the coordinates
<cross_cov, v_j> of one ``EigenSystem``, and one array kernel each gives
every candidate at once:

* ``cutoff_path`` (spectral cutoff, smoothing parameter m) sums
  <cross_cov, v_j> / eigenvalue_j * v_j over j <= m by one cumulative sum,
  so the estimates are exactly nested in m; ``pca_fit`` is one of its rows.
* ``ridge_path`` (Tikhonov ridge, smoothing parameter rho) weights all p
  eigenpairs by 1 / (eigenvalue_j + rho) in one matrix product;
  ``ridge_filter_slope`` is one row.  ``ridge_fit`` instead solves
  (cov + rho * identity) slope = cross_cov densely: the single-fit route,
  and the oracle the spectral filter is checked against.

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


def compute_moments(data: Dataset) -> CenteredMoments:
    """Empirical means, covariance kernel and cross-covariance function.

    The covariance is accumulated from centred outer products (einsum with a
    fixed reduction order), which keeps it exactly symmetric and makes the
    result independent of BLAS threading.
    """
    n, p = data.n, data.grid.p
    x_mean = np.mean(data.X, axis=0)
    y_mean = float(np.mean(data.Y))
    xc = data.X - x_mean
    yc = data.Y - y_mean
    cov = np.einsum("ni,nj->ij", xc, xc) / n
    cross = np.einsum("ni,n->i", xc, yc) / n
    return CenteredMoments(
        x_mean=GridFunction(data.grid, x_mean),
        y_mean=y_mean,
        cov=SymmetricKernel(data.grid, cov),
        cross_cov=GridFunction(data.grid, cross),
    )


def usable_rank(spectrum: EigenSystem) -> int:
    """Number of leading eigenvalues safely above the numerical-null cutoff."""
    top = float(spectrum.eigenvalues[0])
    if top <= 0.0:
        return 0
    return int(np.sum(spectrum.eigenvalues > PCA_RANK_RTOL * top))


def _intercept_from_moments(slope: GridFunction, moments: CenteredMoments) -> float:
    return moments.y_mean - inner_product(slope, moments.x_mean)


def _eigen_coords(spectrum: EigenSystem, cross_cov: GridFunction) -> np.ndarray:
    """Quadrature inner products <cross_cov, v_j> for all p eigenfunctions."""
    if spectrum.grid != cross_cov.grid:
        raise DimensionMismatchError("spectrum and cross-covariance grids differ")
    return cross_cov.values @ spectrum.vectors / spectrum.grid.p


def cutoff_path(spectrum: EigenSystem, cross_cov: GridFunction, m_max: int) -> np.ndarray:
    """Spectral-cutoff slopes for m = 1..k as the rows of a (k, p) array,
    k = min(m_max, usable rank); terms are summed in ascending j."""
    k = min(m_max, usable_rank(spectrum))
    coefs = _eigen_coords(spectrum, cross_cov)[:k] / spectrum.eigenvalues[:k]
    return np.cumsum(coefs[:, None] * spectrum.vectors[:, :k].T, axis=0)


def ridge_path(
    spectrum: EigenSystem, cross_cov: GridFunction, rhos: tuple[float, ...]
) -> np.ndarray:
    """Ridge slopes for each finite, positive rho in ``rhos``, as (K, p)."""
    rhos = np.asarray(rhos, dtype=float)
    if not np.all((rhos > 0.0) & (rhos < math.inf)):
        raise ParameterError(f"ridge parameters must be finite and positive, got {rhos}")
    coords = _eigen_coords(spectrum, cross_cov)
    return (coords / (spectrum.eigenvalues + rhos[:, None])) @ spectrum.vectors.T


def pca_fit(
    moments: CenteredMoments, m: int, spectrum: EigenSystem | None = None
) -> FittedModel:
    """Spectral-cutoff slope estimate using the top m empirical eigenpairs,
    the m-th row of ``cutoff_path``.  A precomputed ``spectrum`` of ``moments.cov``
    may be passed to avoid repeated eigendecompositions.
    """
    if spectrum is None:
        spectrum = eigendecompose(moments.cov)
    rank = usable_rank(spectrum)
    if not 1 <= m <= rank:
        raise RankError(
            f"cutoff m={m} outside the usable spectral rank; "
            f"largest admissible m is {rank}"
        )
    slope_fn = GridFunction(moments.grid, cutoff_path(spectrum, moments.cross_cov, m)[-1])
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
    return GridFunction(spectrum.grid, ridge_path(spectrum, cross_cov, (rho,))[0])


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
