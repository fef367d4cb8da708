"""Slope and intercept estimation for the scalar-on-function linear model.

A ``Dataset`` is the pairs (X_i, Y_i): an (n, p) X and an (n,) Y, n and p
read from ``X.shape``.  ``moment_arrays`` computes their centred second
moments, the empirical covariance kernel and cross-covariance, with BLAS
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
  ``ridge_fit`` is one of its rows on a stack of one.

The kernels apply the same operations to every matrix of a stack, so a
dataset's estimates do not depend on which stack it was solved in, and a
single fit is the harness's estimate for the same data and candidate (for a
ridge, up to the summation order of the product over the rho grid).

The single fits take the moments as the 4-tuple (x_mean (p,), y_mean,
cov (p, p), cross_cov (p,)) that ``moment_arrays`` and ``compute_moments``
return.

The intercept is always the average of Y_i minus the fitted functional
term, which for centred moments reduces to y_mean - <slope, x_mean>.
"""

from __future__ import annotations

import functools
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
from .grid import Grid, _frozen_array
from .spectral import eigendecompose

__all__ = [
    "Dataset",
    "FittedModel",
    "moment_arrays",
    "compute_moments",
    "usable_rank",
    "cutoff_path",
    "ridge_path",
    "pca_fit",
    "ridge_fit",
    "predict",
    "model_to_text",
    "model_from_text",
]

# An empirical eigenvalue is usable for spectral-cutoff inversion only if it
# exceeds this fraction of the leading eigenvalue.
PCA_RANK_RTOL = 1e-10


@dataclass(frozen=True)
class Dataset:
    """n >= 2 functional observations with scalar responses.

    Row i of the (n, p) matrix ``X`` samples the covariate X_i at the p >= 2
    grid midpoints; ``Y`` holds the n responses.  n and p are ``X.shape``.
    """

    X: np.ndarray  # (n, p)
    Y: np.ndarray  # (n,)

    def __post_init__(self) -> None:
        if np.ndim(self.X) != 2:
            raise DimensionMismatchError(f"X has shape {np.shape(self.X)}, expected (n, p)")
        n, p = np.shape(self.X)
        if p < 2:
            raise ParameterError(f"grid needs at least 2 points, got p={p}")
        if n < 2:
            raise InsufficientDataError(f"need at least 2 observations, got {n}")
        object.__setattr__(self, "X", _frozen_array(self.X, (n, p), "X"))
        object.__setattr__(self, "Y", _frozen_array(self.Y, (n,), "Y"))

    @property
    def n(self) -> int:
        return self.X.shape[0]

    # Read only by the perfbench/spans.py SIZES pin; delete it with that pin.
    @property
    def grid(self) -> Grid:
        return Grid(self.X.shape[1])


Moments = tuple[np.ndarray, float, np.ndarray, np.ndarray]


@dataclass(frozen=True)
class FittedModel:
    """A fitted slope function with its intercept and tuning metadata."""

    slope: np.ndarray  # (p,) on the grid, finite and read-only
    intercept: float
    method: str  # "pca" | "ridge"
    parameter: float  # the cutoff m (as a float) or the ridge rho

    def __post_init__(self) -> None:
        slope = _frozen_array(self.slope, (np.size(self.slope),), "slope")
        object.__setattr__(self, "slope", slope)


def moment_arrays(X: np.ndarray, Y: np.ndarray) -> Moments:
    """Means, (p, p) covariance and (p,) cross-covariance of an (n, p)
    covariate matrix and its n responses.

    ``xc.T @ xc`` goes to BLAS ``syrk``, which computes one triangle and
    mirrors it, so the covariance is exactly symmetric; ``yc @ xc`` is a
    ``gemv``.  BLAS threads divide the outputs of both, not the sums over
    observations, so the bits do not depend on the BLAS thread count.
    """
    n = X.shape[0]
    # np.mean's own sum and division, without its Python-level wrapper.
    x_mean = np.add.reduce(X, axis=0) / n
    y_mean = float(np.add.reduce(Y)) / n
    xc = X - x_mean
    yc = Y - y_mean
    return x_mean, y_mean, xc.T @ xc / n, yc @ xc / n


def compute_moments(data: Dataset) -> Moments:
    """Empirical means, covariance kernel and cross-covariance function of
    a dataset: ``moment_arrays`` of its matrix and responses."""
    return moment_arrays(data.X, data.Y)


def _usable_ranks(vals: np.ndarray) -> np.ndarray:
    """Per row of the (B, p) nonincreasing eigenvalues, the number of leading
    eigenvalues safely above the numerical-null cutoff."""
    top = vals[:, :1]
    return np.where(top[:, 0] > 0.0, np.sum(vals > PCA_RANK_RTOL * top, axis=1), 0)


def usable_rank(vals: np.ndarray) -> int:
    """Number of leading eigenvalues, of the (p,) nonincreasing ``vals``,
    safely above the numerical-null cutoff."""
    return int(_usable_ranks(np.asarray(vals, dtype=float)[None])[0])


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


def _fitted(slope: np.ndarray, moments: Moments, method: str, parameter: float) -> FittedModel:
    """The model of ``slope``, with intercept y_mean - <slope, x_mean> dotted
    on a fresh copy: OpenBLAS picks its ``ddot`` kernel by alignment, and a
    view into a path moved the intercept by one ulp."""
    x_mean, y_mean, _, _ = moments
    slope = np.array(slope, dtype=float)
    intercept = y_mean - float(np.dot(slope, x_mean)) / slope.size
    return FittedModel(slope=slope, intercept=intercept, method=method, parameter=float(parameter))


def _stack_of_one(moments: Moments) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The path kernels' arguments for one dataset: the eigendecomposition
    of the moments' covariance and their cross-covariance, as stacks of one."""
    _, _, cov, cross = moments
    vals, vecs = eigendecompose(cov)
    return vals[None], vecs[None], np.asarray(cross)[None]


def pca_fit(moments: Moments, m: int) -> FittedModel:
    """Spectral-cutoff slope estimate using the top m empirical eigenpairs of
    the moments' covariance, the m-th row of ``cutoff_path`` on a stack of
    one."""
    vals, vecs, cross = _stack_of_one(moments)
    rank = usable_rank(vals[0])
    if not 1 <= m <= rank:
        raise RankError(
            f"cutoff m={m} outside the usable spectral rank; "
            f"largest admissible m is {rank}"
        )
    return _fitted(cutoff_path(vals, vecs, cross, m)[0, -1], moments, "pca", m)


def ridge_fit(moments: Moments, rho: float) -> FittedModel:
    """Tikhonov-regularised slope estimate, the solution of the p x p system
    (cov / p + rho * identity) slope = cross_cov: the row of ``ridge_path``
    for ``rho`` on a stack of one.  ``rho`` must be finite and strictly
    positive, which makes the system nonsingular."""
    if not 0.0 < rho < math.inf:
        raise ParameterError(f"ridge parameter must be finite and positive, got {rho}")
    return _fitted(ridge_path(*_stack_of_one(moments), (rho,))[0, 0], moments, "ridge", rho)


def predict(model: FittedModel, X: np.ndarray) -> np.ndarray:
    """Plug-in predictions intercept + <slope, X_i> for the rows of the
    (n, p) matrix ``X``; raises ``ParameterError`` if any overflows."""
    X = np.asarray(X, dtype=float)
    p = model.slope.size
    if X.ndim != 2 or X.shape[1] != p:
        raise DimensionMismatchError(f"X has shape {X.shape}, expected (n, {p})")
    y = model.intercept + X @ model.slope / p
    if not np.all(np.isfinite(y)):
        raise ParameterError("predictions overflow to non-finite values")
    return y


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
        f"p={model.slope.size}",
    ]
    lines.extend(f"{v:.17g}" for v in model.slope)
    return "\n".join(lines) + "\n"


def _nonblank_lines(text: str) -> tuple[list[int], list[str]]:
    """Numbers (from 1) and contents of the nonblank lines of a data or model
    file.  Lines end at ``\\n``, ``\\r\\n`` or ``\\r`` (universal newlines,
    as ``open()`` reads text) and nowhere else."""
    if "\r" in text:
        text = text.replace("\r\n", "\n").replace("\r", "\n")
    numbered = [(no, line) for no, line in enumerate(text.split("\n"), 1) if line.strip()]
    return [no for no, _ in numbered], [line for _, line in numbered]


# The cells of comma-separated nonempty rows as a 2-D float table, in one C
# pass: a cell is an optional sign and an ASCII decimal, scientific, inf or
# nan spelling, within whitespace.  Raises ValueError on rows of unequal width.
_read_cells = functools.partial(np.loadtxt, delimiter=",", comments=None, ndmin=2)


def _parse_rows(rows: list[str], linenos: list[int], n_cols: int, what: str) -> np.ndarray:
    """The (len(rows), n_cols) table of finite cells in the rows of a ``what``
    ("dataset CSV" or "model file") on lines ``linenos``, in one
    ``_read_cells`` pass.  If that pass rejects the rows, each is read alone
    by the same call, only to raise the first bad line's error."""
    # np.loadtxt skips an empty row (an empty model header value), and warns
    # when no row is left; such a row is one cell that is not a number.
    if all(rows):
        try:
            table = _read_cells(rows) if rows else np.empty((0, n_cols))
            if table.shape == (len(rows), n_cols) and np.isfinite(table).all():
                return table
        except ValueError:
            pass
    for lineno, row in zip(linenos, rows):
        n_cells = row.count(",") + 1
        if n_cells != n_cols:
            raise DataFormatError(
                f"{what} line {lineno}: expected {n_cols} columns, got {n_cells}"
            )
        try:
            if not row:
                raise ValueError("empty cell")
            cells = _read_cells([row])
        except ValueError as exc:
            raise DataFormatError(f"{what} line {lineno}: non-numeric cell") from exc
        if not np.isfinite(cells).all():
            raise DataFormatError(f"{what} line {lineno}: non-finite cell")
    raise DataFormatError(f"{what}: the data rows do not form a table")


def model_from_text(text: str) -> FittedModel:
    """Parse a model file produced by ``model_to_text``: its header values
    and slope values are one column of cells, split and read as a dataset
    CSV's rows are (``_nonblank_lines``, ``_parse_rows``)."""
    linenos, lines = _nonblank_lines(text)
    if len(lines) < 4:
        raise DataFormatError("model file truncated: missing header lines")

    def _error(i: int, message: str) -> DataFormatError:
        return DataFormatError(f"model file line {linenos[i]}: {message}")

    def _field(i: int, key: str) -> str:
        if not lines[i].startswith(key + "="):
            raise _error(i, f"expected '{key}=...', got {lines[i]!r}")
        return lines[i][len(key) + 1:]

    method = _field(0, "method")
    if method not in ("pca", "ridge"):
        raise _error(0, f"unknown method {method!r}")
    key = "m" if method == "pca" else "rho"
    header = [_field(1, key), _field(2, "intercept"), _field(3, "p")]
    column = _parse_rows(header + lines[4:], linenos[1:], 1, "model file")[:, 0]
    parameter, intercept, p = column[:3].tolist()
    if method == "pca" and not (parameter >= 1 and parameter.is_integer()):
        raise _error(1, f"need an integer m >= 1, got m={parameter!r}")
    if method == "ridge" and not parameter > 0:
        raise _error(1, f"need rho > 0, got rho={parameter!r}")
    if not (p >= 2 and p.is_integer()):
        raise _error(3, f"need a grid of p >= 2 points, got p={p!r}")
    values = column[3:]
    if len(values) != p:
        raise DataFormatError(f"model file: expected {int(p)} slope values, found {len(values)}")
    return FittedModel(slope=values, intercept=intercept, method=method, parameter=parameter)
