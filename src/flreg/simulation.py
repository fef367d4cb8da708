"""Synthetic data generator for the simulation study.

The covariates are random cosine series on [0, 1],

    X_i = sum over j <= J of gamma_j * Z_ij * phi_j,

with phi_1 the constant function, phi_{j+1}(t) = sqrt(2) cos(j pi t), and
scores Z_ij drawn iid uniform on [-sqrt(3), sqrt(3)] (zero mean, unit
variance).  Responses follow Y_i = <slope, X_i> + eps_i with zero intercept
and Gaussian noise.  Two families of scale coefficients gamma_j are
supported: a "well_spaced" design whose squared scales decay as j^(-alpha)
with strictly separated values, and a "closely_spaced" design that produces
blocks of five nearly tied eigenvalues.

Reproducibility contract: a dataset is fully determined by its SimConfig.
Randomness comes from numpy's PCG64 generator seeded through a
SeedSequence; replication r of a Monte Carlo run uses the child config
``config.child(r)``, whose seed is derived from (seed, r) independently of
execution order.  Within one dataset the draw order is fixed: the n-by-J
score matrix is filled observation-major, then the n noise values follow.
The uniform scores are the generator's ``random()`` fill of [0, 1)
doubles mapped in place to 2 sqrt(3) u - sqrt(3), which is bit for bit what
``uniform(-sqrt(3), sqrt(3))`` returns: that computes lo + (hi - lo) u, and
hi - lo is exactly 2 sqrt(3).  Normal deviates use the generator's native
``standard_normal`` (ziggurat method), which is exact in distribution.  The
curves are one BLAS matrix product of the scaled scores with the basis
(``draw_xy``); the Monte Carlo harness and ``draw_dataset`` share that draw.
The truth of a scenario (``truth_bundle``) depends only on its design, not
on n, noise or seed, and is built once per design and shared read-only.
"""

from __future__ import annotations

import dataclasses
import functools
import math
import re
from dataclasses import dataclass

import numpy as np

from .errors import DataFormatError, ParameterError
from .estimators import Dataset
from .grid import Grid

__all__ = [
    "SimConfig",
    "TruthBundle",
    "basis_matrix",
    "slope_coefficients",
    "true_slope",
    "gamma_sequence",
    "truth_bundle",
    "draw_xy",
    "draw_dataset",
    "dataset_to_csv",
    "dataset_from_csv",
]

SQRT3 = math.sqrt(3.0)

SPACINGS = ("well_spaced", "closely_spaced")


@dataclass(frozen=True)
class SimConfig:
    """One simulation scenario: sample size, noise, eigenvalue design, seed."""

    n: int
    sigma_eps: float
    alpha: float
    spacing: str
    n_terms: int = 50  # number of basis functions in slope and covariates
    p: int = 50  # grid size
    seed: int = 0

    def __post_init__(self) -> None:
        if self.n < 2:
            raise ParameterError(f"need n >= 2, got {self.n}")
        if not 0.0 <= self.sigma_eps < math.inf:
            raise ParameterError(f"need finite sigma_eps >= 0, got {self.sigma_eps}")
        if not 0.0 < self.alpha < math.inf:
            raise ParameterError(f"need finite alpha > 0, got {self.alpha}")
        if self.spacing not in SPACINGS:
            raise ParameterError(
                f"spacing must be one of {SPACINGS}, got {self.spacing!r}"
            )
        if not 1 <= self.n_terms <= self.p:
            raise ParameterError(
                f"need 1 <= n_terms <= p, got n_terms={self.n_terms}, p={self.p}"
            )
        if self.seed < 0:
            raise ParameterError(f"seed must be nonnegative, got {self.seed}")

    @property
    def grid(self) -> Grid:
        return Grid(self.p)

    def child(self, replication: int) -> "SimConfig":
        """Config for one Monte Carlo replication.

        The child seed is derived from (seed, replication) through a
        SeedSequence spawn key, so replications are mutually independent and
        do not depend on the order in which they are generated.
        """
        seq = np.random.SeedSequence(entropy=self.seed, spawn_key=(replication,))
        return dataclasses.replace(
            self, seed=int(seq.generate_state(1, dtype=np.uint64)[0])
        )


def basis_matrix(grid: Grid, count: int) -> np.ndarray:
    """Basis functions 1..count on the grid as (count, p) rows: the constant
    one, then sqrt(2) cos((j - 1) pi t) in row j - 1.  On the midpoint grid
    all p rows are exactly orthonormal in the quadrature inner product."""
    if not 1 <= count <= grid.p:
        raise ParameterError(f"basis count must lie in [1, {grid.p}], got {count}")
    j_minus_1 = np.arange(count, dtype=float)[:, None]
    out = math.sqrt(2.0) * np.cos(j_minus_1 * math.pi * grid.points)
    out[0] = 1.0
    return out


def slope_coefficients(n_terms: int) -> np.ndarray:
    """Basis coefficients of the true slope: 0.3, then 4 (-1)^(j+1) j^(-2)."""
    j = np.arange(1, n_terms + 1, dtype=float)
    coefs = 4.0 * (-1.0) ** (j + 1.0) * j**-2.0
    coefs[0] = 0.3
    return coefs


def true_slope(grid: Grid, n_terms: int = 50) -> np.ndarray:
    """The true slope function on the grid, a (p,) finite cosine series of
    1 <= n_terms <= p terms."""
    return slope_coefficients(n_terms) @ basis_matrix(grid, n_terms)


def gamma_sequence(spacing: str, alpha: float, count: int) -> np.ndarray:
    """Score scale coefficients gamma_j for the requested eigenvalue design.

    well_spaced:     gamma_j = (-1)^(j+1) j^(-alpha/2), so the covariance
                     eigenvalues j^(-alpha) are strictly separated.
    closely_spaced:  gamma_1 = 1; gamma_j = 0.2 (-1)^(j+1) (1 - 0.0001 j)
                     for 2 <= j <= 4; and for j = 5q + k with q >= 1 and
                     0 <= k <= 4, gamma_j = 0.2 (-1)^(j+1)
                     ((5q)^(-alpha/2) - 0.0001 k), which yields blocks of
                     five nearly tied eigenvalues.
    """
    if count < 1:
        raise ParameterError(f"need count >= 1, got {count}")
    if spacing == "well_spaced":
        j = np.arange(1, count + 1, dtype=float)
        return (-1.0) ** (j + 1.0) * j ** (-alpha / 2.0)
    if spacing == "closely_spaced":
        out = np.empty(count)
        out[0] = 1.0
        for idx in range(1, count):
            j = idx + 1
            sign = -1.0 if j % 2 == 0 else 1.0
            if j <= 4:
                out[idx] = 0.2 * sign * (1.0 - 0.0001 * j)
            else:
                q, k = divmod(j, 5)
                out[idx] = 0.2 * sign * ((5.0 * q) ** (-alpha / 2.0) - 0.0001 * k)
        return out
    raise ParameterError(f"spacing must be one of {SPACINGS}, got {spacing!r}")


@dataclass(frozen=True)
class TruthBundle:
    """Everything the data-generating process knows: true slope, score
    scales, basis, covariance kernel and its sorted eigenvalues.  Every
    array is read-only, since one bundle is shared by all callers."""

    slope: np.ndarray  # (p,)
    gamma: np.ndarray  # (J,) in basis order
    basis: np.ndarray  # (J, p) basis functions on the grid
    kernel: np.ndarray  # (p, p), exactly symmetric
    eigenvalues: np.ndarray  # gamma**2 sorted nonincreasing
    eigen_order: np.ndarray  # 0-based basis index of each sorted eigenvalue


def truth_bundle(config: SimConfig) -> TruthBundle:
    """Deterministic part of a scenario: slope, scales and true covariance.

    The bundle depends only on (spacing, alpha, n_terms, p), so configs that
    differ in n, sigma_eps or seed get the same cached, read-only bundle."""
    return _truth_bundle(config.spacing, config.alpha, config.n_terms, config.p)


@functools.lru_cache(maxsize=64)
def _truth_bundle(spacing: str, alpha: float, n_terms: int, p: int) -> TruthBundle:
    grid = Grid(p)
    gamma = gamma_sequence(spacing, alpha, n_terms)
    B = basis_matrix(grid, n_terms)
    # Two-operand accumulation keeps the kernel exactly symmetric.
    scaled = np.abs(gamma)[:, None] * B
    kernel = np.einsum("ju,jv->uv", scaled, scaled)
    kappa = gamma**2
    order = np.argsort(-kappa, kind="stable")
    bundle = TruthBundle(
        slope=true_slope(grid, n_terms),
        gamma=gamma,
        basis=B,
        kernel=kernel,
        eigenvalues=kappa[order],
        eigen_order=order,
    )
    for arr in vars(bundle).values():
        arr.setflags(write=False)
    return bundle


def draw_xy(config: SimConfig, truth: TruthBundle) -> tuple[np.ndarray, np.ndarray]:
    """The (n, p) covariate matrix and n responses of the scenario's
    dataset, fully determined by config.seed.  ``truth`` is ``truth_bundle``
    of a config equal but for the seed.  Both arrays are fresh and
    read-only.

    The scores are a ``random()`` fill mapped in place to
    [-sqrt(3), sqrt(3)), bit for bit the generator's ``uniform`` (see the
    module notes), and the noise follows from the same stream.  X is one
    ``gemm`` of the scaled scores with the basis and y one ``gemv``; BLAS
    threads divide their outputs, not their sums, so the bits do not depend
    on the BLAS thread count.
    """
    rng = np.random.Generator(np.random.PCG64(config.seed))
    scores = rng.random((config.n, config.n_terms))
    scores *= 2.0 * SQRT3
    scores -= SQRT3
    scores *= truth.gamma
    noise = config.sigma_eps * rng.standard_normal(config.n)
    X = scores @ truth.basis
    y = X @ truth.slope / config.p + noise
    X.setflags(write=False)
    y.setflags(write=False)
    return X, y


def draw_dataset(
    config: SimConfig, truth: TruthBundle | None = None
) -> tuple[Dataset, TruthBundle]:
    """Draw one dataset from the scenario: ``draw_xy`` as a ``Dataset``.
    ``truth``, if given, is ``truth_bundle`` of a config equal but for the seed."""
    if truth is None:
        truth = truth_bundle(config)
    X, y = draw_xy(config, truth)
    return Dataset(grid=config.grid, X=X, Y=y), truth


_METADATA_RE = re.compile(r"^# grid=midpoint p=(\d+)$")


def dataset_to_csv(data: Dataset) -> str:
    """Dataset as CSV text: a '# grid=midpoint p=<p>' metadata line, a
    header 'x_1,...,x_p,y', then one row per observation (17 significant
    digits)."""
    p = data.grid.p
    header = ",".join([f"x_{i}" for i in range(1, p + 1)] + ["y"])
    lines = [f"# grid=midpoint p={p}", header]
    row_format = ",".join(["%.17g"] * (p + 1))
    # One row at a time: a whole-matrix tolist() would hold n * p Python floats.
    for x, y in zip(data.X, data.Y.tolist()):
        lines.append(row_format % (*x.tolist(), y))
    return "\n".join(lines) + "\n"


def dataset_from_csv(
    text: str, require_y: bool = True
) -> tuple[Grid, np.ndarray, np.ndarray | None]:
    """Parse dataset CSV text back into grid, (n, p) covariate matrix and
    responses.  Every cell must be a finite number in the grammar of
    Python's ``float()``; the first bad data line is named in the error by
    its line number in the text, blank lines included.  Lines are split as
    by ``str.splitlines``, so CRLF ends one line.

    With ``require_y=False`` the y column may be absent, in which case the
    returned responses are None (as needed when predicting on new curves).
    The returned arrays are fresh and read-only.
    """
    linenos, lines = [], []
    for lineno, line in enumerate(text.splitlines(), start=1):
        if line.strip():
            linenos.append(lineno)
            lines.append(line)
    if not lines:
        raise DataFormatError("dataset CSV is empty")
    match = _METADATA_RE.match(lines[0])
    if match is None:
        raise DataFormatError(
            "dataset CSV must start with a '# grid=midpoint p=<p>' metadata line"
        )
    p = int(match.group(1))
    if p < 2:
        raise DataFormatError(f"dataset CSV: need a grid of p >= 2 points, got p={p}")
    grid = Grid(p)
    if len(lines) < 2:
        raise DataFormatError("dataset CSV is missing its header line")
    x_names = [f"x_{i}" for i in range(1, p + 1)]
    header = lines[1].split(",")
    if header == x_names + ["y"]:
        has_y = True
    elif header == x_names and not require_y:
        has_y = False
    else:
        raise DataFormatError(
            f"dataset CSV header does not match the declared grid size p={p}"
        )
    table = _parse_rows(lines[2:], linenos[2:], p + 1 if has_y else p)
    if has_y:
        X = np.ascontiguousarray(table[:, :p])
        Y = np.ascontiguousarray(table[:, p])
        Y.setflags(write=False)
    else:
        X, Y = table, None
    X.setflags(write=False)
    return grid, X, Y


def _parse_rows(rows: list[str], linenos: list[int], n_cols: int) -> np.ndarray:
    """The (len(rows), n_cols) table of finite cells in nonblank data rows,
    which sit on lines ``linenos`` of the text.

    One C pass by ``np.loadtxt``, accepted only if it gives one row per line
    and every cell is finite; otherwise the per-line loop either names the
    bad line or gives the values Python's ``float()`` grammar allows and
    ``loadtxt`` does not (digit separators, non-ASCII digits).  Both parse
    with the same correctly rounded conversion, so they agree bit for bit.
    """
    if not rows:  # loadtxt warns on empty input
        return np.empty((0, n_cols))
    try:
        table = np.loadtxt(rows, delimiter=",", comments=None, ndmin=2)
    except ValueError:
        return _parse_rows_by_line(rows, linenos, n_cols)
    if table.shape != (len(rows), n_cols) or not np.isfinite(table).all():
        return _parse_rows_by_line(rows, linenos, n_cols)
    return table


def _parse_rows_by_line(rows: list[str], linenos: list[int], n_cols: int) -> np.ndarray:
    """``_parse_rows`` one line at a time with ``float()``: the route that
    names the first bad line (by its number in ``linenos``) and the tests'
    reference for the fast route."""
    table = np.empty((len(rows), n_cols))
    for i, (lineno, line) in enumerate(zip(linenos, rows)):
        fields = line.split(",")
        if len(fields) != n_cols:
            raise DataFormatError(
                f"dataset CSV line {lineno}: expected {n_cols} columns, got {len(fields)}"
            )
        try:
            row = [float(f) for f in fields]
        except ValueError as exc:
            raise DataFormatError(f"dataset CSV line {lineno}: non-numeric cell") from exc
        if not all(map(math.isfinite, row)):
            raise DataFormatError(f"dataset CSV line {lineno}: non-finite cell")
        table[i] = row
    return table
