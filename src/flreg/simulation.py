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
Randomness comes from numpy's PCG64 generator seeded with the config's seed;
replication r of a Monte Carlo run is the dataset of the same config with
seed ``replication_seed(seed, r)``, derived from (seed, r) through a
SeedSequence spawn key independently of execution order.  Within one
dataset the draw order is fixed: the n-by-J score matrix is filled
observation-major, then the n noise values follow.
The uniform scores are the generator's ``random()`` fill of [0, 1)
doubles mapped in place to 2 sqrt(3) u - sqrt(3), which is bit for bit what
``uniform(-sqrt(3), sqrt(3))`` returns: that computes lo + (hi - lo) u, and
hi - lo is exactly 2 sqrt(3).  Normal deviates use the generator's native
``standard_normal`` (ziggurat method), which is exact in distribution.  The
curves are one BLAS matrix product of the scaled scores with the basis
(``draw_xy``); the Monte Carlo harness and ``draw_dataset`` share that draw.
The truth of a scenario (``truth_bundle``) depends only on its design, not
on n, noise or seed, and is built once per design and shared read-only.
Its (p, p) kernel is built on first read; of the CLI, only ``diagnose`` does.
``dataset_from_csv`` reads ``dataset_to_csv`` text back as arrays (X, Y).
"""

from __future__ import annotations

import functools
import math
import re
from dataclasses import dataclass

import numpy as np

from .errors import DataFormatError, ParameterError
from .estimators import Dataset, _nonblank_lines, _parse_rows
from .grid import Grid

__all__ = [
    "SimConfig",
    "TruthBundle",
    "basis_matrix",
    "slope_coefficients",
    "gamma_sequence",
    "truth_bundle",
    "replication_seed",
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


def replication_seed(seed: int, replication: int) -> int:
    """Seed of replication r of a Monte Carlo run with seed ``seed``.

    It is derived from (seed, r) through a SeedSequence spawn key, so
    replications are mutually independent and do not depend on the order in
    which they are generated.
    """
    seq = np.random.SeedSequence(entropy=seed, spawn_key=(replication,))
    return int(seq.generate_state(1, dtype=np.uint64)[0])


def basis_matrix(grid: Grid, count: int) -> np.ndarray:
    """Basis functions 1..count on the grid as (count, p) rows: the constant
    one, then sqrt(2) cos((j - 1) pi t) in row j - 1.  On the midpoint grid
    all p rows are exactly orthonormal in the quadrature inner product."""
    if not 1 <= count <= grid.p:
        raise ParameterError(f"basis count must lie in [1, {grid.p}], got {count}")
    out = np.arange(count, dtype=float)[:, None] * math.pi * grid.points
    np.cos(out, out=out)  # in place: the output is the only (count, p) array
    out *= math.sqrt(2.0)
    out[0] = 1.0
    return out


def slope_coefficients(n_terms: int) -> np.ndarray:
    """Basis coefficients of the true slope: 0.3, then 4 (-1)^(j+1) j^(-2)."""
    j = np.arange(1, n_terms + 1, dtype=float)
    coefs = 4.0 * (-1.0) ** (j + 1.0) * j**-2.0
    coefs[0] = 0.3
    return coefs


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
    scales, basis, sorted eigenvalues and the covariance kernel, built on
    first read.  Every array is read-only, as all callers share one bundle."""

    slope: np.ndarray  # (p,)
    gamma: np.ndarray  # (J,) in basis order
    basis: np.ndarray  # (J, p) basis functions on the grid
    eigenvalues: np.ndarray  # gamma**2 sorted nonincreasing
    eigen_order: np.ndarray  # 0-based basis index of each sorted eigenvalue

    @functools.cached_property
    def kernel(self) -> np.ndarray:
        """(p, p), exactly symmetric (two-operand sum), built on first read.
        On Python 3.12+ two first readers may both build it, to the same bits."""
        scaled = np.abs(self.gamma)[:, None] * self.basis
        kernel = np.einsum("ju,jv->uv", scaled, scaled)
        kernel.setflags(write=False)
        return kernel


def truth_bundle(config: SimConfig) -> TruthBundle:
    """Slope, scales and true covariance of a scenario, the last on first read.

    The bundle depends only on (spacing, alpha, n_terms, p), so configs that
    differ in n, sigma_eps or seed get the same cached, read-only bundle."""
    return _truth_bundle(config.spacing, config.alpha, config.n_terms, config.p)


@functools.lru_cache(maxsize=64)
def _truth_bundle(spacing: str, alpha: float, n_terms: int, p: int) -> TruthBundle:
    gamma = gamma_sequence(spacing, alpha, n_terms)
    B = basis_matrix(Grid(p), n_terms)
    kappa = gamma**2
    order = np.argsort(-kappa, kind="stable")
    bundle = TruthBundle(
        slope=slope_coefficients(n_terms) @ B,
        gamma=gamma,
        basis=B,
        eigenvalues=kappa[order],
        eigen_order=order,
    )
    for arr in vars(bundle).values():
        arr.setflags(write=False)
    return bundle


def draw_xy(
    n: int, sigma_eps: float, seed: int, truth: TruthBundle
) -> tuple[np.ndarray, np.ndarray]:
    """The (n, p) covariate matrix and n responses of one dataset of the
    scenario whose truth is ``truth``, fully determined by ``seed``.  The
    number of terms is ``truth.gamma.size`` and p is ``truth.slope.size``.
    Both arrays are fresh and read-only.

    The scores are a ``random()`` fill mapped in place to
    [-sqrt(3), sqrt(3)), bit for bit the generator's ``uniform`` (see the
    module notes), and the noise follows from the same stream.  X is one
    ``gemm`` of the scaled scores with the basis and y one ``gemv``; BLAS
    threads divide their outputs, not their sums, so the bits do not depend
    on the BLAS thread count.
    """
    rng = np.random.Generator(np.random.PCG64(seed))
    scores = rng.random((n, truth.gamma.size))
    scores *= 2.0 * SQRT3
    scores -= SQRT3
    scores *= truth.gamma
    noise = sigma_eps * rng.standard_normal(n)
    X = scores @ truth.basis
    y = X @ truth.slope / truth.slope.size + noise
    X.setflags(write=False)
    y.setflags(write=False)
    return X, y


def draw_dataset(config: SimConfig) -> tuple[Dataset, TruthBundle]:
    """Draw the scenario's dataset: ``draw_xy`` as a ``Dataset``, with the
    scenario's truth."""
    truth = truth_bundle(config)
    X, y = draw_xy(config.n, config.sigma_eps, config.seed, truth)
    return Dataset(X=X, Y=y), truth


# p in ASCII digits; the group drops leading zeros.
_METADATA_RE = re.compile(r"^# grid=midpoint p=0*([0-9]+)$")


def dataset_to_csv(data: Dataset) -> str:
    """Dataset as CSV text: a '# grid=midpoint p=<p>' metadata line, a
    header 'x_1,...,x_p,y', then one row per observation (17 significant
    digits)."""
    p = data.X.shape[1]
    header = ",".join([f"x_{i}" for i in range(1, p + 1)] + ["y"])
    lines = [f"# grid=midpoint p={p}", header]
    row_format = ",".join(["%.17g"] * (p + 1))
    # One row at a time: a whole-matrix tolist() would hold n * p Python floats.
    for x, y in zip(data.X, data.Y.tolist()):
        lines.append(row_format % (*x.tolist(), y))
    lines.append("")  # the final newline, without a second copy of the text
    return "\n".join(lines)


def dataset_from_csv(text: str) -> tuple[np.ndarray, np.ndarray | None]:
    """Parse dataset CSV text back into ``(X, Y)``, the (n, p) covariates and
    responses.  Blank lines are skipped (``_nonblank_lines``), and every cell
    must be a finite number as ``np.loadtxt`` reads it (``_read_cells``); the
    first bad data line is named by its line number, blank lines included.

    The y column is optional: Y is None without it (new curves to predict
    on); a caller needing Y checks.  Both arrays are fresh and read-only.
    """
    linenos, lines = _nonblank_lines(text)
    if not lines:
        raise DataFormatError("dataset CSV is empty")
    match = _METADATA_RE.match(lines[0])
    if match is None:
        raise DataFormatError(
            "dataset CSV must start with a '# grid=midpoint p=<p>' metadata line"
        )
    # p stays text until the header's cell count confirms it, so a declared
    # p of any length costs no more than the header line itself.
    declared = match.group(1)
    if declared in ("0", "1"):
        raise DataFormatError(f"dataset CSV: need a grid of p >= 2 points, got p={declared}")
    if len(lines) < 2:
        raise DataFormatError("dataset CSV is missing its header line")
    header = lines[1].split(",")
    has_y = header[-1] == "y"
    p = len(header) - has_y
    if str(p) != declared or header[:p] != [f"x_{i}" for i in range(1, p + 1)]:
        raise DataFormatError(
            f"dataset CSV header does not match the declared grid size p={declared}"
        )
    table = _parse_rows(lines[2:], linenos[2:], p + 1 if has_y else p, "dataset CSV")
    if has_y:
        X = np.ascontiguousarray(table[:, :p])
        Y = np.ascontiguousarray(table[:, p])
        Y.setflags(write=False)
    else:
        X, Y = table, None
    X.setflags(write=False)
    return X, Y

