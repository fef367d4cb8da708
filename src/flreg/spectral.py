"""Eigendecomposition of symmetric integral operators and perturbation
diagnostics.

Discrete convention: with equal quadrature weights 1/p, the operator
f -> integral of M(., v) f(v) dv acts on grid vectors as (M / p) @ f.  The
matrix M / p stays exactly symmetric, so operator eigenvalues are its
ordinary matrix eigenvalues and eigenvectors only need a sqrt(p) rescale to
become unit-norm in the quadrature inner product.

The perturbation report checks, numerically, the two classical stability
bounds for eigenvalues and (sign-aligned) eigenfunctions of nearby
symmetric operators: the eigenvalue gap is at most the Hilbert-Schmidt
distance of the kernels, and the eigenfunction distance at rank j is at
most sqrt(8) times that distance divided by the running minimum delta_j of
adjacent spectral gaps.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DegenerateSpectrumError, DimensionMismatchError, ParameterError
from .grid import Grid, SymmetricKernel

__all__ = [
    "EigenSystem",
    "PerturbationIndexRow",
    "PerturbationReport",
    "eigendecompose",
    "align_signs",
    "perturbation_report",
    "resolvent_identity_residual",
    "report_to_tsv",
]

# Eigenvalues below NULL_RTOL * max(leading eigenvalue, 1) are reported but
# considered numerically indistinguishable from zero.
NULL_RTOL = 1e-12

# Minimum separation between lambda_j and the rest of the reference spectrum
# for the resolvent identity to be evaluated.
SEPARATION_FLOOR = 1e-8


@dataclass(frozen=True)
class EigenSystem:
    """All p eigenpairs of a discretised symmetric integral operator.

    ``eigenvalues`` is sorted nonincreasing; column j of ``vectors`` is the
    j-th eigenfunction on the grid, unit-norm and pairwise orthogonal in the
    quadrature inner product.
    """

    grid: Grid
    eigenvalues: np.ndarray  # (p,)
    vectors: np.ndarray  # (p, p), column j <-> eigenvalues[j]

    def __post_init__(self) -> None:
        vals = np.asarray(self.eigenvalues, dtype=float)
        vecs = np.asarray(self.vectors, dtype=float)
        if vals.ndim != 1 or vecs.shape != (self.grid.p, vals.size):
            raise DimensionMismatchError("inconsistent eigensystem shapes")
        if np.any(vals[:-1] < vals[1:]):
            raise ParameterError("eigenvalues must be sorted nonincreasing")
        vals.setflags(write=False)
        vecs.setflags(write=False)
        object.__setattr__(self, "eigenvalues", vals)
        object.__setattr__(self, "vectors", vecs)

    @property
    def null_mask(self) -> np.ndarray:
        """True where an eigenvalue is numerically null."""
        return self.eigenvalues < NULL_RTOL * max(float(self.eigenvalues[0]), 1.0)


def eigendecompose(kernel: SymmetricKernel) -> EigenSystem:
    """Full spectral decomposition of the integral operator of ``kernel``.

    Returns all p eigenpairs, eigenvalues sorted nonincreasing, with
    eigenvectors rescaled by sqrt(p) so they are orthonormal under the
    quadrature inner product.  The kernel is reconstructed exactly (to
    solver accuracy) by sum_j eigenvalue_j * v_j(u) * v_j(v).
    """
    p = kernel.grid.p
    vals, vecs = np.linalg.eigh(kernel.values / p)
    # eigh returns ascending order; flip to nonincreasing.
    vals = vals[::-1].copy()
    vecs = (vecs[:, ::-1] * math.sqrt(p)).copy()
    return EigenSystem(kernel.grid, vals, vecs)


def align_signs(system: EigenSystem, reference: EigenSystem) -> EigenSystem:
    """Flip eigenfunction signs so each overlaps nonnegatively with the
    same-rank eigenfunction of ``reference``.  Eigenvalues are unchanged."""
    if system.grid != reference.grid:
        raise DimensionMismatchError("eigensystems live on different grids")
    if system.eigenvalues.size != reference.eigenvalues.size:
        raise DimensionMismatchError("eigensystems hold different numbers of eigenpairs")
    overlaps = np.einsum("ij,ij->j", system.vectors, reference.vectors) / system.grid.p
    signs = np.where(overlaps < 0.0, -1.0, 1.0)
    return EigenSystem(system.grid, system.eigenvalues, system.vectors * signs)


@dataclass(frozen=True)
class PerturbationIndexRow:
    """Per-rank diagnostics for one eigenpair comparison.

    ``min_gap`` is the running minimum, over ranks k <= j, of the adjacent
    reference gaps kappa_k - kappa_{k+1}.  The two slacks are the amounts by
    which the eigenvalue and eigenfunction stability bounds hold (negative
    slack would mean a violated bound).
    """

    j: int  # 1-based eigenvalue rank
    min_gap: float
    eigenfunction_distance: float
    slack_eigenvalue: float
    slack_eigenfunction: float


@dataclass(frozen=True)
class PerturbationReport:
    hs_gap: float  # Hilbert-Schmidt distance between the two kernels
    max_eigen_gap: float  # sup over all ranks of |kappa_j - lambda_j|
    rows: tuple[PerturbationIndexRow, ...]


def _hs_gap(a: np.ndarray, b: np.ndarray, p: int) -> float:
    """Hilbert-Schmidt distance of two kernels given as raw arrays.

    The elementwise difference of two kernels that are each only
    tolerance-symmetric need not satisfy the SymmetricKernel invariant
    relative to its own (possibly tiny) scale, so the distance is computed
    directly.
    """
    diff = a - b
    return float(np.sqrt(np.sum(diff * diff))) / p


def perturbation_report(
    kernel: SymmetricKernel, other: SymmetricKernel, j_max: int
) -> PerturbationReport:
    """Numerically evaluate the spectral stability bounds for a kernel pair.

    ``kernel`` provides the reference spectrum (its eigenvalues must be
    distinct down to rank ``j_max``); ``other`` is the perturbed kernel.
    Eigenfunctions of ``other`` are sign-aligned to the reference before
    distances are measured.
    """
    if kernel.grid != other.grid:
        raise DimensionMismatchError("kernels live on different grids")
    p = kernel.grid.p
    if not 1 <= j_max <= p - 1:
        raise ParameterError(f"j_max must lie in [1, {p - 1}], got {j_max}")

    ref = eigendecompose(kernel)
    per = align_signs(eigendecompose(other), ref)

    gaps = ref.eigenvalues[:-1] - ref.eigenvalues[1:]
    min_gaps = np.minimum.accumulate(gaps)
    if min_gaps[j_max - 1] <= 0.0:
        raise DegenerateSpectrumError(
            f"reference spectrum tied at or before rank {j_max}"
        )

    gap = _hs_gap(kernel.values, other.values, p)
    eigen_gaps = np.abs(ref.eigenvalues - per.eigenvalues)

    rows = []
    for j in range(1, j_max + 1):
        diff = ref.vectors[:, j - 1] - per.vectors[:, j - 1]
        dist = math.sqrt(float(np.dot(diff, diff)) / p)
        rows.append(
            PerturbationIndexRow(
                j=j,
                min_gap=float(min_gaps[j - 1]),
                eigenfunction_distance=dist,
                slack_eigenvalue=gap - float(eigen_gaps[j - 1]),
                slack_eigenfunction=math.sqrt(8.0) * gap - float(min_gaps[j - 1]) * dist,
            )
        )
    return PerturbationReport(
        hs_gap=gap, max_eigen_gap=float(np.max(eigen_gaps)), rows=tuple(rows)
    )


def resolvent_identity_residual(
    kernel: SymmetricKernel, other: SymmetricKernel, j: int
) -> float:
    """Residual of the exact finite-dimensional resolvent expansion of an
    eigenfunction difference.

    With (kappa_k, phi_k) the reference eigenpairs of ``kernel`` and
    (lambda_j, psi_j) the rank-j eigenpair of ``other`` (sign-aligned), the
    difference psi_j - phi_j is reconstructed as

        sum over k != j of  phi_k * <(other - kernel) psi_j, phi_k>
                            / (lambda_j - kappa_k)
        + phi_j * <psi_j - phi_j, phi_j>

    and the quadrature L2 norm of (reconstruction - actual difference) is
    returned.  The expansion is an identity over the full discrete spectrum,
    so the residual is at rounding level whenever lambda_j is well separated
    from every kappa_k with k != j.
    """
    if kernel.grid != other.grid:
        raise DimensionMismatchError("kernels live on different grids")
    p = kernel.grid.p
    if not 1 <= j <= p:
        raise ParameterError(f"eigenpair rank must lie in [1, {p}], got {j}")

    ref = eigendecompose(kernel)
    per = align_signs(eigendecompose(other), ref)
    lam = float(per.eigenvalues[j - 1])
    psi = per.vectors[:, j - 1]
    phi = ref.vectors[:, j - 1]

    separation = np.abs(lam - ref.eigenvalues)
    separation[j - 1] = np.inf
    if float(np.min(separation)) < SEPARATION_FLOOR:
        raise DegenerateSpectrumError(
            f"lambda_{j} is within {SEPARATION_FLOOR} of another reference eigenvalue"
        )

    forced = (other.values - kernel.values) @ psi / p  # (other - kernel) psi_j
    coords = ref.vectors.T @ forced / p  # <(other - kernel) psi_j, phi_k>

    denominators = lam - ref.eigenvalues
    denominators[j - 1] = 1.0  # placeholder; this coefficient is set directly below
    coefs = coords / denominators
    coefs[j - 1] = float(np.dot(psi - phi, phi)) / p
    reconstruction = ref.vectors @ coefs

    residual = reconstruction - (psi - phi)
    return math.sqrt(float(np.dot(residual, residual)) / p)


def report_to_tsv(report: PerturbationReport) -> str:
    """Serialize a PerturbationReport as TSV, one row per eigenvalue rank."""
    lines = [
        f"# hs_gap={report.hs_gap:.17g}\tmax_eigen_gap={report.max_eigen_gap:.17g}",
        "j\tmin_gap\teigenfunction_distance\tslack_eigenvalue\tslack_eigenfunction",
    ]
    for row in report.rows:
        lines.append(
            f"{row.j}\t{row.min_gap:.17g}\t{row.eigenfunction_distance:.17g}"
            f"\t{row.slack_eigenvalue:.17g}\t{row.slack_eigenfunction:.17g}"
        )
    return "\n".join(lines) + "\n"
