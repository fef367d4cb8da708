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
adjacent spectral gaps (Hall & Hosseini-Nasab 2006).  The report holds the
per-rank values as columns, one read-only (j_max,) array each.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields

import numpy as np

from .errors import DegenerateSpectrumError, DimensionMismatchError, ParameterError
from .grid import _require_symmetric

__all__ = [
    "PerturbationReport",
    "eigendecompose",
    "eigh_stack",
    "align_signs",
    "perturbation_report",
    "resolvent_identity_residual",
    "report_to_tsv",
]

# Minimum separation between lambda_j and the rest of the reference spectrum
# for the resolvent identity to be evaluated.
SEPARATION_FLOOR = 1e-8


def eigh_stack(kernels: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Operator eigenpairs of a (B, p, p) stack of finite symmetric kernels,
    from one stacked ``np.linalg.eigh`` call.

    Returns (B, p) eigenvalues, each row sorted nonincreasing, and (B, p, p)
    eigenvectors, column j of matrix b belonging to eigenvalue j of row b and
    rescaled by sqrt(p).  The stacked call decomposes each matrix exactly as
    a call on that matrix alone would, so the batch size never moves a bit.
    """
    if not np.all(np.isfinite(kernels)):
        raise ParameterError("kernel stack contains non-finite entries")
    _require_symmetric(kernels)
    p = kernels.shape[-1]
    vals, vecs = np.linalg.eigh(kernels / p)
    # eigh returns ascending order; flip to nonincreasing.
    vals = vals[:, ::-1].copy()
    vecs = vecs[:, :, ::-1] * math.sqrt(p)  # a new C-contiguous array
    return vals, vecs


def eigendecompose(kernel: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Full spectral decomposition of the integral operator of the (p, p)
    ``kernel``: ``eigh_stack`` on a batch of one.

    Returns the (p,) eigenvalues, sorted nonincreasing, and the (p, p)
    eigenvectors, column j belonging to eigenvalue j and rescaled by
    sqrt(p) so the columns are orthonormal under the quadrature inner
    product.  The kernel is reconstructed exactly (to solver accuracy) by
    sum_j eigenvalue_j * v_j(u) * v_j(v).
    """
    kernel = np.asarray(kernel, dtype=float)
    if kernel.ndim != 2 or kernel.shape[0] != kernel.shape[1]:
        raise DimensionMismatchError(f"kernel has shape {kernel.shape}, expected (p, p)")
    vals, vecs = eigh_stack(kernel[None])
    return vals[0], vecs[0]


def align_signs(vecs: np.ndarray, ref_vecs: np.ndarray) -> np.ndarray:
    """``vecs`` with each column's sign flipped so it overlaps nonnegatively
    with the same column of ``ref_vecs`` (both (p, k) eigenvector matrices
    as from ``eigendecompose``)."""
    overlaps = np.einsum("ij,ij->j", vecs, ref_vecs) / vecs.shape[0]
    return vecs * np.where(overlaps < 0.0, -1.0, 1.0)


def _spectra(kernel, other) -> tuple[np.ndarray, ...]:
    """Two (p, p) kernels as arrays, with the eigenpairs of each; the
    eigenvectors of ``other`` are sign-aligned to those of ``kernel``."""
    kernel, other = np.asarray(kernel, dtype=float), np.asarray(other, dtype=float)
    if kernel.shape != other.shape:
        raise DimensionMismatchError(f"kernels have shapes {kernel.shape} and {other.shape}")
    ref_vals, ref_vecs = eigendecompose(kernel)
    per_vals, per_vecs = eigendecompose(other)
    return kernel, other, ref_vals, ref_vecs, per_vals, align_signs(per_vecs, ref_vecs)


@dataclass(frozen=True)
class PerturbationReport:
    """Stability diagnostics for one pair of kernels.

    Each array is read-only and holds one value per eigenvalue rank, rank j
    at index j - 1.  ``min_gap`` is the running minimum, over ranks
    k <= j, of the adjacent reference gaps kappa_k - kappa_{k+1}.  The two
    slacks are the amounts by which the eigenvalue and eigenfunction
    stability bounds hold (negative slack would mean a violated bound).
    """

    hs_gap: float  # Hilbert-Schmidt distance between the two kernels
    max_eigen_gap: float  # sup over all ranks of |kappa_j - lambda_j|
    min_gap: np.ndarray  # (j_max,)
    eigenfunction_distance: np.ndarray  # (j_max,) ||psi_j - phi_j||
    slack_eigenvalue: np.ndarray  # (j_max,)
    slack_eigenfunction: np.ndarray  # (j_max,)


def perturbation_report(
    kernel: np.ndarray, other: np.ndarray, j_max: int
) -> PerturbationReport:
    """Numerically evaluate the spectral stability bounds for a pair of
    (p, p) kernels, at ranks 1..j_max.

    ``kernel`` provides the reference spectrum (its eigenvalues must be
    distinct down to rank ``j_max``, a gap of at most p * eps * max|kappa|
    being a tie); ``other`` is the perturbed kernel.
    Eigenfunctions of ``other`` are sign-aligned to the reference before
    distances are measured.
    """
    kernel, other, ref_vals, ref_vecs, per_vals, per_vecs = _spectra(kernel, other)
    p = ref_vals.size
    if not 1 <= j_max <= p - 1:
        raise ParameterError(f"j_max must lie in [1, {p - 1}], got {j_max}")

    min_gap = np.minimum.accumulate(ref_vals[:j_max] - ref_vals[1 : j_max + 1])
    if min_gap[-1] <= p * np.finfo(float).eps * np.max(np.abs(ref_vals)):
        raise DegenerateSpectrumError(f"reference spectrum tied at or before rank {j_max}")

    diff = kernel - other
    gap = float(np.sqrt(np.sum(diff * diff))) / p  # Hilbert-Schmidt distance
    eigen_gaps = np.abs(ref_vals - per_vals)
    # One dot per fresh (p,) difference: a reduction over the (p, j_max)
    # block would sum in another order and move the last bits.
    diffs = (ref_vecs[:, j] - per_vecs[:, j] for j in range(j_max))
    distance = np.sqrt(np.array([np.dot(d, d) for d in diffs]) / p)
    columns = (min_gap, distance, gap - eigen_gaps[:j_max],
               math.sqrt(8.0) * gap - min_gap * distance)
    for column in columns:
        column.setflags(write=False)
    return PerturbationReport(gap, float(np.max(eigen_gaps)), *columns)


def resolvent_identity_residual(kernel: np.ndarray, other: np.ndarray, j: int) -> float:
    """Residual of the exact finite-dimensional resolvent expansion of an
    eigenfunction difference, for a pair of (p, p) kernels.

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
    kernel, other, ref_vals, ref_vecs, per_vals, per_vecs = _spectra(kernel, other)
    p = ref_vals.size
    if not 1 <= j <= p:
        raise ParameterError(f"eigenpair rank must lie in [1, {p}], got {j}")
    lam = float(per_vals[j - 1])
    psi = per_vecs[:, j - 1]
    phi = ref_vecs[:, j - 1]

    separation = np.abs(lam - ref_vals)
    separation[j - 1] = np.inf
    if float(np.min(separation)) < SEPARATION_FLOOR:
        raise DegenerateSpectrumError(
            f"lambda_{j} is within {SEPARATION_FLOOR} of another reference eigenvalue"
        )

    forced = (other - kernel) @ psi / p  # (other - kernel) psi_j
    coords = ref_vecs.T @ forced / p  # <(other - kernel) psi_j, phi_k>

    denominators = lam - ref_vals
    denominators[j - 1] = 1.0  # placeholder; this coefficient is set directly below
    coefs = coords / denominators
    coefs[j - 1] = float(np.dot(psi - phi, phi)) / p
    reconstruction = ref_vecs @ coefs

    residual = reconstruction - (psi - phi)
    return math.sqrt(float(np.dot(residual, residual)) / p)


def report_to_tsv(report: PerturbationReport) -> str:
    """Serialize a PerturbationReport as TSV: a comment line of its scalar
    fields, then one row per eigenvalue rank j of its column fields."""
    values = {f.name: getattr(report, f.name) for f in fields(report)}
    columns = [name for name, value in values.items() if np.ndim(value) == 1]
    lines = [
        "# " + "\t".join(f"{k}={v:.17g}" for k, v in values.items() if k not in columns),
        "\t".join(["j"] + columns),
    ]
    for j, row in enumerate(zip(*(values[name].tolist() for name in columns)), start=1):
        lines.append("\t".join([str(j)] + [f"{v:.17g}" for v in row]))
    return "\n".join(lines) + "\n"
