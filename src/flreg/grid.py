"""Midpoint-grid representation of functions and kernels on [0, 1].

Every function in this package is discretised at the p midpoints
t_i = (2i - 1) / (2p) of [0, 1], integrated with the uniform quadrature
weight 1/p.  The midpoint rule is chosen deliberately: it makes the cosine
basis used by the simulator exactly orthonormal in the discrete inner
product, so basis error can never leak into estimator tests.

All types are immutable after construction (their arrays are marked
read-only) and all operations are pure, so values can be shared freely
across threads.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import DimensionMismatchError, ParameterError

__all__ = [
    "Grid",
    "GridFunction",
    "SymmetricKernel",
    "inner_product",
    "apply_kernel",
    "hs_norm",
    "l2_distance_sq",
    "l2_norm",
]

# Relative asymmetry allowed in a SymmetricKernel, in units of max|values|.
SYMMETRY_RTOL = 1e-12


@dataclass(frozen=True)
class Grid:
    """p equally weighted midpoints of the unit interval."""

    p: int

    def __post_init__(self) -> None:
        if self.p < 2:
            raise ParameterError(f"grid needs at least 2 points, got p={self.p}")

    @cached_property
    def points(self) -> np.ndarray:
        """Midpoints t_i = (2i - 1) / (2p), strictly inside (0, 1)."""
        pts = (2.0 * np.arange(1, self.p + 1) - 1.0) / (2.0 * self.p)
        pts.setflags(write=False)
        return pts

    @property
    def weight(self) -> float:
        """Quadrature weight shared by every point."""
        return 1.0 / self.p


def _frozen_array(values, shape: tuple[int, ...], what: str) -> np.ndarray:
    arr = np.array(values, dtype=float)
    if arr.shape != shape:
        raise DimensionMismatchError(f"{what} has shape {arr.shape}, expected {shape}")
    if not np.all(np.isfinite(arr)):
        raise ParameterError(f"{what} contains non-finite entries")
    arr.setflags(write=False)
    return arr


@dataclass(frozen=True)
class GridFunction:
    """A real function on [0, 1], sampled at the grid midpoints."""

    grid: Grid
    values: np.ndarray

    def __post_init__(self) -> None:
        arr = _frozen_array(self.values, (self.grid.p,), "GridFunction values")
        object.__setattr__(self, "values", arr)


@dataclass(frozen=True)
class SymmetricKernel:
    """A symmetric bivariate function on [0, 1]^2, sampled on the grid."""

    grid: Grid
    values: np.ndarray

    def __post_init__(self) -> None:
        p = self.grid.p
        arr = _frozen_array(self.values, (p, p), "SymmetricKernel values")
        _require_symmetric(arr)
        object.__setattr__(self, "values", arr)


def _require_symmetric(kernels: np.ndarray) -> None:
    """Raise unless every (p, p) matrix in the (..., p, p) array ``kernels``
    is symmetric to SYMMETRY_RTOL of its own largest entry."""
    scale = np.max(np.abs(kernels), axis=(-2, -1))
    asym = np.max(np.abs(kernels - np.swapaxes(kernels, -2, -1)), axis=(-2, -1))
    if np.any(asym > SYMMETRY_RTOL * scale):
        raise ParameterError("kernel is not symmetric within tolerance")


def _require_same_grid(a, b) -> None:
    if a.grid != b.grid:
        raise DimensionMismatchError(
            f"operands live on different grids (p={a.grid.p} vs p={b.grid.p})"
        )


def inner_product(f: GridFunction, g: GridFunction) -> float:
    """Quadrature approximation of the L2 inner product of f and g."""
    _require_same_grid(f, g)
    return float(np.dot(f.values, g.values)) / f.grid.p


def l2_norm(f: GridFunction) -> float:
    """Quadrature L2 norm of f."""
    return float(np.sqrt(inner_product(f, f)))


def l2_distance_sq(f: GridFunction, g: GridFunction) -> float:
    """Squared quadrature L2 distance between f and g."""
    _require_same_grid(f, g)
    diff = f.values - g.values
    return float(np.dot(diff, diff)) / f.grid.p


def apply_kernel(kernel: SymmetricKernel, f: GridFunction) -> GridFunction:
    """Apply the integral operator u -> integral of kernel(u, v) f(v) dv."""
    _require_same_grid(kernel, f)
    return GridFunction(f.grid, kernel.values @ f.values / f.grid.p)


def hs_norm(kernel: SymmetricKernel) -> float:
    """Hilbert-Schmidt norm of the kernel under the product quadrature rule."""
    return float(np.sqrt(np.sum(kernel.values**2))) / kernel.grid.p
