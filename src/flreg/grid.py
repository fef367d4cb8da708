"""The midpoint grid on [0, 1] and the check of the arrays kept on it.

Every function in this package is discretised at the p midpoints
t_i = (2i - 1) / (2p) of [0, 1], integrated with the uniform quadrature
weight 1/p.  The midpoint rule is chosen deliberately: it makes the cosine
basis used by the simulator exactly orthonormal in the discrete inner
product, so basis error can never leak into estimator tests.

A function on the grid is a (p,) float array and a kernel a (p, p) float
array, p read from their shapes.  Values the package keeps (datasets, fitted
slopes, the true slope and covariance) are read-only and shared freely across
threads; ``_frozen_array`` checks and freezes those built from input, copying
only arrays that are not already frozen and self-owned.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import DimensionMismatchError, ParameterError

__all__ = ["Grid"]


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


def _frozen_array(values, shape: tuple[int, ...], what: str) -> np.ndarray:
    """``values`` checked for shape and finiteness, as a read-only float
    array.  A float array that is already read-only and owns its memory (as
    ``draw_xy`` and ``dataset_from_csv`` return) is kept as is; anything
    else, a caller's writable array or a view included, is copied."""
    if (
        isinstance(values, np.ndarray)
        and values.dtype == float
        and values.flags.owndata
        and not values.flags.writeable
    ):
        arr = values
    else:
        arr = np.array(values, dtype=float)
    if arr.shape != shape:
        raise DimensionMismatchError(f"{what} has shape {arr.shape}, expected {shape}")
    if not np.all(np.isfinite(arr)):
        raise ParameterError(f"{what} contains non-finite entries")
    arr.setflags(write=False)
    return arr


# flreg builds no GridFunction.  The class stays only for the benchmark: its
# tracer (perfbench/spans.py) wraps __post_init__ to count constructions, and
# perfbench/test_perfbench.py constructs one.  Delete it with that counter.
@dataclass(frozen=True)
class GridFunction:
    """A real function on [0, 1], sampled at the grid midpoints."""

    grid: Grid
    values: np.ndarray

    def __post_init__(self) -> None:
        arr = _frozen_array(self.values, (self.grid.p,), "GridFunction values")
        object.__setattr__(self, "values", arr)
