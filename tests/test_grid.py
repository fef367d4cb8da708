import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from flreg import (
    DimensionMismatchError,
    FittedModel,
    Grid,
    ParameterError,
    eigendecompose,
    perturbation_report,
    predict,
    ridge_fit,
)
from flreg.evaluation import integrated_bias_var
from flreg.grid import SYMMETRY_RTOL, GridFunction, _require_symmetric
from flreg.simulation import basis_matrix

# Functions on the grid are (p,) arrays and kernels (p, p) arrays.  The
# package computes the quadrature inner product <f, g> = f @ g / p in
# ``predict``, squared L2 distances in ``integrated_bias_var``, the operator
# g -> (K / p) @ g in ``eigendecompose`` and ``ridge_fit``, and the
# Hilbert-Schmidt distance in ``perturbation_report``; these tests pin each.


def brute_inner(f, g, p):
    """Independent quadrature oracle: plain Python summation."""
    return sum(fv * gv for fv, gv in zip(f, g)) / p


def inner_product(f, g):
    """<f, g> as ``predict`` computes it: a model with slope f, curve g."""
    model = FittedModel(slope=f, intercept=0.0, method="ridge", parameter=1.0)
    return float(predict(model, np.asarray(g, dtype=float)[None])[0])


def l2_distance_sq(f, g):
    """||f - g||^2 as ``integrated_bias_var`` computes a squared bias."""
    [bias2], [var] = integrated_bias_var(np.asarray(f, dtype=float)[None, None], g)
    assert var == 0.0
    return float(bias2)


def hs_distance(kernel, other):
    """Hilbert-Schmidt distance as ``perturbation_report`` computes it."""
    return perturbation_report(kernel, other, 1).hs_gap


def basis(j, grid):
    return basis_matrix(grid, j)[j - 1]


def power_law_kernel(grid):
    """sum_j j^-2 phi_j phi_j, by direct summation."""
    acc = np.zeros((grid.p, grid.p))
    for j in range(1, grid.p + 1):
        v = basis(j, grid)
        acc += float(j) ** -2.0 * np.outer(v, v)
    return acc


@pytest.fixture
def grid():
    return Grid(50)


def const(grid, c=1.0):
    return np.full(grid.p, c)


class TestGridType:
    def test_points_are_interior_midpoints(self, grid):
        pts = grid.points
        assert pts[0] == pytest.approx(1 / 100)
        assert pts[-1] == pytest.approx(99 / 100)
        assert np.all(np.diff(pts) > 0)
        assert 0 < pts[0] and pts[-1] < 1
        assert not pts.flags.writeable

    def test_too_small_grid_rejected(self):
        with pytest.raises(ParameterError):
            Grid(1)

    def test_function_validation(self, grid):
        for make in (lambda v: GridFunction(grid, v),
                     lambda v: FittedModel(slope=v, intercept=0.0, method="pca", parameter=1.0)):
            with pytest.raises(DimensionMismatchError):
                make(np.zeros((49, 2)))
            with pytest.raises(ParameterError):
                make(np.full(50, np.nan))
        slope = FittedModel(slope=const(grid), intercept=0.0, method="pca", parameter=1.0).slope
        assert slope.shape == (50,) and not slope.flags.writeable

    def test_kernel_symmetry_enforced(self, grid):
        bad = np.zeros((50, 50))
        bad[0, 1] = 1.0
        with pytest.raises(ParameterError):
            eigendecompose(bad)
        with pytest.raises(ParameterError):
            perturbation_report(power_law_kernel(grid), bad, 1)
        with pytest.raises(DimensionMismatchError):
            eigendecompose(np.zeros((50, 49)))

    def test_symmetry_tolerance_outside_the_exact_route(self):
        rng = np.random.default_rng(8)
        w = rng.standard_normal((3, 50, 50))
        stack = w @ np.swapaxes(w, 1, 2)
        stack = (stack + np.swapaxes(stack, 1, 2)) / 2  # exactly symmetric
        _require_symmetric(stack)
        scale = np.max(np.abs(stack[1]))
        near = stack.copy()
        near[1, 0, 1] += 0.5 * SYMMETRY_RTOL * scale  # within tolerance, not exact
        assert not np.array_equal(near, np.swapaxes(near, 1, 2))
        _require_symmetric(near)
        far = stack.copy()
        far[1, 0, 1] += 2.0 * SYMMETRY_RTOL * scale
        with pytest.raises(ParameterError):
            _require_symmetric(far)
        with pytest.raises(ParameterError):
            _require_symmetric(far[1])


class TestInnerProduct:
    def test_constant_one(self, grid):
        assert inner_product(const(grid), const(grid)) == pytest.approx(1.0)

    def test_cosine_self_product_is_one(self, grid):
        # oracle: direct summation of 2 cos^2(pi t_i) / p
        f = math.sqrt(2.0) * np.cos(math.pi * grid.points)
        oracle = brute_inner(f, f, grid.p)
        assert abs(oracle - 1.0) < 1e-12
        assert abs(inner_product(f, f) - 1.0) < 1e-12

    def test_constant_vs_cosine_is_zero(self, grid):
        f = np.ones(grid.p)
        g = math.sqrt(2.0) * np.cos(math.pi * grid.points)
        assert abs(brute_inner(f, g, grid.p)) < 1e-12
        assert abs(inner_product(const(grid), g)) < 1e-12

    def test_grid_mismatch(self, grid):
        with pytest.raises(DimensionMismatchError):
            inner_product(const(grid), const(Grid(20)))


class TestApplyKernel:
    # An eigenpair (v_j, lambda_j) of ``eigendecompose`` satisfies
    # (K / p) @ v_j = lambda_j v_j: the operator convention.
    def test_zero_kernel(self, grid):
        vals, vecs = eigendecompose(np.zeros((50, 50)))
        assert np.all(vals == 0.0)
        assert np.all(np.zeros((50, 50)) @ vecs / grid.p == 0.0)

    def test_rank_one_projector_fixes_its_direction(self, grid):
        phi = basis(2, grid)
        vals, vecs = eigendecompose(np.outer(phi, phi))
        assert vals[0] == pytest.approx(1.0, abs=1e-12)
        np.testing.assert_allclose(np.abs(vecs[:, 0]), np.abs(phi), atol=1e-12)
        # the ridge solve applies (K / p + rho I)^-1, which scales phi by 1 / (1 + rho)
        slope = ridge_fit((np.zeros(50), 0.0, np.outer(phi, phi), phi), 0.5).slope
        np.testing.assert_allclose(slope, phi / 1.5, atol=1e-12)

    def test_true_covariance_has_cosine_eigenfunction(self, grid):
        # build sum_j j^-2 phi_j phi_j by direct summation, apply to phi_2
        acc = power_law_kernel(grid)
        vals, vecs = eigendecompose(acc)
        assert vals[1] == pytest.approx(2.0**-2.0, abs=1e-10)
        np.testing.assert_allclose(np.abs(vecs[:, 1]), np.abs(basis(2, grid)), atol=1e-10)
        np.testing.assert_allclose(acc @ vecs / grid.p, vecs * vals, atol=1e-10)


class TestNorms:
    def test_hs_norm_zero_and_constant(self, grid):
        acc = power_law_kernel(grid)
        assert hs_distance(acc, acc) == 0.0
        assert hs_distance(acc, acc + 3.0) == pytest.approx(3.0)

    def test_hs_norm_matches_eigenvalue_sum(self, grid):
        oracle = math.sqrt(sum(float(j) ** -4.0 for j in range(1, 51)))
        assert hs_distance(power_law_kernel(grid), np.zeros((50, 50))) == pytest.approx(
            oracle, abs=1e-10
        )

    def test_l2_distance_trivials(self, grid):
        f = const(grid)
        assert l2_distance_sq(f, f) == 0.0
        assert l2_distance_sq(f, const(grid, 0.0)) == pytest.approx(1.0)

    def test_l2_distance_orthonormal_pair(self, grid):
        assert l2_distance_sq(basis(2, grid), basis(3, grid)) == pytest.approx(2.0, abs=1e-10)


class TestInvariants:
    def test_basis_discrete_orthonormality(self, grid):
        # the whole family, constant plus 49 cosines
        B = basis_matrix(grid, 50)
        gram = B @ B.T / grid.p
        assert np.max(np.abs(gram - np.eye(50))) <= 1e-10

    @given(st.integers(0, 2**32 - 1))
    @settings(max_examples=25, deadline=None)
    def test_cauchy_schwarz(self, seed):
        rng = np.random.default_rng(seed)
        f = rng.standard_normal(17)
        h = rng.standard_normal(17)
        lhs = inner_product(f, h) ** 2
        rhs = l2_distance_sq(f, np.zeros(17)) * l2_distance_sq(h, np.zeros(17))
        assert lhs <= rhs + 1e-12

    @given(st.integers(0, 2**32 - 1))
    @settings(max_examples=25, deadline=None)
    def test_apply_kernel_linearity(self, seed):
        # the ridge slope is (K / p + rho I)^-1 applied to the cross-covariance
        rng = np.random.default_rng(seed)
        raw = rng.standard_normal((13, 13))

        def solve(cross):
            return ridge_fit((np.zeros(13), 0.0, raw @ raw.T, cross), 0.5).slope

        f = rng.standard_normal(13)
        h = rng.standard_normal(13)
        a, b = rng.standard_normal(2)
        combined = solve(a * f + b * h)
        separate = a * solve(f) + b * solve(h)
        np.testing.assert_allclose(combined, separate, atol=1e-12 * (1 + np.max(np.abs(separate))))

    def test_hs_norm_separates_kernels(self, grid):
        rng = np.random.default_rng(0)
        raw = rng.standard_normal((50, 50))
        a = raw + raw.T
        b = (raw + raw.T) * 1.0
        assert hs_distance(a, b) == 0.0
        assert hs_distance(a, a + 1e-6) > 0.0

    def test_l2_norm_consistency(self, grid):
        f = basis(4, grid)
        assert math.sqrt(l2_distance_sq(f, np.zeros(50))) == pytest.approx(1.0, abs=1e-12)
