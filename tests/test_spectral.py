import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from flreg import (
    DegenerateSpectrumError,
    DimensionMismatchError,
    Grid,
    SimConfig,
    align_signs,
    compute_moments,
    draw_dataset,
    eigendecompose,
    perturbation_report,
    resolvent_identity_residual,
    truth_bundle,
    usable_rank,
)
from flreg.spectral import report_to_tsv


def random_symmetric_kernel(grid, rng, scale=1.0):
    raw = rng.standard_normal((grid.p, grid.p)) * scale
    return raw + raw.T


def kernel_from_spectrum(grid, eigenvalues, rng):
    """Exactly symmetric kernel with prescribed operator eigenvalues."""
    q, _ = np.linalg.qr(rng.standard_normal((grid.p, grid.p)))
    w = (q * np.sqrt(eigenvalues)).T
    return np.einsum("ji,jk->ik", w, w) * grid.p


def cov_of(data):
    return compute_moments(data)[2]


WELL = SimConfig(n=500, sigma_eps=0.5, alpha=2.0, spacing="well_spaced", seed=11)


class TestEigendecompose:
    def test_zero_kernel(self):
        vals, vecs = eigendecompose(np.zeros((10, 10)))
        assert np.all(vals == 0.0)
        assert usable_rank(vals) == 0
        assert vecs.shape == (10, 10)

    def test_well_spaced_truth_recovers_power_law(self):
        vals, _ = eigendecompose(truth_bundle(WELL).kernel)
        expected = np.arange(1, 51, dtype=float) ** -2.0
        assert np.max(np.abs(vals - expected)) <= 1e-8

    def test_closely_spaced_leading_pair(self):
        cfg = SimConfig(n=10, sigma_eps=0.0, alpha=2.0, spacing="closely_spaced", seed=0)
        vals, _ = eigendecompose(truth_bundle(cfg).kernel)
        assert vals[0] == pytest.approx(1.0, abs=1e-10)
        # evaluate the design formula directly and square
        assert vals[1] == pytest.approx((0.2 * (1 - 0.0002)) ** 2, abs=1e-10)

    def test_reconstruction(self):
        rng = np.random.default_rng(5)
        grid = Grid(30)
        kernel = random_symmetric_kernel(grid, rng)
        vals, vecs = eigendecompose(kernel)
        recon = np.einsum("j,uj,vj->uv", vals, vecs, vecs)
        err = np.sqrt(np.sum((recon - kernel) ** 2)) / grid.p
        assert err <= 1e-8 * (1.0 + np.sqrt(np.sum(kernel**2)) / grid.p)

    def test_eigenfunctions_orthonormal_in_quadrature(self):
        rng = np.random.default_rng(6)
        grid = Grid(25)
        _, vecs = eigendecompose(random_symmetric_kernel(grid, rng))
        gram = vecs.T @ vecs / grid.p
        assert np.max(np.abs(gram - np.eye(grid.p))) <= 1e-10

    def test_parseval(self):
        rng = np.random.default_rng(7)
        grid = Grid(40)
        _, vecs = eigendecompose(random_symmetric_kernel(grid, rng))
        f = rng.standard_normal(grid.p)
        coords = vecs.T @ f / grid.p
        assert np.sum(coords**2) == pytest.approx(float(f @ f) / grid.p, abs=1e-8)

    def test_empirical_covariance_is_psd(self):
        data, _ = draw_dataset(WELL)
        vals, _ = eigendecompose(cov_of(data))
        assert np.min(vals) >= -1e-10 * vals[0]


class TestSignConventions:
    def test_align_to_self_is_identity(self):
        _, vecs = eigendecompose(truth_bundle(WELL).kernel)
        np.testing.assert_array_equal(align_signs(vecs, vecs), vecs)

    def test_align_flips_negated_function(self):
        _, vecs = eigendecompose(truth_bundle(WELL).kernel)
        flipped_vecs = vecs.copy()
        flipped_vecs[:, 0] *= -1.0
        np.testing.assert_array_equal(align_signs(flipped_vecs, vecs), vecs)

    @given(st.integers(0, 2**32 - 1))
    @settings(max_examples=20, deadline=None)
    def test_alignment_makes_overlaps_nonnegative(self, seed):
        rng = np.random.default_rng(seed)
        grid = Grid(12)
        _, ref = eigendecompose(random_symmetric_kernel(grid, rng))
        _, per = eigendecompose(random_symmetric_kernel(grid, rng))
        aligned = align_signs(per, ref)
        overlaps = np.einsum("ij,ij->j", aligned, ref) / grid.p
        assert np.all(overlaps >= 0.0)


class TestPerturbationReport:
    def test_identical_kernels_give_zero_gaps(self):
        kernel = truth_bundle(WELL).kernel
        report = perturbation_report(kernel, kernel, 10)
        assert report.hs_gap == 0.0
        assert report.max_eigen_gap <= 1e-12
        assert np.all(report.slack_eigenvalue >= -1e-10)
        assert np.all(report.slack_eigenfunction >= -1e-10)

    def test_rank_one_shift_moves_one_eigenvalue(self):
        kernel = truth_bundle(WELL).kernel
        _, vecs = eigendecompose(kernel)
        c = 0.01
        v = vecs[:, 0]
        shifted = kernel + c * np.outer(v, v)
        report = perturbation_report(kernel, shifted, 10)
        assert report.max_eigen_gap == pytest.approx(c, abs=1e-8)
        assert report.hs_gap == pytest.approx(c, abs=1e-8)

    def test_bounds_hold_on_simulated_pairs(self):
        for rep in range(20):
            cfg = SimConfig(
                n=500, sigma_eps=0.5, alpha=2.0, spacing="well_spaced", seed=100 + rep
            )
            data, truth = draw_dataset(cfg)
            report = perturbation_report(truth.kernel, cov_of(data), 10)
            assert np.min(report.slack_eigenvalue) >= -1e-8
            assert np.min(report.slack_eigenfunction) >= -1e-8

    def test_min_gap_nonincreasing(self):
        data, truth = draw_dataset(WELL)
        report = perturbation_report(truth.kernel, cov_of(data), 15)
        gaps = report.min_gap
        assert np.all(gaps[:-1] >= gaps[1:])

    @pytest.mark.parametrize("spacing", ["well_spaced", "closely_spaced"])
    def test_columns_match_the_scalar_loop_bit_for_bit(self, spacing):
        # Rank by rank as the report once computed them: a fresh (p,)
        # difference per rank, one np.dot, math.sqrt.  A vectorized distance
        # sums in another order and fails the == below.
        cfg = SimConfig(n=200, sigma_eps=0.5, alpha=2.0, spacing=spacing, seed=3)
        data, truth = draw_dataset(cfg)
        cov = cov_of(data)
        j_max = 30
        report = perturbation_report(truth.kernel, cov, j_max)
        ref_vals, ref_vecs = eigendecompose(truth.kernel)
        per_vals, per_vecs = eigendecompose(cov)
        per_vecs = align_signs(per_vecs, ref_vecs)
        p = ref_vals.size
        diff = truth.kernel - cov
        gap = float(np.sqrt(np.sum(diff * diff))) / p
        gaps = ref_vals[:-1] - ref_vals[1:]
        min_gaps = np.minimum.accumulate(gaps)
        assert report.hs_gap == gap
        assert report.max_eigen_gap == float(np.max(np.abs(ref_vals - per_vals)))
        for j in range(1, j_max + 1):
            d = ref_vecs[:, j - 1] - per_vecs[:, j - 1]
            dist = math.sqrt(float(np.dot(d, d)) / p)
            min_gap = float(min_gaps[j - 1])
            assert report.min_gap[j - 1] == min_gap
            assert report.eigenfunction_distance[j - 1] == dist
            assert report.slack_eigenvalue[j - 1] == gap - float(abs(ref_vals[j - 1] - per_vals[j - 1]))
            assert report.slack_eigenfunction[j - 1] == math.sqrt(8.0) * gap - min_gap * dist
        columns = (report.min_gap, report.eigenfunction_distance,
                   report.slack_eigenvalue, report.slack_eigenfunction)
        assert all(c.shape == (j_max,) and not c.flags.writeable for c in columns)

    def test_tied_reference_spectrum_rejected(self):
        grid = Grid(10)
        rng = np.random.default_rng(1)
        tied = kernel_from_spectrum(grid, np.array([1.0] * 2 + [0.5] * 8), rng)
        with pytest.raises(DegenerateSpectrumError):
            perturbation_report(tied, tied, 5)

    @pytest.mark.parametrize("sign", [1.0, -1.0], ids=["rank_one", "negative_rank_one"])
    def test_rounding_level_gaps_are_ties(self, sign):
        # All eigenvalues but one are zero up to rounding, so the gap at rank
        # 2 (and at rank 1 of the negated kernel) is ~1e-17, between arbitrary
        # null-space eigenvectors.  The negated kernel's largest eigenvalue is
        # itself noise: only a tolerance scaled by max|kappa| rejects it.
        phi = np.random.default_rng(0).standard_normal(50)
        kernel = sign * np.outer(phi, phi)
        with pytest.raises(DegenerateSpectrumError, match="tied at or before rank 2"):
            perturbation_report(kernel, kernel, 2)

    def test_kernels_must_be_square_and_alike(self):
        kernel = truth_bundle(WELL).kernel
        pairs = ((kernel, kernel[:9, :9]), (kernel[0], kernel[0]), (kernel[:, :9], kernel[:, :9]))
        for a, b in pairs:
            with pytest.raises(DimensionMismatchError):
                perturbation_report(a, b, 5)
            with pytest.raises(DimensionMismatchError):
                resolvent_identity_residual(a, b, 1)

    def test_tsv_serialization(self):
        data, truth = draw_dataset(WELL)
        report = perturbation_report(truth.kernel, cov_of(data), 5)
        text = report_to_tsv(report)
        lines = text.strip().split("\n")
        assert lines[0].startswith("# hs_gap=")
        assert lines[1].split("\t")[0] == "j"
        assert len(lines) == 2 + 5


class TestResolventIdentity:
    def test_identical_kernels(self):
        grid = Grid(20)
        rng = np.random.default_rng(2)
        kernel = kernel_from_spectrum(grid, np.linspace(2.0, 0.5, 20), rng)
        assert resolvent_identity_residual(kernel, kernel, 3) <= 1e-12

    def test_exact_in_finite_dimensions(self):
        grid = Grid(20)
        for rep in range(10):
            rng = np.random.default_rng(200 + rep)
            kernel = kernel_from_spectrum(grid, np.linspace(2.0, 0.5, 20), rng)
            bump = rng.standard_normal((20, 20)) * 1e-3
            other = kernel + np.einsum("ik,jk->ij", bump, bump)
            j = int(rng.integers(1, 21))
            assert resolvent_identity_residual(kernel, other, j) <= 1e-6

    def test_near_degeneracy_rejected(self):
        grid = Grid(10)
        rng = np.random.default_rng(3)
        vals = np.linspace(1.0, 0.1, 10)
        vals[4] = vals[3] - 1e-12  # nearly tied pair
        kernel = kernel_from_spectrum(grid, vals, rng)
        with pytest.raises(DegenerateSpectrumError):
            resolvent_identity_residual(kernel, kernel, 4)

    def test_pythagoras_for_unit_eigenfunctions(self):
        data, truth = draw_dataset(WELL)
        _, ref = eigendecompose(truth.kernel)
        per = align_signs(eigendecompose(cov_of(data))[1], ref)
        p = WELL.p
        for j in range(10):
            phi, psi = ref[:, j], per[:, j]
            dist_sq = float((psi - phi) @ (psi - phi)) / p
            assert dist_sq == pytest.approx(2.0 * (1.0 - float(psi @ phi) / p), abs=1e-10)
