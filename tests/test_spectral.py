import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from flreg import (
    DegenerateSpectrumError,
    EigenSystem,
    Grid,
    GridFunction,
    SimConfig,
    SymmetricKernel,
    align_signs,
    compute_moments,
    draw_dataset,
    eigendecompose,
    hs_norm,
    inner_product,
    perturbation_report,
    resolvent_identity_residual,
    truth_bundle,
)
from flreg.spectral import report_to_tsv


def random_symmetric_kernel(grid, rng, scale=1.0):
    raw = rng.standard_normal((grid.p, grid.p)) * scale
    return SymmetricKernel(grid, raw + raw.T)


def kernel_from_spectrum(grid, eigenvalues, rng):
    """Exactly symmetric kernel with prescribed operator eigenvalues."""
    q, _ = np.linalg.qr(rng.standard_normal((grid.p, grid.p)))
    w = (q * np.sqrt(eigenvalues)).T
    return SymmetricKernel(grid, np.einsum("ji,jk->ik", w, w) * grid.p)


WELL = SimConfig(n=500, sigma_eps=0.5, alpha=2.0, spacing="well_spaced", seed=11)


class TestEigendecompose:
    def test_zero_kernel(self):
        grid = Grid(10)
        sys = eigendecompose(SymmetricKernel(grid, np.zeros((10, 10))))
        assert np.all(sys.eigenvalues == 0.0)
        assert np.all(sys.null_mask)

    def test_well_spaced_truth_recovers_power_law(self):
        sys = eigendecompose(truth_bundle(WELL).kernel)
        expected = np.arange(1, 51, dtype=float) ** -2.0
        assert np.max(np.abs(sys.eigenvalues - expected)) <= 1e-8

    def test_closely_spaced_leading_pair(self):
        cfg = SimConfig(n=10, sigma_eps=0.0, alpha=2.0, spacing="closely_spaced", seed=0)
        sys = eigendecompose(truth_bundle(cfg).kernel)
        assert sys.eigenvalues[0] == pytest.approx(1.0, abs=1e-10)
        # evaluate the design formula directly and square
        assert sys.eigenvalues[1] == pytest.approx((0.2 * (1 - 0.0002)) ** 2, abs=1e-10)

    def test_reconstruction(self):
        rng = np.random.default_rng(5)
        grid = Grid(30)
        kernel = random_symmetric_kernel(grid, rng)
        sys = eigendecompose(kernel)
        recon = np.einsum("j,uj,vj->uv", sys.eigenvalues, sys.vectors, sys.vectors)
        err = np.sqrt(np.sum((recon - kernel.values) ** 2)) / grid.p
        assert err <= 1e-8 * (1.0 + hs_norm(kernel))

    def test_eigenfunctions_orthonormal_in_quadrature(self):
        rng = np.random.default_rng(6)
        grid = Grid(25)
        sys = eigendecompose(random_symmetric_kernel(grid, rng))
        gram = sys.vectors.T @ sys.vectors / grid.p
        assert np.max(np.abs(gram - np.eye(grid.p))) <= 1e-10

    def test_parseval(self):
        rng = np.random.default_rng(7)
        grid = Grid(40)
        sys = eigendecompose(random_symmetric_kernel(grid, rng))
        f = GridFunction(grid, rng.standard_normal(grid.p))
        coords = sys.vectors.T @ f.values / grid.p
        assert np.sum(coords**2) == pytest.approx(inner_product(f, f), abs=1e-8)

    def test_empirical_covariance_is_psd(self):
        data, _ = draw_dataset(WELL)
        sys = eigendecompose(compute_moments(data).cov)
        assert np.min(sys.eigenvalues) >= -1e-10 * sys.eigenvalues[0]


class TestSignConventions:
    def test_align_to_self_is_identity(self):
        sys = eigendecompose(truth_bundle(WELL).kernel)
        aligned = align_signs(sys, sys)
        np.testing.assert_array_equal(aligned.vectors, sys.vectors)

    def test_align_flips_negated_function(self):
        sys = eigendecompose(truth_bundle(WELL).kernel)
        flipped_vecs = sys.vectors.copy()
        flipped_vecs[:, 0] *= -1.0
        candidate = align_signs(EigenSystem(sys.grid, sys.eigenvalues, flipped_vecs), sys)
        np.testing.assert_array_equal(candidate.vectors, sys.vectors)

    @given(st.integers(0, 2**32 - 1))
    @settings(max_examples=20, deadline=None)
    def test_alignment_makes_overlaps_nonnegative(self, seed):
        rng = np.random.default_rng(seed)
        grid = Grid(12)
        ref = eigendecompose(random_symmetric_kernel(grid, rng))
        per = eigendecompose(random_symmetric_kernel(grid, rng))
        aligned = align_signs(per, ref)
        overlaps = np.einsum("ij,ij->j", aligned.vectors, ref.vectors) / grid.p
        assert np.all(overlaps >= 0.0)


class TestPerturbationReport:
    def test_identical_kernels_give_zero_gaps(self):
        kernel = truth_bundle(WELL).kernel
        report = perturbation_report(kernel, kernel, 10)
        assert report.hs_gap == 0.0
        assert report.max_eigen_gap <= 1e-12
        for row in report.rows:
            assert row.slack_eigenvalue >= -1e-10
            assert row.slack_eigenfunction >= -1e-10

    def test_rank_one_shift_moves_one_eigenvalue(self):
        kernel = truth_bundle(WELL).kernel
        sys = eigendecompose(kernel)
        c = 0.01
        v = sys.vectors[:, 0]
        shifted = SymmetricKernel(kernel.grid, kernel.values + c * np.outer(v, v))
        report = perturbation_report(kernel, shifted, 10)
        assert report.max_eigen_gap == pytest.approx(c, abs=1e-8)
        assert report.hs_gap == pytest.approx(c, abs=1e-8)

    def test_bounds_hold_on_simulated_pairs(self):
        for rep in range(20):
            cfg = SimConfig(
                n=500, sigma_eps=0.5, alpha=2.0, spacing="well_spaced", seed=100 + rep
            )
            data, truth = draw_dataset(cfg)
            report = perturbation_report(truth.kernel, compute_moments(data).cov, 10)
            assert min(r.slack_eigenvalue for r in report.rows) >= -1e-8
            assert min(r.slack_eigenfunction for r in report.rows) >= -1e-8

    def test_min_gap_nonincreasing(self):
        data, truth = draw_dataset(WELL)
        report = perturbation_report(truth.kernel, compute_moments(data).cov, 15)
        gaps = [r.min_gap for r in report.rows]
        assert all(a >= b for a, b in zip(gaps, gaps[1:]))

    def test_tied_reference_spectrum_rejected(self):
        grid = Grid(10)
        rng = np.random.default_rng(1)
        tied = kernel_from_spectrum(grid, np.array([1.0] * 2 + [0.5] * 8), rng)
        with pytest.raises(DegenerateSpectrumError):
            perturbation_report(tied, tied, 5)

    def test_tsv_serialization(self):
        data, truth = draw_dataset(WELL)
        report = perturbation_report(truth.kernel, compute_moments(data).cov, 5)
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
            other = SymmetricKernel(grid, kernel.values + np.einsum("ik,jk->ij", bump, bump))
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
        ref = eigendecompose(truth.kernel)
        per = align_signs(eigendecompose(compute_moments(data).cov), ref)
        for j in range(10):
            phi = GridFunction(ref.grid, ref.vectors[:, j])
            psi = GridFunction(ref.grid, per.vectors[:, j])
            dist_sq = inner_product(
                GridFunction(ref.grid, psi.values - phi.values),
                GridFunction(ref.grid, psi.values - phi.values),
            )
            assert dist_sq == pytest.approx(
                2.0 * (1.0 - inner_product(psi, phi)), abs=1e-10
            )
