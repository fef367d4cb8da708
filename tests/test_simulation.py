import math

import numpy as np
import pytest

from flreg import (
    DataFormatError,
    Dataset,
    Grid,
    ParameterError,
    SimConfig,
    basis_matrix,
    draw_dataset,
    eigendecompose,
    gamma_sequence,
    true_slope,
    truth_bundle,
)
from flreg.simulation import dataset_from_csv, dataset_to_csv, slope_coefficients

GRID = Grid(50)


def basis(j, grid):
    """Per-row reference: the j-th basis function, constant for j = 1 and
    sqrt(2) cos((j - 1) pi t) after."""
    if j == 1:
        return np.ones(grid.p)
    return math.sqrt(2.0) * np.cos((j - 1) * math.pi * grid.points)


class TestBasis:
    def test_first_function_is_constant_one(self):
        assert np.all(basis_matrix(GRID, 1)[0] == 1.0)

    def test_second_function_vanishes_at_midpoint(self):
        # p = 25 puts t = 0.5 on the grid; cos(pi/2) = 0
        grid = Grid(25)
        values = basis_matrix(grid, 2)[1]
        assert abs(values[12]) < 1e-15

    def test_discrete_orthonormality(self):
        B = basis_matrix(GRID, 50)
        gram = B @ B.T / GRID.p
        assert np.max(np.abs(gram - np.eye(50))) <= 1e-10

    @pytest.mark.parametrize("p,count", [(2, 1), (2, 2), (7, 4), (50, 50), (101, 60)])
    def test_matrix_rows_are_the_basis_functions(self, p, count):
        grid = Grid(p)
        per_row = np.stack([basis(j, grid) for j in range(1, count + 1)])
        np.testing.assert_array_equal(basis_matrix(grid, count), per_row)

    def test_out_of_range_index(self):
        with pytest.raises(ParameterError):
            basis_matrix(GRID, 0)
        with pytest.raises(ParameterError):
            basis_matrix(GRID, 51)
        with pytest.raises(ParameterError):
            true_slope(GRID, 51)


class TestTrueSlope:
    def test_leading_coefficients(self):
        coefs = slope_coefficients(50)
        assert coefs[0] == 0.3
        assert coefs[1] == 4.0 * (-1.0) ** 3 * 2.0**-2.0 == -1.0

    def test_projection_onto_third_basis_function(self):
        b = true_slope(GRID, 50)
        assert b.shape == (50,)
        assert float(b @ basis(3, GRID)) / GRID.p == pytest.approx(4.0 / 9.0, abs=1e-10)


class TestGammaSequence:
    def test_well_spaced_second_coefficient(self):
        assert gamma_sequence("well_spaced", 2.0, 5)[1] == pytest.approx(-0.5)

    def test_closely_spaced_second_coefficient(self):
        assert gamma_sequence("closely_spaced", 2.0, 5)[1] == pytest.approx(-0.19996)

    def test_closely_spaced_first_block_start(self):
        # j = 5 is block q=1, k=0: 0.2 * (+1) * (5^-1 - 0)
        assert gamma_sequence("closely_spaced", 2.0, 5)[4] == pytest.approx(0.04)

    def test_unknown_spacing(self):
        with pytest.raises(ParameterError):
            gamma_sequence("random", 2.0, 5)


class TestTruthBundle:
    def test_kernel_reconstruction(self):
        cfg = SimConfig(n=10, sigma_eps=0.0, alpha=2.0, spacing="well_spaced", seed=0)
        truth = truth_bundle(cfg)
        B = basis_matrix(GRID, 50)
        direct = sum(
            g**2 * np.outer(B[j], B[j]) for j, g in enumerate(truth.gamma)
        )
        assert np.max(np.abs(truth.kernel - direct)) <= 1e-10
        assert np.array_equal(truth.kernel, truth.kernel.T)
        assert not truth.kernel.flags.writeable and not truth.slope.flags.writeable

    def test_well_spaced_spectrum_recovered(self):
        cfg = SimConfig(n=10, sigma_eps=0.0, alpha=2.0, spacing="well_spaced", seed=0)
        truth = truth_bundle(cfg)
        vals, _ = eigendecompose(truth.kernel)
        assert np.max(np.abs(vals - truth.eigenvalues)) <= 1e-8

    def test_closely_spaced_blocks_nearly_tied(self):
        # designed 5-blocks at sorted ranks 5-9, 10-14, ..., 45-49 (1-based);
        # within-block spread measured relative to the leading eigenvalue
        cfg = SimConfig(n=10, sigma_eps=0.0, alpha=2.0, spacing="closely_spaced", seed=0)
        kappa = truth_bundle(cfg).eigenvalues
        top = kappa[0]
        for start in range(4, 49, 5):
            block = kappa[start : start + 5]
            assert (block.max() - block.min()) / top < 1e-3

    def test_sorted_descending_with_order_map(self):
        cfg = SimConfig(n=10, sigma_eps=0.0, alpha=1.1, spacing="closely_spaced", seed=0)
        truth = truth_bundle(cfg)
        assert np.all(np.diff(truth.eigenvalues) <= 0)
        np.testing.assert_allclose(
            truth.eigenvalues, (truth.gamma**2)[truth.eigen_order]
        )


class TestDrawDataset:
    def test_deterministic_given_config(self):
        cfg = SimConfig(n=20, sigma_eps=0.5, alpha=2.0, spacing="well_spaced", seed=42)
        a, _ = draw_dataset(cfg)
        b, _ = draw_dataset(cfg)
        assert np.array_equal(a.Y, b.Y)
        assert np.array_equal(a.X, b.X)

    def test_child_configs_differ(self):
        cfg = SimConfig(n=20, sigma_eps=0.5, alpha=2.0, spacing="well_spaced", seed=42)
        seeds = {cfg.child(r).seed for r in range(100)}
        assert len(seeds) == 100
        a, _ = draw_dataset(cfg.child(0))
        b, _ = draw_dataset(cfg.child(1))
        assert not np.array_equal(a.Y, b.Y)

    def test_noiseless_response_matches_score_expansion(self):
        # recover the scores from the (orthonormal) basis projections and
        # rebuild Y by hand
        cfg = SimConfig(
            n=8, sigma_eps=0.0, alpha=2.0, spacing="well_spaced", n_terms=3, p=50, seed=4
        )
        data, truth = draw_dataset(cfg)
        coefs = slope_coefficients(3)
        for x, y in zip(data.X, data.Y):
            z_gamma = basis_matrix(GRID, 3) @ x / GRID.p
            assert y == pytest.approx(float(np.dot(z_gamma, coefs)), abs=1e-12)

    def test_score_moments_match_design(self):
        # scores are unit-variance and uncorrelated: check first and second
        # empirical moments within three standard errors
        cfg = SimConfig(
            n=10_000, sigma_eps=0.0, alpha=2.0, spacing="well_spaced", n_terms=4, p=10, seed=99
        )
        data, truth = draw_dataset(cfg)
        grid = Grid(10)
        B = basis_matrix(grid, 4)
        scores = data.X @ B.T / grid.p / truth.gamma  # (n, 4)
        n = cfg.n
        assert np.max(np.abs(scores.mean(axis=0))) < 3.0 / math.sqrt(n)
        cov = scores.T @ scores / n
        # var(Z^2) = 4/5 for uniform scores, so se(diag) = sqrt(0.8/n)
        assert np.max(np.abs(np.diag(cov) - 1.0)) < 3.0 * math.sqrt(0.8 / n)
        off = cov - np.diag(np.diag(cov))
        assert np.max(np.abs(off)) < 3.0 / math.sqrt(n)

    def test_component_variances_match_eigenvalues(self):
        cfg = SimConfig(
            n=10_000, sigma_eps=0.0, alpha=2.0, spacing="well_spaced", n_terms=4, p=10, seed=7
        )
        data, truth = draw_dataset(cfg)
        grid = Grid(10)
        B = basis_matrix(grid, 4)
        comps = data.X @ B.T / grid.p  # xi_ij = gamma_j Z_ij
        emp_var = np.mean(comps**2, axis=0)
        kappa = truth.gamma**2
        se = np.sqrt(0.8 / cfg.n) * kappa  # var(xi^2) = kappa^2 var(Z^2)
        assert np.all(np.abs(emp_var - kappa) < 3.0 * se)

    def test_config_validation(self):
        with pytest.raises(ParameterError):
            SimConfig(n=1, sigma_eps=0.5, alpha=2.0, spacing="well_spaced")
        with pytest.raises(ParameterError):
            SimConfig(n=10, sigma_eps=-0.1, alpha=2.0, spacing="well_spaced")
        with pytest.raises(ParameterError):
            SimConfig(n=10, sigma_eps=0.5, alpha=0.0, spacing="well_spaced")
        for bad in (math.nan, math.inf):
            with pytest.raises(ParameterError):
                SimConfig(n=10, sigma_eps=bad, alpha=2.0, spacing="well_spaced")
        for bad in (math.nan, math.inf, -math.inf):
            with pytest.raises(ParameterError):
                SimConfig(n=10, sigma_eps=0.5, alpha=bad, spacing="well_spaced")
        with pytest.raises(ParameterError):
            SimConfig(n=10, sigma_eps=0.5, alpha=2.0, spacing="sideways")
        with pytest.raises(ParameterError):
            SimConfig(n=10, sigma_eps=0.5, alpha=2.0, spacing="well_spaced", n_terms=51)


class TestDatasetCsv:
    def test_round_trip_is_lossless(self):
        cfg = SimConfig(n=5, sigma_eps=0.5, alpha=2.0, spacing="closely_spaced", seed=3)
        data, _ = draw_dataset(cfg)
        grid, X, Y = dataset_from_csv(dataset_to_csv(data))
        assert grid == data.grid
        assert np.array_equal(Y, data.Y)
        assert X.shape == (5, 50)
        assert np.array_equal(X, data.X)

    def test_cells_are_17_significant_digits(self):
        rng = np.random.default_rng(6)
        X = rng.standard_normal((4, 50)) * 10.0 ** rng.integers(-300, 300, (4, 50))
        X[0, :6] = (0.1, -0.0, 5e-324, 1.7976931348623157e308, 1 / 3, 2.0**60)
        data = Dataset(GRID, X, rng.standard_normal(4))
        rows = dataset_to_csv(data).splitlines()[2:]
        assert rows == [
            ",".join(f"{v:.17g}" for v in [*x, y]) for x, y in zip(X, data.Y)
        ]

    def test_metadata_line_required(self):
        cfg = SimConfig(n=3, sigma_eps=0.0, alpha=2.0, spacing="well_spaced", seed=1)
        data, _ = draw_dataset(cfg)
        text = dataset_to_csv(data)
        body = "\n".join(text.splitlines()[1:])
        with pytest.raises(DataFormatError):
            dataset_from_csv(body)

    def test_column_count_and_numeric_cells_enforced(self):
        good = "# grid=midpoint p=2\nx_1,x_2,y\n1,2,3\n"
        grid, X, Y = dataset_from_csv(good)
        assert grid.p == 2 and Y[0] == 3.0
        with pytest.raises(DataFormatError):
            dataset_from_csv("# grid=midpoint p=2\nx_1,x_2,y\n1,2\n")
        with pytest.raises(DataFormatError):
            dataset_from_csv("# grid=midpoint p=2\nx_1,x_2,y\n1,2,zap\n")
        for cell in ("nan", "inf", "-inf", "1e999"):
            with pytest.raises(DataFormatError, match="line 4: non-finite cell"):
                dataset_from_csv(f"# grid=midpoint p=2\nx_1,x_2,y\n1,2,3\n1,{cell},3\n")
            with pytest.raises(DataFormatError, match="line 3: non-finite cell"):
                dataset_from_csv(f"# grid=midpoint p=2\nx_1,x_2,y\n1,2,{cell}\n")
        with pytest.raises(DataFormatError):
            dataset_from_csv("# grid=midpoint p=2\nx_1,x_3,y\n1,2,3\n")
        for text in ("# grid=midpoint p=1\nx_1,y\n1,2\n", "# grid=midpoint p=0\ny\n1\n"):
            with pytest.raises(DataFormatError, match="p >= 2"):
                dataset_from_csv(text)

    def test_y_column_optional_only_on_request(self):
        text = "# grid=midpoint p=2\nx_1,x_2\n1,2\n"
        with pytest.raises(DataFormatError):
            dataset_from_csv(text, require_y=True)
        _, X, Y = dataset_from_csv(text, require_y=False)
        assert Y is None and X.shape == (1, 2)
        _, X, Y = dataset_from_csv("# grid=midpoint p=2\nx_1,x_2,y\n")
        assert X.shape == (0, 2) and Y.shape == (0,)
