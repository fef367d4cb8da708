import dataclasses
import math
import re
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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
    truth_bundle,
)
from flreg import estimators, simulation
from flreg.simulation import (
    SLOPE_DECAY, dataset_from_csv, dataset_to_csv, replication_seed, slope_coefficients,
)

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
            slope_coefficients(51) @ basis_matrix(GRID, 51)

    def test_angles_cosines_and_scale_share_the_output(self):
        # At count = p = 3000 the output takes 72 MB; a cosine or a scale
        # into a new array would add a second 72 MB.
        grid = Grid(3000)
        grid.points  # cached before the trace
        tracemalloc.start()
        try:
            B = basis_matrix(grid, 3000)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 1.5 * B.nbytes


class TestTrueSlope:
    def test_leading_coefficients(self):
        coefs = slope_coefficients(50)
        assert coefs[0] == 0.3
        assert coefs[1] == 4.0 * (-1.0) ** 3 * 2.0**-2.0 == -1.0

    def test_coefficients_decay_at_slope_decay(self):
        # SLOPE_DECAY is the beta of the minimax rate that rate-check prints.
        assert SLOPE_DECAY == 2.0
        j = np.arange(2, 51, dtype=float)
        expected = 4.0 * (-1.0) ** (j + 1.0) * j**-SLOPE_DECAY
        assert slope_coefficients(50)[1:].tobytes() == expected.tobytes()

    def test_well_spaced_cutoff_two_tail_bias(self):
        # Why acceptance criterion 5 stays red: at alpha = 2 the top two
        # eigenfunctions are basis 1 and 2, so cutoff m = 2 misses every
        # later slope coefficient, and those alone square-sum to the
        # README's 0.317, above the reference's whole squared bias of 0.139.
        truth = truth_bundle(SimConfig(n=500, sigma_eps=0.5, alpha=2.0, spacing="well_spaced"))
        assert truth.eigen_order[:2].tolist() == [0, 1]
        coefs = truth.basis @ truth.slope / GRID.p
        tail = float(np.sum(coefs[truth.eigen_order[2:]] ** 2))
        assert tail == pytest.approx(0.31713, abs=1e-5) and tail > 0.139

    def test_projection_onto_third_basis_function(self):
        b = slope_coefficients(50) @ basis_matrix(GRID, 50)
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

    def test_bundle_is_read_only_and_shared_per_design(self):
        cfg = SimConfig(n=10, sigma_eps=0.0, alpha=2.0, spacing="closely_spaced", seed=0)
        truth = truth_bundle(cfg)
        for name, arr in vars(truth).items():
            assert not arr.flags.writeable, name
        for change in ({"n": 500}, {"sigma_eps": 1.5}, {"seed": 99}):
            assert truth_bundle(dataclasses.replace(cfg, **change)) is truth
        other = truth_bundle(dataclasses.replace(cfg, alpha=1.1))
        assert other is not truth
        assert not np.array_equal(other.gamma, truth.gamma)

    @pytest.mark.parametrize("spacing", ["well_spaced", "closely_spaced"])
    def test_kernel_is_built_once_from_the_bundle(self, spacing):
        truth = truth_bundle(SimConfig(n=10, sigma_eps=0.0, alpha=2.0, spacing=spacing))
        scaled = np.abs(truth.gamma)[:, None] * truth.basis
        assert truth.kernel is truth.kernel
        assert truth.kernel.tobytes() == np.einsum("ju,jv->uv", scaled, scaled).tobytes()

    def test_drawing_data_does_not_build_the_kernel(self):
        # A design no other test builds, so its bundle is made under the
        # trace; its (p, p) kernel alone would take 72 MB.
        config = SimConfig(n=2, sigma_eps=0.5, alpha=2.0625, spacing="well_spaced",
                           n_terms=1, p=3000)
        tracemalloc.start()
        try:
            _, truth = draw_dataset(config)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 8_000_000
        assert "kernel" not in vars(truth)

    def test_basis_is_built_once(self):
        # The slope is taken on the bundle's own basis, not on a second copy,
        # and the basis is built in its own memory: at p = n_terms = 3000 each
        # copy takes 72 MB.  An alpha no other test uses, so the bundle is
        # made under the trace.
        config = SimConfig(n=2, sigma_eps=0.5, alpha=2.03125, spacing="well_spaced",
                           n_terms=3000, p=3000)
        tracemalloc.start()
        try:
            truth = truth_bundle(config)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 1.5 * truth.basis.nbytes
        reference = slope_coefficients(3000) @ basis_matrix(Grid(3000), 3000)
        assert truth.slope.tobytes() == reference.tobytes()


def reference_draw(config):
    """The draw as ``Generator.uniform`` scores: the bits ``draw_xy`` keeps."""
    truth = truth_bundle(config)
    rng = np.random.default_rng(np.random.SeedSequence(config.seed))
    scores = rng.uniform(-math.sqrt(3.0), math.sqrt(3.0), (config.n, config.n_terms))
    noise = config.sigma_eps * rng.standard_normal(config.n)
    X = scores * truth.gamma @ truth.basis
    return X, X @ truth.slope / config.p + noise


class TestDrawDataset:
    @pytest.mark.parametrize(
        "design",
        [{"spacing": spacing, "n": n} for spacing in ("well_spaced", "closely_spaced")
         for n in (2, 7, 500)] + [{"spacing": "closely_spaced", "n": 37, "n_terms": 9, "p": 20}],
    )
    def test_draw_is_the_uniform_reference_bit_for_bit(self, design):
        for seed in (0, 1, 20070810, 2**63 + 5):
            cfg = SimConfig(sigma_eps=0.5, alpha=1.5, seed=seed, **design)
            X, y = simulation.draw_xy(cfg.n, cfg.sigma_eps, cfg.seed, truth_bundle(cfg))
            ref_X, ref_y = reference_draw(cfg)
            assert X.shape == (cfg.n, cfg.p)
            assert X.tobytes() == ref_X.tobytes() and y.tobytes() == ref_y.tobytes()
            assert not X.flags.writeable and not y.flags.writeable

    def test_deterministic_given_config(self):
        cfg = SimConfig(n=20, sigma_eps=0.5, alpha=2.0, spacing="well_spaced", seed=42)
        a, _ = draw_dataset(cfg)
        b, _ = draw_dataset(cfg)
        assert np.array_equal(a.Y, b.Y)
        assert np.array_equal(a.X, b.X)

    def test_child_configs_differ(self):
        cfg = SimConfig(n=20, sigma_eps=0.5, alpha=2.0, spacing="well_spaced", seed=42)
        seeds = {replication_seed(cfg.seed, r) for r in range(100)}
        assert len(seeds) == 100
        a, _ = draw_dataset(dataclasses.replace(cfg, seed=replication_seed(cfg.seed, 0)))
        b, _ = draw_dataset(dataclasses.replace(cfg, seed=replication_seed(cfg.seed, 1)))
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
        X, Y = dataset_from_csv(dataset_to_csv(data))
        assert np.array_equal(Y, data.Y)
        assert X.shape == (5, 50)
        assert np.array_equal(X, data.X)

    def test_cells_are_17_significant_digits(self):
        rng = np.random.default_rng(6)
        X = rng.standard_normal((4, 50)) * 10.0 ** rng.integers(-300, 300, (4, 50))
        X[0, :6] = (0.1, -0.0, 5e-324, 1.7976931348623157e308, 1 / 3, 2.0**60)
        data = Dataset(X, rng.standard_normal(4))
        rows = dataset_to_csv(data).splitlines()[2:]
        assert rows == [
            ",".join(f"{v:.17g}" for v in [*x, y]) for x, y in zip(X, data.Y)
        ]

    def test_text_is_built_without_a_second_copy(self):
        data, _ = draw_dataset(SimConfig(n=2000, sigma_eps=0.5, alpha=2.0, spacing="well_spaced", seed=5))
        tracemalloc.start()
        try:
            text = dataset_to_csv(data)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        # The row strings and the joined text; appending the final newline to
        # the joined text would add a third copy.
        assert peak < 2.5 * len(text)

    def test_metadata_line_required(self):
        cfg = SimConfig(n=3, sigma_eps=0.0, alpha=2.0, spacing="well_spaced", seed=1)
        data, _ = draw_dataset(cfg)
        text = dataset_to_csv(data)
        body = "\n".join(text.splitlines()[1:])
        with pytest.raises(DataFormatError):
            dataset_from_csv(body)

    def test_column_count_and_numeric_cells_enforced(self):
        good = "# grid=midpoint p=2\nx_1,x_2,y\n1,2,3\n"
        X, Y = dataset_from_csv(good)
        assert X.shape == (1, 2) and Y[0] == 3.0
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
        # A p beyond int()'s digit limit, a p far beyond its header, and a
        # non-ASCII digit, which cells and model headers reject too.
        for text, message in (
            ("# grid=midpoint p=" + "9" * 5000 + "\nx_1,x_2,y\n1,2,3\n", "does not match"),
            ("# grid=midpoint p=20000000\nx_1,y\n1,2\n", "does not match"),
            ("# grid=midpoint p=\u0662\nx_1,x_2,y\n1,2,3\n", "metadata line"),
        ):
            with pytest.raises(DataFormatError, match=message):
                dataset_from_csv(text)

    def test_declared_p_costs_no_more_than_the_header(self):
        # The header's cell count is checked before any list of p names.
        tracemalloc.start()
        try:
            with pytest.raises(DataFormatError, match="p=1000000$"):
                dataset_from_csv("# grid=midpoint p=1000000\nx_1,x_2,y\n1,2,3\n")
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 1_000_000

    @pytest.mark.parametrize("newline", ["\n", "\r\n", "\r"])
    def test_errors_name_the_physical_line(self, newline):
        lines = ["# grid=midpoint p=2", "", "x_1,x_2,y", "", "1,2,3", "1,zap,3"]
        with pytest.raises(DataFormatError, match="^dataset CSV line 6: non-numeric cell$"):
            dataset_from_csv(newline.join(lines) + newline)
        lines[5:] = [" ", "4,5,6", "\t", "1,2"]
        with pytest.raises(DataFormatError, match="^dataset CSV line 9: expected 3 columns"):
            dataset_from_csv(newline.join(lines) + newline)
        X, Y = dataset_from_csv(newline.join(lines[:-1]) + newline)
        assert X.tolist() == [[1.0, 2.0], [4.0, 5.0]] and Y.tolist() == [3.0, 6.0]

    @pytest.mark.parametrize("header,row,y", [("x_1,x_2,y", "1,2,3", [3.0]),
                                              ("x_1,x_2", "1,2", None)])
    def test_returns_the_two_arrays(self, header, row, y):
        result = dataset_from_csv(f"# grid=midpoint p=2\n{header}\n{row}\n")
        assert isinstance(result, tuple) and len(result) == 2
        X, Y = result
        assert X.tolist() == [[1.0, 2.0]] and (None if Y is None else Y.tolist()) == y

    def test_y_column_optional_only_on_request(self):
        # A header without y gives no responses; fit, which needs them, checks
        # (tests/test_cli.py::TestFitPredict::test_fit_without_y_column_names_it).
        text = "# grid=midpoint p=2\nx_1,x_2\n1,2\n"
        X, Y = dataset_from_csv(text)
        assert Y is None and X.shape == (1, 2)
        X, Y = dataset_from_csv("# grid=midpoint p=2\nx_1,x_2,y\n")
        assert X.shape == (0, 2) and Y.shape == (0,)

    def test_line_loop_runs_only_when_the_fast_route_rejects(self, monkeypatch):
        # One np.loadtxt pass reads a valid file; each line is read alone only
        # after that pass rejects the rows, to name the first bad line.
        # Spellings that float() reads and np.loadtxt does not (digit
        # separators, non-ASCII digits) are bad cells.
        calls = []
        read_cells = estimators._read_cells
        monkeypatch.setattr(estimators, "_read_cells",
                            lambda rows: calls.append(len(rows)) or read_cells(rows))
        cfg = SimConfig(n=4, sigma_eps=0.5, alpha=2.0, spacing="well_spaced", seed=5)
        data, _ = draw_dataset(cfg)
        X, Y = dataset_from_csv(dataset_to_csv(data))
        assert calls == [4] and X.flags.c_contiguous and Y.flags.c_contiguous
        for cell in ("1_0", "\u0663", "1\u0663"):
            calls.clear()
            text = f"# grid=midpoint p=2\nx_1,x_2,y\n\n1,2,3\n4,{cell},6\n7,8,9\n"
            with pytest.raises(DataFormatError, match="^dataset CSV line 5: non-numeric cell$"):
                dataset_from_csv(text)
            assert calls == [3, 1, 1]

    @pytest.mark.parametrize("char", ["\x0b", "\x0c", "\x1c", "\x1d", "\x1e", "\x85",
                                      "\u2028", "\u2029"])
    def test_only_newlines_end_lines(self, char):
        # str.splitlines also ends a line at these characters; a data line
        # holding one is one line, here of 5 cells.
        head = "# grid=midpoint p=2\nx_1,x_2,y\n"
        with pytest.raises(DataFormatError, match="^dataset CSV line 3: expected 3 columns, got 5$"):
            dataset_from_csv(f"{head}1,2,3{char}4,5,6\n1,zap,3\n")
        # Around a cell it is whitespace, and a line of it alone is blank.
        rows = f"1{char},2,{char}3\n{char}\n4,5,6\n"
        X, Y = dataset_from_csv(head + rows)
        assert X.tolist() == [[1.0, 2.0], [4.0, 5.0]] and Y.tolist() == [3.0, 6.0]
        with pytest.raises(DataFormatError, match="^dataset CSV line 6: non-numeric cell$"):
            dataset_from_csv(head + rows + "1,zap,3\n")

    @pytest.mark.parametrize("spacing", ["well_spaced", "closely_spaced"])
    @pytest.mark.parametrize("n", [2, 5, 2000])
    def test_round_trip_is_bit_exact_under_every_line_end(self, spacing, n):
        data, _ = draw_dataset(SimConfig(n=n, sigma_eps=0.5, alpha=2.0, spacing=spacing, seed=n))
        lines = dataset_to_csv(data).split("\n")
        spaced = lines[:1] + ["", " \t"] + lines[1:3] + ["\x0c"] + lines[3:] + ["", ""]
        for newline in ("\n", "\r\n", "\r"):
            for text in (newline.join(lines), newline.join(spaced)):
                X, Y = dataset_from_csv(text)
                assert X.tobytes() == data.X.tobytes() and Y.tobytes() == data.Y.tobytes()


def _separate_digits(cell):
    return re.sub(r"(\d)(\d)", r"\1_\2", cell, count=1)


ARABIC_INDIC = str.maketrans("0123456789", "\u0660\u0661\u0662\u0663\u0664"
                                           "\u0665\u0666\u0667\u0668\u0669")
CELL_EDITS = (
    str, str, str,  # most cells stay as written
    lambda cell: "+" + cell,
    _separate_digits,
    lambda cell: cell.translate(ARABIC_INDIC),
)
CSV_CELLS = st.tuples(
    st.sampled_from(("", "", " ", "\t", " \t")),
    st.one_of(
        st.tuples(
            st.sampled_from(("%.17g", "%r")),
            st.floats(allow_nan=False, allow_infinity=False),
            st.sampled_from(CELL_EDITS),
        ).map(lambda t: t[2](t[0] % t[1])),
        st.sampled_from(("-0", "+0", "1_0", "\u0661", "nan", "-inf", "inf", "1e309",
                         "-1e309", "", "x", "1e", "0x1")),
    ),
    st.sampled_from(("", "", " ", "\t")),
).map("".join)
# Characters that str.splitlines, but not a dataset CSV, takes for line ends.
NOT_LINE_ENDS = ("\x0b", "\x0c", "\x1c", "\x85", "\u2028")


@st.composite
def dataset_csv_text(draw):
    """Dataset CSV text from random rows: cells in several spellings, rows
    short and long, rows holding a character that is not a line end, blank
    lines, and CRLF or lone-CR line ends."""
    p = draw(st.integers(2, 3))
    has_y = draw(st.booleans())
    n_cols = p + 1 if has_y else p
    width = st.sampled_from((n_cols, n_cols, n_cols, n_cols - 1, n_cols + 1))
    rows = [",".join(row) for row in draw(st.lists(
        width.flatmap(lambda k: st.lists(CSV_CELLS, min_size=k, max_size=k)), max_size=3))]
    for i, at in draw(st.lists(st.tuples(st.integers(0, 2), st.integers(0, 99)), max_size=2)):
        if i < len(rows):
            at %= len(rows[i]) + 1
            rows[i] = rows[i][:at] + draw(st.sampled_from(NOT_LINE_ENDS)) + rows[i][at:]
    header = ",".join([f"x_{i}" for i in range(1, p + 1)] + (["y"] if has_y else []))
    lines = [f"# grid=midpoint p={p}", header] + rows
    for _ in range(draw(st.integers(0, 2))):
        lines.insert(draw(st.integers(0, len(lines))),
                     draw(st.sampled_from(("", " ", "\t", "\x0c"))))
    newline = draw(st.sampled_from(("\n", "\r\n", "\r")))
    return newline.join(lines) + newline, p, has_y


def oracle_cell(cell):
    """A cell's value as np.loadtxt reads it, or None if it is not a number:
    the whitespace str.strip() removes is ignored, and what is left must be
    ASCII without digit separators and read by float()."""
    core = cell.strip()
    if not core.isascii() or "_" in core:
        return None
    try:
        return float(core)
    except ValueError:
        return None


def oracle_table(text, n_cols):
    """The data rows of dataset CSV text (with valid metadata and header
    lines) as a list of rows, or the error for its first bad line: column
    count first, then non-numeric cells, then non-finite ones."""
    lines = re.split("\r\n|\r|\n", text)
    numbered = [(no, line) for no, line in enumerate(lines, 1) if line.strip()][2:]
    table = []
    for lineno, line in numbered:
        cells = line.split(",")
        if len(cells) != n_cols:
            return None, f"dataset CSV line {lineno}: expected {n_cols} columns, got {len(cells)}"
        values = [oracle_cell(cell) for cell in cells]
        if None in values:
            return None, f"dataset CSV line {lineno}: non-numeric cell"
        if not all(map(math.isfinite, values)):
            return None, f"dataset CSV line {lineno}: non-finite cell"
        table.append(values)
    return table, None


class TestDatasetCsvFastRoute:
    @given(case=dataset_csv_text())
    @settings(max_examples=250, deadline=None)
    def test_matches_the_line_loop(self, case):
        # dataset_from_csv gives the values of an independent per-line,
        # per-cell oracle bit for bit, or its error message.
        text, p, has_y = case
        table, message = oracle_table(text, p + has_y)
        try:
            X, Y = dataset_from_csv(text)
        except DataFormatError as exc:
            assert str(exc) == message
            return
        assert message is None
        expected = np.array(table).reshape(len(table), p + has_y)
        assert X.flags.c_contiguous and X.shape == (len(table), p)
        assert X.tobytes() == np.ascontiguousarray(expected[:, :p]).tobytes()
        if has_y:
            assert Y.flags.c_contiguous
            assert Y.tobytes() == np.ascontiguousarray(expected[:, p]).tobytes()
        else:
            assert Y is None
