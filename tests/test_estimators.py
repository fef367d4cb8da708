import dataclasses
import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dense_ridge import dense_ridge
from flreg import (
    DataFormatError,
    Dataset,
    DimensionMismatchError,
    FittedModel,
    Grid,
    InsufficientDataError,
    ParameterError,
    RankError,
    SimConfig,
    compute_moments,
    draw_dataset,
    eigendecompose,
    pca_fit,
    predict,
    ridge_fit,
    usable_rank,
)
from flreg import estimators
from flreg.estimators import (
    cutoff_path,
    model_from_text,
    model_to_text,
    moment_arrays,
    ridge_path,
)
from flreg.evaluation import DEFAULT_M_GRID, default_rho_grid
from flreg.simulation import basis_matrix, dataset_from_csv, dataset_to_csv, replication_seed
from flreg.spectral import eigh_stack

GRID = Grid(50)


def basis(j):
    return basis_matrix(GRID, j)[j - 1]


def l2_norm(f):
    return math.sqrt(float(np.dot(f, f)) / len(f))


def rank_one_moments(direction, cross_scale):
    """Moments whose covariance is a unit projector onto `direction`."""
    return np.zeros(50), 0.0, np.outer(direction, direction), cross_scale * direction


def random_psd_moments(seed, p=50):
    rng = np.random.default_rng(seed)
    w = rng.standard_normal((p, p))
    return np.zeros(p), 0.0, np.einsum("ik,jk->ij", w, w) / p, rng.standard_normal(p)


def stack_of_one(moments):
    """The stacked kernels' arguments for a single dataset's moments."""
    vals, vecs = eigendecompose(moments[2])
    return vals[None], vecs[None], moments[3][None]


class TestComputeMoments:
    def test_identical_observations_give_zero_moments(self):
        x = basis(3)
        data = Dataset(np.stack([x, x, x]), np.array([1.0, 1.0, 1.0]))
        _, _, cov, cross = compute_moments(data)
        # centring identical rows leaves at most 1-ulp residue
        assert math.sqrt(float(np.sum(cov**2))) / 50 <= 1e-30
        assert l2_norm(cross) <= 1e-15

    def test_two_point_hand_case(self):
        phi = basis(2)
        data = Dataset(np.stack([phi, -phi]), np.array([1.0, -1.0]))
        x_mean, y_mean, cov, cross = compute_moments(data)
        assert np.all(x_mean == 0.0) and y_mean == 0.0
        assert np.max(np.abs(cov - np.outer(phi, phi))) <= 1e-12
        np.testing.assert_allclose(cross, phi, atol=1e-12)

    def test_covariance_exactly_symmetric(self):
        data, _ = draw_dataset(
            SimConfig(n=200, sigma_eps=1.0, alpha=1.5, spacing="well_spaced", seed=3)
        )
        cov = compute_moments(data)[2]
        assert np.array_equal(cov, cov.T)

    def test_covariance_error_shrinks_like_root_n(self):
        # Monte Carlo slope check: median HS error should roughly halve
        # as n quadruples.
        errors = {}
        for n in (200, 3200):
            per_seed = []
            for seed in range(5):
                cfg = SimConfig(
                    n=n, sigma_eps=0.5, alpha=2.0, spacing="well_spaced", seed=40 + seed
                )
                data, truth = draw_dataset(cfg)
                diff = compute_moments(data)[2] - truth.kernel
                per_seed.append(np.sqrt(np.sum(diff**2)) / 50)
            errors[n] = np.median(per_seed)
        ratio = errors[3200] / errors[200]  # expect about 1/4
        assert 0.1 < ratio < 0.55

    def test_insufficient_data(self):
        with pytest.raises(InsufficientDataError):
            Dataset(basis(1)[None, :], np.array([1.0]))

    def test_dataset_matrix_is_validated_and_read_only(self):
        X = np.stack([basis(1), basis(2)])
        data = Dataset(X, np.array([1.0, 2.0]))
        assert data.n == 2 and data.X.shape == (2, 50)
        assert not data.X.flags.writeable and not data.Y.flags.writeable
        X[0, 0] = 7.0  # the dataset holds its own copy
        assert data.X[0, 0] == 1.0
        X[0, 0] = np.nan
        with pytest.raises(ParameterError):
            Dataset(X, np.array([1.0, 2.0]))
        with pytest.raises(ParameterError):
            Dataset(np.ones((2, 50)), np.array([1.0, np.inf]))
        with pytest.raises(DimensionMismatchError):
            Dataset(np.ones((2, 50)), np.ones(3))

    def test_callers_arrays_are_copied_and_frozen_fresh_arrays_kept(self):
        rng = np.random.default_rng(12)
        X, Y = rng.standard_normal((4, 50)), rng.standard_normal(4)
        data = Dataset(X, Y)
        assert not np.shares_memory(data.X, X) and not np.shares_memory(data.Y, Y)
        X[:] = 0.0
        Y[:] = 0.0
        assert np.all(data.X != 0.0) and np.all(data.Y != 0.0)
        # a read-only view of a writable array is copied too
        view = rng.standard_normal((4, 50))[:, :]
        view.setflags(write=False)
        assert not np.shares_memory(Dataset(view, Y).X, view)
        # the frozen arrays of a draw or a parsed CSV are held, not copied
        data, _ = draw_dataset(
            SimConfig(n=6, sigma_eps=0.5, alpha=2.0, spacing="well_spaced", seed=4)
        )
        assert Dataset(data.X, data.Y).X is data.X
        X, Y = dataset_from_csv(dataset_to_csv(data))
        held = Dataset(X, Y)
        assert held.X is X and held.Y is Y

    def test_dataset_is_its_two_arrays(self):
        X, Y = np.ones((3, 7)), np.arange(3.0)
        data = Dataset(X, Y)
        assert [field.name for field in dataclasses.fields(Dataset)] == ["X", "Y"]
        assert data.grid.p == X.shape[1] == 7 and data.n == 3
        with pytest.raises(ParameterError, match="at least 2 points, got p=1"):
            Dataset(np.ones((3, 1)), Y)
        with pytest.raises(DimensionMismatchError):
            Dataset(np.ones(3), Y)

    @pytest.mark.parametrize("n", [2, 3, 7, 64, 100, 501, 4097])
    def test_means_are_np_mean_bit_for_bit(self, n):
        rng = np.random.default_rng(n)
        X = rng.standard_normal((n, 50)) * 10.0 ** rng.integers(-8, 8, 50)
        Y = rng.standard_normal(n) * 1e3
        x_mean, y_mean, _, _ = moment_arrays(X, Y)
        assert x_mean.tobytes() == np.mean(X, axis=0).tobytes()
        assert y_mean == float(np.mean(Y))


class TestPcaFit:
    def test_zero_cross_covariance_gives_zero_slope(self):
        moments = rank_one_moments(basis(2), 0.0)
        model = pca_fit(moments, 1)
        assert np.all(model.slope == 0.0)

    def test_single_eigenpair_arithmetic(self):
        moments = rank_one_moments(basis(2), 0.5)
        model = pca_fit(moments, 1)
        np.testing.assert_allclose(model.slope, 0.5 * basis(2), atol=1e-10)

    def test_rank_error_names_largest_admissible_m(self):
        moments = rank_one_moments(basis(2), 0.5)
        with pytest.raises(RankError, match="largest admissible m is 1"):
            pca_fit(moments, 2)
        with pytest.raises(RankError):
            pca_fit(moments, 0)

    def test_noiseless_full_rank_fit_recovers_truth(self):
        # with no response noise the cross-covariance equals the covariance
        # applied to the true slope, so the full-rank fit is exact
        for n in (200, 2000):
            for seed in range(3):
                cfg = SimConfig(
                    n=n, sigma_eps=0.0, alpha=2.0, spacing="well_spaced", seed=70 + seed
                )
                data, truth = draw_dataset(cfg)
                model = pca_fit(compute_moments(data), 50)
                assert l2_norm(model.slope - truth.slope) ** 2 <= 1e-16

    def test_nesting_is_exact(self):
        moments = compute_moments(
            draw_dataset(
                SimConfig(n=100, sigma_eps=0.5, alpha=2.0, spacing="well_spaced", seed=9)
            )[0]
        )
        vals, vecs = eigendecompose(moments[2])
        coords = moments[3] @ vecs / GRID.p
        for m in (1, 3, 7):
            lo = pca_fit(moments, m).slope
            hi = pca_fit(moments, m + 1).slope
            coef = coords[m] / vals[m]
            np.testing.assert_array_equal(hi, lo + coef * vecs[:, m])


class TestRidgeFit:
    def test_zero_cross_covariance_gives_zero_slope(self):
        moments = rank_one_moments(basis(2), 0.0)
        assert np.all(ridge_fit(moments, 1.0).slope == 0.0)

    def test_single_eigenpair_filter_value(self):
        moments = rank_one_moments(basis(2), 1.0)
        model = ridge_fit(moments, 1.0)
        np.testing.assert_allclose(model.slope, 0.5 * basis(2), atol=1e-10)

    def test_nonpositive_rho_rejected(self):
        moments = rank_one_moments(basis(2), 1.0)
        for rho in (0.0, -1.0, math.inf, math.nan):
            with pytest.raises(ParameterError):
                ridge_fit(moments, rho)

    @pytest.mark.parametrize("rho", [1e-4, 1e-2, 1.0])
    def test_solve_and_filter_routes_agree(self, rho):
        for seed in range(10):
            moments = random_psd_moments(seed)
            via_solve = dense_ridge(moments, rho)
            via_filter = ridge_path(*stack_of_one(moments), (rho,))[0, 0]
            gap = l2_norm(via_solve - via_filter)
            assert gap <= 1e-8

    def test_small_rho_approaches_full_rank_pca(self):
        rng = np.random.default_rng(12)
        # spectrum bounded well away from zero so the limit is stable
        q, _ = np.linalg.qr(rng.standard_normal((20, 20)))
        w = (q * np.sqrt(np.linspace(1.0, 0.2, 20))).T
        cov = np.einsum("ji,jk->ik", w, w) * 20
        moments = (np.zeros(20), 0.0, cov, rng.standard_normal(20))
        vals, _ = eigendecompose(cov)
        ridge = ridge_fit(moments, 1e-10).slope
        pca = pca_fit(moments, usable_rank(vals)).slope
        assert l2_norm(ridge - pca) <= 1e-6

    def test_shrinkage_monotone_in_rho(self):
        moments = random_psd_moments(77)
        norms = [
            l2_norm(ridge_fit(moments, rho).slope)
            for rho in np.logspace(-6, 1, 15)
        ]
        assert all(a >= b - 1e-12 for a, b in zip(norms, norms[1:]))


class TestPathKernels:
    # The all-candidate kernels against the per-candidate routes: pca_fit is
    # a row of the cutoff path, and the dense solve is the ridge oracle.
    @pytest.mark.parametrize("spacing", ["well_spaced", "closely_spaced"])
    @pytest.mark.parametrize("n", [5, 60, 500])
    def test_rows_match_single_fits(self, spacing, n):
        data, _ = draw_dataset(
            SimConfig(n=n, sigma_eps=0.5, alpha=2.0, spacing=spacing, seed=40 + n)
        )
        moments = compute_moments(data)
        stack = stack_of_one(moments)
        vals = stack[0][0]
        m_max = max(DEFAULT_M_GRID)
        cut = cutoff_path(*stack, m_max)[0]
        assert len(cut) == min(m_max, usable_rank(vals))
        if n == 5:  # five centred curves span at most four directions
            assert len(cut) <= 4
        for m in DEFAULT_M_GRID:
            if m <= len(cut):
                fit = pca_fit(moments, m).slope
                np.testing.assert_array_equal(cut[m - 1], fit)
            else:
                with pytest.raises(RankError):
                    pca_fit(moments, m)

        # The filter and the dense solve are both backward stable, so they
        # agree to a small multiple of cond(cov / p + rho I) * machine epsilon.
        rhos = default_rho_grid()
        path = ridge_path(*stack, rhos)[0]
        assert path.shape == (len(rhos), GRID.p)
        for row, rho in zip(path, rhos):
            dense = dense_ridge(moments, rho)
            cond = (vals[0] + rho) / (max(vals[-1], 0.0) + rho)
            gap = np.linalg.norm(row - dense) / np.linalg.norm(dense)
            assert gap <= 32 * cond * np.finfo(float).eps
            if n >= 60:
                assert gap <= 1e-10

    @pytest.mark.parametrize("spacing", ["well_spaced", "closely_spaced"])
    def test_stack_entries_equal_stacks_of_one(self, spacing):
        # The batch a dataset is solved in must not move a bit of its
        # eigenpairs or of its cutoff and ridge paths.
        config = SimConfig(n=60, sigma_eps=0.5, alpha=2.0, spacing=spacing, seed=9)
        seeds = [replication_seed(config.seed, r) for r in range(5)]
        moments = [compute_moments(draw_dataset(dataclasses.replace(config, seed=s))[0])
                   for s in seeds]
        covs = np.stack([mo[2] for mo in moments])
        cross = np.stack([mo[3] for mo in moments])
        vals, vecs = eigh_stack(covs)
        cut = cutoff_path(vals, vecs, cross, 20)
        ridge = ridge_path(vals, vecs, cross, default_rho_grid())
        for b, mo in enumerate(moments):
            one = stack_of_one(mo)
            np.testing.assert_array_equal(vals[b], one[0][0])
            np.testing.assert_array_equal(vecs[b], one[1][0])
            np.testing.assert_array_equal(cut[b], cutoff_path(*one, cut.shape[1])[0])
            np.testing.assert_array_equal(ridge[b], ridge_path(*one, default_rho_grid())[0])

    @pytest.mark.parametrize("spacing", ["well_spaced", "closely_spaced"])
    def test_single_fits_are_rows_of_a_multi_dataset_stack(self, spacing):
        # A fit is its dataset's row of the path kernels on a stack of many
        # datasets, the shape the Monte Carlo harness solves per chunk.
        config = SimConfig(n=40, sigma_eps=0.5, alpha=2.0, spacing=spacing, seed=23)
        seeds = [replication_seed(config.seed, r) for r in range(6)]
        moments = [compute_moments(draw_dataset(dataclasses.replace(config, seed=s))[0])
                   for s in seeds]
        vals, vecs = eigh_stack(np.stack([mo[2] for mo in moments]))
        cross = np.stack([mo[3] for mo in moments])
        rhos = default_rho_grid()
        cut = cutoff_path(vals, vecs, cross, 20)
        ridge = ridge_path(vals, vecs, cross, rhos)
        for b, mo in enumerate(moments):
            for m in range(1, cut.shape[1] + 1):
                np.testing.assert_array_equal(pca_fit(mo, m).slope, cut[b, m - 1])
            for k, rho in enumerate(rhos):
                fit = ridge_fit(mo, rho).slope
                np.testing.assert_array_equal(fit, ridge_path(vals, vecs, cross, (rho,))[b, 0])
                # Several rho make the final product a gemm, not a gemv: the
                # same terms, summed in another order.
                gap = np.max(np.abs(fit - ridge[b, k]))
                assert gap <= GRID.p * np.finfo(float).eps * np.max(np.abs(fit))

    def test_ridge_path_rejects_bad_rho(self):
        moments = random_psd_moments(3)
        for rho in (0.0, -1.0, np.inf, np.nan):
            with pytest.raises(ParameterError):
                ridge_path(*stack_of_one(moments), (1e-2, rho))


class TestSignInvariance:
    @given(st.integers(0, 49), st.integers(0, 2**31 - 1))
    @settings(max_examples=15, deadline=None)
    def test_flipping_any_eigenfunction_changes_nothing(self, flip_idx, seed):
        moments = random_psd_moments(seed)
        vals, vecs, cross = stack_of_one(moments)
        flipped = vecs.copy()
        flipped[:, :, flip_idx] *= -1.0
        m = min(flip_idx + 1, usable_rank(vals[0]))
        if m >= 1:
            a = cutoff_path(vals, vecs, cross, m)[0, -1]
            b = cutoff_path(vals, flipped, cross, m)[0, -1]
            np.testing.assert_array_equal(a, pca_fit(moments, m).slope)
            assert np.max(np.abs(a - b)) <= 1e-12 * (1.0 + np.max(np.abs(a)))
        a = ridge_path(vals, vecs, cross, (0.1,))[0, 0]
        b = ridge_path(vals, flipped, cross, (0.1,))[0, 0]
        assert np.max(np.abs(a - b)) <= 1e-12 * (1.0 + np.max(np.abs(a)))


def fitted_intercept(slope, data):
    """Average of Y_i minus the fitted functional term <slope, X_i>."""
    return float(np.mean(data.Y - data.X @ slope / data.grid.p))


class TestInterceptAndPredict:
    # The fitted intercept is y_mean - <slope, x_mean>, computed from the
    # moments; each case checks it against the data-side average above.
    def test_zero_slope_intercept_is_mean_response(self):
        data, _ = draw_dataset(
            SimConfig(n=50, sigma_eps=1.0, alpha=2.0, spacing="well_spaced", seed=5)
        )
        x_mean, y_mean, cov, _ = compute_moments(data)
        model = pca_fit((x_mean, y_mean, cov, np.zeros(50)), 1)
        assert np.all(model.slope == 0.0)
        assert model.intercept == pytest.approx(float(np.mean(data.Y)))

    def test_true_slope_noiseless_recovers_zero_intercept(self):
        data, truth = draw_dataset(
            SimConfig(n=100, sigma_eps=0.0, alpha=2.0, spacing="well_spaced", seed=6)
        )
        model = pca_fit(compute_moments(data), 50)
        assert abs(fitted_intercept(truth.slope, data)) <= 1e-10
        assert abs(model.intercept) <= 1e-10

    def test_translation_equivariance(self):
        data, _ = draw_dataset(
            SimConfig(n=50, sigma_eps=0.5, alpha=2.0, spacing="well_spaced", seed=8)
        )
        shifted = Dataset(data.X, data.Y + 2.5)
        for fit in (lambda mo: pca_fit(mo, 3), lambda mo: ridge_fit(mo, 0.01)):
            base = fit(compute_moments(data))
            moved = fit(compute_moments(shifted))
            assert moved.intercept == pytest.approx(base.intercept + 2.5)
            assert moved.intercept == pytest.approx(
                fitted_intercept(moved.slope, shifted), abs=1e-10
            )

    def test_moment_path_matches_data_path(self):
        data, _ = draw_dataset(
            SimConfig(n=120, sigma_eps=0.5, alpha=1.5, spacing="well_spaced", seed=13)
        )
        moments = compute_moments(data)
        for model in (ridge_fit(moments, 0.01), pca_fit(moments, 4)):
            assert model.intercept == pytest.approx(
                fitted_intercept(model.slope, data), abs=1e-10
            )

    def test_predict_trivials(self):
        from flreg.estimators import FittedModel

        model = FittedModel(slope=np.zeros(50), intercept=1.5, method="ridge", parameter=1.0)
        np.testing.assert_array_equal(predict(model, basis(3)[None, :]), [1.5])
        model2 = FittedModel(slope=basis(2), intercept=0.0, method="pca", parameter=1.0)
        X = np.stack([3.0 * basis(2), basis(4)])
        np.testing.assert_allclose(predict(model2, X), [3.0, 0.0], atol=1e-12)
        assert predict(model2, np.empty((0, 50))).shape == (0,)

    def test_noiseless_plugin_prediction_is_exact(self):
        from flreg.estimators import FittedModel

        cfg = SimConfig(n=30, sigma_eps=0.0, alpha=2.0, spacing="well_spaced", seed=15)
        data, truth = draw_dataset(cfg)
        model = FittedModel(slope=truth.slope, intercept=0.0, method="pca", parameter=50.0)
        preds = predict(model, data.X)
        assert preds.shape == (30,)
        np.testing.assert_allclose(preds, data.Y, rtol=0.0, atol=1e-12)
        for x, y in zip(data.X, preds):
            assert y == pytest.approx(sum(b * v for b, v in zip(model.slope, x)) / GRID.p)

    def test_grid_mismatch(self):
        from flreg.estimators import FittedModel

        model = FittedModel(slope=np.zeros(50), intercept=0.0, method="ridge", parameter=1.0)
        for X in (np.zeros((3, 20)), np.zeros(50)):
            with pytest.raises(DimensionMismatchError):
                predict(model, X)


FINITE = st.floats(allow_nan=False, allow_infinity=False) | st.sampled_from(
    (5e-324, -1e-310, 2.2250738585072014e-308, 1.7976931348623157e308, -1e308, -0.0))


@st.composite
def fitted_models(draw):
    """A pca or ridge model of p in 2..60 finite slope values."""
    method = draw(st.sampled_from(("pca", "ridge")))
    if method == "pca":
        parameter = float(draw(st.integers(1, 10**6)))
    else:
        parameter = draw(st.floats(min_value=5e-324, max_value=1.7976931348623157e308))
    slope = draw(st.lists(FINITE, min_size=2, max_size=60))
    return FittedModel(slope=np.array(slope), intercept=draw(FINITE), method=method,
                       parameter=parameter)


PADDING = st.sampled_from(("", "", " ", "\t", " \t"))
HEADER_VALUES = st.one_of(
    st.tuples(
        PADDING,
        st.one_of(
            st.integers(-1, 6).flatmap(lambda k: st.sampled_from(
                (f"{k}", f"{k}.0", f"{k}e0", f"+{k}", f"{k}.", f"{10 * k}e-1"))),
            st.floats(allow_nan=False, allow_infinity=False).map(repr),
        ),
        PADDING,
    ).map("".join),
    st.sampled_from(("1_0", "\u0663", "0x2", "nan", "1e999", "", "2.5")),
)
HEADER_RANGES = {"m": lambda v: v >= 1 and v.is_integer(), "rho": lambda v: v > 0,
                 "intercept": lambda v: True, "p": lambda v: v >= 2 and v.is_integer()}


def one_finite_cell(value):
    """The value of ``value`` as a one-cell dataset CSV row, or None if it is
    not one finite cell."""
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # np.loadtxt warns on an empty row
        try:
            cells = estimators._read_cells([value])
        except ValueError:
            return None
    if cells.shape != (1, 1) or not np.isfinite(cells[0, 0]):
        return None
    return float(cells[0, 0])


class TestModelFile:
    @given(model=fitted_models(), newline=st.sampled_from(("\n", "\r\n", "\r")),
           blanks=st.lists(st.tuples(st.integers(0, 70), st.sampled_from(("", " ", "\x0c"))),
                           max_size=3))
    @settings(max_examples=200, deadline=None)
    def test_random_models_round_trip_bit_for_bit(self, model, newline, blanks):
        lines = model_to_text(model).split("\n")
        for at, blank in blanks:
            lines.insert(at % len(lines), blank)
        restored = model_from_text(newline.join(lines))
        assert restored.method == model.method
        assert np.float64(restored.parameter).tobytes() == np.float64(model.parameter).tobytes()
        assert np.float64(restored.intercept).tobytes() == np.float64(model.intercept).tobytes()
        assert restored.slope.tobytes() == model.slope.tobytes()

    @given(key=st.sampled_from(("m", "rho", "intercept", "p")), value=HEADER_VALUES)
    @settings(max_examples=300, deadline=None)
    def test_header_value_loads_exactly_when_it_is_a_cell(self, key, value):
        # A header value is accepted exactly when it is one finite dataset
        # CSV cell in range, integral for m and p; otherwise the error names
        # its line.
        cell = one_finite_cell(value)
        valid = cell is not None and HEADER_RANGES[key](cell)
        fields = {"m": "3", "rho": "0.5", "intercept": "0", "p": "2", key: value}
        p = int(cell) if key == "p" and valid and cell <= 60 else 2
        tuning = "rho" if key == "rho" else "m"
        method = "ridge" if key == "rho" else "pca"
        text = (f"method={method}\n{tuning}={fields[tuning]}\nintercept={fields['intercept']}\n"
                f"p={fields['p']}\n" + "1.5\n" * p)
        if not valid:
            line = {"m": 2, "rho": 2, "intercept": 3, "p": 4}[key]
            with pytest.raises(DataFormatError, match=f"^model file line {line}: "):
                model_from_text(text)
        elif key == "p" and p != cell:
            with pytest.raises(DataFormatError, match="^model file: expected .* slope values"):
                model_from_text(text)
        else:
            model = model_from_text(text)
            got = {"m": model.parameter, "rho": model.parameter, "intercept": model.intercept,
                   "p": model.slope.size}[key]
            assert np.float64(got).tobytes() == np.float64(cell).tobytes()


    @pytest.mark.parametrize("method,param", [("pca", 4), ("ridge", 0.037)])
    def test_round_trip_is_lossless(self, method, param):
        data, _ = draw_dataset(
            SimConfig(n=60, sigma_eps=0.5, alpha=2.0, spacing="well_spaced", seed=21)
        )
        moments = compute_moments(data)
        model = pca_fit(moments, param) if method == "pca" else ridge_fit(moments, param)
        restored = model_from_text(model_to_text(model))
        assert restored.method == model.method
        assert restored.parameter == model.parameter
        assert restored.intercept == model.intercept
        np.testing.assert_array_equal(restored.slope, model.slope)

    def test_malformed_header_rejected(self):
        from flreg import DataFormatError

        with pytest.raises(DataFormatError):
            model_from_text("method=pca\nm=1\n")
        with pytest.raises(DataFormatError):
            model_from_text("method=spline\nm=1\nintercept=0\np=2\n0\n0\n")
        with pytest.raises(DataFormatError):
            model_from_text("method=pca\nm=1\nintercept=0\np=3\n0\n0\n")
        for text in ("method=pca\nm=1\nintercept=0\np=1\n0\n",
                     "method=ridge\nrho=1\nintercept=0\np=0\n"):
            with pytest.raises(DataFormatError, match="p >= 2"):
                model_from_text(text)

    @pytest.mark.parametrize("newline", ["\r\n", "\r"])
    def test_crlf_and_lone_cr_end_lines(self, newline):
        data, _ = draw_dataset(
            SimConfig(n=30, sigma_eps=0.5, alpha=2.0, spacing="well_spaced", seed=4)
        )
        model = ridge_fit(compute_moments(data), 0.01)
        text = model_to_text(model).replace("\n", newline)
        for spaced in (text, newline + text.replace(newline, newline + " " + newline, 5)):
            restored = model_from_text(spaced)
            assert restored.intercept == model.intercept
            assert restored.slope.tobytes() == model.slope.tobytes()

    def test_only_newlines_end_lines(self):
        # str.splitlines would read "1<FF>2" as the two slope values.
        from flreg import DataFormatError

        head = "method=pca\nm=1\nintercept=0\np=2\n"
        assert model_from_text(head + "1\n\x0c2\u2028\n").slope.tolist() == [1.0, 2.0]
        for char in ("\x0b", "\x0c", "\x1c", "\x85", "\u2028"):
            with pytest.raises(DataFormatError, match="^model file line 5: non-numeric cell$"):
                model_from_text(f"{head}1{char}2\n")
        for values in ("1,2\n", "1,2\n3,4\n", "1,2\n3\n", "1_0\n2\n", "\u0661\n2\n"):
            with pytest.raises(DataFormatError):
                model_from_text(head + values)
