import dataclasses
import math
import os
import statistics
import subprocess
import sys
import threading
import tracemalloc
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

from dense_ridge import dense_ridge
import flreg
from flreg import (
    McResult,
    ParameterError,
    RankError,
    SimConfig,
    compute_moments,
    draw_dataset,
    mc_run,
    pca_fit,
    rate_fit,
)
from flreg import evaluation
from flreg.evaluation import (
    DEFAULT_M_GRID,
    _replication_moments,
    default_rho_grid,
    emit_profile,
    TABLE_COLUMNS,
    emit_table,
    integrated_bias_var,
    theoretical_rate_slope,
)
from flreg.simulation import replication_seed, truth_bundle
from flreg.spectral import eigh_stack

SMALL = SimConfig(n=60, sigma_eps=0.5, alpha=2.0, spacing="well_spaced", seed=17)


def parse_table(text: str) -> list[dict]:
    """Parse a TSV table produced by ``emit_table`` back into row dicts."""
    lines = [line for line in text.splitlines() if line.strip() and not line.startswith("#")]
    assert tuple(lines[0].split("\t")) == TABLE_COLUMNS
    rows = []
    for line in lines[1:]:
        fields = line.split("\t")
        assert len(fields) == len(TABLE_COLUMNS)
        row = dict(zip(TABLE_COLUMNS, (float(f) for f in fields)))
        row["n"] = int(row["n"])
        row["m"] = int(row["m"])
        rows.append(row)
    return rows


@pytest.fixture(scope="module")
def small_result():
    return mc_run(SMALL, 12, m_grid=(1, 2, 3, 4), rho_grid=(1e-3, 1e-2, 1e-1))


class TestIntegratedBiasVar:
    def test_duplicated_estimates_have_zero_variance(self):
        rng = np.random.default_rng(0)
        est = rng.standard_normal(50)
        stack = np.stack([est, est])
        [bias2], [var] = integrated_bias_var(stack[None], np.zeros(50))
        assert var == 0.0
        assert bias2 == pytest.approx(float(np.mean(est**2)))

    def test_stack_keeps_each_candidates_reduction_order(self):
        # Reference: one (R, p) candidate at a time, reduced whole.
        rng = np.random.default_rng(4)
        stack, target = rng.standard_normal((7, 150, 50)), rng.standard_normal(50)
        bias2, var = integrated_bias_var(stack, target)
        for c, estimates in enumerate(stack):
            mean = np.mean(estimates, axis=0)
            assert bias2[c] == float(np.sum((mean - target) ** 2)) / 50
            assert var[c] == float(np.sum((estimates - mean) ** 2)) / (150 * 50)

    def test_identity_holds_by_construction(self, small_result):
        for profile, bias2, var, mise in (
            (small_result.m_profile, small_result.bias2_pca, small_result.var_pca, small_result.mise_pca),
            (small_result.rho_profile, small_result.bias2_ridge, small_result.var_ridge, small_result.mise_ridge),
        ):
            assert abs(mise - (bias2 + var)) <= 1e-10 * (1.0 + mise)
            assert all(m >= 0 for _, m in profile)


class TestMcResult:
    @pytest.mark.parametrize("changes", [
        {"bias2_pca": math.nan},
        {"var_ridge": math.inf},
        {"var_pca": -1e-12},
        {"rho_profile": ((1e-2, 0.5), (1e-1, math.inf))},
    ], ids=["nan_component", "inf_component", "negative_component", "inf_profile_entry"])
    def test_negative_or_non_finite_errors_are_rejected(self, small_result, changes):
        with pytest.raises(ParameterError, match=r"^Monte Carlo errors for n=60 alpha=2 sigma_eps=0.5 "):
            dataclasses.replace(small_result, **changes)


class TestMcRun:
    def test_minimizers_match_profiles(self, small_result):
        m_prof = dict(small_result.m_profile)
        rho_prof = dict(small_result.rho_profile)
        assert m_prof[small_result.m_star] == min(m_prof.values())
        assert rho_prof[small_result.rho_star] == min(rho_prof.values())
        assert small_result.mise_pca == m_prof[small_result.m_star]
        assert small_result.mise_ridge == rho_prof[small_result.rho_star]

    def test_thread_count_does_not_change_bits(self):
        a = mc_run(SMALL, 8, m_grid=(1, 2, 3), rho_grid=(1e-2, 1e-1), threads=1)
        b = mc_run(SMALL, 8, m_grid=(1, 2, 3), rho_grid=(1e-2, 1e-1), threads=4)
        assert a.m_profile == b.m_profile
        assert a.rho_profile == b.rho_profile
        assert (a.m_star, a.rho_star) == (b.m_star, b.rho_star)
        assert (a.mise_pca, a.mise_ridge) == (b.mise_pca, b.mise_ridge)

    def test_scoring_makes_no_stack_sized_copies(self):
        # The (20, R, p) cutoff and (25, R, p) ridge stacks are 36 MB at
        # R = 2000; a squared-deviation temporary of the whole ridge stack
        # alone would lift the traced peak past 1.5 times that.
        config = SimConfig(n=40, sigma_eps=0.5, alpha=2.0, spacing="well_spaced", seed=0)
        replications = 2000
        stacks = (20 + 25) * replications * config.p * 8
        tracemalloc.start()
        try:
            result = mc_run(config, replications, threads=1)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert result.excluded_m == ()
        assert peak < 1.5 * stacks

    def test_sparse_grid_keeps_only_its_candidates(self):
        # m_grid=(20,) needs a (1, R, p) cutoff stack beside the (25, R, p)
        # ridge stack, 21 MB at R = 2000; keeping rows 1..20 would add 15 MB.
        config = SimConfig(n=40, sigma_eps=0.5, alpha=2.0, spacing="well_spaced", seed=0)
        replications = 2000
        stacks = (1 + 25) * replications * config.p * 8
        tracemalloc.start()
        try:
            result = mc_run(config, replications, m_grid=(20,), threads=1)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert result.m_star == 20
        assert peak < 1.5 * stacks

    @pytest.mark.parametrize("threads", [1, 2])
    def test_sparse_grid_profile_matches_full_grid(self, threads):
        # 70 replications span two chunks of at most 64.
        full = dict(mc_run(SMALL, 70, rho_grid=(1e-2,), threads=1).m_profile)
        sparse = mc_run(SMALL, 70, m_grid=(5, 20), rho_grid=(1e-2,), threads=threads)
        assert sparse.excluded_m == ()
        assert sparse.m_profile == ((5, full[5]), (20, full[20]))

    def test_rank_failures_are_excluded_and_reported(self):
        # n = 5 caps the covariance rank at 4, so m = 10 must fail
        tiny = SimConfig(n=5, sigma_eps=0.5, alpha=2.0, spacing="well_spaced", seed=2)
        result = mc_run(tiny, 4, m_grid=(1, 2, 10), rho_grid=(1e-2,))
        assert 10 in result.excluded_m
        assert all(m != 10 for m, _ in result.m_profile)

    def test_everything_excluded_raises(self):
        tiny = SimConfig(n=5, sigma_eps=0.5, alpha=2.0, spacing="well_spaced", seed=2)
        with pytest.raises(ParameterError):
            mc_run(tiny, 4, m_grid=(10, 12), rho_grid=(1e-2,))

    def test_precondition_errors(self):
        with pytest.raises(ParameterError):
            mc_run(SMALL, 1)
        with pytest.raises(ParameterError):
            mc_run(SMALL, 4, m_grid=())
        with pytest.raises(ParameterError):
            mc_run(SMALL, 4, m_grid=(0, 1))
        for rho in (0.0, -0.1, math.inf, math.nan):
            with pytest.raises(ParameterError):
                mc_run(SMALL, 4, rho_grid=(1e-2, rho))
        with pytest.raises(ParameterError):  # empty is not "use the default"
            mc_run(SMALL, 4, m_grid=(1,), rho_grid=())
        with pytest.raises(ParameterError):
            mc_run(SMALL, 4, threads=0)

    def test_replication_moments_are_the_datasets_moments(self):
        config = SimConfig(n=30, sigma_eps=0.5, alpha=2.0, spacing="closely_spaced", seed=11)
        reps = range(61, 67)
        covs, cross = _replication_moments(config, truth_bundle(config), reps)
        for b, r in enumerate(reps):
            replication = dataclasses.replace(config, seed=replication_seed(config.seed, r))
            _, _, cov, cross_cov = compute_moments(draw_dataset(replication)[0])
            np.testing.assert_array_equal(covs[b], cov)
            np.testing.assert_array_equal(cross[b], cross_cov)

    def test_chunking_and_threads_do_not_change_bytes(self, monkeypatch):
        # R = 150 is three chunks of at most 64; the bytes must not depend on
        # the thread count or on where the chunk boundaries fall.
        config = SimConfig(n=15, sigma_eps=0.5, alpha=2.0, spacing="well_spaced", seed=8)

        def text(threads):
            result = mc_run(config, 150, threads=threads)
            return emit_table([result]) + emit_profile([result])

        reference = text(1)
        # fifteen centred curves span at most fourteen directions
        assert "# excluded m: 15,16,17,18,19,20\n" in reference
        for threads in (2, 3):
            assert text(threads) == reference
        for chunk in (1, 7, 150):
            monkeypatch.setattr(evaluation, "CHUNK", chunk)
            assert text(2) == reference

    def test_blas_pin_is_found_where_numpy_links_scipy_openblas(self):
        # A lookup that silently finds nothing would turn the pin off and skip
        # the pin tests below, so it must succeed wherever numpy says it links
        # scipy-openblas.
        try:
            blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]["name"]
        except (TypeError, KeyError):  # numpy < 1.26 has no build-config dicts
            pytest.skip("numpy does not report its BLAS")
        if blas != "scipy-openblas":
            pytest.skip(f"numpy links {blas}, not scipy-openblas")
        assert evaluation._openblas_threads() is not None
        # The count is the one numpy's OpenBLAS read from the environment.
        src = os.path.dirname(os.path.dirname(os.path.abspath(flreg.__file__)))
        code = "from flreg import evaluation; print(evaluation._openblas_threads()[0]())"
        result = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                                env=dict(os.environ, PYTHONPATH=src, OPENBLAS_NUM_THREADS="1"),
                                check=True, timeout=120)
        assert result.stdout == "1\n"

    def test_blas_held_at_one_thread_in_the_pool_and_restored(self, monkeypatch):
        calls = evaluation._openblas_threads()
        if calls is None:
            pytest.skip("numpy's bundled OpenBLAS is not loaded")
        get, set_ = calls
        seen = []

        def eigh_recording(covs):
            seen.append(get())
            return eigh_stack(covs)

        monkeypatch.setattr(evaluation, "eigh_stack", eigh_recording)
        config = SimConfig(n=15, sigma_eps=0.5, alpha=2.0, spacing="well_spaced", seed=8)
        before = get()
        set_(2)
        try:
            unpinned = get()
            mc_run(config, 150, threads=2)  # three chunks on a pool of two
            assert seen == [1, 1, 1]
            assert get() == unpinned
            mc_run(config, 150, threads=1)  # no pool, nothing to hold
            assert seen[3:] == [unpinned] * 3
        finally:
            set_(before)

    def test_overlapping_blas_pins_restore_the_first_count(self):
        calls = evaluation._openblas_threads()
        if calls is None:
            pytest.skip("numpy's bundled OpenBLAS is not loaded")
        get, set_ = calls
        before = get()
        set_(2)
        try:
            first, second = evaluation._one_blas_thread(), evaluation._one_blas_thread()
            first.__enter__()
            second.__enter__()
            assert get() == 1
            first.__exit__(None, None, None)  # the first holder leaves first
            assert get() == 1
            second.__exit__(None, None, None)
            assert get() == 2
        finally:
            set_(before)

    def test_concurrent_mc_runs_leave_the_blas_count_as_found(self, monkeypatch):
        calls = evaluation._openblas_threads()
        if calls is None:
            pytest.skip("numpy's bundled OpenBLAS is not loaded")
        get, set_ = calls
        # Chunks meet in pairs, so some chunk of one call runs while the
        # other call holds the pin: the two pins overlap.
        barrier = threading.Barrier(2)

        def eigh_meeting(covs):
            barrier.wait(timeout=30)
            return eigh_stack(covs)

        monkeypatch.setattr(evaluation, "eigh_stack", eigh_meeting)
        config = SimConfig(n=15, sigma_eps=0.5, alpha=2.0, spacing="well_spaced", seed=8)
        before = get()
        set_(2)
        try:
            with ThreadPoolExecutor(2) as pool:
                runs = [pool.submit(mc_run, config, 150, threads=2) for _ in range(2)]
                tables = [emit_table([run.result(timeout=60)]) for run in runs]
            assert get() == 2
            assert tables[0] == tables[1]
        finally:
            set_(before)

    def test_blas_pin_stress(self):
        calls = evaluation._openblas_threads()
        if calls is None:
            pytest.skip("numpy's bundled OpenBLAS is not loaded")
        get, set_ = calls
        before, interval = get(), sys.getswitchinterval()
        unpinned = []

        def hold_often():
            for _ in range(300):
                with evaluation._one_blas_thread():
                    if get() != 1:
                        unpinned.append(get())

        set_(2)
        sys.setswitchinterval(1e-6)
        try:
            workers = [threading.Thread(target=hold_often) for _ in range(6)]
            for worker in workers:
                worker.start()
            for worker in workers:
                worker.join(timeout=30)
            assert not any(worker.is_alive() for worker in workers)
            assert unpinned == [] and get() == 2
        finally:
            sys.setswitchinterval(interval)
            set_(before)

    @pytest.mark.parametrize("spacing", ["well_spaced", "closely_spaced"])
    @pytest.mark.parametrize("seed,n", [(1, 20), (2, 60), (3, 100)])
    def test_matches_per_candidate_fits(self, spacing, seed, n):
        # Reference: one pca_fit per cutoff and one dense ridge solve per rho
        # in every replication, reduced in replication order; ties go to the
        # smaller m and the larger rho.
        config = SimConfig(n=n, sigma_eps=0.5, alpha=2.0, spacing=spacing, seed=seed)
        reps, rhos = 6, default_rho_grid()
        pca = {m: [] for m in DEFAULT_M_GRID}
        ridge = {rho: [] for rho in rhos}
        excluded = set()
        for r in range(reps):
            replication = dataclasses.replace(config, seed=replication_seed(config.seed, r))
            moments = compute_moments(draw_dataset(replication)[0])
            for m in DEFAULT_M_GRID:
                try:
                    pca[m].append(pca_fit(moments, m).slope)
                except RankError:
                    excluded.add(m)
            for rho in rhos:
                ridge[rho].append(dense_ridge(moments, rho))
        target = draw_dataset(config)[1].slope

        def mise(slopes):
            [bias2], [var] = integrated_bias_var(np.stack(slopes)[None], target)
            return bias2 + var

        m_profile = {m: mise(v) for m, v in pca.items() if m not in excluded}
        rho_profile = {rho: mise(v) for rho, v in ridge.items()}

        result = mc_run(config, reps, threads=2)
        assert result.excluded_m == tuple(sorted(excluded))
        assert result.m_star == min(m_profile, key=lambda m: (m_profile[m], m))
        assert result.rho_star == min(rho_profile, key=lambda rho: (rho_profile[rho], -rho))
        for got, want in ((result.m_profile, m_profile), (result.rho_profile, rho_profile)):
            assert [c for c, _ in got] == list(want)
            for c, value in got:
                assert value == pytest.approx(want[c], rel=1e-9)
        if n == 20:  # twenty centred curves span at most nineteen directions
            assert 20 in result.excluded_m

    @pytest.mark.parametrize("n,m_star", [(100, 1), (500, 5)])
    def test_restricted_cutoff_grid_reproduces_reference_closely_spaced_cells(
        self, n, m_star
    ):
        # README "Benchmark notes", criterion 6: on the cutoff grid
        # {1, 5, 10, 15, 20} the oracle picks the reference optima and ridge
        # beats the cutoff estimator.  Criterion 6 itself keeps the full grid.
        cfg = SimConfig(n=n, sigma_eps=0.5, alpha=2.0, spacing="closely_spaced", seed=7)
        result = mc_run(cfg, 200, m_grid=(1, 5, 10, 15, 20), threads=2)
        assert result.m_star == m_star
        assert result.mise_ridge < result.mise_pca


class TestOracleTune:
    def test_singleton_rho_grid_is_returned(self):
        result = mc_run(SMALL, 6, m_grid=(1, 2), rho_grid=(0.07,))
        assert result.rho_star == 0.07
        assert result.m_star in (1, 2)

    def test_tie_breaking(self, monkeypatch):
        # Tied MISE goes to the smallest valid m and the largest rho; n = 5
        # caps the usable rank at 4, so m = 10 is excluded.  The cutoff stack
        # is scored first and holds the valid grid m = 2, 3, 4.
        tiny = SimConfig(n=5, sigma_eps=0.5, alpha=2.0, spacing="well_spaced", seed=2)
        for cut_pattern, ridge_pattern, m_star, rho_star in (
            ((1.0, 1.0, 1.0), (1.0, 1.0, 1.0, 1.0), 2, 1.0),  # all tied
            ((3.0, 1.0, 1.0), (3.0, 1.0, 1.0, 2.0), 3, 0.1),  # tied at two inner candidates
        ):
            def tied(estimates, target, patterns=iter((cut_pattern, ridge_pattern))):
                mise = np.array(next(patterns))
                assert len(estimates) == len(mise)
                return mise / 2, mise / 2

            monkeypatch.setattr(evaluation, "integrated_bias_var", tied)
            result = mc_run(tiny, 4, m_grid=(2, 3, 4, 10), rho_grid=(1e-3, 1e-2, 1e-1, 1.0))
            assert result.excluded_m == (10,)
            assert (result.m_star, result.rho_star) == (m_star, rho_star)

    def test_cutoff_grows_with_sample_size(self):
        # oracle cutoff should not shrink when n grows 100 -> 500
        medians = {}
        for n in (100, 500):
            picks = []
            for rerun in range(3):
                cfg = SimConfig(
                    n=n, sigma_eps=0.5, alpha=2.0, spacing="well_spaced", seed=300 + rerun
                )
                picks.append(mc_run(cfg, 40, rho_grid=(1e-2,)).m_star)
            medians[n] = statistics.median(picks)
        assert medians[500] >= medians[100]


class TestRateFit:
    def test_theoretical_slopes(self):
        assert theoretical_rate_slope(2.0, 2.0) == pytest.approx(-0.5)
        assert theoretical_rate_slope(1.1, 2.0) == pytest.approx(-3.0 / 5.1)

    def test_exact_power_law_is_recovered(self, small_result):
        sizes = (100, 200, 400)
        fake = []
        for n in sizes:
            mise = 3.0 * n**-0.5
            bias2 = mise / 2
            fake.append(
                McResult(
                    config=SMALL,
                    replications=2,
                    m_star=1,
                    rho_star=0.1,
                    bias2_pca=bias2,
                    bias2_ridge=bias2,
                    var_pca=mise - bias2,
                    var_ridge=mise - bias2,
                    m_profile=((1, mise),),
                    rho_profile=((0.1, mise),),
                )
            )
        fit = rate_fit(2.0, 2.0, sizes, fake, estimator="pca")
        assert fit.fitted_slope == pytest.approx(-0.5, abs=1e-12)
        assert fit.theoretical_slope == pytest.approx(-0.5)

    def test_preconditions(self, small_result):
        with pytest.raises(ParameterError):
            rate_fit(2.0, 2.0, (100, 200), [small_result, small_result])
        with pytest.raises(ParameterError):
            rate_fit(2.0, 2.0, (100, 100, 200), [small_result] * 3)
        with pytest.raises(ParameterError):
            rate_fit(2.0, 2.0, (100, 200, 400), [small_result] * 3, estimator="spline")
        # the minimax exponent -(2 beta - 1) / (alpha + 2 beta) must be a decay
        for alpha, beta in ((2.0, math.nan), (2.0, 0.4), (2.0, 0.5), (2.0, math.inf),
                            (0.0, 2.0), (-1.0, 2.0), (math.nan, 2.0), (math.inf, 2.0)):
            with pytest.raises(ParameterError):
                rate_fit(alpha, beta, (100, 200, 400), [small_result] * 3)


class TestTableSerialization:
    def test_empty_list_is_header_only(self):
        assert emit_table([]) == "\t".join(
            (
                "sigma_eps", "n", "alpha", "m", "rho",
                "bias2_pca", "bias2_ridge", "var_pca", "var_ridge",
                "mise_pca", "mise_ridge",
            )
        ) + "\n"

    def test_single_result_row(self, small_result):
        text = emit_table([small_result])
        lines = text.strip().split("\n")
        assert len(lines) == 2
        assert len(lines[1].split("\t")) == 11

    def test_round_trip_to_printed_precision(self, small_result):
        rows = parse_table(emit_table([small_result]))
        assert len(rows) == 1
        row = rows[0]
        assert row["n"] == small_result.config.n
        assert row["m"] == small_result.m_star
        assert row["rho"] == small_result.rho_star
        assert row["mise_pca"] == small_result.mise_pca
        assert row["mise_ridge"] == small_result.mise_ridge

    def test_mixed_spacing_rejected(self, small_result):
        other = mc_run(
            SimConfig(n=60, sigma_eps=0.5, alpha=2.0, spacing="closely_spaced", seed=17),
            4,
            m_grid=(1, 2),
            rho_grid=(1e-2,),
        )
        with pytest.raises(ParameterError):
            emit_table([small_result, other])
        # Mixed spacing is rejected before an unknown format.
        with pytest.raises(ParameterError, match="mix spacing"):
            emit_table([small_result, other], fmt="csv")
        with pytest.raises(ParameterError, match="unknown table format 'csv'"):
            emit_table([small_result], fmt="csv")

    def test_bytes_of_both_formats_are_pinned(self):
        cfg = SimConfig(n=100, sigma_eps=0.5, alpha=2.0, spacing="well_spaced", seed=7)
        result = McResult(
            config=cfg, replications=10, m_star=4, rho_star=0.1,
            bias2_pca=1 / 3, bias2_ridge=0.25, var_pca=1 / 3, var_ridge=0.5,
            m_profile=((4, 2 / 3),), rho_profile=((0.1, 0.75),),
        )
        assert emit_table([result]) == (
            "sigma_eps\tn\talpha\tm\trho\tbias2_pca\tbias2_ridge\tvar_pca\tvar_ridge"
            "\tmise_pca\tmise_ridge\n"
            "0.5\t100\t2\t4\t0.10000000000000001\t0.33333333333333331\t0.25"
            "\t0.33333333333333331\t0.5\t0.66666666666666663\t0.75\n"
        )
        assert emit_table([result], fmt="text") == (
            "sigma_eps    n  alpha  m  rho  bias2_pca  bias2_ridge  var_pca  var_ridge"
            "  mise_pca  mise_ridge\n"
            "      0.5  100      2  4  0.1      0.333        0.250    0.333      0.500"
            "     0.667       0.750\n"
        )

    def test_text_format_is_aligned(self, small_result):
        text = emit_table([small_result], fmt="text")
        lines = text.strip().split("\n")
        assert len(lines) == 2
        assert "mise_pca" in lines[0]

    def test_profile_contains_all_candidates(self, small_result):
        text = emit_profile([small_result])
        lines = text.strip().split("\n")
        assert lines[0] == "candidate\tmise"
        body = [l for l in lines if not l.startswith("#")]
        assert len(body) - 1 == len(small_result.m_profile) + len(small_result.rho_profile)


class TestDefaultGrids:
    def test_default_m_grid(self):
        assert DEFAULT_M_GRID == tuple(range(1, 21))

    def test_default_rho_grid(self):
        grid = default_rho_grid()
        assert len(grid) == 25
        assert grid[0] == pytest.approx(1e-6)
        assert grid[-1] == pytest.approx(1.0)
        assert all(a < b for a, b in zip(grid, grid[1:]))

    def test_default_rho_grid_rejects_non_finite_ends(self):
        for lo, hi in ((1e-6, math.inf), (1e-6, math.nan), (math.nan, 1.0),
                       (-math.inf, 1.0), (0.0, 1.0), (1.0, 1e-6)):
            with pytest.raises(ParameterError):
                default_rho_grid(25, lo, hi)
