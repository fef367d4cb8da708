"""Acceptance suite: one test per criterion, one printed pass/fail line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines.

Criteria 5 and 6 hold this harness to the qualitative conclusions of the
reference benchmark tables it mirrors (orderings, magnitudes, identities).
Two of those targets are known not to follow from the benchmark's own
data-generating process under a complete oracle tuning grid; the "Benchmark
notes" section of the README records the analysis.  Those assertions are
kept as stated rather than loosened, so this suite reports them red.
"""

import math

import numpy as np
import pytest

from flreg import (
    Grid,
    SimConfig,
    compute_moments,
    draw_dataset,
    eigendecompose,
    mc_run,
    perturbation_report,
    rate_fit,
    resolvent_identity_residual,
    ridge_fit,
    truth_bundle,
)
from flreg.cli import run
from flreg.estimators import ridge_path
from flreg.simulation import basis_matrix

SEED = 7
REPS = 200
THREADS = 4


def report(criterion: int, ok: bool, detail: str) -> None:
    print(f"[criterion {criterion}] {'PASS' if ok else 'FAIL'} - {detail}")


@pytest.fixture(scope="module")
def table1_results():
    results = {}
    for alpha in (1.1, 1.5, 2.0):
        cfg = SimConfig(n=500, sigma_eps=0.5, alpha=alpha, spacing="well_spaced", seed=SEED)
        results[alpha] = mc_run(cfg, REPS, threads=THREADS)
    return results


@pytest.fixture(scope="module")
def table2_results():
    results = {}
    for n in (100, 500):
        for alpha in (1.1, 1.5, 2.0, 4.0):
            cfg = SimConfig(
                n=n, sigma_eps=0.5, alpha=alpha, spacing="closely_spaced", seed=SEED
            )
            results[(n, alpha)] = mc_run(cfg, REPS, threads=THREADS)
    return results


@pytest.fixture(scope="module")
def rate_results():
    sizes = (100, 200, 400, 800)
    results = []
    for n in sizes:
        cfg = SimConfig(n=n, sigma_eps=0.5, alpha=2.0, spacing="well_spaced", seed=SEED)
        results.append(mc_run(cfg, REPS, threads=THREADS))
    return sizes, results


def test_criterion_1_basis_orthonormality():
    grid = Grid(50)
    B = basis_matrix(grid, 50)
    gram = B @ B.T / grid.p
    worst = float(np.max(np.abs(gram - np.eye(50))))
    ok = worst <= 1e-10
    report(1, ok, f"max orthonormality defect {worst:.3e} (tol 1e-10)")
    assert ok


def test_criterion_2_true_spectrum_recovery():
    cfg = SimConfig(n=10, sigma_eps=0.0, alpha=2.0, spacing="well_spaced", seed=SEED)
    vals, _ = eigendecompose(truth_bundle(cfg).kernel)
    expected = np.arange(1, 51, dtype=float) ** -2.0
    worst = float(np.max(np.abs(vals - expected)))
    ok = worst <= 1e-8
    report(2, ok, f"max eigenvalue error {worst:.3e} (tol 1e-8)")
    assert ok


def test_criterion_3_ridge_spectral_equivalence():
    p = 50
    worst = 0.0
    for seed in range(100):
        rng = np.random.default_rng(10_000 + seed)
        w = rng.standard_normal((p, p))
        moments = (np.zeros(p), 0.0, np.einsum("ik,jk->ij", w, w) / p, rng.standard_normal(p))
        vals, vecs = eigendecompose(moments[2])
        for rho in (1e-4, 1e-2, 1.0):
            solve = ridge_fit(moments, rho).slope
            filt = ridge_path(vals[None], vecs[None], moments[3][None], (rho,))[0, 0]
            gap = math.sqrt(float(np.dot(solve - filt, solve - filt)) / p)
            worst = max(worst, gap)
    ok = worst <= 1e-8
    report(3, ok, f"worst route disagreement {worst:.3e} over 100 kernels x 3 rho (tol 1e-8)")
    assert ok


def test_criterion_4_perturbation_bound_suite():
    worst_slack = math.inf
    for rep in range(100):
        cfg = SimConfig(
            n=500, sigma_eps=0.5, alpha=2.0, spacing="well_spaced", seed=20_000 + rep
        )
        data, truth = draw_dataset(cfg)
        _, _, cov, _ = compute_moments(data)
        rep_out = perturbation_report(truth.kernel, cov, 10)
        for row in rep_out.rows:
            worst_slack = min(worst_slack, row.slack_eigenvalue, row.slack_eigenfunction)
    bounds_ok = worst_slack >= -1e-8

    worst_residual = 0.0
    p = 20
    for rep in range(20):
        rng = np.random.default_rng(30_000 + rep)
        q, _ = np.linalg.qr(rng.standard_normal((p, p)))
        w = (q * np.sqrt(np.linspace(2.0, 0.5, p))).T
        kernel = np.einsum("ji,jk->ik", w, w) * p
        bump = rng.standard_normal((p, p)) * 1e-3
        other = kernel + np.einsum("ik,jk->ij", bump, bump)
        j = int(rng.integers(1, p + 1))
        worst_residual = max(worst_residual, resolvent_identity_residual(kernel, other, j))
    residual_ok = worst_residual <= 1e-6

    ok = bounds_ok and residual_ok
    report(
        4,
        ok,
        f"min bound slack {worst_slack:.3e} (tol -1e-8); "
        f"max resolvent residual {worst_residual:.3e} (tol 1e-6)",
    )
    assert ok


# Reference benchmark MISE cells for well-spaced eigenvalues, sigma 0.5, n = 500.
TABLE1_MISE_PCA = {1.1: 0.251, 1.5: 0.269, 2.0: 0.285}
TABLE1_MISE_RIDGE = {1.1: 1.197, 1.5: 1.027, 2.0: 0.857}


def test_criterion_5_table1_qualitative(table1_results):
    lines = []
    ordering_ok = True
    ratios_ok = True
    for alpha, res in table1_results.items():
        ordered = res.mise_pca < res.mise_ridge
        r_pca = res.mise_pca / TABLE1_MISE_PCA[alpha]
        r_ridge = res.mise_ridge / TABLE1_MISE_RIDGE[alpha]
        in_band = 0.2 <= r_pca <= 5.0 and 0.2 <= r_ridge <= 5.0
        ordering_ok &= ordered
        ratios_ok &= in_band
        lines.append(
            f"alpha={alpha}: mise_pca={res.mise_pca:.4f} mise_ridge={res.mise_ridge:.4f} "
            f"(m*={res.m_star}, rho*={res.rho_star:.3g}) ordering={'ok' if ordered else 'BAD'} "
            f"ratios=({r_pca:.3f}, {r_ridge:.3f})"
        )
    ok = ordering_ok and ratios_ok
    report(5, ok, "; ".join(lines))
    assert ordering_ok, "cutoff estimator must beat ridge for well-spaced eigenvalues"
    assert ratios_ok, (
        "MISE magnitude ratio to the reference cells outside [0.2, 5]: the "
        "reference table magnitudes do not follow from the stated "
        "data-generating process (see README, Benchmark notes)"
    )


def test_criterion_6_table2_qualitative(table2_results):
    lines = []
    ok = True
    for (n, alpha), res in sorted(table2_results.items()):
        ridge_wins = res.mise_ridge < res.mise_pca
        ok &= ridge_wins
        lines.append(
            f"n={n} alpha={alpha}: mise_pca={res.mise_pca:.4f} "
            f"mise_ridge={res.mise_ridge:.4f} (m*={res.m_star}) "
            f"{'ok' if ridge_wins else 'BAD'}"
        )
    report(6, ok, "; ".join(lines))
    assert ok, (
        "ridge must beat the cutoff estimator on every closely-spaced cell: "
        "with a complete oracle cutoff grid the whole-block cutoff m=4 "
        "stabilises the spectral-cutoff estimator, so this reference ordering "
        "does not reproduce (see README, Benchmark notes)"
    )


def test_criterion_7_mise_identity(table1_results, table2_results):
    worst = 0.0
    for res in list(table1_results.values()) + list(table2_results.values()):
        for bias2, var, mise in (
            (res.bias2_pca, res.var_pca, res.mise_pca),
            (res.bias2_ridge, res.var_ridge, res.mise_ridge),
        ):
            worst = max(worst, abs(mise - (bias2 + var)) / (1.0 + mise))
    identity_ok = worst <= 1e-10
    # the reference benchmark cells satisfy the same identity at printed precision
    reference_ok = abs((0.158 + 0.843) - 1.001) <= 5e-4
    ok = identity_ok and reference_ok
    report(
        7,
        ok,
        f"max |MISE - Bias^2 - Var| / (1 + MISE) = {worst:.3e} over every emitted cell; "
        f"reference row check {'ok' if reference_ok else 'BAD'}",
    )
    assert ok


def test_criterion_8_rate_check(rate_results):
    sizes, results = rate_results
    details = []
    ok = True
    for estimator in ("pca", "ridge"):
        fit = rate_fit(2.0, 2.0, sizes, results, estimator=estimator)
        close = abs(fit.fitted_slope - fit.theoretical_slope) <= 0.25
        monotone = all(a > b for a, b in zip(fit.mise_values, fit.mise_values[1:]))
        ok &= close and monotone
        details.append(
            f"{estimator}: fitted {fit.fitted_slope:.3f} vs theory {fit.theoretical_slope:.1f} "
            f"{'ok' if close else 'BAD'}, mise decreasing {'ok' if monotone else 'BAD'}"
        )
    report(8, ok, "; ".join(details))
    assert ok


def test_criterion_9_thread_count_determinism(tmp_path):
    argv = ["mc-table", "--spacing", "well", "--sigma", "0.5", "--n", "100",
            "--alpha", "2", "--reps", "50", "--seed", str(SEED)]
    a, b = tmp_path / "t1.tsv", tmp_path / "t8.tsv"
    assert run(argv + ["--threads", "1", "--out", str(a)]) == 0
    assert run(argv + ["--threads", "8", "--out", str(b)]) == 0
    with open(a, "rb") as fh:
        bytes_a = fh.read()
    with open(b, "rb") as fh:
        bytes_b = fh.read()
    ok = bytes_a == bytes_b
    report(9, ok, f"mc-table --threads 1 vs 8: {len(bytes_a)} bytes, byte-identical={ok}")
    assert ok
