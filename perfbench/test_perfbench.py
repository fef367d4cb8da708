"""Tests of the benchmark itself: its arithmetic and its output checks.

    python3 -m pytest perfbench -q
"""

import dataclasses
import json
import sys
import threading
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))

import flreg  # noqa: E402
import flreg.cli  # noqa: E402
import oracle  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402
from spans import Span  # noqa: E402


def test_percentile_interpolates_between_order_statistics():
    assert spans.percentile([3.0, 1.0, 4.0, 2.0], 50) == 2.5
    assert spans.percentile(range(1, 12), 90) == 10.0
    assert spans.percentile(range(0, 101), 90) == 90.0
    assert spans.percentile([1.0, 2.0], 90) == pytest.approx(1.9)
    assert spans.percentile([7.0], 90) == 7.0


def test_union_length_merges_overlaps():
    assert spans.union_length([]) == 0.0
    assert spans.union_length([(0.0, 1.0), (2.0, 3.0)]) == 2.0
    assert spans.union_length([(3.0, 8.0), (1.0, 5.0), (6.0, 7.0)]) == 7.0


def two_thread_op(offset: float = 0.0):
    """A root span with children from two threads that overlap in time."""
    o = offset
    return [
        Span(1, None, spans.MC_ROOT, o + 0.0, o + 10.0, cpu=10.0),
        Span(2, 1, "simulation.draw_dataset", o + 1.0, o + 5.0, cpu=4.0),  # thread A
        Span(3, 2, "simulation.truth_bundle", o + 2.0, o + 3.0, cpu=1.0),  # inside A
        Span(4, 1, "estimators.pca_fit", o + 3.0, o + 8.0, cpu=2.5),  # thread B
        Span(5, 1, "estimators.pca_fit", o + 9.0, o + 9.5, cpu=0.5),
    ]


def test_self_time_subtracts_the_union_of_overlapping_children():
    own = spans.self_times(two_thread_op())
    assert own[1] == pytest.approx(10.0 - 7.0 - 0.5)  # children cover [1, 8] and [9, 9.5]
    assert own[2] == pytest.approx(3.0)
    assert own[3] == pytest.approx(1.0)
    assert own[4] == pytest.approx(5.0)


def test_self_time_clips_children_to_the_parent():
    own = spans.self_times([Span(1, None, "a", 0.0, 4.0), Span(2, 1, "b", 3.0, 6.0)])
    assert own[1] == pytest.approx(3.0)


def test_layer_metrics_per_operation():
    ops = [(two_thread_op(), 100), (two_thread_op(20.0), 100)]
    m = spans.layer_metrics(ops)
    assert m["estimators.pca_fit.calls"] == 2
    assert m["simulation.truth_bundle.calls"] == 1
    assert m["estimators.pca_fit.self_ms"] == pytest.approx(5500.0)
    assert m[f"{spans.MC_ROOT}.self_ms"] == pytest.approx(2500.0)
    assert m["grid.GridFunction.constructed"] == 100
    # direct children of mc_run: 4 + 2.5 + 0.5 cpu s over 4 + 5 + 0.5 wall s
    assert m["evaluation.worker_cpu_frac"] == pytest.approx(7.0 / 9.5)
    assert m["estimators.predict.calls"] == 0


def test_tracer_parents_worker_thread_spans_to_the_top_level_span():
    tracer = spans.Tracer()

    def fan_out():
        threads = [threading.Thread(target=tracer.call, args=("leaf", lambda: None))
                   for _ in range(2)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=10)
        assert not any(t.is_alive() for t in threads)
        tracer.call("inner", lambda: None)

    tracer.call("root", fan_out)
    got, _ = tracer.take()
    by_name = {}
    for s in got:
        by_name.setdefault(s.name, []).append(s)
    root = by_name["root"][0]
    assert root.parent is None
    assert [s.parent for s in by_name["leaf"]] == [root.sid, root.sid]
    assert by_name["inner"][0].parent == root.sid


def test_tracer_restores_flreg_and_counts_grid_functions():
    original = flreg.evaluation.pca_fit
    tracer = spans.Tracer()
    tracer.install(flreg)
    try:
        assert flreg.evaluation.pca_fit is not original
        flreg.grid.GridFunction(flreg.Grid(3), [1.0, 2.0, 3.0])
    finally:
        tracer.remove()
    assert flreg.evaluation.pca_fit is original
    assert tracer.take()[1] == 1
    flreg.grid.GridFunction(flreg.Grid(3), [1.0, 2.0, 3.0])
    assert tracer.take()[1] == 0


@pytest.fixture(scope="module")
def small_mc():
    config = flreg.SimConfig(n=100, sigma_eps=0.5, alpha=2.0, spacing="closely_spaced", seed=5)
    result = flreg.mc_run(config, 4)
    return result, oracle.mc_reference(100, 0.5, 2.0, "closely_spaced", 5, 4)


def test_checker_accepts_mc_run(small_mc):
    result, ref = small_mc
    assert oracle.check_mc_result(result, ref) == []


def test_checker_rejects_tampered_mc_result(small_mc):
    result, ref = small_mc
    other_m = result.m_star % 20 + 1
    assert oracle.check_mc_result(dataclasses.replace(result, m_star=other_m), ref)
    profile = list(result.rho_profile)
    profile[3] = (profile[3][0], profile[3][1] * (1 + 1e-6))
    assert oracle.check_mc_result(dataclasses.replace(result, rho_profile=tuple(profile)), ref)
    assert oracle.check_mc_result(dataclasses.replace(result, excluded_m=(20,)), ref)


def test_mc_workload_fails_a_wrong_mc_run(monkeypatch):
    wl = workloads.McWorkload(flreg, 100, "closely_spaced", threads=2)
    wl.prepare(3, "")
    output = wl.op(0, workloads.plain_call)
    assert wl.check(0, output) == []
    real = flreg.evaluation.mc_run

    def off_by_one_m(config, *args, **kwargs):
        result = real(config, *args, **kwargs)
        return dataclasses.replace(result, m_star=result.m_star + 1)

    monkeypatch.setattr(flreg.evaluation, "mc_run", off_by_one_m)
    assert wl.check(0, wl.op(0, workloads.plain_call)) == ["mc_run"]


def model_text(slope, intercept, method="pca", parameter="4"):
    key = "m" if method == "pca" else "rho"
    head = [f"method={method}", f"{key}={parameter}", f"intercept={intercept!r}", "p=50"]
    return "\n".join(head + [repr(float(v)) for v in slope]) + "\n"


def test_checker_rejects_an_off_by_one_slope():
    X, y = oracle.draw(300, 0.5, 2.0, "well_spaced", 4)
    slope, intercept = oracle.fit_reference(X, y, "pca", 4)
    assert oracle.check_model(model_text(slope, intercept), "pca", 4, slope, intercept) == []
    wrong_m, _ = oracle.fit_reference(X, y, "pca", 5)
    assert oracle.check_model(model_text(wrong_m, intercept), "pca", 4, slope, intercept)
    shifted = list(slope[1:]) + [slope[0]]
    assert oracle.check_model(model_text(shifted, intercept), "pca", 4, slope, intercept)
    assert oracle.check_model(model_text(slope, intercept, parameter="5"), "pca", 4,
                              slope, intercept)


def test_cli_workload_checks_every_command(tmp_path):
    wl = workloads.CliWorkload(flreg)
    wl.n = 200
    wl.prepare(2, str(tmp_path))
    assert not (tmp_path / "pred.txt").exists()  # warm-up outputs are cleared
    output = wl.op(0, workloads.plain_call)
    assert all(code == 0 for code in output[0].values())
    assert wl.check(0, output) == []
    output = wl.op(1, workloads.plain_call)
    lines = (tmp_path / "pred.txt").read_text().splitlines()
    lines[7] = repr(float(lines[7]) + 1e-3)
    (tmp_path / "pred.txt").write_text("\n".join(lines) + "\n")
    (tmp_path / "sim.csv").unlink()
    assert wl.check(1, output) == ["predict", "simulate"]


def test_declared_metrics_are_the_ones_produced():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    produced = set(spans.layer_metrics([(two_thread_op(), 1)])) | {"trace.overhead_frac"}
    assert {m["name"] for m in spec["per_layer"]} == produced
    run_ = {"op_s": [0.1, 0.2], "rss_peak_mb": 1.0}
    e2e = run.end_to_end(workloads.McWorkload(flreg, 100, "well_spaced", 1), run_, 1.0)
    assert {m["name"] for m in spec["end_to_end"]} == set(e2e)
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
