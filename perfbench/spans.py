"""In-memory spans around flreg's public functions, and the arithmetic on them.

The tracer never edits flreg: ``install`` replaces, for the duration of one
traced operation, the module attributes through which flreg's own modules
look each other's public functions up (``flreg.evaluation.pca_fit`` and so
on), and ``GridFunction.__post_init__`` with a counting wrapper.  ``remove``
puts the originals back.

A span records its name, start and end (``perf_counter``), the CPU time of
its thread (``thread_time``) and the span that caused it.  Spans of the same
thread nest through a thread-local stack; a span opened on a thread with an
empty stack (a worker thread of ``mc_run``'s pool) is a child of the current
top-level span.  A span's self time is its duration minus the length of the
union of its children's intervals, so two children that overlap in time,
from two threads, are not subtracted twice.
"""

from __future__ import annotations

import itertools
import statistics
import threading
import time
from dataclasses import dataclass

# Module of flreg -> public functions looked up there by flreg itself.  The
# span is named after the module that defines the function.
TARGETS: dict[str, tuple[str, ...]] = {
    "evaluation": (
        "draw_dataset", "truth_bundle", "compute_moments", "eigendecompose",
        "pca_fit", "ridge_fit", "integrated_bias_var",
    ),
    "simulation": ("truth_bundle",),
    "estimators": ("eigendecompose",),
    "spectral": ("eigendecompose",),
    "cli": (
        "dataset_from_csv", "dataset_to_csv", "draw_dataset", "truth_bundle",
        "compute_moments", "pca_fit", "ridge_fit", "predict",
        "perturbation_report",
    ),
}

# Work carried by one call, for throughput: bytes of CSV text parsed, and
# the 2 n p^2 flop of the centred covariance.
SIZES = {
    "simulation.dataset_from_csv": lambda args: len(args[0]),
    "estimators.compute_moments": lambda args: 2.0 * args[0].n * args[0].grid.p ** 2,
}

# Top-level spans the benchmark opens around its own calls into flreg.
MC_ROOT = "evaluation.mc_run"
CLI_COMMANDS = ("fit_pca", "fit_ridge", "predict", "diagnose", "simulate")
CLI_ROOTS = tuple(f"cli.{op}" for op in CLI_COMMANDS)

SPAN_NAMES = (
    "simulation.draw_dataset",
    "simulation.truth_bundle",
    "simulation.dataset_from_csv",
    "simulation.dataset_to_csv",
    "estimators.compute_moments",
    "estimators.pca_fit",
    "estimators.ridge_fit",
    "estimators.predict",
    "spectral.eigendecompose",
    "spectral.perturbation_report",
    MC_ROOT,
    "evaluation.integrated_bias_var",
)


@dataclass(frozen=True)
class Span:
    sid: int
    parent: int | None
    name: str
    start: float
    end: float
    cpu: float = 0.0
    size: float = 0.0


class Tracer:
    """Collects spans and the GridFunction construction count in memory."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._root: int | None = None
        self._constructed = itertools.count()
        self._taken = 0
        self._patched: list[tuple[object, str, object]] = []

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def call(self, name: str, fn, *args, size: float = 0.0, **kwargs):
        """Run ``fn(*args, **kwargs)`` inside a span called ``name``."""
        stack = self._stack()
        parent = stack[-1] if stack else self._root
        sid = next(self._ids)
        top = parent is None
        if top:
            self._root = sid
        stack.append(sid)
        cpu0 = time.thread_time()
        t0 = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            t1 = time.perf_counter()
            cpu1 = time.thread_time()
            stack.pop()
            if top:
                self._root = None
            self.spans.append(Span(sid, parent, name, t0, t1, cpu1 - cpu0, size))

    def _wrap(self, name: str, fn):
        size_of = SIZES.get(name)

        def traced(*args, **kwargs):
            size = size_of(args) if size_of else 0.0
            return self.call(name, fn, *args, size=size, **kwargs)

        return traced

    def install(self, flreg) -> None:
        """Route flreg's internal lookups of the TARGETS through spans."""
        for module_name, attrs in TARGETS.items():
            module = getattr(flreg, module_name)
            for attr in attrs:
                fn = getattr(module, attr)
                name = f"{fn.__module__.rsplit('.', 1)[-1]}.{fn.__name__}"
                self._patch(module, attr, self._wrap(name, fn))
        cls = flreg.grid.GridFunction
        post_init = cls.__post_init__
        counter = self._constructed

        def counted(obj) -> None:
            next(counter)
            post_init(obj)

        self._patch(cls, "__post_init__", counted)

    def _patch(self, owner, attr: str, value) -> None:
        self._patched.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def remove(self) -> None:
        while self._patched:
            owner, attr, original = self._patched.pop()
            setattr(owner, attr, original)

    def take(self) -> tuple[list[Span], int]:
        """Spans and GridFunction constructions since the last take."""
        spans, self.spans = self.spans, []
        total = next(self._constructed)  # itertools.count is atomic under the GIL
        constructed, self._taken = total - self._taken, total + 1
        return spans, constructed


def percentile(values, q: float) -> float:
    """q-th percentile (0..100) by linear interpolation between order
    statistics, as numpy's default method."""
    data = sorted(values)
    if not data:
        raise ValueError("percentile of no values")
    pos = (len(data) - 1) * q / 100.0
    lo = int(pos)
    hi = min(lo + 1, len(data) - 1)
    return data[lo] + (data[hi] - data[lo]) * (pos - lo)


def union_length(intervals) -> float:
    """Total length covered by a set of (start, end) intervals."""
    total = 0.0
    cur_start = cur_end = None
    for start, end in sorted(intervals):
        if cur_end is None or start > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = start, end
        else:
            cur_end = max(cur_end, end)
    if cur_end is not None:
        total += cur_end - cur_start
    return total


def self_times(spans: list[Span]) -> dict[int, float]:
    """Span id -> duration minus the union of its children's intervals,
    each child clipped to the parent's interval."""
    by_id = {s.sid: s for s in spans}
    children: dict[int, list[tuple[float, float]]] = {}
    for s in spans:
        parent = by_id.get(s.parent)
        if parent is not None:
            children.setdefault(parent.sid, []).append(
                (max(s.start, parent.start), min(s.end, parent.end))
            )
    return {
        s.sid: (s.end - s.start) - union_length(
            (a, b) for a, b in children.get(s.sid, ()) if b > a
        )
        for s in spans
    }


def layer_metrics(ops: list[tuple[list[Span], int]]) -> dict[str, float]:
    """Per-layer metrics from the spans of each traced operation.

    ``ops`` holds, per operation (one mc_run call or one CLI round), its
    spans and its GridFunction construction count.  ``.calls`` is the mean
    count per operation, ``.self_ms`` the median over operations of the
    summed self time per operation.
    """
    n_ops = len(ops)
    calls = {name: 0 for name in SPAN_NAMES + CLI_ROOTS}
    per_op_self: dict[str, list[float]] = {name: [] for name in calls}
    size_total = {name: 0.0 for name in SIZES}
    size_self = {name: 0.0 for name in SIZES}
    worker_cpu = worker_wall = 0.0
    constructed = 0
    for op_spans, count in ops:
        constructed += count
        own = self_times(op_spans)
        names = {s.sid: s.name for s in op_spans}
        op_self = dict.fromkeys(calls, 0.0)
        for s in op_spans:
            if s.name not in calls:
                continue
            calls[s.name] += 1
            op_self[s.name] += own[s.sid]
            if s.name in SIZES:
                size_total[s.name] += s.size
                size_self[s.name] += own[s.sid]
            if names.get(s.parent) == MC_ROOT:
                worker_cpu += s.cpu
                worker_wall += s.end - s.start
        for name, value in op_self.items():
            per_op_self[name].append(value)

    def rate(name: str, scale: float) -> float:
        return size_total[name] / size_self[name] / scale if size_self[name] > 0 else 0.0

    metrics: dict[str, float] = {}
    for name in SPAN_NAMES:
        metrics[f"{name}.calls"] = calls[name] / n_ops
        metrics[f"{name}.self_ms"] = 1e3 * statistics.median(per_op_self[name])
    for name in CLI_ROOTS:
        metrics[f"{name}.self_ms"] = 1e3 * statistics.median(per_op_self[name])
    metrics["grid.GridFunction.constructed"] = constructed / n_ops
    metrics["simulation.dataset_from_csv.mb_per_s"] = rate("simulation.dataset_from_csv", 1e6)
    metrics["estimators.compute_moments.gflops"] = rate("estimators.compute_moments", 1e9)
    metrics["evaluation.worker_cpu_frac"] = worker_cpu / worker_wall if worker_wall > 0 else 0.0
    return metrics
