#!/usr/bin/env python3
"""flreg benchmark: closed-loop workloads, checked outputs, traced layers.

    python3 perfbench/run.py --workload mc_well_n500 --seed 1 --seconds 36 --trace 0
    python3 perfbench/run.py --workload all

Run from the root of a checkout; flreg is imported from its ``src``.  With
``--trace 0`` the run times whole operations and prints the end-to-end
metrics of ``BENCHMARK.json``; with ``--trace 1`` it alternates traced and
untraced operations and prints the per-layer metrics.  Human-readable lines
come first; the last line of standard output is one JSON object.  The exit
code is 0 only when every operation succeeded and matched the reference.
``--workload all`` runs every workload, untraced then traced, each in its
own process.  See perfbench/README.md.
"""

import os

# Pinned before numpy loads, so BLAS adds no threads of its own: live
# threads stay within the two the mc_closely_n100_t2 workload asks for.
os.environ["OPENBLAS_NUM_THREADS"] = "1"
os.environ["OMP_NUM_THREADS"] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

import spans  # noqa: E402
import workloads  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
DEFAULT_SEED = 1
# Seed never used while tuning flreg: a later speed claim must also hold here.
HOLDOUT_SEED = 20070810
SETUP_REPEATS = 3


def git_commit() -> str:
    """Commit of the checkout, read from .git without leaving it."""
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        loose = ROOT / ".git" / name
        if loose.is_file():
            return loose.read_text().strip()
        for line in (ROOT / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def env_record(args) -> dict:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = {k: blas.get(k) for k in ("name", "version", "openblas configuration")}
    except (KeyError, TypeError):
        blas = "unknown"
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "nproc": os.cpu_count(),
        "machine": platform.machine(),
        "OPENBLAS_NUM_THREADS": os.environ["OPENBLAS_NUM_THREADS"],
        "OMP_NUM_THREADS": os.environ["OMP_NUM_THREADS"],
        "git_commit": git_commit(),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
    }


def measure(wl, seconds: float, flreg, traced: bool) -> dict:
    """Closed loop until ``seconds`` of operation time are spent.

    Untraced: every operation is timed whole.  Traced: each seed c runs
    twice, traced and untraced, in alternating order, and the traced spans
    are kept.  Checks run between operations and are not timed.
    """
    tracer = spans.Tracer()
    times = {True: [], False: []}
    steps: dict[str, list[float]] = {}
    ops = []
    attempted = failed = 0
    elapsed = 0.0
    c = 0
    while elapsed < seconds:
        order = ((True, False) if c % 2 == 0 else (False, True)) if traced else (False,)
        for with_spans in order:
            if with_spans:
                tracer.install(flreg)
            t0 = time.perf_counter()
            try:
                output = wl.op(c, tracer.call if with_spans else workloads.plain_call)
            except Exception:  # counted as failed; the loop goes on
                traceback.print_exc()
                output = None
            finally:
                dt = time.perf_counter() - t0
                if with_spans:
                    tracer.remove()
                    ops.append(tracer.take())
            elapsed += dt
            times[with_spans].append(dt)
            attempted += len(wl.steps)
            bad = list(wl.steps) if output is None else wl.check(c, output)
            if bad:
                print(f"# op {c} failed: {', '.join(bad)}", file=sys.stderr)
            failed += len(bad)
            if output is not None:
                for step, seconds_ in output[1].items():
                    steps.setdefault(step, []).append(seconds_)
        c += 1
    return {
        "attempted": attempted,
        "failed": failed,
        "op_s": times[False],
        "traced_op_s": times[True],
        "step_s": steps,
        "ops": ops,
        "rss_peak_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }


def end_to_end(wl, run: dict, setup_s: float) -> dict:
    op_s = run["op_s"]
    return {
        "setup_s": setup_s,
        "work_per_s": wl.items_per_op * len(op_s) / sum(op_s),
        "op_ms.p50": 1e3 * spans.percentile(op_s, 50),
        "op_ms.p90": 1e3 * spans.percentile(op_s, 90),
        "rss_peak_mb": run["rss_peak_mb"],
    }


def report_lines(name: str, wl, run: dict, values: dict, traced: bool) -> list[str]:
    """``ops.failed_frac`` and, untraced, the end-to-end metrics under their
    workload-specific names."""
    n_ops = len(run["op_s"])
    frac = run["failed"] / run["attempted"]
    lines = [f"ops.failed_frac {frac:.6g} ({run['failed']} of {run['attempted']} failed)"]
    if not traced and isinstance(wl, workloads.McWorkload):
        lines += [
            f"mc.reps_per_s {values['work_per_s']:.6g} 1/s",
            f"mc.call_ms.p50 {values['op_ms.p50']:.6g} ms ({n_ops} calls)",
            f"mc.call_ms.p90 {values['op_ms.p90']:.6g} ms ({n_ops} calls)",
        ]
    elif not traced:
        lines += [f"cli.{step}_ms.p50 {1e3 * statistics.median(seconds_):.6g} ms"
                  f" ({len(seconds_)} commands)" for step, seconds_ in run["step_s"].items()]
        lines += [
            f"cli.round_ms.p50 {values['op_ms.p50']:.6g} ms ({n_ops} rounds)",
            f"cli.round_ms.p90 {values['op_ms.p90']:.6g} ms ({n_ops} rounds)",
        ]
    return [f"{name}: {line}" for line in lines]


def run_one(args, spec: dict) -> int:
    src = ROOT / "src"
    if not (src / "flreg" / "__init__.py").is_file():
        print(f"perfbench: no flreg package under {src}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))
    t0 = time.perf_counter()
    import flreg
    import flreg.cli
    import_s = time.perf_counter() - t0
    if Path(flreg.__file__).resolve().parent != src / "flreg":
        print(f"perfbench: imported flreg from {flreg.__file__}, not {src}", file=sys.stderr)
        return 2

    wl = workloads.make(args.workload, flreg)
    workdir = ROOT / ".bench_work" / f"{args.workload}-{os.getpid()}"
    workdir.mkdir(parents=True)
    try:
        setups = []
        for _ in range(SETUP_REPEATS):
            t0 = time.perf_counter()
            wl.prepare(args.seed, str(workdir))
            setups.append(time.perf_counter() - t0)
        run = measure(wl, args.seconds, flreg, traced=bool(args.trace))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            workdir.parent.rmdir()
        except OSError:  # another run still uses it
            pass

    if args.trace:
        values = spans.layer_metrics(run["ops"])
        values["trace.overhead_frac"] = sum(run["traced_op_s"]) / sum(run["op_s"]) - 1.0
    else:
        values = end_to_end(wl, run, import_s + statistics.median(setups))
    declared = spec["per_layer" if args.trace else "end_to_end"]
    missing = [m["name"] for m in declared if m["name"] not in values]
    if missing:
        print(f"perfbench: metrics not produced: {missing}", file=sys.stderr)
        return 2

    print("# env " + json.dumps(env_record(args), sort_keys=True))
    for line in report_lines(args.workload, wl, run, values, bool(args.trace)):
        print(line)
    for m in declared:
        print(f"{args.workload}: {m['name']} {values[m['name']]:.6g} {m['unit']}")
    print(json.dumps({
        "correct": run["failed"] == 0,
        "attempted": run["attempted"],
        "failed": run["failed"],
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
                    for m in declared},
    }))
    return 0 if run["failed"] == 0 else 1


def run_all(args) -> int:
    """Every workload, untraced then traced, each in a fresh process."""
    status = 0
    for name in workloads.WORKLOADS:
        for trace in (0, 1):
            argv = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
                    "--seed", str(args.seed), "--seconds", str(args.seconds),
                    "--trace", str(trace)]
            done = subprocess.run(argv, cwd=ROOT, stdout=subprocess.PIPE, text=True)
            sys.stdout.write(done.stdout)
            sys.stdout.flush()
            status = status or done.returncode
    return status


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=workloads.WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED,
                        help=f"workload seed (default {DEFAULT_SEED}; holdout {HOLDOUT_SEED})")
    parser.add_argument("--seconds", type=float,
                        help="operation time measured per run (default: run_seconds "
                             "of BENCHMARK.json)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be nonnegative")
    try:
        spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    except (OSError, ValueError) as exc:
        print(f"perfbench: cannot read BENCHMARK.json: {exc}", file=sys.stderr)
        return 2
    if args.seconds is None:
        args.seconds = float(spec["run_seconds"])
    if args.workload == "all":
        return run_all(args)
    return run_one(args, spec)


if __name__ == "__main__":
    sys.exit(main())
