"""The benchmark's workloads: set-up, one closed-loop operation, and checks.

Each workload drives flreg only through its public functions, one operation
at a time: the next operation starts when the previous one returns.
Operation c uses seed ``seed + c``.  ``op`` takes a ``call(name, fn, *args)``
callable, which either calls ``fn`` directly or inside a top-level span of
that name.  ``check`` compares an operation's output with the plain-numpy
reference in ``oracle`` and returns the names of the steps that failed.
"""

from __future__ import annotations

import dataclasses
import os
import time
import traceback

import oracle

SIGMA = 0.5
ALPHA = 2.0
REPS = 20
WARMUP_OFFSET = 10**6  # seed offset of the untimed warm-up operation
NEW_CURVES_OFFSET = 2 * 10**6  # seed offset of the CLI's new-curves CSV
ORACLE_STRIDE = 8  # mc_run calls compared with the reference: c % 8 == 0
DETERMINISM_STRIDE = 64  # and re-run at both thread counts: c % 64 == 0
OUTPUTS = ("pca.model", "ridge.model", "pred.txt", "diag.tsv", "sim.csv")


def plain_call(name, fn, *args, **kwargs):
    return fn(*args, **kwargs)


class McWorkload:
    """Repeated ``evaluation.mc_run`` calls, R = 20, default grids."""

    items_per_op = REPS
    steps = ("mc_run",)

    def __init__(self, flreg, n: int, spacing: str, threads: int) -> None:
        self.flreg = flreg
        self.n, self.spacing, self.threads = n, spacing, threads

    def prepare(self, seed: int, workdir: str) -> None:
        self.seed = seed
        self.config = self.flreg.SimConfig(
            n=self.n, sigma_eps=SIGMA, alpha=ALPHA, spacing=self.spacing, seed=seed
        )
        self.op(WARMUP_OFFSET, plain_call)

    def _run(self, c: int, threads: int, call=plain_call):
        config = dataclasses.replace(self.config, seed=self.seed + c)
        return call("evaluation.mc_run", self.flreg.evaluation.mc_run, config, REPS,
                    threads=threads)

    def op(self, c: int, call):
        return self._run(c, self.threads, call), {}

    def _tables(self, result) -> str:
        ev = self.flreg.evaluation
        return ev.emit_table([result]) + ev.emit_profile([result])

    def check(self, c: int, output) -> list[str]:
        result, _ = output
        if c % ORACLE_STRIDE:
            return []
        ref = oracle.mc_reference(self.n, SIGMA, ALPHA, self.spacing, self.seed + c, REPS)
        if oracle.check_mc_result(result, ref):
            return ["mc_run"]
        if c % DETERMINISM_STRIDE == 0:
            tables = self._tables(result)
            for threads in (self.threads, 3 - self.threads):
                if self._tables(self._run(c, threads)) != tables:
                    return ["mc_run"]
        return []


class CliWorkload:
    """One round of five ``cli.run`` commands on 2000-row CSV files."""

    steps = ("fit_pca", "fit_ridge", "predict", "diagnose", "simulate")
    items_per_op = len(steps)
    n = 2000

    def __init__(self, flreg) -> None:
        self.flreg = flreg
        self._ref = None

    def _path(self, name: str) -> str:
        return os.path.join(self.workdir, name)

    def prepare(self, seed: int, workdir: str) -> None:
        self.seed, self.workdir = seed, workdir
        sim = self.flreg.simulation
        for name, offset in (("train.csv", 0), ("new.csv", NEW_CURVES_OFFSET)):
            config = sim.SimConfig(n=self.n, sigma_eps=SIGMA, alpha=ALPHA,
                                   spacing="well_spaced", seed=seed + offset)
            text = sim.dataset_to_csv(sim.draw_dataset(config)[0])
            if name == "new.csv":  # new curves carry no response column
                text = "".join(line.rsplit(",", 1)[0] + "\n"
                               for line in text.splitlines()[1:])
                text = f"# grid=midpoint p={config.p}\n" + text
            with open(self._path(name), "w") as handle:
                handle.write(text)
        self.op(WARMUP_OFFSET, plain_call)
        for name in OUTPUTS:
            if os.path.exists(self._path(name)):
                os.remove(self._path(name))

    def commands(self, c: int) -> dict[str, list[str]]:
        p, seed = self._path, str(self.seed + c)
        return {
            "fit_pca": ["fit", "--data", p("train.csv"), "--method", "pca", "--m", "4",
                        "--out", p("pca.model")],
            "fit_ridge": ["fit", "--data", p("train.csv"), "--method", "ridge",
                          "--rho", "0.01", "--out", p("ridge.model")],
            "predict": ["predict", "--model", p("ridge.model"), "--data", p("new.csv"),
                        "--out", p("pred.txt")],
            "diagnose": ["diagnose", "--n", "500", "--alpha", "2", "--spacing", "well",
                         "--seed", seed, "--out", p("diag.tsv")],
            "simulate": ["simulate", "--n", str(self.n), "--sigma", "0.5", "--alpha", "2",
                         "--spacing", "closely", "--seed", seed, "--out", p("sim.csv")],
        }

    def op(self, c: int, call):
        codes, times = {}, {}
        for step, argv in self.commands(c).items():
            t0 = time.perf_counter()
            try:
                codes[step] = call(f"cli.{step}", self.flreg.cli.run, argv)
            except Exception:  # a traceback out of cli.run is a failed command
                traceback.print_exc()
                codes[step] = None
            times[step] = time.perf_counter() - t0
        return codes, times

    def _read(self, name: str) -> str:
        with open(self._path(name)) as handle:
            return handle.read()

    def _take(self, name: str) -> str:
        """Read an output and remove it, so the next round cannot pass on a
        file this round did not write."""
        text = self._read(name)
        os.remove(self._path(name))
        return text

    def _reference(self) -> dict:
        X, y, _ = oracle.parse_dataset_csv(self._read("train.csv"))
        ridge = oracle.fit_reference(X, y, "ridge", 0.01)
        X_new, _, _ = oracle.parse_dataset_csv(self._read("new.csv"))
        return {
            "pca": oracle.fit_reference(X, y, "pca", 4),
            "ridge": ridge,
            "predictions": ridge[1] + X_new @ ridge[0] / oracle.P,
        }

    def check(self, c: int, output) -> list[str]:
        codes, _ = output
        if self._ref is None:
            self._ref = self._reference()
        ref, seed = self._ref, self.seed + c
        checks = {
            "fit_pca": lambda: oracle.check_model(self._take("pca.model"), "pca", 4, *ref["pca"]),
            "fit_ridge": lambda: oracle.check_model(
                self._take("ridge.model"), "ridge", 0.01, *ref["ridge"]),
            "predict": lambda: oracle.check_predictions(
                self._take("pred.txt"), ref["predictions"]),
            "diagnose": lambda: oracle.check_diagnose(
                self._take("diag.tsv"), 500, SIGMA, ALPHA, "well_spaced", seed),
            "simulate": lambda: oracle.check_simulated(
                self._take("sim.csv"), self.n, SIGMA, ALPHA, "closely_spaced", seed),
        }
        failed = []
        for step in self.steps:
            try:
                ok = codes.get(step) == 0 and not checks[step]()
            except OSError:  # the command reported success but left no output
                ok = False
            if not ok:
                failed.append(step)
        return failed


def make(name: str, flreg):
    if name == "mc_well_n500":
        return McWorkload(flreg, 500, "well_spaced", threads=1)
    if name == "mc_closely_n100_t2":
        return McWorkload(flreg, 100, "closely_spaced", threads=2)
    if name == "cli_roundtrip_n2000":
        return CliWorkload(flreg)
    raise ValueError(f"unknown workload {name!r}")


WORKLOADS = ("mc_well_n500", "mc_closely_n100_t2", "cli_roundtrip_n2000")
