import os
import subprocess
import sys
import warnings

import numpy as np
import pytest

import flreg
import flreg.cli
from flreg.cli import run
from flreg.estimators import model_from_text
from flreg.simulation import dataset_from_csv


def read(path):
    with open(path) as handle:
        return handle.read()


def simulate(tmp_path, name="data.csv", n=12, sigma="0", seed="1", extra=()):
    out = tmp_path / name
    status = run(
        ["simulate", "--n", str(n), "--sigma", sigma, "--alpha", "2",
         "--spacing", "well", "--seed", seed, "--out", str(out), *extra]
    )
    assert status == 0
    return out


class TestSimulate:
    def test_writes_wellformed_csv(self, tmp_path):
        out = simulate(tmp_path, n=4)
        lines = read(out).strip().split("\n")
        assert lines[0] == "# grid=midpoint p=50"
        assert lines[1].startswith("x_1,") and lines[1].endswith(",y")
        assert len(lines) == 2 + 4

    def test_same_argv_same_bytes(self, tmp_path):
        a = simulate(tmp_path, name="a.csv")
        b = simulate(tmp_path, name="b.csv")
        assert read(a) == read(b)

    def test_different_seed_different_bytes(self, tmp_path):
        a = simulate(tmp_path, name="a.csv", seed="1")
        b = simulate(tmp_path, name="b.csv", seed="2")
        assert read(a) != read(b)

    def test_bytes_do_not_depend_on_blas_threads(self, tmp_path):
        # The curves are a BLAS gemm and the responses a gemv.
        src = os.path.dirname(os.path.dirname(os.path.abspath(flreg.__file__)))
        outputs = []
        for threads in ("1", "2"):
            out = tmp_path / f"sim{threads}.csv"
            env = dict(os.environ, OPENBLAS_NUM_THREADS=threads, OMP_NUM_THREADS=threads,
                       PYTHONPATH=src)
            subprocess.run(
                [sys.executable, "-m", "flreg", "simulate", "--n", "2000", "--sigma", "0.5",
                 "--alpha", "2", "--spacing", "closely", "--seed", "3", "--out", str(out)],
                env=env, check=True, timeout=120,
            )
            outputs.append(out.read_bytes())
        assert len(outputs[0].splitlines()) == 2 + 2000
        assert outputs[0] == outputs[1]


class TestFitPredict:
    def test_end_to_end_ridge(self, tmp_path):
        data = simulate(tmp_path, n=4)
        model_path = tmp_path / "model.txt"
        assert run(["fit", "--data", str(data), "--method", "ridge",
                    "--rho", "0.1", "--out", str(model_path)]) == 0
        model = model_from_text(read(model_path))
        assert model.method == "ridge"
        assert model.slope.shape == (50,)
        preds = tmp_path / "preds.txt"
        assert run(["predict", "--model", str(model_path), "--data", str(data),
                    "--out", str(preds)]) == 0
        assert len(read(preds).strip().split("\n")) == 4

    def test_training_set_reproduction_with_tiny_ridge(self, tmp_path):
        # sigma = 0 and near-zero ridge: in-sample predictions recover Y
        data = simulate(tmp_path, n=16, sigma="0", seed="5")
        model_path = tmp_path / "model.txt"
        assert run(["fit", "--data", str(data), "--method", "ridge",
                    "--rho", "1e-8", "--out", str(model_path)]) == 0
        preds = tmp_path / "preds.txt"
        assert run(["predict", "--model", str(model_path), "--data", str(data),
                    "--out", str(preds)]) == 0
        predictions = np.array([float(v) for v in read(preds).split()])
        _, _, y = dataset_from_csv(read(data))
        assert np.max(np.abs(predictions - y)) <= 1e-4

    def test_pca_m_zero_is_precondition_error(self, tmp_path):
        data = simulate(tmp_path, n=6)
        out = tmp_path / "model.txt"
        assert run(["fit", "--data", str(data), "--method", "pca",
                    "--m", "0", "--out", str(out)]) == 4
        assert not out.exists()

    @pytest.mark.parametrize("rho", ["inf", "nan"])
    def test_non_finite_rho_is_precondition_error(self, tmp_path, capsys, rho):
        data = simulate(tmp_path, n=6)
        out = tmp_path / "model.txt"
        capsys.readouterr()
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # no numpy RuntimeWarning may leak
            assert run(["fit", "--data", str(data), "--method", "ridge",
                        "--rho", rho, "--out", str(out)]) == 4
        err = capsys.readouterr().err
        assert err.startswith("flreg: ridge parameter must be finite") and err.count("\n") == 1
        assert not out.exists()

    def test_missing_tuning_flag_is_usage_error(self, tmp_path):
        data = simulate(tmp_path, n=6)
        out = tmp_path / "model.txt"
        assert run(["fit", "--data", str(data), "--method", "pca",
                    "--out", str(out)]) == 2
        assert not out.exists()

    def test_grid_mismatch_between_model_and_data(self, tmp_path):
        data = simulate(tmp_path, n=6)
        small = simulate(tmp_path, name="small.csv", n=6, extra=("--p", "20", "--terms", "20"))
        model_path = tmp_path / "model.txt"
        assert run(["fit", "--data", str(data), "--method", "ridge",
                    "--rho", "0.1", "--out", str(model_path)]) == 0
        out = tmp_path / "preds.txt"
        assert run(["predict", "--model", str(model_path), "--data", str(small),
                    "--out", str(out)]) == 3
        assert not out.exists()


class TestErrorPaths:
    def test_unknown_subcommand_is_usage(self):
        assert run(["frobnicate"]) == 2

    def test_missing_metadata_line_is_data_format(self, tmp_path):
        data = simulate(tmp_path, n=4)
        stripped = tmp_path / "stripped.csv"
        stripped.write_text("\n".join(read(data).splitlines()[1:]) + "\n")
        out = tmp_path / "model.txt"
        assert run(["fit", "--data", str(stripped), "--method", "ridge",
                    "--rho", "0.1", "--out", str(out)]) == 3
        assert not out.exists()

    def test_wrong_column_count_is_data_format(self, tmp_path):
        bad = tmp_path / "bad.csv"
        bad.write_text("# grid=midpoint p=3\nx_1,x_2,x_3,y\n1,2,3\n")
        out = tmp_path / "model.txt"
        assert run(["fit", "--data", str(bad), "--method", "ridge",
                    "--rho", "0.1", "--out", str(out)]) == 3

    def test_non_numeric_cell_is_data_format(self, tmp_path, capsys):
        bad = tmp_path / "bad.csv"
        out = tmp_path / "model.txt"
        for cell in ("zap", "nan", "inf", "-inf"):
            bad.write_text(f"# grid=midpoint p=2\nx_1,x_2,y\n1,2,3\n1,{cell},3\n1,2,3\n")
            assert run(["fit", "--data", str(bad), "--method", "ridge",
                        "--rho", "0.1", "--out", str(out)]) == 3
            assert "line 4" in capsys.readouterr().err
            assert not out.exists()

    @pytest.mark.parametrize("line,value", [
        (1, "m=abc"), (1, "m=0"), (1, "m=-2"), (1, "m=1.5"),
        (1, "rho=-1"), (1, "rho=0"), (1, "rho=nan"), (1, "rho=inf"), (1, "rho=abc"),
        (2, "intercept=nan"), (2, "intercept=inf"), (4, "nan"), (7, "-inf"),
    ])
    def test_malformed_model_file_is_data_format(self, tmp_path, line, value):
        data = simulate(tmp_path, n=6)
        model_path = tmp_path / "model.txt"
        method = "pca" if value.startswith("m=") else "ridge"
        tuning = ["--m", "2"] if method == "pca" else ["--rho", "0.1"]
        assert run(["fit", "--data", str(data), "--method", method, *tuning,
                    "--out", str(model_path)]) == 0
        lines = read(model_path).splitlines()
        lines[line] = value
        model_path.write_text("\n".join(lines) + "\n")
        out = tmp_path / "preds.txt"
        assert run(["predict", "--model", str(model_path), "--data", str(data),
                    "--out", str(out)]) == 3
        assert not out.exists()

    def test_grid_size_below_two_is_data_format(self, tmp_path, capsys):
        data = simulate(tmp_path, n=6)
        bad_csv, bad_model = tmp_path / "p1.csv", tmp_path / "p0.model"
        bad_csv.write_text("# grid=midpoint p=1\nx_1,y\n1,2\n3,4\n")
        bad_model.write_text("method=ridge\nrho=0.1\nintercept=0\np=0\n")
        out = tmp_path / "out.txt"
        capsys.readouterr()
        assert run(["fit", "--data", str(bad_csv), "--method", "ridge",
                    "--rho", "0.1", "--out", str(out)]) == 3
        assert run(["predict", "--model", str(bad_model), "--data", str(data),
                    "--out", str(out)]) == 3
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 2 and all("p >= 2" in line for line in err)
        assert not out.exists()

    def test_invalid_utf8_is_data_format(self, tmp_path, capsys):
        data = simulate(tmp_path, n=6)
        model_path = tmp_path / "model.txt"
        assert run(["fit", "--data", str(data), "--method", "pca", "--m", "2",
                    "--out", str(model_path)]) == 0
        bad_data, bad_model = tmp_path / "bad.csv", tmp_path / "bad.model"
        bad_data.write_bytes(data.read_bytes().replace(b"x_2", b"x_\xff"))
        bad_model.write_bytes(b"method=pca\xc3\n" + model_path.read_bytes())
        out = tmp_path / "out.txt"
        before = sorted(os.listdir(tmp_path))
        capsys.readouterr()
        for argv in (["fit", "--data", str(bad_data), "--method", "pca", "--m", "2"],
                     ["predict", "--model", str(model_path), "--data", str(bad_data)],
                     ["predict", "--model", str(bad_model), "--data", str(data)]):
            assert run(argv + ["--out", str(out)]) == 3
            err = capsys.readouterr().err
            assert err.startswith("flreg: data format error:") and err.count("\n") == 1
            assert "UTF-8" in err
        assert sorted(os.listdir(tmp_path)) == before

    def test_unreadable_input_is_io_error(self, tmp_path):
        out = tmp_path / "model.txt"
        assert run(["fit", "--data", str(tmp_path / "absent.csv"), "--method",
                    "ridge", "--rho", "0.1", "--out", str(out)]) == 5

    def test_failures_leave_no_partial_output(self, tmp_path):
        out = tmp_path / "target.txt"
        run(["fit", "--data", str(tmp_path / "absent.csv"), "--method",
             "ridge", "--rho", "0.1", "--out", str(out)])
        assert not out.exists()
        assert not [p for p in os.listdir(tmp_path) if p.startswith(".flreg-")]


class TestPredictThreads:
    def test_predict_bytes_do_not_depend_on_blas_threads(self, tmp_path):
        train = simulate(tmp_path, name="train.csv", n=200, sigma="0.5")
        new = simulate(tmp_path, name="new.csv", n=2000, seed="2")
        model_path = tmp_path / "model.txt"
        assert run(["fit", "--data", str(train), "--method", "ridge",
                    "--rho", "0.01", "--out", str(model_path)]) == 0
        src = os.path.dirname(os.path.dirname(os.path.abspath(flreg.__file__)))
        outputs = []
        for threads in ("1", "2"):
            out = tmp_path / f"preds{threads}.txt"
            env = dict(os.environ, OPENBLAS_NUM_THREADS=threads, OMP_NUM_THREADS=threads,
                       PYTHONPATH=src)
            subprocess.run(
                [sys.executable, "-m", "flreg", "predict", "--model", str(model_path),
                 "--data", str(new), "--out", str(out)],
                env=env, check=True, timeout=120,
            )
            outputs.append(out.read_bytes())
        assert len(outputs[0].splitlines()) == 2000
        assert outputs[0] == outputs[1]


class TestMcTableThreads:
    def test_mc_table_bytes_do_not_depend_on_blas_threads(self, tmp_path):
        # The cutoff and ridge paths use BLAS products; the tables and
        # profiles must not depend on how many threads BLAS runs.
        src = os.path.dirname(os.path.dirname(os.path.abspath(flreg.__file__)))
        outputs = []
        for threads in ("1", "2"):
            out, prof = tmp_path / f"t{threads}.tsv", tmp_path / f"p{threads}.tsv"
            env = dict(os.environ, OPENBLAS_NUM_THREADS=threads, OMP_NUM_THREADS=threads,
                       PYTHONPATH=src)
            subprocess.run(
                [sys.executable, "-m", "flreg", "mc-table", "--spacing", "closely",
                 "--sigma", "0.5", "--n", "20,100", "--alpha", "2", "--reps", "6",
                 "--seed", "7", "--threads", "2", "--out", str(out), "--profile", str(prof)],
                env=env, check=True, timeout=120,
            )
            outputs.append((out.read_bytes(), prof.read_bytes()))
        assert len(outputs[0][0].splitlines()) == 3
        assert b"# excluded m: 20" in outputs[0][1]
        assert outputs[0] == outputs[1]


class TestBatchCommands:
    def test_mc_table_smoke_and_determinism(self, tmp_path):
        argv = ["mc-table", "--spacing", "well", "--sigma", "0.5", "--n", "40",
                "--alpha", "2", "--reps", "6", "--seed", "7", "--m-max", "3",
                "--rho-count", "4"]
        a, b = tmp_path / "a.tsv", tmp_path / "b.tsv"
        assert run(argv + ["--threads", "1", "--out", str(a)]) == 0
        assert run(argv + ["--threads", "4", "--out", str(b)]) == 0
        assert read(a) == read(b)
        lines = read(a).strip().split("\n")
        assert len(lines) == 2
        assert len(lines[1].split("\t")) == 11

    def test_mc_table_profile_output(self, tmp_path):
        out, prof = tmp_path / "t.tsv", tmp_path / "p.tsv"
        assert run(["mc-table", "--spacing", "well", "--sigma", "0.5", "--n", "40",
                    "--alpha", "2", "--reps", "4", "--seed", "1", "--m-max", "2",
                    "--rho-count", "3", "--threads", "1",
                    "--out", str(out), "--profile", str(prof)]) == 0
        assert read(prof).startswith("candidate\tmise")

    def test_mc_table_failed_profile_leaves_no_table(self, tmp_path):
        out, prof = tmp_path / "t.tsv", tmp_path / "missing_dir" / "p.tsv"
        assert run(["mc-table", "--spacing", "well", "--sigma", "0.5", "--n", "40",
                    "--alpha", "2", "--reps", "2", "--m-max", "2", "--rho-count", "2",
                    "--threads", "1", "--out", str(out), "--profile", str(prof)]) == 5
        assert os.listdir(tmp_path) == []

    def test_rate_check_smoke(self, tmp_path):
        out = tmp_path / "rate.tsv"
        assert run(["rate-check", "--alpha", "2", "--beta", "2",
                    "--n", "30,60,120", "--reps", "6", "--seed", "3",
                    "--threads", "1", "--out", str(out)]) == 0
        lines = read(out).strip().split("\n")
        assert lines[0] == "estimator\tn\tmise\tfitted_slope\ttheoretical_slope"
        assert len(lines) == 1 + 6  # both estimators, three sizes each
        assert lines[1].split("\t")[-1] == f"{-0.5:.17g}"

    @pytest.mark.parametrize("flag,value", [
        ("--rho-max", "inf"), ("--rho-max", "nan"), ("--rho-min", "nan"), ("--rho-max", "1e999"),
    ])
    def test_mc_table_rejects_non_finite_rho_range(self, tmp_path, capsys, flag, value):
        out = tmp_path / "t.tsv"
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # no numpy RuntimeWarning may leak
            assert run(["mc-table", "--spacing", "well", "--sigma", "0.5", "--n", "40",
                        "--alpha", "2", "--reps", "4", "--threads", "1", flag, value,
                        "--out", str(out)]) == 4
        err = capsys.readouterr().err
        assert err.startswith("flreg: invalid rho grid") and err.count("\n") == 1
        assert not out.exists()

    @pytest.mark.parametrize("sizes", ["20,20,40", "20,40", "40,20,40,20"])
    def test_rate_check_rejects_too_few_sizes_before_running(
        self, tmp_path, capsys, monkeypatch, sizes
    ):
        calls = []
        monkeypatch.setattr(flreg.cli, "mc_run", lambda *a, **k: calls.append(a))
        out = tmp_path / "rate.tsv"
        assert run(["rate-check", "--alpha", "2", "--beta", "2", "--n", sizes,
                    "--reps", "3", "--threads", "1", "--out", str(out)]) == 4
        err = capsys.readouterr().err
        assert "at least 3 strictly increasing sample sizes" in err and err.count("\n") == 1
        assert calls == []
        assert not out.exists()

    @pytest.mark.parametrize("alpha,beta", [("2", "nan"), ("2", "0.4"), ("2", "inf")])
    def test_rate_check_rejects_meaningless_exponent(self, tmp_path, capsys, alpha, beta):
        out = tmp_path / "rate.tsv"
        assert run(["rate-check", "--alpha", alpha, "--beta", beta, "--n", "20,30,40",
                    "--reps", "3", "--threads", "1", "--out", str(out)]) == 4
        err = capsys.readouterr().err
        assert "beta > 1/2" in err and err.count("\n") == 1
        assert not out.exists()

    def test_diagnose_smoke(self, tmp_path):
        out = tmp_path / "diag.tsv"
        assert run(["diagnose", "--n", "100", "--alpha", "2", "--spacing", "well",
                    "--seed", "2", "--j-max", "4", "--out", str(out)]) == 0
        lines = read(out).strip().split("\n")
        assert lines[0].startswith("# hs_gap=")
        assert len(lines) == 2 + 4


class TestScripts:
    # The experiment scripts are thin wrappers: their output is the CLI's.
    SCRIPTS = os.path.join(os.path.dirname(os.path.abspath(__file__)), "..", "scripts")

    def script(self, name, *args):
        return subprocess.run(
            [sys.executable, os.path.join(self.SCRIPTS, name), *args],
            capture_output=True, text=True, check=True, timeout=120,
        ).stdout

    def test_reproduce_tables_wraps_mc_table(self, tmp_path):
        stdout = self.script("reproduce_tables.py", "--reps", "3", "--sigma", "0.5",
                             "--n", "30", "--alpha", "2", "--threads", "1",
                             "--out-dir", str(tmp_path / "res"))
        for design in ("well", "closely"):
            table, prof = tmp_path / f"{design}.txt", tmp_path / f"{design}.tsv"
            assert run(["mc-table", "--spacing", design, "--sigma", "0.5", "--n", "30",
                        "--alpha", "2", "--reps", "3", "--seed", "7", "--threads", "1",
                        "--format", "text", "--out", str(table), "--profile", str(prof)]) == 0
            assert f"== {design} ==\n{read(table)}" in stdout
            assert read(tmp_path / "res" / f"profile_{design}.tsv") == read(prof)

    def test_rate_study_wraps_rate_check(self, tmp_path):
        out = tmp_path / "rate.tsv"
        assert run(["rate-check", "--alpha", "2", "--beta", "2", "--n", "30,60,120",
                    "--reps", "3", "--seed", "7", "--threads", "1", "--out", str(out)]) == 0
        assert self.script("rate_study.py", "--n", "30,60,120", "--reps", "3",
                           "--threads", "1") == read(out)
