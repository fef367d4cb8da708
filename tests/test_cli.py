import contextlib
import importlib.util
import io
import os
import re
import subprocess
import sys
import tempfile
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import flreg
import flreg.cli
from flreg.cli import run
from flreg.estimators import model_from_text
from flreg.evaluation import theoretical_rate_slope
from flreg.simulation import SLOPE_DECAY, dataset_from_csv


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
        _, y = dataset_from_csv(read(data))
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

    @pytest.mark.parametrize("data", ["valid", "missing", "non-numeric"])
    @pytest.mark.parametrize("method,flag", [("pca", "--m"), ("ridge", "--rho")],
                             ids=["pca", "ridge"])
    def test_missing_tuning_flag_is_usage_error(self, tmp_path, capsys, data, method, flag):
        # Checked before the data is read: a missing or malformed file would
        # exit 5 or 3.
        path = tmp_path / "data.csv"
        if data == "valid":
            path = simulate(tmp_path, name="data.csv", n=6)
        elif data == "non-numeric":
            path.write_text("# grid=midpoint p=2\nx_1,x_2,y\n1,zap,3\n")
        out = tmp_path / "model.txt"
        assert run(["fit", "--data", str(path), "--method", method,
                    "--out", str(out)]) == 2
        assert capsys.readouterr().err == f"flreg: usage error: --method {method} requires {flag}\n"
        assert not out.exists()

    @pytest.mark.parametrize("data", ["missing", "non-numeric"])
    @pytest.mark.parametrize("method,value,message", [
        ("ridge", "0", "ridge parameter must be finite and positive, got 0.0"),
        ("ridge", "-1", "ridge parameter must be finite and positive, got -1.0"),
        ("ridge", "nan", "ridge parameter must be finite and positive, got nan"),
        ("ridge", "inf", "ridge parameter must be finite and positive, got inf"),
        ("pca", "0", "spectral cutoff must be at least 1, got m=0"),
        ("pca", "-1", "spectral cutoff must be at least 1, got m=-1"),
    ])
    def test_bad_tuning_value_is_precondition_error_before_read(
        self, tmp_path, capsys, data, method, value, message
    ):
        # The tuning rule needs no data: a missing file would exit 5 and a
        # malformed one 3.
        path = tmp_path / "data.csv"
        if data == "non-numeric":
            path.write_text("# grid=midpoint p=2\nx_1,x_2,y\n1,zap,3\n")
        out = tmp_path / "model.txt"
        flag = "--m" if method == "pca" else "--rho"
        assert run(["fit", "--data", str(path), "--method", method, flag, value,
                    "--out", str(out)]) == 4
        assert capsys.readouterr().err == f"flreg: {message}\n"
        assert not out.exists()

    @pytest.mark.parametrize("data", ["valid", "missing"])
    @pytest.mark.parametrize("method,stray", [(["pca", "--m", "5"], "--rho"),
                                              (["ridge", "--rho", "0.1"], "--m")],
                             ids=["pca", "ridge"])
    def test_other_methods_tuning_flag_is_usage_error(
        self, tmp_path, capsys, data, method, stray
    ):
        # Checked before the data is read, like a missing flag.
        path = simulate(tmp_path, n=6) if data == "valid" else tmp_path / "missing.csv"
        out = tmp_path / "model.txt"
        capsys.readouterr()
        assert run(["fit", "--data", str(path), "--method", *method,
                    stray, "1", "--out", str(out)]) == 2
        assert capsys.readouterr().err == (
            f"flreg: usage error: --method {method[0]} does not take {stray}\n")
        assert not out.exists()

    @pytest.mark.parametrize("method", [["pca", "--m", "1"], ["ridge", "--rho", "0.1"]],
                             ids=["pca", "ridge"])
    def test_fit_without_y_column_names_it(self, tmp_path, capsys, method):
        data = tmp_path / "data.csv"
        data.write_text("# grid=midpoint p=2\nx_1,x_2\n1,2\n3,5\n")
        out = tmp_path / "model.txt"
        assert run(["fit", "--data", str(data), "--method", *method, "--out", str(out)]) == 3
        err = capsys.readouterr().err
        assert err == "flreg: data format error: dataset CSV header has no y column, which fit needs\n"
        assert not out.exists()

    @pytest.mark.parametrize("header", ["x_1,x_2,x_3,y", "x_1,x_2,x_3"])
    def test_predict_on_zero_curves_writes_an_empty_file(self, tmp_path, header):
        model = tmp_path / "model.txt"
        model.write_bytes(FUZZ_MODEL)
        data = tmp_path / "data.csv"
        data.write_text(f"# grid=midpoint p=3\n{header}\n")
        out = tmp_path / "preds.txt"
        assert run(["predict", "--model", str(model), "--data", str(data),
                    "--out", str(out)]) == 0
        assert out.read_bytes() == b""

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

    def test_huge_declared_p_is_one_line(self, tmp_path, capsys):
        bad = tmp_path / "bad.csv"
        bad.write_text("# grid=midpoint p=" + "9" * 5000 + "\nx_1,x_2,y\n1,2,3\n")
        out = tmp_path / "model.txt"
        assert run(["fit", "--data", str(bad), "--method", "ridge",
                    "--rho", "0.1", "--out", str(out)]) == 3
        err = capsys.readouterr().err
        assert err.startswith("flreg: data format error: ") and err.count("\n") == 1
        assert not out.exists()

    def test_only_newlines_end_lines(self, tmp_path, capsys):
        # A form feed (or NEL, or U+2028) inside a line does not split it.
        data, model, out = tmp_path / "data.csv", tmp_path / "model.txt", tmp_path / "out"
        for char in ("\x0c", "\x85", "\u2028"):
            data.write_text(f"# grid=midpoint p=2\r\nx_1,x_2,y\r\n1,2,3{char}4,5,6\r\n",
                            encoding="utf-8")
            assert run(["fit", "--data", str(data), "--method", "pca", "--m", "1",
                        "--out", str(out)]) == 3
            assert capsys.readouterr().err == (
                "flreg: data format error: dataset CSV line 3: expected 3 columns, got 5\n")
            data.write_text("# grid=midpoint p=2\rx_1,x_2\r1,2\r")
            model.write_text(f"method=pca\nm=1\nintercept=0\np=2\n1{char}2\n", encoding="utf-8")
            assert run(["predict", "--model", str(model), "--data", str(data),
                        "--out", str(out)]) == 3
            assert capsys.readouterr().err == (
                "flreg: data format error: model file line 5: non-numeric cell\n")
            assert not out.exists()

    @pytest.mark.parametrize("text,message", [
        ("method=pca\nm=1\nintercept=1_0\np=2\n1\n2\n", "model file line 3: non-numeric cell"),
        ("method=ridge\nrho=\u0663\nintercept=0\np=2\n1\n2\n",
         "model file line 2: non-numeric cell"),
        ("method=pca\nm=1\nintercept=0\np=0x2\n1\n2\n", "model file line 4: non-numeric cell"),
        ("method=pca\nm=1\nintercept=\np=2\n1\n2\n", "model file line 3: non-numeric cell"),
        ("method=pca\nm=1\nintercept=0\np=2\n1\x0c2\n", "model file line 5: non-numeric cell"),
        ("method=pca\r\nm=1\r\n\r\nintercept=0\r\np=2\r\n1\r\nzap\r\n",
         "model file line 7: non-numeric cell"),
        ("method=pca\nm=1\nintercept=nan\np=2\n1\n2\n", "model file line 3: non-finite cell"),
        ("method=pca\nm=2.5\nintercept=0\np=2\n1\n2\n",
         "model file line 2: need an integer m >= 1, got m=2.5"),
        ("method=pca\nm=\nintercept=\np=\n", "model file line 2: non-numeric cell"),
        ("method=pca\nm=1\nintercept=0\np=2\n1,2\n2\n",
         "model file line 5: expected 1 columns, got 2"),
        ("method=ridge\n\nrho=0.1\nintercept=0\np=2.5\n1\n2\n",
         "model file line 5: need a grid of p >= 2 points, got p=2.5"),
        ("method=pca\nrho=0.1\nintercept=0\np=2\n1\n2\n",
         "model file line 2: expected 'm=...', got 'rho=0.1'"),
    ])
    def test_model_file_errors_name_their_line(self, tmp_path, capsys, text, message):
        # Header values are cells like the slope values: the same grammar,
        # and the same message naming the line in the file.
        data, model, out = tmp_path / "data.csv", tmp_path / "model.txt", tmp_path / "out"
        data.write_text("# grid=midpoint p=2\nx_1,x_2\n1,2\n")
        model.write_bytes(text.encode())
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # no numpy warning for an empty value
            assert run(["predict", "--model", str(model), "--data", str(data),
                        "--out", str(out)]) == 3
        assert capsys.readouterr().err == f"flreg: data format error: {message}\n"
        assert not out.exists()

    @pytest.mark.parametrize("header", ["m=4.0\nintercept=0\np=2", "m=4e0\nintercept=0\np= 2e0 "])
    def test_integral_header_values_in_any_spelling_load(self, tmp_path, header):
        data, model, out = tmp_path / "data.csv", tmp_path / "model.txt", tmp_path / "out"
        data.write_text("# grid=midpoint p=2\nx_1,x_2\n1,2\n")
        model.write_text(f"method=pca\n{header}\n1\n2\n")
        assert run(["predict", "--model", str(model), "--data", str(data),
                    "--out", str(out)]) == 0
        assert read(out) == "2.5\n"

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

    @pytest.mark.parametrize("argv,message", [
        (["predict", "--model", "{tmp}/big.model", "--data", "{tmp}/tens.csv"],
         "predictions overflow"),
        (["fit", "--data", "{tmp}/huge.csv", "--method", "pca", "--m", "1"], "kernel stack"),
        (["fit", "--data", "{tmp}/huge.csv", "--method", "ridge", "--rho", "0.1"],
         "kernel stack"),
        (["simulate", "--n", "5", "--sigma", "1e308", "--alpha", "2", "--spacing", "well"],
         "Y contains non-finite"),
        (["mc-table", "--spacing", "well", "--sigma", "1e308", "--n", "5", "--alpha", "2",
          "--reps", "130", "--threads", "2"], "replication cross-covariances"),
        (["mc-table", "--spacing", "well", "--sigma", "1e300", "--n", "50", "--alpha", "2",
          "--reps", "4"], "Monte Carlo errors for n=50 alpha=2 sigma_eps=1e+300"),
        (["rate-check", "--alpha", "2", "--n", "50,60,70", "--reps", "3", "--sigma", "1e300"],
         "Monte Carlo errors for n=50 alpha=2 sigma_eps=1e+300"),
    ])
    def test_overflow_is_one_line(self, tmp_path, capsys, argv, message):
        # Finite inputs whose prediction, moments or noise overflow: the
        # finiteness checks give the only stderr line, from mc-table's worker
        # threads too.
        (tmp_path / "big.model").write_text("method=pca\nm=1\nintercept=0\np=2\n1e308\n1e308\n")
        (tmp_path / "tens.csv").write_text("# grid=midpoint p=2\nx_1,x_2\n10,10\n")
        rows = "1e200,-2e200,3e200,1\n-1e200,2e200,-3e200,2\n" * 3
        (tmp_path / "huge.csv").write_text("# grid=midpoint p=3\nx_1,x_2,x_3,y\n" + rows)
        out = tmp_path / "out"
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # no numpy RuntimeWarning may leak
            assert run([a.format(tmp=tmp_path) for a in argv] + ["--out", str(out)]) == 4
        err = capsys.readouterr().err
        assert err.startswith("flreg: " + message) and err.count("\n") == 1
        assert not out.exists()

    def test_memory_error_is_one_line(self, tmp_path, capsys, monkeypatch):
        def no_memory(n, sigma_eps, seed, truth):
            raise MemoryError()

        monkeypatch.setattr(flreg.simulation, "draw_xy", no_memory)
        out = tmp_path / "sim.csv"
        assert run(["simulate", "--n", "5", "--sigma", "1", "--alpha", "2",
                    "--spacing", "well", "--out", str(out)]) == 4
        assert capsys.readouterr().err == "flreg: out of memory\n"
        assert not out.exists()

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


class TestStartup:
    def test_cli_import_leaves_the_thread_pool_out(self):
        # concurrent.futures pulls in logging, queue and traceback; only
        # mc_run's multi-chunk, multi-thread branch needs it.
        src = os.path.dirname(os.path.dirname(os.path.abspath(flreg.__file__)))
        code = "import sys, flreg, flreg.cli; print('concurrent.futures' in sys.modules)"
        result = subprocess.run([sys.executable, "-c", code], env=dict(os.environ, PYTHONPATH=src),
                                capture_output=True, text=True, check=True, timeout=120)
        assert result.stdout == "False\n"


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


MC_TABLE_ARGV = ["mc-table", "--spacing", "well", "--sigma", "0.5", "--n", "40", "--alpha", "2",
                 "--reps", "4"]
RATE_CHECK_ARGV = ["rate-check", "--alpha", "2", "--n", "20,30,40", "--reps", "3"]
DIAGNOSE_ARGV = ["diagnose", "--n", "40", "--alpha", "2", "--spacing", "well"]


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

    def test_mc_table_failed_profile_leaves_no_table(self, tmp_path, capsys):
        # A profile path in a missing directory, or naming a directory, fails
        # before the new table can replace the old one.
        out = tmp_path / "t.tsv"
        out.write_text("OLD TABLE\n")
        (tmp_path / "pdir").mkdir()
        for prof in (tmp_path / "missing_dir" / "p.tsv", tmp_path / "pdir"):
            assert run(["mc-table", "--spacing", "well", "--sigma", "0.5", "--n", "40",
                        "--alpha", "2", "--reps", "2", "--m-max", "2", "--rho-count", "2",
                        "--threads", "1", "--out", str(out), "--profile", str(prof)]) == 5
            err = capsys.readouterr().err
            assert err.startswith("flreg: i/o error: [Errno ") and err.endswith(f"'{prof}'\n")
            assert err.count("\n") == 1 and ".flreg-" not in err
            assert sorted(os.listdir(tmp_path)) == ["pdir", "t.tsv"]
            assert read(out) == "OLD TABLE\n" and os.listdir(tmp_path / "pdir") == []

    @pytest.mark.parametrize("path", ["", "pdir", "new_dir/"])
    def test_output_naming_a_directory_is_an_io_error(self, tmp_path, capsys, monkeypatch, path):
        # The empty path runs in pdir, so a file staged in its parent would show.
        (tmp_path / "pdir").mkdir()
        monkeypatch.chdir(tmp_path / "pdir" if path == "" else tmp_path)
        assert run(["simulate", "--n", "5", "--sigma", "0.5", "--alpha", "2",
                    "--spacing", "well", "--out", path]) == 5
        err = capsys.readouterr().err
        assert err.startswith("flreg: i/o error: [Errno ") and err.endswith(f"'{path}'\n")
        assert err.count("\n") == 1 and ".flreg-" not in err
        assert os.listdir(tmp_path) == ["pdir"] and os.listdir(tmp_path / "pdir") == []

    def test_mc_table_same_out_and_profile_is_a_usage_error(
        self, tmp_path, capsys, monkeypatch
    ):
        # The profile would replace the table: rejected before any run.
        calls = []
        monkeypatch.setattr(flreg.cli, "mc_run", lambda *a, **k: calls.append(a))
        monkeypatch.chdir(tmp_path)
        assert run(MC_TABLE_ARGV + ["--out", "./t.tsv", "--profile", "t.tsv"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "flreg: usage error: --out and --profile name the same file\n"
        assert calls == []
        assert os.listdir(tmp_path) == []

    @pytest.mark.parametrize("flag,values,message", [
        ("--n", "100,1", "need n >= 2, got 1"),
        ("--alpha", "2,-1", "need finite alpha > 0, got -1.0"),
    ], ids=["n", "alpha"])
    def test_mc_table_checks_every_scenario_before_running(
        self, capsys, monkeypatch, flag, values, message
    ):
        # The valid first scenario is not run before the bad one is rejected.
        calls = []
        monkeypatch.setattr(flreg.cli, "mc_run", lambda *a, **k: calls.append(a))
        argv = ["mc-table", "--spacing", "well", "--sigma", "0.5", "--n", "100",
                "--alpha", "2", "--reps", "1000", "--threads", "1"]
        argv[argv.index(flag) + 1] = values
        assert run(argv) == 4
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err == f"flreg: {message}\n"
        assert calls == []

    def test_rate_check_smoke(self, tmp_path):
        # beta is the simulator's slope decay, whatever the alpha.
        for alpha in (1.1, 2.0, 4.0):
            out = tmp_path / "rate.tsv"
            assert run(["rate-check", "--alpha", str(alpha), "--n", "30,60,120", "--reps", "6",
                        "--seed", "3", "--threads", "1", "--out", str(out)]) == 0
            lines = read(out).strip().split("\n")
            assert lines[0] == "estimator\tn\tmise\tfitted_slope\ttheoretical_slope"
            assert len(lines) == 1 + 6  # both estimators, three sizes each
            theory = format(theoretical_rate_slope(alpha, SLOPE_DECAY), ".17g")
            assert {line.split("\t")[-1] for line in lines[1:]} == {theory}

    def test_rate_check_takes_no_beta(self, tmp_path, capsys):
        out = tmp_path / "rate.tsv"
        assert run(RATE_CHECK_ARGV + ["--beta", "2", "--out", str(out)]) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and "unrecognized arguments: --beta 2" in captured.err
        assert os.listdir(tmp_path) == []

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
        assert run(["rate-check", "--alpha", "2", "--n", sizes,
                    "--reps", "3", "--threads", "1", "--out", str(out)]) == 4
        err = capsys.readouterr().err
        assert "at least 3 strictly increasing sample sizes" in err and err.count("\n") == 1
        assert calls == []
        assert not out.exists()

    @pytest.mark.parametrize("argv,flag,value,bounds", [
        (MC_TABLE_ARGV, "--threads", "0", ">= 1"),
        (MC_TABLE_ARGV, "--threads", "-3", ">= 1"),
        (RATE_CHECK_ARGV, "--threads", "0", ">= 1"),
        (RATE_CHECK_ARGV, "--threads", "-3", ">= 1"),
        (MC_TABLE_ARGV, "--m-max", "0", "in 1..50"),
        (MC_TABLE_ARGV, "--m-max", "51", "in 1..50"),
        (MC_TABLE_ARGV, "--rho-count", "0", "in 1..1000"),
        (MC_TABLE_ARGV, "--rho-count", "1001", "in 1..1000"),
        (MC_TABLE_ARGV, "--reps", "1", ">= 2"),
        (MC_TABLE_ARGV, "--reps", "-3", ">= 2"),
        (RATE_CHECK_ARGV, "--reps", "1", ">= 2"),
        (DIAGNOSE_ARGV, "--j-max", "0", "in 1..49"),
        (DIAGNOSE_ARGV, "--j-max", "50", "in 1..49"),
    ], ids=["mc-table-0", "mc-table--3", "rate-check-0", "rate-check--3",
            "mc-table-m-max-0", "mc-table-m-max-51",
            "mc-table-rho-count-0", "mc-table-rho-count-1001",
            "mc-table-reps-1", "mc-table-reps--3", "rate-check-reps-1",
            "diagnose-j-max-0", "diagnose-j-max-50"])
    def test_thread_count_below_one_is_a_usage_error(
        self, tmp_path, capsys, argv, flag, value, bounds
    ):
        # Also --m-max outside 1..50 (no cutoff can exceed the grid size),
        # --rho-count outside 1..1000 (the ridge stack grows with it), --reps
        # below 2 (the variance needs two replications) and --j-max outside
        # 1..49 (a report needs the gap below rank j_max on the 50-point grid).
        out = tmp_path / "out.tsv"
        assert run(argv + [flag, value, "--out", str(out)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert f"argument {flag}: expected an integer {bounds}, got '{value}'" in captured.err
        assert os.listdir(tmp_path) == []

    @pytest.mark.parametrize("alpha", ["nan", "0", "inf"])
    def test_rate_check_rejects_meaningless_exponent(self, tmp_path, capsys, monkeypatch, alpha):
        calls = []
        monkeypatch.setattr(flreg.cli, "mc_run", lambda *a, **k: calls.append(a))
        out = tmp_path / "rate.tsv"
        assert run(["rate-check", "--alpha", alpha, "--n", "20,30,40",
                    "--reps", "3", "--threads", "1", "--out", str(out)]) == 4
        err = capsys.readouterr().err
        assert err.startswith("flreg: need finite alpha > 0") and err.count("\n") == 1
        assert calls == []
        assert not out.exists()

    def test_diagnose_smoke(self, tmp_path):
        out = tmp_path / "diag.tsv"
        assert run(["diagnose", "--n", "100", "--alpha", "2", "--spacing", "well",
                    "--seed", "2", "--j-max", "4", "--out", str(out)]) == 0
        lines = read(out).strip().split("\n")
        assert lines[0].startswith("# hs_gap=")
        assert len(lines) == 2 + 4

    def test_diagnose_takes_no_sigma(self, tmp_path, capsys):
        # The report reads only the covariance of X, drawn before the noise.
        out = tmp_path / "diag.tsv"
        assert run(DIAGNOSE_ARGV + ["--sigma", "0.5", "--out", str(out)]) == 2
        assert "unrecognized arguments: --sigma 0.5" in capsys.readouterr().err
        assert not out.exists()


class TestScripts:
    SCRIPTS = os.path.join(os.path.dirname(os.path.abspath(__file__)), "..", "scripts")

    def test_byte_corpus_runs_agree(self):
        spec = importlib.util.spec_from_file_location(
            "byte_corpus", os.path.join(self.SCRIPTS, "byte_corpus.py"))
        corpus = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(corpus)
        argvs = [corpus.CORPUS[0], next(a for a in corpus.CORPUS if a[0] == "diagnose")]
        first = corpus.corpus(run, argvs)
        assert corpus.corpus(run, argvs) == first
        assert [line.split()[0] for line in first] == ["0", "0"]
        assert first[0].split()[1] != first[1].split()[1]


FUZZ_DATA = (
    b"# grid=midpoint p=3\nx_1,x_2,x_3,y\n0.5,-1.25,2,0.75\n1.5,0.25,-0.5,1\n"
    b"-0.75,1,0.125,-0.5\n2,-0.5,1.75,2.25\n0.25,0.75,-1.5,0.5\n"
)
FUZZ_MODEL = b"method=ridge\nrho=0.10000000000000001\nintercept=0.5\np=3\n1.5\n-0.25\n2\n"
FUZZ_COMMANDS = (
    ("fit", "--data", "data.csv", "--method", "pca", "--m", "2", "--out", "out"),
    ("fit", "--data", "data.csv", "--method", "ridge", "--rho", "0.1", "--out", "out"),
    ("predict", "--model", "model.txt", "--data", "data.csv", "--out", "out"),
    ("simulate", "--n", "5", "--sigma", "0.5", "--alpha", "2", "--spacing", "well",
     "--p", "4", "--terms", "3", "--out", "out"),
    ("diagnose", "--n", "8", "--alpha", "2", "--spacing", "well", "--j-max", "2",
     "--out", "out"),
    ("mc-table", "--spacing", "closely", "--sigma", "0.5", "--n", "8", "--alpha", "2",
     "--reps", "3", "--threads", "2", "--m-max", "2", "--rho-count", "2", "--out", "out"),
)
# Replacement argv tokens: all small, so no mutation asks for a large run.
FUZZ_VALUES = ("", "0", "-0", "-1", "1", "2", "0.5", "1e308", "1e309", "nan", "inf",
               "abc", "\ufeff2", "\udcff", "--out")
NUMBER = re.compile(rb"[-+0-9.e]+")


# Inserted bytes: invalid UTF-8, and characters that are not line ends
# (str.splitlines takes them for one): FF, VT, FS, NEL and U+2028.
INSERTS = {"utf8": b"\xff", "ff": b"\x0c", "vt": b"\x0b", "fs": b"\x1c",
           "nel": b"\xc2\x85", "ls": b"\xe2\x80\xa8"}


def mutate_bytes(text, kind, at):
    """One mutation of a data or model file's bytes, placed by ``at``."""
    if kind in INSERTS:
        return text[: at % (len(text) + 1)] + INSERTS[kind] + text[at % (len(text) + 1):]
    if kind == "bom":
        return b"\xef\xbb\xbf" + text
    if kind == "crlf":
        return text.replace(b"\n", b"\r\n")
    if kind == "truncate":
        return text[: at % (len(text) + 1)]
    cells = list(NUMBER.finditer(text))
    if not cells:
        return text
    cell = cells[at % len(cells)]
    value = {"empty": b"", "inf": b"1e309", "max": b"1e308", "negzero": b"-0",
             "separator": b"1_0", "arabic": "\u0663".encode(),
             "padded": b" \t" + cell.group() + b" ", "hex": b"0x2", "half": b"2.5",
             "nan": b"nan"}[kind]
    return text[: cell.start()] + value + text[cell.end():]


class TestCliFuzz:
    @given(
        command=st.sampled_from(FUZZ_COMMANDS),
        argv_edits=st.lists(
            st.tuples(st.integers(0, 30), st.none() | st.sampled_from(FUZZ_VALUES)),
            max_size=2,
        ),
        file_edits=st.lists(
            st.tuples(
                st.booleans(),
                st.sampled_from(("utf8", "bom", "crlf", "truncate", "empty", "inf",
                                 "max", "negzero", "separator", "arabic", "padded",
                                 "hex", "half", "nan", "ff", "vt", "fs", "nel", "ls")),
                st.integers(0, 400),
            ),
            max_size=3,
        ),
    )
    @settings(max_examples=120, deadline=None)
    def test_every_input_maps_to_a_documented_exit(self, command, argv_edits, file_edits):
        # Mutated argv tokens (None drops one) and file bytes: every run
        # exits 0/2/3/4/5 without a traceback or a numpy warning, a
        # data/numeric/I-O failure says so in one line, and a failed run
        # leaves nothing behind.
        argv = list(command)
        for at, value in argv_edits:
            if value is None:
                del argv[at % len(argv)]
            else:
                argv[at % len(argv)] = value
        files = {"data.csv": FUZZ_DATA, "model.txt": FUZZ_MODEL}
        for in_model, kind, at in file_edits:
            name = "model.txt" if in_model else "data.csv"
            files[name] = mutate_bytes(files[name], kind, at)
        with tempfile.TemporaryDirectory() as tmp, contextlib.chdir(tmp):
            for name, text in files.items():
                with open(name, "wb") as handle:
                    handle.write(text)
            err = io.StringIO()
            with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
                with warnings.catch_warnings():
                    warnings.simplefilter("error")
                    status = run(argv)
            left = sorted(os.listdir("."))
        err = err.getvalue()
        assert status in (0, 2, 3, 4, 5)
        assert "Traceback" not in err
        assert not [name for name in left if name.startswith(".flreg-")]
        if status != 0:
            assert left == sorted(files)
        if status in (3, 4, 5):
            assert err.count("\n") == 1, err
