import json
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import qtraj
from qtraj import build_model, engine
from qtraj.cli import main
from qtraj.serialize import save_model


@pytest.fixture
def het_model_file(tmp_path):
    path = tmp_path / "het.json"
    c = 1.0 / np.sqrt(2.0)
    code = main(
        [
            "atom",
            "--detection",
            "heterodyne",
            "--alpha",
            json.dumps([[c, 0.0], [0.0, c]]),
            "--lambda-inner",
            "[0.0, 1.0]",
            "--output",
            str(path),
        ]
    )
    assert code == 0
    return path


@pytest.fixture
def degenerate_model_file(tmp_path):
    # H = 0, L = sigma_z: every diagonal state is stationary
    config = {
        "dimension": 2,
        "hamiltonian": [[[0.0, 0.0], [0.0, 0.0]], [[0.0, 0.0], [0.0, 0.0]]],
        "diffusive_ops": [[[[1.0, 0.0], [0.0, 0.0]], [[0.0, 0.0], [-1.0, 0.0]]]],
    }
    path = tmp_path / "sz.json"
    path.write_text(json.dumps(config))
    return path


def _never(what):
    def never(*args, **kwargs):
        raise AssertionError(f"ran {what} despite an input that fails")

    return never


class TestAtomCommand:
    def test_writes_model_file(self, het_model_file):
        config = json.loads(het_model_file.read_text())
        assert config["dimension"] == 2
        assert len(config["diffusive_ops"]) == 2

    def test_direct_detection(self, tmp_path):
        path = tmp_path / "d.json"
        code = main(
            [
                "atom",
                "--detection",
                "direct",
                "--alpha",
                "[[1.0, 0.0]]",
                "--lambda-inner",
                "[0.0, 1.0]",
                "--output",
                str(path),
            ]
        )
        assert code == 0
        config = json.loads(path.read_text())
        assert config["jump_channels"][0]["label"] == "count"

    def test_zero_rabi_exits_1(self, tmp_path):
        code = main(
            [
                "atom",
                "--detection",
                "heterodyne",
                "--alpha",
                "[[1.0, 0.0]]",
                "--lambda-inner",
                "[0.0, 0.0]",
                "--output",
                str(tmp_path / "x.json"),
            ]
        )
        assert code == 1

    def test_lambda_inner_object_exits_1(self, tmp_path, capsys):
        argv = ["atom", "--detection", "heterodyne", "--alpha", "[[1.0, 0.0]]"]
        argv += ["--lambda-inner", '{"a": 1}', "--output", str(tmp_path / "x.json")]
        assert main(argv) == 1
        assert "error: ValidationError" in capsys.readouterr().err


class TestSimulateCommand:
    def test_deterministic_output(self, het_model_file, tmp_path):
        args = [
            "simulate",
            "--model",
            str(het_model_file),
            "--mode",
            "posterior",
            "--t-final",
            "0.1",
            "--dt",
            "0.001",
            "--trajectories",
            "3",
            "--seed",
            "7",
        ]
        assert main(args + ["--output", str(tmp_path / "a")]) == 0
        assert main(args + ["--output", str(tmp_path / "b")]) == 0
        for name in ("trajectory.csv", "ensemble.csv"):
            a = (tmp_path / "a" / name).read_bytes()
            b = (tmp_path / "b" / name).read_bytes()
            assert a == b

    def test_metadata_header(self, het_model_file, tmp_path):
        assert (
            main(
                [
                    "simulate",
                    "--model",
                    str(het_model_file),
                    "--t-final",
                    "0.05",
                    "--dt",
                    "0.001",
                    "--seed",
                    "3",
                    "--output",
                    str(tmp_path / "o"),
                ]
            )
            == 0
        )
        first = (tmp_path / "o" / "ensemble.csv").read_text().splitlines()[0]
        for key in ("model_hash=", "seed=3", "dt=0.001", "version=", "command=simulate"):
            assert key in first

    def test_linear_mode(self, het_model_file, tmp_path):
        code = main(
            [
                "simulate",
                "--model",
                str(het_model_file),
                "--mode",
                "linear",
                "--t-final",
                "0.05",
                "--dt",
                "0.001",
                "--seed",
                "5",
                "--output",
                str(tmp_path / "lin"),
            ]
        )
        assert code == 0
        header = (tmp_path / "lin" / "trajectory.csv").read_text().splitlines()[1]
        assert "sigma00_re" in header and "weight" in header

    def test_zero_trajectories_leave_no_output(self, het_model_file, tmp_path, capsys):
        argv = ["simulate", "--model", str(het_model_file), "--t-final", "0.01", "--dt", "0.001",
                "--trajectories", "0", "--seed", "1", "--output", str(tmp_path / "o")]
        assert main(argv) == 1
        assert "error: ValidationError: n_traj must be >= 1" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()


class TestMasterAndEquilibrium:
    def test_master_path(self, het_model_file, tmp_path):
        code = main(
            [
                "master",
                "--model",
                str(het_model_file),
                "--t-final",
                "1.0",
                "--dt",
                "0.1",
                "--output",
                str(tmp_path),
            ]
        )
        assert code == 0
        lines = (tmp_path / "master.csv").read_text().splitlines()
        assert len(lines) == 2 + 11

    def test_equilibrium(self, het_model_file, tmp_path):
        assert (
            main(
                ["equilibrium", "--model", str(het_model_file), "--output", str(tmp_path)]
            )
            == 0
        )
        assert (tmp_path / "equilibrium.csv").exists()

    def test_degenerate_model_exits_2(self, tmp_path):
        # H = 0, L = sigma_z: every diagonal state is stationary
        config = {
            "dimension": 2,
            "hamiltonian": [[[0.0, 0.0], [0.0, 0.0]], [[0.0, 0.0], [0.0, 0.0]]],
            "diffusive_ops": [[[[1.0, 0.0], [0.0, 0.0]], [[0.0, 0.0], [-1.0, 0.0]]]],
        }
        path = tmp_path / "sz.json"
        path.write_text(json.dumps(config))
        code = main(["equilibrium", "--model", str(path), "--output", str(tmp_path)])
        assert code == 2

    def test_non_finite_model_exits_1(self, het_model_file, tmp_path, capsys):
        config = json.loads(het_model_file.read_text())
        config["hamiltonian"][0][0] = [float("nan"), 0.0]
        path = tmp_path / "nan.json"
        path.write_text(json.dumps(config))  # json writes and reads NaN
        code = main(["equilibrium", "--model", str(path), "--output", str(tmp_path)])
        assert code == 1
        assert "error: ValidationError" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "config",
        [
            {"dimension": 2, "jump_channels": [{"weight": 1.0, "kraus": [[[1, 0], [0, 1]]]}]},
            {"dimension": 2, "jump_channels": [{"label": "c", "weight": 1.0}]},
            {"dimension": "two", "hamiltonian": [[1, 0], [0, -1]]},
            {"dimension": 2, "hamiltonian": [[[1, 0, 3], 0], [0, -1]]},
            {"dimension": 2, "jump_channels": [{"label": "c", "weight": "x",
                                                "kraus": [[[1, 0], [0, 1]]]}]},
            {"dimension": 2, "hamiltonian": [["a", 0], [0, -1]]},
            {"dimension": 2, "diffusive_ops": 5},
            5,
            {"dimension": 2.7, "hamiltonian": [[1, 0], [0, -1]]},
            {"dimension": True, "hamiltonian": [[1]]},
            {"dimension": "2", "hamiltonian": [[1, 0], [0, -1]]},
        ],
        ids=["no_label", "no_kraus", "word_dimension", "three_entry_pair", "word_weight",
             "string_entry", "number_ops", "number", "fractional_dimension", "bool_dimension",
             "digit_string_dimension"],
    )
    def test_malformed_model_exits_1(self, config, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(config))
        code = main(["equilibrium", "--model", str(path), "--output", str(tmp_path)])
        assert code == 1
        assert capsys.readouterr().err.startswith("error: ConfigError")


class TestCheckCommand:
    def test_heterodyne_report(self, het_model_file, capsys):
        code = main(
            [
                "check",
                "--model",
                str(het_model_file),
                "--seed",
                "11",
                "--samples",
                "25",
                "--exceptional-point",
                "[[0.0, 0.0], [1.0, 0.0]]",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "pure_preserving=True" in out
        assert "obstruction_dim2=False" in out
        assert "purification_predicted=True" in out
        assert "ellipticity_elliptic=25" in out
        assert "point0_elliptic=False" in out
        assert "point0_lie_full=True" in out

    def test_zero_exceptional_point_exits_1(self, het_model_file, capsys):
        argv = ["check", "--model", str(het_model_file), "--seed", "1", "--samples", "2"]
        assert main(argv + ["--exceptional-point", "[[0, 0], [0, 0]]"]) == 1
        assert "error: ValidationError" in capsys.readouterr().err

    def test_exceptional_point_of_objects_exits_1(self, het_model_file, capsys):
        argv = ["check", "--model", str(het_model_file), "--seed", "1", "--samples", "2"]
        assert main(argv + ["--exceptional-point", '[{"a": 1}]']) == 1
        assert "error: ValidationError" in capsys.readouterr().err

    def test_dimension_one_exceptional_point_exits_1(self, tmp_path, capsys):
        path = tmp_path / "one.json"
        m = build_model({"dimension": 1, "hamiltonian": [[1.0]], "diffusive_ops": [[[1.0]]]})
        save_model(m, path)
        argv = ["check", "--model", str(path), "--seed", "1", "--samples", "2"]
        assert main(argv + ["--exceptional-point", "[[1, 0]]"]) == 1
        assert "error: ValidationError" in capsys.readouterr().err

    def test_seed_required(self, het_model_file):
        assert main(["check", "--model", str(het_model_file)]) == 1

    @pytest.mark.parametrize("points", [0, 1])
    def test_zero_lie_depth_exits_1_before_checking(
        self, points, het_model_file, monkeypatch, capsys
    ):
        def never(*args, **kwargs):
            raise AssertionError("checked despite a zero Lie depth")

        monkeypatch.setattr(qtraj.cli, "check_pure_preserving", never)
        argv = ["check", "--model", str(het_model_file), "--seed", "1", "--lie-depth", "0"]
        argv += ["--exceptional-point", "[[0.0, 0.0], [1.0, 0.0]]"] * points
        assert main(argv) == 1
        assert "error: ValidationError: max_depth must be >= 1" in capsys.readouterr().err

    @pytest.mark.parametrize("samples", ["0", "-3"])
    def test_bad_sample_count_exits_1_before_checking(
        self, samples, het_model_file, monkeypatch, capsys
    ):
        monkeypatch.setattr(qtraj.cli, "lie_rank_check", _never("the Lie-rank check"))
        monkeypatch.setattr(qtraj.cli, "check_ellipticity", _never("the ellipticity check"))
        argv = ["check", "--model", str(het_model_file), "--seed", "1", "--samples", samples,
                "--exceptional-point", "[[1, 0], [0, 0]]"]
        assert main(argv) == 1
        assert "error: ValidationError: n_samples must be >= 1" in capsys.readouterr().err

    def test_malformed_point_exits_1_before_checking(
        self, het_model_file, tmp_path, monkeypatch, capsys
    ):
        monkeypatch.setattr(qtraj.cli, "check_pure_preserving", _never("the checks"))
        argv = ["check", "--model", str(het_model_file), "--seed", "1", "--samples", "2000",
                "--exceptional-point", "[[0.0, 0.0], [1.0, 0.0]]",
                "--exceptional-point", "[[1, 0], [0]]", "--output", str(tmp_path / "o")]
        assert main(argv) == 1
        assert "error: ValidationError: cannot parse complex vector" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    def test_misfit_point_exits_1_before_sampling(
        self, het_model_file, tmp_path, monkeypatch, capsys
    ):
        # a point of the wrong dimension fails before the sampling, also on a
        # direct-detection model, which has no diffusive operators to check it with
        dir_model_file = tmp_path / "dir.json"
        assert main(["atom", "--detection", "direct", "--alpha", "[[1.0, 0.0]]",
                     "--lambda-inner", "[0.0, 1.0]", "--output", str(dir_model_file)]) == 0
        monkeypatch.setattr(qtraj.cli, "check_pure_preserving", _never("the sampling"))
        for path in (het_model_file, dir_model_file):
            argv = ["check", "--model", str(path), "--seed", "1", "--samples", "2000",
                    "--exceptional-point", "[[1, 0], [0, 0], [0, 0]]"]
            assert main(argv) == 1
            assert "error: DimensionMismatch" in capsys.readouterr().err


class TestInvariantCommand:
    def test_runs_and_writes(self, het_model_file, tmp_path):
        code = main(
            [
                "invariant",
                "--model",
                str(het_model_file),
                "--t-final",
                "2.0",
                "--dt",
                "0.001",
                "--seed",
                "13",
                "--burn-in",
                "0.5",
                "--bins-polar",
                "6",
                "--bins-azimuth",
                "8",
                "--output",
                str(tmp_path / "inv"),
            ]
        )
        assert code == 0
        hist = (tmp_path / "inv" / "histogram.csv").read_text().splitlines()
        assert len(hist) == 2 + 6 * 8
        report = (tmp_path / "inv" / "ergodic.txt").read_text()
        assert "distance_to_equilibrium=" in report
        assert "sigma_z_residual=" in report
        assert "time_average_entropy=" in report and "final_entropy" not in report

    def test_degenerate_model_exits_2_before_integrating(
        self, degenerate_model_file, tmp_path, monkeypatch, capsys
    ):
        monkeypatch.setattr(qtraj.cli, "simulate_posterior", _never("the integration"))
        argv = ["invariant", "--model", str(degenerate_model_file), "--t-final", "10",
                "--dt", "0.001", "--seed", "1", "--output", str(tmp_path / "inv")]
        assert main(argv) == 2
        assert "error: NonUniqueEquilibrium" in capsys.readouterr().err
        assert not (tmp_path / "inv").exists()

    def test_failed_trajectory_exits_2_and_writes_nothing(
        self, het_model_file, tmp_path, monkeypatch, capsys
    ):
        kernel = engine._step_posterior

        def poisoned(arr, x, *args):
            out = kernel(arr, x, *args)
            out[0][:] = np.nan
            return out

        monkeypatch.setattr(engine, "_step_posterior", poisoned)
        argv = ["invariant", "--model", str(het_model_file), "--t-final", "0.1", "--dt", "0.001",
                "--seed", "13", "--output", str(tmp_path / "inv")]
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert "error: NumericalError: the posterior trajectory of seed 13 is not finite" in err
        assert not (tmp_path / "inv").exists()

    @pytest.mark.parametrize("burn_in", ["30", "20", "nan"])
    def test_bad_burn_in_exits_1_before_integrating(
        self, burn_in, het_model_file, tmp_path, monkeypatch, capsys
    ):
        def never(*args, **kwargs):
            raise AssertionError("integrated despite a bad burn-in")

        monkeypatch.setattr(qtraj.cli, "simulate_posterior", never)
        argv = ["invariant", "--model", str(het_model_file), "--t-final", "20", "--dt", "0.01",
                "--seed", "13", "--burn-in", burn_in, "--output", str(tmp_path / "inv")]
        assert main(argv) == 1
        err = capsys.readouterr().err
        assert "error: EmptyAverageWindow" in err
        assert f"burn_in {float(burn_in)}" in err

    @pytest.mark.parametrize("option", ["--bins-polar", "--bins-azimuth"])
    def test_empty_grid_exits_1_before_integrating(
        self, option, het_model_file, tmp_path, monkeypatch, capsys
    ):
        def never(*args, **kwargs):
            raise AssertionError("integrated despite an empty histogram grid")

        monkeypatch.setattr(qtraj.cli, "simulate_posterior", never)
        argv = ["invariant", "--model", str(het_model_file), "--t-final", "20", "--dt", "0.01",
                "--seed", "13", option, "0", "--output", str(tmp_path / "inv")]
        assert main(argv) == 1
        err = capsys.readouterr().err
        assert "error: ValidationError: histogram grid must be at least 1x1" in err


class TestSeeds:
    """A seed outside the Philox keys [0, 2^128) is a typed input error."""

    @pytest.mark.parametrize("command", ["simulate", "invariant", "check"])
    def test_negative_seed_exits_1(self, command, het_model_file, tmp_path, capsys):
        argv = [command, "--model", str(het_model_file), "--seed", "-1"]
        if command != "check":
            argv += ["--t-final", "0.01", "--dt", "0.001", "--output", str(tmp_path / "o")]
        assert main(argv) == 1
        assert "error: ValidationError" in capsys.readouterr().err

    def test_last_key_beyond_range_exits_1(self, het_model_file, tmp_path, capsys):
        argv = ["simulate", "--model", str(het_model_file), "--seed", str(2**128 - 1),
                "--t-final", "0.01", "--dt", "0.001", "--output", str(tmp_path / "o")]
        assert main(argv) == 0
        assert main(argv + ["--trajectories", "2"]) == 1
        assert "error: ValidationError" in capsys.readouterr().err


# each command's option strings, as its help lists them
OPTIONS = {
    "simulate": ["--model", "--mode", "--t-final", "--dt", "--trajectories", "--seed",
                 "--initial", "--output"],
    "master": ["--model", "--t-final", "--dt", "--initial", "--output"],
    "equilibrium": ["--model", "--output"],
    "check": ["--model", "--seed", "--samples", "--lie-depth", "--exceptional-point", "--output"],
    "invariant": ["--model", "--t-final", "--dt", "--seed", "--burn-in", "--bins-polar",
                  "--bins-azimuth", "--initial", "--polar-axis", "--output"],
    "atom": ["--detection", "--delta-omega", "--alpha", "--lambda-inner", "--output"],
}


class TestUsage:
    def test_unknown_flag_exits_1(self):
        assert main(["simulate", "--bogus"]) == 1

    @pytest.mark.parametrize("command", OPTIONS)
    def test_help_exits_0_and_lists_the_options(self, command, capsys):
        assert main([command, "--help"]) == 0
        listed = set(re.findall(r"(?<![\w-])--?[a-z][a-z-]*", capsys.readouterr().out))
        assert listed == {"-h", "--help", *OPTIONS[command]}

    def test_version_exits_0(self, capsys):
        assert main(["--version"]) == 0
        assert capsys.readouterr().out == f"qtraj {qtraj.__version__}\n"

    def test_missing_model_exits_1(self, tmp_path):
        code = main(
            [
                "simulate",
                "--model",
                str(tmp_path / "missing.json"),
                "--t-final",
                "1",
                "--dt",
                "0.1",
                "--seed",
                "1",
            ]
        )
        assert code == 1

    def test_non_integer_threads_exits_1(self, het_model_file, tmp_path, monkeypatch, capsys):
        monkeypatch.setenv("QTRAJ_THREADS", "two")
        code = main(
            [
                "simulate",
                "--model",
                str(het_model_file),
                "--t-final",
                "0.01",
                "--dt",
                "0.001",
                "--seed",
                "1",
                "--output",
                str(tmp_path / "o"),
            ]
        )
        assert code == 1
        assert "QTRAJ_THREADS" in capsys.readouterr().err

    def test_threads_below_one_exits_1(self, het_model_file, tmp_path, monkeypatch, capsys):
        monkeypatch.setenv("QTRAJ_THREADS", "0")
        argv = ["simulate", "--model", str(het_model_file), "--t-final", "0.01",
                "--dt", "0.001", "--seed", "1", "--output", str(tmp_path / "o")]
        assert main(argv) == 1
        assert "QTRAJ_THREADS must be at least 1" in capsys.readouterr().err


COLD_START = """
import sys

import qtraj
from qtraj.cli import main

model, out = sys.argv[1:]
assert main(["master", "--model", model, "--t-final", "1", "--dt", "0.1", "--output", out]) == 0
argv = ["check", "--model", model, "--seed", "1", "--samples", "5"]
assert main(argv + ["--exceptional-point", "[[0, 0], [1, 0]]"]) == 0
print(sorted(name for name in sys.modules if name.split(".")[0] == "scipy"))
"""


class TestColdStart:
    def test_master_and_check_never_import_scipy(self, het_model_file, tmp_path):
        # a fresh interpreter: this one has scipy loaded by other tests
        env = dict(os.environ)
        src = str(Path(qtraj.__file__).resolve().parents[1])
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
        run = subprocess.run(
            [sys.executable, "-c", COLD_START, str(het_model_file), str(tmp_path)],
            capture_output=True, text=True, env=env, timeout=120,
        )
        assert run.returncode == 0, run.stderr
        assert run.stdout.splitlines()[-1] == "[]"


class TestModuleEntry:
    def test_python_m_writes_the_model(self, tmp_path):
        # ``python -m qtraj.cli`` runs the command, as the console script does
        env = dict(os.environ)
        src = str(Path(qtraj.__file__).resolve().parents[1])
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
        path = tmp_path / "d.json"
        argv = ["atom", "--detection", "direct", "--alpha", "[[1, 0]]", "--lambda-inner", "[0, 1]"]
        run = subprocess.run(
            [sys.executable, "-m", "qtraj.cli", *argv, "--output", str(path)],
            capture_output=True, text=True, env=env, timeout=120,
        )
        assert run.returncode == 0, run.stderr
        assert json.loads(path.read_text())["jump_channels"][0]["label"] == "count"
