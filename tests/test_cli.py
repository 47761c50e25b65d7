import json

import numpy as np
import pytest

from qtraj.cli import main


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

    def test_seed_required(self, het_model_file):
        assert main(["check", "--model", str(het_model_file)]) == 1


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


class TestUsage:
    def test_unknown_flag_exits_1(self):
        assert main(["simulate", "--bogus"]) == 1

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
