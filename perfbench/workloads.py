"""The three benchmark workloads: inputs from a seed, the timed calls, checks.

Every workload builds its inputs from the seed in ``setup`` (counted in the
set-up time), makes the calls a user would make in ``run`` (the timed
part), and verifies the outputs in ``check`` (not timed).  The checks hold
for any correct scheme: they compare with the master equation and with
acceptance-style invariants, never with bit-exact paths.

Statistical checks run on a fresh seed every time, with several comparisons
per run, so a bound of 3 standard errors per comparison would fail a
correct scheme in roughly one run in twenty.  They use ``Z_SE`` = 4.5
standard errors instead, which keeps the family-wise false-alarm rate of a
run below about 1e-4.
"""

from __future__ import annotations

import math
import os

import numpy as np

import qtraj
from qtraj import cli
from qtraj.errors import QtrajError
from qtraj.serialize import load_model

DT = 1e-3
Z_SE = 4.5
STATE_TOL = 1e-9

# Philox keys are seed + trajectory index, so the workload seed is spread out
# to keep the trajectories of different workload seeds disjoint.
_SEED_STRIDE = 1 << 20


def _ensemble_seed(seed: int) -> int:
    return int(seed) * _SEED_STRIDE


def state_defects(mats: np.ndarray, trace=None) -> dict:
    """Worst Hermiticity, trace and positivity defects of a stack of matrices.

    ``trace`` is the expected trace of each matrix (1 for states).
    """
    mats = np.asarray(mats)
    herm = float(np.abs(mats - mats.conj().transpose(0, 2, 1)).max())
    tr = np.einsum("tii->t", mats).real
    target = np.ones_like(tr) if trace is None else np.asarray(trace, dtype=float)
    evals = np.linalg.eigvalsh(0.5 * (mats + mats.conj().transpose(0, 2, 1)))
    return {
        "hermitian": herm,
        "trace": float(np.abs(tr - target).max()),
        "negative_eigenvalue": float(max(0.0, -evals.min())),
    }


def _states_ok(defects: dict) -> bool:
    return all(v <= STATE_TOL for v in defects.values())


def _read_csv_states(path: str, prefix: str) -> np.ndarray:
    """State columns ``<prefix>ij_re``/``_im`` of a qtraj CSV, as (t, n, n)."""
    with open(path) as fh:
        fh.readline()
        header = fh.readline().strip().split(",")
    data = np.loadtxt(path, delimiter=",", skiprows=2, ndmin=2)
    re_cols = [i for i, h in enumerate(header) if h.startswith(prefix) and h.endswith("_re")]
    n = int(round(math.sqrt(len(re_cols))))
    vals = data[:, re_cols] + 1j * data[:, [i + 1 for i in re_cols]]
    return vals.reshape(-1, n, n)


def _read_report(path: str) -> dict:
    out = {}
    with open(path) as fh:
        for line in fh:
            if line.startswith("#") or "=" not in line:
                continue
            key, _, value = line.strip().partition("=")
            out[key] = value
    return out


def _dir_bytes(path: str) -> int:
    return sum(os.path.getsize(os.path.join(path, f)) for f in sorted(os.listdir(path)))


def _atom_argv(detection: str, alpha: str, lambda_inner: str, path: str) -> list[str]:
    return [
        "atom", "--detection", detection, "--alpha", alpha,
        "--lambda-inner", lambda_inner, "--output", path,
    ]


class Outcome:
    """Result of one output check: verdict, failure count and exact counts."""

    def __init__(self, attempted: int):
        self.attempted = attempted
        self.failed = 0
        self.problems: list[str] = []
        self.counts: dict = {}
        self.details: dict = {}

    def require(self, ok: bool, problem: str) -> None:
        if not ok:
            self.problems.append(problem)

    @property
    def ok(self) -> bool:
        return not self.problems

    def as_dict(self) -> dict:
        failed = self.attempted if self.problems else self.failed
        return {
            "ok": self.ok,
            "attempted": self.attempted,
            "failed": failed,
            "problems": self.problems,
            "counts": self.counts,
            "details": self.details,
        }


class EnsembleDiffusive:
    """``run_ensemble`` in the three modes, two blocks of 512 per mode."""

    name = "ensemble_diffusive"

    def __init__(self, seed: int, quick: bool):
        self.seed = _ensemble_seed(seed)
        self.n_traj = 520 if quick else 1024
        self.t_final = 0.02 if quick else 0.25

    def setup(self, work_dir: str) -> None:
        het = qtraj.generate_atom_model(qtraj.standard_heterodyne(linewidth=0.2, rabi=1.0))
        hom = qtraj.generate_atom_model(qtraj.standard_homodyne(linewidth=1.0, rabi=2.0))
        mixed = qtraj.QuantumState(np.eye(2, dtype=complex) / 2)
        excited = qtraj.QuantumState(np.diag([1.0, 0.0]).astype(complex))
        self.grid = qtraj.TimeGrid(t_final=self.t_final, dt=DT)
        self.cases = [
            ("linear", het, mixed),
            ("posterior", het, mixed),
            ("stratonovich", hom, excited),
        ]
        self.requested_traj_steps = len(self.cases) * self.n_traj * self.grid.n_steps
        self.attempted = len(self.cases) * self.n_traj

    def run(self) -> None:
        self.results = {}
        for mode, model, rho0 in self.cases:
            try:
                self.results[mode] = qtraj.run_ensemble(
                    model, rho0, self.grid, n_traj=self.n_traj, seed=self.seed, mode=mode
                )
            except QtrajError as exc:
                self.results[mode] = exc

    def check(self, probe) -> Outcome:
        out = Outcome(self.attempted)
        checkpoints = [self.t_final * k / 5 for k in range(1, 6)]
        for mode, model, rho0 in self.cases:
            stats = self.results[mode]
            if isinstance(stats, QtrajError):
                out.failed += self.n_traj
                out.require(False, f"{mode}: {type(stats).__name__}: {stats}")
                continue
            out.failed += stats.n_failed
            out.counts[f"{mode}.n_failed"] = stats.n_failed
            out.counts[f"{mode}.n_underflow"] = stats.n_underflow
            out.require(stats.n_failed == 0, f"{mode}: {stats.n_failed} trajectories failed")

            trace = stats.mean_weight if mode == "linear" else None
            defects = state_defects(stats.mean_state, trace)
            out.details[f"{mode}.state_defects"] = defects
            out.require(_states_ok(defects), f"{mode}: mean state defects {defects}")

            if mode in ("linear", "posterior"):
                etas = qtraj.evolve_master(model, rho0, checkpoints)
                worst = 0.0
                for t, eta in zip(checkpoints, etas):
                    i = stats.index_of_time(t)
                    diff = np.abs(stats.mean_state[i] - eta.matrix)
                    se = np.sqrt(stats.se_state_re[i] ** 2 + stats.se_state_im[i] ** 2)
                    worst = max(worst, float((diff / np.maximum(se, 1e-12)).max()))
                out.details[f"{mode}.mean_state_worst_se"] = worst
                out.require(worst <= Z_SE, f"{mode}: mean state {worst:.2f} SE from master")
            if mode == "linear":
                worst = 0.0
                for t in checkpoints:
                    i = stats.index_of_time(t)
                    se = float(stats.se_weight[i])
                    worst = max(worst, abs(float(stats.mean_weight[i]) - 1.0) / max(se, 1e-12))
                    out.require(se < 0.05, f"linear: weight SE {se:.3g} at t={t}")
                out.details["linear.weight_worst_se"] = worst
                out.require(worst <= Z_SE, f"linear: weight martingale off by {worst:.2f} SE")
            if mode == "stratonovich":
                defect = float(np.nanmax(stats.max_purity_defect_per_traj))
                entropy = float(np.nanmax(stats.max_entropy_per_traj))
                out.details["stratonovich.purity_defect_max"] = defect
                out.details["stratonovich.path_entropy_max"] = entropy
                out.require(defect <= 10 * DT, f"stratonovich: purity defect {defect:.3g}")
                out.require(entropy <= 1e-6, f"stratonovich: path entropy {entropy:.3g}")
        out.counts["bytes_written"] = 0
        return out


class TrajectoryErgodic:
    """``qtraj invariant``, ``qtraj master`` and ``qtraj check`` on one atom.

    The trajectory runs at dt = 1e-2 so that the acceptance horizon (T = 200,
    burn-in 20) fits in a few seconds; the per-step cost does not depend on
    dt.  The ergodic tolerances are three times the acceptance ones
    (distance 0.05, residual 5% of the variance): at this horizon their
    seed-to-seed spread is about 0.012 and 0.017, so the acceptance values
    themselves fail a correct scheme on a few seeds in a hundred.
    """

    name = "trajectory_ergodic"
    dt = 1e-2
    tol_factor = 3.0

    def __init__(self, seed: int, quick: bool):
        self.seed = int(seed)
        self.t_final = 30.0 if quick else 200.0
        self.burn_in = 3.0 if quick else 20.0

    def setup(self, work_dir: str) -> None:
        self.model_path = os.path.join(work_dir, "heterodyne.json")
        self.out_dir = os.path.join(work_dir, "out")
        # standard_heterodyne(linewidth=2, rabi=1): alpha = (1, i), <alpha|lambda> = i/2
        code = cli.main(_atom_argv("heterodyne", "[[1, 0], [0, 1]]", "[0, 0.5]", self.model_path))
        if code != 0:
            raise RuntimeError(f"qtraj atom exited with {code}")
        self.n_steps = qtraj.TimeGrid(t_final=self.t_final, dt=self.dt).n_steps
        self.requested_traj_steps = self.n_steps
        self.attempted = 1

    def run(self) -> None:
        common = ["--model", self.model_path, "--output", self.out_dir]
        self.codes = [
            cli.main(
                ["invariant", *common, "--t-final", repr(self.t_final), "--dt", repr(self.dt),
                 "--seed", str(self.seed), "--burn-in", repr(self.burn_in)]
            ),
            cli.main(["master", *common, "--t-final", "20", "--dt", "0.01", "--initial", "ground"]),
            cli.main(
                ["check", *common, "--seed", str(self.seed),
                 "--exceptional-point", "[[0, 0], [1, 0]]"]
            ),
        ]

    def check(self, probe) -> Outcome:
        out = Outcome(self.attempted)
        if any(self.codes):
            out.failed = 1
            out.require(False, f"exit codes {self.codes}")
            return out
        ergodic = _read_report(os.path.join(self.out_dir, "ergodic.txt"))
        dist = float(ergodic["distance_to_equilibrium"])
        lhs = float(ergodic["sigma_z_lhs"])
        residual = abs(float(ergodic["sigma_z_residual"]))
        res_tol = self.tol_factor * 0.05 * max(lhs, 0.01)
        out.details.update(distance=dist, residual=residual, residual_tol=res_tol)
        out.require(dist <= self.tol_factor * 0.05, f"distance to equilibrium {dist:.4g}")
        out.require(residual <= res_tol, f"variance residual {residual:.4g} > {res_tol:.4g}")

        checks = _read_report(os.path.join(self.out_dir, "check.txt"))
        out.details["lie_rank"] = checks.get("point0_lie_rank")
        out.require(checks.get("point0_lie_full") == "True", "Lie rank not full at ground")

        hist = np.loadtxt(
            os.path.join(self.out_dir, "histogram.csv"), delimiter=",", skiprows=2, ndmin=2
        )
        times = np.arange(self.n_steps + 1) * self.dt
        samples = int((times >= self.burn_in).sum())
        out.require(int(hist[:, 3].sum()) == samples, "histogram count != samples")
        out.require(
            int((hist[:, 3] > 0).sum()) == int(ergodic["bins_occupied"]),
            "histogram occupancy disagrees with the report",
        )

        states = _read_csv_states(os.path.join(self.out_dir, "master.csv"), "eta")
        defects = state_defects(states)
        out.details["master.state_defects"] = defects
        out.require(_states_ok(defects), f"master states defects {defects}")

        out.counts["bins_occupied"] = int(ergodic["bins_occupied"])
        out.counts["bytes_written"] = _dir_bytes(self.out_dir)
        return out


class EnsembleJumps:
    """``qtraj simulate --mode posterior`` on a high-rate direct-detection atom.

    At linewidth 300 and Rabi 1000 the posterior scheme undercounts jumps
    against the master equation by about 1% at dt = 1e-3 (a first-order
    discretization error that shrinks with the substep).  At 1024
    trajectories that is about 2 standard errors, so the jump-count check
    adds a 2% discretization allowance to its ``Z_SE`` bound and reports the
    measured relative bias in every run.
    """

    name = "ensemble_jumps"
    bias_allowance = 0.02

    def __init__(self, seed: int, quick: bool):
        self.seed = _ensemble_seed(seed)
        self.n_traj = 520 if quick else 1024
        self.t_final = 0.02 if quick else 0.2

    def setup(self, work_dir: str) -> None:
        self.model_path = os.path.join(work_dir, "direct.json")
        self.out_dir = os.path.join(work_dir, "out")
        # standard_direct(linewidth=300, rabi=1000): alpha = sqrt(300), <alpha|lambda> = 500i
        alpha = f"[[{math.sqrt(300.0)!r}, 0]]"
        code = cli.main(_atom_argv("direct", alpha, "[0, 500]", self.model_path))
        if code != 0:
            raise RuntimeError(f"qtraj atom exited with {code}")
        self.grid = qtraj.TimeGrid(t_final=self.t_final, dt=DT)
        self.requested_traj_steps = self.n_traj * self.grid.n_steps
        self.attempted = self.n_traj

    def run(self) -> None:
        self.code = cli.main(
            ["simulate", "--model", self.model_path, "--mode", "posterior",
             "--t-final", repr(self.t_final), "--dt", repr(DT),
             "--trajectories", str(self.n_traj), "--seed", str(self.seed),
             "--initial", "mixed", "--output", self.out_dir]
        )

    def check(self, probe) -> Outcome:
        out = Outcome(self.attempted)
        if self.code != 0 or len(probe.ensembles) != 1:
            out.failed = self.n_traj
            out.require(False, f"exit code {self.code}, {len(probe.ensembles)} ensembles")
            return out
        stats = probe.ensembles[0]
        out.failed = stats.n_failed
        out.require(stats.n_failed == 0, f"{stats.n_failed} trajectories failed")

        model, _ = load_model(self.model_path)
        mixed = qtraj.QuantumState(np.eye(2, dtype=complex) / 2)
        etas = qtraj.evolve_master(model, mixed, self.grid.times)
        channel = model.jump_channels[0]
        effect = channel.effect()
        rates = np.array([float(np.trace(effect @ e.matrix).real) for e in etas])
        expected = float(np.trapezoid(rates, self.grid.times)) * channel.weight
        mean = float(stats.jump_count_mean[0])
        se = float(stats.jump_count_se[0])
        out.details.update(
            jumps_mean=mean, jumps_se=se, jumps_expected=expected,
            jumps_relative_bias=(mean - expected) / expected,
        )
        out.require(
            abs(mean - expected) <= Z_SE * se + self.bias_allowance * expected,
            f"mean jump count {mean:.4f} +- {se:.4f} vs master {expected:.4f}",
        )

        ens = _read_csv_states(os.path.join(self.out_dir, "ensemble.csv"), "mean")
        traj = _read_csv_states(os.path.join(self.out_dir, "trajectory.csv"), "rho")
        for label, states in (("ensemble", ens), ("trajectory", traj)):
            defects = state_defects(states)
            out.details[f"{label}.state_defects"] = defects
            out.require(_states_ok(defects), f"{label} state defects {defects}")

        n_alive = stats.n_traj - stats.n_failed
        out.counts["n_failed"] = stats.n_failed
        out.counts["jumps_total"] = int(round(mean * n_alive))
        out.counts["bytes_written"] = _dir_bytes(self.out_dir)
        return out


WORKLOADS = {w.name: w for w in (EnsembleDiffusive, TrajectoryErgodic, EnsembleJumps)}
