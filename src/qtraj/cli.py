"""Command-line orchestration.

Subcommands: simulate, master, equilibrium, check, invariant, atom.  Every
stochastic command requires --seed; outputs carry a metadata header line
sufficient to reproduce the run.  Every command runs in one order: it checks
all its inputs, computes all its results, and only then creates --output and
writes, so a failing command costs no integration and leaves no file.  Exit
codes: 0 success, 1 validation or usage error, 2 numerical failure.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

import numpy as np

from . import __version__
from .analysis import (
    PAULI_Z,
    _check_burn_in,
    _check_grid,
    build_ergodic_report,
    empirical_invariant_measure,
    lie_rank_check,
    linear_entropy,
)
from .atom import DETECTIONS, TwoLevelAtomSpec, generate_atom_model
from .engine import (
    MODES,
    RNG_ALGORITHM,
    TimeGrid,
    run_ensemble,
    simulate_posterior,
)
from .errors import DimensionMismatch, NumericalError, ValidationError
from .linalg import PureStateVector, QuantumState, _count, _philox, haar_random_state_vector
from .master import equilibrium, evolve_master
from .model import (
    check_ellipticity,
    check_pure_preserving,
    check_purification_obstruction_dim2,
)
from .serialize import (
    _base_metadata,
    format_report,
    load_model,
    save_model,
    write_ensemble_csv,
    write_histogram_csv,
    write_report,
    write_states_csv,
    write_trajectory_csv,
)


def _pure(vec: np.ndarray) -> np.ndarray:
    return np.outer(vec, vec.conj())


# initial density matrices by name, in the order --initial lists them
_INITIAL = {
    "mixed": lambda dim: np.eye(dim) / dim,
    "ground": lambda dim: _pure(np.eye(dim)[-1]),
    "excited": lambda dim: _pure(np.eye(dim)[0]),
    "plus": lambda dim: _pure(np.ones(dim) / np.sqrt(dim)),
}


def _initial_state(name: str, dim: int) -> QuantumState:
    """The named initial state; argparse admits only the table's names."""
    return QuantumState(_INITIAL[name](dim))


def _parse_complex(text: str, vector: bool = False):
    """JSON [re, im] as a complex number, or [[re, im], ...] as a vector."""
    try:
        value = json.loads(text)
        pairs = value if vector else [value]
        z = np.array([complex(p[0], p[1]) for p in pairs], dtype=np.complex128)
    except (json.JSONDecodeError, TypeError, IndexError, KeyError) as exc:
        form = "vector" if vector else "number"
        expected = "[[re, im], ...]" if vector else "[re, im]"
        raise ValidationError(
            f"cannot parse complex {form} {text!r}; expected JSON {expected}"
        ) from exc
    return z if vector else complex(z[0])


def _unit_vector(text: str, dim: int) -> PureStateVector:
    """An --exceptional-point, normalized, for a model of dimension ``dim``."""
    vec = _parse_complex(text, vector=True)
    nrm = np.linalg.norm(vec)
    if not 0.0 < nrm < np.inf:
        raise ValidationError(f"exceptional point {text!r} is not a nonzero finite vector")
    if vec.shape[0] != dim:
        raise DimensionMismatch(f"exceptional point {text!r} does not have dimension {dim}")
    return PureStateVector(vec / nrm)


def _out_dir(args) -> Path:
    out = Path(args.output)
    out.mkdir(parents=True, exist_ok=True)
    return out


def cmd_simulate(args) -> int:
    model, mhash = load_model(args.model)
    grid = TimeGrid(t_final=args.t_final, dt=args.dt)
    rho0 = _initial_state(args.initial, model.dim)
    stats = run_ensemble(
        model, rho0, grid, n_traj=args.trajectories, seed=args.seed, mode=args.mode
    )
    meta = _base_metadata(
        "simulate", mhash, mode=args.mode, seed=args.seed, dt=args.dt, t_final=args.t_final,
        trajectories=args.trajectories, initial=args.initial, rng=RNG_ALGORITHM,
    )
    out = _out_dir(args)
    write_ensemble_csv(out / "ensemble.csv", stats, meta)
    write_trajectory_csv(out / "trajectory.csv", stats.trajectory, meta)
    print(f"wrote {out / 'ensemble.csv'} and {out / 'trajectory.csv'}")
    return 0


def cmd_master(args) -> int:
    model, mhash = load_model(args.model)
    grid = TimeGrid(t_final=args.t_final, dt=args.dt)
    rho0 = _initial_state(args.initial, model.dim)
    states = evolve_master(model, rho0, grid.times)
    meta = _base_metadata(
        "master", mhash, dt=args.dt, t_final=args.t_final, initial=args.initial
    )
    out = _out_dir(args)
    write_states_csv(out / "master.csv", grid.times, states, meta)
    print(f"wrote {out / 'master.csv'}")
    return 0


def cmd_equilibrium(args) -> int:
    model, mhash = load_model(args.model)
    eta = equilibrium(model)
    meta = _base_metadata("equilibrium", mhash)
    out = _out_dir(args)
    write_states_csv(out / "equilibrium.csv", [0.0], [eta], meta)
    print(f"wrote {out / 'equilibrium.csv'}")
    return 0


def cmd_check(args) -> int:
    model, mhash = load_model(args.model)
    _count(args.lie_depth, "max_depth")
    _count(args.samples, "n_samples")
    points = [_unit_vector(text, model.dim) for text in args.exceptional_point or []]
    at_points: dict = {}  # before the sampling, so a misfit point costs none of it
    for i, psi in enumerate(points if model.n_diffusive else []):
        at_points[f"point{i}_elliptic"] = check_ellipticity(model, psi).elliptic
        rank = lie_rank_check(model, psi, max_depth=args.lie_depth)
        at_points[f"point{i}_lie_rank"] = rank.rank
        at_points[f"point{i}_lie_full"] = rank.full
    lines: dict = {}
    pure = check_pure_preserving(model, n_samples=args.samples, rng_seed=args.seed)
    lines["pure_preserving"] = pure.verdict
    lines["pure_preserving_witnesses"] = len(pure.witnesses)
    if model.dim == 2:
        obst = check_purification_obstruction_dim2(model)
        lines["obstruction_dim2"] = obst.obstruction_exists
        lines["purification_predicted"] = (
            pure.verdict and not obst.obstruction_exists
        )
    if model.n_diffusive:
        rng = _philox(args.seed)
        n_elliptic = 0
        for _ in range(args.samples):
            psi = PureStateVector(haar_random_state_vector(model.dim, rng))
            if check_ellipticity(model, psi).elliptic:
                n_elliptic += 1
        lines["ellipticity_samples"] = args.samples
        lines["ellipticity_elliptic"] = n_elliptic
    lines.update(at_points)
    meta = _base_metadata("check", mhash, seed=args.seed, samples=args.samples)
    if args.output:
        out = _out_dir(args)
        write_report(out / "check.txt", lines, meta)
        print(f"wrote {out / 'check.txt'}")
    else:
        print(format_report(lines))
    return 0


_AXES = {
    "x": np.array([1.0, 0.0, 0.0]),
    "y": np.array([0.0, 1.0, 0.0]),
    "z": np.array([0.0, 0.0, 1.0]),
}


def cmd_invariant(args) -> int:
    model, mhash = load_model(args.model)
    grid = TimeGrid(t_final=args.t_final, dt=args.dt)
    _check_burn_in(args.burn_in, grid.t_final)
    _check_grid((args.bins_polar, args.bins_azimuth))
    rho0 = _initial_state(args.initial, model.dim)
    eta = equilibrium(model)  # a model without a unique one fails before integrating
    traj = simulate_posterior(model, rho0, grid, seed=args.seed)
    hist = empirical_invariant_measure(
        traj,
        grid=(args.bins_polar, args.bins_azimuth),
        burn_in=args.burn_in,
        polar_axis=_AXES[args.polar_axis],
    )
    report = build_ergodic_report(traj, eta, {"sigma_z": PAULI_Z}, burn_in=args.burn_in)
    decomp = report.variance_decomposition["sigma_z"]
    lines = {
        "distance_to_equilibrium": f"{report.distance:.6e}",
        "time_average_entropy": f"{linear_entropy(report.time_avg_state):.6e}",
        "bins_occupied": int((hist.counts > 0).sum()),
        "bins_total": hist.grid[0] * hist.grid[1],
        "mixed_samples": hist.mixed_samples,
        "sigma_z_lhs": f"{decomp.lhs:.6e}",
        "sigma_z_term1": f"{decomp.term1:.6e}",
        "sigma_z_term2": f"{decomp.term2:.6e}",
        "sigma_z_residual": f"{decomp.residual:.6e}",
    }
    meta = _base_metadata(
        "invariant", mhash, seed=args.seed, dt=args.dt, t_final=args.t_final,
        burn_in=args.burn_in, rng=RNG_ALGORITHM,
    )
    out = _out_dir(args)
    write_histogram_csv(out / "histogram.csv", hist, meta)
    write_report(out / "ergodic.txt", lines, meta)
    print(f"wrote {out / 'histogram.csv'} and {out / 'ergodic.txt'}")
    return 0


def cmd_atom(args) -> int:
    spec = TwoLevelAtomSpec(
        delta_omega=args.delta_omega,
        alpha=tuple(_parse_complex(args.alpha, vector=True)),
        lambda_inner=_parse_complex(args.lambda_inner),
        detection=args.detection,
    )
    model = generate_atom_model(spec)
    mhash = save_model(model, args.output)
    print(f"wrote {args.output} (hash {mhash})")
    return 0


def _command(sub, name, func, help, model=True, grid=False, seed=False, initial=None,
             **output):
    """A subcommand with the shared options it takes: --model, --t-final and
    --dt with ``grid``, --seed, --initial with its default, and --output with
    the keywords ``output`` (default ".")."""
    cmd = sub.add_parser(name, help=help)
    if model:
        cmd.add_argument("--model", required=True)
    if grid:
        cmd.add_argument("--t-final", type=float, required=True)
        cmd.add_argument("--dt", type=float, required=True)
    if seed:
        cmd.add_argument("--seed", type=int, required=True)
    if initial:
        cmd.add_argument("--initial", default=initial, choices=_INITIAL)
    cmd.add_argument("--output", **(output or {"default": "."}))
    cmd.set_defaults(func=func)
    return cmd


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="qtraj", description=__doc__)
    parser.add_argument("--version", action="version", version=f"qtraj {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    sim = _command(sub, "simulate", cmd_simulate, "integrate trajectories and aggregate them",
                   grid=True, seed=True, initial="mixed")
    sim.add_argument("--mode", choices=MODES, default="posterior")
    sim.add_argument("--trajectories", type=int, default=1)

    _command(sub, "master", cmd_master, "deterministic a-priori evolution",
             grid=True, initial="mixed")
    _command(sub, "equilibrium", cmd_equilibrium, "stationary state of the master equation")

    chk = _command(sub, "check", cmd_check, "structural checks of a model",
                   seed=True, default=None)
    chk.add_argument("--samples", type=int, default=100)
    chk.add_argument("--lie-depth", type=int, default=3)
    chk.add_argument("--exceptional-point", action="append",
                     help="JSON [[re, im], ...] amplitudes; repeatable")

    inv = _command(sub, "invariant", cmd_invariant, "long-run histogram and ergodic report",
                   grid=True, seed=True, initial="ground")
    inv.add_argument("--burn-in", type=float, default=0.0)
    inv.add_argument("--bins-polar", type=int, default=12)
    inv.add_argument("--bins-azimuth", type=int, default=24)
    inv.add_argument("--polar-axis", choices=_AXES, default="z")

    atom = _command(sub, "atom", cmd_atom, "write a two-level-atom model file",
                    model=False, required=True)
    atom.add_argument("--detection", required=True, choices=DETECTIONS)
    atom.add_argument("--delta-omega", type=float, default=0.0)
    atom.add_argument("--alpha", required=True, help="JSON [[re, im], ...] components of alpha")
    atom.add_argument("--lambda-inner", required=True, help="JSON [re, im] for <alpha|lambda>")
    return parser


def main(argv) -> int:
    try:
        args = _build_parser().parse_args(argv)
    except SystemExit as exc:  # usage errors exit 2 in argparse, 1 here
        return 1 if exc.code else 0
    try:
        return args.func(args)
    except (ValidationError, NumericalError) as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1 if isinstance(exc, ValidationError) else 2


def console_entry() -> None:
    sys.exit(main(sys.argv[1:]))


if __name__ == "__main__":
    console_entry()
