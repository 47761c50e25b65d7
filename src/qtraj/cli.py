"""Command-line orchestration.

Subcommands: simulate, master, equilibrium, check, invariant, atom.  Every
stochastic command requires --seed; outputs carry a metadata header line
sufficient to reproduce the run.  Exit codes: 0 success, 1 validation or
usage error, 2 numerical failure.
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
    build_ergodic_report,
    empirical_invariant_measure,
    lie_rank_check,
    linear_entropy,
)
from .atom import TwoLevelAtomSpec, generate_atom_model
from .engine import (
    RNG_ALGORITHM,
    TimeGrid,
    run_ensemble,
    simulate_posterior,
)
from .errors import NumericalError, ValidationError
from .linalg import PureStateVector, QuantumState, haar_random_state_vector
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


class _Parser(argparse.ArgumentParser):
    """argparse parser that exits with code 1 on usage errors."""

    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(1)


def _initial_state(name: str, dim: int) -> QuantumState:
    mat = np.zeros((dim, dim), dtype=np.complex128)
    if name == "mixed":
        mat = np.eye(dim, dtype=np.complex128) / dim
    elif name == "excited":
        mat[0, 0] = 1.0
    elif name == "ground":
        mat[dim - 1, dim - 1] = 1.0
    elif name == "plus":
        vec = np.ones(dim, dtype=np.complex128) / np.sqrt(dim)
        mat = np.outer(vec, vec.conj())
    else:
        raise ValidationError(f"unknown initial state '{name}'")
    return QuantumState(mat)


def _parse_complex_vector(text: str) -> np.ndarray:
    try:
        pairs = json.loads(text)
        return np.array([complex(p[0], p[1]) for p in pairs], dtype=np.complex128)
    except (json.JSONDecodeError, TypeError, IndexError) as exc:
        raise ValidationError(
            f"cannot parse complex vector {text!r}; expected JSON [[re, im], ...]"
        ) from exc


def _parse_complex(text: str) -> complex:
    try:
        pair = json.loads(text)
        return complex(pair[0], pair[1])
    except (json.JSONDecodeError, TypeError, IndexError) as exc:
        raise ValidationError(
            f"cannot parse complex number {text!r}; expected JSON [re, im]"
        ) from exc


def _out_dir(args) -> Path:
    out = Path(args.output)
    out.mkdir(parents=True, exist_ok=True)
    return out


def cmd_simulate(args) -> int:
    model, mhash = load_model(args.model)
    grid = TimeGrid(t_final=args.t_final, dt=args.dt)
    rho0 = _initial_state(args.initial, model.dim)
    out = _out_dir(args)
    meta = _base_metadata(
        "simulate",
        mhash,
        mode=args.mode,
        seed=args.seed,
        dt=args.dt,
        t_final=args.t_final,
        trajectories=args.trajectories,
        initial=args.initial,
        rng=RNG_ALGORITHM,
    )
    stats = run_ensemble(
        model, rho0, grid, n_traj=args.trajectories, seed=args.seed, mode=args.mode
    )
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
        rng = np.random.Generator(np.random.Philox(key=args.seed))
        n_elliptic = 0
        for _ in range(args.samples):
            psi = PureStateVector(haar_random_state_vector(model.dim, rng))
            if check_ellipticity(model, psi).elliptic:
                n_elliptic += 1
        lines["ellipticity_samples"] = args.samples
        lines["ellipticity_elliptic"] = n_elliptic
    for i, text in enumerate(args.exceptional_point or []):
        vec = _parse_complex_vector(text)
        nrm = np.linalg.norm(vec)
        if not 0.0 < nrm < np.inf:
            raise ValidationError(f"exceptional point {text!r} is not a nonzero finite vector")
        psi = PureStateVector(vec / nrm)
        if model.n_diffusive:
            ell = check_ellipticity(model, psi)
            lines[f"point{i}_elliptic"] = ell.elliptic
            rank = lie_rank_check(model, psi, max_depth=args.lie_depth)
            lines[f"point{i}_lie_rank"] = rank.rank
            lines[f"point{i}_lie_full"] = rank.full
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
    rho0 = _initial_state(args.initial, model.dim)
    traj = simulate_posterior(model, rho0, grid, seed=args.seed)
    out = _out_dir(args)
    meta = _base_metadata(
        "invariant",
        mhash,
        seed=args.seed,
        dt=args.dt,
        t_final=args.t_final,
        burn_in=args.burn_in,
        rng=RNG_ALGORITHM,
    )
    hist = empirical_invariant_measure(
        traj,
        grid=(args.bins_polar, args.bins_azimuth),
        burn_in=args.burn_in,
        polar_axis=_AXES[args.polar_axis],
    )
    write_histogram_csv(out / "histogram.csv", hist, meta)
    eta = equilibrium(model)
    report = build_ergodic_report(traj, eta, {"sigma_z": PAULI_Z}, burn_in=args.burn_in)
    decomp = report.variance_decomposition["sigma_z"]
    lines = {
        "distance_to_equilibrium": f"{report.distance:.6e}",
        "final_entropy": f"{linear_entropy(report.time_avg_state):.6e}",
        "bins_occupied": int((hist.counts > 0).sum()),
        "bins_total": hist.grid[0] * hist.grid[1],
        "mixed_samples": hist.mixed_samples,
        "sigma_z_lhs": f"{decomp.lhs:.6e}",
        "sigma_z_term1": f"{decomp.term1:.6e}",
        "sigma_z_term2": f"{decomp.term2:.6e}",
        "sigma_z_residual": f"{decomp.residual:.6e}",
    }
    write_report(out / "ergodic.txt", lines, meta)
    print(f"wrote {out / 'histogram.csv'} and {out / 'ergodic.txt'}")
    return 0


def cmd_atom(args) -> int:
    spec = TwoLevelAtomSpec(
        delta_omega=args.delta_omega,
        alpha=tuple(_parse_complex_vector(args.alpha)),
        lambda_inner=_parse_complex(args.lambda_inner),
        detection=args.detection,
    )
    model = generate_atom_model(spec)
    mhash = save_model(model, args.output)
    print(f"wrote {args.output} (hash {mhash})")
    return 0


def _build_parser() -> _Parser:
    parser = _Parser(prog="qtraj", description=__doc__)
    parser.add_argument("--version", action="version", version=f"qtraj {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    sim = sub.add_parser("simulate", help="integrate trajectories and aggregate them")
    sim.add_argument("--model", required=True)
    sim.add_argument("--mode", choices=("linear", "posterior", "stratonovich"),
                     default="posterior")
    sim.add_argument("--t-final", type=float, required=True, dest="t_final")
    sim.add_argument("--dt", type=float, required=True)
    sim.add_argument("--trajectories", type=int, default=1)
    sim.add_argument("--seed", type=int, required=True)
    sim.add_argument("--initial", default="mixed",
                     choices=("mixed", "ground", "excited", "plus"))
    sim.add_argument("--output", default=".")
    sim.set_defaults(func=cmd_simulate)

    mas = sub.add_parser("master", help="deterministic a-priori evolution")
    mas.add_argument("--model", required=True)
    mas.add_argument("--t-final", type=float, required=True, dest="t_final")
    mas.add_argument("--dt", type=float, required=True)
    mas.add_argument("--initial", default="mixed",
                     choices=("mixed", "ground", "excited", "plus"))
    mas.add_argument("--output", default=".")
    mas.set_defaults(func=cmd_master)

    eq = sub.add_parser("equilibrium", help="stationary state of the master equation")
    eq.add_argument("--model", required=True)
    eq.add_argument("--output", default=".")
    eq.set_defaults(func=cmd_equilibrium)

    chk = sub.add_parser("check", help="structural checks of a model")
    chk.add_argument("--model", required=True)
    chk.add_argument("--seed", type=int, required=True)
    chk.add_argument("--samples", type=int, default=100)
    chk.add_argument("--lie-depth", type=int, default=3, dest="lie_depth")
    chk.add_argument("--exceptional-point", action="append", dest="exceptional_point",
                     help="JSON [[re, im], ...] amplitudes; repeatable")
    chk.add_argument("--output", default=None)
    chk.set_defaults(func=cmd_check)

    inv = sub.add_parser("invariant", help="long-run histogram and ergodic report")
    inv.add_argument("--model", required=True)
    inv.add_argument("--t-final", type=float, required=True, dest="t_final")
    inv.add_argument("--dt", type=float, required=True)
    inv.add_argument("--seed", type=int, required=True)
    inv.add_argument("--burn-in", type=float, default=0.0, dest="burn_in")
    inv.add_argument("--bins-polar", type=int, default=12, dest="bins_polar")
    inv.add_argument("--bins-azimuth", type=int, default=24, dest="bins_azimuth")
    inv.add_argument("--initial", default="ground",
                     choices=("mixed", "ground", "excited", "plus"))
    inv.add_argument("--polar-axis", choices=("x", "y", "z"), default="z",
                     dest="polar_axis")
    inv.add_argument("--output", default=".")
    inv.set_defaults(func=cmd_invariant)

    atom = sub.add_parser("atom", help="write a two-level-atom model file")
    atom.add_argument("--detection", required=True,
                      choices=("homodyne", "heterodyne", "direct"))
    atom.add_argument("--delta-omega", type=float, default=0.0, dest="delta_omega")
    atom.add_argument("--alpha", required=True,
                      help="JSON [[re, im], ...] components of alpha")
    atom.add_argument("--lambda-inner", required=True, dest="lambda_inner",
                      help="JSON [re, im] for <alpha|lambda>")
    atom.add_argument("--output", required=True)
    atom.set_defaults(func=cmd_atom)
    return parser


def main(argv) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.func(args)
    except ValidationError as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1
    except NumericalError as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 2


def console_entry() -> None:
    sys.exit(main(sys.argv[1:]))
