"""Acceptance suite: one test per criterion, at the stated tolerances.

Each test prints a single PASS/FAIL line (visible with ``pytest -s`` or in
the captured output of failures).  Model parameters are frozen here, along
with the seeds, so the whole suite is deterministic.
"""

import copy

import numpy as np
import pytest

from qtraj import (
    PureStateVector,
    QuantumState,
    TimeGrid,
    apply_jump,
    apply_k,
    apply_liouvillian,
    check_ellipticity,
    deterministic_flow,
    empirical_invariant_measure,
    equilibrium,
    evolve_master,
    generate_atom_model,
    haar_random_state_vector,
    hs_norm,
    lie_rank_check,
    run_ensemble,
    simulate_posterior,
    standard_direct,
    standard_heterodyne,
    standard_homodyne,
    time_average_state,
    trace_norm,
    variance_decomposition,
    vectorized_liouvillian,
)
from qtraj.analysis import PAULI_X, PAULI_Z

from conftest import random_complex, random_density_matrix
from test_model import random_model

MIXED = QuantumState(np.eye(2, dtype=complex) / 2)
GROUND = QuantumState(np.diag([0.0, 1.0]).astype(complex))
EXCITED_VECTOR = PureStateVector([1.0, 0.0])
DT = 1e-3


def _report(num, name, passed, detail):
    status = "PASS" if passed else "FAIL"
    print(f"ACCEPTANCE {num:02d} {name}: {status} ({detail})")
    assert passed, f"criterion {num} {name}: {detail}"


# -- shared heavy runs --------------------------------------------------------

@pytest.fixture(scope="module")
def weak_heterodyne():
    """Low line width keeps the weight variance small at T=5."""
    return generate_atom_model(standard_heterodyne(linewidth=0.2, rabi=1.0))


@pytest.fixture(scope="module")
def linear_run(weak_heterodyne):
    grid = TimeGrid(t_final=5.0, dt=DT)
    return run_ensemble(weak_heterodyne, MIXED, grid, n_traj=2000, seed=11, mode="linear")


@pytest.fixture(scope="module")
def posterior_run(weak_heterodyne):
    grid = TimeGrid(t_final=5.0, dt=DT)
    return run_ensemble(weak_heterodyne, MIXED, grid, n_traj=2000, seed=11, mode="posterior")


@pytest.fixture(scope="module")
def ergodic_trajectory():
    """Single long heterodyne trajectory for the ergodic criteria."""
    model = generate_atom_model(standard_heterodyne(linewidth=2.0, rabi=1.0))
    grid = TimeGrid(t_final=200.0, dt=DT)
    traj = simulate_posterior(model, MIXED, grid, seed=51)
    return model, traj


# -- criteria -----------------------------------------------------------------

def test_01_martingale(linear_run):
    ok = True
    details = []
    for t in (1.0, 2.5, 5.0):
        i = linear_run.index_of_time(t)
        mean_w = linear_run.mean_weight[i]
        se = linear_run.se_weight[i]
        details.append(f"t={t}: w={mean_w:.4f} se={se:.4f}")
        ok &= abs(mean_w - 1.0) <= 3.0 * se
        ok &= se < 0.05
    _report(1, "martingale-weight", ok, "; ".join(details))


def test_02_mean_field_consistency(weak_heterodyne, linear_run, posterior_run):
    checkpoints = [1.0, 2.0, 3.0, 4.0, 5.0]
    etas = evolve_master(weak_heterodyne, MIXED, checkpoints)
    ok = True
    worst = 0.0
    for t, eta in zip(checkpoints, etas):
        for stats in (posterior_run, linear_run):
            i = stats.index_of_time(t)
            diff = np.abs(stats.mean_state[i] - eta.matrix)
            se = np.sqrt(stats.se_state_re[i] ** 2 + stats.se_state_im[i] ** 2)
            ratio = float((diff / np.maximum(3.0 * se, 1e-12)).max())
            worst = max(worst, ratio)
            ok &= ratio <= 1.0
    _report(2, "mean-field-consistency", ok, f"worst |diff|/3se = {worst:.2f}")


def test_03_purity_preservation():
    model = generate_atom_model(standard_homodyne(linewidth=1.0, rabi=2.0))
    grid = TimeGrid(t_final=5.0, dt=DT)
    stats = run_ensemble(
        model,
        QuantumState(EXCITED_VECTOR.projector()),
        grid,
        n_traj=100,
        seed=41,
        mode="stratonovich",
    )
    worst_defect = float(np.nanmax(stats.max_purity_defect_per_traj))
    worst_path = float(np.nanmax(stats.max_entropy_per_traj))
    ok = worst_defect <= 10.0 * DT and worst_path <= 1e-6 and stats.n_failed == 0
    _report(
        3,
        "purity-preservation",
        ok,
        f"max per-step defect {worst_defect:.2e} <= {10*DT}, path entropy {worst_path:.1e}",
    )


def test_04_purification():
    model = generate_atom_model(standard_heterodyne(linewidth=0.3, rabi=1.0))
    grid = TimeGrid(t_final=20.0, dt=DT)
    stats = run_ensemble(model, MIXED, grid, n_traj=400, seed=21, mode="posterior")
    g = {t: stats.mean_entropy[stats.index_of_time(t)] for t in (5.0, 10.0, 20.0)}
    ok = g[20.0] < 0.05 and g[5.0] > g[10.0] > g[20.0]
    _report(
        4,
        "purification",
        ok,
        f"G(5)={g[5.0]:.4f} > G(10)={g[10.0]:.4f} > G(20)={g[20.0]:.4f} < 0.05",
    )


def test_05_ergodic_average(ergodic_trajectory):
    model, traj = ergodic_trajectory
    eta = equilibrium(model)
    d200 = float(np.linalg.norm(time_average_state(traj, 20.0).matrix - eta.matrix))
    short = copy.copy(traj)
    short.grid = TimeGrid(t_final=50.0, dt=DT)
    short.state_path = traj.state_path[: short.grid.n_steps + 1]
    d50 = float(np.linalg.norm(time_average_state(short, 20.0).matrix - eta.matrix))
    ok = d200 <= 0.05 and d200 < d50
    _report(5, "ergodic-average", ok, f"d(T=200)={d200:.4f} <= 0.05, d(T=50)={d50:.4f}")


def test_06_variance_decomposition(ergodic_trajectory):
    model, traj = ergodic_trajectory
    eta = equilibrium(model)
    dec = variance_decomposition(PAULI_Z, traj, eta, burn_in=20.0)
    tol = 0.05 * max(dec.lhs, 0.01)
    ok = abs(dec.residual) <= tol
    _report(
        6,
        "variance-decomposition",
        ok,
        f"lhs={dec.lhs:.4f} term1={dec.term1:.4f} term2={dec.term2:.4f} "
        f"|residual|={abs(dec.residual):.5f} <= {tol:.5f}",
    )


def test_07_structural_classification():
    het = generate_atom_model(standard_heterodyne(linewidth=1.0, rabi=2.0))
    ground_vec = PureStateVector([0.0, 1.0])
    rng = np.random.Generator(np.random.Philox(key=77))
    elliptic_away = all(
        check_ellipticity(het, PureStateVector(haar_random_state_vector(2, rng))).elliptic
        for _ in range(100)
    )
    at_ground = check_ellipticity(het, ground_vec)
    lie = lie_rank_check(het, ground_vec)

    hom = generate_atom_model(standard_homodyne(linewidth=1.0, rabi=2.0))
    flows_converge = True
    for _ in range(10):
        psi = haar_random_state_vector(2, rng)
        res = deterministic_flow(hom, PureStateVector(psi), t_final=2000.0, n_points=1000)
        flows_converge &= hs_norm(res.states[-1].matrix - GROUND.matrix) <= 0.01
    ok = elliptic_away and not at_ground.elliptic and lie.full and flows_converge
    _report(
        7,
        "structural-classification",
        ok,
        f"elliptic at 100 samples={elliptic_away}, at ground={at_ground.elliptic}, "
        f"lie full={lie.full}, flow to ground from 10 starts={flows_converge}",
    )


def test_08_invariant_measure_support():
    het = generate_atom_model(standard_heterodyne(linewidth=1.0, rabi=2.0))
    traj = simulate_posterior(het, MIXED, TimeGrid(t_final=300.0, dt=DT), seed=61)
    hist = empirical_invariant_measure(traj, grid=(12, 24), burn_in=5.0)
    filled = int((hist.counts > 0).sum())

    hom = generate_atom_model(standard_homodyne(linewidth=1.0, rabi=2.0, phase=np.pi / 2))
    trajh = simulate_posterior(hom, GROUND, TimeGrid(t_final=100.0, dt=DT), seed=71)
    # angular distance from the x = 0 great circle
    idx = trajh.grid.times >= 5.0
    states = trajh.state_path[idx]
    x = np.einsum("ij,tji->t", PAULI_X, states).real
    tr2 = np.einsum("tij,tji->t", states, states).real
    r = np.sqrt(np.clip(2.0 * tr2 - 1.0, 1e-12, None))
    ang = np.abs(np.arcsin(np.clip(x / r, -1.0, 1.0)))
    frac_on_circle = float((ang <= 0.1).mean())
    hist_band = empirical_invariant_measure(
        trajh, grid=(12, 24), burn_in=5.0, polar_axis=(1.0, 0.0, 0.0)
    )
    occupied_bands = set(np.nonzero(hist_band.counts)[0])
    band_ok = occupied_bands <= {5, 6}  # the two bands adjacent to the equator

    ok = filled == 288 and frac_on_circle >= 0.99 and band_ok
    _report(
        8,
        "invariant-measure-support",
        ok,
        f"heterodyne bins {filled}/288; homodyne on-circle fraction "
        f"{frac_on_circle:.4f}, polar bands {sorted(occupied_bands)}",
    )


def test_09_jump_output_statistics():
    model = generate_atom_model(standard_direct(linewidth=1.0, rabi=2.0))
    grid = TimeGrid(t_final=5.0, dt=DT)
    stats = run_ensemble(model, MIXED, grid, n_traj=1000, seed=31, mode="posterior")
    effect = model.jump_channels[0].effect()
    etas = evolve_master(model, MIXED, grid.times)
    rates = np.array([float(np.trace(effect @ e.matrix).real) for e in etas])
    expected = float(np.trapezoid(rates, grid.times)) * model.jump_channels[0].weight
    mean, se = float(stats.jump_count_mean[0]), float(stats.jump_count_se[0])
    ok = abs(mean - expected) <= 3.0 * se
    _report(
        9,
        "jump-output-statistics",
        ok,
        f"mean count {mean:.4f} +- {se:.4f} vs master integral {expected:.4f}",
    )


def test_10_oracle_agreements():
    rng = np.random.default_rng(99)
    # trace norm vs SVD oracle
    tn_ok = True
    for _ in range(100):
        a = random_complex(rng, int(rng.integers(2, 6)))
        tn_ok &= abs(trace_norm(a) - np.linalg.svd(a, compute_uv=False).sum()) <= 1e-10

    # equilibrium vs least-squares kernel oracle
    def lstsq_oracle(m):
        vec = vectorized_liouvillian(m)
        n = m.dim
        trace_row = np.eye(n, dtype=complex).flatten(order="F")[None, :]
        a = np.vstack([vec.matrix, trace_row])
        b = np.zeros(n * n + 1, dtype=complex)
        b[-1] = 1.0
        x, *_ = np.linalg.lstsq(a, b, rcond=None)
        eta = x.reshape((n, n), order="F")
        return 0.5 * (eta + eta.conj().T)

    het = generate_atom_model(standard_heterodyne(linewidth=1.0, rabi=2.0))
    eq_ok = hs_norm(equilibrium(het).matrix - lstsq_oracle(het)) <= 1e-8
    dire = generate_atom_model(standard_direct(linewidth=1.0, rabi=2.0))
    eq_ok &= hs_norm(equilibrium(dire).matrix - lstsq_oracle(dire)) <= 1e-8

    # compensator identity on random model/state pairs
    comp_worst = 0.0
    for _ in range(100):
        m = random_model(rng)
        rho = random_density_matrix(2, rng)
        lhs = apply_liouvillian(m, rho)
        rhs = apply_k(m, rho)
        for k, ch in enumerate(m.jump_channels):
            rhs = rhs + ch.weight * (apply_jump(m, rho, k) - rho)
        comp_worst = max(comp_worst, hs_norm(lhs - rhs))
    comp_ok = comp_worst <= 1e-10

    ok = tn_ok and eq_ok and comp_ok
    _report(
        10,
        "oracle-agreements",
        ok,
        f"trace-norm {tn_ok}, equilibrium {eq_ok}, compensator worst {comp_worst:.2e}",
    )
