"""The engine names and signatures that ``perfbench`` relies on.

``perfbench/tracer.py`` wraps private engine functions by name and
``perfbench/kernels.py`` calls the step kernels directly; a function that
is renamed or loses a parameter only shows up there as a missing metric.
Both files are imported read-only, without writing bytecode next to them.
"""

import importlib.util
import inspect
import sys
from pathlib import Path

import numpy as np
import pytest

import qtraj
from qtraj import analysis, engine

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def _load(name):
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    saved = sys.dont_write_bytecode
    sys.dont_write_bytecode = True
    try:
        spec.loader.exec_module(module)
    finally:
        sys.dont_write_bytecode = saved
    return module


@pytest.fixture(scope="module")
def tracer():
    for name in ("analysis", "cli", "engine", "master", "model", "serialize"):
        importlib.import_module(f"qtraj.{name}")
    return _load("tracer")


def test_every_role_resolves(tracer):
    patches = tracer._Patches()
    for role, targets in tracer.ROLES.items():
        assert any(patches.resolve(t) is not None for t in targets), role


def test_lie_rank_fields_are_the_traced_object():
    # analysis takes the fields from steps; the tracer wraps every namespace
    # holding engine._strat_a_b, so lie_rank_check stays under engine.generator
    assert analysis._strat_a_b is engine._strat_a_b


def test_traced_signatures(tracer):
    patches = tracer._Patches()
    substeps = patches.resolve("engine:_posterior_substeps")
    assert substeps is not None
    assert {"rho", "s"} <= set(inspect.signature(substeps[2]).parameters)
    driver = inspect.signature(engine._simulate_batch).parameters
    assert {"mode", "grid", "seeds"} <= set(driver)


def test_kernel_cases_run():
    kernels = _load("kernels")
    rng = np.random.default_rng(3)
    for name, (model, pure, step) in kernels._cases().items():
        arr = engine._ModelArrays(model)
        rho = kernels._random_states(rng, 2, pure)
        dw = rng.standard_normal((2, model.n_diffusive)) * np.sqrt(kernels.DT)
        u = rng.random((2, model.n_jump))
        out = step(arr, rho, dw, u)
        assert np.isfinite(out[0]).all(), name


@pytest.mark.parametrize("case", ["posterior", "direct"])
def test_posterior_kernel_cases_take_one_substep(case):
    # kernels.py passes True in _step_posterior's substep-count slot, which
    # means one step (True > 1 is False); that holds because these models
    # need one substep at its dt
    kernels = _load("kernels")
    model = kernels._cases()[case][0]
    assert engine._ModelArrays(model).substeps(kernels.DT) == 1


@pytest.mark.parametrize(
    "case, kernel",
    [("linear", "_step_linear"), ("posterior", "_step_posterior"),
     ("direct", "_step_posterior"), ("stratonovich", "_step_stratonovich")],
)
def test_driver_calls_the_timed_kernel_once_per_step(case, kernel, monkeypatch):
    # the kernels perfbench times are the ones the driver runs, once per step
    model, pure, _ = _load("kernels")._cases()[case]
    counted = []
    step = getattr(engine, kernel)

    def counting(*args, **kwargs):
        counted.append(1)
        return step(*args, **kwargs)

    monkeypatch.setattr(engine, kernel, counting)
    grid = qtraj.TimeGrid(t_final=0.05, dt=1e-3)
    if pure:
        qtraj.simulate_stratonovich_pure(model, qtraj.PureStateVector([1.0, 0.0]), grid, seed=1)
    else:
        mixed = qtraj.QuantumState(np.eye(2, dtype=complex) / 2)
        simulate = qtraj.simulate_linear if case == "linear" else qtraj.simulate_posterior
        simulate(model, mixed, grid, seed=1)
    assert len(counted) == grid.n_steps
