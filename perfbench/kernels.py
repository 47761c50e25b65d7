"""Microbenchmark of the engine's step kernels on fixed, seeded inputs.

Each kernel takes one step of a batch of B states, at B = 1 (per-call
overhead, what a single long trajectory pays) and at B = 512 (the batched
cost per trajectory, what ensembles pay).  Inputs are drawn once from the
workload seed and reused for every call, so each call does the same work.
A kernel whose function or signature no longer exists is left out and
reported as absent.
"""

from __future__ import annotations

import time

import numpy as np

import qtraj
from qtraj import engine

DT = 1e-3
BATCHES = (1, 512)
_BLOCK_S = 0.04   # target length of one timing block
_BLOCKS = 5


def _random_states(rng, b: int, pure: bool) -> np.ndarray:
    vecs = rng.standard_normal((b, 2, 2)) + 1j * rng.standard_normal((b, 2, 2))
    if pure:
        psi = vecs[:, :, 0]
        psi /= np.linalg.norm(psi, axis=1)[:, None]
        return psi[:, :, None] * psi.conj()[:, None, :]
    rho = vecs @ vecs.conj().transpose(0, 2, 1)
    return rho / np.einsum("bii->b", rho).real[:, None, None]


def _cases():
    het = qtraj.generate_atom_model(qtraj.standard_heterodyne(linewidth=0.2, rabi=1.0))
    hom = qtraj.generate_atom_model(qtraj.standard_homodyne(linewidth=1.0, rabi=2.0))
    direct = qtraj.generate_atom_model(qtraj.standard_direct(linewidth=1.0, rabi=2.0))
    return {
        "linear": (het, False, lambda a, rho, dw, u: engine._step_linear(a, rho, DT, dw, u)),
        "posterior": (
            het, False, lambda a, rho, dw, u: engine._step_posterior(a, rho, DT, dw, u, True, None)
        ),
        "stratonovich": (
            hom, True, lambda a, rho, dw, u: engine._step_stratonovich(a, rho, DT, dw)
        ),
        "direct": (
            direct, False, lambda a, rho, dw, u: engine._step_posterior(a, rho, DT, dw, u, True, None)
        ),
    }


def _time_per_call(call) -> float:
    """Median seconds per call over timing blocks of about _BLOCK_S each."""
    t0 = time.perf_counter()
    call()
    call()
    per = max((time.perf_counter() - t0) / 2, 1e-7)
    n = max(1, int(_BLOCK_S / per))
    samples = []
    for _ in range(_BLOCKS):
        t0 = time.perf_counter()
        for _ in range(n):
            call()
        samples.append((time.perf_counter() - t0) / n)
    return float(np.median(samples))


def kernel_metrics(seed: int) -> dict:
    """{kernel: {"b1_us": ..., "b512_us_per_traj": ...}} for kernels that run."""
    rng = np.random.Generator(np.random.Philox(key=int(seed)))
    out = {}
    for name, (model, pure, step) in _cases().items():
        try:
            arr = engine._ModelArrays(model)
            row = {}
            for b in BATCHES:
                rho = _random_states(rng, b, pure)
                dw = rng.standard_normal((b, model.n_diffusive)) * np.sqrt(DT)
                u = rng.random((b, model.n_jump))
                per_call = _time_per_call(lambda: step(arr, rho, dw, u))
                key = "b1_us" if b == 1 else f"b{b}_us_per_traj"
                row[key] = per_call * 1e6 / b
            out[name] = row
        except (AttributeError, TypeError):
            continue
    return out
