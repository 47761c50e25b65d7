"""Model configuration files and CSV emission.

Model configs are JSON with complex numbers as [re, im] pairs and matrices
as row-major nested arrays:

    {
      "dimension": 2,
      "hamiltonian": [[[0.0, 0.0], [0.5, 0.0]], [[0.5, 0.0], [0.0, 0.0]]],
      "diffusive_ops": [ <matrix>, ... ],
      "jump_channels": [ {"label": "count", "weight": 1.0,
                          "kraus": [ <matrix>, ... ]}, ... ],
      "dissipative_ops": [ <matrix>, ... ]
    }

JSON floats round-trip exactly, so a written model reloads bit-identically.
Every CSV goes through one writer, ``_write_table``: a '#'-prefixed metadata
line (model hash, command, seed, dt, scheme, version), the header, then the
given column arrays side by side, integers as integers and floats with 17
significant digits, so reruns can be compared byte for byte.  The writers
only arrange arrays the results already hold (plus running sums of the
output record's increments); no physical quantity is derived here.
"""

from __future__ import annotations

import hashlib
import json

import numpy as np

from . import __version__
from .analysis import BlochHistogram
from .engine import EnsembleStats, LinearTrajectory, PosteriorTrajectory
from .errors import ConfigError
from .linalg import QuantumState
from .model import MeasurementModel, build_model

_FMT = "%.16e"


def complex_to_pair(z: complex) -> list[float]:
    return [float(np.real(z)), float(np.imag(z))]


def matrix_to_nested(mat: np.ndarray) -> list[list[list[float]]]:
    return [[complex_to_pair(z) for z in row] for row in np.asarray(mat)]


def model_to_config(m: MeasurementModel) -> dict:
    """Serializable config dict reproducing the model exactly."""
    return {
        "dimension": m.dim,
        "hamiltonian": matrix_to_nested(m.hamiltonian),
        "diffusive_ops": [matrix_to_nested(op) for op in m.diffusive_ops],
        "jump_channels": [
            {
                "label": ch.outcome_label,
                "weight": ch.weight,
                "kraus": [matrix_to_nested(j) for j in ch.kraus_ops],
            }
            for ch in m.jump_channels
        ],
        "dissipative_ops": [matrix_to_nested(op) for op in m.dissipative_ops],
    }


def model_hash(config: dict) -> str:
    """SHA-256 of the canonical JSON encoding of a config."""
    canon = json.dumps(config, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canon.encode()).hexdigest()[:16]


def save_model(m: MeasurementModel, path) -> str:
    config = model_to_config(m)
    text = json.dumps(config, indent=1) + "\n"  # in full before the file is opened
    with open(path, "w") as fh:
        fh.write(text)
    return model_hash(config)


def load_model(path) -> tuple[MeasurementModel, str]:
    """Load a model config file; returns (model, hash)."""
    try:
        with open(path) as fh:
            config = json.load(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read model file {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"cannot parse model file {path}: {exc}") from exc
    model = build_model(config)
    return model, model_hash(model_to_config(model))


def _metadata_line(meta: dict) -> str:
    parts = [f"{k}={meta[k]}" for k in meta]
    return "# " + " ".join(parts) + "\n"


def _base_metadata(command: str, mhash: str, **extra) -> dict:
    meta = {"command": command, "model_hash": mhash, "version": __version__}
    meta.update(extra)
    return meta


def _state_header(prefix: str, n: int) -> list[str]:
    return [f"{prefix}{i}{j}_{part}" for i in range(n) for j in range(n) for part in ("re", "im")]


def _write_table(path, meta: dict, header: list[str], columns: list) -> None:
    """The one CSV writer: metadata line, header, then one row per leading
    index of the column arrays, stacked side by side.

    Each array contributes its trailing entries as columns, complex ones as
    interleaved re, im pairs.  Integer arrays print as integers (exact below
    2^53), everything else with 17 significant digits.
    """
    blocks, fmt = [], []
    for col in columns:
        col = np.ascontiguousarray(col)
        block = col.reshape(col.shape[0], -1)
        if np.iscomplexobj(block):
            block = block.view(np.float64)
        blocks.append(block)
        fmt += ["%d" if col.dtype.kind in "iu" else _FMT] * block.shape[1]
    with open(path, "w") as fh:
        fh.write(_metadata_line(meta) + ",".join(header) + "\n")
        np.savetxt(fh, np.hstack(blocks), fmt=fmt, delimiter=",")


def write_trajectory_csv(path, traj, meta: dict) -> None:
    """One row per grid time: state, weight, entropy, cumulative outputs."""
    if isinstance(traj, LinearTrajectory):
        states, weights, prefix = traj.sigma_path, traj.weight_path, "sigma"
    elif isinstance(traj, PosteriorTrajectory):
        states, weights, prefix = traj.state_path, np.ones(len(traj.state_path)), "rho"
    else:
        raise ConfigError(f"unsupported trajectory type {type(traj)!r}")
    cum_w, cum_n = (np.vstack([np.zeros_like(inc[:1]), np.cumsum(inc, axis=0)])
                    for inc in (traj.output.wiener, traj.output.jump_counts))

    header = ["t"] + _state_header(prefix, states.shape[1]) + ["weight", "entropy"]
    header += [f"cum_W{j}" for j in range(cum_w.shape[1])]
    header += [f"cum_N{k}" for k in range(cum_n.shape[1])]
    columns = [traj.grid.times, states, weights, traj.entropy_path, cum_w, cum_n]
    _write_table(path, meta, header, columns)


def write_ensemble_csv(path, stats: EnsembleStats, meta: dict) -> None:
    """Per-step ensemble aggregates with componentwise standard errors."""
    n = stats.mean_state.shape[1]
    header = ["t"] + _state_header("mean", n) + _state_header("se", n)
    header += ["mean_weight", "se_weight", "mean_entropy", "se_entropy"]
    columns = [
        stats.times,
        stats.mean_state,
        np.stack([stats.se_state_re, stats.se_state_im], axis=-1),
        stats.mean_weight,
        stats.se_weight,
        stats.mean_entropy,
        stats.se_entropy,
    ]
    if stats.obs_mean is not None:
        header += ["obs_re", "obs_im", "obs_se_re", "obs_se_im"]
        columns += [stats.obs_mean, stats.obs_se_re, stats.obs_se_im]
    _write_table(path, meta, header, columns)


def write_states_csv(path, times, states: list[QuantumState], meta: dict) -> None:
    """State path in the same layout as trajectories (master/equilibrium)."""
    header = ["t"] + _state_header("eta", states[0].dim)
    columns = [np.asarray(times, dtype=float), np.stack([s.matrix for s in states])]
    _write_table(path, meta, header, columns)


def write_histogram_csv(path, hist: BlochHistogram, meta: dict) -> None:
    header = ["theta_index", "phi_index", "dwell_time", "count"]
    theta, phi = np.indices(hist.grid)
    columns = [theta.ravel(), phi.ravel(), hist.dwell_time.ravel(), hist.counts.ravel()]
    _write_table(path, meta, header, columns)


def write_report(path, lines: dict, meta: dict) -> None:
    """Flat key=value text report."""
    body = format_report(lines)
    with open(path, "w") as fh:
        fh.write(_metadata_line(meta) + (body + "\n" if body else ""))


def format_report(lines: dict) -> str:
    return "\n".join(f"{key}={value}" for key, value in lines.items())
