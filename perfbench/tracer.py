"""Wrap qtraj functions from outside the package: a light probe and a tracer.

Both replace a module-level function (or a class method) by a wrapper in
every ``qtraj`` module namespace that holds it, so calls made through names
imported with ``from .engine import ...`` are wrapped too.  Nothing under
``src/`` is edited; ``uninstall`` puts the originals back.

``Probe`` runs in every repetition, timed or traced.  It keeps the
``EnsembleStats`` that ``run_ensemble`` returns (for the output checks and
failure counts) and has each ``_run_block`` call, also inside forked pool
workers, append its duration to a per-process file.

``Tracer`` runs only in the traced repetition.  Each wrapped call is a span
with a role name, a start, an end and a parent span.  A span is folded into
per-(parent role, role) aggregates when it closes, so a trajectory of
10^5 steps costs constant memory: calls, inclusive time, and self time,
which is the span's duration minus the time its child spans cover.
"""

from __future__ import annotations

import functools
import inspect
import os
import sys
import time

# Role -> functions behind it, as "module:attr" or "module:Class.method".  A
# target that no longer exists is skipped; a role left without any target is
# reported as absent.
ROLES = {
    "engine.driver": ["engine:_simulate_batch"],
    "engine.step.linear": ["engine:_step_linear"],
    "engine.step.posterior": [
        "engine:_step_posterior",
        "engine:_posterior_substeps",
        "engine:_posterior_substep",
    ],
    "engine.step.stratonovich": ["engine:_step_stratonovich"],
    "engine.generator": [
        "engine:_apply_liouvillian_b",
        "engine:_apply_k_b",
        "engine:_strat_a_b",
        "engine:_strat_b_b",
    ],
    "engine.repair": [
        "engine:_repair_positive_b",
        "engine:_project_state_b",
        "engine:_project_pure_b",
    ],
    "engine.collect": ["engine:_PathCollector.collect", "engine:_StatsCollector.collect"],
    "engine.merge": ["engine:_merge_collectors"],
    "engine.block": ["engine:_run_block"],
    "engine.api": [
        "engine:run_ensemble",
        "engine:simulate_linear",
        "engine:simulate_posterior",
        "engine:simulate_stratonovich_pure",
    ],
    "master.vectorized_liouvillian": ["master:vectorized_liouvillian"],
    "master.evolve_master": ["master:evolve_master"],
    "master.equilibrium": ["master:equilibrium"],
    "analysis.ergodic": ["analysis:build_ergodic_report"],
    "analysis.invariant_measure": ["analysis:empirical_invariant_measure"],
    "analysis.lie_rank_check": ["analysis:lie_rank_check"],
    "model.structural_checks": [
        "model:check_pure_preserving",
        "model:check_purification_obstruction_dim2",
        "model:check_ellipticity",
    ],
    "serialize.write": [
        "serialize:save_model",
        "serialize:write_trajectory_csv",
        "serialize:write_ensemble_csv",
        "serialize:write_states_csv",
        "serialize:write_histogram_csv",
        "serialize:write_report",
    ],
    "serialize.load": ["serialize:load_model"],
    "cli": ["cli:main"],
}

STEP_ROLES = ("engine.step.linear", "engine.step.posterior", "engine.step.stratonovich")


class _Patches:
    """Replace functions by wrappers in every qtraj namespace; undo on request."""

    def __init__(self):
        self._undo = []

    def resolve(self, target: str):
        """(owner, attr, function) for "module:attr", or None if it is gone."""
        mod_name, _, path = target.partition(":")
        owner = sys.modules.get(f"qtraj.{mod_name}")
        *outer, attr = path.split(".")
        for name in outer:
            owner = getattr(owner, name, None)
        fn = getattr(owner, attr, None) if owner is not None else None
        return (owner, attr, fn) if callable(fn) else None

    def replace(self, target: str, make_wrapper) -> bool:
        found = self.resolve(target)
        if found is None:
            return False
        owner, attr, fn = found
        wrapper = make_wrapper(fn)
        if isinstance(owner, type):
            self._undo.append((owner, attr, fn))
            setattr(owner, attr, wrapper)
            return True
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not (mod_name == "qtraj" or mod_name.startswith("qtraj.")):
                continue
            for key, value in list(vars(mod).items()):
                if value is fn:
                    self._undo.append((mod, key, fn))
                    setattr(mod, key, wrapper)
        return True

    def undo(self) -> None:
        for owner, attr, fn in reversed(self._undo):
            setattr(owner, attr, fn)
        self._undo.clear()


def _bind(fn, args, kwargs) -> dict:
    return inspect.signature(fn).bind(*args, **kwargs).arguments


class Probe:
    """Keeps ensemble results and per-block timings of one repetition."""

    def __init__(self, work_dir: str):
        self.work_dir = work_dir
        self.ensembles = []
        self._patches = _Patches()

    def install(self) -> None:
        ensembles = self.ensembles
        block_file = os.path.join(self.work_dir, "blocks.{pid}")

        def keep_result(fn):
            @functools.wraps(fn)
            def wrapper(*args, **kwargs):
                out = fn(*args, **kwargs)
                ensembles.append(out)
                return out

            return wrapper

        def time_block(fn):
            # Pool workers unpickle the block function by its qualified name,
            # which functools.wraps copies, so forked workers run this wrapper.
            @functools.wraps(fn)
            def wrapper(*args, **kwargs):
                t0 = time.perf_counter()
                out = fn(*args, **kwargs)
                dur = time.perf_counter() - t0
                with open(block_file.format(pid=os.getpid()), "a") as fh:
                    fh.write(f"{dur!r}\n")
                return out

            return wrapper

        self._patches.replace("engine:run_ensemble", keep_result)
        self._patches.replace("engine:_run_block", time_block)

    def uninstall(self) -> None:
        self._patches.undo()

    def block_seconds(self) -> dict[int, list[float]]:
        """Durations of the ``_run_block`` calls, per process id."""
        out = {}
        for name in sorted(os.listdir(self.work_dir)):
            if name.startswith("blocks."):
                with open(os.path.join(self.work_dir, name)) as fh:
                    out[int(name.split(".", 1)[1])] = [float(line) for line in fh if line.strip()]
        return out


class Tracer:
    """Span aggregates per (parent role, role) plus exact work counts."""

    def __init__(self):
        self.agg: dict[tuple[str | None, str], list] = {}
        self.present: set[str] = set()   # roles with at least one function
        self.wrapped: set[str] = set()   # targets that were found and wrapped
        self.counts = {
            "traj_steps": {},          # mode -> trajectory-steps integrated
            "adaptive_traj_steps": 0,  # trajectory-steps split into substeps
            "substeps": 0,             # trajectory-substeps taken by those
        }
        self.counts_valid = True
        self._stack: list[list] = []
        self._patches = _Patches()

    def _span(self, role: str, on_call=None):
        stack = self._stack
        agg = self.agg
        clock = time.perf_counter

        def make(fn):
            @functools.wraps(fn)
            def wrapper(*args, **kwargs):
                if on_call is not None:
                    on_call(fn, args, kwargs)
                parent = stack[-1][0] if stack else None
                frame = [role, 0.0]
                stack.append(frame)
                t0 = clock()
                try:
                    return fn(*args, **kwargs)
                finally:
                    dur = clock() - t0
                    stack.pop()
                    if stack:
                        stack[-1][1] += dur
                    rec = agg.get((parent, role))
                    if rec is None:
                        rec = agg[(parent, role)] = [0, 0.0, 0.0]
                    rec[0] += 1
                    rec[1] += dur
                    rec[2] += dur - frame[1]

            return wrapper

        return make

    def _count_batch(self, fn, args, kwargs) -> None:
        try:
            a = _bind(fn, args, kwargs)
            steps = len(a["seeds"]) * a["grid"].n_steps
            per_mode = self.counts["traj_steps"]
            per_mode[a["mode"]] = per_mode.get(a["mode"], 0) + steps
        except (TypeError, KeyError, AttributeError):
            self.counts_valid = False

    def _count_substeps(self, fn, args, kwargs) -> None:
        try:
            a = _bind(fn, args, kwargs)
            b = int(a["rho"].shape[0])
            self.counts["adaptive_traj_steps"] += b
            self.counts["substeps"] += b * int(a["s"])
        except (TypeError, KeyError, AttributeError, IndexError):
            self.counts_valid = False

    def install(self) -> None:
        hooks = {
            "engine:_simulate_batch": self._count_batch,
            "engine:_posterior_substeps": self._count_substeps,
        }
        for role, targets in ROLES.items():
            for target in targets:
                if self._patches.replace(target, self._span(role, hooks.get(target))):
                    self.present.add(role)
                    self.wrapped.add(target)
        if "engine.driver" not in self.present:
            self.counts_valid = False

    def uninstall(self) -> None:
        self._patches.undo()

    def total(self, role: str) -> float:
        """Inclusive seconds of the role's spans, counting nested same-role spans once."""
        return sum(
            rec[1] for (parent, r), rec in self.agg.items() if r == role and parent != role
        )

    def self_time(self, role: str, parents=None) -> float:
        """Self seconds of the role's spans, optionally only under given parents."""
        return sum(
            rec[2]
            for (parent, r), rec in self.agg.items()
            if r == role and (parents is None or parent in parents)
        )

    def calls(self, role: str) -> int:
        return sum(rec[0] for (_, r), rec in self.agg.items() if r == role)

    def spans(self) -> list[dict]:
        """The aggregates as plain data, for the detail line."""
        return [
            {"parent": p, "role": r, "calls": rec[0], "total_s": rec[1], "self_s": rec[2]}
            for (p, r), rec in sorted(self.agg.items(), key=lambda kv: (str(kv[0][0]), kv[0][1]))
        ]
