"""One repetition of a workload, in a fresh interpreter started by run.py.

Usage (run.py starts it; it is not meant to be run by hand):

    python3 perfbench/rep.py --root DIR --workload NAME --seed N \
        --kind {warmup,untraced,traced,kernels} --work-dir DIR --fd FD [--quick]

It imports ``qtraj`` from ``DIR/src``, sets the workload up, reports
``{"event": "ready"}`` on file descriptor FD (run.py times set-up from its
own start to that line), runs the timed calls, checks the outputs and
reports one ``{"event": "result", ...}`` line on FD.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import sys
import time

from tracer import STEP_ROLES, Probe, Tracer


def _send(fd: int, obj: dict) -> None:
    os.write(fd, (json.dumps(obj) + "\n").encode())


def layer_metrics(tracer, requested_traj_steps: int) -> dict:
    """Per-layer metrics of one traced repetition; absent roles are left out."""
    present = tracer.present
    m = {}
    counts = tracer.counts if tracer.counts_valid else None
    if counts is not None:
        steps = counts["traj_steps"]
        total = sum(steps.values())

        def per_traj_step(seconds: float) -> float:
            return 1e6 * seconds / total if total else 0.0

        for role in STEP_ROLES:
            if role in present:
                mode_steps = steps.get(role.rsplit(".", 1)[1], 0)
                m[f"{role}.us_per_traj_step"] = (
                    1e6 * tracer.self_time(role) / mode_steps if mode_steps else 0.0
                )
        for role in ("engine.generator", "engine.repair"):
            if role in present:
                m[f"{role}.us_per_traj_step"] = per_traj_step(
                    tracer.self_time(role, parents=STEP_ROLES)
                )
        m["engine.driver.self_us_per_traj_step"] = per_traj_step(
            tracer.self_time("engine.driver")
        )
        if "engine:_posterior_substeps" in tracer.wrapped:
            post = steps.get("posterior", 0)
            adaptive = counts["adaptive_traj_steps"]
            m["engine.substep.share"] = adaptive / post if post else 0.0
            m["engine.substep.mean_s"] = counts["substeps"] / adaptive if adaptive else 0.0
        m["engine.traj_steps.integrated_over_requested"] = total / requested_traj_steps
    if "engine.collect" in present:
        calls = tracer.calls("engine.collect")
        m["engine.collect.us_per_step"] = (
            1e6 * tracer.self_time("engine.collect") / calls if calls else 0.0
        )
    inclusive_ms = {
        "engine.merge.ms": "engine.merge",
        "master.vectorized_liouvillian.ms": "master.vectorized_liouvillian",
        "master.evolve_master.ms": "master.evolve_master",
        "master.equilibrium.ms": "master.equilibrium",
        "analysis.ergodic.ms": "analysis.ergodic",
        "analysis.invariant_measure.ms": "analysis.invariant_measure",
        "analysis.lie_rank_check.ms": "analysis.lie_rank_check",
        "model.structural_checks.ms": "model.structural_checks",
        "serialize.write.ms": "serialize.write",
    }
    for name, role in inclusive_ms.items():
        if role in present:
            m[name] = 1e3 * tracer.total(role)
    if "cli" in present:
        m["cli.self_ms"] = 1e3 * tracer.self_time("cli")
    return m


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--root", required=True)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--kind", required=True,
                        choices=("warmup", "untraced", "traced", "kernels"))
    parser.add_argument("--work-dir", required=True, dest="work_dir")
    parser.add_argument("--fd", type=int, required=True)
    parser.add_argument("--quick", action="store_true")
    args = parser.parse_args(argv)

    src = os.path.realpath(os.path.join(args.root, "src"))
    sys.path.insert(0, src)
    import numpy  # noqa: F401  (set-up time covers these imports)
    import scipy.linalg  # noqa: F401
    import qtraj

    if not os.path.realpath(qtraj.__file__).startswith(src + os.sep):
        print(f"qtraj imported from {qtraj.__file__}, not from {src}", file=sys.stderr)
        return 3

    import kernels
    import workloads

    if args.kind in ("warmup", "kernels"):
        _send(args.fd, {"event": "ready"})
        result = {"event": "result"}
        if args.kind == "kernels":
            result["kernels"] = kernels.kernel_metrics(args.seed)
        _send(args.fd, result)
        return 0

    wl = workloads.WORKLOADS[args.workload](args.seed, args.quick)
    wl.setup(args.work_dir)
    _send(args.fd, {"event": "ready"})

    probe = Probe(args.work_dir)
    probe.install()
    tracer = Tracer() if args.kind == "traced" else None
    if tracer is not None:
        tracer.install()
    t0 = time.perf_counter()
    wl.run()
    wall = time.perf_counter() - t0
    if tracer is not None:
        tracer.uninstall()
    probe.uninstall()
    rss_self_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    rss_worker_kb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    blocks = probe.block_seconds()

    outcome = wl.check(probe)
    result = {
        "event": "result",
        "wall_s": wall,
        "rss_self_kb": rss_self_kb,
        "rss_worker_kb": rss_worker_kb,
        "worker_processes": len(set(blocks) - {os.getpid()}),
        "block_seconds": [d for durations in blocks.values() for d in durations],
        "requested_traj_steps": wl.requested_traj_steps,
        "outcome": outcome.as_dict(),
    }
    if tracer is not None:
        result["layers"] = layer_metrics(tracer, wl.requested_traj_steps)
        result["trace_counts"] = tracer.counts if tracer.counts_valid else None
        result["spans"] = tracer.spans()
    _send(args.fd, result)
    return 0


if __name__ == "__main__":
    sys.exit(main())
