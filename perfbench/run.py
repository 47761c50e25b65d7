"""qtraj benchmark: three workloads, end-to-end metrics and a traced run.

Run from the root of a qtraj checkout (the directory holding ``src/qtraj``):

    python3 perfbench/run.py --workload ensemble_diffusive --seed 1 --seconds 20 --trace 0

Workloads (see ``workloads.py`` and ``BENCHMARK.json`` for why each exists):
``ensemble_diffusive``, ``trajectory_ergodic`` and ``ensemble_jumps``.

Every repetition runs in a fresh interpreter (``rep.py``) with BLAS pinned to
one thread.  ``--trace 0`` repeats the untraced workload with
``QTRAJ_THREADS`` = min(nproc, 2) until ``--seconds`` have passed (and at
least ``MIN_REPS`` times) and reports the medians of the end-to-end metrics.
``--trace 1`` runs the workload untraced with that many workers, then
alternately untraced and traced with one (so that no spans are lost in
forked workers), then the step-kernel microbenchmark, and reports the
per-layer metrics.

The last line of standard output is the result:
``{"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}``,
where ``attempted`` and ``failed`` count trajectories.  The line before it
holds the provenance and the per-repetition details.  ``--quick`` shrinks
every workload for a smoke test; its numbers are not comparable.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import select
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from importlib import metadata

HERE = os.path.dirname(os.path.abspath(__file__))
WORKLOADS = ("ensemble_diffusive", "trajectory_ergodic", "ensemble_jumps")
MIN_REPS = 5
TRACE_REPS = 3
REP_TIMEOUT_S = 120.0
RUN_DEADLINE_S = 170.0
BLAS_ENV = {
    "OMP_NUM_THREADS": "1",
    "OPENBLAS_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "VECLIB_MAXIMUM_THREADS": "1",
    "NUMEXPR_NUM_THREADS": "1",
}


class RepFailed(Exception):
    """A repetition crashed, timed out or sent no result."""


def _nproc() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


def _read_line(fd: int, buf: bytearray, deadline: float, proc) -> dict:
    while b"\n" not in buf:
        left = deadline - time.perf_counter()
        if left <= 0:
            raise RepFailed("timed out")
        ready, _, _ = select.select([fd], [], [], min(left, 1.0))
        if ready:
            chunk = os.read(fd, 65536)
            if not chunk:
                raise RepFailed(f"exited with code {proc.wait()} before reporting")
            buf.extend(chunk)
    line, _, rest = bytes(buf).partition(b"\n")
    buf[:] = rest
    return json.loads(line)


def run_rep(root: str, work_root: str, args, kind: str, threads: int, deadline: float) -> dict:
    """Start rep.py in a fresh interpreter; return its result plus ``setup_s``."""
    work_dir = tempfile.mkdtemp(prefix=f"{kind}-", dir=work_root)
    env = dict(os.environ, QTRAJ_THREADS=str(threads), **BLAS_ENV)
    cmd = [
        sys.executable, os.path.join(HERE, "rep.py"),
        "--root", root, "--workload", args.workload, "--seed", str(args.seed),
        "--kind", kind, "--work-dir", work_dir,
    ]
    if args.quick:
        cmd.append("--quick")
    rfd, wfd = os.pipe()
    cmd += ["--fd", str(wfd)]
    deadline = min(deadline, time.perf_counter() + REP_TIMEOUT_S)
    t_spawn = time.perf_counter()
    # Own session, so that a timed-out repetition is killed with its pool workers.
    proc = subprocess.Popen(cmd, cwd=root, env=env, pass_fds=(wfd,),
                            stdout=subprocess.DEVNULL, start_new_session=True)
    os.close(wfd)
    buf = bytearray()
    try:
        ready = _read_line(rfd, buf, deadline, proc)
        setup_s = time.perf_counter() - t_spawn
        result = _read_line(rfd, buf, deadline, proc)
        if ready.get("event") != "ready" or result.get("event") != "result":
            raise RepFailed("unexpected protocol messages")
        code = proc.wait(timeout=max(1.0, deadline - time.perf_counter()))
        if code != 0:
            raise RepFailed(f"exited with code {code}")
    except (RepFailed, subprocess.TimeoutExpired, json.JSONDecodeError) as exc:
        raise RepFailed(f"{kind} repetition: {exc}") from exc
    finally:
        os.close(rfd)
        if proc.poll() is None:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.wait()
    result["setup_s"] = setup_s
    result["threads"] = threads
    return result


def _median(values):
    return statistics.median(values) if values else None


def _peak_rss_mb(rep: dict) -> float:
    """Main process peak plus one peak per concurrently running pool worker."""
    workers = min(rep["threads"], rep["worker_processes"])
    return (rep["rss_self_kb"] + workers * rep["rss_worker_kb"]) / 1024.0


def _metric(value, unit: str) -> dict:
    return {"value": value, "unit": unit}


def _same_counts(reps, key) -> bool:
    values = [json.dumps(key(r), sort_keys=True) for r in reps]
    return len(set(values)) <= 1


def _trajectories(reps: list[dict]) -> tuple[int, int]:
    """(attempted, failed) trajectories over repetitions."""
    return (
        sum(r["outcome"]["attempted"] for r in reps),
        sum(r["outcome"]["failed"] for r in reps),
    )


def end_to_end(reps: list[dict]) -> dict:
    attempted, failed = _trajectories(reps)
    wall = _median([r["wall_s"] for r in reps])
    return {
        "setup_s": _metric(_median([r["setup_s"] for r in reps]), "s"),
        "wall_s": _metric(wall, "s"),
        "traj_steps_per_s": _metric(reps[0]["requested_traj_steps"] / wall, "1/s"),
        "peak_rss_mb": _metric(_median([_peak_rss_mb(r) for r in reps]), "MB"),
        "success_frac": _metric(1.0 - failed / attempted, "fraction"),
    }


def per_layer(par, ser, traced, kernels, checked) -> dict:
    """Per-layer metrics: traced medians, pool efficiency, kernels, overhead."""
    out = {}
    names = sorted({k for r in traced for k in r["layers"]})
    for name in names:
        vals = [r["layers"][name] for r in traced if name in r["layers"]]
        out[name] = _median(vals)
    eff = [sum(r["block_seconds"]) / (r["threads"] * r["wall_s"]) for r in par]
    out["engine.pool.efficiency"] = _median(eff)
    for kernel, row in sorted(kernels.items()):
        for key, value in row.items():
            out[f"engine.kernel.{kernel}.{key}"] = value
    out["serialize.bytes_written"] = traced[0]["outcome"]["counts"].get("bytes_written", 0)
    out["trace.overhead_s"] = _median([t["wall_s"] - u["wall_s"] for t, u in zip(traced, ser)])
    attempted, failed = _trajectories(checked)
    out["failed_frac"] = failed / attempted
    return out


def _layer_units() -> dict:
    units = {
        f"engine.step.{mode}.us_per_traj_step": "us"
        for mode in ("linear", "posterior", "stratonovich")
    }
    units.update({
        "engine.generator.us_per_traj_step": "us",
        "engine.repair.us_per_traj_step": "us",
        "engine.driver.self_us_per_traj_step": "us",
        "engine.collect.us_per_step": "us",
        "engine.merge.ms": "ms",
        "engine.pool.efficiency": "fraction",
        "engine.substep.share": "fraction",
        "engine.substep.mean_s": "count",
        "engine.traj_steps.integrated_over_requested": "ratio",
    })
    for kernel in ("linear", "posterior", "stratonovich", "direct"):
        units[f"engine.kernel.{kernel}.b1_us"] = "us"
        units[f"engine.kernel.{kernel}.b512_us_per_traj"] = "us"
    for name in ("master.vectorized_liouvillian", "master.evolve_master", "master.equilibrium",
                 "analysis.ergodic", "analysis.invariant_measure", "analysis.lie_rank_check",
                 "model.structural_checks", "serialize.write"):
        units[f"{name}.ms"] = "ms"
    units.update({
        "serialize.bytes_written": "bytes",
        "cli.self_ms": "ms",
        "trace.overhead_s": "s",
        "failed_frac": "fraction",
    })
    return units


# Every per-layer metric with its unit; a metric whose function is gone is absent.
LAYER_UNITS = _layer_units()


def _src_digest(root: str) -> str:
    h = hashlib.sha256()
    src = os.path.join(root, "src")
    for dirpath, dirnames, filenames in os.walk(src):
        dirnames[:] = sorted(d for d in dirnames if d != "__pycache__")
        for name in sorted(filenames):
            if name.endswith(".py"):
                path = os.path.join(dirpath, name)
                h.update(os.path.relpath(path, src).encode())
                with open(path, "rb") as fh:
                    h.update(fh.read())
    return h.hexdigest()[:16]


def _git_sha(root: str):
    if not os.path.isdir(os.path.join(root, ".git")):
        return None
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=root, capture_output=True, text=True, timeout=10
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() if out.returncode == 0 else None


def provenance(root: str, args, threads: int) -> dict:
    def version(pkg):
        try:
            return metadata.version(pkg)
        except metadata.PackageNotFoundError:
            return None

    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "quick": args.quick,
        "nproc": _nproc(),
        "python": platform.python_version(),
        "numpy": version("numpy"),
        "scipy": version("scipy"),
        "git_sha": _git_sha(root),
        "src_sha256": _src_digest(root),
        "qtraj_threads": threads,
        "blas_env": BLAS_ENV,
        "machine": platform.machine(),
    }


def _summary(rep: dict) -> dict:
    keep = ("threads", "setup_s", "wall_s", "rss_self_kb", "rss_worker_kb",
            "worker_processes", "block_seconds", "trace_counts", "outcome")
    return {k: rep[k] for k in keep if k in rep}


def measure(root: str, work_root: str, args, threads: int) -> tuple[dict, dict]:
    start = time.perf_counter()
    deadline = start + RUN_DEADLINE_S
    run_rep(root, work_root, args, "warmup", threads, deadline)
    details = {}
    if args.trace == 0:
        reps = []
        while len(reps) < MIN_REPS or time.perf_counter() - start < args.seconds:
            reps.append(run_rep(root, work_root, args, "untraced", threads, deadline))
        checked = reps
        metrics = end_to_end(reps)
        details["reps"] = [_summary(r) for r in reps]
        counts_ok = _same_counts(reps, lambda r: r["outcome"]["counts"])
    else:
        n = TRACE_REPS
        par = [run_rep(root, work_root, args, "untraced", threads, deadline) for _ in range(n)]
        # Single-process untraced and traced repetitions alternate, so that
        # the machine's drift falls on both sides of the overhead equally.
        ser, traced = [], []
        for _ in range(n):
            if threads > 1:
                ser.append(run_rep(root, work_root, args, "untraced", 1, deadline))
            traced.append(run_rep(root, work_root, args, "traced", 1, deadline))
        ser = ser or par
        kernels = run_rep(root, work_root, args, "kernels", 1, deadline)["kernels"]
        checked = par + traced + ([] if ser is par else ser)
        values = per_layer(par, ser, traced, kernels, checked)
        metrics = {name: _metric(v, LAYER_UNITS[name]) for name, v in sorted(values.items())}
        details["reps"] = {
            "untraced": [_summary(r) for r in par],
            "untraced_1": [_summary(r) for r in ser],
            "traced": [_summary(r) for r in traced],
        }
        details["spans"] = traced[0]["spans"]
        details["traced_wall_s"] = _median([r["wall_s"] for r in traced])
        details["untraced_1_wall_s"] = _median([r["wall_s"] for r in ser])
        counts_ok = _same_counts(checked, lambda r: r["outcome"]["counts"]) and _same_counts(
            traced, lambda r: r["trace_counts"]
        )
    problems = [p for r in checked for p in r["outcome"]["problems"]]
    if not counts_ok:
        problems.append("exact counts differ between repetitions of the same seed")
    details["problems"] = problems
    details["measured_s"] = time.perf_counter() - start
    attempted, failed = _trajectories(checked)
    result = {"correct": not problems, "attempted": attempted, "failed": failed, "metrics": metrics}
    return result, details


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--quick", action="store_true")
    args = parser.parse_args(argv)

    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "qtraj", "__init__.py")):
        print("perfbench: run from the root of a qtraj checkout (no src/qtraj here)",
              file=sys.stderr)
        return 2
    threads = max(1, min(_nproc(), 2))
    work_root = os.path.join(root, ".perfbench_work")
    os.makedirs(work_root, exist_ok=True)
    work = tempfile.mkdtemp(prefix="run-", dir=work_root)
    try:
        result, details = measure(root, work, args, threads)
    except RepFailed as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            os.rmdir(work_root)
        except OSError:
            pass
    details["provenance"] = provenance(root, args, threads)
    print(json.dumps(details))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
