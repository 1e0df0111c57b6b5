#!/usr/bin/env python3
"""End-to-end reconstruction benchmark: memo on vs off, split by layer.

Run from the repository root::

    python3 reconbench/run.py --workload warm-rescan --seed 0 --seconds 10 --trace 0

Workloads: ``warm-rescan``, ``cold-service``, ``remote-tier`` (see
README.md).  ``--trace 0`` prints the end-to-end metrics, ``--trace 1``
the per-layer ones.  The last line of standard output is one JSON object
with ``correct``, ``attempted``, ``failed`` and ``metrics``.

The process pins BLAS, OpenMP and FFT pools to one thread before numpy
loads: with the default two-thread pools a solve's CPU time runs ~45%
above its wall time and the spread between runs is too wide to gate on.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
CACHE = HERE / ".cache"
THREADS = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
WORKLOADS = ("warm-rescan", "cold-service", "remote-tier")


def child_env() -> dict:
    """Environment of the benchmark's subprocesses: this checkout's
    sources, one-thread pools, observability off."""
    env = {k: v for k, v in os.environ.items()
           if not k.startswith("REPRO_OBS") and k != "REPRO_FLIGHT_DIR"}
    env.update(THREADS)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    return env


def ensure_inputs(seed: int) -> Path:
    """Make (or reuse) the seeded scans in a separate process, so neither
    its time nor its memory counts toward any metric."""
    from bench_inputs import VERSION

    path = CACHE / f"scans-v{VERSION}-seed{seed}.npz"
    if not path.exists():
        CACHE.mkdir(exist_ok=True)
        subprocess.run(
            [sys.executable, str(HERE / "bench_inputs.py"), "--seed", str(seed),
             "--out", str(path)],
            env=child_env(), check=True, timeout=300,
        )
    return path


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "repro").is_dir():
        print(f"reconbench: no program sources at {SRC}", file=sys.stderr)
        return 2

    env = child_env()
    for key in [k for k in os.environ if k not in env]:
        del os.environ[key]
    os.environ.update(env)
    if args.trace:
        os.environ["REPRO_OBS"] = "1"
    inputs = ensure_inputs(args.seed)

    # set-up starts here: imports, operator plans, warm-up, daemon, scheduler
    t_start = time.perf_counter()
    sys.path.insert(0, str(SRC))
    import bench_workloads as bw
    import numpy as np

    with np.load(inputs) as npz:
        arrays = {k: npz[k] for k in npz.files}
    trace = None
    if args.trace:
        from bench_trace import LayerTrace

        trace = LayerTrace()
        trace.start()
    run = bw.Run(args.workload, arrays, args.seconds, trace, t_start)
    workdir = CACHE / f"run-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        bw.WORKLOADS[args.workload](run, env, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    print(f"reconbench {args.workload} seed {args.seed} trace {args.trace}")
    print("environment: " + json.dumps(bw.environment()))
    for line in run.notes:
        print(line)
    if trace is not None:
        metrics = trace.metrics(run.memo_events, run.extra)
        print(f"interpolation cache per operator set (MB): {trace.cache_split_mb()}")
        print(f"spans dropped: {trace.dropped}")
    else:
        metrics = run.end_to_end()
    for name, (value, unit) in metrics.items():
        print(f"{name} = {value:.6g} {unit}")
    print(f"attempted {run.tally.attempted}, failed {run.tally.failed}")
    for reason in run.tally.unexpected:
        print(f"unexpected failure: {reason}")
    print(json.dumps({
        "correct": not run.tally.unexpected,
        "attempted": run.tally.attempted,
        "failed": run.tally.failed,
        "metrics": {n: {"value": v, "unit": u} for n, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
