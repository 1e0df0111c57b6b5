"""The three workloads of the reconstruction benchmark.

Each reconstructs full-scale laminography scans through the public API
only: ``MLRSolver`` (memo on), ``ADMMSolver`` + ``DirectExecutor`` (memo
off), ``ReconstructionScheduler`` (service jobs) and a ``python -m
repro.net.server`` daemon (remote memo tier).  A run does whole rounds of
its scan sequence until ``seconds`` have passed; at full scale one round
already takes longer than the benchmark's run length, so every run does
exactly one.
"""

from __future__ import annotations

import itertools
import os
import platform
import re
import resource
import signal
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import scipy
from bench_checks import (
    OPERATOR_TOL,
    Tally,
    eq5,
    identity_failures,
    job_failures,
    operator_checks,
    phantom_failures,
    relative_error,
    remote_failures,
)
from bench_inputs import FAULT, GEOMETRY, SEQUENCES, scan_name

from repro.core.config import MemoConfig, MLRConfig
from repro.core.mlr_solver import MLRSolver
from repro.lamino.geometry import LaminoGeometry
from repro.lamino.operators import LaminoOperators
from repro.lamino.usfft import configure_fft
from repro.net.client import RemoteMemoClient
from repro.service.jobs import JobSpec, JobState
from repro.service.scheduler import ReconstructionScheduler, ServiceConfig
from repro.solvers.admm import ADMMConfig, ADMMSolver
from repro.solvers.executor import DirectExecutor

FFT_WORKERS = 1
configure_fft(workers=FFT_WORKERS)

GEOM = LaminoGeometry(**GEOMETRY)
CHUNK = 4
#: wall-clock limit for one service job, far above its ~11 s
JOB_TIMEOUT_S = 150.0


def admm_config() -> ADMMConfig:
    return ADMMConfig(n_outer=6, n_inner=2)


def peak_rss_mb(pid: int | None = None) -> float:
    """Peak resident memory (VmHWM) of this process or of ``pid``."""
    if pid is None:
        return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    with open(f"/proc/{pid}/status") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError(f"no VmHWM for pid {pid}")


def environment() -> dict:
    return {
        "nproc": os.cpu_count(),
        "platform": platform.platform(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS"),
        "OMP_NUM_THREADS": os.environ.get("OMP_NUM_THREADS"),
        "fft_workers": FFT_WORKERS,
        "clock": "wall (perf_counter)",
    }


class Scan:
    def __init__(self, kind: str, phantom_seed: int, arrays) -> None:
        self.name = scan_name(kind, phantom_seed)
        self.u = arrays[f"u_{kind}{phantom_seed}"]
        self.d = arrays[f"d_{kind}{phantom_seed}"]


class NullTrace:
    """Stand-in for :class:`bench_trace.LayerTrace` in untraced runs."""

    def collect(self, mode) -> None:
        pass


class Run:
    """State of one benchmark run: scans, tally, timings and diagnostics."""

    def __init__(self, workload: str, arrays, seconds: float, trace, t_start: float) -> None:
        self.scans = [Scan(k, s, arrays) for k, s in SEQUENCES[workload]]
        self.seconds = seconds
        self.trace = trace if trace is not None else NullTrace()
        self.traced = trace is not None
        self.t_start = t_start
        self.setup_s = 0.0
        self.tally = Tally({(scan_name(*FAULT), "memo")})
        self.accuracy: list[float] = []
        self.memo_events: list = []
        self.extra: dict = {"db_entries": 0}
        self.rss_mb = 0.0
        self.notes: list[str] = []
        self._kept: list = []

    def setup_done(self) -> None:
        self.setup_s = time.perf_counter() - self.t_start
        self.trace.collect("memo")

    def rounds(self):
        """Whole rounds until ``seconds`` of measuring have passed; yields
        the round number."""
        t0 = time.perf_counter()
        for n in itertools.count():
            yield n
            if time.perf_counter() - t0 >= self.seconds:
                return

    def memo_result(self, result, solver) -> None:
        self.memo_events.extend(result.events)
        self.extra["db_entries"] = max(
            self.extra["db_entries"], solver.memo_executor.db_entries_total()
        )

    def pair(self, scan, t_memo, u_memo, memo_extra, t_off, u_off, note="") -> None:
        """Count the memo-on and memo-off reconstruction of one scan."""
        self.tally.add(scan.name, "memo", t_memo, memo_extra + phantom_failures(u_memo, scan.u))
        self.tally.add(scan.name, "direct", t_off, phantom_failures(u_off, scan.u))
        acc = eq5(u_off, u_memo)
        self.accuracy.append(acc)
        line = f"scan {scan.name}: memo {t_memo:.3f} s, off {t_off:.3f} s, eq5 {acc:.3f}"
        if u_memo is not None:
            line += f", err memo {relative_error(u_memo, scan.u):.3f}"
        line += f", err off {relative_error(u_off, scan.u):.3f}"
        if note:
            line += f", {note}"
        if memo_extra:
            line += " [" + "; ".join(memo_extra) + "]"
        self.notes.append(line)
        if self.traced:  # for the data residuals printed after the checks
            self._kept.append((scan, u_memo, u_off))

    def finish(self, ops, extra_rss_mb: float = 0.0) -> None:
        """Record peak memory, then run the operator checks on ``ops``
        (and, when traced, the exact data residuals)."""
        self.rss_mb = peak_rss_mb() + extra_rss_mb
        self.trace.collect("memo")
        if self.traced:
            self.trace.accounting = False
            for scan, u_memo, u_off in self._kept:
                res = [
                    "-" if u is None else
                    f"{np.linalg.norm(ops.forward(u) - scan.d) / np.linalg.norm(scan.d):.3f}"
                    for u in (u_memo, u_off)
                ]
                self.notes.append(
                    f"scan {scan.name}: data residual memo {res[0]} ||d||, off {res[1]} ||d||"
                )
        self._kept.clear()
        checks = operator_checks(ops, CHUNK)
        self.notes.append(
            "operator checks: " + ", ".join(f"{k} {v:.2e}" for k, v in checks.items())
        )
        bad = [k for k, v in checks.items() if not v < OPERATOR_TOL]
        if bad:
            self.tally.fail_all(f"operator checks failed: {', '.join(bad)}")

    def trace_overhead(self, ops, trace) -> None:
        """Traced minus untraced wall time of one fresh in-process memoized
        reconstruction of the first scan on warm operators."""
        d = self.scans[0].d
        traced_s, _, _ = memo_recon(ops, d)
        trace.collect(None)
        trace.stop()
        plain_s, _, _ = memo_recon(ops, d)
        self.extra["trace_overhead_s"] = traced_s - plain_s

    def end_to_end(self) -> dict[str, tuple[float, str]]:
        return {
            "recon_s": (float(np.median(self.tally.seconds["memo"])), "s"),
            "direct_recon_s": (float(np.median(self.tally.seconds["direct"])), "s"),
            "setup_s": (self.setup_s, "s"),
            "peak_rss_mb": (self.rss_mb, "MB"),
            "accuracy": (float(np.mean(self.accuracy)), "1"),
        }


# -- reconstructions ------------------------------------------------------------------


def memo_recon(ops, d, memo: MemoConfig | None = None, run: Run | None = None):
    """Time one memoized reconstruction, solver construction included."""
    t0 = time.perf_counter()
    solver = MLRSolver(
        GEOM, MLRConfig(chunk_size=CHUNK, memo=memo or MemoConfig()), admm_config(), ops=ops
    )
    try:
        result = solver.reconstruct(d)
        dt = time.perf_counter() - t0
        if run is not None:
            run.memo_result(result, solver)
        # the remote client's transport counters (None in-process)
        net_stats = getattr(getattr(solver.memo_executor, "router", None), "net_stats", None)
    finally:
        solver.close()
    return dt, result, net_stats


def direct_recon(ops, d):
    """Time one memo-off reconstruction, solver construction included."""
    t0 = time.perf_counter()
    solver = ADMMSolver(ops, admm_config(), executor=DirectExecutor(ops, chunk_size=CHUNK))
    u = solver.run(d).u
    return time.perf_counter() - t0, u


# -- workloads ------------------------------------------------------------------------


def warm_rescan(run: Run, env: dict, workdir: Path) -> None:
    ops = LaminoOperators(GEOM)
    _, warm, _ = memo_recon(ops, run.scans[0].d, run=run)
    run.setup_done()
    for _ in run.rounds():
        for i, scan in enumerate(run.scans):
            t_memo, res, _ = memo_recon(ops, scan.d, run=run)
            run.trace.collect("memo")
            extra = identity_failures(res.u, warm.u, "the warm-up") if i == 0 else []
            t_off, u_off = direct_recon(ops, scan.d)
            run.trace.collect("direct")
            run.pair(scan, t_memo, res.u, extra, t_off, u_off,
                     note=f"memoized fraction {res.memoized_fraction:.3f}")
    run.finish(ops)
    if run.traced:
        run.trace_overhead(ops, run.trace)


def cold_service(run: Run, env: dict, workdir: Path) -> None:
    # one worker: a job warm-starts only from jobs that finished before it
    scheduler = ReconstructionScheduler(ServiceConfig(n_workers=1))
    try:
        run.setup_done()
        for _ in run.rounds():
            handles = [
                scheduler.submit(JobSpec(
                    name=scan.name, geometry=GEOM, projections=scan.d,
                    config=MLRConfig(chunk_size=CHUNK), admm=admm_config(),
                ))
                for scan in run.scans
            ]
            for h in handles:
                h.wait(JOB_TIMEOUT_S)
            run.trace.collect("memo")
            ops = None
            for i, (scan, h) in enumerate(zip(run.scans, handles)):
                times = {e.kind: e.t for e in h.events}
                end = times.get("done", times.get("failed", times.get("cancelled")))
                start = times.get("running", times["submitted"])
                t_memo = end - start if end is not None else JOB_TIMEOUT_S
                result = h.result if h.state is JobState.DONE else None
                if result is not None:
                    run.memo_events.extend(result.events)
                    run.extra["db_entries"] = max(run.extra["db_entries"], h.db_entries_end)
                ops = None  # one operator set alive at a time
                t0 = time.perf_counter()
                ops = LaminoOperators(GEOM)
                _, u_off = direct_recon(ops, scan.d)
                t_off = time.perf_counter() - t0
                run.trace.collect("direct")
                run.pair(scan, t_memo, result.u if result is not None else None,
                         job_failures(h, i), t_off, u_off,
                         note=f"job events {[e.kind for e in h.events if e.kind != 'iteration']}")
    finally:
        scheduler.shutdown(cancel_pending=True)
    run.finish(ops)
    if run.traced:
        run.trace_overhead(ops, run.trace)


class Daemon:
    """A ``python -m repro.net.server`` subprocess on an ephemeral loopback port."""

    def __init__(self, env: dict, workdir: Path, timeout_s: float = 60.0) -> None:
        self.log_path = workdir / "memo-daemon.log"
        self._log = open(self.log_path, "wb")
        self.proc = subprocess.Popen(
            [sys.executable, "-m", "repro.net.server", "--host", "127.0.0.1", "--port", "0"],
            stdout=self._log, stderr=subprocess.STDOUT, env=env,
        )
        deadline = time.monotonic() + timeout_s
        while True:
            m = re.search(r"listening on ([\d.]+):(\d+)", self.log_path.read_text(errors="replace"))
            if m:
                self.address = f"{m.group(1)}:{m.group(2)}"
                return
            if self.proc.poll() is not None or time.monotonic() > deadline:
                self.stop()
                raise RuntimeError(f"memo daemon did not start; see {self.log_path}")
            time.sleep(0.02)

    def stop(self) -> None:
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGINT)
            try:
                self.proc.wait(15)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
        self._log.close()


def served_counts(client: RemoteMemoClient) -> tuple[int, int] | None:
    payload = client.metrics()
    if payload is None:
        return None
    server = payload["server"]
    return int(server["queries"]), int(server["inserts"])


def remote_tier(run: Run, env: dict, workdir: Path) -> None:
    ops = LaminoOperators(GEOM)
    daemon = Daemon(env, workdir)
    client = None
    try:
        client = RemoteMemoClient(daemon.address)
        if not client.ping():
            raise RuntimeError("memo daemon does not answer a ping")
        # the warm-up is also the in-process reference of the first scan
        _, reference, _ = memo_recon(ops, run.scans[0].d, run=run)
        run.setup_done()
        memo = MemoConfig(transport="tcp", server_address=daemon.address)
        net_requests = payload = 0
        for n in run.rounds():
            for i, scan in enumerate(run.scans):
                before = served_counts(client)
                t_memo, res, net_stats = memo_recon(ops, scan.d, memo=memo, run=run)
                run.trace.collect("memo")
                after = served_counts(client)
                served = None
                if before is not None and after is not None:
                    served = (after[0] - before[0], after[1] - before[1])
                extra = remote_failures(net_stats, served)
                if n == 0 and i == 0:  # only the first scan meets an empty tier
                    extra += identity_failures(res.u, reference.u, "the in-process reconstruction")
                net_requests += net_stats.requests
                payload += sum(
                    ev.key_bytes + ev.value_bytes for ev in res.events
                    if ev.case in ("db_hit", "miss")
                )
                t_off, u_off = direct_recon(ops, scan.d)
                run.trace.collect("direct")
                run.pair(scan, t_memo, res.u, extra, t_off, u_off,
                         note=f"memoized fraction {res.memoized_fraction:.3f}, "
                              f"daemon served {served}")
        daemon_rss = peak_rss_mb(daemon.proc.pid)
        run.extra.update(net_requests=net_requests, net_payload_bytes=payload,
                         daemon_rss_mb=daemon_rss)
    finally:
        if client is not None:
            client.close()
        daemon.stop()
    run.finish(ops, extra_rss_mb=run.extra["daemon_rss_mb"])
    if run.traced:
        run.trace_overhead(ops, run.trace)


WORKLOADS = {
    "warm-rescan": warm_rescan,
    "cold-service": cold_service,
    "remote-tier": remote_tier,
}
