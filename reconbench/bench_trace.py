"""Per-layer tracing for the reconstruction benchmark (``--trace 1``).

Spans come from two places and land in the program's own span collector
(:mod:`repro.obs`), so they form one tree:

- spans the program already records: ``usfft.fft``, ``usfft.interp``,
  ``memo.ann_query``, ``memo.dispatch``, ``sweep.*``, ``admm.outer``,
  ``solver.reconstruct``, ``job.run``, ``net_client.request``;
- ``bench.*`` spans this module opens around public functions of each
  layer, by wrapping them on their classes or modules for the duration of
  the traced run.

Every time metric is a self time: a span's duration minus the time its
child spans cover.  A ``sweep.*`` span's self time is memo-engine work when
a memoized executor ran it and executor glue when ``DirectExecutor`` did;
:meth:`LayerTrace.collect` is told which.
"""

from __future__ import annotations

import functools
import time
import weakref
from collections import defaultdict

from repro.core.keying import PoolKeyEncoder
from repro.core.memo_cache import PrivateMemoCache
from repro.core.memo_db import MemoDatabase
from repro.lamino.operators import LaminoOperators
from repro.lamino.usfft import USFFT2DPlan
from repro.net.client import RemoteMemoClient
from repro.obs import runtime as obs
from repro.obs.config import ObsConfig
from repro.service.scheduler import SharedMemoService
from repro.solvers import lsp
from repro.solvers.admm import ADMMSolver

#: per-thread span ring capacity: a traced cold job records ~10k spans
SPAN_BUFFER = 1 << 18
MB = float(1 << 20)

#: operator method -> memo-engine op name
OP_METHODS = {"fu1d": "Fu1D", "fu1d_adj": "Fu1D*", "fu2d": "Fu2D", "fu2d_adj": "Fu2D*"}

#: (owner, attribute, span name) of every wrapped public function
_WRAPS = [
    (LaminoOperators, "__init__", "bench.plan_build"),
    *((LaminoOperators, m, f"bench.op.{m}") for m in OP_METHODS),
    (lsp, "estimate_normal_lipschitz", "bench.lipschitz"),
    (ADMMSolver, "run", "bench.admm_run"),
    (PoolKeyEncoder, "encode", "bench.encode"),
    (PrivateMemoCache, "lookup", "bench.cache_lookup"),
    (PrivateMemoCache, "insert", "bench.cache_lookup"),
    (MemoDatabase, "query", "bench.db_query"),
    (MemoDatabase, "query_batch", "bench.db_query"),
    (MemoDatabase, "insert", "bench.db_insert"),
    (MemoDatabase, "insert_batch", "bench.db_insert"),
    (RemoteMemoClient, "query_batch", "bench.net"),
    (RemoteMemoClient, "insert_batch", "bench.net"),
    (RemoteMemoClient, "flush", "bench.net"),
    (SharedMemoService, "seed", "bench.seed"),
    (SharedMemoService, "absorb", "bench.absorb"),
]


def _spanned(fn, name):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        with obs.span(name):
            return fn(*args, **kwargs)

    return wrapper


class LayerTrace:
    """Installs the wrappers, drains spans and sums self times by layer."""

    def __init__(self) -> None:
        self.self_s: dict[str, float] = defaultdict(float)
        self.total_s: dict[str, float] = defaultdict(float)
        self.count: dict[str, int] = defaultdict(int)
        self.chunk_op_s: dict[str, float] = defaultdict(float)
        self.chunk_op_n: dict[str, int] = defaultdict(int)
        self.cache_build_s = 0.0
        self.cache_bytes = {"full": 0, "chunk": 0}
        self.dropped = 0
        self.accounting = True
        self._child_s: dict[int, float] = defaultdict(float)
        self._built: weakref.WeakValueDictionary = weakref.WeakValueDictionary()
        self._patches: list = []

    # -- lifecycle ---------------------------------------------------------------------

    def start(self) -> None:
        obs.configure(ObsConfig(span_buffer=SPAN_BUFFER))
        for owner, attr, name in _WRAPS:
            self._patch(owner, attr, _spanned(getattr(owner, attr), name))
        for attr in ("block_gather", "block_scatter"):
            self._patch(USFFT2DPlan, attr, self._block_wrapper(getattr(USFFT2DPlan, attr)))

    def stop(self) -> None:
        """Restore every wrapped function and switch tracing off."""
        for owner, attr, orig in reversed(self._patches):
            setattr(owner, attr, orig)
        self._patches.clear()
        obs.configure(ObsConfig(enabled=False))

    def _patch(self, owner, attr, replacement) -> None:
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, replacement)

    def _block_wrapper(self, fn):
        """Times the lazy interpolation-cache builds: the first call for a
        (range, dtype) returns a matrix no earlier call returned."""

        @functools.wraps(fn)
        def wrapper(plan, start, stop, dtype):
            with obs.span("bench.cache"):
                t0 = time.perf_counter()
                mat = fn(plan, start, stop, dtype)
                dt = time.perf_counter() - t0
            if id(mat) not in self._built:
                self._built[id(mat)] = mat
                if self.accounting:
                    self.cache_build_s += dt
                    kind = "full" if stop - start == plan.nslices else "chunk"
                    self.cache_bytes[kind] += (
                        mat.data.nbytes + mat.indices.nbytes + mat.indptr.nbytes
                    )
            return mat

        return wrapper

    # -- span accounting ---------------------------------------------------------------

    def collect(self, mode: str | None) -> None:
        """Drain finished spans into the per-layer sums.  ``mode`` says who
        ran the ``sweep.*`` spans ("memo" or "direct"); None discards."""
        records, dropped = obs.drain_spans()
        self.dropped += dropped
        if mode is None or not self.accounting:
            return
        # a parent starts before its children but finishes after them, so
        # child durations are summed first (they may arrive in an earlier
        # drain than their parent; the sums carry over)
        names = {r["span_id"]: r["name"] for r in records}
        cache_child_s: dict[int, float] = defaultdict(float)
        for r in records:
            if r["parent_id"] is not None:
                self._child_s[r["parent_id"]] += r["dur_s"]
                if r["name"] == "bench.cache":
                    cache_child_s[r["parent_id"]] += r["dur_s"]
        for r in records:
            name = r["name"]
            own = r["dur_s"] - self._child_s.pop(r["span_id"], 0.0)
            if name.startswith("sweep."):
                name = f"sweep[{mode}]"
            self.self_s[name] += own
            self.total_s[name] += r["dur_s"]
            self.count[name] += 1
            if name.startswith("bench.op.") and names.get(r["parent_id"], "").startswith(
                "sweep."
            ):
                # a chunk op's cost to a hit excludes lazy cache builds
                self.chunk_op_s[name] += r["dur_s"] - cache_child_s[r["span_id"]]
                self.chunk_op_n[name] += 1

    # -- metrics -----------------------------------------------------------------------

    def metrics(self, memo_events: list, extra: dict) -> dict[str, tuple[float, str]]:
        """Every per-layer metric; ``memo_events`` are the MemoEvents of
        every memoized reconstruction, ``extra`` the counters read from the
        program (db entries, net stats, daemon memory, trace overhead)."""
        s = self.self_s
        cases: dict[str, int] = defaultdict(int)
        hits_by_op: dict[str, int] = defaultdict(int)
        for ev in memo_events:
            cases[ev.case] += 1
            if ev.case in ("cache_hit", "db_hit"):
                hits_by_op[ev.op] += 1
        hits = cases["cache_hit"] + cases["db_hit"]
        memoizable = sum(n for case, n in cases.items() if case != "direct")
        saved = 0.0
        for method, op in OP_METHODS.items():
            n = self.chunk_op_n[f"bench.op.{method}"]
            if n:
                saved += hits_by_op[op] * self.chunk_op_s[f"bench.op.{method}"] / n
        op_sets = max(1, self.count["bench.plan_build"])
        return {
            "lamino.plan_build_s": (s["bench.plan_build"], "s"),
            "lamino.cache_build_s": (self.cache_build_s, "s"),
            "lamino.cache_mb": (sum(self.cache_bytes.values()) / op_sets / MB, "MB"),
            **{f"lamino.{k}_s": (s[f"bench.op.{k}"], "s") for k in OP_METHODS},
            "lamino.fft_s": (s["usfft.fft"], "s"),
            "lamino.interp_s": (s["usfft.interp"], "s"),
            "lamino.calls": (sum(self.count[f"bench.op.{k}"] for k in OP_METHODS), "count"),
            # inclusive: the estimate is nothing but operator applies, which
            # also appear in the lamino.* self times
            "solvers.lipschitz_s": (self.total_s["bench.lipschitz"], "s"),
            "solvers.lipschitz_calls": (self.count["bench.lipschitz"], "count"),
            "solvers.admm_glue_s": (
                s["bench.admm_run"] + s["admm.outer"] + s["solver.reconstruct"]
                + s["sweep[direct]"],
                "s",
            ),
            "core.computed_ops": (cases["miss"] + cases["direct"], "count"),
            "core.cache_hits": (cases["cache_hit"], "count"),
            "core.db_hits": (cases["db_hit"], "count"),
            "core.hit_ratio": (hits / memoizable if memoizable else 0.0, "1"),
            "core.encode_s": (s["bench.encode"], "s"),
            "core.cache_lookup_s": (s["bench.cache_lookup"], "s"),
            "core.db_query_s": (s["bench.db_query"], "s"),
            "core.ann_search_s": (s["memo.ann_query"], "s"),
            "core.db_insert_s": (s["bench.db_insert"], "s"),
            "core.overhead_s": (s["sweep[memo]"] + s["memo.dispatch"], "s"),
            "core.saved_s": (saved, "s"),
            "core.db_entries": (extra.get("db_entries", 0), "count"),
            "net.requests": (extra.get("net_requests", 0), "count"),
            "net.request_s": (s["bench.net"] + s["net_client.request"], "s"),
            "net.payload_mb": (extra.get("net_payload_bytes", 0) / MB, "MB"),
            "net.daemon_rss_mb": (extra.get("daemon_rss_mb", 0.0), "MB"),
            "service.seed_s": (s["bench.seed"], "s"),
            "service.absorb_s": (s["bench.absorb"], "s"),
            "obs.trace_overhead_s": (extra.get("trace_overhead_s", 0.0), "s"),
        }

    def cache_split_mb(self) -> dict[str, float]:
        op_sets = max(1, self.count["bench.plan_build"])
        return {k: round(v / op_sets / MB, 1) for k, v in self.cache_bytes.items()}

