"""Output checks of the reconstruction benchmark, and the tally of
attempted and failed reconstructions.

Every check returns a list of failure descriptions (empty = pass), so a
reconstruction that fails any of them is counted as failed by
:class:`Tally`, never as a faster success.
"""

from __future__ import annotations

import numpy as np

from repro.lamino.usfft import dtft1d_direct, dtft2d_direct

#: operator-check tolerance: complex64 kernels sit near 1e-7 to 1e-5 of
#: the reference; a broken kernel is off by order one
OPERATOR_TOL = 1e-4


def relative_error(recon: np.ndarray, phantom: np.ndarray) -> float:
    """``||Re(recon) - phantom|| / ||phantom||``; the zero volume scores 1."""
    return float(np.linalg.norm(recon.real - phantom) / np.linalg.norm(phantom))


def phantom_failures(recon: np.ndarray | None, phantom: np.ndarray) -> list[str]:
    """A reconstruction must exist, be finite and be closer to its known
    phantom than the zero volume is."""
    if recon is None:
        return ["no reconstruction"]
    if not np.all(np.isfinite(recon)):
        return ["not finite"]
    err = relative_error(recon, phantom)
    if not err < 1.0:
        return [f"relative error {err:.3f} is no better than the zero volume"]
    return []


def identity_failures(recon: np.ndarray | None, reference: np.ndarray, what: str) -> list[str]:
    """Bit-identity against a reference reconstruction of the same scan."""
    if recon is None or not np.array_equal(recon, reference):
        return [f"not bit-identical to {what}"]
    return []


def remote_failures(net_stats, served: tuple[int, int] | None) -> list[str]:
    """The remote client is fail-open, so a reconstruction against a dead
    or wrong daemon still returns a plausible volume.  It passes only if no
    request degraded and the daemon answered queries and inserts for it
    (``served`` is the daemon's (queries, inserts) delta, or None when its
    counters could not be read)."""
    fails = []
    degraded = (
        net_stats.degraded_queries
        + net_stats.degraded_query_batches
        + net_stats.degraded_insert_batches
    )
    if degraded:
        fails.append(f"{degraded} degraded remote requests")
    if served is None:
        fails.append("daemon counters unreadable")
    elif served[0] <= 0 or served[1] <= 0:
        fails.append(f"daemon served {served[0]} queries and {served[1]} inserts")
    return fails


def job_failures(handle, index: int) -> list[str]:
    """A service job must end ``done``; every job after the first must
    have warm-started from the shared tier."""
    fails = []
    if handle.state.value != "done":
        fails.append(f"job ended {handle.state.value}")
    if index > 0 and not any(e.kind == "warm_start" for e in handle.events):
        fails.append("no warm_start event")
    return fails


def eq5(r_off: np.ndarray, r_memo: np.ndarray | None) -> float:
    """Paper Eq. 5, ``1 - ||R_off - R_memo|| / ||R_off||``, floored at 0: a
    memoized result farther from ``R_off`` than the zero volume carries no
    accuracy, and a negative share would cancel a good scan in the mean."""
    if r_memo is None or not np.all(np.isfinite(r_memo)):
        return 0.0
    return max(0.0, 1.0 - float(np.linalg.norm(r_off - r_memo) / np.linalg.norm(r_off)))


def operator_checks(ops, chunk_size: int, seed: int = 1234) -> dict[str, float]:
    """Adjoint dot-product test of the cancelled forward/adjoint pair, and
    ``fu1d``/``fu2d`` against the brute-force non-uniform DFT oracles at the
    geometry's ``z_freqs()``/``inplane_points()`` on a random volume.
    ``fu2d`` is checked on the first chunk of detector rows."""
    g = ops.geometry
    rng = np.random.default_rng(seed)

    def crandn(shape):
        return (rng.standard_normal(shape) + 1j * rng.standard_normal(shape)).astype(
            np.complex64
        )

    u = crandn(g.vol_shape)
    dhat = crandn(g.data_shape)
    lhs = np.vdot(ops.forward_freq(u), dhat)
    rhs = np.vdot(u, ops.adjoint_freq(dhat))
    adjoint = float(abs(lhs - rhs) / abs(lhs)) if lhs != 0 else float("inf")

    ref1 = dtft1d_direct(u, g.z_freqs(), axis=1)
    fu1d = float(np.linalg.norm(ops.fu1d(u) - ref1) / np.linalg.norm(ref1))

    rows = slice(0, chunk_size)
    u1 = crandn((g.vol_shape[0], chunk_size, g.vol_shape[2]))
    ref2 = dtft2d_direct(np.moveaxis(u1, 1, 0), g.inplane_points()[rows])
    ref2 = np.moveaxis(ref2.reshape(chunk_size, g.n_angles, g.det_shape[1]), 0, 1)
    fu2d = float(np.linalg.norm(ops.fu2d(u1, rows=rows) - ref2) / np.linalg.norm(ref2))
    return {"adjoint": adjoint, "fu1d_dft": fu1d, "fu2d_dft": fu2d}


class Tally:
    """Attempted and failed reconstructions of one run.

    ``expected`` names the (scan, mode) pairs a known fault makes fail;
    any other failure makes the run incorrect."""

    def __init__(self, expected: set[tuple[str, str]]) -> None:
        self.expected = expected
        self.attempted = 0
        self.failed = 0
        self.unexpected: list[str] = []
        self.seconds: dict[str, list[float]] = {"memo": [], "direct": []}

    def add(self, scan: str, mode: str, seconds: float, failures: list[str]) -> bool:
        """Count one reconstruction; returns True when it passed."""
        self.attempted += 1
        self.seconds[mode].append(seconds)
        if not failures:
            return True
        self.failed += 1
        if (scan, mode) not in self.expected:
            self.unexpected.append(f"{scan} {mode}: {'; '.join(failures)}")
        return False

    def fail_all(self, reason: str) -> None:
        """Operators that fail their own checks void every reconstruction."""
        self.unexpected.append(reason)
        self.failed = self.attempted
