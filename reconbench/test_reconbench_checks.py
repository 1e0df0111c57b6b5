"""The benchmark's output checks catch broken reconstructions.

Each broken case must be counted as a failed reconstruction, never as a
(faster) success: a zeroed volume, a reconstruction with added noise, and
a memoized solve against a remote tier on a closed port (which the
fail-open client survives with a plausible-looking volume).
"""

import socket

import numpy as np
import pytest
from bench_checks import (
    OPERATOR_TOL,
    Tally,
    eq5,
    identity_failures,
    operator_checks,
    phantom_failures,
    remote_failures,
)
from repro.core.config import MemoConfig, MLRConfig
from repro.core.mlr_solver import MLRSolver
from repro.lamino.geometry import LaminoGeometry
from repro.lamino.operators import LaminoOperators
from repro.lamino.phantoms import make_phantom
from repro.lamino.projector import simulate_data
from repro.solvers.admm import ADMMConfig

GEOM = LaminoGeometry((16, 16, 16), n_angles=12, det_shape=(16, 16))


@pytest.fixture(scope="module")
def scan():
    u = make_phantom("brain", GEOM.vol_shape, seed=0).astype(np.float32)
    return u, simulate_data(u, GEOM, noise_level=0.02, seed=10)


def reconstruct(d, memo=None):
    solver = MLRSolver(
        GEOM, MLRConfig(chunk_size=4, memo=memo or MemoConfig()),
        ADMMConfig(n_outer=6, n_inner=2),
    )
    try:
        result = solver.reconstruct(d)
        return result, solver.memo_executor.router.net_stats if memo else None
    finally:
        solver.close()


def closed_port() -> int:
    with socket.socket() as s:
        s.bind(("127.0.0.1", 0))
        return s.getsockname()[1]


def test_good_reconstruction_passes(scan):
    u, d = scan
    result, _ = reconstruct(d)
    tally = Tally(expected=set())
    assert tally.add("pcb/0", "memo", 1.0, phantom_failures(result.u, u))
    assert (tally.attempted, tally.failed) == (1, 0)


def test_zeroed_reconstruction_fails(scan):
    u, _ = scan
    tally = Tally(expected=set())
    assert not tally.add("pcb/0", "memo", 0.1, phantom_failures(np.zeros_like(u), u))
    assert (tally.attempted, tally.failed) == (1, 1)
    assert tally.unexpected


def test_noisy_reconstruction_fails(scan):
    u, d = scan
    result, _ = reconstruct(d)
    rng = np.random.default_rng(0)
    noisy = result.u + (1e-3 * rng.standard_normal(u.shape)).astype(np.float32)
    tally = Tally(expected=set())
    assert not tally.add("pcb/0", "memo", 0.1, identity_failures(noisy, result.u, "the warm-up"))
    loud = result.u + 3 * float(np.abs(u).max()) * rng.standard_normal(u.shape)
    assert not tally.add("pcb/0", "memo", 0.1, phantom_failures(loud, u))
    assert (tally.attempted, tally.failed) == (2, 2)


def test_remote_tier_on_closed_port_fails(scan):
    u, d = scan
    memo = MemoConfig(transport="tcp", server_address=f"127.0.0.1:{closed_port()}")
    result, net_stats = reconstruct(d, memo)
    # the fail-open client hands back a volume that passes the phantom check
    assert not phantom_failures(result.u, u)
    tally = Tally(expected=set())
    assert not tally.add("pcb/0", "memo", 0.1, remote_failures(net_stats, served=None))
    assert net_stats.degraded_queries > 0
    assert (tally.attempted, tally.failed) == (1, 1)


def test_expected_fault_is_failed_but_not_unexpected(scan):
    u, _ = scan
    tally = Tally(expected={("ic/1", "memo")})
    tally.add("ic/1", "memo", 1.0, phantom_failures(np.zeros_like(u), u))
    assert tally.failed == 1 and not tally.unexpected


def test_operator_checks_pass_and_catch_a_broken_kernel():
    ops = LaminoOperators(GEOM)
    assert all(v < OPERATOR_TOL for v in operator_checks(ops, 4).values())
    ops.fu1d = lambda u: np.zeros((u.shape[0], GEOM.det_shape[0], u.shape[2]), np.complex64)
    assert not operator_checks(ops, 4)["fu1d_dft"] < OPERATOR_TOL


def test_eq5_floors_diverged_results_at_zero():
    r_off = np.ones((4, 4, 4), np.complex64)
    assert eq5(r_off, r_off) == 1.0
    assert eq5(r_off, -3 * r_off) == 0.0
    assert eq5(r_off, None) == 0.0
