"""Chaos battery: atomic store writes under injected crashes + corruption.

The contract (``docs/robustness.md``): a crash at *any* point of
``write_store`` — mid-segment write, between the two files, between the
swap renames — leaves the target directory either as the previous
complete store or absent; never a half-written directory that
``load_store`` half-accepts.  And any byte-level corruption of a store
on disk is rejected loudly with a typed error, never served.

Crashes are injected at the writer's named checkpoints via
:mod:`repro.faults`; corruption is seeded via
:func:`repro.faults.corrupt_store` so a failing seed replays exactly.
"""

from __future__ import annotations

import os
import signal

import pytest

from repro.exceptions import InvalidParameterError
from repro.faults import (
    CORRUPTIONS,
    Fault,
    FaultPlan,
    InjectedFault,
    active_plan,
    corrupt_store,
    fired_count,
)
from repro.graph import generators
from repro.store import load_header, load_store, write_store

from tests.test_store import assert_results_identical, solve

TEST_TIME_LIMIT = 120.0

#: Every named checkpoint of the atomic write path, in execution order.
WRITE_CHECKPOINTS = (
    "store.write.segments",  # after segments.bin, before MANIFEST.json
    "store.write.staged",    # staging complete, before the swap
    "store.write.swap",      # between the two renames of an overwrite
)


@pytest.fixture(autouse=True)
def hard_time_limit():
    def _expired(signum, frame):  # pragma: no cover - only fires on bugs
        raise AssertionError(
            f"chaos test exceeded the {TEST_TIME_LIMIT}s hang backstop"
        )

    previous = signal.signal(signal.SIGALRM, _expired)
    signal.setitimer(signal.ITIMER_REAL, TEST_TIME_LIMIT)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


@pytest.fixture(scope="module")
def solved():
    graph = generators.random_connected_graph(13, extra_edges=10, seed=3)
    _solver, result = solve(graph, seed=3)
    return result


def _store_names(parent):
    return sorted(os.listdir(parent))


# ---------------------------------------------------------------------------
# crash-interrupted writes
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("at", WRITE_CHECKPOINTS[:2])
def test_interrupted_fresh_write_leaves_nothing(tmp_path, solved, at):
    # (the swap checkpoint exists only on the overwrite path: a fresh
    # target is promoted by a single atomic rename)
    """A crash while writing a *fresh* store leaves the target absent and
    no staging litter; a subsequent retry succeeds normally."""
    target = tmp_path / "store"
    plan = FaultPlan([Fault("crash_at", at=at)])
    with active_plan(plan, str(tmp_path)) as plan_path:
        with pytest.raises(InjectedFault):
            write_store(str(target), solved)
        # Anti-vacuity: the crash really hit the named checkpoint.
        assert fired_count(plan_path) == 1
        assert not target.exists()
        # No half-written staging directory survives the failure.
        litter = [n for n in _store_names(tmp_path) if n.startswith("store.tmp.")]
        assert litter == []
        with pytest.raises(InvalidParameterError):
            load_store(str(target))
        # The one-shot fault is spent: the retry (same plan active) lands.
        header = write_store(str(target), solved)
    loaded, _ = load_store(str(target))
    assert_results_identical(loaded, solved)
    assert header.fingerprint == load_header(str(target)).fingerprint


@pytest.mark.parametrize("at", WRITE_CHECKPOINTS)
def test_interrupted_overwrite_preserves_old_store(tmp_path, solved, at):
    """A crash while *overwriting* an existing store preserves the old
    store, loadable and intact — including the swap window, where the
    exception path restores the displaced directory."""
    target = tmp_path / "store"
    write_store(str(target), solved)
    old_header = load_header(str(target))

    graph2 = generators.random_connected_graph(13, extra_edges=14, seed=5)
    _solver2, newer = solve(graph2, seed=5)
    plan = FaultPlan([Fault("crash_at", at=at)])
    with active_plan(plan, str(tmp_path)) as plan_path:
        with pytest.raises(InjectedFault):
            write_store(str(target), newer)
        # Anti-vacuity: the crash really hit the named checkpoint.
        assert fired_count(plan_path) == 1
    loaded, header = load_store(str(target))
    assert header.fingerprint == old_header.fingerprint
    assert_results_identical(loaded, solved)
    litter = [n for n in _store_names(tmp_path) if n.startswith("store.tmp.")]
    assert litter == []


def test_overwrite_succeeds_without_faults(tmp_path, solved):
    """The two-rename swap path itself: overwriting swaps cleanly, the
    displaced copy is deleted, and the new store loads."""
    target = tmp_path / "store"
    write_store(str(target), solved)
    graph2 = generators.random_connected_graph(13, extra_edges=14, seed=5)
    _solver2, newer = solve(graph2, seed=5)
    new_header = write_store(str(target), newer)
    loaded, header = load_store(str(target))
    assert header.fingerprint == new_header.fingerprint
    assert_results_identical(loaded, newer)
    assert _store_names(tmp_path) == ["store"]


# ---------------------------------------------------------------------------
# seeded corruption: mutilated bytes are rejected, never served
# ---------------------------------------------------------------------------


def _corruption_round(seed, tmp_path, solved):
    target = tmp_path / "store"
    write_store(str(target), solved)
    description = corrupt_store(str(target), seed)
    with pytest.raises(InvalidParameterError):
        load_store(str(target))
    return description


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_corruption_smoke(seed, tmp_path, solved):
    """Fast per-push slice of the corruption sweep."""
    _corruption_round(seed, tmp_path, solved)


@pytest.mark.slow
def test_corruption_sweep_covers_every_mode(tmp_path, solved):
    """Nightly: enough seeds that every corruption mode provably ran."""
    seen = set()
    for seed in range(24):
        plan_dir = tmp_path / f"seed{seed}"
        plan_dir.mkdir()
        description = _corruption_round(seed, plan_dir, solved)
        # The first two words identify the mode ("truncated segments.bin"
        # vs "truncated MANIFEST.json").
        seen.add(" ".join(description.split()[:2]))
        if len(seen) == len(CORRUPTIONS):
            break
    assert len(seen) == len(CORRUPTIONS), (
        f"corruption sweep exercised only {sorted(seen)}"
    )


# ---------------------------------------------------------------------------
# fault plan validation
# ---------------------------------------------------------------------------


def test_fault_plan_validation():
    with pytest.raises(InvalidParameterError):
        Fault("no_such_kind", at="store.write.staged")
    with pytest.raises(InvalidParameterError):
        Fault("crash_at")  # needs at=<checkpoint>
    with pytest.raises(InvalidParameterError):
        Fault("drop_connection")  # needs connection_index
    with pytest.raises(InvalidParameterError):
        Fault("crash_at", at="store.write.staged", times=0)
