"""Chaos battery: the executor layer under injected faults.

The contract being pinned (``docs/robustness.md``): under any injected
executor fault — a SIGKILLed worker, a hung chunk, a deterministic task
error — a sharded phase either finishes with output byte-identical to
the serial run or raises a typed error.  Never a hang (every test here
runs under a hard SIGALRM), never a silent wrong answer.

The battery targets the :class:`~repro.parallel.Executor` interface, not
pool internals: the per-chunk fault hook fires through every transport
(:class:`~repro.parallel.SerialExecutor` included), so a future remote
executor inherits this test surface unchanged.

Faults come from :mod:`repro.faults`: a seeded plan file that the
executor's chunk dispatch consults, with one-shot cross-process claims
so a killed-and-retried chunk does not re-trigger its own kill.
"""

from __future__ import annotations

import math
import os
import random
import signal

import pytest

import repro.parallel.executor as executor_module
from repro.core.msrp import MSRPSolver
from repro.core.params import AlgorithmParams
from repro.exceptions import InvalidParameterError, WorkerCrashError
from repro.faults import (
    Fault,
    FaultPlan,
    InjectedFault,
    active_plan,
    derive_fault_index,
    fired_count,
)
from repro.graph import generators
from repro.parallel import LocalProcessExecutor, SerialExecutor, run_sharded
from repro.parallel.tasks import chaos_probe_task

#: Hard wall-clock bound per test: the battery's whole point is "never a
#: hang", so a wedged scheduler must fail the test rather than stall CI.
TEST_TIME_LIMIT = 120.0

KEYS = list(range(24))
CONTEXT = {"bias": 7}


@pytest.fixture(autouse=True)
def hard_time_limit():
    """SIGALRM backstop: any hang becomes a loud failure within the limit."""

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


def serial_result():
    """The fault-free reference: compute it before a plan is installed,
    because the serial transport consults the plan at every chunk too."""
    return run_sharded(chaos_probe_task, KEYS, CONTEXT)


# ---------------------------------------------------------------------------
# single-fault scenarios
# ---------------------------------------------------------------------------


def test_killed_worker_recovers_identically(tmp_path):
    """A worker SIGKILLed as it picks up a chunk: the pool respawns,
    re-executes only that chunk, and the merged output matches serial."""
    plan = FaultPlan([Fault("kill_worker", chunk_index=1)])
    with active_plan(plan, str(tmp_path)) as plan_path:
        with LocalProcessExecutor(2) as pool:
            result = pool.run(chaos_probe_task, KEYS, CONTEXT)
            assert pool.crash_recoveries >= 1
            assert pool.serial_degradations == 0
        assert fired_count(plan_path) == 1
    assert result == serial_result()


def test_exhausted_retries_degrade_to_serial(tmp_path):
    """An always-killing chunk exhausts the retry budget; the phase
    finishes on the in-process serial path with identical output."""
    plan = FaultPlan([Fault("kill_worker", chunk_index=0, times=10)])
    with active_plan(plan, str(tmp_path)) as plan_path:
        with LocalProcessExecutor(2, max_crash_retries=2) as pool:
            result = pool.run(chaos_probe_task, KEYS, CONTEXT)
            assert pool.crash_recoveries == 3
            assert pool.serial_degradations == 1
        # Anti-vacuity: the kill actually fired on every pool attempt
        # (initial + retries); only the serial fallback escapes it.
        assert fired_count(plan_path) == 3
    assert result == serial_result()


def test_exhausted_retries_raise_typed_error(tmp_path):
    """Regression (satellite): with degradation disabled, exhausted
    retries surface as WorkerCrashError — not a hang, not a bare
    BrokenPipeError."""
    plan = FaultPlan([Fault("kill_worker", chunk_index=0, times=10)])
    with active_plan(plan, str(tmp_path)) as plan_path:
        with LocalProcessExecutor(
            2, max_crash_retries=1, degrade_to_serial=False
        ) as pool:
            with pytest.raises(WorkerCrashError) as excinfo:
                pool.run(chaos_probe_task, KEYS, CONTEXT)
        assert fired_count(plan_path) >= 1  # anti-vacuity: the kill fired
    message = str(excinfo.value)
    assert "chaos_probe_task" in message
    assert "unfinished" in message


def test_hung_chunk_times_out_and_recovers(tmp_path):
    """A chunk that sleeps far past the per-chunk timeout is treated as a
    crash: pool torn down, chunk retried (the one-shot fault does not
    re-fire), output identical."""
    plan = FaultPlan([Fault("hang_chunk", chunk_index=0, seconds=600.0)])
    with active_plan(plan, str(tmp_path)) as plan_path:
        with LocalProcessExecutor(2, chunk_timeout=1.0) as pool:
            result = pool.run(chaos_probe_task, KEYS, CONTEXT)
            assert pool.crash_recoveries >= 1
        assert fired_count(plan_path) == 1
    assert result == serial_result()


def test_deterministic_task_error_is_not_retried(tmp_path):
    """An exception raised *by* the task is a deterministic failure:
    it propagates typed and unchanged, with zero crash retries (retrying
    would raise identically, purity guarantees it)."""
    plan = FaultPlan([Fault("raise_chunk", chunk_index=1)])
    with active_plan(plan, str(tmp_path)) as plan_path:
        with LocalProcessExecutor(2) as pool:
            with pytest.raises(InjectedFault):
                pool.run(chaos_probe_task, KEYS, CONTEXT)
            assert pool.crash_recoveries == 0
        # Exactly one firing doubles as the no-retry proof: a retried
        # chunk would have claimed the fault a second time.
        assert fired_count(plan_path) == 1


def test_externally_killed_worker_between_phases(tmp_path):
    """A worker killed from *outside* (no plan involved) while the pool is
    idle between phases: the next phase's broadcast detects the dead pid,
    respawns, and completes identically."""
    with LocalProcessExecutor(2) as pool:
        first = pool.run(chaos_probe_task, KEYS, CONTEXT)
        victim = next(iter(pool._pool._pool))
        os.kill(victim.pid, signal.SIGKILL)
        second_context = {"bias": 11}
        second = pool.run(chaos_probe_task, KEYS, second_context)
        assert pool.crash_recoveries >= 1
    assert first == serial_result()
    assert second == run_sharded(chaos_probe_task, KEYS, second_context)


def test_kill_fault_refuses_outside_pool_worker(tmp_path):
    """Safety interlock: a kill_worker fault reaching a non-daemonic
    process raises instead of SIGKILLing the test process itself."""
    plan = FaultPlan([Fault("kill_worker", chunk_index=0)])
    with active_plan(plan, str(tmp_path)) as plan_path:
        # Drive the pool's worker-side dispatch shim directly, in this
        # (non-daemonic) test process.
        executor_module._TLS.generation = 99
        executor_module._TLS.context = CONTEXT
        try:
            with pytest.raises(InjectedFault, match="outside a daemonic"):
                executor_module._dispatch_chunk((chaos_probe_task, 99, 0, [0, 1]))
        finally:
            del executor_module._TLS.generation
            del executor_module._TLS.context
        # The claim precedes the interlock, so the refusal still counts
        # as a firing — vacuity would show up as zero.
        assert fired_count(plan_path) == 1


def test_serial_executor_honours_chunk_faults(tmp_path):
    """The fault hook is part of the Executor interface, not a pool
    detail: SerialExecutor's chunk loop consults the same plan, so a
    deterministic raise_chunk fault fires in-process too."""
    plan = FaultPlan([Fault("raise_chunk", chunk_index=0)])
    with active_plan(plan, str(tmp_path)) as plan_path:
        with SerialExecutor() as executor:
            with pytest.raises(InjectedFault):
                executor.run(chaos_probe_task, KEYS, CONTEXT)
        assert fired_count(plan_path) == 1


def test_close_after_abandoned_pool_is_noop(monkeypatch):
    """Regression (satellite): when terminate wedges and the pool is
    abandoned, close() must not raise — and further close() calls, and
    exiting the with-block, must be no-ops."""
    monkeypatch.setattr(executor_module, "POOL_TERMINATE_TIMEOUT", 0.05)

    def _wedged_terminate(self, pool):
        import time

        time.sleep(60.0)

    monkeypatch.setattr(
        executor_module.LocalProcessExecutor, "_terminate_quietly", _wedged_terminate
    )
    with LocalProcessExecutor(2) as pool:
        result = pool.run(chaos_probe_task, KEYS, CONTEXT)
        pool.close()  # abandons: _terminate_quietly never returns
        assert pool._pool is None
        pool.close()  # idempotent after abandonment
        pool.close()
    # __exit__ already ran close() a fourth time; one more for good measure.
    pool.close()
    assert result == serial_result()


# ---------------------------------------------------------------------------
# knob validation
# ---------------------------------------------------------------------------


@pytest.mark.parametrize(
    "kwargs",
    [
        {"max_crash_retries": -1},
        {"chunk_timeout": 0.0},
        {"chunk_timeout": -2.0},
    ],
)
def test_recovery_knobs_validated(kwargs):
    with pytest.raises(InvalidParameterError):
        LocalProcessExecutor(2, **kwargs)


def test_fault_plan_validation():
    with pytest.raises(InvalidParameterError):
        Fault("no_such_kind", chunk_index=0)
    with pytest.raises(InvalidParameterError):
        Fault("kill_worker")  # needs chunk_index
    with pytest.raises(InvalidParameterError):
        Fault("kill_worker", chunk_index=0, times=0)


# ---------------------------------------------------------------------------
# full-solve chaos (satellite): SIGKILL mid-phase, fingerprint-identical
# ---------------------------------------------------------------------------


def _solve_entries(workers: int):
    n = 48
    graph = generators.random_connected_graph(n, extra_edges=2 * n, seed=n)
    rng = random.Random(n)
    sources = sorted(rng.sample(range(n), 3))
    solver = MSRPSolver(
        graph,
        sources,
        params=AlgorithmParams(seed=n, workers=workers),
        landmark_strategy="auxiliary",
    )
    return list(solver.solve().iter_entries())


def test_full_solve_survives_worker_kill(tmp_path):
    """Satellite: a pool worker SIGKILLed mid-solve — the multi-phase
    auxiliary pipeline completes with entries (order and ``math.inf``
    identity included) identical to the serial solve."""
    serial = _solve_entries(0)
    assert serial, "solver produced no entries"
    plan = FaultPlan([Fault("kill_worker", chunk_index=1)])
    with active_plan(plan, str(tmp_path)) as plan_path:
        sharded = _solve_entries(2)
        assert fired_count(plan_path) == 1, "the injected kill never fired"
    assert sharded == serial
    serial_inf = sum(1 for *_k, v in serial if v is math.inf)
    sharded_inf = sum(1 for *_k, v in sharded if v is math.inf)
    assert sharded_inf == serial_inf


# ---------------------------------------------------------------------------
# seeded sweep: many seeds, every fault kind, one contract
# ---------------------------------------------------------------------------


def _chaos_round(seed: int, tmp_path) -> None:
    """One seeded round: derive a fault from ``seed``, run, assert the
    correct-or-loud contract."""
    kinds = ("kill_worker", "hang_chunk", "raise_chunk")
    kind = kinds[derive_fault_index(seed, "sweep-kind", len(kinds))]
    num_chunks = 2  # one chunk per worker
    chunk = derive_fault_index(seed, "sweep-chunk", num_chunks)
    fault = Fault(kind, chunk_index=chunk, seconds=600.0)
    plan_dir = tmp_path / f"seed{seed}"
    plan_dir.mkdir()
    expected = serial_result()
    with active_plan(FaultPlan([fault]), str(plan_dir)) as plan_path:
        with LocalProcessExecutor(2, chunk_timeout=2.0) as pool:
            if kind == "raise_chunk":
                with pytest.raises(InjectedFault):
                    pool.run(chaos_probe_task, KEYS, CONTEXT)
            else:
                result = pool.run(chaos_probe_task, KEYS, CONTEXT)
                assert result == expected
                assert pool.crash_recoveries >= 1
        assert fired_count(plan_path) == 1


@pytest.mark.parametrize("seed", [0, 1])
def test_chaos_sweep_smoke(seed, tmp_path):
    """Fast per-push slice of the sweep (CI ``chaos-smoke`` job)."""
    _chaos_round(seed, tmp_path)


@pytest.mark.slow
@pytest.mark.parametrize("seed", list(range(2, 12)))
def test_chaos_sweep_full(seed, tmp_path):
    """Nightly: ten more seeds across every chunk-fault kind."""
    _chaos_round(seed, tmp_path)
