"""Crash-resume battery: checkpointed solves survive being killed.

The contract (``docs/executors.md``): with ``checkpoint=<dir>`` set,
every completed chunk of every sharded phase is durably journaled as the
solve runs, and a solve killed at *any* point resumes — same graph, same
params, same directory — by re-executing only unjournaled work, with
entries (order and ``math.inf`` identity included) byte-identical to an
uninterrupted run.  Resume is key-granular, so the worker count may
change between the interrupted run and the resume.

Kills come from :mod:`repro.faults` ``crash_at`` faults aimed at the
journal's named checkpoints (``journal.record`` after each record
append, ``journal.phase.<task>`` after each phase that did fresh work),
so every test interrupts the solve at a deterministic mid-journal point
and ``fired_count`` proves the interruption actually happened.
"""

from __future__ import annotations

import json
import math
import os
import random
import signal

import pytest

from repro.core.msrp import MSRPSolver
from repro.core.params import AlgorithmParams
from repro.exceptions import InvalidParameterError
from repro.faults import (
    Fault,
    FaultPlan,
    InjectedFault,
    active_plan,
    derive_fault_index,
    fired_count,
)
from repro.graph import generators
from repro.parallel import CheckpointJournal, SerialExecutor, run_sharded
from repro.parallel.journal import (
    JOURNAL_FORMAT_VERSION,
    MANIFEST_NAME,
    RECORDS_DIR_NAME,
)
from repro.parallel.tasks import chaos_probe_task

#: Hard wall-clock bound per test (same rationale as the chaos battery).
TEST_TIME_LIMIT = 120.0

#: Problem size of the solver-level tests — large enough for every phase
#: of the auxiliary pipeline to shard, small enough for a fast battery.
N = 48

#: Checkpoint names that actually fire during the ``N``-vertex auxiliary
#: solve (the seeded sweep draws from these).
CRASH_POINTS = (
    "journal.record",
    "journal.phase.bfs_roots_task",
    "journal.phase.near_small_task",
    "journal.phase.center_tables_task",
)


@pytest.fixture(autouse=True)
def hard_time_limit():
    """SIGALRM backstop: any hang becomes a loud failure within the limit."""

    def _expired(signum, frame):  # pragma: no cover - only fires on bugs
        raise AssertionError(
            f"resume test exceeded the {TEST_TIME_LIMIT}s hang backstop"
        )

    previous = signal.signal(signal.SIGALRM, _expired)
    signal.setitimer(signal.ITIMER_REAL, TEST_TIME_LIMIT)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


def _make_solver(checkpoint=None, workers: int = 0) -> MSRPSolver:
    graph = generators.random_connected_graph(N, extra_edges=2 * N, seed=N)
    rng = random.Random(N)
    sources = sorted(rng.sample(range(N), 3))
    return MSRPSolver(
        graph,
        sources,
        params=AlgorithmParams(seed=N, workers=workers, checkpoint=checkpoint),
        landmark_strategy="auxiliary",
    )


@pytest.fixture(scope="module")
def baseline():
    """Entries of the uninterrupted, checkpoint-free serial solve."""
    entries = list(_make_solver().solve().iter_entries())
    assert entries, "solver produced no entries"
    return entries


def _assert_identical(entries, baseline) -> None:
    assert entries == baseline
    baseline_inf = sum(1 for *_k, v in baseline if v is math.inf)
    entries_inf = sum(1 for *_k, v in entries if v is math.inf)
    assert entries_inf == baseline_inf


def _records(checkpoint: str):
    return sorted(os.listdir(os.path.join(checkpoint, RECORDS_DIR_NAME)))


# ---------------------------------------------------------------------------
# journal mechanics
# ---------------------------------------------------------------------------


def test_run_sharded_checkpoint_round_trip(tmp_path):
    """run_sharded on an executor carrying a journal journals; a second
    run on a fresh executor replays from the journal and returns the
    identical result."""
    keys, context = list(range(24)), {"bias": 7}
    ckpt = str(tmp_path / "journal")
    plain = run_sharded(chaos_probe_task, keys, context)
    first = SerialExecutor().attach_journal(CheckpointJournal.open(ckpt))
    with first:
        assert run_sharded(chaos_probe_task, keys, context, pool=first) == plain
    assert _records(ckpt), "no records journaled"
    replay = SerialExecutor().attach_journal(CheckpointJournal.open(ckpt))
    with replay:
        assert run_sharded(chaos_probe_task, keys, context, pool=replay) == plain
    assert replay.keys_reused_from_journal == len(keys)


def test_journal_identity_mismatch_is_loud(tmp_path):
    CheckpointJournal.open(str(tmp_path), identity={"graph": "aaaa"})
    with pytest.raises(InvalidParameterError, match="different solve"):
        CheckpointJournal.open(str(tmp_path), identity={"graph": "bbbb"})


def test_journal_rejects_foreign_directory(tmp_path):
    (tmp_path / MANIFEST_NAME).write_text('{"magic": "something-else"}\n')
    with pytest.raises(InvalidParameterError, match="not a checkpoint journal"):
        CheckpointJournal.open(str(tmp_path))


def _assert_journal_version_refused(directory, version):
    CheckpointJournal.open(str(directory), identity={"graph": "aaaa"})
    manifest_path = directory / MANIFEST_NAME
    manifest = json.loads(manifest_path.read_text())
    manifest["format_version"] = version
    manifest_path.write_text(json.dumps(manifest))
    named = f"format_version {version}; this build reads {JOURNAL_FORMAT_VERSION}"
    with pytest.raises(InvalidParameterError, match=named):
        CheckpointJournal.open(str(directory), identity={"graph": "aaaa"})


def test_journal_refuses_format_version_1(tmp_path):
    # Version 1 records hold per-landmark nested tables; replayed into the
    # flat (endpoint, edge) readers every lookup would miss and fall back
    # to d(s, r), an underestimate.  Such a journal must not open.
    assert JOURNAL_FORMAT_VERSION == 3
    _assert_journal_version_refused(tmp_path, 1)


def test_journal_refuses_format_version_2(tmp_path):
    # Version 2 solve_sources_task records hold edge-keyed dicts per
    # target, and its assemble_task records (table, timings) pairs; the
    # version check refuses them before any record is replayed.
    _assert_journal_version_refused(tmp_path, 2)


def test_corrupt_record_is_loud(tmp_path):
    journal = CheckpointJournal.open(str(tmp_path))
    journal.append("phase#0", [0, 1], {0: 10, 1: 11})
    (record,) = _records(str(tmp_path))
    path = os.path.join(str(tmp_path), RECORDS_DIR_NAME, record)
    with open(path, "wb") as handle:
        handle.write(b"\x80torn pickle")
    with pytest.raises(InvalidParameterError, match="corrupt"):
        journal.load_phase("phase#0")


def test_misfiled_record_is_loud(tmp_path):
    journal = CheckpointJournal.open(str(tmp_path))
    journal.append("phase#0", [0, 1], {0: 10, 1: 11})
    (record,) = _records(str(tmp_path))
    records_dir = os.path.join(str(tmp_path), RECORDS_DIR_NAME)
    suffix = record.split("phase#0", 1)[1]
    os.rename(
        os.path.join(records_dir, record),
        os.path.join(records_dir, "other#0" + suffix),
    )
    with pytest.raises(InvalidParameterError, match="claims phase"):
        journal.load_phase("other#0")


def test_checkpoint_requires_seed():
    with pytest.raises(InvalidParameterError, match="fixed seed"):
        AlgorithmParams(checkpoint="/tmp/nowhere")


# ---------------------------------------------------------------------------
# crash mid-solve, resume, fingerprint-identical (fast slice)
# ---------------------------------------------------------------------------


def _crash_then_resume(
    tmp_path, baseline, crash_at: str, crash_workers: int, resume_workers: int
):
    """Kill a checkpointed solve at ``crash_at``; resume; compare."""
    ckpt = str(tmp_path / "ckpt")
    plan = FaultPlan([Fault("crash_at", at=crash_at)])
    with active_plan(plan, str(tmp_path)) as plan_path:
        with pytest.raises(InjectedFault):
            _make_solver(checkpoint=ckpt, workers=crash_workers).solve()
        assert fired_count(plan_path) == 1, "the injected crash never fired"
    assert _records(ckpt), "crash landed before anything was journaled"

    resumed = _make_solver(checkpoint=ckpt, workers=resume_workers)
    _assert_identical(list(resumed.solve().iter_entries()), baseline)
    stats = resumed.executor_stats
    assert stats["keys_reused_from_journal"] > 0
    assert stats["journal"]["records_loaded"] > 0


def test_crash_resume_serial(tmp_path, baseline):
    """Serial checkpointed solve killed mid-pipeline resumes identically,
    reusing the journaled keys instead of recomputing them."""
    _crash_then_resume(
        tmp_path,
        baseline,
        crash_at="journal.phase.near_small_task",
        crash_workers=0,
        resume_workers=0,
    )


def test_crash_resume_process_executor(tmp_path, baseline):
    """Same contract through the process transport: the journal is
    parent-side, so multiprocessing does not change what is recorded."""
    _crash_then_resume(
        tmp_path,
        baseline,
        crash_at="journal.phase.center_tables_task",
        crash_workers=2,
        resume_workers=2,
    )


def test_resume_across_worker_counts(tmp_path, baseline):
    """Key-granular resume: a journal written serially resumes under a
    pool (chunk boundaries differ; the merged entries must not)."""
    _crash_then_resume(
        tmp_path,
        baseline,
        crash_at="journal.record",
        crash_workers=0,
        resume_workers=2,
    )


def test_kill_worker_during_checkpointed_solve(tmp_path, baseline):
    """Crash recovery and journaling compose: a SIGKILLed pool worker
    mid-checkpointed-solve still yields identical entries, and only
    landed chunks were journaled."""
    ckpt = str(tmp_path / "ckpt")
    plan = FaultPlan([Fault("kill_worker", chunk_index=1)])
    with active_plan(plan, str(tmp_path)) as plan_path:
        solver = _make_solver(checkpoint=ckpt, workers=2)
        _assert_identical(list(solver.solve().iter_entries()), baseline)
        assert fired_count(plan_path) == 1
    assert solver.executor_stats["crash_recoveries"] >= 1
    assert solver.executor_stats["journal"]["records_written"] > 0


def test_completed_journal_replays_without_fresh_work(tmp_path, baseline):
    """Re-running a finished checkpointed solve recomputes nothing: every
    key replays from the journal and no new records are written."""
    ckpt = str(tmp_path / "ckpt")
    first = _make_solver(checkpoint=ckpt)
    _assert_identical(list(first.solve().iter_entries()), baseline)
    assert first.executor_stats["journal"]["records_written"] > 0

    second = _make_solver(checkpoint=ckpt)
    _assert_identical(list(second.solve().iter_entries()), baseline)
    assert second.executor_stats["journal"]["records_written"] == 0
    assert second.executor_stats["keys_reused_from_journal"] > 0


def test_journal_refuses_different_solve(tmp_path):
    """A journal is bound to one workload: pointing a different seed at
    the same directory fails loudly instead of splicing wrong answers."""
    ckpt = str(tmp_path / "ckpt")
    _make_solver(checkpoint=ckpt).solve()
    graph = generators.random_connected_graph(N, extra_edges=2 * N, seed=N)
    rng = random.Random(N)
    sources = sorted(rng.sample(range(N), 3))
    other = MSRPSolver(
        graph,
        sources,
        params=AlgorithmParams(seed=N + 1, workers=0, checkpoint=ckpt),
        landmark_strategy="auxiliary",
    )
    with pytest.raises(InvalidParameterError, match="different solve"):
        other.solve()


# ---------------------------------------------------------------------------
# seeded sweep: crash point and worker counts drawn from the seed
# ---------------------------------------------------------------------------


def _resume_round(seed: int, tmp_path, baseline) -> None:
    crash_at = CRASH_POINTS[
        derive_fault_index(seed, "resume-point", len(CRASH_POINTS))
    ]
    crash_workers = 2 * derive_fault_index(seed, "resume-crash-workers", 2)
    resume_workers = 2 * derive_fault_index(seed, "resume-resume-workers", 2)
    round_dir = tmp_path / f"seed{seed}"
    round_dir.mkdir()
    _crash_then_resume(round_dir, baseline, crash_at, crash_workers, resume_workers)


@pytest.mark.parametrize("seed", [0])
def test_resume_sweep_smoke(seed, tmp_path, baseline):
    """Fast per-push slice of the sweep (CI ``chaos-smoke`` job)."""
    _resume_round(seed, tmp_path, baseline)


@pytest.mark.slow
@pytest.mark.parametrize("seed", list(range(1, 9)))
def test_resume_sweep_full(seed, tmp_path, baseline):
    """Nightly: eight more seeds across crash points and worker counts."""
    _resume_round(seed, tmp_path, baseline)
