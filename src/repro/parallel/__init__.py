"""Executor-sharded execution of the per-source MSRP pipeline phases.

Every expensive phase of the solver decomposes into independent units of
work keyed by a vertex — one BFS per root, one Section 7.1 auxiliary graph
per source, one Section 8.2 table per center, one 8.1/8.3 build plus
assembly sweep per source — with *no* data flowing between units.  This
package shards those key lists across an :class:`Executor`:

* :mod:`repro.parallel.executor` — the transport-agnostic layer.
  :class:`Executor` is the contract (install/broadcast a frozen phase
  context, dispatch keyed chunks, merge results in input-key order,
  classify crashes as typed errors); :class:`SerialExecutor` is the
  in-process transport and :class:`LocalProcessExecutor` the
  multiprocessing one (one pool spanning every sharded phase of a solve,
  each new phase context re-installed into the running workers by a
  generation-countered broadcast).  :func:`run_sharded` is the
  scheduling entry point, on the caller's executor (a
  :class:`SerialExecutor` when none is passed): the (large, shared)
  inputs travel **once per worker**, the per-task messages carry only
  integer keys, the key list splits into one contiguous chunk per
  worker, and results merge back in input-key order — byte-identical to
  the serial run at any worker count (the tasks are deterministic pure
  functions of the shipped context).
* :mod:`repro.parallel.journal` — the checkpoint journal.  Attach a
  :class:`CheckpointJournal` to an executor and every completed chunk's
  results are durably recorded; a killed solve resumes by re-executing
  only unjournaled keys, fingerprint-identical to an uninterrupted run.
* :mod:`repro.parallel.tasks` — the module-level task functions (they must
  be importable by name so the ``spawn`` start method can pickle them).
* :mod:`repro.parallel.seeding` — tagged child-seed derivation, used to
  hand decorrelated RNG streams to sampling phases (the Section 8 lemmas
  assume landmark and center draws are independent) and to give per-source
  work deterministic child seeds should it ever need randomness.

Both the ``fork`` and ``spawn`` start methods are supported
(``LocalProcessExecutor(start_method=...)``).

The scheduler is crash-safe: dead workers (SIGKILL, OOM, broken result
pipes) and per-chunk timeouts are detected, the pool is respawned and
only the unfinished chunks re-execute — bounded retries, then graceful
degradation to the identical in-process serial path (or a typed
:class:`~repro.exceptions.WorkerCrashError` when degradation is
disabled).  The deterministic chaos battery in ``tests/test_faults_pool.py``
pins this via :mod:`repro.faults`; see ``docs/robustness.md`` and
``docs/executors.md``.
"""

from repro.parallel.executor import (
    Executor,
    LocalProcessExecutor,
    SerialExecutor,
    run_sharded,
    worker_context,
)
from repro.parallel.journal import CheckpointJournal
from repro.parallel.seeding import child_rng, derive_child_seed

__all__ = [
    "CheckpointJournal",
    "Executor",
    "LocalProcessExecutor",
    "SerialExecutor",
    "child_rng",
    "derive_child_seed",
    "run_sharded",
    "worker_context",
]
