"""Keyed execution of the per-source MSRP pipeline phases.

Every expensive phase of the solver decomposes into independent units of
work keyed by a vertex — one BFS per root, one Section 7.1 auxiliary graph
per source, one Section 8.2 table per center, one 8.1/8.3 build plus
assembly sweep per source — with *no* data flowing between units.  This
package runs those key lists:

* :mod:`repro.parallel.executor` — :class:`Executor` runs a phase
  in-process: it installs the phase's shared context for
  :func:`worker_context`, computes each distinct key once and merges the
  results in input-key order.  :func:`run_sharded` is the entry point,
  on the caller's executor (a fresh one when none is passed).
* :mod:`repro.parallel.journal` — the checkpoint journal.  Attach a
  :class:`CheckpointJournal` to an executor and every completed chunk's
  results are durably recorded; a killed solve resumes by re-executing
  only unjournaled keys, fingerprint-identical to an uninterrupted run.
* :mod:`repro.parallel.tasks` — the task functions, pure functions of
  ``(context, keys)``, so a journaled result replayed in a later process
  equals a recomputed one.
* :mod:`repro.parallel.seeding` — tagged child-seed derivation, used to
  hand decorrelated RNG streams to sampling phases (the Section 8 lemmas
  assume landmark and center draws are independent).

See ``docs/executors.md`` and ``docs/robustness.md``.
"""

from repro.parallel.executor import Executor, run_sharded, worker_context
from repro.parallel.journal import CheckpointJournal
from repro.parallel.seeding import child_rng, derive_child_seed

__all__ = [
    "CheckpointJournal",
    "Executor",
    "child_rng",
    "derive_child_seed",
    "run_sharded",
    "worker_context",
]
