"""The in-process executor behind every phase of a solve.

The phase model is deliberately minimal: a phase is a pure function
applied independently to every key of a list, with a large read-only
*context* (graph, BFS trees, Section 8 tables) shared by all keys.

:class:`Executor` runs a phase in the calling process:

* it installs the phase context for :func:`worker_context`, so task
  functions read the shared inputs instead of receiving them per key;
* it computes each distinct key once (first-seen order) and fans the
  result back out over the input key list, so the merged mapping
  iterates in input-key order and duplicates share one value by
  identity (``math.inf`` stays the singleton the hot paths test with
  ``is``).

A solve opens one executor and hands it through every phase as
``pool=``; :func:`run_sharded` without one runs on a fresh executor.

**Checkpointing.**  Attach a
:class:`~repro.parallel.journal.CheckpointJournal` to an executor (or set
``checkpoint`` on :class:`~repro.core.params.AlgorithmParams`) and the
executor splits each phase into up to :data:`CHECKPOINT_CHUNKS` chunks
and durably journals every completed chunk as the solve runs.  Before
executing a phase, the executor replays the phase's journaled keys and
runs only the remainder; phase identity is ``<task name>#<occurrence>``
(the n-th run of that task within the executor's lifetime), which is
stable across runs because the pipeline's phase sequence is
deterministic.  A resume replays the journaled keys in a fresh process,
so it is byte-identical only because tasks are pure functions of
``(context, keys)``: ``repro-lint`` rules REPRO001 and REPRO004 guard
that purity and the frozen contexts.
"""

from __future__ import annotations

import threading
from typing import Any, Callable, Dict, Hashable, List, Optional, Sequence

from repro.exceptions import InternalInvariantError, InvalidParameterError
from repro.parallel.journal import CheckpointJournal

#: The context of the phase running in this thread.  Thread-local, so
#: concurrent solves in threads of one process (the graph layer
#: advertises thread-safety) each see their own context.
_TLS = threading.local()

#: Chunks a journaled phase splits into, so a kill mid-phase salvages
#: completed chunks instead of the whole phase or nothing.  Bounded by
#: the key count; purely a checkpoint granularity — the output is
#: byte-identical at any value.
CHECKPOINT_CHUNKS = 8


def worker_context() -> Any:
    """The context of the phase currently executing.

    Task functions call this instead of receiving the (large) context per
    key; the executor installs it for the duration of the phase.
    """
    context = getattr(_TLS, "context", None)
    if context is None:
        raise InternalInvariantError(
            "worker_context() called outside a sharded phase"
        )
    return context


def chunk_keys(keys: Sequence[Hashable], num_chunks: int) -> List[List[Hashable]]:
    """Split ``keys`` into ``num_chunks`` contiguous, size-balanced chunks.

    Sizes differ by at most one, earlier chunks taking the extra element;
    concatenating the chunks reproduces ``keys`` exactly (the merge relies
    on nothing but this, and it makes the split easy to reason about).
    """
    if num_chunks <= 0:
        raise InvalidParameterError(f"num_chunks must be positive, got {num_chunks}")
    total = len(keys)
    base, extra = divmod(total, num_chunks)
    chunks: List[List[Hashable]] = []
    start = 0
    for i in range(num_chunks):
        size = base + (1 if i < extra else 0)
        if size == 0:
            break
        chunks.append(list(keys[start : start + size]))
        start += size
    return chunks


def _distinct_keys(key_list: List[Hashable]) -> List[Hashable]:
    """The distinct keys of ``key_list`` in first-seen order."""
    seen = set()
    distinct: List[Hashable] = []
    for key in key_list:
        if key not in seen:
            seen.add(key)
            distinct.append(key)
    return distinct


def _fan_out(
    merged: Dict[Hashable, Any],
    distinct: List[Hashable],
    key_list: List[Hashable],
    task: Callable,
) -> Dict[Hashable, Any]:
    """Completeness-check ``merged`` and re-key it over the input keys.

    Duplicate input keys share the single computed result; the returned
    dict iterates in input-key (equivalently first-seen) order, so
    downstream fingerprints cannot drift.
    """
    missing = [key for key in distinct if key not in merged]
    if missing or len(merged) != len(distinct):
        raise InternalInvariantError(
            f"sharded task {getattr(task, '__name__', task)!r} returned "
            f"{len(merged)} results for {len(distinct)} distinct keys "
            f"(missing: {missing[:5]})"
        )
    return {key: merged[key] for key in key_list}


class Executor:
    """Runs the phases of one solve in-process, optionally journaled.

    A per-solve object: the phase counter that names journal records
    starts at zero with each executor, so one solve (or one resume of
    it) uses one executor for all of its phases.
    """

    def __init__(self) -> None:
        #: keys whose results were replayed from the checkpoint journal.
        self.keys_reused_from_journal = 0
        self._journal: Optional[CheckpointJournal] = None
        self._phase_counts: Dict[str, int] = {}

    # -- checkpointing -----------------------------------------------------

    def attach_journal(self, journal: CheckpointJournal) -> "Executor":
        """Journal every completed chunk and replay journaled phases."""
        self._journal = journal
        return self

    def _next_phase_id(self, task: Callable) -> str:
        """Stable phase identity: ``<task name>#<occurrence>``.

        The pipeline executes a deterministic sequence of phases, so "the
        n-th run of this task on this executor" names the same work in an
        interrupted run, its resume, and an uninterrupted run — which is
        what lets the journal file records under it.
        """
        name = getattr(task, "__name__", str(task))
        occurrence = self._phase_counts.get(name, 0)
        self._phase_counts[name] = occurrence + 1
        return f"{name}#{occurrence}"

    # -- scheduling --------------------------------------------------------

    def run(
        self,
        task: Callable[[Sequence[Hashable]], Dict[Hashable, Any]],
        keys: Sequence[Hashable],
        context: Any,
    ) -> Dict[Hashable, Any]:
        """Apply ``task`` to ``keys`` under ``context`` (one phase).

        Same contract as :func:`run_sharded`: the result is keyed in input
        order.  With a journal attached, journaled keys are replayed and
        only the remainder runs; completed chunks are journaled as they
        finish.
        """
        key_list = list(keys)
        distinct = _distinct_keys(key_list)
        journal = self._journal
        phase_id = self._next_phase_id(task)
        merged: Dict[Hashable, Any] = {}
        remaining = distinct
        if journal is not None:
            journaled = journal.load_phase(phase_id)
            merged = {key: journaled[key] for key in distinct if key in journaled}
            self.keys_reused_from_journal += len(merged)
            remaining = [key for key in distinct if key not in merged]
        if remaining:
            chunks = (
                [remaining]
                if journal is None
                else chunk_keys(remaining, min(len(remaining), CHECKPOINT_CHUNKS))
            )
            previous = getattr(_TLS, "context", None)
            _TLS.context = context
            try:
                for chunk in chunks:
                    result = task(chunk)
                    if journal is not None:
                        journal.append(phase_id, chunk, result)
                    merged.update(result)
            finally:
                _TLS.context = previous
            if journal is not None:
                journal.phase_complete(getattr(task, "__name__", str(task)))
        return _fan_out(merged, distinct, key_list, task)

    # -- stats -------------------------------------------------------------

    def stats(self) -> Dict[str, Any]:
        """The journal counters, for solve stats and the store metadata."""
        data: Dict[str, Any] = {
            "keys_reused_from_journal": self.keys_reused_from_journal,
        }
        if self._journal is not None:
            data["journal"] = self._journal.stats()
        return data


def run_sharded(
    task: Callable[[Sequence[Hashable]], Dict[Hashable, Any]],
    keys: Sequence[Hashable],
    context: Any,
    pool: Optional[Executor] = None,
) -> Dict[Hashable, Any]:
    """Apply ``task`` to ``keys`` on an executor.

    Parameters
    ----------
    task:
        A function taking a chunk of keys and returning ``{key: result}``
        for exactly that chunk.  It reads the shared inputs via
        :func:`worker_context`.
    keys:
        The work units.  Order defines the merge order of the result;
        duplicate keys are computed once and share the result.
    context:
        The read-only shared inputs.
    pool:
        The solve's :class:`Executor`, which numbers this phase and
        journals it if it carries a checkpoint journal; when omitted, the
        phase runs on a fresh, unjournaled executor.

    Returns
    -------
    dict
        ``{key: result}`` in ``keys`` order — byte-identical journaled or
        not, interrupted and resumed or not.
    """
    if pool is None:
        pool = Executor()
    return pool.run(task, keys, context)
