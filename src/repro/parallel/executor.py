"""The transport-agnostic executor layer behind every sharded phase.

The scheduling model is deliberately minimal, because the pipeline's
parallelism is embarrassing: a phase is a pure function applied
independently to every key of a list, with a large read-only *context*
(graph, BFS trees, Section 8 tables) shared by all keys.

:class:`Executor` is the contract the solver, oracle and fault harness
program against; transports implement four obligations and inherit the
rest (dedup, journal replay, input-order fan-out) from the base class:

* **install/broadcast** a frozen phase context so every worker reads the
  same shared inputs (:func:`worker_context`),
* **dispatch** keyed chunks of the phase's work units,
* **merge** chunk results back in input-key order, byte-identical to
  the serial loop at any worker count,
* classify failures as **typed crashes** (retried/degraded/raised as
  :class:`~repro.exceptions.WorkerCrashError`) versus deterministic task
  exceptions (propagated unchanged, never retried).

Two implementations ship today — :class:`SerialExecutor` (the in-process
transport) and :class:`LocalProcessExecutor` (the multiprocessing pool,
with generation-countered broadcasts, liveness polling and bounded crash
retries).  A future ``RemoteExecutor`` slots in behind the same interface
and inherits the whole fault-injection and determinism test surface.

**Scheduling contract** (shared by every transport):

* The context ships **once per worker** through the pool initializer — or,
  when an executor is reused across phases, through a broadcast
  "set context" sweep keyed by a generation counter.  Under the ``fork``
  start method the initializer transfer is free (children inherit the
  parent's memory); under ``spawn`` it is pickled exactly once per worker,
  which is why the substrates define compact ``__getstate__`` forms (typed
  arrays, no lazy caches).
* The key list splits into contiguous chunks — by default one chunk per
  worker — so the per-dispatch overhead (one pickled list of ints, one
  pickled result dict) is amortised over the whole shard.  Duplicate keys
  are computed once: the distinct keys (first-seen order) are what gets
  chunked, and the merge fans the shared results back out over the
  original key list.
* Each task returns a ``{key: value}`` dict for its chunk; the merge
  re-keys the union **in input-key order** and verifies completeness, so
  the merged mapping is byte-identical to what the serial loop would have
  produced regardless of worker count, chunking or completion order.

A :class:`LocalProcessExecutor` runs a phase as an in-process call of the
*same* task function when sharding cannot help (``workers <= 1``, a
single key, or already inside a pool worker), so serial and parallel runs
execute identical code on identical inputs — the determinism guarantee is
structural, not tested into existence.

**Checkpointing.**  Attach a
:class:`~repro.parallel.journal.CheckpointJournal` to an executor (or set
``checkpoint`` on :class:`~repro.core.params.AlgorithmParams`) and every
completed chunk's results are durably journaled as the solve runs.
Before executing a phase, the executor replays the phase's journaled keys
and dispatches only the remainder; phase identity is
``<task name>#<occurrence>`` (the n-th run of that task within the
executor's lifetime), which is stable across runs because the pipeline's
phase sequence is deterministic.
Resume granularity is per *key*, so a journal written at one worker
count resumes at any other with identical fingerprints.

**Pool lifecycle.**  Opening a :mod:`multiprocessing` pool costs a process
start-up per worker, and a solve runs five-plus sharded phases.
:class:`LocalProcessExecutor` owns one pool for the duration of a solve
and re-installs each phase's context into the already-running workers, so
the start-up is paid once per solve.  Call sites accept an optional
``pool``; :func:`run_sharded` without one opens an executor for just that
call.

**Crash safety.**  A raw ``multiprocessing.Pool`` turns a SIGKILLed
worker into a silent hang: the killed worker's chunk never completes and
``map`` waits forever.  :class:`LocalProcessExecutor` instead dispatches
chunks individually and polls them against a liveness check of the pool's
worker processes (plus an optional per-chunk timeout).  A detected crash —
dead worker, broken result pipe, or timeout — tears the damaged pool down,
respawns a fresh one with the current phase context, and re-executes
*only the unfinished chunks*; completed chunks keep their results.  Task
functions are pure functions of ``(context, keys)``, so a retried chunk
is byte-identical to what its first attempt would have produced and the
merge contract is unaffected.  Retries are bounded
(``max_crash_retries``); past the bound the executor degrades to the
identical in-process serial path by default, or raises a typed
:class:`~repro.exceptions.WorkerCrashError` when degradation is disabled.
Deterministic exceptions raised *by* a task are never retried — they
propagate unchanged, exactly as the serial path would raise them.
"""

from __future__ import annotations

import math
import multiprocessing
import os
import pickle
import threading
import time
from multiprocessing.pool import MaybeEncodingError
from typing import Any, Callable, Dict, Hashable, List, Optional, Sequence, Tuple

from repro.exceptions import (
    InternalInvariantError,
    InvalidParameterError,
    WorkerCrashError,
)
from repro.faults.harness import chunk_checkpoint
from repro.parallel.journal import CheckpointJournal

#: Environment variable overriding the default start method (fork/spawn).
START_METHOD_ENV = "REPRO_MP_START_METHOD"

#: The shared context installed by the pool initializer / context broadcast
#: (or by the in-process serial fallback).  Thread-local rather than a
#: module global: pool workers are single-threaded so the initializer and
#: the tasks share one slot, while concurrent serial solves in threads of
#: one process (the graph layer advertises thread-safety) each see their
#: own context.
_TLS = threading.local()

#: Barrier shared by the workers of the owning pool (installed by the pool
#: initializer).  A context broadcast maps one "set context" item per
#: worker and has every worker wait here, which is what guarantees each
#: worker takes exactly one item — no worker can grab a second broadcast
#: item while its siblings still owe their first.
_WORKER_BARRIER: Optional[Any] = None

#: Worker-side component store: token -> shipped context component.  Phase
#: contexts are dicts whose heavy components (the graph, tree maps, Section
#: 8 tables) recur across phases; a broadcast ships each component **once**
#: and later phases reference it by token, so re-installing a context costs
#: one transfer of whatever is genuinely new, not of the whole context.
_STORE: Dict[int, Any] = {}

#: Number of multiprocessing pools this module has opened in this process.
#: Test instrumentation for the "one pool per solve" contract; never reset.
POOLS_OPENED = 0

#: Parent-side poll interval while waiting on dispatched chunks (seconds).
_POLL_INTERVAL = 0.01

#: Backstop deadline for a context broadcast (seconds).  Broadcasts are a
#: few pickles plus a barrier; hitting this means the pool is wedged.
BROADCAST_TIMEOUT = 300.0

#: Default bound on crash-respawn-retry cycles per sharded phase.
DEFAULT_MAX_CRASH_RETRIES = 2

#: How long a ``Pool.terminate()`` may take before the pool is abandoned
#: by force.  A worker SIGKILLed while *idle* dies holding the shared
#: task-queue reader lock (``SimpleQueue.get`` holds it across the
#: blocking read), and ``Pool._terminate_pool`` then wedges forever
#: trying to acquire it — so a clean terminate gets a bounded budget and
#: the fallback SIGKILLs the workers and walks away.
POOL_TERMINATE_TIMEOUT = 5.0

#: Chunks a journaled :class:`SerialExecutor` phase splits into, so a kill
#: mid-phase salvages completed chunks instead of the whole phase or
#: nothing.  Bounded by the key count; purely a checkpoint granularity —
#: the output is byte-identical at any value.
SERIAL_CHECKPOINT_CHUNKS = 8

#: Transport-layer exceptions from a chunk handle that mean the worker
#: (or its result pipe) died rather than the task failing deterministically.
_CRASH_EXCEPTIONS = (
    BrokenPipeError,
    ConnectionResetError,
    EOFError,
    MaybeEncodingError,
)


class _PoolCrash(Exception):
    """Internal: a pool-level failure (dead worker, timeout, broken pipe).

    Caught by the retry loop in :meth:`LocalProcessExecutor._run_pooled`;
    never escapes this module — callers see :class:`WorkerCrashError`
    instead.
    """


def _apply_context(generation: int, new: Any, layout: Optional[Dict]) -> None:
    """Rebuild and install a phase context from (new components, layout).

    ``layout`` maps context keys to store tokens; ``new`` carries the
    components this worker has not seen yet.  A ``None`` layout means the
    context was not a dict and ``new`` is the whole (uncached) context.
    """
    if layout is None:
        context = new
    else:
        _STORE.update(new)
        context = {key: _STORE[token] for key, token in layout.items()}
    _TLS.generation = generation
    _TLS.context = context


def _install_pool_worker(
    barrier: Any, generation: int, new: Any, layout: Optional[Dict]
) -> None:
    """Pool initializer: barrier + the first phase's context and generation."""
    global _WORKER_BARRIER, _STORE
    _WORKER_BARRIER = barrier
    _STORE = {}
    _apply_context(generation, new, layout)


def _set_context_task(blob: bytes) -> int:
    """Broadcast body: install a new phase context into this worker.

    The payload arrives pre-pickled (the parent serialises the new
    components once per phase, not once per worker); the barrier wait makes
    the ``pool.map`` over ``pool_size`` copies deliver exactly one copy to
    every worker, and the echoed generation lets the parent verify the
    sweep reached the whole pool.
    """
    generation, new, layout = pickle.loads(blob)
    _apply_context(generation, new, layout)
    _WORKER_BARRIER.wait()
    return generation


def _dispatch_chunk(payload: Any) -> Dict[Hashable, Any]:
    """Run one chunk of a sharded phase, refusing stale worker state.

    The generation check is what makes context reinstallation safe: a
    worker that somehow missed a broadcast (or a chunk queued against an
    older phase) fails loudly instead of silently computing the new phase's
    keys against the previous phase's context.

    The fault checkpoint lets the chaos harness kill/hang this worker as
    it picks up a specific chunk; with no plan installed it is one
    environment lookup.
    """
    task, generation, chunk_index, chunk = payload
    current = getattr(_TLS, "generation", None)
    if current != generation:
        raise InternalInvariantError(
            f"pool worker holds context generation {current!r} but was "
            f"dispatched a chunk of generation {generation!r}"
        )
    chunk_checkpoint(chunk_index)
    return task(chunk)


def worker_context() -> Any:
    """The context of the sharded phase currently executing.

    Task functions call this instead of receiving the (large) context per
    task; it is populated once per worker per phase (pool initializer or
    context broadcast), and transiently in-process for serial fallback runs.
    """
    context = getattr(_TLS, "context", None)
    if context is None:
        raise InternalInvariantError(
            "worker_context() called outside a sharded phase"
        )
    return context


def default_start_method() -> str:
    """The start method ``run_sharded`` uses when none is passed.

    ``fork`` when the platform offers it (context transfer is free — the
    children inherit the parent's memory), otherwise ``spawn``.  The
    ``REPRO_MP_START_METHOD`` environment variable overrides the choice,
    which is how the test battery pins the spawn path on fork platforms;
    its value is validated against the platform's start methods so a typo
    fails with a clear error instead of surfacing as an opaque
    ``ValueError`` inside ``multiprocessing.get_context``.
    """
    methods = multiprocessing.get_all_start_methods()
    env = os.environ.get(START_METHOD_ENV)
    if env:
        if env not in methods:
            raise InvalidParameterError(
                f"{START_METHOD_ENV}={env!r} is not a multiprocessing start "
                f"method of this platform; choose one of {methods}"
            )
        return env
    return "fork" if "fork" in methods else "spawn"


def resolve_workers(workers: int, num_keys: int) -> int:
    """Effective pool size for ``workers`` over ``num_keys`` keys.

    ``0`` and ``1`` mean serial; pool workers themselves always resolve to
    serial (nested pools are both illegal for daemonic processes and
    pointless).  The count is clamped to the number of keys but **not** to
    ``os.cpu_count()``: oversubscription only costs time, never changes
    results, and the fingerprint-equality tests rely on being able to ask
    for 4 workers on any machine.
    """
    if workers < 0:
        raise InvalidParameterError(f"workers must be non-negative, got {workers}")
    if workers <= 1 or num_keys <= 1:
        return 0
    if multiprocessing.current_process().daemon:
        return 0
    return min(workers, num_keys)


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


def _check_chunks_per_worker(chunks_per_worker: int) -> None:
    if chunks_per_worker < 1:
        raise InvalidParameterError(
            f"chunks_per_worker must be at least 1, got {chunks_per_worker}"
        )


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
    dict iterates in input-key (equivalently first-seen) order, exactly
    like the serial loop's would, so downstream fingerprints cannot drift.
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
    """Contract every sharded-phase transport implements.

    The base class owns everything transport-independent: input
    validation, duplicate-key dedup, phase identity, checkpoint-journal
    replay, the input-order fan-out merge and the stats surface.
    Subclasses implement :meth:`_run_distinct` — compute ``{key: value}``
    for a list of distinct keys under ``context``, journaling completed
    chunks through :meth:`_journal_chunk` — plus whatever lifecycle
    (:meth:`close`) their transport needs.

    Executors are context managers and per-solve objects: shipped state
    (broadcast contexts, journal handles) lives until :meth:`close`.
    """

    #: Registry name of the transport ("serial", "process", ...).
    kind = "abstract"

    def __init__(self) -> None:
        #: crash events survived (transport torn down + respawned); cumulative.
        self.crash_recoveries = 0
        #: phases that exhausted retries and finished on the serial path.
        self.serial_degradations = 0
        #: keys whose results were replayed from the checkpoint journal.
        self.keys_reused_from_journal = 0
        self._journal: Optional[CheckpointJournal] = None
        self._phase_counts: Dict[str, int] = {}

    # -- lifecycle ---------------------------------------------------------

    def __enter__(self) -> "Executor":
        return self

    def __exit__(self, *exc_info) -> bool:
        self.close()
        return False

    def close(self) -> None:
        """Release transport resources.  Idempotent; base is a no-op."""

    @property
    def is_open(self) -> bool:
        """``True`` while the transport holds live resources."""
        return False

    # -- checkpointing -----------------------------------------------------

    def attach_journal(self, journal: CheckpointJournal) -> "Executor":
        """Journal every completed chunk and replay journaled phases."""
        self._journal = journal
        return self

    @property
    def journal(self) -> Optional[CheckpointJournal]:
        return self._journal

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

    def _journal_chunk(
        self,
        phase_id: Optional[str],
        keys: Sequence[Hashable],
        results: Dict[Hashable, Any],
    ) -> None:
        if self._journal is not None and phase_id is not None and keys:
            self._journal.append(phase_id, keys, results)

    # -- scheduling --------------------------------------------------------

    def run(
        self,
        task: Callable[[Sequence[Hashable]], Dict[Hashable, Any]],
        keys: Sequence[Hashable],
        context: Any,
        chunks_per_worker: int = 1,
    ) -> Dict[Hashable, Any]:
        """Apply ``task`` to ``keys`` on this transport (one sharded phase).

        Same contract as :func:`run_sharded`: the result is keyed in input
        order and byte-identical to the serial run.  With a journal
        attached, journaled keys are replayed and only the remainder is
        dispatched; completed chunks are journaled as they land.
        """
        _check_chunks_per_worker(chunks_per_worker)
        key_list = list(keys)
        distinct = _distinct_keys(key_list)
        phase_id = self._next_phase_id(task)
        replayed: Dict[Hashable, Any] = {}
        if self._journal is not None:
            journaled = self._journal.load_phase(phase_id)
            replayed = {key: journaled[key] for key in distinct if key in journaled}
            self.keys_reused_from_journal += len(replayed)
        remaining = [key for key in distinct if key not in replayed]
        computed: Dict[Hashable, Any] = {}
        if remaining:
            computed = self._run_distinct(
                task, remaining, context, chunks_per_worker, phase_id
            )
        merged: Dict[Hashable, Any] = {}
        for key in distinct:
            if key in replayed:
                merged[key] = replayed[key]
            elif key in computed:
                merged[key] = computed[key]
        if self._journal is not None and remaining:
            self._journal.phase_complete(getattr(task, "__name__", str(task)))
        return _fan_out(merged, distinct, key_list, task)

    def _run_distinct(
        self,
        task: Callable,
        distinct: List[Hashable],
        context: Any,
        chunks_per_worker: int,
        phase_id: Optional[str],
    ) -> Dict[Hashable, Any]:
        raise NotImplementedError

    # -- stats -------------------------------------------------------------

    def stats(self) -> Dict[str, Any]:
        """Counters for solve stats and bench rows; survives :meth:`close`."""
        data: Dict[str, Any] = {
            "executor": self.kind,
            "crash_recoveries": self.crash_recoveries,
            "serial_degradations": self.serial_degradations,
            "keys_reused_from_journal": self.keys_reused_from_journal,
        }
        if self._journal is not None:
            data["journal"] = self._journal.stats()
        return data


class SerialExecutor(Executor):
    """In-process transport: the serial fallback as a first-class executor.

    Runs every chunk in the calling process with the same context
    plumbing (:data:`_TLS`) and the same per-chunk fault checkpoint as
    the pooled transport, so the chaos battery and the checkpoint
    journal exercise identical control flow — just without processes.
    Holds no resources; :meth:`close` is a no-op and ``workers`` is
    always 0.
    """

    kind = "serial"
    workers = 0

    def _run_distinct(
        self,
        task: Callable,
        distinct: List[Hashable],
        context: Any,
        chunks_per_worker: int,
        phase_id: Optional[str],
    ) -> Dict[Hashable, Any]:
        if self._journal is None or phase_id is None:
            chunks = [distinct]
        else:
            chunks = chunk_keys(
                distinct, min(len(distinct), SERIAL_CHECKPOINT_CHUNKS)
            )
        merged: Dict[Hashable, Any] = {}
        previous = getattr(_TLS, "context", None)
        _TLS.context = context
        try:
            for index, chunk in enumerate(chunks):
                chunk_checkpoint(index)
                result = task(chunk)
                self._journal_chunk(phase_id, chunk, result)
                merged.update(result)
        finally:
            _TLS.context = previous
        return merged


class LocalProcessExecutor(Executor):
    """One multiprocessing pool reused across the phases of a solve.

    Usage rules:

    * Construct with the requested ``workers`` count and use as a context
      manager (or call :meth:`close` explicitly) — the underlying pool is
      opened **lazily** on the first phase that actually shards, so a
      ``workers <= 1`` executor never starts a process and every phase runs
      the in-process serial fallback.
    * Hand the instance to :func:`run_sharded` (or call :meth:`run`) for
      every phase of the solve.  Each new phase context is re-installed
      into the already-running workers by a broadcast "set context" task
      keyed by a monotonically increasing generation counter; chunk
      dispatches carry the generation and workers refuse mismatched ones,
      so a stale worker can never serve a new phase.
    * Treat a context — and every component inside it — as frozen once a
      phase ran with it: the workers hold their own copies, components are
      cached worker-side by parent object identity (a component shipped in
      one phase is referenced by token in later phases, never re-sent), and
      the broadcast is skipped entirely when the same context object is
      installed twice.  Mutating shipped state would desynchronise parent
      and workers.
    * The pool is sized to ``workers`` once, at first use; phases with
      fewer keys simply leave workers idle, phases with a single key (or
      running inside a pool worker) fall back to the serial path without
      touching the generation counter.
    * Shipped components are retained — parent-side (strong refs) and in
      every worker's store — until :meth:`close`.  This is deliberate: a
      component absent from one phase's context routinely recurs in a
      later one (the tree maps skip the Section 8.2 phase and return for
      assembly), and evicting on absence would forfeit exactly the
      transfers the store exists to avoid.  The cost is bounded by the
      solve's working set per process, which is why a
      ``LocalProcessExecutor`` is a per-solve object, not a long-lived
      service; close it when the solve ends.
    """

    kind = "process"

    def __init__(
        self,
        workers: int = 0,
        start_method: Optional[str] = None,
        max_crash_retries: int = DEFAULT_MAX_CRASH_RETRIES,
        degrade_to_serial: bool = True,
        chunk_timeout: Optional[float] = None,
    ):
        super().__init__()
        if workers < 0:
            raise InvalidParameterError(
                f"workers must be non-negative, got {workers}"
            )
        if max_crash_retries < 0:
            raise InvalidParameterError(
                f"max_crash_retries must be non-negative, got {max_crash_retries}"
            )
        if chunk_timeout is not None and chunk_timeout <= 0:
            raise InvalidParameterError(
                f"chunk_timeout must be positive, got {chunk_timeout}"
            )
        self.workers = workers
        self.max_crash_retries = max_crash_retries
        self.degrade_to_serial = degrade_to_serial
        self.chunk_timeout = chunk_timeout
        self._start_method = start_method
        self._pool: Optional[Any] = None
        self._size = 0
        self._generation = 0
        self._installed: Any = None
        self._worker_pids: frozenset = frozenset()
        # Component-store bookkeeping: token per shipped context component,
        # keyed by object identity.  The strong refs keep the ids stable
        # (a recycled id must never alias a dead component's token).
        self._next_token = 0
        self._shipped_tokens: Dict[int, int] = {}
        self._shipped_values: List[Any] = []

    # -- lifecycle ---------------------------------------------------------

    @property
    def is_open(self) -> bool:
        """``True`` while an underlying multiprocessing pool is running."""
        return self._pool is not None

    @property
    def generation(self) -> int:
        """The generation counter of the currently installed phase context."""
        return self._generation

    def close(self) -> None:
        """Terminate the underlying pool (if any) and drop shipped state.

        Idempotent by construction: the pool reference is detached
        *before* termination starts, so a second :meth:`close` — or a
        close racing an earlier one that wedged and abandoned the pool —
        finds nothing to terminate and no-ops.  An abandoned pool is
        never terminated twice.

        Termination itself is crash-safe: ``Pool.terminate`` can hang on
        queue locks a SIGKILLed worker took to its grave, so it runs on a
        helper thread with a :data:`POOL_TERMINATE_TIMEOUT` budget.  Past
        the budget the pool is abandoned — its maintenance loop is told to
        stop respawning, every worker process is SIGKILLed, and the pool
        object (whose support threads are daemonic) is dropped.
        """
        pool, self._pool = self._pool, None
        if pool is not None:
            self._size = 0
            terminator = threading.Thread(
                target=self._terminate_quietly, args=(pool,), daemon=True
            )
            terminator.start()
            terminator.join(POOL_TERMINATE_TIMEOUT)
            if terminator.is_alive():
                self._abandon_pool(pool)
        # The worker stores died with the pool; forget what was shipped so
        # a reopened pool never references tokens its workers do not hold.
        self._installed = None
        self._worker_pids = frozenset()
        self._shipped_tokens = {}
        self._shipped_values = []

    # -- internals ---------------------------------------------------------

    @staticmethod
    def _terminate_quietly(pool: Any) -> None:
        try:
            pool.terminate()
            pool.join()
        except Exception:  # pragma: no cover - teardown best-effort
            pass

    @staticmethod
    def _abandon_pool(pool: Any) -> None:
        """Forcibly dismantle a pool whose clean terminate wedged.

        Ordering matters: the worker-maintenance thread must be told to
        stop *before* the workers are killed, or it would respawn them.
        The wedged terminator thread and the pool's handler threads are
        daemonic, so dropping the object leaks no non-daemonic state —
        but the pool also registered an interpreter-exit finalizer that
        would re-run the very terminate that just wedged (typically on a
        queue lock a SIGKILLed worker died holding) and hang process
        shutdown, so cancel it.  An abandoned pool leaks its pipes until
        exit; that is the accepted cost of not blocking forever.
        """
        import multiprocessing.pool as mp_pool

        handler = getattr(pool, "_worker_handler", None)
        if handler is not None:
            handler._state = getattr(mp_pool, "TERMINATE", "TERMINATE")
        for proc in list(getattr(pool, "_pool", [])):
            try:
                if proc.is_alive():
                    os.kill(proc.pid, 9)
            except (OSError, AttributeError):  # pragma: no cover
                pass
        finalizer = getattr(pool, "_terminate", None)
        if finalizer is not None:
            try:
                finalizer.cancel()
            except Exception:  # pragma: no cover - best-effort cleanup
                pass

    def _encode_context(
        self, context: Any
    ) -> Tuple[Any, Optional[Dict], Dict[int, int], List[Any]]:
        """Split ``context`` into (new components, token layout, pending).

        Dict contexts are tokenised by component identity: a component
        already shipped to the workers travels as a token reference, only
        genuinely new components are serialised.  Phases share their heavy
        inputs (the graph, the source/landmark/center tree maps), so after
        the first phase a broadcast typically carries one or two new
        tables, not the whole working set.  Non-dict contexts bypass the
        store (``layout=None``, shipped whole).

        The shipped-component bookkeeping is **not** mutated here: the
        pending ``(id -> token, strong refs)`` pair is returned for the
        caller to commit only once the transfer provably reached every
        worker — a failed broadcast must not leave the parent believing
        the workers hold components they never stored.
        """
        if not isinstance(context, dict):
            return context, None, {}, []
        new: Dict[int, Any] = {}
        layout: Dict[Any, int] = {}
        pending_tokens: Dict[int, int] = {}
        pending_values: List[Any] = []
        for key, value in context.items():
            token = self._shipped_tokens.get(id(value))
            if token is None:
                token = pending_tokens.get(id(value))
            if token is None:
                token = self._next_token
                self._next_token += 1
                pending_tokens[id(value)] = token
                pending_values.append(value)
                new[token] = value
            layout[key] = token
        return new, layout, pending_tokens, pending_values

    def _commit_shipped(
        self, pending_tokens: Dict[int, int], pending_values: List[Any]
    ) -> None:
        self._shipped_tokens.update(pending_tokens)
        self._shipped_values.extend(pending_values)

    def _ensure_open(self, context: Any) -> None:
        """Open the pool on first pooled use, seeding it with ``context``.

        The first context travels through the pool initializer — free under
        ``fork`` (inherited memory), pickled once per worker under
        ``spawn`` — so a one-phase use of the pool pays no broadcast.
        """
        global POOLS_OPENED
        if self._pool is not None:
            return
        ctx = multiprocessing.get_context(
            self._start_method or default_start_method()
        )
        self._size = self.workers
        self._generation += 1
        new, layout, pending_tokens, pending_values = self._encode_context(context)
        barrier = ctx.Barrier(self._size)
        self._pool = ctx.Pool(
            processes=self._size,
            initializer=_install_pool_worker,
            initargs=(barrier, self._generation, new, layout),
        )
        POOLS_OPENED += 1
        self._worker_pids = frozenset(
            proc.pid for proc in getattr(self._pool, "_pool", [])
        )
        self._commit_shipped(pending_tokens, pending_values)
        self._installed = context

    def _pool_damaged(self) -> bool:
        """``True`` when any original worker died (abnormal exit).

        Pool workers never exit on their own (no ``maxtasksperchild``), so
        a missing or dead pid means a crash.  ``multiprocessing.Pool``'s
        maintenance thread silently respawns dead workers, which is why the
        check compares against the pid set snapshotted at open: a respawned
        replacement has a new pid (and, fatally, the *initial* context, not
        the current generation), so it must not be trusted either.
        """
        procs = getattr(self._pool, "_pool", None)
        if procs is None:
            return True
        pids = set()
        for proc in procs:
            if not proc.is_alive():
                return True
            pids.add(proc.pid)
        return pids != self._worker_pids

    def _install(self, context: Any) -> None:
        """Broadcast ``context`` into every running worker (new generation).

        The new components are pickled once per phase (the workers receive
        the same pre-serialised blob), and components the workers already
        hold travel as token references — see :meth:`_encode_context`.

        The broadcast is health-monitored: every worker must pass the
        barrier, so a worker that died (or dies mid-broadcast) would wedge
        a blocking ``map`` forever.  Polling the async handle against the
        liveness check converts that hang into a :class:`_PoolCrash`,
        which the retry loop answers by respawning the pool.
        """
        if self._installed is context:
            return
        self._generation += 1
        new, layout, pending_tokens, pending_values = self._encode_context(context)
        blob = pickle.dumps(
            (self._generation, new, layout), pickle.HIGHEST_PROTOCOL
        )
        handle = self._pool.map_async(
            _set_context_task, [blob] * self._size, chunksize=1
        )
        deadline = time.monotonic() + BROADCAST_TIMEOUT
        while not handle.ready():
            if self._pool_damaged():
                raise _PoolCrash(
                    f"a pool worker died during the context broadcast for "
                    f"generation {self._generation}"
                )
            if time.monotonic() > deadline:
                raise _PoolCrash(
                    f"context broadcast for generation {self._generation} "
                    f"did not complete within {BROADCAST_TIMEOUT}s"
                )
            handle.wait(_POLL_INTERVAL)
        try:
            echoed = handle.get()
        except _CRASH_EXCEPTIONS as exc:
            raise _PoolCrash(
                f"context broadcast failed with transport error {exc!r}"
            ) from exc
        if echoed != [self._generation] * self._size:
            raise InternalInvariantError(
                f"context broadcast for generation {self._generation} "
                f"echoed {echoed} from {self._size} workers"
            )
        # Only a provably complete broadcast registers its components as
        # shipped; a failed sweep re-ships them next time (workers that
        # did store them just overwrite the same tokens).
        self._commit_shipped(pending_tokens, pending_values)
        self._installed = context

    # -- scheduling --------------------------------------------------------

    def _run_distinct(
        self,
        task: Callable,
        distinct: List[Hashable],
        context: Any,
        chunks_per_worker: int,
        phase_id: Optional[str],
    ) -> Dict[Hashable, Any]:
        if resolve_workers(self.workers, len(distinct)) == 0:
            merged = _run_serial(task, distinct, context)
            self._journal_chunk(phase_id, distinct, merged)
            return merged
        return self._run_pooled(task, distinct, context, chunks_per_worker, phase_id)

    def _run_pooled(
        self,
        task: Callable,
        distinct: List[Hashable],
        context: Any,
        chunks_per_worker: int,
        phase_id: Optional[str],
    ) -> Dict[Hashable, Any]:
        """One sharded phase with crash recovery.

        ``pending`` maps stable chunk indices to key chunks; a crash only
        ever retries what is still in ``pending`` — chunks whose results
        were already collected (and journaled) are kept (purity makes a
        re-execution byte-identical anyway, so salvaging is a pure
        optimisation).
        """
        num_chunks = min(len(distinct), self.workers * chunks_per_worker)
        pending: Dict[int, List[Hashable]] = dict(
            enumerate(chunk_keys(distinct, num_chunks))
        )
        done: Dict[int, Dict[Hashable, Any]] = {}
        crashes = 0
        while pending:
            try:
                self._ensure_open(context)
                self._install(context)
                self._collect(task, pending, done, phase_id)
            except _PoolCrash as crash:
                crashes += 1
                self.crash_recoveries += 1
                # The damaged pool (and possibly workers wedged on a
                # broadcast barrier) is unrecoverable state: tear it down
                # and let the next iteration respawn it with the current
                # phase context.
                self.close()
                if crashes > self.max_crash_retries:
                    if not self.degrade_to_serial:
                        raise WorkerCrashError(
                            f"sharded phase "
                            f"{getattr(task, '__name__', task)!r} lost its "
                            f"worker pool {crashes} time(s) "
                            f"(last failure: {crash}); {len(pending)} of "
                            f"{num_chunks} chunk(s) unfinished after "
                            f"{self.max_crash_retries} retries"
                        ) from crash
                    # Graceful degradation: the identical in-process
                    # serial path finishes the remaining chunks, so the
                    # phase's output is still byte-identical.
                    self.serial_degradations += 1
                    for index in sorted(pending):
                        chunk = pending.pop(index)
                        done[index] = _run_serial(task, chunk, context)
                        self._journal_chunk(phase_id, chunk, done[index])
        merged: Dict[Hashable, Any] = {}
        for index in sorted(done):
            merged.update(done[index])
        return merged

    def _collect(
        self,
        task: Callable,
        pending: Dict[int, List[Hashable]],
        done: Dict[int, Dict[Hashable, Any]],
        phase_id: Optional[str] = None,
    ) -> None:
        """Dispatch every pending chunk and gather results until all land.

        Raises :class:`_PoolCrash` on a dead worker, a transport error, or
        the chunk deadline; deterministic task exceptions propagate as-is
        (retrying them would re-raise identically).  ``pending``/``done``
        are updated in place — and each landed chunk is journaled before
        leaving ``pending`` — so a crash preserves partial progress both
        in memory and on disk.
        """
        handles = {
            index: self._pool.apply_async(
                _dispatch_chunk, ((task, self._generation, index, chunk),)
            )
            for index, chunk in sorted(pending.items())
        }
        deadline = None
        if self.chunk_timeout is not None:
            # Chunks beyond the pool size queue behind earlier ones; scale
            # the budget by the number of scheduling waves so a deep queue
            # is not misread as a hang.
            waves = math.ceil(len(handles) / max(1, self._size))
            deadline = time.monotonic() + self.chunk_timeout * waves
        while handles:
            progressed = False
            for index, handle in list(handles.items()):
                if not handle.ready():
                    continue
                try:
                    done[index] = handle.get()
                except _CRASH_EXCEPTIONS as exc:
                    raise _PoolCrash(
                        f"chunk {index} failed with transport error {exc!r}"
                    ) from exc
                self._journal_chunk(phase_id, pending[index], done[index])
                del handles[index]
                del pending[index]
                progressed = True
            if not handles:
                return
            if self._pool_damaged():
                raise _PoolCrash(
                    f"a pool worker exited abnormally with chunk(s) "
                    f"{sorted(handles)} in flight"
                )
            if deadline is not None and time.monotonic() > deadline:
                raise _PoolCrash(
                    f"chunk(s) {sorted(handles)} exceeded the "
                    f"{self.chunk_timeout}s per-chunk timeout"
                )
            if not progressed:
                time.sleep(_POLL_INTERVAL)


def run_sharded(
    task: Callable[[Sequence[Hashable]], Dict[Hashable, Any]],
    keys: Sequence[Hashable],
    context: Any,
    workers: int = 0,
    chunks_per_worker: int = 1,
    pool: Optional[Executor] = None,
) -> Dict[Hashable, Any]:
    """Apply ``task`` to ``keys``, sharded across an executor.

    Parameters
    ----------
    task:
        A **module-level** function (so ``spawn`` can pickle it by name)
        taking a chunk of keys and returning ``{key: result}`` for exactly
        that chunk.  It reads the shared inputs via :func:`worker_context`.
    keys:
        The work units.  Order defines the merge order of the result;
        duplicate keys are computed once and share the result.
    context:
        The read-only shared inputs, shipped once per worker.
    workers:
        Requested worker count; ``0``/``1`` run the task in-process.
        Ignored when ``pool`` is given (the executor's size wins).
    chunks_per_worker:
        Scheduling granularity (at least 1).  ``1`` (default) minimises
        transfer — one chunk per worker; larger values trade dispatch
        overhead for load balancing when per-key costs are skewed.
    pool:
        An open :class:`Executor` to reuse.  When given, this phase's
        context is broadcast into the executor's running workers (and
        journaled, if the executor carries a checkpoint journal); when
        omitted, a :class:`LocalProcessExecutor` of ``workers`` spans
        just this call.

    Returns
    -------
    dict
        ``{key: result}`` in ``keys`` order — byte-identical to the serial
        run at any worker count, journaled or not, interrupted or not.
    """
    if pool is not None:
        return pool.run(task, keys, context, chunks_per_worker=chunks_per_worker)
    with LocalProcessExecutor(workers) as one_shot:
        return one_shot.run(task, keys, context, chunks_per_worker=chunks_per_worker)


def _run_serial(
    task: Callable[[Sequence[Hashable]], Dict[Hashable, Any]],
    keys: List[Hashable],
    context: Any,
) -> Dict[Hashable, Any]:
    """In-process fallback: same task, same context plumbing, no pool.

    Deliberately hook-free: this is also the degradation path a
    :class:`LocalProcessExecutor` falls back to after exhausting crash
    retries, and a fault plan with remaining kill budget must not be able
    to re-fire into the recovery path it just exercised.
    """
    previous = getattr(_TLS, "context", None)
    _TLS.context = context
    try:
        return task(keys)
    finally:
        _TLS.context = previous
