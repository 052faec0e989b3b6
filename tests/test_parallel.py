"""Tests for the process-sharded pipeline (:mod:`repro.parallel`).

Five families:

* **Scheduler semantics** — chunking, serial fallback, context plumbing,
  spawn-vs-fork, merge order and completeness (including duplicate keys).
* **Executor contract** — :class:`~repro.parallel.SerialExecutor` and
  :class:`~repro.parallel.LocalProcessExecutor` behind one interface:
  identical results, shared stats surface, idempotent close.
* **Pool lifecycle** — :class:`~repro.parallel.LocalProcessExecutor`
  reuse across phases: one multiprocessing pool per solve,
  generation-countered context broadcasts, the stale-worker guard, and
  serial degradation.
* **Determinism** — the full MSRP solve is entry-for-entry identical at
  ``workers`` ∈ {serial, 2, 4} for both landmark strategies, under the
  ``fork`` and the ``spawn`` start methods, and ``workers`` alone picks
  the one executor a solve opens.
* **Sharded oracle** — the process-sharded brute-force oracle equals the
  serial oracle entry-for-entry on the property-battery generators.
* **Seeding** — tagged child-seed derivation, and the regression for the
  correlated-RNG fallback in ``compute_auxiliary_tables`` (centers must
  not be sampled from the same stream as the landmarks).
"""

from __future__ import annotations

import math
import random

import pytest

from repro.core.landmarks import LandmarkHierarchy
from repro.core.msrp import MSRPSolver
from repro.core.near_small import compute_near_small_tables
from repro.core.params import AlgorithmParams, ProblemScale
from repro.exceptions import InternalInvariantError, InvalidParameterError
from repro.graph import generators
from repro.graph.csr import bfs_many
from repro.multisource.centers import CenterHierarchy
from repro.multisource.pipeline import compute_auxiliary_tables
from repro.parallel import (
    LocalProcessExecutor,
    SerialExecutor,
    child_rng,
    derive_child_seed,
    run_sharded,
)
from repro.parallel import executor as executor_module
from repro.parallel.executor import chunk_keys
from repro.parallel.tasks import bfs_roots_task
from repro.rp.bruteforce import brute_force_multi_source, brute_force_single_source


# ---------------------------------------------------------------------------
# scheduler semantics
# ---------------------------------------------------------------------------


def _executor(workers: int):
    """The transport a solve picks for ``workers``: serial up to one."""
    return SerialExecutor() if workers <= 1 else LocalProcessExecutor(workers)


class TestScheduler:
    def test_chunk_keys_contiguous_and_balanced(self):
        keys = list(range(10))
        chunks = chunk_keys(keys, 3)
        assert [len(c) for c in chunks] == [4, 3, 3]
        assert [k for chunk in chunks for k in chunk] == keys
        assert chunk_keys([1, 2], 5) == [[1], [2]]
        assert chunk_keys([], 2) == []
        with pytest.raises(InvalidParameterError):
            chunk_keys(keys, 0)

    @pytest.mark.parametrize("workers", [0, 3])
    def test_bfs_task_matches_serial(self, workers):
        graph = generators.random_connected_graph(24, extra_edges=30, seed=2)
        roots = list(range(12))
        context = {"graph": graph.csr()}
        serial = run_sharded(bfs_roots_task, roots, context)
        with _executor(workers) as pool:
            sharded = run_sharded(bfs_roots_task, roots, context, pool=pool)
        assert list(sharded) == roots  # merge preserves input-key order
        for root in roots:
            assert sharded[root].dist == serial[root].dist
            assert sharded[root].parent == serial[root].parent
            assert sharded[root].order == serial[root].order

    def test_spawn_start_method(self):
        """The spawn path (context + task pickled) produces the same trees."""
        graph = generators.random_connected_graph(16, extra_edges=20, seed=4)
        roots = [0, 3, 7, 11]
        context = {"graph": graph.csr()}
        serial = run_sharded(bfs_roots_task, roots, context)
        with LocalProcessExecutor(2, start_method="spawn") as pool:
            spawned = run_sharded(bfs_roots_task, roots, context, pool=pool)
        for root in roots:
            assert spawned[root].dist == serial[root].dist

    def test_bfs_many_workers_matches_serial(self):
        graph = generators.random_connected_graph(30, extra_edges=45, seed=9)
        roots = [5, 1, 5, 2, 29]
        serial = bfs_many(graph, roots)
        with LocalProcessExecutor(3) as pool:
            sharded = bfs_many(graph, roots, pool=pool)
        assert list(sharded) == list(serial)  # first-seen dedup order
        for root, tree in serial.items():
            assert sharded[root].dist == tree.dist
            assert sharded[root].parent == tree.parent

    @pytest.mark.parametrize("workers", [0, 2])
    def test_duplicate_keys_computed_once_and_fanned_out(self, workers):
        """Regression: duplicate keys used to trip the completeness check
        (the merged dict has fewer entries than the key list), raising a
        spurious ``InternalInvariantError``.  Duplicates must dedupe before
        chunking and fan back out in input order."""
        graph = generators.random_connected_graph(24, extra_edges=30, seed=2)
        context = {"graph": graph.csr()}
        roots = [5, 1, 5, 5, 2, 1]
        with _executor(workers) as pool:
            result = run_sharded(bfs_roots_task, roots, context, pool=pool)
        assert list(result) == [5, 1, 2]  # first-seen order, computed once
        reference = run_sharded(bfs_roots_task, [5, 1, 2], context)
        for root in reference:
            assert result[root].dist == reference[root].dist


# ---------------------------------------------------------------------------
# the executor contract: both transports behind one interface
# ---------------------------------------------------------------------------


#: Both transports by their ``Executor.kind``, sized for two workers.
TRANSPORTS = {
    "serial": SerialExecutor,
    "process": lambda: LocalProcessExecutor(2),
}


class TestExecutorContract:
    @pytest.mark.parametrize("kind", sorted(TRANSPORTS))
    def test_transports_match_serial(self, kind):
        """Every registered transport produces the serial result — same
        keys, same order, same values — for a multi-phase workload with
        duplicate keys."""
        graph = generators.random_connected_graph(24, extra_edges=30, seed=2)
        context = {"graph": graph.csr()}
        roots = [5, 1, 5, 2, 9, 1]
        reference = run_sharded(bfs_roots_task, roots, context)
        with TRANSPORTS[kind]() as executor:
            first = executor.run(bfs_roots_task, roots, context)
            second = executor.run(bfs_roots_task, [3, 8], context)
        assert list(first) == list(reference)
        for root in reference:
            assert first[root].dist == reference[root].dist
        assert list(second) == [3, 8]

    @pytest.mark.parametrize("kind", sorted(TRANSPORTS))
    def test_stats_surface(self, kind):
        """All transports expose the same stats shape; a clean run reports
        zero crashes, degradations and journal reuse."""
        graph = generators.random_connected_graph(16, extra_edges=20, seed=4)
        context = {"graph": graph.csr()}
        with TRANSPORTS[kind]() as executor:
            executor.run(bfs_roots_task, [0, 1, 2, 3], context)
            stats = executor.stats()
        assert stats["executor"] == kind
        assert stats["crash_recoveries"] == 0
        assert stats["serial_degradations"] == 0
        assert stats["keys_reused_from_journal"] == 0
        assert "journal" not in stats  # none attached

    def test_serial_executor_opens_no_pool(self):
        graph = generators.random_connected_graph(16, extra_edges=20, seed=4)
        context = {"graph": graph.csr()}
        before = executor_module.POOLS_OPENED
        with SerialExecutor() as executor:
            result = executor.run(bfs_roots_task, [0, 1, 2, 3], context)
            assert not executor.is_open
        assert list(result) == [0, 1, 2, 3]
        assert executor_module.POOLS_OPENED == before

    @pytest.mark.parametrize("kind", sorted(TRANSPORTS))
    def test_close_is_idempotent(self, kind):
        """Satellite regression: ``close()`` must be safe to call any
        number of times, including on a never-opened executor and after a
        context-manager exit already closed it."""
        graph = generators.random_connected_graph(16, extra_edges=20, seed=4)
        context = {"graph": graph.csr()}
        executor = TRANSPORTS[kind]()
        executor.close()  # never opened: no-op
        with executor:
            executor.run(bfs_roots_task, [0, 1, 2, 3], context)
            executor.close()
            executor.close()  # double close while "in" the with block
            assert not executor.is_open
        executor.close()  # after __exit__ already closed
        assert not executor.is_open


# ---------------------------------------------------------------------------
# pool lifecycle: LocalProcessExecutor reuse across phases
# ---------------------------------------------------------------------------


class TestWorkerPool:
    def test_one_pool_spans_phases_with_context_swap(self):
        """Two phases with different contexts reuse one multiprocessing
        pool; the second context is broadcast under a new generation and
        the results match the serial run of each phase."""
        graph = generators.random_connected_graph(26, extra_edges=30, seed=7)
        other = generators.random_connected_graph(26, extra_edges=30, seed=8)
        first_ctx = {"graph": graph.csr()}
        second_ctx = {"graph": other.csr()}
        before = executor_module.POOLS_OPENED
        with LocalProcessExecutor(2) as pool:
            assert not pool.is_open  # opened lazily, on first sharded phase
            first = run_sharded(bfs_roots_task, list(range(8)), first_ctx, pool=pool)
            assert pool.is_open
            first_generation = pool.generation
            second = run_sharded(
                bfs_roots_task, list(range(8, 14)), second_ctx, pool=pool
            )
            assert pool.generation > first_generation
        assert not pool.is_open
        assert executor_module.POOLS_OPENED - before == 1
        serial_first = run_sharded(bfs_roots_task, list(range(8)), first_ctx)
        serial_second = run_sharded(bfs_roots_task, list(range(8, 14)), second_ctx)
        for root, tree in serial_first.items():
            assert first[root].dist == tree.dist
            assert first[root].order == tree.order
        for root, tree in serial_second.items():
            assert second[root].dist == tree.dist
            assert second[root].parent == tree.parent

    def test_same_context_not_rebroadcast(self):
        graph = generators.random_connected_graph(20, extra_edges=24, seed=3)
        context = {"graph": graph.csr()}
        with LocalProcessExecutor(2) as pool:
            run_sharded(bfs_roots_task, [0, 1, 2, 3], context, pool=pool)
            generation = pool.generation
            run_sharded(bfs_roots_task, [4, 5, 6], context, pool=pool)
            assert pool.generation == generation  # same object: workers hold it

    def test_serial_pool_never_opens(self):
        """A phase with one distinct key cannot be split, so it runs
        in-process and never opens the pool, however often the key
        repeats."""
        graph = generators.random_connected_graph(18, extra_edges=20, seed=5)
        context = {"graph": graph.csr()}
        before = executor_module.POOLS_OPENED
        for keys in ([4], [4, 4, 4]):
            with LocalProcessExecutor(2) as pool:
                result = pool.run(bfs_roots_task, keys, context)
                assert not pool.is_open
            assert list(result) == [4]
            assert result[4].dist == run_sharded(bfs_roots_task, [4], context)[4].dist
        assert executor_module.POOLS_OPENED == before

    def test_stale_generation_dispatch_rejected(self):
        """The dispatch guard: a worker whose installed context generation
        does not match the chunk's generation must refuse the chunk rather
        than serve a new phase from a stale context."""
        tls = executor_module._TLS
        tls.generation = 3
        tls.context = {"stale": True}
        try:
            with pytest.raises(InternalInvariantError, match="generation"):
                executor_module._dispatch_chunk((bfs_roots_task, 4, 0, [0]))
        finally:
            del tls.generation
            del tls.context

    def test_negative_workers_rejected(self):
        with pytest.raises(InvalidParameterError):
            LocalProcessExecutor(-1)

    @pytest.mark.parametrize("workers", [0, 1])
    def test_fewer_than_two_workers_rejected(self, workers):
        """In-process runs are SerialExecutor's; a process pool of zero or
        one worker would be a second in-process transport."""
        with pytest.raises(InvalidParameterError, match="SerialExecutor"):
            LocalProcessExecutor(workers)


# ---------------------------------------------------------------------------
# end-to-end determinism across worker counts
# ---------------------------------------------------------------------------


def _solve_entries(strategy: str, workers: int):
    # n=72 matters: this seed's instance has infinite entries, which is what
    # arms the inf-identity assertion below (n=48 has none).
    n = 72
    graph = generators.random_connected_graph(n, extra_edges=2 * n, seed=n)
    rng = random.Random(n)
    sources = sorted(rng.sample(range(n), 3))
    solver = MSRPSolver(
        graph,
        sources,
        params=AlgorithmParams(seed=n, workers=workers),
        landmark_strategy=strategy,
    )
    return list(solver.solve().iter_entries())


def _inf_identity_count(entries):
    # Sharded tables come back through pickle; the result container must
    # re-canonicalise infinities so ``is math.inf`` consumers (e.g. the
    # benchmark fingerprint) cannot tell a sharded run from a serial one.
    return sum(1 for *_k, value in entries if value is math.inf)


@pytest.mark.parametrize("strategy", ["direct", "auxiliary"])
def test_fingerprints_identical_across_worker_counts(strategy):
    """serial vs workers=2 vs workers=4: entry-for-entry, order included.

    The worker runs go through the solver's one
    :class:`~repro.parallel.LocalProcessExecutor`, so this also pins the
    pooled-vs-serial entry equality — ``math.inf`` identity included — across the
    generation-countered context swaps of a full multi-phase solve.
    """
    serial = _solve_entries(strategy, 0)
    assert serial, "solver produced no entries"
    for workers in (2, 4):
        sharded = _solve_entries(strategy, workers)
        assert sharded == serial
        assert _inf_identity_count(sharded) == _inf_identity_count(serial)


def _far_regime_solve(workers: int):
    # The n=72 instance above never leaves the near regime (its threshold
    # is above its diameter), so Algorithm 3 does not run there.  Here the
    # near threshold is 4.7 and the source trees are 15 deep, so the
    # far-edge scan runs in the sharded assembly, on a pickled hierarchy.
    graph = generators.path_with_clusters(36, 4, 4, seed=6)
    n = graph.num_vertices
    sources = sorted(random.Random(n).sample(range(n), 3))
    solver = MSRPSolver(
        graph,
        sources,
        params=AlgorithmParams(seed=6, threshold_constant=0.1, workers=workers),
        landmark_strategy="auxiliary",
    )
    return solver, solver.solve()


def test_far_regime_entries_and_types_identical_across_worker_counts():
    """serial vs workers=2 in the far regime, ``7`` told apart from ``7.0``.

    ``==`` cannot tell an int tree-distance fallback from an equal float
    table value; comparing ``type(value)`` too pins the tie-break of the
    candidate scans across the pickle boundary.
    """
    solver, result = _far_regime_solve(0)
    depth = max(
        d for tree in solver.source_trees.values() for d in tree.dist if d != math.inf
    )
    assert depth > 3 * solver.scale.near_threshold
    serial = [(s, t, e, v, type(v)) for s, t, e, v in result.iter_entries()]
    assert {kind for *_key, kind in serial} == {int, float}
    _solver, sharded = _far_regime_solve(2)
    assert [(s, t, e, v, type(v)) for s, t, e, v in sharded.iter_entries()] == serial


@pytest.mark.parametrize(
    "workers, kind, pools", [(0, "serial", 0), (1, "serial", 0), (2, "process", 1)]
)
def test_workers_pick_the_solve_executor(workers, kind, pools):
    """``workers`` alone picks the one executor a solve opens: the
    in-process transport up to one worker, one pool above."""
    graph = generators.random_connected_graph(40, extra_edges=60, seed=6)
    before = executor_module.POOLS_OPENED
    solver = MSRPSolver(
        graph, [0, 11, 23], params=AlgorithmParams(seed=6, workers=workers)
    )
    solver.solve()
    assert solver.executor_stats["executor"] == kind
    assert executor_module.POOLS_OPENED - before == pools


def test_auxiliary_solve_opens_exactly_one_pool():
    """The pool-lifecycle contract at solver level: a ``workers=2``
    auxiliary solve — BFS fan-out, Section 7.1/8.1-8.3 builds, assembly
    and the final sweep — opens exactly one multiprocessing pool."""
    before = executor_module.POOLS_OPENED
    entries = _solve_entries("auxiliary", 2)
    assert entries, "solver produced no entries"
    assert executor_module.POOLS_OPENED - before == 1


def test_verified_solve_shares_the_solve_pool():
    """``verify=True`` runs the sharded brute-force oracle on the same
    pool as the solve itself: still exactly one pool opened."""
    n = 40
    graph = generators.random_connected_graph(n, extra_edges=60, seed=6)
    sources = [0, 11, 23]
    before = executor_module.POOLS_OPENED
    solver = MSRPSolver(
        graph,
        sources,
        params=AlgorithmParams(seed=6, workers=2, verify=True),
        landmark_strategy="auxiliary",
    )
    solver.solve()  # raises InternalInvariantError on any oracle mismatch
    assert executor_module.POOLS_OPENED - before == 1


# ---------------------------------------------------------------------------
# the sharded brute-force oracle
# ---------------------------------------------------------------------------


#: The property-battery generator families, sized for the oracle.
ORACLE_GENERATORS = {
    "gnp": lambda seed: generators.gnp_random_graph(14, 0.3, seed=seed),
    "gnm": lambda seed: generators.gnm_random_graph(13, 20, seed=seed),
    "regular": lambda seed: generators.random_regular_graph(12, 3, seed=seed),
    "connected": lambda seed: generators.random_connected_graph(
        16, extra_edges=12, seed=seed
    ),
    "clusters": lambda seed: generators.path_with_clusters(5, 3, 2, seed=seed),
}


class TestShardedOracle:
    @pytest.mark.parametrize("name", sorted(ORACLE_GENERATORS))
    def test_matches_serial_oracle(self, name):
        """Sharded == serial, entry for entry: same sources, same target
        and edge key orders, same values, ``math.inf`` identity included."""
        for seed in range(2):
            graph = ORACLE_GENERATORS[name](seed)
            rng = random.Random(seed)
            sources = sorted(rng.sample(range(graph.num_vertices), 2))
            serial = brute_force_multi_source(graph, sources)
            with LocalProcessExecutor(2) as pool:
                sharded = brute_force_multi_source(graph, sources, pool=pool)
            assert sharded == serial
            for s in serial:
                assert list(sharded[s]) == list(serial[s])
                for t in serial[s]:
                    assert list(sharded[s][t]) == list(serial[s][t])
                    for edge, value in serial[s][t].items():
                        if value is math.inf:
                            assert sharded[s][t][edge] is math.inf

    def test_multi_source_opens_one_pool(self):
        graph = generators.random_connected_graph(20, extra_edges=26, seed=4)
        before = executor_module.POOLS_OPENED
        with LocalProcessExecutor(2) as pool:
            brute_force_multi_source(graph, [0, 7, 13], pool=pool)
        assert executor_module.POOLS_OPENED - before == 1

    def test_single_source_accepts_shared_pool(self):
        graph = generators.random_connected_graph(18, extra_edges=22, seed=8)
        serial = brute_force_single_source(graph, 0)
        before = executor_module.POOLS_OPENED
        with LocalProcessExecutor(2) as pool:
            first = brute_force_single_source(graph, 0, pool=pool)
            second = brute_force_single_source(graph, 5, pool=pool)
        assert executor_module.POOLS_OPENED - before == 1
        assert first == serial
        assert second == brute_force_single_source(graph, 5)

    def test_serial_workers_change_nothing(self):
        graph = generators.path_graph(5)
        assert brute_force_single_source(graph, 0, pool=SerialExecutor()) == (
            brute_force_single_source(graph, 0)
        )


@pytest.mark.parametrize("strategy", ["direct", "auxiliary"])
def test_fingerprints_identical_under_spawn(strategy, monkeypatch):
    """A full solve on a spawn pool equals the serial solve.

    Spawned workers re-import ``repro`` and receive every phase context
    pickled, hierarchies included, so this pins each substrate's pickled
    form end to end.  Values are compared with their types and
    ``math.inf`` identity.
    """
    graph = generators.random_connected_graph(48, extra_edges=70, seed=3)
    sources = sorted(random.Random(3).sample(range(48), 3))

    def solve():
        solver = MSRPSolver(
            graph, sources, params=AlgorithmParams(seed=3), landmark_strategy=strategy
        )
        entries = [
            (s, t, e, v, type(v), v is math.inf)
            for s, t, e, v in solver.solve().iter_entries()
        ]
        return solver.executor_stats["executor"], entries

    serial_kind, serial = solve()
    assert serial_kind == "serial" and serial
    monkeypatch.setattr(
        MSRPSolver,
        "_make_executor",
        lambda self: LocalProcessExecutor(2, start_method="spawn"),
    )
    before = executor_module.POOLS_OPENED
    spawned_kind, spawned = solve()
    assert spawned_kind == "process"
    assert executor_module.POOLS_OPENED - before == 1
    assert spawned == serial


# ---------------------------------------------------------------------------
# seeding
# ---------------------------------------------------------------------------


class TestSeeding:
    def test_deterministic_and_tag_sensitive(self):
        a = derive_child_seed(12345, "multisource", "centers")
        assert a == derive_child_seed(12345, "multisource", "centers")
        assert a != derive_child_seed(12345, "multisource", "landmarks")
        assert a != derive_child_seed(12346, "multisource", "centers")
        assert a != 12345
        assert 0 <= a < 2**63

    def test_none_stays_none(self):
        assert derive_child_seed(None, "anything") is None

    def test_child_rng_streams_differ(self):
        first = child_rng(7, "a").random()
        assert first == child_rng(7, "a").random()
        assert first != child_rng(7, "b").random()


def test_fallback_center_sampling_decorrelated_from_landmarks(monkeypatch):
    """Regression: the ``compute_auxiliary_tables`` RNG fallback used
    ``random.Random(params.seed)`` — the exact seed the landmark sampler
    consumes — so a direct call sampled centers from the *same* stream as
    the landmarks (perfectly correlated draws, voiding the independence the
    Section 8 lemmas assume)."""
    n = 40
    graph = generators.random_connected_graph(n, extra_edges=60, seed=5)
    params = AlgorithmParams(seed=5)
    sources = [0, 7]
    scale = ProblemScale(n, len(sources), params)
    landmarks = LandmarkHierarchy.sample(scale, sources, random.Random(params.seed))

    # The trap, demonstrated: replaying the seed reproduces the landmark
    # draws verbatim (both hierarchies sample with identical probabilities).
    correlated = CenterHierarchy.sample(scale, sources, random.Random(params.seed))
    assert correlated.levels == landmarks.levels

    captured = {}
    original = CenterHierarchy.sample.__func__

    def spy(cls, spy_scale, spy_sources, rng=None):
        hierarchy = original(cls, spy_scale, spy_sources, rng)
        captured["centers"] = hierarchy
        return hierarchy

    monkeypatch.setattr(CenterHierarchy, "sample", classmethod(spy))
    roots = sorted(set(sources) | set(landmarks.union))
    trees = bfs_many(graph, roots)
    compute_auxiliary_tables(
        graph=graph,
        scale=scale,
        sources=sources,
        source_trees={s: trees[s] for s in sources},
        landmarks=landmarks,
        landmark_trees={r: trees[r] for r in landmarks.union},
        near_small={
            s: compute_near_small_tables(graph, s, trees[s], scale) for s in sources
        },
        # rng deliberately omitted: exercise the fallback path
    )
    centers = captured["centers"]
    assert centers.levels != landmarks.levels, (
        "fallback centers replayed the landmark sampler's stream"
    )

    # And the fallback stays deterministic: same seed, same centers.
    expected = CenterHierarchy.sample(
        scale, sources, child_rng(params.seed, "multisource", "centers")
    )
    assert centers.levels == expected.levels
