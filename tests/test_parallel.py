"""Tests for the keyed phase executor (:mod:`repro.parallel`).

Three families:

* **Scheduler semantics** — chunking, merge order and completeness
  (including duplicate keys), and the stats surface.
* **The oracle on a journaled executor** — the brute-force oracle run
  through a checkpoint journal, and replayed from it, equals the plain
  oracle entry for entry, ``math.inf`` identity included.
* **Seeding** — tagged child-seed derivation, and the regression for the
  correlated-RNG fallback in ``compute_auxiliary_tables`` (centers must
  not be sampled from the same stream as the landmarks).

Checkpoint journaling and resume are pinned by
``tests/test_checkpoint_resume.py``; run-to-run determinism of whole
solves by ``tests/test_output_digests.py``.
"""

from __future__ import annotations

import math
import random

import pytest

from repro.core.landmarks import LandmarkHierarchy
from repro.core.near_small import compute_near_small_tables
from repro.core.params import AlgorithmParams, ProblemScale
from repro.exceptions import InvalidParameterError
from repro.graph import generators
from repro.graph.csr import bfs_many
from repro.multisource.centers import CenterHierarchy
from repro.multisource.pipeline import compute_auxiliary_tables
from repro.parallel import (
    CheckpointJournal,
    Executor,
    child_rng,
    derive_child_seed,
    run_sharded,
)
from repro.parallel.executor import chunk_keys
from repro.parallel.tasks import bfs_roots_task
from repro.rp.bruteforce import brute_force_multi_source, brute_force_single_source


# ---------------------------------------------------------------------------
# scheduler semantics
# ---------------------------------------------------------------------------


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

    def test_duplicate_keys_computed_once_and_fanned_out(self):
        """Regression: duplicate keys used to trip the completeness check
        (the merged dict has fewer entries than the key list), raising a
        spurious ``InternalInvariantError``.  Duplicates must dedupe before
        running and fan back out in input order."""
        graph = generators.random_connected_graph(24, extra_edges=30, seed=2)
        context = {"graph": graph.csr()}
        roots = [5, 1, 5, 5, 2, 1]
        result = run_sharded(bfs_roots_task, roots, context, pool=Executor())
        assert list(result) == [5, 1, 2]  # first-seen order, computed once
        reference = run_sharded(bfs_roots_task, [5, 1, 2], context)
        for root in reference:
            assert result[root].dist == reference[root].dist

    def test_stats_hold_only_the_journal_counters(self):
        """Without a journal, ``stats()`` is the reuse counter alone, and
        the counter stays zero."""
        graph = generators.random_connected_graph(16, extra_edges=20, seed=4)
        executor = Executor()
        executor.run(bfs_roots_task, [0, 1, 2, 3], {"graph": graph.csr()})
        assert executor.stats() == {"keys_reused_from_journal": 0}


# ---------------------------------------------------------------------------
# the brute-force oracle on a journaled executor
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


def _journaled(directory) -> Executor:
    return Executor().attach_journal(CheckpointJournal.open(str(directory)))


def _assert_same_answer(ours, theirs) -> None:
    """Same sources, target and edge orders, values and ``math.inf``
    identity: journal replays unpickle fresh floats, which the oracle's
    merge must put back on the singleton."""
    assert ours == theirs
    for s in theirs:
        assert list(ours[s]) == list(theirs[s])
        for t in theirs[s]:
            assert list(ours[s][t]) == list(theirs[s][t])
            for edge, value in theirs[s][t].items():
                assert (ours[s][t][edge] is math.inf) == (value is math.inf)


class TestShardedOracle:
    @pytest.mark.parametrize("name", sorted(ORACLE_GENERATORS))
    def test_matches_serial_oracle(self, name, tmp_path):
        """A journaled oracle run, and its replay from the journal, equal
        the plain oracle entry for entry."""
        for seed in range(2):
            graph = ORACLE_GENERATORS[name](seed)
            sources = sorted(random.Random(seed).sample(range(graph.num_vertices), 2))
            plain = brute_force_multi_source(graph, sources)
            directory = tmp_path / f"seed{seed}"
            first = brute_force_multi_source(
                graph, sources, pool=_journaled(directory)
            )
            replay_pool = _journaled(directory)
            replay = brute_force_multi_source(graph, sources, pool=replay_pool)
            assert replay_pool.stats()["journal"]["records_written"] == 0
            _assert_same_answer(first, plain)
            _assert_same_answer(replay, plain)

    def test_single_source_accepts_shared_pool(self, tmp_path):
        """Two oracle calls on one executor are two journal phases: a
        replay on a fresh executor finds each call's records again."""
        graph = generators.random_connected_graph(18, extra_edges=22, seed=8)
        expected = [brute_force_single_source(graph, s) for s in (0, 5)]
        pool = _journaled(tmp_path)
        assert [brute_force_single_source(graph, s, pool=pool) for s in (0, 5)] == (
            expected
        )
        replay = _journaled(tmp_path)
        assert [
            brute_force_single_source(graph, s, pool=replay) for s in (0, 5)
        ] == expected
        assert replay.stats()["journal"]["records_written"] == 0
        # one key per tree edge, that is per target
        assert replay.keys_reused_from_journal == sum(map(len, expected))


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
