"""Mixed-substrate equality battery for the numpy kernel tier.

numpy backs two kernels only: the compiled CSR of the interned auxiliary
Dijkstra (``InternedAuxiliaryGraph._compile_np``) and the memory-mapped
store load.  This module runs the SAME seeded instances through both
tiers in one interpreter — toggling ``REPRO_NUMPY`` between calls — and
asserts the outputs are *identical*, not merely equal-ish:

* BFS distances/trees: the CSR kernels have no numpy branch, so toggling
  the tier must leave their output untouched — same dist lists as the
  dict BFS twin (``is math.inf`` identity on the unreachable entries),
  same parents, same FIFO discovery order, plain Python value types.
* Full MSRP pipeline: byte-identical fingerprints across tiers, at worker
  counts 0 and 2 (workers inherit the tier through the environment, so a
  sharded numpy run must reproduce a serial pure-Python run bit for bit).
* ``math.inf`` identity and plain Python value types survive the numpy
  tier and a pickle round trip of a sharded result.
* Store round-trip: the mmap zero-copy load and the classic load of the
  same directory answer every entry identically.
* Pickle forms: a CSR graph compiled under one tier ships through
  ``__getstate__`` and rebuilds correctly under the other — the flat
  caches are derived state and must never leak into worker transfer.

``tests/test_csr.py`` and the property battery pin the graph kernels
(CSR BFS, subtree repair) to the dict BFS in more depth.
"""

from __future__ import annotations

import math
import pickle
import random

import pytest

from repro.core.msrp import MSRPSolver, multiple_source_replacement_paths
from repro.core.params import AlgorithmParams
from repro.graph import generators
from repro.graph.bfs import bfs_distances, bfs_tree
from repro.graph.csr import (
    CSRGraph,
    bfs_distances_csr,
    bfs_tree_csr,
    ensure_csr,
)
from repro.npsupport import NUMPY_ENV_VAR, numpy_available, numpy_enabled
from repro.store import load_store, write_store

pytestmark = pytest.mark.skipif(
    not numpy_available(), reason="numpy tier not installed"
)

#: Generators chosen so the battery sees disconnected graphs (real inf
#: entries), bridges, ties and dense neighbourhoods.
GENERATORS = {
    "gnp_sparse": lambda seed: generators.gnp_random_graph(16, 0.12, seed=seed),
    "gnp_dense": lambda seed: generators.gnp_random_graph(12, 0.45, seed=seed),
    "connected": lambda seed: generators.random_connected_graph(
        14, extra_edges=10, seed=seed
    ),
    "clusters": lambda seed: generators.path_with_clusters(4, 3, 2, seed=seed),
}

SEEDS = range(4)


@pytest.fixture()
def numpy_on(monkeypatch):
    monkeypatch.setenv(NUMPY_ENV_VAR, "1")


def _force_tier(monkeypatch, enabled: bool) -> None:
    monkeypatch.setenv(NUMPY_ENV_VAR, "1" if enabled else "0")


def _assert_plain_types(tree) -> None:
    for d in tree.dist:
        assert type(d) in (int, float), type(d)
        if d == math.inf:
            assert d is math.inf
    for p in tree.parent:
        assert p is None or type(p) is int, type(p)
    for v in tree.order:
        assert type(v) is int, type(v)


def _random_edge(graph, rng):
    edges = list(graph.edges())
    return edges[rng.randrange(len(edges))] if edges else None


class TestBfsTierEquality:
    @pytest.mark.parametrize("name", sorted(GENERATORS))
    def test_distances_and_trees_identical(self, name, monkeypatch):
        for seed in SEEDS:
            graph = GENERATORS[name](seed)
            csr = ensure_csr(graph)
            rng = random.Random(seed)
            source = rng.randrange(graph.num_vertices)
            banned = _random_edge(graph, rng)

            for forbidden in (None, banned):
                runs = {}
                for tier in (True, False):
                    _force_tier(monkeypatch, tier)
                    runs[tier] = (
                        bfs_distances_csr(csr, source, forbidden_edge=forbidden),
                        bfs_tree_csr(csr, source, forbidden_edge=forbidden),
                    )
                dist_np, tree_np = runs[True]
                dist_py, tree_py = runs[False]
                assert dist_np == dist_py
                assert tree_np.parent == tree_py.parent
                assert tree_np.dist == tree_py.dist
                assert tree_np.order == tree_py.order
                ref_dist = bfs_distances(graph, source, forbidden_edge=forbidden)
                ref_tree = bfs_tree(graph, source, forbidden_edge=forbidden)
                assert dist_np == ref_dist
                assert tree_np.parent == ref_tree.parent
                assert tree_np.order == ref_tree.order
                for got, want in zip(dist_np, dist_py):
                    if want == math.inf:
                        assert got is math.inf
                _assert_plain_types(tree_np)

    def test_dispatch_honours_env_toggle(self, monkeypatch):
        """The tier gate re-reads the env var on every call; BFS ignores it."""
        graph = generators.gnp_random_graph(10, 0.3, seed=3)
        csr = ensure_csr(graph)
        _force_tier(monkeypatch, False)
        assert not numpy_enabled()
        off = bfs_distances_csr(csr, 0)
        _force_tier(monkeypatch, True)
        assert numpy_enabled()
        on = bfs_distances_csr(csr, 0)
        assert off == on


class TestPipelineTierEquality:
    @pytest.mark.parametrize("workers", [0, 2])
    def test_fingerprints_identical_across_tiers(self, workers, monkeypatch):
        """Same fingerprint from numpy and pure tiers at any worker count.

        ``workers=2`` is the load-bearing case: worker processes read the
        tier from their inherited environment, so a mixed parent/worker
        tier would show up as a fingerprint split here.
        """
        for seed in (0, 1):
            graph = generators.random_connected_graph(
                16, extra_edges=12, seed=seed
            )
            rng = random.Random(seed)
            sources = sorted(rng.sample(range(graph.num_vertices), 3))
            entries = {}
            for tier in (True, False):
                _force_tier(monkeypatch, tier)
                result = multiple_source_replacement_paths(
                    graph,
                    sources,
                    params=AlgorithmParams(seed=seed, workers=workers),
                    landmark_strategy="auxiliary",
                )
                entries[tier] = list(result.iter_entries())
            assert entries[True] == entries[False], (
                f"seed={seed} workers={workers}: numpy tier fingerprint "
                "diverged from the pure-Python tier"
            )

    def test_inf_identity_survives_numpy_tier(self, numpy_on):
        """Disconnected instance: every stored inf is THE math.inf."""
        graph = generators.gnp_random_graph(18, 0.09, seed=7)
        sources = [0, 5]
        result = multiple_source_replacement_paths(
            graph, sources, params=AlgorithmParams(seed=7)
        )
        infs = 0
        for _s, _t, _e, value in result.iter_entries():
            assert type(value) in (int, float)
            if value == math.inf:
                assert value is math.inf
                infs += 1
        for s in sources:
            _assert_plain_types(result.source_tree(s))
        assert infs > 0, "instance was expected to contain infinite entries"


class TestPickleAcrossTiers:
    def test_csr_pickled_under_numpy_rebuilds_pure(self, monkeypatch):
        """Compiled flat caches are derived state: never pickled."""
        graph = generators.random_connected_graph(12, extra_edges=8, seed=2)
        _force_tier(monkeypatch, True)
        csr = ensure_csr(graph)
        list(csr.offsets)  # force the compile under the numpy tier
        payload = pickle.dumps(csr)
        _force_tier(monkeypatch, False)
        clone = pickle.loads(payload)
        assert isinstance(clone, CSRGraph)
        assert clone._offsets is None and clone._neighbors is None
        assert clone.num_arcs == csr.num_arcs
        assert list(clone.offsets) == list(csr.offsets)
        assert list(clone.neighbors) == list(csr.neighbors)
        tree_a = bfs_tree_csr(clone, 0)
        _force_tier(monkeypatch, True)
        tree_b = bfs_tree_csr(csr, 0)
        assert tree_a.dist == tree_b.dist
        assert tree_a.parent == tree_b.parent
        assert tree_a.order == tree_b.order

    @pytest.mark.parametrize("workers", [0, 2])
    def test_sharded_solve_round_trips_results(self, workers, monkeypatch):
        """Results built numpy-tier pickle/unpickle without numpy types."""
        graph = generators.random_connected_graph(14, extra_edges=9, seed=4)
        _force_tier(monkeypatch, True)
        result = multiple_source_replacement_paths(
            graph,
            [0, 3, 7],
            params=AlgorithmParams(seed=4, workers=workers),
        )
        clone = pickle.loads(pickle.dumps(result))
        assert list(clone.iter_entries()) == list(result.iter_entries())
        for (_s, _t, _e, ours), (_s2, _t2, _e2, theirs) in zip(
            clone.iter_entries(), result.iter_entries()
        ):
            if theirs == math.inf:
                assert ours is math.inf


class TestStoreTierEquality:
    def test_mmap_and_classic_loads_identical(self, tmp_path, monkeypatch):
        graph = generators.random_connected_graph(15, extra_edges=10, seed=6)
        solver = MSRPSolver(
            graph, [0, 4], params=AlgorithmParams(seed=6)
        )
        result = solver.solve()
        directory = str(tmp_path / "store")
        write_store(directory, result, meta=solver.store_metadata())

        _force_tier(monkeypatch, True)
        mapped, _ = load_store(directory, mmap=True)
        _force_tier(monkeypatch, False)
        classic, _ = load_store(directory, mmap=False)

        assert list(mapped.iter_entries()) == list(classic.iter_entries())
        for (_s, _t, _e, ours), (_s2, _t2, _e2, theirs) in zip(
            mapped.iter_entries(), classic.iter_entries()
        ):
            assert type(ours) in (int, float)
            if theirs == math.inf:
                assert ours is math.inf
