"""Pickle round-trip equivalence battery for the compiled substrates.

The process-sharded pipeline (:mod:`repro.parallel`) ships graphs, trees
and auxiliary graphs across process boundaries — under ``spawn`` every
context object is pickled once per worker, and every task result is
pickled on the way back.  These tests pin the contract the scheduler
relies on: a round-tripped substrate answers **every** query identically
to the original, lazy caches are dropped (not silently shipped) and
rebuild on demand, and the ``math.inf`` singleton identity the hot paths
test with ``is`` survives restoration.
"""

from __future__ import annotations

import math
import pickle

import pytest

from repro.core.msrp import MSRPSolver
from repro.core.params import AlgorithmParams
from repro.exceptions import InvalidParameterError
from repro.graph import generators
from repro.graph.csr import CSRGraph, bfs_distances_csr, bfs_tree_csr
from repro.graph.graph import Graph
from repro.rp.dijkstra import AuxiliaryGraphBuilder, InternedAuxiliaryGraph, dijkstra


def roundtrip(obj):
    return pickle.loads(pickle.dumps(obj))


@pytest.fixture
def graph() -> Graph:
    return generators.random_connected_graph(28, extra_edges=40, seed=7)


class TestGraphPickle:
    def test_equality_and_queries(self, graph):
        copy = roundtrip(graph)
        assert copy == graph
        assert copy.num_vertices == graph.num_vertices
        assert copy.edges() == graph.edges()
        for v in graph.vertices():
            assert copy.neighbors(v) == graph.neighbors(v)
        u, v = graph.edges()[0]
        assert copy.has_edge(u, v) and copy.has_edge(v, u)
        assert not copy.has_edge(0, 0)

    def test_csr_cache_dropped_and_rebuilt(self, graph):
        graph.csr()  # materialise the cache on the original
        copy = roundtrip(graph)
        assert copy._csr is None
        assert bfs_distances_csr(copy, 0) == bfs_distances_csr(graph, 0)

    def test_disconnected_graph(self):
        g = Graph(5, [(0, 1), (3, 4)])
        copy = roundtrip(g)
        assert copy == g
        assert bfs_distances_csr(copy, 0) == bfs_distances_csr(g, 0)


class TestCSRGraphPickle:
    def test_rows_and_flat_arrays(self, graph):
        csr = graph.csr()
        _ = csr.offsets  # materialise the lazy flat pair
        copy = roundtrip(csr)
        assert copy.rows == csr.rows
        assert copy._offsets is None  # dropped, rebuilds lazily
        assert list(copy.offsets) == list(csr.offsets)
        assert list(copy.neighbors) == list(csr.neighbors)
        assert copy.has_edge(*graph.edges()[0])

    def test_traversal_equivalence(self, graph):
        csr = graph.csr()
        copy = roundtrip(csr)
        for root in (0, 5, 17):
            ours = bfs_tree_csr(copy, root)
            theirs = bfs_tree_csr(csr, root)
            assert ours.dist == theirs.dist
            assert ours.parent == theirs.parent
            assert ours.order == theirs.order


class TestShortestPathTreePickle:
    def test_without_structural_caches(self, graph):
        tree = bfs_tree_csr(graph, 0)
        assert not tree.has_structural_cache
        copy = roundtrip(tree)
        assert not copy.has_structural_cache
        assert copy.dist == tree.dist
        assert copy.parent == tree.parent
        assert copy.order == tree.order

    def test_with_structural_caches_materialised(self, graph):
        tree = bfs_tree_csr(graph, 3)
        tree.spans()
        tree.preorder()
        assert tree.has_structural_cache
        copy = roundtrip(tree)
        # Caches are dropped on the wire and rebuilt on demand ...
        assert not copy.has_structural_cache
        # ... with identical answers to the original's cached structures.
        for v in range(graph.num_vertices):
            assert copy.distance(v) == tree.distance(v)
            assert copy.is_reachable(v) == tree.is_reachable(v)
            if tree.is_reachable(v):
                assert copy.path_to(v) == tree.path_to(v)
        assert copy.spans() == tree.spans()
        assert copy.preorder() == tree.preorder()
        for edge in graph.edges():
            assert copy.edge_child(edge) == tree.edge_child(edge)
            for target in (0, 9, 20):
                assert copy.tree_path_uses_edge(edge, target) == (
                    tree.tree_path_uses_edge(edge, target)
                )
                assert copy.distance_avoiding(edge, target) == (
                    tree.distance_avoiding(edge, target)
                )

    def test_inf_singleton_identity_restored(self):
        g = Graph(5, [(0, 1), (1, 2), (3, 4)])
        tree = bfs_tree_csr(g, 0)
        copy = roundtrip(tree)
        # Hot paths use ``dist[v] is math.inf`` for unreachability; a plain
        # unpickle would produce a *different* inf object and silently turn
        # those tests false.
        assert copy.dist[3] is math.inf
        assert copy.dist[4] is math.inf
        assert copy.distance_avoiding((0, 1), 3) is math.inf


class TestReplacementPathResultPickle:
    """Regressions for the default-reduce pickling hole.

    ``ReplacementPathResult`` uses ``__slots__``; without explicit state
    methods the default reduce restores the slots directly and skips the
    constructor's ``math.inf`` re-canonicalisation, so an unpickled table
    could hold infs that are ``== math.inf`` but not ``is math.inf`` —
    silently breaking the identity invariant the fingerprints and hot
    paths rely on.  The explicit ``__getstate__``/``__setstate__`` pair
    routes restoration through the constructor and keeps the graph
    reference, so edge validation survives the round-trip too.
    """

    def _solve(self, graph, seed=5):
        sources = generators.random_sources(graph, 2, seed=seed)
        solver = MSRPSolver(
            graph, sources, params=AlgorithmParams(seed=seed)
        )
        return solver.solve()

    def test_values_and_trees_survive(self, graph):
        result = self._solve(graph)
        copy = roundtrip(result)
        assert list(copy.iter_entries()) == list(result.iter_entries())
        assert copy.sources == result.sources
        for s in result.sources:
            assert copy.source_tree(s).dist == result.source_tree(s).dist
            assert copy.targets(s) == result.targets(s)

    def test_inf_identity_restored(self):
        # A path graph: every edge is a bridge, every replacement is inf.
        g = generators.path_graph(7)
        result = self._solve(g, seed=2)
        copy = roundtrip(result)
        saw_inf = False
        for _s, _t, _e, value in copy.iter_entries():
            if value == math.inf:
                assert value is math.inf
                saw_inf = True
        assert saw_inf, "path graph must produce infinite replacements"

    def test_graph_reference_survives_and_validates(self, graph):
        result = self._solve(graph)
        assert result.graph is not None
        copy = roundtrip(result)
        # The graph rides along ...
        assert copy.graph == result.graph
        # ... so a non-edge query is still rejected after the round-trip
        # (the exact hole PR 4 closed for the graph-backed path).
        non_edge = next(
            (u, v)
            for u in range(graph.num_vertices)
            for v in range(u + 1, graph.num_vertices)
            if not graph.has_edge(u, v)
        )
        s = copy.sources[0]
        t = copy.targets(s)[0]
        with pytest.raises(InvalidParameterError, match="not an edge"):
            copy.replacement_length(s, t, non_edge)

    def test_replacement_queries_identical(self, graph):
        result = self._solve(graph)
        copy = roundtrip(result)
        for s, t, e, value in result.iter_entries():
            assert copy.replacement_length(s, t, e) == value


class TestInternedAuxiliaryGraphPickle:
    NODES = [("s",), ("v", 1), ("v", 2), ("ve", 3, (1, 3)), ("ve", 4, (3, 4))]
    ARCS = [
        (("s",), ("v", 1), 0.0),
        (("s",), ("v", 2), 2.0),
        (("v", 1), ("ve", 3, (1, 3)), 1.0),
        (("v", 2), ("ve", 3, (1, 3)), 1.0),
        (("ve", 3, (1, 3)), ("ve", 4, (3, 4)), 1.0),
        (("v", 2), ("v", 1), 5.0),
    ]

    def _build(self):
        aux = InternedAuxiliaryGraph()
        ref = AuxiliaryGraphBuilder()
        for u, v, w in self.ARCS:
            aux.add_arc(aux.intern(u), aux.intern(v), w)
            ref.add_edge(u, v, w)
        return aux, ref

    def test_distances_after_roundtrip(self):
        aux, ref = self._build()
        copy = roundtrip(aux)
        ref_dist, _ = dijkstra(ref.adjacency(), ("s",))
        dist = copy.dijkstra(copy.intern(("s",)))
        assert dist == aux.dijkstra(aux.intern(("s",)))
        assert {node: dist[copy.intern(node)] for node in self.NODES} == ref_dist

    def test_intern_table_rebuilt(self):
        aux, _ = self._build()
        copy = roundtrip(aux)
        for node in self.NODES:
            assert copy.intern(node) == aux.intern(node)
        # Interning after restore continues the dense id sequence.
        assert copy.intern(("new",)) == len(self.NODES)
