"""Unit tests for the CSR flat-array graph kernel (`repro.graph.csr`)."""

from __future__ import annotations

import math
from array import array

import pytest

from repro.exceptions import GraphError, InvalidParameterError
from repro.graph import generators
from repro.graph.bfs import bfs_distances, bfs_tree
from repro.graph.csr import (
    CSRGraph,
    bfs_distances_csr,
    bfs_many,
    bfs_tree_csr,
    connected_components,
    ensure_csr,
    is_connected,
)
from repro.graph.graph import Graph
from repro.npsupport import NUMPY_ENV_VAR


def assert_same_tree(dict_tree, csr_tree):
    """The CSR tree must be indistinguishable from the dict-BFS tree."""
    assert csr_tree.root == dict_tree.root
    assert csr_tree.parent == dict_tree.parent
    assert csr_tree.dist == dict_tree.dist
    assert csr_tree.order == dict_tree.order


class TestCSRGraphLayout:
    def test_offsets_and_neighbors_content(self):
        g = Graph(4, [(0, 1), (0, 2), (1, 2), (2, 3)])
        csr = g.csr()
        assert list(csr.offsets) == [0, 2, 4, 7, 8]
        assert list(csr.neighbors) == [1, 2, 0, 2, 0, 1, 3, 2]
        assert csr.num_vertices == 4
        assert csr.num_edges == 4
        assert csr.num_arcs == 8

    def test_rows_share_graph_adjacency_tuples(self):
        g = generators.cycle_graph(5)
        csr = g.csr()
        for v in range(5):
            assert csr.neighbors_of(v) == g.neighbors(v)
            assert csr.degree(v) == g.degree(v)

    def test_csr_view_is_cached_on_the_graph(self):
        g = generators.grid_graph(3, 3)
        assert g.csr() is g.csr()
        assert ensure_csr(g) is g.csr()
        csr = g.csr()
        assert ensure_csr(csr) is csr

    def test_empty_and_single_vertex(self):
        empty = Graph(0)
        assert empty.csr().num_vertices == 0
        assert list(empty.csr().offsets) == [0]
        single = Graph(1)
        assert list(single.csr().offsets) == [0, 0]
        assert len(single.csr().neighbors) == 0

    def test_num_arcs_is_cached_not_recomputed(self):
        """num_arcs/num_edges are one construction-time pass, not per access.

        Regression: both used to re-walk every adjacency row on every
        read, turning hot per-query paths quadratic.  Clobbering the rows
        after construction proves the accessors read the cache.
        """
        g = Graph(4, [(0, 1), (1, 2), (2, 3)])
        csr = g.csr()
        assert csr.num_arcs == 6
        assert csr.num_edges == 3
        csr.rows = [()] * 4  # a recomputing accessor would now see 0
        assert csr.num_arcs == 6
        assert csr.num_edges == 3

    def test_num_arcs_cache_rebuilt_on_unpickle(self):
        import pickle

        g = generators.gnp_random_graph(9, 0.4, seed=5)
        csr = g.csr()
        clone = pickle.loads(pickle.dumps(csr))
        assert clone.num_arcs == csr.num_arcs
        assert clone.num_edges == csr.num_edges

    def test_has_edge_matches_graph(self):
        g = generators.gnp_random_graph(12, 0.3, seed=3)
        csr = g.csr()
        for u in range(12):
            for v in range(12):
                assert csr.has_edge(u, v) == g.has_edge(u, v)
        assert not csr.has_edge(-1, 0)
        assert not csr.has_edge(0, 99)

    def test_from_graph_equals_cached_view(self):
        g = generators.barbell_graph(3, 2)
        built = CSRGraph.from_graph(g)
        cached = g.csr()
        assert list(built.offsets) == list(cached.offsets)
        assert list(built.neighbors) == list(cached.neighbors)

    @pytest.mark.parametrize("tier", ["1", "0"])
    def test_flat_pair_is_typed_array_on_every_tier(self, tier, monkeypatch):
        """numpy does not back the graph kernels: ``REPRO_NUMPY`` is moot."""
        monkeypatch.setenv(NUMPY_ENV_VAR, tier)
        csr = CSRGraph.from_graph(generators.grid_graph(3, 4))
        for flat in (csr.offsets, csr.neighbors):
            assert type(flat) is array and flat.typecode == "i"


class TestCSRBfsEquivalence:
    def test_distances_equal_dict_bfs(self):
        g = generators.random_connected_graph(30, extra_edges=25, seed=5)
        for s in (0, 7, 29):
            assert bfs_distances_csr(g, s) == bfs_distances(g, s)

    def test_distances_with_forbidden_edge(self):
        g = generators.random_connected_graph(24, extra_edges=20, seed=11)
        for edge in g.edges()[:10]:
            assert bfs_distances_csr(g, 0, forbidden_edge=edge) == bfs_distances(
                g, 0, forbidden_edge=edge
            )

    def test_forbidden_edge_orientation_is_irrelevant(self):
        g = generators.cycle_graph(6)
        assert bfs_distances_csr(g, 0, forbidden_edge=(0, 1)) == bfs_distances_csr(
            g, 0, forbidden_edge=(1, 0)
        )

    def test_tree_equals_dict_bfs(self):
        g = generators.gnp_random_graph(25, 0.2, seed=9)
        for s in (0, 12, 24):
            assert_same_tree(bfs_tree(g, s), bfs_tree_csr(g, s))

    def test_tree_with_prefer_path(self):
        g = generators.grid_graph(4, 4)
        path = bfs_tree(g, 0).path_to(15)
        dict_tree = bfs_tree(g, 15, prefer_path=list(reversed(path)))
        csr_tree = bfs_tree_csr(g, 15, prefer_path=list(reversed(path)))
        assert_same_tree(dict_tree, csr_tree)
        assert csr_tree.path_to(0) == list(reversed(path))

    def test_invalid_source_raises(self):
        g = generators.path_graph(3)
        with pytest.raises(InvalidParameterError):
            bfs_distances_csr(g, 7)
        with pytest.raises(InvalidParameterError):
            bfs_tree_csr(g, -1)

    def test_prefer_path_validation_matches_dict_bfs(self):
        g = generators.cycle_graph(6)
        with pytest.raises(GraphError):
            bfs_tree_csr(g, 0, prefer_path=[0, 5, 4, 3, 2, 1])
        with pytest.raises(GraphError):
            bfs_tree_csr(g, 0, prefer_path=[1, 2])


class TestBfsMany:
    def test_returns_one_tree_per_distinct_root(self):
        g = generators.random_connected_graph(20, extra_edges=15, seed=2)
        trees = bfs_many(g, [3, 0, 3, 7, 0])
        assert sorted(trees) == [0, 3, 7]
        for root, tree in trees.items():
            assert_same_tree(bfs_tree(g, root), tree)

    def test_accepts_precompiled_csr(self):
        g = generators.cycle_graph(8)
        trees = bfs_many(g.csr(), range(8))
        assert len(trees) == 8
        assert all(trees[r].root == r for r in range(8))

    def test_empty_roots(self):
        assert bfs_many(generators.path_graph(4), []) == {}
        assert bfs_many(Graph(0), []) == {}


class TestConnectivity:
    def test_connected_components_on_disconnected_graph(self):
        g = Graph(7, [(0, 1), (1, 2), (4, 5)])
        assert connected_components(g) == [[0, 1, 2], [3], [4, 5], [6]]
        assert not is_connected(g)

    def test_connected_graph(self):
        g = generators.random_connected_graph(15, extra_edges=5, seed=1)
        assert is_connected(g)
        assert connected_components(g) == [list(range(15))]

    def test_empty_and_single_vertex_count_as_connected(self):
        assert is_connected(Graph(0))
        assert is_connected(Graph(1))
        assert connected_components(Graph(0)) == []
        assert connected_components(Graph(1)) == [[0]]


class TestDistanceAvoiding:
    def test_accepts_unnormalized_edges(self):
        g = generators.cycle_graph(6)
        tree = bfs_tree_csr(g, 0)
        for edge in ((1, 0), (0, 1)):
            assert tree.distance_avoiding(edge, 1) == math.inf
            assert tree.distance_avoiding(edge, 5) == 1
        assert tree.distance_avoiding((4, 5), 2) == 2

    def test_unreachable_target(self):
        g = Graph(3, [(0, 1)])
        tree = bfs_tree_csr(g, 0)
        assert tree.distance_avoiding((0, 1), 2) == math.inf
