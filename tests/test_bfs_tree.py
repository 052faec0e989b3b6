"""Tests for BFS and the shortest-path-tree queries."""

from __future__ import annotations

import math

import pytest

from repro.exceptions import GraphError, InvalidParameterError, NotOnPathError
from repro.graph import generators
from repro.graph.bfs import bfs_distances, bfs_tree
from repro.graph.graph import Graph, normalize_edge


class TestBFSDistances:
    def test_path_graph_distances(self):
        g = generators.path_graph(5)
        assert bfs_distances(g, 0) == [0, 1, 2, 3, 4]

    def test_unreachable_is_inf(self):
        g = Graph(4, [(0, 1), (2, 3)])
        dist = bfs_distances(g, 0)
        assert dist[1] == 1
        assert dist[2] is math.inf

    def test_forbidden_edge_changes_distance(self):
        g = generators.cycle_graph(6)
        assert bfs_distances(g, 0)[3] == 3
        assert bfs_distances(g, 0, forbidden_edge=(0, 1))[3] == 3
        assert bfs_distances(g, 0, forbidden_edge=(2, 3))[3] == 3
        # Removing an edge incident to the target on both routes lengthens it.
        assert bfs_distances(g, 0, forbidden_edge=(0, 5))[5] == 5

    def test_invalid_source_rejected(self):
        with pytest.raises(InvalidParameterError):
            bfs_distances(generators.path_graph(3), 7)


class TestShortestPathTree:
    def test_parents_and_distances_consistent(self):
        g = generators.grid_graph(3, 3)
        tree = bfs_tree(g, 0)
        for v in g.vertices():
            parent = tree.parent[v]
            if parent is not None:
                assert tree.dist[v] == tree.dist[parent] + 1
        assert tree.dist[8] == 4

    def test_path_to_matches_distance(self):
        g = generators.grid_graph(3, 4)
        tree = bfs_tree(g, 0)
        for v in g.vertices():
            path = tree.path_to(v)
            assert len(path) - 1 == tree.dist[v]
            assert path[0] == 0 and path[-1] == v

    def test_path_to_unreachable_raises(self):
        g = Graph(3, [(0, 1)])
        tree = bfs_tree(g, 0)
        with pytest.raises(NotOnPathError):
            tree.path_to(2)

    def test_spans_hold_each_subtree(self):
        # Star with a pendant path: 0-1-2-3 plus 1-4, and 5 unreachable.
        tree = bfs_tree(Graph(6, [(0, 1), (1, 2), (2, 3), (1, 4)]), 0)
        pos, end = tree.spans()
        preorder = tree.preorder()
        assert preorder == [0, 1, 2, 3, 4]
        assert sorted(preorder[pos[1]:end[1]]) == [1, 2, 3, 4]
        assert preorder[pos[2]:end[2]] == [2, 3]
        assert preorder[pos[4]:end[4]] == [4]
        assert pos[5] == end[5] == -1

    def test_tree_path_uses_edge(self):
        g = generators.path_graph(5)
        tree = bfs_tree(g, 0)
        assert tree.tree_path_uses_edge((1, 2), 4)
        assert not tree.tree_path_uses_edge((3, 4), 2)

    def test_non_tree_edge_never_used(self):
        g = generators.cycle_graph(5)
        tree = bfs_tree(g, 0)
        tree_edges = {
            normalize_edge(p, v) for v, p in enumerate(tree.parent) if p is not None
        }
        non_tree = [e for e in g.edges() if e not in tree_edges]
        assert non_tree == [(2, 3)]
        for e in non_tree:
            assert tree.edge_child(e) is None
            for v in g.vertices():
                assert not tree.tree_path_uses_edge(e, v)
                assert tree.distance_avoiding(e, v) == tree.dist[v]

    def test_out_of_range_endpoint_is_no_tree_edge(self):
        # Vertex 6's parent is 0, so a bare parent[-1] read would take
        # (0, -1) for a tree edge with child -1 (answering -1, True and
        # math.inf below), and (5, 99) would raise IndexError.
        tree = bfs_tree(generators.cycle_graph(7), 0)
        assert tree.parent[6] == 0
        for edge in [(0, -1), (5, 99)]:
            assert tree.edge_child(edge) is None
            assert tree.tree_path_uses_edge(edge, 4) is False
            assert tree.distance_avoiding(edge, 4) == 3

    def test_edge_child_is_deeper_endpoint(self):
        g = generators.path_graph(4)
        tree = bfs_tree(g, 0)
        assert tree.edge_child((1, 2)) == 2
        assert tree.edge_child((2, 3)) == 3

    def test_deepest_path_ancestor_indices(self):
        # Star with a pendant path: 0-1-2-3 plus 1-4.
        g = Graph(5, [(0, 1), (1, 2), (2, 3), (1, 4)])
        tree = bfs_tree(g, 0)
        path = tree.path_to(3)  # [0, 1, 2, 3]
        anc = tree.deepest_path_ancestor_indices(path)
        assert anc[0] == 0 and anc[1] == 1 and anc[2] == 2 and anc[3] == 3
        assert anc[4] == 1  # vertex 4 hangs off path vertex 1

    def test_deepest_path_ancestor_requires_root_start(self):
        g = generators.path_graph(4)
        tree = bfs_tree(g, 0)
        with pytest.raises(NotOnPathError):
            tree.deepest_path_ancestor_indices([1, 2, 3])

    def test_subtree_size(self):
        # A span is as long as its subtree.
        g = generators.path_graph(5)
        pos, end = bfs_tree(g, 0).spans()
        assert end[0] - pos[0] == 5
        assert end[3] - pos[3] == 2

    def test_fractional_edge_endpoints_rejected(self):
        # (0.5, 1.2) is not the tree edge (0, 1): truncating it would
        # answer for an edge the caller never named.
        tree = bfs_tree(generators.cycle_graph(7), 0)
        with pytest.raises(TypeError):
            tree.edge_child((0.5, 1.2))
        with pytest.raises(TypeError):
            tree.tree_path_uses_edge((0.5, 1.2), 3)
        assert tree.edge_child((0, 1)) == 1
        assert tree.tree_path_uses_edge((0, 1), 3)


class TestPreferPath:
    def test_prefer_path_becomes_tree_path(self):
        g = generators.grid_graph(3, 3)
        tree = bfs_tree(g, 0)
        path = tree.path_to(8)
        reverse_tree = bfs_tree(g, 8, prefer_path=list(reversed(path)))
        assert reverse_tree.path_to(0) == list(reversed(path))

    def test_prefer_path_must_be_shortest(self):
        g = generators.cycle_graph(6)
        with pytest.raises(GraphError):
            bfs_tree(g, 0, prefer_path=[0, 5, 4, 3, 2, 1])  # not a shortest path to 1

    def test_prefer_path_must_start_at_source(self):
        g = generators.path_graph(4)
        with pytest.raises(GraphError):
            bfs_tree(g, 0, prefer_path=[1, 2])
