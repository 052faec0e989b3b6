"""Tests for near/far classification and the Section 7.1 construction."""

from __future__ import annotations

import math

import pytest

from repro.core.classification import FAR, NEAR, classify_path_edges
from repro.core.near_small import (
    compute_near_small_tables,
    compute_near_small_tables_reference,
    near_edges_from_target,
)
from repro.core.params import AlgorithmParams, ProblemScale
from repro.exceptions import InvalidParameterError
from repro.graph import generators
from repro.graph.bfs import bfs_distances, bfs_tree
from repro.graph.graph import normalize_edge


def _tiny_scale(n: int, sigma: int = 1, unit: float = 1.0) -> ProblemScale:
    """A scale whose base unit is ``unit``: the threshold constant divides
    out ``sqrt(n / sigma) * log2 n``.  Exact in floating point for every
    threshold-sensitive case below (n = 900 rounds to 0.9999999999999999)."""
    constant = unit / (math.sqrt(n / sigma) * math.log2(n))
    return ProblemScale(n, sigma, AlgorithmParams(threshold_constant=constant))


class TestClassification:
    def test_partition_is_complete_and_disjoint(self):
        path = list(range(30))
        scale = _tiny_scale(900)  # base unit = 30
        classified = classify_path_edges(path, scale)
        assert len(classified) == 29
        assert {c.index for c in classified} == set(range(29))
        assert all(c.kind in (NEAR, FAR) for c in classified)

    def test_distance_to_target_definition(self):
        path = [5, 6, 7, 8]
        scale = _tiny_scale(16, unit=0.1)
        classified = classify_path_edges(path, scale)
        assert [c.distance_to_target for c in classified] == [2, 1, 0]

    def test_near_far_threshold(self):
        # base_unit = 2 -> near edges are those closer than 4 to the target.
        path = list(range(20))
        scale = _tiny_scale(4, unit=2.0)
        classified = classify_path_edges(path, scale)
        for c in classified:
            if c.distance_to_target < 4:
                assert c.is_near and c.far_level == -1
            else:
                assert c.is_far and c.far_level >= 0

    def test_far_levels_grow_with_distance(self):
        path = list(range(200))
        scale = _tiny_scale(4, unit=1.0)
        far = [c for c in classify_path_edges(path, scale) if c.is_far]
        levels = [c.far_level for c in sorted(far, key=lambda c: c.distance_to_target)]
        assert levels == sorted(levels)

    def test_near_edges_from_target_classified(self):
        # The near edges walked up from t are the classifier's near edges.
        tree = bfs_tree(generators.path_graph(25), 0)
        scale = _tiny_scale(25, 1, unit=2.5)  # near threshold = 5
        expected = [
            (c.edge, c.distance_to_target)
            for c in classify_path_edges(tree.path_to(24), scale)
            if c.is_near
        ]
        assert len(expected) == 5
        assert near_edges_from_target(tree, 24, scale) == expected[::-1]


class TestNearEdgesFromTarget:
    def test_matches_path_suffix(self):
        g = generators.path_graph(12)
        tree = bfs_tree(g, 0)
        scale = _tiny_scale(12, unit=1.5)  # near threshold = 3
        got = near_edges_from_target(tree, 11, scale)
        assert [e for e, _ in got] == [(10, 11), (9, 10), (8, 9)]
        assert [d for _, d in got] == [0, 1, 2]

    def test_unreachable_target_is_empty(self):
        g = generators.path_graph(3)
        tree = bfs_tree(g, 0)
        scale = _tiny_scale(3)
        from repro.graph.graph import Graph

        island = Graph(4, [(0, 1)])
        island_tree = bfs_tree(island, 0)
        assert near_edges_from_target(island_tree, 3, scale) == []


class TestNearSmallTables:
    def test_values_match_brute_force_when_small(self):
        # On a cycle every replacement path is "large"; on a dense graph the
        # replacements are short and must match the exact distances.
        g = generators.complete_graph(6)
        tree = bfs_tree(g, 0)
        scale = ProblemScale(6, 1, AlgorithmParams())
        tables = compute_near_small_tables(g, 0, tree, scale)
        for target in range(1, 6):
            edge = normalize_edge(0, target)
            truth = bfs_distances(g, 0, forbidden_edge=edge)[target]
            assert tables[(target, edge)] == truth

    def test_values_are_never_underestimates(self):
        g = generators.path_with_clusters(10, 3, 2, seed=4)
        tree = bfs_tree(g, 0)
        scale = ProblemScale(g.num_vertices, 1, AlgorithmParams())
        tables = compute_near_small_tables(g, 0, tree, scale)
        finite = 0
        for (target, edge), value in tables.items():
            truth = bfs_distances(g, 0, forbidden_edge=edge)[target]
            assert value >= truth
            finite += value != math.inf
        assert finite > 0

    def test_walk_reconstruction_is_valid_and_avoids_edge(self):
        g = generators.grid_graph(3, 4)
        tree = bfs_tree(g, 0)
        scale = ProblemScale(12, 1, AlgorithmParams())
        tables = compute_near_small_tables_reference(g, 0, tree, scale, with_paths=True)
        checked = 0
        for (target, edge) in tables.known_pairs():
            walk = tables.walk(target, edge)
            assert walk[0] == 0 and walk[-1] == target
            assert all(g.has_edge(walk[i], walk[i + 1]) for i in range(len(walk) - 1))
            assert normalize_edge(*edge) not in {
                normalize_edge(walk[i], walk[i + 1]) for i in range(len(walk) - 1)
            }
            assert len(walk) - 1 == tables.values[(target, edge)]
            checked += 1
        assert checked > 0

    def test_walk_requires_with_paths(self):
        g = generators.cycle_graph(5)
        tree = bfs_tree(g, 0)
        scale = ProblemScale(5, 1, AlgorithmParams())
        tables = compute_near_small_tables_reference(g, 0, tree, scale)
        with pytest.raises(InvalidParameterError):
            tables.walk(2, (0, 1))

    def test_unknown_pair_is_infinite(self):
        # An unknown pair has no key, and every reader of the Section 7.1
        # table falls back to math.inf.
        g = generators.cycle_graph(5)
        tree = bfs_tree(g, 0)
        scale = ProblemScale(5, 1, AlgorithmParams())
        tables = compute_near_small_tables(g, 0, tree, scale)
        assert tables
        assert (99, (0, 1)) not in tables

    def test_known_pairs_rejects_arithmetic_infinities(self):
        """Regression: the finite filter must not rely on the inf singleton.

        ``float("inf")`` and arithmetic like ``math.inf + 1`` produce float
        objects that are *not* ``math.inf`` by identity; an ``is``-based
        filter would classify them as finite.  ``known_pairs`` must filter
        by value (``math.isinf``), not identity.
        """
        from repro.core.near_small import NearSmallTables

        arithmetic_inf = math.inf + 1.0
        values = {
            (1, (0, 1)): math.inf,        # the singleton
            (2, (0, 2)): float("inf"),    # parsed infinity
            (3, (0, 3)): arithmetic_inf,  # arithmetic-produced infinity
            (4, (0, 4)): 3.0,
        }
        tables = NearSmallTables(values)
        assert tables.known_pairs() == [(4, (0, 4))]
