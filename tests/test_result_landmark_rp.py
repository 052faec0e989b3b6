"""Tests for the result container and the landmark replacement tables."""

from __future__ import annotations

import math

import pytest

from repro.core.landmark_rp import compute_direct_tables
from repro.core.msrp import multiple_source_replacement_paths
from repro.core.params import AlgorithmParams
from repro.core.result import ReplacementPathResult
from repro.exceptions import InvalidParameterError
from repro.graph import generators
from repro.graph.bfs import bfs_distances, bfs_tree
from repro.graph.graph import Graph


class TestReplacementPathResult:
    @pytest.fixture
    def result(self):
        g = generators.cycle_graph(7)
        return multiple_source_replacement_paths(g, [0, 3], params=AlgorithmParams(seed=1))

    def test_sources(self, result):
        assert result.sources == (0, 3)

    def test_distance_and_canonical_path(self, result):
        assert result.distance(0, 3) == 3
        path = result.canonical_path(0, 3)
        assert path[0] == 0 and path[-1] == 3 and len(path) == 4

    def test_replacement_length_on_and_off_path(self, result):
        path = result.canonical_path(0, 3)
        on_path_edge = (path[0], path[1])
        assert result.replacement_length(0, 3, on_path_edge) == 4
        off_path = [e for e in generators.cycle_graph(7).edges() if set(e) not in
                    [set((path[i], path[i + 1])) for i in range(3)]][0]
        assert result.replacement_length(0, 3, off_path) == 3

    def test_unknown_source_rejected(self, result):
        with pytest.raises(InvalidParameterError):
            result.replacement_length(1, 3, (0, 1))

    def test_output_size_counts_every_entry(self, result):
        assert result.output_size == sum(
            len(per_t) for s in result.sources for per_t in result.table(s).values()
        )

    def test_to_dict_roundtrip_and_matches(self, result):
        data = result.to_dict()
        assert result.matches(data)
        data[0][3].popitem()
        # A missing entry must be reported as a difference.
        assert not result.matches(data)

    def test_incomplete_table_detected(self):
        # A table is checked against the tree at construction: every
        # reachable target needs a list of exactly dist[t] lengths.
        g = generators.path_graph(4)
        tree = bfs_tree(g, 0)
        inf = math.inf
        with pytest.raises(InvalidParameterError, match="target 2 at distance 2 needs that many .* got None"):
            ReplacementPathResult({0: {1: [inf], 3: [inf] * 3}}, {0: tree})
        with pytest.raises(InvalidParameterError, match=r"target 3 at distance 3 needs .* got \[inf, inf\]"):
            ReplacementPathResult({0: {1: [inf], 2: [inf] * 2, 3: [inf] * 2}}, {0: tree})
        with pytest.raises(InvalidParameterError, match=r"target 3 at distance 3 needs .* got \[inf, inf, inf, inf\]"):
            ReplacementPathResult({0: {1: [inf], 2: [inf] * 2, 3: [inf] * 4}}, {0: tree})

    def test_foreign_table_shapes_refused(self, result):
        g = Graph(5, [(0, 1), (1, 2), (3, 4)])
        tree = bfs_tree(g, 0)
        inf = math.inf
        complete = {1: [inf], 2: [inf, inf]}
        # The source itself and an unreachable vertex are no targets.
        for key in (0, 3):
            with pytest.raises(InvalidParameterError, match=rf"keys \[{key}\] are not targets"):
                ReplacementPathResult({0: {**complete, key: []}}, {0: tree})
        # The edge-keyed layout has dist[t] keys per target, so a length
        # check alone would read its edges as values: refused by type.
        with pytest.raises(InvalidParameterError, match=r"not an edge-keyed mapping\), got \{\("):
            ReplacementPathResult(
                result.to_dict(), {s: result.source_tree(s) for s in result.sources}
            )

    def test_missing_tree_rejected(self):
        with pytest.raises(InvalidParameterError):
            ReplacementPathResult({0: {}}, {})

    def test_unreachable_target_is_infinite(self):
        g = Graph(4, [(0, 1), (2, 3)])
        result = multiple_source_replacement_paths(g, [0], params=AlgorithmParams(seed=1))
        assert result.replacement_length(0, 3, (2, 3)) is math.inf

    def test_nonexistent_edge_rejected(self, result):
        # Regression: a pair that is not an edge of the graph at all used to
        # fall into the "not on the canonical path" branch and silently
        # return the intact tree distance d(s, t).
        with pytest.raises(InvalidParameterError):
            result.replacement_length(0, 3, (13, 17))  # endpoints not vertices
        with pytest.raises(InvalidParameterError):
            result.replacement_length(0, 3, (0, 2))  # vertices, but no edge

    def test_nonexistent_edge_rejected_without_graph(self):
        # Results built without a graph reference can still reject pairs
        # whose endpoints fall outside the vertex range.
        g = generators.path_graph(4)
        tree = bfs_tree(g, 0)
        result = ReplacementPathResult(
            {0: {t: [math.inf] * t for t in (1, 2, 3)}}, {0: tree}
        )
        assert result.graph is None
        assert result.replacement_length(0, 3, (1, 2)) is math.inf
        with pytest.raises(InvalidParameterError):
            result.replacement_length(0, 3, (13, 17))

    def test_integer_like_source_and_target_coerced(self, result):
        # Regression: accessors must coerce targets the way the constructor
        # coerces source keys, so integer-like values (bool, numpy-style
        # scalars) address the stored entries instead of silently falling
        # into the "not stored" branch.
        class IntLike:
            """Stand-in for a numpy integer scalar: int()-able, odd hash."""

            def __init__(self, value):
                self._value = value

            def __int__(self):
                return self._value

            def __index__(self):
                return self._value

        path = result.canonical_path(0, 3)
        edge = (path[0], path[1])
        expected = result.replacement_length(0, 3, edge)
        assert result.replacement_length(IntLike(0), IntLike(3), edge) == expected
        assert result.replacement_lengths(0, IntLike(3)) == (
            result.replacement_lengths(0, 3)
        )
        assert result.targets(IntLike(0)) == result.targets(0)
        assert result.distance(IntLike(0), IntLike(3)) == result.distance(0, 3)
        # bool is the sneakiest integer-like: True must mean target 1.
        assert result.replacement_lengths(0, True) == result.replacement_lengths(0, 1)

    def test_fractional_indices_rejected(self, result):
        # Coercion must not silently truncate: 0.7 is not a vertex id.
        with pytest.raises(TypeError):
            result.distance(0.7, 3)
        with pytest.raises(TypeError):
            result.distance(0, 3.5)

    def test_out_of_range_target_rejected(self, result):
        # Regression: a negative target indexed from the end, so target -1
        # answered d(s, 6) on this 7-cycle, or raised an untyped KeyError.
        edge = (result.canonical_path(0, 3)[0], result.canonical_path(0, 3)[1])
        for target in (-1, 7):
            with pytest.raises(InvalidParameterError, match="outside the vertex range"):
                result.distance(0, target)
            with pytest.raises(InvalidParameterError, match="outside the vertex range"):
                result.canonical_path(0, target)
            with pytest.raises(InvalidParameterError, match="outside the vertex range"):
                result.replacement_length(0, target, edge)
            with pytest.raises(InvalidParameterError, match="outside the vertex range"):
                result.replacement_length(0, target, (3, 4))

    def test_fractional_edge_endpoints_rejected(self, result):
        # Regression: edge endpoints were coerced with int(), so (0.5, 1.2)
        # answered for the edge (0, 1).
        assert result.replacement_length(0, 3, (0, 1)) == 4
        with pytest.raises(TypeError):
            result.replacement_length(0, 3, (0.5, 1.2))
        with pytest.raises(TypeError):
            result.sweep(0, (0, 1.0))

    def test_sweep_equals_point_queries(self, result):
        # Every vertex, every tree edge, from every source: the sweep is
        # the tree distances with the failed edge's subtree overwritten.
        graph = generators.cycle_graph(7)
        for s in result.sources:
            for edge in graph.edges():
                lengths = result.sweep(s, edge)
                assert len(lengths) == graph.num_vertices
                for t, value in enumerate(lengths):
                    assert value == result.replacement_length(s, t, edge)
                    assert type(value) is type(result.replacement_length(s, t, edge))

    def test_bulk_views_rebuild_the_path_edges(self, result):
        # Entry i of a target's list is the path edge at depth i + 1.
        for s in result.sources:
            for t in result.targets(s):
                lengths = result.replacement_lengths(s, t)
                assert list(lengths) == result.source_tree(s).path_edges_to(t)
                assert list(lengths.values()) == result.table(s)[t]
                assert result.to_dict()[s][t] == lengths
        assert [(s, t, e) for s, t, e, _ in result.iter_entries()] == [
            (s, t, e)
            for s in result.sources
            for t in result.source_tree(s).preorder()[1:]
            for e in result.source_tree(s).path_edges_to(t)
        ]


class TestSourceLandmarkTables:
    """The direct tables: per source, ``(landmark, edge) -> d(s, r, e)``.

    An edge off the canonical ``s``-``r`` path has no key; Algorithms 3
    and 4 read ``table.get((r, e), d(s, r))``.
    """

    def test_direct_tables_match_per_edge_bfs(self):
        g = generators.grid_graph(3, 4)
        trees = {0: bfs_tree(g, 0), 5: bfs_tree(g, 5)}
        landmarks = [2, 7, 11]
        tables = compute_direct_tables(g, trees, landmarks)
        for s, tree in trees.items():
            for r in landmarks:
                for edge in tree.path_edges_to(r):
                    truth = bfs_distances(g, s, forbidden_edge=edge)[r]
                    assert tables[s][(r, edge)] == truth

    def test_query_falls_back_off_path(self):
        g = generators.cycle_graph(6)
        trees = {0: bfs_tree(g, 0)}
        tables = compute_direct_tables(g, trees, [2])
        assert (2, (3, 4)) not in tables[0]  # edge not on the 0-2 path
        assert tables[0].get((2, (3, 4)), trees[0].dist[2]) == 2

    def test_query_unreachable_landmark_is_infinite(self):
        g = Graph(4, [(0, 1), (2, 3)])
        trees = {0: bfs_tree(g, 0)}
        tables = compute_direct_tables(g, trees, [3])
        assert tables[0] == {}
        assert tables[0].get((3, (2, 3)), trees[0].dist[3]) is math.inf

    def test_num_entries(self):
        g = generators.path_graph(5)
        tables = compute_direct_tables(g, {0: bfs_tree(g, 0)}, [4])
        assert len(tables[0]) == 4
