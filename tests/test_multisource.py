"""Tests for the Section 8 machinery: centers, intervals, auxiliary tables."""

from __future__ import annotations

import random

import pytest

from repro.core.landmarks import LandmarkHierarchy
from repro.core.near_small import compute_near_small_tables
from repro.core.params import AlgorithmParams, ProblemScale
from repro.graph import generators
from repro.graph.bfs import bfs_distances, bfs_tree
from repro.multisource.centers import CenterHierarchy
from repro.multisource.intervals import (
    decompose_path,
    interval_for_edge,
    milestone_indices,
)
from repro.multisource.pipeline import compute_auxiliary_tables
from repro.multisource.tables import (
    compute_center_to_landmark_tables,
    compute_small_paths_through_centers,
    compute_source_to_center_tables,
)


class TestCenterHierarchy:
    def test_sources_have_priority_zero_or_more(self):
        scale = ProblemScale(40, 2, AlgorithmParams(seed=1))
        centers = CenterHierarchy.sample(scale, [5, 9])
        assert centers.priority_of(5) >= 0
        assert centers.priority_of(9) >= 0

    def test_priority_is_highest_sampling_level(self):
        centers = CenterHierarchy([[1, 2, 3], [2, 3], [3]], sources=[0])
        assert centers.priority_of(3) == 2
        assert centers.priority_of(2) == 1
        assert centers.priority_of(1) == 0
        assert centers.priority_of(7) == -1
        assert centers.is_center(0) and not centers.is_center(7)

    def test_level_accessor(self):
        centers = CenterHierarchy([[1], [2]], sources=[0])
        assert centers.level(1) == frozenset({2})
        assert centers.level(10) == frozenset()
        assert len(centers) == 3


class TestIntervals:
    def test_milestones_start_and_end_at_path_ends(self):
        path = list(range(10))
        priority = {0: 0, 4: 1, 7: 0}.get
        marks = milestone_indices(path, lambda v: priority(v, -1))
        assert marks[0] == 0 and marks[-1] == 9

    def test_staircase_priorities(self):
        # Priorities: source 0, a high-priority center at 5, a low one at 8.
        path = list(range(12))
        pri = {0: 0, 3: 1, 5: 3, 8: 1, 10: 2}
        marks = milestone_indices(path, lambda v: pri.get(v, -1))
        assert marks == [0, 3, 5, 10, 11]

    def test_intervals_partition_edges(self):
        path = list(range(15))
        pri = {0: 0, 6: 2, 11: 1}
        intervals = decompose_path(path, lambda v: pri.get(v, -1))
        owned = [i for interval in intervals for i in range(interval.start_index, interval.end_index)]
        assert owned == list(range(14))
        for idx in range(14):
            assert interval_for_edge(intervals, idx).contains_edge_index(idx)
        with pytest.raises(IndexError):
            interval_for_edge(intervals, 99)

    def test_trivial_paths(self):
        assert milestone_indices([3], lambda v: 0) == [0]
        assert decompose_path([3], lambda v: 0) == []


def _setup_medium_instance(seed: int = 5, n: int = 30):
    graph = generators.random_connected_graph(n, extra_edges=2 * n, seed=seed)
    sources = [0, n // 2]
    params = AlgorithmParams(seed=seed)
    scale = ProblemScale(n, len(sources), params)
    rng = random.Random(seed)
    landmarks = LandmarkHierarchy.sample(scale, sources, rng)
    centers = CenterHierarchy.sample(scale, sources, rng)
    source_trees = {s: bfs_tree(graph, s) for s in sources}
    landmark_trees = {
        r: source_trees.get(r, bfs_tree(graph, r)) for r in landmarks.union
    }
    center_trees = {
        c: source_trees.get(c) or landmark_trees.get(c) or bfs_tree(graph, c)
        for c in centers.all
    }
    return graph, sources, params, scale, landmarks, centers, source_trees, landmark_trees, center_trees


class TestSourceToCenterTables:
    def test_never_underestimates_and_usually_exact(self):
        (graph, sources, _, scale, _, centers, source_trees,
         _, center_trees) = _setup_medium_instance()
        s = sources[0]
        near_small = compute_near_small_tables(graph, s, source_trees[s], scale)
        table = compute_source_to_center_tables(
            graph, s, source_trees[s], centers, center_trees, scale, near_small
        )
        assert table  # some (center, edge) pairs must be covered
        exact = 0
        for (center, edge), value in table.items():
            truth = bfs_distances(graph, s, forbidden_edge=edge)[center]
            assert value >= truth
            exact += value == truth
        # With the default constants the tables are exact w.h.p.
        assert exact == len(table)


class TestCenterToLandmarkTables:
    def test_values_are_realisable_upper_bounds(self):
        (graph, sources, _, scale, landmarks, centers, _,
         _, center_trees) = _setup_medium_instance(seed=7)
        center = sorted(centers.all)[1]
        table = compute_center_to_landmark_tables(
            graph=graph,
            center=center,
            center_tree=center_trees[center],
            priority=centers.priority_of(center),
            landmarks=landmarks.union,
            scale=scale,
        )
        assert table
        for (landmark, edge), value in table.items():
            truth = bfs_distances(graph, center, forbidden_edge=edge)[landmark]
            assert value == truth


class TestSmallPathsThroughCenters:
    def test_suffix_lengths_are_consistent(self):
        (graph, sources, _, scale, landmarks, centers, source_trees,
         _, _) = _setup_medium_instance(seed=11)
        near_small = {
            s: compute_near_small_tables(graph, s, source_trees[s], scale, with_paths=True)
            for s in sources
        }
        through = compute_small_paths_through_centers(
            sources, landmarks.union, near_small, centers
        )
        assert through, "expected at least one small path through a center"
        for center, entries in through.items():
            for (landmark, edge), suffix in entries.items():
                truth = bfs_distances(graph, center, forbidden_edge=edge)[landmark]
                assert suffix >= truth  # a walk suffix can never beat the optimum


class TestAuxiliaryPipeline:
    def test_matches_direct_tables_on_connected_graph(self):
        (graph, sources, params, scale, landmarks, centers, source_trees,
         landmark_trees, _) = _setup_medium_instance(seed=13, n=26)
        from repro.core.landmark_rp import compute_direct_tables

        auxiliary = compute_auxiliary_tables(
            graph=graph,
            scale=scale,
            sources=sources,
            source_trees=source_trees,
            landmarks=landmarks,
            landmark_trees=landmark_trees,
            near_small={
                s: compute_near_small_tables(graph, s, source_trees[s], scale)
                for s in sources
            },
            rng=random.Random(13),
            centers=centers,
        )
        direct = compute_direct_tables(graph, source_trees, landmarks.union)
        for s in sources:
            tree = source_trees[s]
            for r in sorted(landmarks.union):
                if r == s or not tree.is_reachable(r):
                    continue
                for edge in tree.path_edges_to(r):
                    assert auxiliary.query(s, r, edge) == direct.query(s, r, edge)
