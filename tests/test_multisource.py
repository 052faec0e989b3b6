"""Tests for the Section 8 machinery: centers, intervals, auxiliary tables."""

from __future__ import annotations

import math
import random

import pytest

import repro.parallel.tasks as tasks
from repro.core.landmarks import LandmarkHierarchy
from repro.core.msrp import MSRPSolver
from repro.core.near_small import (
    compute_near_small_tables,
    compute_near_small_tables_reference,
)
from repro.core.params import AlgorithmParams, ProblemScale
from repro.graph import generators
from repro.graph.bfs import bfs_distances, bfs_tree
from repro.graph.csr import bfs_tree_csr
from repro.multisource.bottleneck import MTCEvaluator
from repro.multisource.centers import CenterHierarchy
from repro.multisource.intervals import (
    decompose_path,
    milestone_indices,
)
from repro.multisource.pipeline import _assemble_for_source, compute_auxiliary_tables
from repro.multisource.tables import (
    compute_center_to_landmark_tables,
    compute_small_paths_through_centers,
    compute_source_to_center_tables,
)
from tests.test_checkpoint_resume import _make_solver
from tests.test_paper_lemmas import SETUPS


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
            assert sum(i.contains_edge_index(idx) for i in intervals) == 1
        assert not any(i.contains_edge_index(99) for i in intervals)

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
         _, _) = _setup_medium_instance()
        s = sources[0]
        table = compute_source_to_center_tables(
            graph, s, source_trees[s], centers, scale
        )
        assert table  # some (center, edge) pairs must be covered
        exact = 0
        for (center, edge), value in table.items():
            truth = bfs_distances(graph, s, forbidden_edge=edge)[center]
            assert value >= truth
            exact += value == truth
        # Subtree repair makes the tables exact on every key, not only w.h.p.
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
            s: compute_near_small_tables_reference(
                graph, s, source_trees[s], scale, with_paths=True
            )
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
            assert auxiliary[s].keys() == direct[s].keys()
            for key, value in direct[s].items():
                assert auxiliary[s][key] == value, (s, key)


def _reader_instance(name):
    if name == "checkpoint-48":
        solver = _make_solver()
        return solver.graph, solver.sources, solver.params
    return SETUPS[name]()


def _typed(items):
    """``(key, value, type, is inf)`` per item: equal lists are identical."""
    return [(key, value, type(value), value is math.inf) for key, value in items]


def _typed_dict(table):
    """``key -> (value, type, is inf)``: equal dicts are identical tables."""
    return {
        key: (value, type(value), value is math.inf) for key, value in table.items()
    }


def _landmark_entries(table, landmark):
    """One landmark's ``(edge, value, ...)`` in a Section 8.2 table, by edge."""
    return sorted(_typed((e, v) for (r, e), v in table.items() if r == landmark))


class TestCenterTableReaders:
    """Section 8.2 builds exactly the ``(center, landmark)`` pairs MTC reads.

    MTC's fallback for a missing pair is realisable, so a missing table
    would only overestimate and the one-sided checks would not see it.
    This pins the read pairs against the full tables instead.
    """

    @pytest.mark.parametrize("name", ["sparse-aux-1", "ring-6", "checkpoint-48"])
    def test_every_read_pair_holds_the_full_table(self, name, monkeypatch):
        graph, sources, params = _reader_instance(name)
        solver = MSRPSolver(
            graph, sources, params=params, landmark_strategy="direct"
        ).preprocess()
        scale, landmarks = solver.scale, solver.landmarks
        centers = CenterHierarchy.sample(
            scale, solver.sources, random.Random(params.seed)
        )

        read = set()
        lookup = MTCEvaluator.center_to_landmark

        def recording_lookup(self, center, landmark, edge):
            read.add((center, landmark))
            return lookup(self, center, landmark, edge)

        built = {}
        build = tasks.compute_center_to_landmark_tables

        def recording_build(**kwargs):
            table = build(**kwargs)
            built[kwargs["center"]] = (tuple(kwargs["landmarks"]), table)
            return table

        monkeypatch.setattr(MTCEvaluator, "center_to_landmark", recording_lookup)
        monkeypatch.setattr(tasks, "compute_center_to_landmark_tables", recording_build)
        tables = compute_auxiliary_tables(
            graph=graph,
            scale=scale,
            sources=solver.sources,
            source_trees=solver.source_trees,
            landmarks=landmarks,
            landmark_trees=solver.landmark_trees,
            near_small=solver.near_small_tables,
            centers=centers,
        )
        monkeypatch.undo()

        trees = {**solver.landmark_trees, **solver.source_trees}
        center_trees = {
            c: trees[c] if c in trees else bfs_tree_csr(graph, c)
            for c in sorted(centers.all)
        }
        full = {
            c: compute_center_to_landmark_tables(
                graph, c, tree, centers.priority_of(c), landmarks.union, scale
            )
            for c, tree in center_trees.items()
        }

        assert read
        # Built for exactly the pairs read: none missing, none wasted.
        assert {(c, r) for c, (given, _) in built.items() for r in given} == read
        for center, landmark in sorted(read):
            table = built[center][1]
            assert _landmark_entries(table, landmark) == _landmark_entries(
                full[center], landmark
            ), (center, landmark)

        # The assembly over the full tables gives the same landmark tables.
        for source in solver.sources:
            tree = solver.source_trees[source]
            paths = {
                r: tree.path_to(r)
                for r in sorted(landmarks.union)
                if r != source and tree.is_reachable(r)
            }
            local = _assemble_for_source(
                graph=graph,
                scale=scale,
                source=source,
                source_tree=tree,
                landmark_trees=solver.landmark_trees,
                centers=centers,
                center_trees=center_trees,
                center_to_landmark=full,
                near_small=solver.near_small_tables[source],
                landmark_paths=paths,
                landmark_intervals={
                    r: decompose_path(path, centers.priority_of)
                    for r, path in paths.items()
                },
            )
            assert _typed_dict(tables[source]) == _typed_dict(local), source
