"""Regression tests for boundary inputs across the whole stack.

Disconnected graphs, empty and single-vertex graphs, the ``sigma = 1``
regime, star and bridge-heavy instances, the tightened
``Graph.from_adjacency`` contract, and non-integral vertex ids at every
public entry point.
"""

from __future__ import annotations

import math

import pytest

from repro.core.landmarks import LandmarkHierarchy
from repro.core.msrp import multiple_source_replacement_paths
from repro.core.params import AlgorithmParams, ProblemScale
from repro.core.ssrp import single_source_replacement_paths
from repro.exceptions import GraphError, InvalidParameterError
from repro.graph import generators
from repro.graph.bfs import bfs_distances, bfs_tree
from repro.graph.csr import bfs_distances_csr, bfs_many, bfs_tree_csr
from repro.graph.graph import Graph
from repro.multisource.centers import CenterHierarchy
from repro.rp.bruteforce import (
    brute_force_multi_source,
    brute_force_single_source,
    replacement_distance,
)
from repro.rp.single_pair import replacement_paths


class TestDisconnectedGraphs:
    def test_msrp_reports_only_reachable_targets(self):
        g = Graph(6, [(0, 1), (1, 2), (3, 4)])  # vertex 5 isolated
        result = multiple_source_replacement_paths(
            g, [0, 3], params=AlgorithmParams(seed=1)
        )
        assert result.targets(0) == [1, 2]
        assert result.targets(3) == [4]
        assert result.matches(brute_force_multi_source(g, [0, 3]))

    def test_csr_bfs_marks_other_components_unreachable(self):
        g = Graph(5, [(0, 1), (3, 4)])
        dist = bfs_distances_csr(g, 0)
        assert dist == [0, 1, math.inf, math.inf, math.inf]
        tree = bfs_tree_csr(g, 3)
        assert tree.reachable_vertices() == [3, 4]
        assert not tree.is_reachable(0)

    def test_replacement_across_components_never_appears(self):
        g = Graph(4, [(0, 1), (2, 3)])
        answer = brute_force_single_source(g, 0)
        assert sorted(answer) == [1]
        assert answer[1] == {(0, 1): math.inf}


class TestDegenerateGraphs:
    def test_empty_graph(self):
        g = Graph(0)
        assert g.num_vertices == 0 and g.num_edges == 0
        assert bfs_many(g, []) == {}
        with pytest.raises(InvalidParameterError):
            bfs_distances_csr(g, 0)
        with pytest.raises(InvalidParameterError):
            multiple_source_replacement_paths(g, [0])

    def test_single_vertex_graph(self):
        g = Graph(1)
        assert bfs_distances_csr(g, 0) == [0]
        tree = bfs_tree_csr(g, 0)
        assert tree.order == [0] and tree.parent == [None]
        result = single_source_replacement_paths(g, 0, params=AlgorithmParams(seed=2))
        assert result.targets(0) == []
        assert result.matches({0: {}})

    def test_two_isolated_vertices(self):
        g = Graph(2)
        result = multiple_source_replacement_paths(
            g, [0, 1], params=AlgorithmParams(seed=3)
        )
        assert result.targets(0) == []
        assert result.targets(1) == []


class TestSigmaOne:
    def test_ssrp_equals_bruteforce(self):
        g = generators.random_connected_graph(20, extra_edges=18, seed=4)
        result = single_source_replacement_paths(g, 5, params=AlgorithmParams(seed=4))
        assert result.matches({5: brute_force_single_source(g, 5)})

    def test_msrp_with_one_source_equals_ssrp(self):
        g = generators.grid_graph(3, 5)
        params = AlgorithmParams(seed=5)
        msrp = multiple_source_replacement_paths(g, [0], params=params)
        ssrp = single_source_replacement_paths(g, 0, params=params)
        assert msrp.table(0) == ssrp.table(0)


class TestStarAndBridgeHeavyGraphs:
    def test_star_graph_every_edge_is_irreplaceable(self):
        g = generators.star_graph(6)
        result = single_source_replacement_paths(g, 0, params=AlgorithmParams(seed=6))
        for leaf in range(1, 7):
            assert result.replacement_length(0, leaf, (0, leaf)) == math.inf
        assert result.matches({0: brute_force_single_source(g, 0)})

    def test_star_from_leaf_source(self):
        g = generators.star_graph(5)
        result = single_source_replacement_paths(g, 3, params=AlgorithmParams(seed=7))
        assert result.matches({3: brute_force_single_source(g, 3)})

    def test_path_graph_all_bridges(self):
        g = generators.path_graph(8)
        answer = brute_force_single_source(g, 0)
        for target, per_edge in answer.items():
            assert set(per_edge.values()) == {math.inf}
        result = single_source_replacement_paths(g, 0, params=AlgorithmParams(seed=8))
        assert result.matches({0: answer})

    def test_barbell_bridge_separates_the_cliques(self):
        g = generators.barbell_graph(3, 4)
        result = multiple_source_replacement_paths(
            g, [0, 1], params=AlgorithmParams(seed=9)
        )
        assert result.matches(brute_force_multi_source(g, [0, 1]))
        # Replacements inside a clique are finite, across the bridge infinite.
        bridge_values = [
            value
            for _, _, _, value in result.iter_entries()
            if value == math.inf
        ]
        assert bridge_values, "the barbell bridge must be irreplaceable"


class TestFromAdjacencyContract:
    def test_round_trips_adjacency(self):
        for g in (
            generators.gnp_random_graph(15, 0.25, seed=10),
            generators.star_graph(4),
            generators.barbell_graph(3, 2),
            Graph(3),
            Graph(0),
        ):
            assert Graph.from_adjacency(g.adjacency()) == g

    def test_symmetric_input_accepted(self):
        g = Graph.from_adjacency([[1, 2], [0], [0]])
        assert g.edges() == ((0, 1), (0, 2))

    def test_asymmetric_input_rejected(self):
        with pytest.raises(GraphError, match="asymmetric"):
            Graph.from_adjacency([[1], [], []])
        with pytest.raises(GraphError, match="asymmetric"):
            Graph.from_adjacency([[], [0], []])

    def test_self_loop_rejected(self):
        with pytest.raises(GraphError, match="self loop"):
            Graph.from_adjacency([[0]])

    def test_out_of_range_neighbor_rejected(self):
        with pytest.raises(GraphError, match="outside"):
            Graph.from_adjacency([[3], []])
        with pytest.raises(GraphError, match="outside"):
            Graph.from_adjacency([[-1], []])


def _cycle_setup():
    """``cycle_graph(7)`` with one source (0), every vertex a landmark and
    a center, and the trees and tables the entry points below read."""
    g = generators.cycle_graph(7)
    trees = bfs_many(g, range(7))
    scale = ProblemScale(7, 1, AlgorithmParams(seed=1))
    return g, trees, scale, LandmarkHierarchy([range(7)], [0]), CenterHierarchy(
        [range(7)], [0]
    )


def _near_small_walk():
    from repro.core.near_small import compute_near_small_tables_reference

    g, trees, scale, _landmarks, _centers = _cycle_setup()
    tables = compute_near_small_tables_reference(g, 0, trees[0], scale, with_paths=True)
    return tables.walk(1, (0.5, 1.2))


def _far_candidate():
    from repro.core.far_edges import FarEdgeSolver
    from repro.core.landmark_rp import compute_direct_tables

    g, trees, scale, landmarks, _centers = _cycle_setup()
    tables = compute_direct_tables(g, {0: trees[0]}, range(7))
    solver = FarEdgeSolver(scale, landmarks, trees, tables, {0: trees[0]})
    return solver.candidate_edge(0, 3, (0.5, 1.2), 0)


def _direct_tables(reference: bool):
    from repro.core import landmark_rp

    g, trees, _scale, _landmarks, _centers = _cycle_setup()
    build = (
        landmark_rp.compute_direct_tables_reference
        if reference
        else landmark_rp.compute_direct_tables
    )
    return build(g, {0: trees[0]}, [1.5])


def _small_paths_through_centers():
    from repro.core.near_small import compute_near_small_tables_reference
    from repro.multisource.tables import compute_small_paths_through_centers

    g, trees, scale, _landmarks, centers = _cycle_setup()
    near = compute_near_small_tables_reference(g, 0, trees[0], scale, with_paths=True)
    return compute_small_paths_through_centers([0], [1.5], {0: near}, centers)


def _center_tables_reference():
    from repro.multisource.tables import compute_center_to_landmark_tables_reference

    _g, trees, scale, _landmarks, _centers = _cycle_setup()
    return compute_center_to_landmark_tables_reference(
        center=0,
        center_tree=trees[0],
        priority=0,
        landmarks=[1.5],
        landmark_trees=trees,
        scale=scale,
    )


def _result_table_key():
    from repro.core.result import ReplacementPathResult

    result = multiple_source_replacement_paths(
        generators.cycle_graph(7), [0], params=AlgorithmParams(seed=1)
    )
    tables, trees, _graph = result.__getstate__()
    return ReplacementPathResult({0.7: tables[0]}, trees)


def _baseline(name: str):
    from repro.baselines import naive

    return getattr(naive, name)(generators.cycle_graph(7), [0.7])


#: One call per public entry point that takes a caller's vertex id.  Each
#: passes a non-integral id that ``int()`` would truncate to a valid one.
TRUNCATING_CALLS = {
    "Graph-edges": (lambda: Graph(3, [(0.5, 1.7)]), GraphError),
    "Graph-num_vertices": (lambda: Graph(3.7), TypeError),
    "Graph.from_edge_list": (lambda: Graph.from_edge_list([(0.5, 1.7)]), TypeError),
    "Graph.from_adjacency": (lambda: Graph.from_adjacency([[1.5], [0]]), TypeError),
    "Graph.subgraph_without_edge": (
        lambda: generators.cycle_graph(7).subgraph_without_edge((0.5, 1.2)),
        TypeError,
    ),
    "Graph.__contains__": (lambda: (0.5, 1.2) in generators.cycle_graph(7), TypeError),
    "bfs_distances": (
        lambda: bfs_distances(generators.cycle_graph(7), 0, forbidden_edge=(0.5, 1.2)),
        TypeError,
    ),
    "bfs_tree": (lambda: bfs_tree(generators.cycle_graph(7), 0.5), TypeError),
    "bfs_distances_csr": (
        lambda: bfs_distances_csr(
            generators.cycle_graph(7), 0, forbidden_edge=(0.5, 1.2)
        ),
        TypeError,
    ),
    "bfs_tree_csr": (lambda: bfs_tree_csr(generators.cycle_graph(7), 0.5), TypeError),
    "bfs_many": (lambda: bfs_many(generators.cycle_graph(7), [0.5]), TypeError),
    "replacement_distance": (
        lambda: replacement_distance(generators.cycle_graph(7), 0, 3, (0.5, 1.2)),
        TypeError,
    ),
    "brute_force_multi_source": (
        lambda: brute_force_multi_source(generators.cycle_graph(7), [0.7]),
        TypeError,
    ),
    "SinglePairReplacementPaths.get": (
        lambda: replacement_paths(generators.cycle_graph(7), 0, 3).get((0.5, 1.2)),
        TypeError,
    ),
    "NearSmallTables.walk": (_near_small_walk, TypeError),
    "FarEdgeSolver.candidate_edge": (_far_candidate, TypeError),
    "compute_direct_tables": (lambda: _direct_tables(False), TypeError),
    "compute_direct_tables_reference": (lambda: _direct_tables(True), TypeError),
    "compute_small_paths_through_centers": (_small_paths_through_centers, TypeError),
    "compute_center_to_landmark_tables_reference": (
        _center_tables_reference,
        TypeError,
    ),
    "LandmarkHierarchy": (
        lambda: LandmarkHierarchy([[1.5, 2.9]], sources=[0.7]),
        TypeError,
    ),
    "CenterHierarchy": (lambda: CenterHierarchy([[1.5, 2.9]], sources=[0]), TypeError),
    "ReplacementPathResult": (_result_table_key, TypeError),
    "msrp_per_target_classical": (
        lambda: _baseline("msrp_per_target_classical"),
        TypeError,
    ),
    "msrp_independent_ssrp": (lambda: _baseline("msrp_independent_ssrp"), TypeError),
}


@pytest.mark.parametrize("entry_point", sorted(TRUNCATING_CALLS))
def test_non_integral_vertex_ids_refused(entry_point):
    """``0.5`` is not vertex 0: every entry point coerces caller ids with
    ``operator.index`` and refuses a float instead of truncating it."""
    call, error = TRUNCATING_CALLS[entry_point]
    with pytest.raises(error):
        call()
