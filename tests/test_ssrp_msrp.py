"""End-to-end tests of the SSRP and MSRP pipelines against brute force."""

from __future__ import annotations

import math
import random

import pytest
from hypothesis import given, settings, strategies as st

from tests.conftest import random_instance
from repro.core.landmarks import LandmarkHierarchy
from repro.core.msrp import MSRPSolver, multiple_source_replacement_paths
from repro.core.params import AlgorithmParams
from repro.core.ssrp import single_source_replacement_paths
from repro.exceptions import InternalInvariantError, InvalidParameterError
from repro.graph import generators
from repro.graph.graph import Graph
from repro.rp.bruteforce import brute_force_multi_source, brute_force_single_source


class TestSSRP:
    @pytest.mark.parametrize("trial", range(20))
    def test_matches_brute_force_on_random_graphs(self, trial):
        graph, sources = random_instance(trial)
        source = sources[0]
        result = single_source_replacement_paths(
            graph, source, params=AlgorithmParams(seed=trial)
        )
        assert result.matches({source: brute_force_single_source(graph, source)})

    def test_cycle(self):
        g = generators.cycle_graph(8)
        result = single_source_replacement_paths(g, 0, params=AlgorithmParams(seed=1))
        assert result.matches({0: brute_force_single_source(g, 0)})

    def test_bridges_report_infinity(self):
        g = generators.path_graph(6)
        result = single_source_replacement_paths(g, 0, params=AlgorithmParams(seed=1))
        assert result.replacement_length(0, 5, (2, 3)) is math.inf

    def test_disconnected_graph_reports_only_reachable_targets(self):
        g = Graph(6, [(0, 1), (1, 2), (3, 4), (4, 5)])
        result = single_source_replacement_paths(g, 0, params=AlgorithmParams(seed=1))
        assert set(result.targets(0)) == {1, 2}

    def test_medium_connected_graph(self):
        g = generators.random_connected_graph(70, extra_edges=140, seed=9)
        result = single_source_replacement_paths(g, 5, params=AlgorithmParams(seed=9))
        assert result.matches({5: brute_force_single_source(g, 5)})


class TestMSRPDirect:
    @pytest.mark.parametrize("trial", range(20))
    def test_matches_brute_force_on_random_graphs(self, trial):
        graph, sources = random_instance(trial + 100)
        result = multiple_source_replacement_paths(
            graph, sources, params=AlgorithmParams(seed=trial)
        )
        assert result.matches(brute_force_multi_source(graph, sources))

    @pytest.mark.parametrize(
        "graph_factory,sources",
        [
            (lambda: generators.grid_graph(4, 5), [0, 7, 13]),
            (lambda: generators.barbell_graph(4, 3), [0, 6]),
            (lambda: generators.path_with_clusters(16, 4, 3, seed=3), [0, 8]),
            (lambda: generators.complete_graph(8), [0, 1, 2]),
        ],
    )
    def test_structured_graphs(self, graph_factory, sources):
        graph = graph_factory()
        result = multiple_source_replacement_paths(
            graph, sources, params=AlgorithmParams(seed=5)
        )
        assert result.matches(brute_force_multi_source(graph, sources))

    def test_medium_graph_with_several_sources(self):
        g = generators.random_connected_graph(60, extra_edges=150, seed=17)
        sources = [3, 14, 41, 58]
        result = multiple_source_replacement_paths(g, sources, params=AlgorithmParams(seed=17))
        assert result.matches(brute_force_multi_source(g, sources))

    def test_all_vertices_as_sources_small(self):
        g = generators.cycle_graph(7)
        sources = list(range(7))
        result = multiple_source_replacement_paths(g, sources, params=AlgorithmParams(seed=2))
        assert result.matches(brute_force_multi_source(g, sources))

    def test_verify_flag_passes_on_valid_run(self):
        g = generators.grid_graph(3, 4)
        params = AlgorithmParams(seed=3, verify=True)
        multiple_source_replacement_paths(g, [0, 5], params=params)

    def test_verify_counts_over_and_underestimates(self, monkeypatch):
        import repro.rp.bruteforce as bruteforce

        g = generators.grid_graph(3, 4)
        sources = [0, 5]
        truth = brute_force_multi_source(g, sources)
        finite = [
            (s, t, e)
            for s, per_source in truth.items()
            for t, per_target in per_source.items()
            for e, value in per_target.items()
            if value is not math.inf
        ]
        (s1, t1, e1), (s2, t2, e2) = finite[0], finite[-1]
        # A lowered reference entry makes the solve look too long, a
        # raised one makes it look too short.
        truth[s1][t1][e1] -= 1
        truth[s2][t2][e2] += 1
        monkeypatch.setattr(
            bruteforce, "brute_force_multi_source", lambda *args, **kwargs: truth
        )
        with pytest.raises(InternalInvariantError) as caught:
            multiple_source_replacement_paths(
                g, sources, params=AlgorithmParams(seed=3, verify=True)
            )
        message = str(caught.value)
        assert "disagrees with brute force on 2 entries" in message
        assert "1 overestimated, 1 underestimated, 0 on one side only" in message

    def test_injected_landmark_hierarchy_all_vertices_is_exact(self):
        # With every vertex a landmark the algorithm is deterministic.
        g = generators.random_connected_graph(25, extra_edges=30, seed=8)
        hierarchy = LandmarkHierarchy([list(range(25))] * 4, sources=[0, 12])
        result = multiple_source_replacement_paths(
            g, [0, 12], params=AlgorithmParams(seed=8), landmark_hierarchy=hierarchy
        )
        assert result.matches(brute_force_multi_source(g, [0, 12]))


class TestMSRPAuxiliary:
    @pytest.mark.parametrize("trial", range(10))
    def test_matches_brute_force_on_random_graphs(self, trial):
        graph, sources = random_instance(trial + 300, max_n=18)
        result = multiple_source_replacement_paths(
            graph,
            sources,
            params=AlgorithmParams(seed=trial),
            landmark_strategy="auxiliary",
        )
        assert result.matches(brute_force_multi_source(graph, sources))

    def test_medium_connected_graph(self):
        g = generators.random_connected_graph(45, extra_edges=90, seed=23)
        sources = [1, 22, 40]
        result = multiple_source_replacement_paths(
            g, sources, params=AlgorithmParams(seed=23), landmark_strategy="auxiliary"
        )
        assert result.matches(brute_force_multi_source(g, sources))

    def test_agrees_with_direct_strategy(self):
        g = generators.path_with_clusters(14, 3, 2, seed=6)
        sources = [0, 7]
        params = AlgorithmParams(seed=6)
        direct = multiple_source_replacement_paths(g, sources, params=params)
        auxiliary = multiple_source_replacement_paths(
            g, sources, params=params, landmark_strategy="auxiliary"
        )
        assert direct.to_dict() == auxiliary.to_dict()


class TestValidation:
    def test_empty_source_set_rejected(self):
        with pytest.raises(InvalidParameterError):
            multiple_source_replacement_paths(generators.cycle_graph(4), [])

    def test_out_of_range_source_rejected(self):
        with pytest.raises(InvalidParameterError):
            multiple_source_replacement_paths(generators.cycle_graph(4), [9])

    def test_unknown_strategy_rejected(self):
        with pytest.raises(InvalidParameterError):
            MSRPSolver(generators.cycle_graph(4), [0], landmark_strategy="magic")

    def test_duplicate_sources_are_deduplicated(self):
        g = generators.cycle_graph(5)
        solver = MSRPSolver(g, [2, 2, 2])
        assert solver.sources == [2]

    def test_fractional_source_rejected(self):
        # 3.7 is not source 3: truncating it would solve for a vertex the
        # caller never named.
        with pytest.raises(TypeError):
            MSRPSolver(generators.cycle_graph(9), [3.7])
        assert MSRPSolver(generators.cycle_graph(9), [3]).sources == [3]

    def test_phase_timings_recorded(self):
        g = generators.cycle_graph(10)
        solver = MSRPSolver(g, [0], params=AlgorithmParams(seed=1))
        solver.solve()
        assert {"bfs_trees", "landmark_replacement_paths", "assembly"} <= set(
            solver.phase_seconds
        )


@st.composite
def msrp_instance(draw):
    n = draw(st.integers(min_value=2, max_value=11))
    possible = [(u, v) for u in range(n) for v in range(u + 1, n)]
    edges = draw(st.lists(st.sampled_from(possible), max_size=2 * n, unique=True)) if possible else []
    sigma = draw(st.integers(min_value=1, max_value=min(3, n)))
    sources = draw(
        st.lists(
            st.integers(min_value=0, max_value=n - 1),
            min_size=sigma,
            max_size=sigma,
            unique=True,
        )
    )
    seed = draw(st.integers(min_value=0, max_value=2**16))
    return Graph(n, edges), sources, seed


class TestPropertyBased:
    @settings(max_examples=40, deadline=None)
    @given(msrp_instance())
    def test_msrp_matches_brute_force(self, instance):
        graph, sources, seed = instance
        result = multiple_source_replacement_paths(
            graph, sources, params=AlgorithmParams(seed=seed)
        )
        assert result.matches(brute_force_multi_source(graph, sources))

    @settings(max_examples=30, deadline=None)
    @given(msrp_instance())
    def test_replacement_at_least_shortest_distance(self, instance):
        graph, sources, seed = instance
        result = multiple_source_replacement_paths(
            graph, sources, params=AlgorithmParams(seed=seed)
        )
        for s, t, _, value in result.iter_entries():
            assert value >= result.distance(s, t)
