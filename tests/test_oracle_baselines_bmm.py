"""Tests for the baselines and the BMM reduction."""

from __future__ import annotations

import random

import pytest

from repro.baselines import (
    msrp_independent_ssrp,
    msrp_per_target_classical,
    ssrp_per_target_classical,
)
from repro.core.params import AlgorithmParams
from repro.exceptions import InvalidParameterError
from repro.graph import generators
from repro.lowerbound.bmm import (
    build_reduction_instance,
    count_reduction_graphs,
    multiply_naive,
    multiply_via_msrp,
)
from repro.rp.bruteforce import brute_force_multi_source, brute_force_single_source


class TestBaselines:
    def test_ssrp_baselines_agree(self):
        g = generators.random_connected_graph(22, extra_edges=30, seed=4)
        assert brute_force_single_source(g, 0) == ssrp_per_target_classical(g, 0)

    def test_msrp_baselines_agree(self):
        g = generators.random_connected_graph(18, extra_edges=20, seed=6)
        sources = [0, 9]
        brute = brute_force_multi_source(g, sources)
        assert msrp_per_target_classical(g, sources) == brute
        assert msrp_independent_ssrp(g, sources, params=AlgorithmParams(seed=6)) == brute

    def test_ssrp_baseline_on_disconnected_graph(self):
        from repro.graph.graph import Graph

        g = Graph(5, [(0, 1), (1, 2), (3, 4)])
        assert set(ssrp_per_target_classical(g, 0)) == {1, 2}
        assert ssrp_per_target_classical(g, 0) == brute_force_single_source(g, 0)


def _random_matrix(size: int, density: float, rng: random.Random):
    return [[1 if rng.random() < density else 0 for _ in range(size)] for _ in range(size)]


class TestBMMReduction:
    def test_naive_multiplication(self):
        a = [[1, 0], [0, 1]]
        b = [[0, 1], [1, 0]]
        assert multiply_naive(a, b) == [[0, 1], [1, 0]]

    def test_rejects_non_square_or_non_boolean(self):
        with pytest.raises(InvalidParameterError):
            multiply_naive([[1, 0]], [[1], [0]])
        with pytest.raises(InvalidParameterError):
            multiply_naive([[2]], [[1]])

    @pytest.mark.parametrize("seed", range(5))
    def test_reduction_matches_naive(self, seed):
        rng = random.Random(seed)
        size = rng.randint(3, 10)
        a = _random_matrix(size, rng.uniform(0.1, 0.5), rng)
        b = _random_matrix(size, rng.uniform(0.1, 0.5), rng)
        assert multiply_via_msrp(a, b, params=AlgorithmParams(seed=seed)) == multiply_naive(a, b)

    def test_reduction_with_explicit_sigma(self):
        rng = random.Random(42)
        size = 9
        a = _random_matrix(size, 0.3, rng)
        b = _random_matrix(size, 0.3, rng)
        expected = multiply_naive(a, b)
        for sigma in (1, 2, 3):
            assert multiply_via_msrp(a, b, num_sources=sigma, params=AlgorithmParams(seed=1)) == expected

    def test_zero_and_identity_matrices(self):
        size = 6
        zero = [[0] * size for _ in range(size)]
        identity = [[1 if i == j else 0 for j in range(size)] for i in range(size)]
        assert multiply_via_msrp(zero, identity, params=AlgorithmParams(seed=3)) == zero
        assert multiply_via_msrp(identity, identity, params=AlgorithmParams(seed=3)) == identity

    def test_gadget_graph_size_is_linear(self):
        rng = random.Random(1)
        size = 12
        a = _random_matrix(size, 0.2, rng)
        b = _random_matrix(size, 0.2, rng)
        instance = build_reduction_instance(a, b, 0, num_sources=2, chain_length=3)
        ones = sum(sum(r) for r in a) + sum(sum(r) for r in b)
        # O(n) vertices beyond the three layers, O(m + n) edges.
        assert instance.graph.num_vertices <= 3 * size + 6 * 2 * 3 + 2 * 3
        assert instance.graph.num_edges <= ones + instance.graph.num_vertices

    def test_count_reduction_graphs(self):
        assert count_reduction_graphs(16, 4) == 2
        assert count_reduction_graphs(1, 1) == 1
