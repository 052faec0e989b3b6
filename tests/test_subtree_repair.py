"""Subtree-repair kernel vs one forbidden-edge BFS per tree edge.

:func:`repro.graph.repair.subtree_repair_distances` claims, for every tree
edge ``(p, ch)`` within the depth budget, the exact root distance of every
target in ``subtree(ch)`` once the edge is deleted.  Its reference twin is
the plain per-edge :func:`repro.graph.csr.bfs_distances_csr` with
``forbidden_edge``; every check compares the whole table, keys and values.
"""

from __future__ import annotations

import math

import pytest

from repro.graph import generators
from repro.graph.csr import bfs_distances_csr, bfs_tree_csr, connected_components
from repro.graph.graph import normalize_edge
from repro.graph.repair import subtree_repair_distances
from tests.test_property_battery import GENERATORS


def _per_edge_bfs(graph, tree, targets, max_depth):
    """The kernel's table, one full forbidden-edge BFS per tree edge."""
    targets = set(targets)
    expected = {}
    for child in tree.order[1:]:
        if tree.dist[child] > max_depth:
            continue
        edge = normalize_edge(tree.parent[child], child)
        dist = bfs_distances_csr(graph, tree.root, forbidden_edge=edge)
        for t in tree.order:
            if t in targets and tree.is_ancestor(child, t):
                expected[(t, edge)] = dist[t]
    return expected


def _check(graph, root, targets=None, max_depth=None):
    tree = bfs_tree_csr(graph, root)
    n = graph.num_vertices
    targets = list(range(n)) if targets is None else targets
    max_depth = n if max_depth is None else max_depth
    repaired = subtree_repair_distances(graph, tree, targets, max_depth)
    assert repaired == _per_edge_bfs(graph, tree, targets, max_depth), (
        f"root={root} max_depth={max_depth}"
    )
    return repaired


@pytest.mark.parametrize("name", sorted(GENERATORS))
def test_matches_per_edge_bfs_on_battery_generators(name):
    for seed in (1, 2, 3):
        graph = GENERATORS[name](seed)
        for root in range(graph.num_vertices):
            _check(graph, root)


@pytest.mark.parametrize(
    "graph",
    [
        generators.grid_graph(14, 14),
        generators.path_with_clusters(60, 4, 6, seed=3),
    ],
    ids=["grid14x14", "path_with_clusters"],
)
def test_matches_per_edge_bfs_on_deep_trees(graph):
    for root in (0, graph.num_vertices // 2, graph.num_vertices - 1):
        _check(graph, root)


def test_bridge_cut_is_infinite():
    graph = generators.barbell_graph(4, 3)
    repaired = _check(graph, 0)
    # Every path from clique 0..3 to clique 4..7 crosses the bridge
    # 3-8-9-4: cutting any bridge edge disconnects the far side.
    for (t, edge), length in repaired.items():
        if edge in {(3, 8), (8, 9), (4, 9)} and t in range(4, 8):
            assert length is math.inf
    assert any(length is math.inf for length in repaired.values())


def test_disconnected_graph_keeps_to_the_root_component():
    graph = next(
        g
        for seed in range(100)
        for g in [generators.gnp_random_graph(16, 0.15, seed=seed)]
        if len(connected_components(g)) > 1
    )
    for root in range(graph.num_vertices):
        tree = bfs_tree_csr(graph, root)
        repaired = _check(graph, root)
        assert all(tree.is_reachable(t) for t, _ in repaired)


def test_budget_truncates_to_near_root_edges():
    graph = generators.path_with_clusters(30, 3, 3, seed=5)
    tree = bfs_tree_csr(graph, 0)
    for max_depth in (0, 1, 2, 5):
        repaired = _check(graph, 0, max_depth=max_depth)
        assert all(
            tree.dist[tree.edge_child(edge)] <= max_depth for _, edge in repaired
        )
        assert bool(repaired) == (max_depth > 0)


def test_root_among_targets_gets_no_keys():
    graph = generators.random_connected_graph(30, extra_edges=40, seed=7)
    targets = [0, 5, 11, 17, 29]
    repaired = _check(graph, 0, targets=targets)
    assert {t for t, _ in repaired} == set(targets) - {0}
