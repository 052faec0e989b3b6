"""E9 / Figure CSR — flat-kernel BFS vs the dict/tuple reference BFS.

Measures the three traversal patterns the MSRP pipeline is built from, on
the same sparse workloads as the scaling experiments:

* single-shot shortest-path trees (``bfs_tree`` vs ``bfs_tree_csr``),
* the brute-force oracle's forbidden-edge distance sweeps (one BFS per
  failed edge, where the CSR kernel hoists the edge test off the per-arc
  path), and
* batched multi-root preprocessing (``bfs_many`` vs one ``bfs_tree`` call
  per root).

The printed table is the "figure": measured times and speedup factors per
graph size.  Each pattern also cross-checks the two substrates' outputs, so
the benchmark doubles as an end-to-end equivalence test on graphs larger
than the unit-test battery uses.
"""

from __future__ import annotations

import pytest

from benchmarks.conftest import best_of, print_table, sparse_workload
from repro.graph.bfs import bfs_distances, bfs_tree
from repro.graph.csr import bfs_distances_csr, bfs_many, bfs_tree_csr

SIZES = [200, 400, 800]


def test_csr_vs_dict_bfs(benchmark):
    rows = []
    sweep_speedups = []
    for num_vertices in SIZES:
        graph = sparse_workload(num_vertices, seed=num_vertices)
        roots = list(range(0, num_vertices, max(1, num_vertices // 16)))
        failed_edges = graph.edges()[: num_vertices // 4]
        graph.csr()  # compile outside the timed region, like the solver does

        t_tree_dict = best_of(lambda: [bfs_tree(graph, r) for r in roots])
        t_tree_csr = best_of(lambda: list(bfs_many(graph, roots).values()))

        t_sweep_dict = best_of(
            lambda: [
                bfs_distances(graph, 0, forbidden_edge=e) for e in failed_edges
            ]
        )
        t_sweep_csr = best_of(
            lambda: [
                bfs_distances_csr(graph, 0, forbidden_edge=e) for e in failed_edges
            ]
        )
        sweep_speedups.append(t_sweep_dict / t_sweep_csr)

        # The two substrates must be indistinguishable on the same inputs.
        for r in roots[:3]:
            dict_tree, csr_tree = bfs_tree(graph, r), bfs_tree_csr(graph, r)
            assert dict_tree.parent == csr_tree.parent
            assert dict_tree.dist == csr_tree.dist
            assert dict_tree.order == csr_tree.order
        for e in failed_edges[:3]:
            assert bfs_distances(graph, 0, forbidden_edge=e) == bfs_distances_csr(
                graph, 0, forbidden_edge=e
            )

        rows.append(
            [
                num_vertices,
                f"{t_tree_dict * 1000:.1f} ms",
                f"{t_tree_csr * 1000:.1f} ms",
                f"{t_tree_dict / t_tree_csr:.2f}x",
                f"{t_sweep_dict * 1000:.1f} ms",
                f"{t_sweep_csr * 1000:.1f} ms",
                f"{t_sweep_dict / t_sweep_csr:.2f}x",
            ]
        )

    benchmark.pedantic(lambda: None, rounds=1, iterations=1, warmup_rounds=0)
    print_table(
        "Figure CSR: flat kernel vs dict BFS (sparse graphs, m ~ 3n)",
        [
            "n",
            "trees dict",
            "trees csr",
            "speedup",
            "sweep dict",
            "sweep csr",
            "speedup",
        ],
        rows,
    )
    # Shape assertion: the forbidden-edge sweep — the brute-force oracle's
    # inner loop — must be clearly faster on the flat kernel.
    assert max(sweep_speedups) >= 1.5


@pytest.mark.parametrize("num_vertices", SIZES)
def test_bfs_many_batched(benchmark, num_vertices):
    graph = sparse_workload(num_vertices, seed=num_vertices)
    roots = list(range(0, num_vertices, max(1, num_vertices // 32)))
    benchmark.pedantic(
        lambda: bfs_many(graph, roots),
        rounds=1,
        iterations=1,
        warmup_rounds=0,
    )
