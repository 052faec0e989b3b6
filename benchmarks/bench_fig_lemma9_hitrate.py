"""E5 / Figure D — empirical success rate of the far-edge landmark argument.

Lemma 9 promises that, with high probability, every far-edge replacement
path has a level-``k`` landmark on its suffix close to the target, which
makes Algorithm 3 exact.  This benchmark measures the fraction of far edges
for which Algorithm 3's candidate equals the brute-force answer, on
long-diameter workloads (2 x k grids) where far edges exist, for both the
paper's constants and deliberately weakened ones.  Expected shape: hit rate
1.0 at the paper's sampling/threshold product, degrading once the product is
pushed well below it.
"""

from __future__ import annotations

import random

import pytest

from benchmarks.conftest import print_table
from repro.core.classification import classify_path_edges
from repro.core.far_edges import FarEdgeSolver
from repro.core.landmark_rp import compute_direct_tables
from repro.core.landmarks import LandmarkHierarchy
from repro.core.params import AlgorithmParams, ProblemScale
from repro.graph import generators
from repro.graph.bfs import bfs_tree
from repro.rp.bruteforce import brute_force_single_source

#: (label, sampling constant, threshold constant)
SETTINGS = [
    ("paper constants", 4.0, 0.25),
    ("half sampling", 2.0, 0.25),
    ("eighth sampling", 0.5, 0.25),
]


def _hit_rate(sampling: float, threshold: float, seed: int) -> float:
    graph = generators.grid_graph(2, 130)
    source = 0
    params = AlgorithmParams(
        seed=seed, sampling_constant=sampling, threshold_constant=threshold
    )
    scale = ProblemScale(graph.num_vertices, 1, params)
    landmarks = LandmarkHierarchy.sample(scale, [source], random.Random(seed))
    tree = bfs_tree(graph, source)
    landmark_trees = {r: bfs_tree(graph, r) for r in landmarks.union}
    source_trees = {source: tree}
    tables = compute_direct_tables(graph, source_trees, landmarks.union)
    solver = FarEdgeSolver(scale, landmarks, landmark_trees, tables, source_trees)
    reference = brute_force_single_source(graph, source, source_tree=tree)

    hits = total = 0
    for target in tree.reachable_vertices():
        if target == source:
            continue
        for item in classify_path_edges(tree.path_to(target), scale):
            if not item.is_far:
                continue
            total += 1
            candidate = solver.candidate_edge(source, target, item.edge, item.far_level)
            if candidate == reference[target][item.edge]:
                hits += 1
    return hits / total if total else 1.0


@pytest.mark.parametrize("label,sampling,threshold", SETTINGS)
def test_lemma9_hit_rate(benchmark, label, sampling, threshold):
    rate = benchmark.pedantic(
        lambda: _hit_rate(sampling, threshold, seed=11),
        rounds=1,
        iterations=1,
        warmup_rounds=0,
    )
    print(f"\nFigure D point [{label}]: far-edge hit rate = {rate:.4f}")
    if label == "paper constants":
        assert rate == 1.0


def test_lemma9_hit_rate_report(benchmark):
    rows = []
    for label, sampling, threshold in SETTINGS:
        rates = [_hit_rate(sampling, threshold, seed) for seed in range(3)]
        rows.append([label, sampling, f"{sum(rates) / len(rates):.4f}"])
    benchmark.pedantic(lambda: None, rounds=1, iterations=1, warmup_rounds=0)
    print_table(
        "Figure D: Algorithm 3 hit rate vs sampling constant (2x130 grid)",
        ["setting", "sampling constant", "mean hit rate"],
        rows,
    )
    assert float(rows[0][2]) >= float(rows[-1][2])
