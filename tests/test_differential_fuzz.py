"""Differential fuzz battery for the flat-substrate migration.

Two families of seeded random-instance checks pin the fast paths to their
oracles:

* **Pipeline vs brute force** — the full MSRP auxiliary-strategy pipeline
  (interned typed-array Dijkstra, folded dense-table builders, the
  subtree-repair kernel) against the per-edge BFS brute-force oracle, entry
  for entry.
* **Table builders vs references** — the Section 8.3.2 builder
  (``compute_interval_avoiding_tables``) against its dict-builder
  reference, which materialises the full auxiliary graph with per-query
  tree predicates; equality is exact dict equality: same keys, same
  values.  The exact Section 8.1 and 8.2 tables
  (``compute_source_to_center_tables``,
  ``compute_center_to_landmark_tables``) equal per-edge BFS truth, and the
  paper's constructions (their ``_reference`` twins) have the same keys
  and never lower values.

The unmarked tests run a handful of seeds so every push exercises the
differentials; the ``slow``-marked sweeps widen the same invariants to ~50
seeds per generator for the nightly job.
"""

from __future__ import annotations

import random

import pytest

from repro.core.landmarks import LandmarkHierarchy
from repro.core.msrp import multiple_source_replacement_paths
from repro.core.near_small import (
    compute_near_small_tables,
    compute_near_small_tables_reference,
)
from repro.core.params import AlgorithmParams, ProblemScale
from repro.graph import generators
from repro.graph.csr import bfs_distances_csr, bfs_many
from repro.multisource.bottleneck import (
    MTCEvaluator,
    compute_interval_avoiding_tables,
    compute_interval_avoiding_tables_reference,
    find_bottleneck_edges,
)
from repro.multisource.centers import CenterHierarchy
from repro.multisource.intervals import decompose_path
from repro.multisource.tables import (
    compute_center_to_landmark_tables,
    compute_center_to_landmark_tables_reference,
    compute_small_paths_through_centers,
    compute_source_to_center_tables,
    compute_source_to_center_tables_reference,
)
from repro.parallel import LocalProcessExecutor, SerialExecutor, child_rng
from repro.rp.bruteforce import brute_force_multi_source

#: name -> seeded factory.  Sizes stay small enough for the brute-force
#: oracle; every generator takes the seed so the sweeps genuinely vary.
GENERATORS = {
    "gnp": lambda seed: generators.gnp_random_graph(12, 0.3, seed=seed),
    "gnm": lambda seed: generators.gnm_random_graph(11, 16, seed=seed),
    "regular": lambda seed: generators.random_regular_graph(10, 3, seed=seed),
    "connected": lambda seed: generators.random_connected_graph(
        12, extra_edges=9, seed=seed
    ),
    "clusters": lambda seed: generators.path_with_clusters(5, 3, 2, seed=seed),
}

FAST_SEEDS = range(3)
SLOW_SEEDS = range(100, 150)  # ~50 seeds per generator for the nightly job


def _check_pipeline_matches_bruteforce(
    name: str, seed: int, workers: int = 0, oracle_workers: int = 0
) -> None:
    graph = GENERATORS[name](seed)
    rng = random.Random(seed)
    count = min(3, max(1, graph.num_vertices))
    sources = sorted(rng.sample(range(graph.num_vertices), count))
    result = multiple_source_replacement_paths(
        graph,
        sources,
        params=AlgorithmParams(seed=seed, workers=workers),
        landmark_strategy="auxiliary",
    )
    oracle_pool = (
        LocalProcessExecutor(oracle_workers) if oracle_workers else SerialExecutor()
    )
    with oracle_pool:
        reference = brute_force_multi_source(graph, sources, pool=oracle_pool)
    mismatches = result.differences_from(reference)
    assert not mismatches, (
        f"{name}/seed={seed}/workers={workers}"
        f"/oracle_workers={oracle_workers}: {len(mismatches)} mismatches, "
        f"first: {mismatches[:3]}"
    )


def _table_instance(seed: int, n: int = 24):
    """A medium instance with every ingredient the table builders need."""
    if seed % 2 == 0:
        graph = generators.random_connected_graph(n, extra_edges=2 * n, seed=seed)
    else:
        graph = generators.gnp_random_graph(n, 0.25, seed=seed)
    rng = random.Random(seed)
    sources = sorted(rng.sample(range(n), 2))
    scale = ProblemScale(n, len(sources), AlgorithmParams(seed=seed))
    landmarks = LandmarkHierarchy.sample(scale, sources, rng)
    centers = CenterHierarchy.sample(scale, sources, rng)
    roots = sorted(set(list(landmarks.union) + list(centers.all) + sources))
    trees = bfs_many(graph, roots)
    landmark_trees = {r: trees[r] for r in landmarks.union}
    center_trees = {c: trees[c] for c in centers.all}
    near_small = {
        s: compute_near_small_tables_reference(graph, s, trees[s], scale, with_paths=True)
        for s in sources
    }
    small_through = compute_small_paths_through_centers(
        sources, landmarks.union, near_small, centers
    )
    return (
        graph,
        sources,
        scale,
        landmarks,
        centers,
        trees,
        landmark_trees,
        center_trees,
        near_small,
        small_through,
    )


def _check_source_to_center_tables(
    where, graph, source, source_tree, centers, center_trees, scale, near_small
):
    """Section 8.1: the exact tables against BFS truth and the construction.

    Same keys as the paper's construction, every value equal to a
    forbidden-edge BFS and none above the construction's.  Returns the
    exact tables.
    """
    exact = compute_source_to_center_tables(
        graph=graph,
        source=source,
        source_tree=source_tree,
        centers=centers,
        scale=scale,
    )
    reference = compute_source_to_center_tables_reference(
        graph=graph,
        source=source,
        source_tree=source_tree,
        centers=centers,
        center_trees=center_trees,
        scale=scale,
        near_small=near_small,
    )
    assert set(exact) == set(reference), where
    truth_by_edge = {}
    for key, value in exact.items():
        center, edge = key
        if edge not in truth_by_edge:
            truth_by_edge[edge] = bfs_distances_csr(
                graph, source, forbidden_edge=edge
            )
        assert value == truth_by_edge[edge][center], f"{where}: {key}"
        assert value <= reference[key], f"{where}: {key}"
    return exact


def _check_tables_match_references(seed: int) -> None:
    (
        graph,
        sources,
        scale,
        landmarks,
        centers,
        trees,
        landmark_trees,
        center_trees,
        near_small,
        small_through,
    ) = _table_instance(seed)

    # Section 8.2: the exact kernel tables cover the paper construction's
    # keys, equal per-edge BFS truth, and never exceed the construction.
    center_to_landmark = {}
    for center in sorted(centers.all):
        common = dict(
            center=center,
            center_tree=center_trees[center],
            priority=centers.priority_of(center),
            landmarks=landmarks.union,
            scale=scale,
        )
        exact = compute_center_to_landmark_tables(graph=graph, **common)
        reference = compute_center_to_landmark_tables_reference(
            landmark_trees=landmark_trees,
            small_through=small_through.get(center),
            **common,
        )
        where = f"seed={seed}: center {center}"
        assert set(exact) == set(reference), where
        for key, value in exact.items():
            landmark, edge = key
            truth = bfs_distances_csr(graph, center, forbidden_edge=edge)[landmark]
            assert value == truth, f"{where}: {key}"
            assert value <= reference[key], f"{where}: {key}"
        center_to_landmark[center] = exact

    for source in sources:
        source_tree = trees[source]
        source_to_center = _check_source_to_center_tables(
            f"seed={seed}: source {source}",
            graph,
            source,
            source_tree,
            centers,
            center_trees,
            scale,
            near_small[source].values,
        )

        # Section 8.3.2: dense folded builder == dict-builder reference,
        # on the real bottleneck/interval scaffolding of this source.
        evaluator = MTCEvaluator(
            source=source,
            source_tree=source_tree,
            source_to_center=source_to_center,
            center_to_landmark=center_to_landmark,
            center_trees=center_trees,
        )
        landmark_paths = {}
        landmark_intervals = {}
        bottlenecks = {}
        for landmark in sorted(landmarks.union):
            if landmark == source or not source_tree.is_reachable(landmark):
                continue
            path = source_tree.path_to(landmark)
            intervals = decompose_path(path, centers.priority_of)
            landmark_paths[landmark] = path
            landmark_intervals[landmark] = intervals
            bottlenecks[landmark] = find_bottleneck_edges(
                path, intervals, landmark, evaluator
            )
        kwargs = dict(
            source=source,
            source_tree=source_tree,
            landmark_paths=landmark_paths,
            landmark_intervals=landmark_intervals,
            bottlenecks=bottlenecks,
            landmark_trees=landmark_trees,
            evaluator=evaluator,
            near_small=near_small[source].values,
        )
        dense = compute_interval_avoiding_tables(**kwargs)
        reference = compute_interval_avoiding_tables_reference(**kwargs)
        assert dense == reference, (
            f"seed={seed}: interval-avoiding tables differ for source {source}"
        )


@pytest.mark.parametrize("name", sorted(GENERATORS))
def test_auxiliary_pipeline_matches_bruteforce(name):
    for seed in FAST_SEEDS:
        _check_pipeline_matches_bruteforce(name, seed)


def test_dense_tables_match_references():
    for seed in FAST_SEEDS:
        _check_tables_match_references(seed)


@pytest.mark.parametrize("seed", [1, 2, 4])
def test_auxiliary_pipeline_subsampled_regime(seed):
    """The pipeline where landmark sampling is genuinely random.

    At n=160, sigma=3 the level-0 sampling probability is 0.55 < 1, so
    only about 120 vertices are landmarks and the Section 8 tables must
    route around the rest (the small instances above sample every
    vertex).  The instance is the ``sparse-aux`` benchmark's.  Seed 1
    underestimated one entry while the final interval of a
    source-landmark path still got a Section 8.3 interval-avoiding value.
    """
    n = 160
    graph = generators.random_connected_graph(n, extra_edges=2 * n, seed=seed)
    sources = sorted(random.Random(seed).sample(range(n), 3))
    params = AlgorithmParams(seed=seed)
    assert ProblemScale(n, len(sources), params).sampling_probability(0) < 1
    result = multiple_source_replacement_paths(
        graph, sources, params=params, landmark_strategy="auxiliary"
    )
    mismatches = result.differences_from(brute_force_multi_source(graph, sources))
    assert not mismatches, (
        f"seed={seed}: {len(mismatches)} mismatches, first: {mismatches[:3]}"
    )


@pytest.fixture(scope="module")
def n480_instance():
    n = 480
    graph = generators.random_connected_graph(n, extra_edges=2 * n, seed=n)
    sources = sorted(random.Random(n).sample(range(n), 3))
    result = multiple_source_replacement_paths(
        graph, sources, params=AlgorithmParams(seed=n), landmark_strategy="auxiliary"
    )
    return graph, sources, result


@pytest.mark.parametrize(
    "source, target, edge, length",
    [(290, 12, (12, 209), 5), (201, 390, (330, 390), 4)],
)
def test_auxiliary_pipeline_n480_final_interval_entries(
    n480_instance, source, target, edge, length
):
    """Two entries of the n=480 ``sparse_workload`` instance.

    They read 4.0 and 3.0 while the final interval of a source-landmark
    path still got a Section 8.3 interval-avoiding value.
    """
    graph, sources, result = n480_instance
    assert sources == [201, 290, 434]
    assert bfs_distances_csr(graph, source, forbidden_edge=edge)[target] == length
    assert result.replacement_length(source, target, edge) == length


def test_source_to_center_tables_subsampled_regime():
    """The Section 8.1 pins where center sampling is genuinely random.

    The n=160 ``sparse-aux`` instance of seed 2 with the pipeline's own
    center draw: the level-0 sampling probability is 0.55, so the centers
    are a random subset of the vertices (the small instances above make
    every vertex a center).
    """
    n, seed = 160, 2
    graph = generators.random_connected_graph(n, extra_edges=2 * n, seed=seed)
    sources = sorted(random.Random(seed).sample(range(n), 3))
    scale = ProblemScale(n, len(sources), AlgorithmParams(seed=seed))
    assert scale.sampling_probability(0) < 1
    centers = CenterHierarchy.sample(
        scale, sources, child_rng(seed, "multisource", "centers")
    )
    assert len(centers.all) < n
    trees = bfs_many(graph, sorted(centers.all))
    for source in sources:
        _check_source_to_center_tables(
            f"n={n} seed={seed}: source {source}",
            graph,
            source,
            trees[source],
            centers,
            trees,
            scale,
            compute_near_small_tables(graph, source, trees[source], scale),
        )


@pytest.mark.parametrize("tier", ["numpy", "pure"])
def test_auxiliary_pipeline_matches_bruteforce_both_tiers(tier, monkeypatch):
    """The fast pipeline differential, pinned explicitly on each tier.

    The unmarked differentials above run under whatever tier the
    environment selects; this pin forces ``REPRO_NUMPY`` both ways so a
    vectorized-kernel regression cannot hide behind a CI image that
    happens to lack numpy (or behind an operator's env override).
    """
    from repro.npsupport import NUMPY_ENV_VAR, numpy_available

    if tier == "numpy" and not numpy_available():
        pytest.skip("numpy tier not installed")
    monkeypatch.setenv(NUMPY_ENV_VAR, "1" if tier == "numpy" else "0")
    for seed in FAST_SEEDS:
        _check_pipeline_matches_bruteforce("gnp", seed)
        _check_pipeline_matches_bruteforce("clusters", seed)


@pytest.mark.parametrize("tier", ["numpy", "pure"])
def test_dense_tables_match_references_both_tiers(tier, monkeypatch):
    """Section 8 table builders vs BFS truth and references, on each tier."""
    from repro.npsupport import NUMPY_ENV_VAR, numpy_available

    if tier == "numpy" and not numpy_available():
        pytest.skip("numpy tier not installed")
    monkeypatch.setenv(NUMPY_ENV_VAR, "1" if tier == "numpy" else "0")
    for seed in FAST_SEEDS:
        _check_tables_match_references(seed)


@pytest.mark.slow
@pytest.mark.parametrize("name", sorted(GENERATORS))
def test_auxiliary_pipeline_matches_bruteforce_sweep(name):
    """~50 seeded graphs per generator through the full pipeline.

    The seed also toggles the process-sharded path (``workers`` cycles
    through 0/2/3) *and* the sharded brute-force oracle (``oracle_workers``
    alternates 0/2 on a coprime stride), so the nightly job fuzzes the
    parallel merge, the per-solve pool lifecycle and the sharded oracle
    against each other on the same instances it already sweeps — a
    sharded pipeline is regularly checked against a serial oracle and
    vice versa, so the two parallel paths can never only be compared to
    themselves.
    """
    for seed in SLOW_SEEDS:
        workers = (0, 2, 3)[seed % 3]
        oracle_workers = (0, 2)[seed % 2]
        _check_pipeline_matches_bruteforce(
            name, seed, workers=workers, oracle_workers=oracle_workers
        )


@pytest.mark.slow
def test_dense_tables_match_references_sweep():
    """Wider sweep of the dense-vs-reference table differentials."""
    for seed in range(200, 216):
        _check_tables_match_references(seed)


@pytest.mark.slow
@pytest.mark.parametrize("name", ["far-clusters", "sparse-aux"])
def test_benchmark_seed_pools_stay_exact(name):
    """Every instance seed in a benchmark workload's pool solves exactly.

    ``perfbench`` draws its instances only from ``WORKLOADS[name].pool``
    and reads ``failed == 0`` as "no regression"; that baseline holds only
    while every pool seed still matches brute force entry for entry.
    """
    from perfbench.workloads import WORKLOADS, exact_seeds

    pool = WORKLOADS[name].pool
    exact = set(exact_seeds(WORKLOADS[name], pool))
    assert [seed for seed in pool if seed not in exact] == []
