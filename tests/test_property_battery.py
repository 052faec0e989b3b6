"""Randomized invariant battery over every generator and both strategies.

Each case builds a seeded random (or structured) graph from one of the
generators in :mod:`repro.graph.generators` and checks the library's core
contracts against each other:

* **MSRP == brute force** — the efficient pipeline (both landmark
  strategies) agrees entry-for-entry with the per-edge BFS oracle.
* **SSRP == MSRP restricted to one source** — running the multi-source
  pipeline and projecting onto one source gives the same values as the
  single-source entry point.
* **Metric sanity** — every replacement length is at least the original
  distance, and is infinite exactly when the failed edge is a bridge whose
  removal separates the pair.
* **CSR BFS == dict BFS** — the flat kernel and the reference
  implementation produce identical distances, parents and orders on the
  same battery, and identical distances with forbidden edges.
* **Lazy tree == parent-walk reference** — the lazily materialised
  structural queries of :class:`ShortestPathTree` (the preorder spans,
  ``edge_child``, ``distance_avoiding``) agree with naive parent-pointer
  walks, and trees produced by ``bfs_many`` build no structural cache
  until the first structural query.
* **Interned Dijkstra == reference Dijkstra** — the distance list of
  :class:`InternedAuxiliaryGraph`, read by each node's id, equals the
  dict-based reference's distances on the same randomly weighted
  auxiliary graphs, with ``math.inf`` itself for every unreached id.
* **Repair direct tables == single-pair direct tables** —
  ``compute_direct_tables`` (one subtree repair per source tree) equals
  ``compute_direct_tables_reference`` (the paper's classical single-pair
  run per source-landmark pair) key for key, value for value and type for
  type, on ``bfs_many`` and dict-BFS trees alike.
* **Landmark-table key set** — under both strategies, a source's
  ``(landmark, edge)`` table has a key for exactly every edge of every
  canonical path to a landmark it reaches.  Algorithms 3 and 4 read a
  missing key as ``d(s, r)``, so a dropped key would be a silent
  underestimate.
* **Repair Section 7.1 tables == auxiliary-graph Dijkstra** —
  ``compute_near_small_tables`` (windowed subtree repair) equals
  ``compute_near_small_tables_reference`` (the paper's ``G_s`` and one
  Dijkstra) on every key, value, ``float`` type and ``math.inf``, with
  the near window both below and above the eccentricity.
* **Walks realise their values** — ``NearSmallTables.walk`` of the
  Section 7.1 reference runs from the source to the target over
  ``w[t, e]`` edges of the graph, none of them ``e``, and returns ``[]``
  for unreachable and unknown pairs.

The default battery is sized to stay fast; the ``slow`` marked variants
rerun the same invariants over many more seeds (deselect in CI with
``-m "not slow"``).
"""

from __future__ import annotations

import math
import random

import pytest

from perfbench.workloads import WORKLOADS, build_instance
from repro.core.landmark_rp import (
    compute_direct_tables,
    compute_direct_tables_reference,
)
from repro.core.landmarks import LandmarkHierarchy
from repro.core.msrp import MSRPSolver, multiple_source_replacement_paths
from repro.core.near_small import (
    compute_near_small_tables,
    compute_near_small_tables_reference,
    near_edges_from_target,
)
from repro.core.params import AlgorithmParams, ProblemScale
from repro.core.ssrp import single_source_replacement_paths
from repro.graph import generators
from repro.graph.bfs import bfs_distances, bfs_tree
from repro.graph.csr import bfs_distances_csr, bfs_many, bfs_tree_csr
from repro.graph.graph import normalize_edge
from repro.rp.bruteforce import brute_force_multi_source, brute_force_single_source
from repro.rp.dijkstra import AuxiliaryGraphBuilder, InternedAuxiliaryGraph, dijkstra

#: name -> seeded factory covering every generator in the module.
GENERATORS = {
    "gnp": lambda seed: generators.gnp_random_graph(13, 0.3, seed=seed),
    "gnm": lambda seed: generators.gnm_random_graph(12, 18, seed=seed),
    "regular": lambda seed: generators.random_regular_graph(12, 3, seed=seed),
    "connected": lambda seed: generators.random_connected_graph(
        13, extra_edges=10, seed=seed
    ),
    "grid": lambda seed: generators.grid_graph(3, 4),
    "path": lambda seed: generators.path_graph(9),
    "cycle": lambda seed: generators.cycle_graph(8),
    "star": lambda seed: generators.star_graph(7),
    "complete": lambda seed: generators.complete_graph(6),
    "barbell": lambda seed: generators.barbell_graph(3, 3),
    "clusters": lambda seed: generators.path_with_clusters(7, 3, 2, seed=seed),
}

STRATEGIES = ("direct", "auxiliary")


def pick_sources(graph, seed, count=2):
    rng = random.Random(seed)
    count = min(count, max(1, graph.num_vertices))
    return sorted(rng.sample(range(graph.num_vertices), count))


def run_msrp(graph, sources, strategy, seed):
    params = AlgorithmParams(seed=seed)
    return multiple_source_replacement_paths(
        graph, sources, params=params, landmark_strategy=strategy
    )


@pytest.mark.parametrize("strategy", STRATEGIES)
@pytest.mark.parametrize("name", sorted(GENERATORS))
def test_msrp_matches_bruteforce(name, strategy):
    for seed in (1, 2):
        graph = GENERATORS[name](seed)
        sources = pick_sources(graph, seed)
        result = run_msrp(graph, sources, strategy, seed)
        reference = brute_force_multi_source(graph, sources)
        mismatches = result.differences_from(reference)
        assert not mismatches, (
            f"{name}/{strategy}/seed={seed}: {len(mismatches)} mismatches, "
            f"first: {mismatches[:3]}"
        )


@pytest.mark.parametrize("name", sorted(GENERATORS))
def test_ssrp_equals_msrp_restricted_to_one_source(name):
    seed = 5
    graph = GENERATORS[name](seed)
    sources = pick_sources(graph, seed)
    msrp = run_msrp(graph, sources, "direct", seed)
    for s in sources:
        ssrp = single_source_replacement_paths(
            graph, s, params=AlgorithmParams(seed=seed)
        )
        # Same canonical trees (BFS is deterministic), so the per-source
        # tables must agree key-for-key and value-for-value.
        assert ssrp.table(s) == msrp.table(s)


@pytest.mark.parametrize("name", sorted(GENERATORS))
def test_metric_sanity(name):
    seed = 7
    graph = GENERATORS[name](seed)
    sources = pick_sources(graph, seed)
    result = run_msrp(graph, sources, "direct", seed)
    for s, t, edge, value in result.iter_entries():
        original = result.distance(s, t)
        assert value >= original, (
            f"{name}: replacement |{s}{t} <> {edge}| = {value} shorter than "
            f"the original distance {original}"
        )
        truth = bfs_distances_csr(graph, s, forbidden_edge=edge)[t]
        assert (value == math.inf) == (truth == math.inf)
        if value == math.inf:
            # Only a bridge whose removal separates the pair may be
            # irreplaceable: its endpoints must fall apart without it.
            u, v = edge
            assert bfs_distances_csr(graph, u, forbidden_edge=edge)[v] == math.inf


@pytest.mark.parametrize("name", sorted(GENERATORS))
def test_csr_bfs_equals_dict_bfs(name):
    for seed in (3, 4):
        graph = GENERATORS[name](seed)
        n = graph.num_vertices
        rng = random.Random(seed)
        roots = {0, n - 1, rng.randrange(n)}
        for root in roots:
            assert bfs_distances_csr(graph, root) == bfs_distances(graph, root)
            dict_tree = bfs_tree(graph, root)
            csr_tree = bfs_tree_csr(graph, root)
            assert csr_tree.parent == dict_tree.parent
            assert csr_tree.dist == dict_tree.dist
            assert csr_tree.order == dict_tree.order
        edges = graph.edges()
        for edge in rng.sample(edges, min(4, len(edges))):
            assert bfs_distances_csr(graph, 0, forbidden_edge=edge) == bfs_distances(
                graph, 0, forbidden_edge=edge
            )


# -- repair direct tables vs the single-pair reference -----------------------


def assert_direct_tables_equal(graph, sources, landmarks):
    """Both direct builders agree on every source, from both BFS kernels.

    Compared as dicts: nothing reads the key order.  Returns the number
    of ``(source, landmark, edge)`` entries compared and the number of
    ``(source, landmark)`` pairs the source does not reach.
    """
    entries = unreachable = 0
    for trees in (
        bfs_many(graph, sources),
        {s: bfs_tree(graph, s) for s in sources},
    ):
        fast = compute_direct_tables(graph, trees, landmarks)
        reference = compute_direct_tables_reference(graph, trees, landmarks)
        assert fast.keys() == reference.keys()
        for source, theirs in reference.items():
            ours = fast[source]
            assert ours.keys() == theirs.keys(), source
            for key, value in theirs.items():
                got = ours[key]
                assert (got, type(got)) == (value, type(value)), (
                    source, key, got, value,
                )
                assert (got is math.inf) == (value is math.inf)
            entries += len(theirs)
            unreachable += sum(
                not trees[source].is_reachable(r) for r in landmarks
            )
    return entries, unreachable


def assert_direct_tables_equal_on_generators(seeds):
    unreachable = 0
    for name, factory in sorted(GENERATORS.items()):
        for seed in seeds:
            graph = factory(seed)
            every_vertex = list(range(graph.num_vertices))
            entries, cut = assert_direct_tables_equal(
                graph, every_vertex, every_vertex
            )
            assert entries > 0, f"{name}/seed={seed}"
            unreachable += cut
    # Some gnp draws are disconnected: neither builder keys those pairs.
    assert unreachable > 0


def test_direct_tables_equal_reference():
    """Repair and the paper's single-pair runs give identical tables.

    This is the test that checks the direct strategy: every solve path
    that reads a direct table now reads subtree repair's output.
    """
    assert_direct_tables_equal_on_generators((1, 2))


@pytest.mark.slow
def test_direct_tables_equal_reference_extended():
    """More seeds, plus sampled landmarks on two benchmark-sized graphs."""
    assert_direct_tables_equal_on_generators(range(3, 13))
    instance = build_instance(WORKLOADS["far-clusters"], 1)
    clusters = generators.path_with_clusters(300, 6, 18, seed=1)
    cases = [
        (instance.graph, list(instance.sources), instance.params),
        # Paper constants, the w.h.p. regime: |L| = 227 of n = 408.
        (clusters, generators.random_sources(clusters, 3, seed=1),
         AlgorithmParams(seed=1)),
    ]
    for graph, sources, params in cases:
        scale = ProblemScale(graph.num_vertices, len(sources), params)
        landmarks = LandmarkHierarchy.sample(
            scale, sources, random.Random(params.seed)
        ).union
        entries, _unreachable = assert_direct_tables_equal(
            graph, sources, landmarks
        )
        assert entries > 0


# -- the landmark-table key set ---------------------------------------------


def assert_landmark_key_sets(graph, sources, params):
    """Under both strategies every table has exactly the canonical keys.

    Returns the number of keys checked.
    """
    keys = 0
    for strategy in STRATEGIES:
        solver = MSRPSolver(
            graph, sources, params=params, landmark_strategy=strategy
        ).preprocess()
        for source, tree in solver.source_trees.items():
            expected = {
                (r, e)
                for r in solver.landmarks.union
                if r != source and tree.is_reachable(r)
                for e in tree.path_edges_to(r)
            }
            assert set(solver.landmark_tables[source]) == expected, (
                strategy, source,
            )
            keys += len(expected)
    return keys


@pytest.mark.parametrize("name", sorted(GENERATORS))
def test_landmark_table_key_set(name):
    keys = 0
    for seed in (1, 2):
        graph = GENERATORS[name](seed)
        keys += assert_landmark_key_sets(
            graph, pick_sources(graph, seed), AlgorithmParams(seed=seed)
        )
    assert keys > 0


@pytest.mark.parametrize("workload", ["sparse-aux", "far-clusters"])
def test_landmark_table_key_set_on_benchmark_instances(workload):
    # Landmark sampling below 1 on both, and far edges on far-clusters.
    instance = build_instance(WORKLOADS[workload], 1)
    keys = assert_landmark_key_sets(
        instance.graph, list(instance.sources), instance.params
    )
    assert keys > 0


# -- repair Section 7.1 tables vs the auxiliary-graph reference -------------


def assert_near_small_tables_equal(graph, sources, scale):
    """Both Section 7.1 builders agree on every source.

    Compared as dicts: nothing reads the key order.  Returns the number
    of ``(t, e)`` entries compared, how many of them are ``math.inf``, and
    the number of ``(t, e)`` pairs with ``e`` anywhere on the path.
    """
    entries = infinite = path_edges = 0
    for source, tree in bfs_many(graph, sources).items():
        ours = compute_near_small_tables(graph, source, tree, scale)
        theirs = compute_near_small_tables_reference(
            graph, source, tree, scale
        ).values
        assert ours.keys() == theirs.keys(), source
        for key, value in theirs.items():
            got = ours[key]
            assert got == value and type(got) is float, (source, key, got, value)
            assert (got is math.inf) == (value is math.inf), (source, key)
            infinite += value is math.inf
        entries += len(theirs)
        path_edges += sum(tree.dist[t] for t in tree.order)
    return entries, infinite, path_edges


@pytest.mark.parametrize("constant", [0.1, 1.0])
@pytest.mark.parametrize("name", sorted(GENERATORS))
def test_near_small_tables_equal_reference(name, constant):
    """Windowed repair gives the auxiliary-graph Dijkstra's tables.

    At 0.1 the near window is 1.3-2.7 hops, below the eccentricity of the
    deeper graphs here; at 1.0 it is 13-27 hops, above every one, so every
    path edge is near.  The gnp draw of seed 2 is disconnected.
    """
    entries = infinite = path_edges = 0
    for seed in (1, 2):
        graph = GENERATORS[name](seed)
        n = graph.num_vertices
        scale = ProblemScale(
            n, 1, AlgorithmParams(seed=seed, threshold_constant=constant)
        )
        got = assert_near_small_tables_equal(graph, list(range(n)), scale)
        entries += got[0]
        infinite += got[1]
        path_edges += got[2]
    assert entries > 0
    if constant == 1.0:
        assert entries == path_edges
    elif name in ("clusters", "cycle", "grid", "path"):
        assert entries < path_edges, "the window must drop far path edges"
    if name in ("barbell", "path", "star"):
        assert infinite > 0, "a bridge cut must leave [t, e] unreachable"


@pytest.mark.slow
def test_near_small_tables_equal_reference_extended():
    """Every vertex as the source on benchmark-sized graphs.

    The benchmark seeds 1-5 of both workloads (sparse-aux: window above
    the eccentricity; far-clusters: window 10.7 below it) and the ring of
    ``tests/test_paper_lemmas.py`` at threshold constant 0.1.
    """
    from tests.test_paper_lemmas import SETUPS

    cases = [
        (instance.graph, instance.sources, instance.params)
        for workload in ("sparse-aux", "far-clusters")
        for instance in (
            build_instance(WORKLOADS[workload], seed) for seed in range(1, 6)
        )
    ]
    cases.append(SETUPS["ring-6"]())
    for graph, sources, params in cases:
        n = graph.num_vertices
        scale = ProblemScale(n, len(sources), params)
        entries, _infinite, _path_edges = assert_near_small_tables_equal(
            graph, list(range(n)), scale
        )
        assert entries > 0


# -- lazy tree structural queries vs parent-walk references -----------------


def ref_is_ancestor(tree, ancestor, descendant):
    """Walk parent pointers from ``descendant`` to the root."""
    if not tree.is_reachable(descendant) or not tree.is_reachable(ancestor):
        return False
    v = descendant
    while v is not None:
        if v == ancestor:
            return True
        v = tree.parent[v]
    return False


def ref_path_edge_set(tree, target):
    """Normalised edges of the canonical root-``target`` path."""
    edges = set()
    v = target
    while tree.parent[v] is not None:
        edges.add(normalize_edge(tree.parent[v], v))
        v = tree.parent[v]
    return edges


def ref_edge_child(tree, edge):
    u, v = edge
    if tree.parent[v] == u:
        return v
    if tree.parent[u] == v:
        return u
    return None


@pytest.mark.parametrize("name", sorted(GENERATORS))
def test_lazy_tree_queries_match_parent_walk_reference(name):
    for seed in (1, 2):
        graph = GENERATORS[name](seed)
        n = graph.num_vertices
        tree = bfs_tree_csr(graph, seed % n)
        pos, end = tree.spans()
        preorder = tree.preorder()
        for v in range(n):
            if not tree.is_reachable(v):
                assert pos[v] == end[v] == -1, f"{name}: span of unreachable {v}"
                continue
            run = preorder[pos[v]:end[v]]
            expected = [x for x in range(n) if ref_is_ancestor(tree, v, x)]
            assert run[0] == v and sorted(run) == expected, f"{name}: span of {v}"
        for edge in graph.edges():
            assert tree.edge_child(edge) == ref_edge_child(tree, edge), (
                f"{name}: edge_child({edge})"
            )
            for target in range(n):
                if tree.is_reachable(target):
                    uses = edge in ref_path_edge_set(tree, target)
                    expected = math.inf if uses else tree.dist[target]
                else:
                    expected = math.inf
                assert tree.distance_avoiding(edge, target) == expected, (
                    f"{name}: distance_avoiding({edge}, {target})"
                )


@pytest.mark.parametrize("name", sorted(GENERATORS))
def test_bfs_many_trees_build_no_structural_cache(name):
    """Trees that never issue structural queries must stay flat-array only."""
    graph = GENERATORS[name](9)
    n = graph.num_vertices
    trees = bfs_many(graph, [0, n - 1])
    for root, tree in trees.items():
        assert not tree.has_structural_cache
        # Distance-style queries (what oracle/center trees issue) stay lazy.
        deepest = tree.order[-1]
        path = tree.path_to(deepest)
        tree.deepest_path_ancestor_indices(path)
        assert tree.distance(deepest) == len(path) - 1
        assert not tree.has_structural_cache
        # The first structural query materialises the caches, once.
        pos, end = tree.spans()
        assert pos[root] <= pos[deepest] < end[root]
        assert tree.has_structural_cache


# -- interned Dijkstra vs the dict-based reference ---------------------------


def build_auxiliary_pair(graph, seed):
    """The same randomly weighted auxiliary graph on both substrates."""
    rng = random.Random(seed)
    reference = AuxiliaryGraphBuilder()
    interned = InternedAuxiliaryGraph()

    def add(u, v, weight):
        reference.add_edge(u, v, weight)
        interned.add_arc(interned.intern(u), interned.intern(v), weight)

    for u, v in graph.edges():
        for a, b in ((u, v), (v, u)):
            add(("v", a), ("v", b), float(rng.randrange(0, 5)))
    # Tuple-tagged auxiliary nodes hanging off random vertices, as the
    # Section 7/8 graphs create them.
    for i in range(6):
        t = rng.randrange(graph.num_vertices)
        add(("v", t), ("ve", t, i), float(rng.randrange(1, 4)))
    reference.add_node(("isolated",))
    interned.intern(("isolated",))
    return reference, interned


@pytest.mark.parametrize("name", sorted(GENERATORS))
def test_interned_dijkstra_matches_reference(name):
    for seed in (1, 2, 5, 6):
        graph = GENERATORS[name](seed)
        reference, interned = build_auxiliary_pair(graph, seed)
        # Every node is interned already, so intern() only reads its id.
        ids = {node: interned.intern(node) for node in reference.adjacency()}
        source = ("v", seed % graph.num_vertices)
        ref_dist, _ = dijkstra(reference.adjacency(), source)
        dist = interned.dijkstra(ids[source])
        assert len(dist) == len(ids)
        reached = {node: dist[i] for node, i in ids.items() if dist[i] is not math.inf}
        assert reached == ref_dist, f"{name}/seed={seed}"
        assert all(type(d) is float for d in dist)
        assert dist[ids[("isolated",)]] is math.inf


@pytest.mark.parametrize("name", sorted(GENERATORS))
def test_near_small_walk_realises_its_value(name):
    """The walk of every (target, near edge) pair realises ``w[t, e]``.

    Sweeping *all* near pairs (not just the finite-valued ones) also pins
    the unreachable case: the walk is ``[]`` exactly when the value is
    ``math.inf``.
    """
    seed = 11
    graph = GENERATORS[name](seed)
    n = graph.num_vertices
    scale = ProblemScale(n, 1, AlgorithmParams(seed=seed))
    for source in {0, n - 1}:
        tree = bfs_tree_csr(graph, source)
        tables = compute_near_small_tables_reference(
            graph, source, tree, scale, with_paths=True
        )
        checked = 0
        for target in range(n):
            if target == source:
                continue
            for edge, _ in near_edges_from_target(tree, target, scale):
                walk = tables.walk(target, edge)
                value = tables.values[(target, edge)]
                checked += 1
                if value is math.inf:
                    assert walk == [], (name, target, edge)
                    continue
                assert walk[0] == source and walk[-1] == target
                assert len(walk) - 1 == value, (name, target, edge)
                steps = [normalize_edge(a, b) for a, b in zip(walk, walk[1:])]
                assert all(graph.has_edge(*step) for step in steps)
                assert edge not in steps, (name, target, edge)
        assert checked > 0 or n <= 1
        # Unknown (target, edge) pairs reconstruct to [].
        assert tables.walk(n + 5, (0, 1)) == []


def test_interned_dijkstra_rejects_negative_weights_upfront():
    interned = InternedAuxiliaryGraph()
    a, b, c, d = (interned.intern((name,)) for name in "abcd")
    interned.add_arc(a, b, 1.0)
    # The negative arc is unreachable from the source; the hoisted
    # per-graph validation must reject it anyway.
    interned.add_arc(c, d, -2.0)
    with pytest.raises(ValueError):
        interned.dijkstra(a)


@pytest.mark.slow
@pytest.mark.parametrize("strategy", STRATEGIES)
def test_msrp_matches_bruteforce_extended(strategy):
    """Wider sweep of the same invariant: more seeds per generator."""
    for name, factory in sorted(GENERATORS.items()):
        for seed in range(10, 16):
            graph = factory(seed)
            sources = pick_sources(graph, seed, count=3)
            result = run_msrp(graph, sources, strategy, seed)
            reference = brute_force_multi_source(graph, sources)
            assert result.matches(reference), f"{name}/{strategy}/seed={seed}"


@pytest.mark.slow
def test_csr_bfs_equals_dict_bfs_extended():
    """Exhaustive CSR/dict equivalence: every root, every forbidden edge."""
    for name, factory in sorted(GENERATORS.items()):
        graph = factory(21)
        for root in range(graph.num_vertices):
            dict_tree = bfs_tree(graph, root)
            csr_tree = bfs_tree_csr(graph, root)
            assert csr_tree.parent == dict_tree.parent
            assert csr_tree.dist == dict_tree.dist
            assert csr_tree.order == dict_tree.order
        for edge in graph.edges():
            assert bfs_distances_csr(graph, 0, forbidden_edge=edge) == bfs_distances(
                graph, 0, forbidden_edge=edge
            )


@pytest.mark.slow
def test_ssrp_matches_bruteforce_on_random_instances():
    """SSRP spot check on larger connected instances (sigma = 1 regime)."""
    for seed in range(30, 34):
        graph = generators.random_connected_graph(28, extra_edges=30, seed=seed)
        source = seed % graph.num_vertices
        result = single_source_replacement_paths(
            graph, source, params=AlgorithmParams(seed=seed)
        )
        reference = {source: brute_force_single_source(graph, source)}
        assert result.matches(reference)
