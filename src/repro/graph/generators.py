"""Workload generators used by tests, examples and the benchmark harness.

The paper evaluates nothing empirically, so the reproduction defines its own
workloads.  They fall into three groups:

* **Random graphs** (:func:`gnp_random_graph`, :func:`random_regular_graph`,
  :func:`random_connected_graph`) — the standard instances used to measure
  the running-time shapes of Theorems 14 and 26.
* **Structured graphs** (:func:`grid_graph`, :func:`path_graph`,
  :func:`cycle_graph`, :func:`barbell_graph`, :func:`path_with_clusters`)
  — instances with long shortest paths and bridges, which exercise the
  near/far edge machinery and the "replacement path does not exist"
  corner cases.
* **Reduction instances** (:func:`bmm_reduction_graph` lives in
  :mod:`repro.lowerbound.bmm`) — the graphs of Theorem 28.

All generators take an explicit ``seed`` (or a :class:`random.Random`) so
every experiment in the repository is reproducible.
"""

from __future__ import annotations

import random
from typing import List, Tuple, Union

from repro.exceptions import InternalInvariantError, InvalidParameterError
from repro.graph import csr
from repro.graph.graph import Graph

RandomLike = Union[int, random.Random, None]


def _rng(seed: RandomLike) -> random.Random:
    """Return a :class:`random.Random` from a seed, an instance, or ``None``."""
    if isinstance(seed, random.Random):
        return seed
    return random.Random(seed)


def path_graph(num_vertices: int) -> Graph:
    """Return the path ``0 - 1 - ... - (n-1)``.

    Every edge of a path is a bridge, so replacement paths do not exist and
    the algorithms must report infinite distances; tests use this heavily.
    """
    return Graph(num_vertices, [(i, i + 1) for i in range(num_vertices - 1)])


def cycle_graph(num_vertices: int) -> Graph:
    """Return the cycle on ``num_vertices`` vertices (needs at least 3)."""
    if num_vertices < 3:
        raise InvalidParameterError("a cycle needs at least 3 vertices")
    edges = [(i, (i + 1) % num_vertices) for i in range(num_vertices)]
    return Graph(num_vertices, edges)


def complete_graph(num_vertices: int) -> Graph:
    """Return the complete graph ``K_n``."""
    edges = [
        (u, v) for u in range(num_vertices) for v in range(u + 1, num_vertices)
    ]
    return Graph(num_vertices, edges)


def star_graph(num_leaves: int) -> Graph:
    """Return a star with center ``0`` and ``num_leaves`` leaves."""
    return Graph(num_leaves + 1, [(0, i + 1) for i in range(num_leaves)])


def grid_graph(rows: int, cols: int) -> Graph:
    """Return the ``rows x cols`` grid graph.

    Vertex ``(r, c)`` is numbered ``r * cols + c``.  Grids have many
    equal-length shortest paths and long diameters, which stresses the
    near/far classification and the tie-breaking conventions.
    """
    if rows <= 0 or cols <= 0:
        raise InvalidParameterError("grid dimensions must be positive")
    edges = []
    for r in range(rows):
        for c in range(cols):
            v = r * cols + c
            if c + 1 < cols:
                edges.append((v, v + 1))
            if r + 1 < rows:
                edges.append((v, v + cols))
    return Graph(rows * cols, edges)


def barbell_graph(clique_size: int, bridge_length: int) -> Graph:
    """Two cliques joined by a path of ``bridge_length`` edges.

    The bridge edges are the "hard" failures: removing one disconnects the
    two sides, so every replacement path across it is infinite.
    """
    if clique_size < 1 or bridge_length < 1:
        raise InvalidParameterError("clique_size and bridge_length must be >= 1")
    n = 2 * clique_size + max(0, bridge_length - 1)
    edges = []
    left = list(range(clique_size))
    right = list(range(clique_size, 2 * clique_size))
    middle = list(range(2 * clique_size, n))
    for block in (left, right):
        for i, u in enumerate(block):
            for v in block[i + 1 :]:
                edges.append((u, v))
    chain = [left[-1]] + middle + [right[0]]
    for i in range(len(chain) - 1):
        edges.append((chain[i], chain[i + 1]))
    return Graph(n, edges)


def gnp_random_graph(num_vertices: int, edge_probability: float, seed: RandomLike = None) -> Graph:
    """Erdos-Renyi ``G(n, p)`` random graph."""
    if not 0.0 <= edge_probability <= 1.0:
        raise InvalidParameterError("edge_probability must be in [0, 1]")
    rng = _rng(seed)
    edges = [
        (u, v)
        for u in range(num_vertices)
        for v in range(u + 1, num_vertices)
        if rng.random() < edge_probability
    ]
    return Graph(num_vertices, edges)


def gnm_random_graph(num_vertices: int, num_edges: int, seed: RandomLike = None) -> Graph:
    """Uniform random graph with exactly ``num_edges`` distinct edges."""
    max_edges = num_vertices * (num_vertices - 1) // 2
    if num_edges > max_edges:
        raise InvalidParameterError(
            f"cannot place {num_edges} edges in a simple graph on {num_vertices} vertices"
        )
    rng = _rng(seed)
    chosen = set()
    while len(chosen) < num_edges:
        u = rng.randrange(num_vertices)
        v = rng.randrange(num_vertices)
        if u == v:
            continue
        chosen.add((min(u, v), max(u, v)))
    return Graph(num_vertices, sorted(chosen))


def random_regular_graph(num_vertices: int, degree: int, seed: RandomLike = None) -> Graph:
    """Approximately ``degree``-regular random graph via the pairing model.

    Pairings that would create self loops or parallel edges are skipped, so
    a few vertices may end with degree below ``degree``; that is irrelevant
    for the benchmarks, which only need "sparse graph with m ~ d n / 2".
    """
    if degree >= num_vertices:
        raise InvalidParameterError("degree must be smaller than num_vertices")
    if (num_vertices * degree) % 2 != 0:
        degree += 1
    rng = _rng(seed)
    stubs = [v for v in range(num_vertices) for _ in range(degree)]
    rng.shuffle(stubs)
    edges = set()
    for i in range(0, len(stubs) - 1, 2):
        u, v = stubs[i], stubs[i + 1]
        if u == v:
            continue
        edges.add((min(u, v), max(u, v)))
    return Graph(num_vertices, sorted(edges))


def random_connected_graph(
    num_vertices: int,
    extra_edges: int,
    seed: RandomLike = None,
) -> Graph:
    """A connected random graph: a random spanning tree plus ``extra_edges``.

    Connectivity keeps brute-force comparisons free of trivially-infinite
    distances (bridges can still exist, which is desirable for coverage).
    """
    rng = _rng(seed)
    if num_vertices <= 0:
        raise InvalidParameterError("num_vertices must be positive")
    vertices = list(range(num_vertices))
    rng.shuffle(vertices)
    edges = set()
    for i in range(1, num_vertices):
        attach = vertices[rng.randrange(i)]
        edges.add((min(vertices[i], attach), max(vertices[i], attach)))
    attempts = 0
    max_edges = num_vertices * (num_vertices - 1) // 2
    target = min(max_edges, len(edges) + extra_edges)
    while len(edges) < target and attempts < 50 * (extra_edges + 1):
        attempts += 1
        u = rng.randrange(num_vertices)
        v = rng.randrange(num_vertices)
        if u == v:
            continue
        edges.add((min(u, v), max(u, v)))
    graph = Graph(num_vertices, sorted(edges))
    if not csr.is_connected(graph):  # pragma: no cover - guaranteed by construction
        raise InternalInvariantError(
            "random_connected_graph produced a disconnected graph"
        )
    return graph


def path_with_clusters(
    spine_length: int,
    cluster_size: int,
    num_clusters: int,
    seed: RandomLike = None,
) -> Graph:
    """A long path ("spine") with dense clusters hanging off it.

    This is the adversarial-style workload for the far-edge machinery: the
    spine forces long shortest paths (many far edges) while the clusters
    provide the alternative routes that replacement paths must discover.
    Clusters are attached at evenly spaced spine vertices and each cluster is
    a clique connected to two distinct spine vertices, so removing a spine
    edge between the attachment points has a finite (but long) replacement.
    """
    if spine_length < 2 or cluster_size < 1 or num_clusters < 0:
        raise InvalidParameterError("invalid path_with_clusters parameters")
    rng = _rng(seed)
    edges: List[Tuple[int, int]] = [(i, i + 1) for i in range(spine_length - 1)]
    next_vertex = spine_length
    attach_points = [
        int(round(i * (spine_length - 1) / max(1, num_clusters)))
        for i in range(num_clusters + 1)
    ]
    for c in range(num_clusters):
        block = list(range(next_vertex, next_vertex + cluster_size))
        next_vertex += cluster_size
        for i, u in enumerate(block):
            for v in block[i + 1 :]:
                edges.append((u, v))
        left_anchor = attach_points[c]
        right_anchor = attach_points[c + 1]
        edges.append((left_anchor, block[0]))
        edges.append((right_anchor, block[-1]))
        # A couple of random chords into the spine keep replacement paths
        # short enough to exercise the "near edge" code path as well.
        for _ in range(2):
            anchor = rng.randrange(left_anchor, right_anchor + 1)
            edges.append((anchor, rng.choice(block)))
    return Graph(next_vertex, edges)


def random_sources(
    graph: Graph, count: int, seed: RandomLike = None
) -> List[int]:
    """Sample ``count`` distinct source vertices uniformly at random."""
    if count > graph.num_vertices:
        raise InvalidParameterError(
            f"cannot pick {count} distinct sources from {graph.num_vertices} vertices"
        )
    rng = _rng(seed)
    return sorted(rng.sample(range(graph.num_vertices), count))
