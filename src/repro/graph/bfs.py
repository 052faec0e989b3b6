"""Breadth-first search primitives.

BFS is the single most frequently used substrate in the paper: shortest-path
trees are BFS trees (the graph is unweighted), distances from sources,
landmarks and centers are BFS distances, and the brute-force baselines run
one BFS per failed edge.

Two entry points are provided:

* :func:`bfs_distances` — distances only, the cheapest form, optionally
  with an edge excluded (for brute-force baselines).
* :func:`bfs_tree` — a full :class:`~repro.graph.tree.ShortestPathTree`,
  optionally with a *preferred path* forced into the tree, which the
  single-pair replacement-path algorithm uses to make the reversed ``s-t``
  path a tree path of the tree rooted at ``t``.

These are the *reference* implementations: they define the traversal
semantics and stay deliberately simple.  The hot paths of the library run on
the flat CSR kernel in :mod:`repro.graph.csr` (:func:`bfs_distances_csr`,
:func:`bfs_tree_csr`, batched :func:`bfs_many`), which is verified to
produce identical distances, parents and orders by the randomized property
battery.
"""

from __future__ import annotations

import math
from collections import deque
from operator import index as _vertex_id
from typing import List, Optional, Sequence

from repro.exceptions import GraphError, InvalidParameterError
from repro.graph.graph import Graph, normalize_edge
from repro.graph.tree import ShortestPathTree


def _check_source(graph: Graph, source: int) -> None:
    if not graph.has_vertex(source):
        raise InvalidParameterError(
            f"source {source} is not a vertex of a graph on {graph.num_vertices} vertices"
        )


def bfs_distances(
    graph: Graph,
    source: int,
    forbidden_edge: Optional[Sequence[int]] = None,
) -> List[float]:
    """Return hop distances from ``source`` to every vertex.

    Parameters
    ----------
    graph:
        The input graph.
    source:
        Start vertex.
    forbidden_edge:
        Optional edge to treat as deleted; used by brute-force baselines and
        by tests.  The efficient algorithms never pass it.

    Returns
    -------
    list of float
        ``dist[v]`` is the number of edges on a shortest ``source``-``v``
        path, or ``math.inf`` when ``v`` is unreachable.
    """
    _check_source(graph, source)
    banned = (
        normalize_edge(_vertex_id(forbidden_edge[0]), _vertex_id(forbidden_edge[1]))
        if forbidden_edge is not None
        else None
    )
    dist: List[float] = [math.inf] * graph.num_vertices
    dist[source] = 0
    queue = deque([source])
    while queue:
        u = queue.popleft()
        du = dist[u]
        for v in graph.neighbors(u):
            if banned is not None and normalize_edge(u, v) == banned:
                continue
            if dist[v] is math.inf:
                dist[v] = du + 1
                queue.append(v)
    return dist


def bfs_tree(
    graph: Graph,
    source: int,
    prefer_path: Optional[Sequence[int]] = None,
) -> ShortestPathTree:
    """Run BFS from ``source`` and return the shortest-path tree.

    Parameters
    ----------
    graph:
        The input graph.
    source:
        Root of the tree.
    prefer_path:
        Optional vertex sequence starting at ``source``.  When given, the
        parents along the sequence are overridden so the sequence becomes a
        tree path, provided it is a valid shortest path (consecutive
        vertices adjacent, distances increasing by one).  The classical
        replacement-path algorithm needs the reversed ``s-t`` path to be a
        tree path of the tree rooted at ``t``; see
        :mod:`repro.rp.single_pair`.

    Returns
    -------
    ShortestPathTree
    """
    _check_source(graph, source)
    n = graph.num_vertices
    dist: List[float] = [math.inf] * n
    parent: List[Optional[int]] = [None] * n
    order: List[int] = []
    dist[source] = 0
    queue = deque([source])
    while queue:
        u = queue.popleft()
        order.append(u)
        du = dist[u]
        for v in graph.neighbors(u):
            if dist[v] is math.inf:
                dist[v] = du + 1
                parent[v] = u
                queue.append(v)

    if prefer_path is not None:
        _force_path(graph, source, dist, parent, prefer_path)

    return ShortestPathTree(source, parent, dist, order)


def _force_path(
    graph: Graph,
    source: int,
    dist: List[float],
    parent: List[Optional[int]],
    prefer_path: Sequence[int],
) -> None:
    """Override BFS parents so ``prefer_path`` becomes a tree path.

    The override is only legal when the path is a genuine shortest path from
    ``source``; otherwise the resulting structure would not be a
    shortest-path tree and every downstream guarantee would break, so we
    validate and raise instead of silently accepting it.
    """
    if not prefer_path or prefer_path[0] != source:
        raise GraphError("prefer_path must start at the BFS source")
    for i in range(1, len(prefer_path)):
        u, v = prefer_path[i - 1], prefer_path[i]
        if not graph.has_edge(u, v):
            raise GraphError(f"prefer_path step ({u}, {v}) is not an edge")
        if dist[v] != dist[u] + 1:
            raise GraphError(
                "prefer_path is not a shortest path: "
                f"dist[{v}]={dist[v]} but dist[{u}]+1={dist[u] + 1}"
            )
        parent[v] = u
