"""Classical single-pair replacement paths in ``O~(m + n)``.

This module implements the classical result the paper uses as a black box
(references [20, 21, 22]: Malik–Mittal–Gupta, Hershberger–Suri, Nardelli et
al.): given an undirected, unweighted graph, a source ``s`` and a target
``t``, compute ``|st <> e|`` — the length of the shortest ``s``-``t`` path
avoiding ``e`` — for every edge ``e`` on the canonical shortest ``s``-``t``
path, all in near-linear time.

Algorithm
---------
Let ``P = p_0 .. p_len`` be the canonical (BFS-tree) shortest path and
``e_i = (p_i, p_{i+1})`` its ``i``-th edge.  Build two BFS trees: ``T_s``
rooted at ``s`` (containing ``P``) and ``T_t`` rooted at ``t`` forced to
contain the reversal of ``P``.  Define

* ``A_i`` — vertices whose ``T_s`` path from ``s`` avoids ``e_i``
  (everything outside the ``T_s`` subtree of ``p_{i+1}``), and
* ``B_i`` — vertices whose ``T_t`` path to ``t`` avoids ``e_i``
  (everything outside the ``T_t`` subtree of ``p_i``).

Two facts make the cut formula work (``tests/test_single_pair.py`` checks
the lengths it gives against brute force):

1. ``A_i ∪ B_i = V`` — a vertex whose canonical path from ``s`` *and*
   canonical path to ``t`` both use ``e_i`` cannot exist in an undirected
   graph.
2. ``|st <> e_i| = min { d(s,u) + 1 + d(v,t) : (u,v) in E \\ P, u in A_i,
   v in B_i }`` — every candidate is realised by a path avoiding ``e_i``
   and the true replacement path crosses the ``(A_i, B_i)`` boundary.

Each edge orientation ``(u, v)`` contributes its candidate value to a
*contiguous interval* of failed-edge indices ``[a_s(u), b_t(v) - 1]``, where
``a_s(u)`` is the index of the deepest ``P``-ancestor of ``u`` in ``T_s``
and ``b_t(v)`` the index of the deepest ``P``-ancestor of ``v`` in ``T_t``.
A single sweep with a lazy-deletion heap then answers all ``len`` minima in
``O(m log m)`` total, i.e. ``O~(m + n)``.
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass, field
from operator import index as _vertex_id
from typing import Dict, List, Optional, Sequence, Tuple

from repro.exceptions import InvalidParameterError, NotOnPathError
from repro.graph.csr import bfs_tree_csr
from repro.graph.graph import Edge, Graph, normalize_edge
from repro.graph.tree import ShortestPathTree


@dataclass(frozen=True)
class SinglePairReplacementPaths:
    """Replacement-path lengths from ``source`` to ``target``.

    Attributes
    ----------
    source, target:
        Endpoints of the query.
    path:
        The canonical shortest ``source``-``target`` path (vertex list);
        empty when ``target`` is unreachable.
    lengths:
        Mapping from each edge of ``path`` (normalised) to the length of the
        shortest ``source``-``target`` path avoiding it (``math.inf`` when
        removing the edge disconnects the pair).
    """

    source: int
    target: int
    path: Tuple[int, ...]
    lengths: Dict[Edge, float] = field(default_factory=dict)

    @property
    def shortest_distance(self) -> float:
        """Length of the canonical shortest path (``inf`` if unreachable)."""
        return len(self.path) - 1 if self.path else math.inf

    def path_edges(self) -> List[Edge]:
        """Edges of the canonical path, ordered from the source."""
        return [
            normalize_edge(self.path[i], self.path[i + 1])
            for i in range(len(self.path) - 1)
        ]

    def get(self, edge: Sequence[int]) -> float:
        """Replacement length avoiding ``edge``.

        Edges not on the canonical path do not affect the distance, so the
        original shortest distance is returned for them.
        """
        e = normalize_edge(_vertex_id(edge[0]), _vertex_id(edge[1]))
        if e in self.lengths:
            return self.lengths[e]
        return self.shortest_distance

    def __len__(self) -> int:
        return len(self.lengths)


def replacement_paths(
    graph: Graph,
    source: int,
    target: int,
    source_tree: Optional[ShortestPathTree] = None,
) -> SinglePairReplacementPaths:
    """Compute all ``source``-``target`` replacement path lengths.

    Parameters
    ----------
    graph:
        Undirected, unweighted graph.
    source, target:
        Query endpoints.
    source_tree:
        Optional pre-computed BFS tree rooted at ``source``.  Passing the
        same tree the caller uses for its own "is this edge on the ``s-v``
        path" predicates guarantees a consistent canonical path.

    Returns
    -------
    SinglePairReplacementPaths
        Lengths for every edge on the canonical path.  When ``target`` is
        unreachable the result has an empty path and no lengths.
    """
    if not graph.has_vertex(source) or not graph.has_vertex(target):
        raise InvalidParameterError(
            f"source/target ({source}, {target}) outside vertex range"
        )
    tree_s = source_tree if source_tree is not None else bfs_tree_csr(graph, source)
    if tree_s.root != source:
        raise InvalidParameterError("source_tree is rooted at a different vertex")
    if not tree_s.is_reachable(target):
        return SinglePairReplacementPaths(source, target, (), {})
    if source == target:
        return SinglePairReplacementPaths(source, target, (source,), {})

    path = tree_s.path_to(target)
    lengths = _cut_formula_sweep(graph, tree_s, path)
    return SinglePairReplacementPaths(source, target, tuple(path), lengths)


def _cut_formula_sweep(
    graph: Graph, tree_s: ShortestPathTree, path: List[int]
) -> Dict[Edge, float]:
    """Run the interval sweep of the cut formula for one canonical path."""
    source, target = path[0], path[-1]
    num_failed = len(path) - 1

    tree_t = bfs_tree_csr(graph, target, prefer_path=list(reversed(path)))

    # a_s[x]: index (in `path`) of the deepest P-ancestor of x in T_s.
    a_s = tree_s.deepest_path_ancestor_indices(path)
    # For T_t the path is reversed; translate tour indices back to P indices.
    reversed_path = list(reversed(path))
    deepest_rev = tree_t.deepest_path_ancestor_indices(reversed_path)
    last_index = len(path) - 1
    # b_t[x]: original-path index of the deepest P-ancestor of x in T_t.
    b_t = [last_index - q if q >= 0 else -1 for q in deepest_rev]

    path_edge_set = {
        normalize_edge(path[i], path[i + 1]) for i in range(num_failed)
    }

    # Each candidate is (interval_start, interval_end, value).
    candidates: List[Tuple[int, int, float]] = []
    dist_s = tree_s.dist
    dist_t = tree_t.dist
    inf = math.inf
    last = num_failed - 1
    push = candidates.append
    # graph.edges() yields normalised (u < v) tuples, so the path-edge
    # membership test needs no re-normalisation.
    for edge in graph.edges():
        if edge in path_edge_set:
            continue
        u, v = edge
        for x, y in ((u, v), (v, u)):
            if dist_s[x] is inf or dist_t[y] is inf:
                continue
            lo = a_s[x]
            hi = b_t[y] - 1
            if lo < 0 or hi < lo:
                continue
            if hi > last:
                hi = last
                if lo > hi:
                    continue
            push((lo, hi, dist_s[x] + 1 + dist_t[y]))

    # Plain tuple order sorts by interval start first, which is all the
    # sweep needs; no key function per element.
    candidates.sort()
    answers: Dict[Edge, float] = {}
    heap: List[Tuple[float, int]] = []  # (value, interval_end)
    idx = 0
    for i in range(num_failed):
        while idx < len(candidates) and candidates[idx][0] <= i:
            lo, hi, value = candidates[idx]
            heapq.heappush(heap, (value, hi))
            idx += 1
        while heap and heap[0][1] < i:
            heapq.heappop(heap)
        edge = normalize_edge(path[i], path[i + 1])
        answers[edge] = heap[0][0] if heap else math.inf
    return answers


def replacement_path_lengths(
    graph: Graph, source: int, target: int
) -> Dict[Edge, float]:
    """Convenience wrapper returning only the ``edge -> length`` mapping."""
    return dict(replacement_paths(graph, source, target).lengths)
