"""Exact replacement distances from one root by subtree repair.

Deleting the tree edge ``(p, ch)`` of a BFS tree rooted at ``c`` changes
hop distances only inside ``subtree(ch)``: the canonical path of every
other vertex avoids the edge.  A subtree vertex ``y`` therefore reaches
``c`` either through a neighbour ``x`` outside the subtree, at the
unchanged cost ``dist[x] + 1``, or through another subtree vertex.  The
new distances are a unit-weight BFS confined to the subtree, started at
every ``y`` whose best outside offer (the deleted arc ``ch -> p``
excluded) is finite; the offers differ, so they join the level sweep in
ascending order — a bucketed BFS.  The subtree is a contiguous range of
the tree's preorder, so "outside" is two integer compares.

Repairing every tree edge whose child lies at depth ``<= max_depth``
reads each repaired subtree's adjacency twice, ``O(sum_v deg(v) *
min(depth(v), max_depth))`` in total.  The equivalence reference is one
full forbidden-edge BFS per edge,
``bfs_distances_csr(graph, root, forbidden_edge=e)``, at ``O(m)`` each.

A finite ``window`` confines the repair of ``(p, ch)`` to its *zone*
``{v in subtree(ch) : dist[v] < dist[ch] + window}``: only zone vertices
are seeded, visited and reported.  A windowed value is then the shortest
walk that leaves the untouched part of the tree once and stays in the
zone, which is the Section 7.1 auxiliary graph's ``w[t, e]``
(:mod:`repro.core.near_small`).  It is never below the unwindowed value
and equals it whenever it is below ``dist[ch] + window``.  The zone is
walked in preorder, skipping the subtree of every vertex past the
window, so a vertex is read only by the ``< window`` edges above it:
``O(sum_v deg(v) * min(depth(v), window))``.
"""

from __future__ import annotations

import math
from bisect import bisect_left
from typing import Dict, Iterable, List, Sequence, Tuple

from repro.graph.csr import GraphLike, ensure_csr
from repro.graph.graph import Edge
from repro.graph.tree import ShortestPathTree

#: ``(endpoint, failed edge) -> replacement length``: what the kernel
#: returns, and the shape of every replacement table the solver keeps
#: (the paper's hash tables ``d(s, r, e)`` and ``w[t, e]``).
PairEdgeTable = Dict[Tuple[int, Edge], float]


def _repair_subtree(
    rows: Sequence[Tuple[int, ...]],
    pos: Sequence[int],
    end: Sequence[int],
    dist: Sequence[float],
    preorder: Sequence[int],
    child: int,
    parent: int,
    limit: float,
) -> Dict[int, int]:
    """New root distances in the zone of the cut tree edge ``(parent, child)``.

    ``pos``/``end`` are the tree's spans
    (:meth:`~repro.graph.tree.ShortestPathTree.spans`), so ``child``'s
    subtree is ``preorder[pos[child]:end[child]]``.  The zone is the
    subtree's vertices with ``dist < limit``.  Returns ``vertex ->
    distance`` for the zone vertices still reachable inside the zone; an
    absent vertex is cut off.
    """
    inf = math.inf
    lo = pos[child]
    hi = end[child]
    seeds: List[Tuple[int, int]] = []
    i = lo
    while i < hi:
        y = preorder[i]
        if dist[y] >= limit:
            # Depth grows down the tree: y's whole subtree is past the window.
            i = end[y]
            continue
        i += 1
        best = inf
        for x in rows[y]:
            # Every other subtree vertex lies at least two levels below
            # parent, so it has no arc to parent: skipping parent skips
            # exactly the deleted arc ch -> parent.
            if x != parent and not lo <= pos[x] < hi:
                offer = dist[x] + 1
                if offer < best:
                    best = offer
        if best is not inf:
            seeds.append((best, y))
    if not seeds:
        return {}
    seeds.sort()

    new: Dict[int, int] = {}
    frontier: List[int] = []
    level = seeds[0][0]
    i, count = 0, len(seeds)
    while frontier or i < count:
        if not frontier:
            level = seeds[i][0]
        while i < count and seeds[i][0] == level:
            y = seeds[i][1]
            i += 1
            if y not in new:
                new[y] = level
                frontier.append(y)
        level += 1
        nxt: List[int] = []
        for y in frontier:
            for z in rows[y]:
                if lo <= pos[z] < hi and z not in new and dist[z] < limit:
                    new[z] = level
                    nxt.append(z)
        frontier = nxt
    return new


def subtree_repair_distances(
    graph: GraphLike,
    tree: ShortestPathTree,
    targets: Iterable[int],
    max_depth: float,
    window: float = math.inf,
) -> PairEdgeTable:
    """``d(root, t, e)`` for every target ``t`` and near-root path edge ``e``.

    The keys are ``(t, e)`` for every target ``t != root`` reachable in
    ``tree`` and every edge ``e = (p, ch)`` of its canonical root-``t``
    path with ``dist[ch] <= max_depth`` and ``dist[t] < dist[ch] +
    window``.  With the default window the value is the exact hop
    distance from the root to ``t`` in ``graph`` minus ``e``; a finite
    window confines the repair to the zone of ``e`` (module docstring).
    Values are ``int``, or ``math.inf`` when no walk reaches ``t``.
    Edges are normalised and ``tree`` must be a BFS tree of ``graph``.
    Only the subtrees holding a target are repaired.
    """
    rows = ensure_csr(graph).rows
    dist = tree.dist
    parent = tree.parent
    preorder = tree.preorder()
    pos, end = tree.spans()
    # Position 0 is the root and -1 marks an unreachable target.
    target_pos = sorted({pos[t] for t in targets if pos[t] > 0})

    inf = math.inf
    result: PairEdgeTable = {}
    for lo in range(1, len(preorder)):
        child = preorder[lo]
        if dist[child] > max_depth:
            continue
        first = bisect_left(target_pos, lo)
        last = bisect_left(target_pos, end[child], first)
        if first == last:
            continue
        p = parent[child]
        limit = dist[child] + window
        new = _repair_subtree(rows, pos, end, dist, preorder, child, p, limit)
        edge = (p, child) if p <= child else (child, p)
        k = first
        while k < last:
            at = target_pos[k]
            t = preorder[at]
            if dist[t] < limit:
                result[(t, edge)] = new.get(t, inf)
                k += 1
            else:
                # Skip the targets below t: they are past the window too.
                k = bisect_left(target_pos, end[t], k, last)
    return result
