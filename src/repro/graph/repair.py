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
"""

from __future__ import annotations

import math
from bisect import bisect_left
from typing import Dict, Iterable, List, Sequence, Tuple

from repro.graph.csr import GraphLike, ensure_csr
from repro.graph.graph import Edge
from repro.graph.tree import ShortestPathTree


def _repair_subtree(
    rows: Sequence[Tuple[int, ...]],
    pos: Sequence[int],
    dist: Sequence[float],
    preorder: Sequence[int],
    lo: int,
    hi: int,
    parent: int,
) -> Dict[int, int]:
    """New root distances of ``preorder[lo:hi]`` once its top edge is cut.

    ``preorder[lo]`` is the subtree's top vertex ``ch`` and ``parent`` its
    tree parent.  Returns ``vertex -> distance`` for the subtree vertices
    still reachable; an absent vertex is cut off.
    """
    inf = math.inf
    seeds: List[Tuple[int, int]] = []
    for y in preorder[lo:hi]:
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
                if lo <= pos[z] < hi and z not in new:
                    new[z] = level
                    nxt.append(z)
        frontier = nxt
    return new


def subtree_repair_distances(
    graph: GraphLike,
    tree: ShortestPathTree,
    targets: Iterable[int],
    max_depth: int,
) -> Dict[Tuple[int, Edge], float]:
    """``d(root, t, e)`` for every target ``t`` and near-root path edge ``e``.

    The keys are ``(t, e)`` for every target ``t != root`` reachable in
    ``tree`` and every edge ``e = (p, ch)`` of its canonical root-``t``
    path with ``dist[ch] <= max_depth``; the value is the exact hop
    distance from the root to ``t`` in ``graph`` minus ``e``, as an
    ``int``, or ``math.inf`` when ``e`` separates them.  Edges are
    normalised and ``tree`` must be a BFS tree of ``graph``.  Only the
    subtrees holding a target are repaired.
    """
    rows = ensure_csr(graph).rows
    dist = tree.dist
    parent = tree.parent
    preorder = tree.preorder()
    pos = [-1] * len(parent)
    for index, v in enumerate(preorder):
        pos[v] = index
    tin, tout = tree.euler_intervals()
    # Position 0 is the root and -1 marks an unreachable target.
    target_pos = sorted({pos[t] for t in targets if pos[t] > 0})

    inf = math.inf
    result: Dict[Tuple[int, Edge], float] = {}
    for lo in range(1, len(preorder)):
        child = preorder[lo]
        if dist[child] > max_depth:
            continue
        # ShortestPathTree.subtree_size, inlined: the Euler interval holds
        # one entry and one exit per subtree vertex.
        hi = lo + (tout[child] - tin[child] + 1) // 2
        first = bisect_left(target_pos, lo)
        last = bisect_left(target_pos, hi, first)
        if first == last:
            continue
        p = parent[child]
        new = _repair_subtree(rows, pos, dist, preorder, lo, hi, p)
        edge = (p, child) if p <= child else (child, p)
        for k in range(first, last):
            t = preorder[target_pos[k]]
            result[(t, edge)] = new.get(t, inf)
    return result
