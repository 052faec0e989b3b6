"""Dijkstra's algorithm over the auxiliary graphs of Sections 7.1, 8.1-8.3.

The paper repeatedly builds a weighted, directed *auxiliary graph* whose
nodes are tuples such as ``[t]``, ``[t, e]`` or ``[s, r, i]`` and runs
Dijkstra from a designated source node.  Two substrates implement this:

* the **reference** pair :class:`AuxiliaryGraphBuilder` + :func:`dijkstra`
  works over an adjacency mapping ``node -> list of (neighbour, weight)``
  keyed by the tuple nodes themselves.  It defines the semantics, stays
  deliberately simple, and remains the equivalence oracle for tests.
* the **interned** :class:`InternedAuxiliaryGraph` is the product's form
  (the Section 8.3.2 builder): every tuple node gets a dense integer id
  once (``intern``), arcs are added by id (``add_arc``) into two parallel
  rows per node (heads and weights, in insertion order), and ``dijkstra``
  takes a source id and returns the distance list indexed by id — no tuple
  hashing inside the heap loop or on the read-out.  There is no compile
  step: the rows are the adjacency the loop reads.

Validation contract
-------------------
Edge weights must be non-negative; the auxiliary graphs only use BFS
distances and unit weights so this always holds.  Both substrates keep a
defensive check — a negative weight would silently corrupt every downstream
replacement distance — but validate with one flat scan before the first
relaxation of each run (once per auxiliary graph, which is solved once),
not per visited arc inside the heap loop.

Only the reference :func:`dijkstra` tracks predecessors: the Section 7.1
reference reconstructs its walks with :func:`reconstruct_path` for the
Section 8.2.1 split, which only the ``_reference`` constructions run.
"""

from __future__ import annotations

import heapq
import itertools
import math
from typing import Dict, Hashable, List, Mapping, Optional, Sequence, Tuple

from repro.exceptions import InvalidParameterError

Node = Hashable
AdjacencyMap = Mapping[Node, Sequence[Tuple[Node, float]]]

_INF = math.inf


def _check_weights(adjacency: AdjacencyMap) -> None:
    """Reject negative weights with one flat scan (hoisted off the heap loop)."""
    for node, arcs in adjacency.items():
        for neighbour, weight in arcs:
            if weight < 0:
                raise InvalidParameterError(
                    f"negative weight {weight} on auxiliary edge {node} -> {neighbour}"
                )


def dijkstra(
    adjacency: AdjacencyMap,
    source: Node,
    with_predecessors: bool = False,
) -> Tuple[Dict[Node, float], Optional[Dict[Node, Node]]]:
    """Run Dijkstra from ``source`` over an adjacency mapping.

    Parameters
    ----------
    adjacency:
        Mapping ``node -> iterable of (neighbour, weight)``.  Nodes missing
        from the mapping are treated as having no outgoing edges.
    source:
        Start node.  It does not need to appear as a key in ``adjacency``.
    with_predecessors:
        When ``True`` the second element of the returned tuple maps every
        settled node (except the source) to its predecessor on a shortest
        path, allowing path reconstruction.

    Returns
    -------
    (distances, predecessors)
        ``distances`` maps every reachable node to its shortest distance
        from ``source``.  ``predecessors`` is ``None`` unless requested.

    Notes
    -----
    Edge weights are validated once, before the heap loop starts (see the
    module docstring); the whole graph is rejected when any edge — even one
    unreachable from ``source`` — carries a negative weight.
    """
    _check_weights(adjacency)
    dist: Dict[Node, float] = {source: 0.0}
    pred: Optional[Dict[Node, Node]] = {} if with_predecessors else None
    counter = itertools.count()
    heap: List[Tuple[float, int, Node]] = [(0.0, next(counter), source)]
    settled = set()
    while heap:
        d, _, node = heapq.heappop(heap)
        if node in settled:
            continue
        settled.add(node)
        for neighbour, weight in adjacency.get(node, ()):
            candidate = d + weight
            if candidate < dist.get(neighbour, _INF):
                dist[neighbour] = candidate
                if pred is not None:
                    pred[neighbour] = node
                heapq.heappush(heap, (candidate, next(counter), neighbour))
    return dist, pred


def reconstruct_path(
    predecessors: Mapping[Node, Node], source: Node, target: Node
) -> List[Node]:
    """Rebuild the node sequence of a shortest path found by :func:`dijkstra`.

    Returns an empty list when ``target`` was not reached.
    """
    if target == source:
        return [source]
    if target not in predecessors:
        return []
    path = [target]
    node = target
    while node != source:
        node = predecessors[node]
        path.append(node)
    path.reverse()
    return path


class AuxiliaryGraphBuilder:
    """Incremental builder for the auxiliary graphs of the paper (reference).

    Keeps the adjacency mapping in the uniform ``node -> [(nbr, w)]`` shape
    :func:`dijkstra` consumes.  Every ``_reference`` construction builds on
    it; the Section 8.3.2 product builder uses
    :class:`InternedAuxiliaryGraph` instead, pinned to this pair by
    ``tests/test_property_battery.py``.
    """

    __slots__ = ("_adjacency",)

    def __init__(self) -> None:
        self._adjacency: Dict[Node, List[Tuple[Node, float]]] = {}

    def add_node(self, node: Node) -> None:
        """Ensure ``node`` exists even if it never gains outgoing edges."""
        self._adjacency.setdefault(node, [])

    def add_edge(self, u: Node, v: Node, weight: float) -> None:
        """Add the directed edge ``u -> v`` with the given weight."""
        self._adjacency.setdefault(u, []).append((v, weight))
        self._adjacency.setdefault(v, [])

    def adjacency(self) -> Dict[Node, List[Tuple[Node, float]]]:
        """Return the adjacency mapping (no copy; the builder is discarded)."""
        return self._adjacency

    @property
    def num_nodes(self) -> int:
        return len(self._adjacency)

    @property
    def num_edges(self) -> int:
        return sum(len(v) for v in self._adjacency.values())


class InternedAuxiliaryGraph:
    """Auxiliary graph with dense integer node ids and per-node arc rows.

    Ids in, a list out: ``intern`` gives each tuple node of the paper's
    construction a dense id once, ``add_arc`` adds arcs by those ids, and
    ``dijkstra`` returns the distance list indexed by them.  The Section
    8.3.2 builder keeps the ids of the nodes it reads, so no tuple is
    hashed inside the heap loop or on the read-out.  It is not a drop-in
    for :class:`AuxiliaryGraphBuilder`: the ``_reference`` constructions
    build on that one, over the tuple nodes themselves.
    """

    __slots__ = ("_ids", "_nodes", "_targets", "_weights")

    def __init__(self) -> None:
        self._ids: Dict[Node, int] = {}
        # The node behind each id, for the negative-weight message.
        self._nodes: List[Node] = []
        # Row ``u`` holds the heads and weights of u's outgoing arcs, in
        # insertion order.
        self._targets: List[List[int]] = []
        self._weights: List[List[float]] = []

    def intern(self, node: Node) -> int:
        """Return the dense id of ``node``, assigning the next free one."""
        ids = self._ids
        i = ids.get(node)
        if i is None:
            i = len(self._nodes)
            ids[node] = i
            self._nodes.append(node)
            self._targets.append([])
            self._weights.append([])
        return i

    def add_arc(self, u_id: int, v_id: int, weight: float) -> None:
        """Add the arc ``u -> v`` between two interned ids."""
        self._targets[u_id].append(v_id)
        self._weights[u_id].append(weight)

    def _check_weights(self) -> None:
        """Reject negative weights with one C-level ``min`` per row."""
        for u, row in enumerate(self._weights):
            if row and min(row) < 0:
                k = row.index(min(row))
                raise InvalidParameterError(
                    f"negative weight {row[k]} on auxiliary edge "
                    f"{self._nodes[u]} -> {self._nodes[self._targets[u][k]]}"
                )

    def dijkstra(self, source_id: int) -> List[float]:
        """Distances from the interned ``source_id``, as a list indexed by id.

        An unreached id holds ``math.inf`` itself.  The heap holds
        ``(distance, id)`` pairs (float/int comparisons only) and
        ``settled`` is a flat array indexed by id.  Ties are broken by id,
        which preserves the distances exactly: any tie-break yields the
        same distance list.
        """
        self._check_weights()
        targets, weights = self._targets, self._weights
        n = len(targets)
        dist: List[float] = [_INF] * n
        settled = bytearray(n)
        dist[source_id] = 0.0
        heap: List[Tuple[float, int]] = [(0.0, source_id)]
        pop, push = heapq.heappop, heapq.heappush
        while heap:
            d, u = pop(heap)
            if settled[u]:
                continue
            settled[u] = 1
            for v, w in zip(targets[u], weights[u]):
                candidate = d + w
                if candidate < dist[v]:
                    dist[v] = candidate
                    push(heap, (candidate, v))
        return dist
