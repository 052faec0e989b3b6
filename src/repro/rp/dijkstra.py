"""Dijkstra's algorithm over the auxiliary graphs of Sections 7.1, 8.1-8.3.

The paper repeatedly builds a weighted, directed *auxiliary graph* whose
nodes are tuples such as ``[t]``, ``[t, e]`` or ``[s, r, i]`` and runs
Dijkstra from a designated source node.  Two substrates implement this:

* the **reference** pair :class:`AuxiliaryGraphBuilder` + :func:`dijkstra`
  works over an adjacency mapping ``node -> list of (neighbour, weight)``
  keyed by the tuple nodes themselves.  It defines the semantics, stays
  deliberately simple, and remains the equivalence oracle for tests.
* the **interned** :class:`InternedAuxiliaryGraph` is the hot-path form:
  every tuple node is assigned a dense integer id the moment it first
  appears (``intern`` / ``add_edge``), each node keeps its outgoing arcs
  as two parallel rows (heads and weights, in insertion order), and the
  heap loop works exclusively on ``(float, int)`` pairs with list-indexed
  ``dist`` / ``settled`` state — no tuple hashing anywhere inside the
  loop.  Builders that already hold the integer ids call ``add_arc`` and
  skip the interning dictionary entirely.  There is no compile step: the
  rows are the adjacency the loop reads.

Validation contract
-------------------
Edge weights must be non-negative; the auxiliary graphs only use BFS
distances and unit weights so this always holds.  Both substrates keep a
defensive check — a negative weight would silently corrupt every downstream
replacement distance — but validate with one flat scan before the first
relaxation of each run (once per auxiliary graph, which is solved once),
not per visited arc inside the heap loop.

The optional predecessor tracking (the Section 7.1 walk reconstruction uses
it to enumerate the actual small replacement paths for the Section 8.2.1
split) returns mapping views that translate the internal integer ids back
to the original tuple nodes, so :func:`reconstruct_path` works identically
on both substrates.
"""

from __future__ import annotations

import heapq
import itertools
import math
from typing import (
    Dict,
    Hashable,
    Iterator,
    List,
    Mapping,
    Optional,
    Sequence,
    Tuple,
)

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

    Accepts both the plain predecessor dict of the reference implementation
    and the :class:`InternedPredecessors` view of the interned substrate.
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
    :func:`dijkstra` consumes.  The hot paths build
    :class:`InternedAuxiliaryGraph` instead; this builder remains the
    readable reference and the shape the equivalence tests pin against.
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


class InternedDistances:
    """Read-only ``node -> distance`` view over the interned dist array.

    Behaves like the distance dict of the reference :func:`dijkstra` for the
    operations the pipeline uses (``get``, membership, iteration over
    reached nodes) while storing nothing but a reference to the flat array.
    ``by_id`` skips the interning dictionary for callers that kept the
    integer ids of the nodes they care about.
    """

    __slots__ = ("_ids", "_nodes", "_dist")

    def __init__(self, ids: Dict[Node, int], nodes: List[Node], dist: List[float]):
        self._ids = ids
        self._nodes = nodes
        self._dist = dist

    def get(self, node: Node, default: float = _INF) -> float:
        # ``>= len`` guards nodes interned after the run: the view aliases
        # the live id dict but snapshots the dist array's length.
        i = self._ids.get(node)
        if i is None or i >= len(self._dist):
            return default
        d = self._dist[i]
        return default if d is _INF else d

    def by_id(self, node_id: int, default: float = _INF) -> float:
        """Distance of an interned id (``default`` when unreached)."""
        d = self._dist[node_id]
        return default if d is _INF else d

    def __contains__(self, node: object) -> bool:
        i = self._ids.get(node)
        return i is not None and i < len(self._dist) and self._dist[i] is not _INF

    def __getitem__(self, node: Node) -> float:
        i = self._ids.get(node)
        if i is None or i >= len(self._dist) or self._dist[i] is _INF:
            raise KeyError(node)
        return self._dist[i]

    def __iter__(self) -> Iterator[Node]:
        for i, d in enumerate(self._dist):
            if d is not _INF:
                yield self._nodes[i]

    def __len__(self) -> int:
        return sum(1 for d in self._dist if d is not _INF)

    def items(self) -> Iterator[Tuple[Node, float]]:
        for i, d in enumerate(self._dist):
            if d is not _INF:
                yield self._nodes[i], d

    def to_dict(self) -> Dict[Node, float]:
        """Materialise the reference-shaped distance dict (tests)."""
        return dict(self.items())


class InternedPredecessors:
    """Read-only ``node -> predecessor node`` view over the pred array.

    Supports exactly the mapping protocol :func:`reconstruct_path` needs
    (``in`` and ``[]``); ``-1`` entries mean "no predecessor recorded".
    """

    __slots__ = ("_ids", "_nodes", "_pred")

    def __init__(self, ids: Dict[Node, int], nodes: List[Node], pred: List[int]):
        self._ids = ids
        self._nodes = nodes
        self._pred = pred

    def __contains__(self, node: object) -> bool:
        i = self._ids.get(node)
        return i is not None and i < len(self._pred) and self._pred[i] >= 0

    def __getitem__(self, node: Node) -> Node:
        i = self._ids.get(node)
        if i is None or i >= len(self._pred) or self._pred[i] < 0:
            raise KeyError(node)
        return self._nodes[self._pred[i]]

    def get(self, node: Node, default: Optional[Node] = None) -> Optional[Node]:
        i = self._ids.get(node)
        if i is None or i >= len(self._pred) or self._pred[i] < 0:
            return default
        return self._nodes[self._pred[i]]

    def pred_ids(self) -> List[int]:
        """The raw predecessor array (``pred_ids()[i]`` is the dense id of
        the predecessor of node ``i``, ``-1`` when none was recorded).

        This is the flat substrate behind the mapping view: id-path walkers
        (:meth:`repro.core.near_small.NearSmallTables.walk`) climb it
        directly and translate ids through :meth:`nodes` only once, at
        reconstruction time.
        """
        return self._pred

    def nodes(self) -> List[Node]:
        """The dense-id ``->`` original node intern table (no copy)."""
        return self._nodes

    def to_dict(self) -> Dict[Node, Node]:
        """Materialise the reference-shaped predecessor dict (tests)."""
        return {
            self._nodes[i]: self._nodes[p]
            for i, p in enumerate(self._pred)
            if p >= 0
        }


class InternedAuxiliaryGraph:
    """Auxiliary graph with dense integer node ids and per-node arc rows.

    Drop-in replacement for :class:`AuxiliaryGraphBuilder` +
    :func:`dijkstra`: the same ``add_node`` / ``add_edge`` surface accepts
    the tuple nodes of the paper's constructions and interns them to dense
    integers on first sight, while ``intern`` + ``add_arc`` let builders
    that resolve their node ids up front bypass tuple hashing entirely.
    ``dijkstra`` then runs with list-indexed state and returns views that
    translate back to the original nodes, so downstream table extraction is
    unchanged.
    """

    __slots__ = ("_ids", "_nodes", "_targets", "_weights")

    def __init__(self) -> None:
        self._ids: Dict[Node, int] = {}
        self._nodes: List[Node] = []
        # Row ``u`` holds the heads and weights of u's outgoing arcs, in
        # insertion order.
        self._targets: List[List[int]] = []
        self._weights: List[List[float]] = []

    # -- construction --------------------------------------------------------

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

    def add_node(self, node: Node) -> int:
        """Ensure ``node`` exists (builder-API parity); returns its id."""
        return self.intern(node)

    def add_arc(self, u_id: int, v_id: int, weight: float) -> None:
        """Add ``u -> v`` by dense ids — the no-hashing hot path."""
        self._targets[u_id].append(v_id)
        self._weights[u_id].append(weight)

    def add_edge(self, u: Node, v: Node, weight: float) -> None:
        """Add the directed edge ``u -> v``, interning both endpoints."""
        self.add_arc(self.intern(u), self.intern(v), weight)

    # -- accessors -----------------------------------------------------------

    @property
    def num_nodes(self) -> int:
        return len(self._nodes)

    @property
    def num_edges(self) -> int:
        return sum(map(len, self._targets))

    def node_of(self, node_id: int) -> Node:
        """The original tuple node behind a dense id."""
        return self._nodes[node_id]

    def id_of(self, node: Node) -> Optional[int]:
        """The dense id of ``node`` (``None`` when never interned)."""
        return self._ids.get(node)

    # -- the interned Dijkstra ----------------------------------------------

    def _check_weights(self) -> None:
        """Reject negative weights with one C-level ``min`` per row."""
        for u, row in enumerate(self._weights):
            if row and min(row) < 0:
                k = row.index(min(row))
                raise InvalidParameterError(
                    f"negative weight {row[k]} on auxiliary edge "
                    f"{self._nodes[u]} -> {self._nodes[self._targets[u][k]]}"
                )

    def dijkstra(
        self, source: Node, with_predecessors: bool = False
    ) -> Tuple[InternedDistances, Optional[InternedPredecessors]]:
        """Run Dijkstra from ``source`` (a node; interned if new).

        The heap holds ``(distance, id)`` pairs — float/int comparisons
        only — and ``dist`` / ``settled`` / ``pred`` are flat lists indexed
        by the dense ids.  Ties are broken by id, which preserves the
        distances exactly (any tie-break yields the same distance array).
        """
        self._check_weights()
        source_id = self.intern(source)
        targets, weights = self._targets, self._weights
        n = len(self._nodes)
        inf = _INF
        dist: List[float] = [inf] * n
        pred: Optional[List[int]] = [-1] * n if with_predecessors else None
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
                    if pred is not None:
                        pred[v] = u
                    push(heap, (candidate, v))
        distances = InternedDistances(self._ids, self._nodes, dist)
        predecessors = (
            InternedPredecessors(self._ids, self._nodes, pred)
            if pred is not None
            else None
        )
        return distances, predecessors
