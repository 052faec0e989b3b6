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
  appears (``intern`` / ``add_edge``), arcs are stored in typed parallel
  arrays — ``array('i')`` heads/tails, ``array('d')`` weights — compiled to
  a typed-array CSR layout (``offsets`` / ``targets`` / ``weights``) on the
  first Dijkstra run, and the heap loop works exclusively on
  ``(float, int)`` pairs with array-indexed ``dist`` / ``settled`` state —
  no tuple hashing anywhere inside the loop.  Builders that already hold
  the integer ids call ``add_arc`` and skip the interning dictionary
  entirely.  The typed arrays keep the arc storage at C struct density
  (4/4/8 bytes per arc instead of three PyObject pointers) and hand a
  native backend a zero-conversion view via ``compiled_csr()``.

Laziness / validation contract
------------------------------
Edge weights must be non-negative; the auxiliary graphs only use BFS
distances and unit weights so this always holds.  Both substrates keep a
defensive check — a negative weight would silently corrupt every downstream
replacement distance — but validate **once per auxiliary graph** (a single
flat scan before the first relaxation), not per visited arc inside the heap
loop.  The interned graph compiles its CSR arrays lazily on the first
:meth:`InternedAuxiliaryGraph.dijkstra` call and caches them; adding arcs
afterwards invalidates the cache.

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
from array import array
from collections import Counter
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
from repro.npsupport import np, numpy_enabled

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
    """Auxiliary graph with dense integer node ids and typed-array CSR arcs.

    Drop-in replacement for :class:`AuxiliaryGraphBuilder` +
    :func:`dijkstra`: the same ``add_node`` / ``add_edge`` surface accepts
    the tuple nodes of the paper's constructions and interns them to dense
    integers on first sight, while ``intern`` + ``add_arc`` let builders
    that resolve their node ids up front bypass tuple hashing entirely.
    ``dijkstra`` then runs with array-indexed state and returns views that
    translate back to the original nodes, so downstream table extraction is
    unchanged.
    """

    __slots__ = (
        "_ids",
        "_nodes",
        "_arc_src",
        "_arc_dst",
        "_arc_w",
        "_csr_offsets",
        "_csr_dst",
        "_csr_w",
        "_heap_offsets",
        "_heap_dst",
        "_heap_w",
    )

    def __init__(self) -> None:
        self._ids: Dict[Node, int] = {}
        self._nodes: List[Node] = []
        self._arc_src: array = array("i")
        self._arc_dst: array = array("i")
        self._arc_w: array = array("d")
        self._csr_offsets = None
        self._csr_dst = None
        self._csr_w = None
        # Python-native mirrors of the compiled CSR triple for the heap
        # loop: lists in the numpy tier (indexing an ndarray would hand
        # the loop numpy scalars, which must never reach the dist values),
        # the typed arrays themselves in the fallback tier.
        self._heap_offsets = None
        self._heap_dst = None
        self._heap_w = None

    # -- construction --------------------------------------------------------

    def intern(self, node: Node) -> int:
        """Return the dense id of ``node``, assigning the next free one."""
        ids = self._ids
        i = ids.get(node)
        if i is None:
            i = len(self._nodes)
            ids[node] = i
            self._nodes.append(node)
        return i

    def add_node(self, node: Node) -> int:
        """Ensure ``node`` exists (builder-API parity); returns its id."""
        return self.intern(node)

    def add_arc(self, u_id: int, v_id: int, weight: float) -> None:
        """Add ``u -> v`` by dense ids — the no-hashing hot path."""
        self._arc_src.append(u_id)
        self._arc_dst.append(v_id)
        self._arc_w.append(weight)
        self._csr_offsets = None

    def add_edge(self, u: Node, v: Node, weight: float) -> None:
        """Add the directed edge ``u -> v``, interning both endpoints."""
        self.add_arc(self.intern(u), self.intern(v), weight)

    # -- accessors -----------------------------------------------------------

    @property
    def num_nodes(self) -> int:
        return len(self._nodes)

    @property
    def num_edges(self) -> int:
        return len(self._arc_src)

    def node_of(self, node_id: int) -> Node:
        """The original tuple node behind a dense id."""
        return self._nodes[node_id]

    # -- pickling ------------------------------------------------------------

    def __getstate__(self):
        """Ship the intern table and the typed arc arrays, nothing derived.

        The ``node -> id`` dict is the inverse of the intern table (ids are
        assigned densely in append order), so it is rebuilt on restore
        rather than serialised; the compiled CSR triple is a cache and
        recompiles lazily on the first post-restore Dijkstra run.  The arc
        arrays pickle as raw typed buffers (4/4/8 bytes per arc), which is
        what keeps shipping an auxiliary graph to a pool worker cheap.
        """
        return (self._nodes, self._arc_src, self._arc_dst, self._arc_w)

    def __setstate__(self, state) -> None:
        nodes, arc_src, arc_dst, arc_w = state
        self._nodes = nodes
        self._ids = {node: i for i, node in enumerate(nodes)}
        self._arc_src = arc_src
        self._arc_dst = arc_dst
        # repro-lint: disable=REPRO002 -- _arc_w is an array('d') typed
        # buffer, not boxed floats: every access boxes a fresh float, so
        # `is math.inf` identity never applies to its elements and there
        # is nothing to re-canonicalise at the pickle boundary.
        self._arc_w = arc_w
        self._csr_offsets = None
        self._csr_dst = None
        self._csr_w = None
        self._heap_offsets = None
        self._heap_dst = None
        self._heap_w = None

    def id_of(self, node: Node) -> Optional[int]:
        """The dense id of ``node`` (``None`` when never interned)."""
        return self._ids.get(node)

    # -- the interned Dijkstra ----------------------------------------------

    def _compile(self) -> Tuple[array, array, array]:
        """Bucket the arc arrays into typed-array CSR rows; validate weights once.

        Runs once per (graph, mutation) — the auxiliary graphs are built
        fully and then solved, so in practice once per graph.  In the
        numpy tier the triple is bucketed vectorized (zero-copy
        ``frombuffer`` views over the arc arrays, one stable argsort) into
        ndarrays; the fallback keeps typed arrays (``'i'``/``'i'``/``'d'``).
        Either way a native backend can adopt the buffers as-is, and the
        heap loop gets Python-native mirrors (see ``__init__``).
        """
        if numpy_enabled():
            return self._compile_np()
        n = len(self._nodes)
        arc_src, arc_dst, arc_w = self._arc_src, self._arc_dst, self._arc_w
        m = len(arc_src)
        # One C-level min() validates every weight without a per-arc branch
        # in the bucketing loop below (the once-per-graph hoisted check).
        if arc_w and min(arc_w) < 0:
            k = min(range(m), key=arc_w.__getitem__)
            raise InvalidParameterError(
                f"negative weight {arc_w[k]} on auxiliary edge "
                f"{self._nodes[arc_src[k]]} -> {self._nodes[arc_dst[k]]}"
            )
        # tolist() boxes each typed-array element once, in a single C pass;
        # the Python-level loops below then iterate plain lists (increfs)
        # instead of re-boxing ints/doubles per access.
        src_list = arc_src.tolist()
        # Counter counts at C speed; the prefix sum only touches n+1 slots.
        counts = Counter(src_list)
        offsets = array("i", [0]) * (n + 1)
        total = 0
        counts_get = counts.get
        for i in range(n):
            total += counts_get(i, 0)
            offsets[i + 1] = total
        cursor = list(offsets)
        targets = array("i", [0]) * m
        weights = array("d", [0.0]) * m
        for u, v, w in zip(src_list, arc_dst.tolist(), arc_w.tolist()):
            slot = cursor[u]
            targets[slot] = v
            weights[slot] = w
            cursor[u] = slot + 1
        self._csr_offsets = offsets
        self._csr_dst = targets
        self._csr_w = weights
        self._heap_offsets = offsets
        self._heap_dst = targets
        self._heap_w = weights
        return offsets, targets, weights

    def _compile_np(self):
        """Vectorized CSR bucketing (numpy tier).

        A stable argsort on the arc sources is exactly the cursor-based
        bucketing of the fallback path — arcs land in their row in input
        order — so the compiled triple is element-identical across tiers.
        """
        n = len(self._nodes)
        arc_src, arc_dst, arc_w = self._arc_src, self._arc_dst, self._arc_w
        m = len(arc_src)
        if m:
            src = np.frombuffer(arc_src, dtype=np.intc)
            dst = np.frombuffer(arc_dst, dtype=np.intc)
            w = np.frombuffer(arc_w, dtype=np.float64)
            if float(w.min()) < 0:
                k = int(w.argmin())
                raise InvalidParameterError(
                    f"negative weight {arc_w[k]} on auxiliary edge "
                    f"{self._nodes[arc_src[k]]} -> {self._nodes[arc_dst[k]]}"
                )
            counts = np.bincount(src, minlength=n)
            offsets = np.zeros(n + 1, dtype=np.int64)
            np.cumsum(counts, out=offsets[1:])
            perm = np.argsort(src, kind="stable")
            targets = dst[perm]
            weights = w[perm]
        else:
            offsets = np.zeros(n + 1, dtype=np.int64)
            targets = np.zeros(0, dtype=np.intc)
            weights = np.zeros(0, dtype=np.float64)
        self._csr_offsets = offsets
        self._csr_dst = targets
        self._csr_w = weights
        # tolist() boxes to plain Python ints/floats in one C pass; the
        # heap loop never touches the ndarrays directly.
        self._heap_offsets = offsets.tolist()
        self._heap_dst = targets.tolist()
        self._heap_w = weights.tolist()
        return offsets, targets, weights

    def compiled_csr(self) -> Tuple[array, array, array]:
        """The compiled typed-array CSR ``(offsets, targets, weights)``.

        Compiles (or recompiles after mutation) on demand and returns the
        cached arrays without copying — the same buffers the heap loop
        consumes, suitable for handing to a native kernel via the buffer
        protocol.  ``add_arc`` drops the cache; nodes interned after
        compilation make it stale too (``offsets`` must always span
        ``num_nodes + 1`` rows, even for arc-less nodes).
        """
        offsets = self._csr_offsets
        if offsets is None or len(offsets) != len(self._nodes) + 1:
            return self._compile()
        return offsets, self._csr_dst, self._csr_w  # type: ignore[return-value]

    def dijkstra(
        self, source: Node, with_predecessors: bool = False
    ) -> Tuple[InternedDistances, Optional[InternedPredecessors]]:
        """Run Dijkstra from ``source`` (a node; interned if new).

        The heap holds ``(distance, id)`` pairs — float/int comparisons
        only — and ``dist`` / ``settled`` / ``pred`` are flat arrays indexed
        by the dense ids.  Ties are broken by id, which preserves the
        distances exactly (any tie-break yields the same distance array).
        """
        # compiled_csr() recompiles when missing or stale (arcs added or
        # nodes interned after the last compile).  The loop itself consumes
        # the Python-native mirrors _compile installs so every distance
        # stays a plain float regardless of tier.
        self.compiled_csr()
        offsets, dst, weights = self._heap_offsets, self._heap_dst, self._heap_w
        source_id = self.intern(source)
        n = len(self._nodes)
        inf = _INF
        dist: List[float] = [inf] * n
        pred: Optional[List[int]] = [-1] * n if with_predecessors else None
        settled = bytearray(n)
        dist[source_id] = 0.0
        heap: List[Tuple[float, int]] = [(0.0, source_id)]
        pop, push = heapq.heappop, heapq.heappush
        if source_id >= len(offsets) - 1:
            # ``source`` was new: it has no outgoing arcs, nothing to relax.
            heap = []
        while heap:
            d, u = pop(heap)
            if settled[u]:
                continue
            settled[u] = 1
            lo, hi = offsets[u], offsets[u + 1]
            # Slice + zip keeps the per-arc iteration in C; the slices are
            # transient row views, far cheaper than two indexings per arc.
            for v, w in zip(dst[lo:hi], weights[lo:hi]):
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
