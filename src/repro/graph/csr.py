"""Compressed-sparse-row (CSR) graph kernel and batched BFS.

Every phase of the MSRP pipeline bottoms out in BFS — one tree per source,
per landmark, per center, and one distance sweep per failed edge in the
brute-force oracle — so the traversal substrate dominates the running time
of everything in this repository.  This module provides a flat, contiguous
view of a :class:`~repro.graph.graph.Graph` and BFS kernels tuned for it:

* :class:`CSRGraph` — the classic CSR layout: an ``array('i')`` of
  ``n + 1`` *offsets* and an ``array('i')`` of ``2m`` *neighbours*, compiled
  from a :class:`Graph`.  Its working form is the per-row neighbour tuples
  (shared with the originating ``Graph``, so compilation costs no per-row
  copies), which is what the pure-Python inner loops iterate: CPython
  iterates a pre-built tuple faster than it can slice and walk a typed
  array.  The flat arrays are materialised lazily on first access and exist
  as the canonical compact layout for any future native/accelerator kernel.
* :func:`bfs_distances_csr` / :func:`bfs_tree_csr` — drop-in equivalents of
  :func:`repro.graph.bfs.bfs_distances` / :func:`repro.graph.bfs.bfs_tree`
  (same distances, parents, orders and error behaviour, including the
  ``forbidden_edge`` and ``prefer_path`` options) built on a level-
  synchronous frontier sweep with locals bound outside the loop.  The
  ``forbidden_edge`` check of :func:`bfs_distances_csr` is hoisted out of
  the per-arc path: only the rows of the two banned endpoints are
  filtered, so excluding an edge costs the same as a plain BFS instead of
  one edge comparison per traversed arc.
* :func:`bfs_many` — the batched entry point: compiles (or reuses) the CSR
  form once and amortises it over all requested roots, returning one
  :class:`~repro.graph.tree.ShortestPathTree` per distinct root, on the
  caller's executor.
* :func:`connected_components` — flat-traversal component decomposition,
  the connectivity check used by :mod:`repro.graph.generators`.

``Graph.csr()`` caches the compiled view on the graph instance (graphs are
immutable), so callers can keep passing plain ``Graph`` objects everywhere;
the first traversal pays the one-off compilation and every later traversal
reuses it.
"""

from __future__ import annotations

import math
from array import array
from bisect import bisect_left
from operator import index as _vertex_id
from typing import Dict, Iterable, List, Optional, Sequence, Tuple, Union

from repro.exceptions import InvalidParameterError
from repro.graph.bfs import _force_path
from repro.graph.graph import Graph
from repro.graph.tree import ShortestPathTree

_INF = math.inf

#: Functions in this module accept either a :class:`Graph` (whose cached CSR
#: view is used) or an explicitly compiled :class:`CSRGraph`.
GraphLike = Union[Graph, "CSRGraph"]


class CSRGraph:
    """Flat compressed-sparse-row view of an undirected graph.

    Attributes
    ----------
    num_vertices:
        Number of vertices ``n``.
    offsets:
        Length ``n + 1``; the neighbours of ``u`` occupy
        ``neighbors[offsets[u]:offsets[u + 1]]``.  Materialised lazily —
        the pure-Python kernels iterate ``rows`` and never touch it, so the
        flat pair costs nothing until a consumer actually asks for it.
        An ``array('i')``.
    neighbors:
        Length ``2m``, all adjacency rows back-to-back, each row sorted
        ascending (inherited from :class:`Graph`'s sorted adjacency, which
        keeps traversal order — and hence every canonical shortest path —
        identical to the dict BFS).  Materialised lazily together with
        ``offsets``, as an ``array('i')``.
    """

    __slots__ = ("num_vertices", "rows", "_num_arcs", "_offsets", "_neighbors")

    def __init__(self, rows: Sequence[Tuple[int, ...]]):
        self.rows: Tuple[Tuple[int, ...], ...] = tuple(rows)
        self.num_vertices = len(self.rows)
        # Cached once here (and in __setstate__): num_arcs is read inside
        # per-query paths and must not re-walk every row per access.
        self._num_arcs = sum(map(len, self.rows))
        self._offsets = None
        self._neighbors = None

    def _compile_flat(self) -> None:
        offsets = array("i", [0]) * (self.num_vertices + 1)
        neighbors = array("i")
        total = 0
        for u, row in enumerate(self.rows):
            total += len(row)
            offsets[u + 1] = total
            neighbors.extend(row)
        self._offsets = offsets
        self._neighbors = neighbors

    @property
    def offsets(self) -> array:
        if self._offsets is None:
            self._compile_flat()
        return self._offsets

    @property
    def neighbors(self) -> array:
        if self._neighbors is None:
            self._compile_flat()
        return self._neighbors

    @classmethod
    def from_graph(cls, graph: Graph) -> "CSRGraph":
        """Compile the CSR view of ``graph``.

        Prefer ``graph.csr()``, which caches the result on the instance.
        """
        return cls(graph.adjacency())

    # -- accessors ---------------------------------------------------------

    @property
    def num_arcs(self) -> int:
        """Number of directed arcs (``2m``); cached at construction."""
        return self._num_arcs

    @property
    def num_edges(self) -> int:
        """Number of undirected edges ``m``."""
        return self._num_arcs // 2

    def degree(self, v: int) -> int:
        """Degree of ``v``."""
        return len(self.rows[v])

    def neighbors_of(self, v: int) -> Tuple[int, ...]:
        """Sorted neighbours of ``v`` (same tuples as ``Graph.neighbors``)."""
        return self.rows[v]

    def has_vertex(self, v: int) -> bool:
        """Return ``True`` when ``v`` is a valid vertex id."""
        return 0 <= v < self.num_vertices

    def has_edge(self, u: int, v: int) -> bool:
        """Edge membership via binary search on the sorted row of ``u``."""
        if not (self.has_vertex(u) and self.has_vertex(v)):
            return False
        row = self.rows[u]
        i = bisect_left(row, v)
        return i < len(row) and row[i] == v

    def __len__(self) -> int:
        return self.num_vertices

    # -- pickling ----------------------------------------------------------

    def __getstate__(self):
        """Ship only the neighbour rows; the flat arrays rebuild lazily.

        The rows are the working form every kernel iterates; the typed
        offset/neighbour arrays are a derived cache that costs one linear
        pass to rematerialise, so dropping them keeps worker transfer at
        one copy of the adjacency structure.
        """
        return self.rows

    def __setstate__(self, rows) -> None:
        self.rows = rows
        self.num_vertices = len(rows)
        self._num_arcs = sum(map(len, rows))
        self._offsets = None
        self._neighbors = None

    def __repr__(self) -> str:  # pragma: no cover - debugging helper
        return f"CSRGraph(n={self.num_vertices}, m={self.num_edges})"


def ensure_csr(graph: GraphLike) -> CSRGraph:
    """Return the CSR view of ``graph``, compiling (and caching) if needed."""
    if isinstance(graph, CSRGraph):
        return graph
    return graph.csr()


def _check_source(csr: CSRGraph, source: int) -> None:
    if not csr.has_vertex(source):
        raise InvalidParameterError(
            f"source {source} is not a vertex of a graph on {csr.num_vertices} vertices"
        )


def _banned_endpoints(
    forbidden_edge: Optional[Sequence[int]],
) -> Tuple[int, int]:
    """Normalise ``forbidden_edge`` to an endpoint pair (``(-1, -1)`` = none)."""
    if forbidden_edge is None:
        return (-1, -1)
    u, v = _vertex_id(forbidden_edge[0]), _vertex_id(forbidden_edge[1])
    return (u, v) if u <= v else (v, u)


def bfs_distances_csr(
    graph: GraphLike,
    source: int,
    forbidden_edge: Optional[Sequence[int]] = None,
) -> List[float]:
    """Hop distances from ``source``; flat-kernel twin of ``bfs_distances``.

    Returns exactly what :func:`repro.graph.bfs.bfs_distances` returns —
    ``dist[v]`` is the number of edges on a shortest ``source``-``v`` path
    and ``math.inf`` (the identical singleton) for unreachable vertices.
    Runs a level-synchronous frontier sweep over the compiled CSR rows and
    hoists the ``forbidden_edge`` test out of the per-arc loop: only the
    rows of the two banned endpoints are filtered.
    """
    csr = ensure_csr(graph)
    _check_source(csr, source)
    fu, fv = _banned_endpoints(forbidden_edge)
    rows = csr.rows
    inf = _INF
    dist: List[float] = [inf] * csr.num_vertices
    dist[source] = 0
    frontier = [source]
    level = 0
    while frontier:
        level += 1
        nxt: List[int] = []
        push = nxt.append
        for u in frontier:
            row = rows[u]
            # Only the two banned endpoints ever need the filtered row, so
            # the common path pays nothing for forbidden-edge support.
            if u == fu:
                row = [w for w in row if w != fv]
            elif u == fv:
                row = [w for w in row if w != fu]
            for v in row:
                if dist[v] is inf:
                    dist[v] = level
                    push(v)
        frontier = nxt
    return dist


def bfs_tree_csr(
    graph: GraphLike,
    source: int,
    prefer_path: Optional[Sequence[int]] = None,
) -> ShortestPathTree:
    """BFS shortest-path tree; flat-kernel twin of ``bfs_tree``.

    Produces a :class:`ShortestPathTree` with the same parents, distances
    and dequeue order as :func:`repro.graph.bfs.bfs_tree` (the adjacency
    rows are sorted identically, and a level-synchronous sweep discovers
    vertices in FIFO order), including the ``prefer_path`` option and its
    validation errors.
    """
    csr = ensure_csr(graph)
    _check_source(csr, source)
    rows = csr.rows
    inf = _INF
    n = csr.num_vertices
    dist: List[float] = [inf] * n
    parent: List[Optional[int]] = [None] * n
    order: List[int] = [source]
    dist[source] = 0
    frontier = [source]
    level = 0
    while frontier:
        level += 1
        nxt: List[int] = []
        push = nxt.append
        for u in frontier:
            for v in rows[u]:
                if dist[v] is inf:
                    dist[v] = level
                    parent[v] = u
                    push(v)
        order.extend(nxt)
        frontier = nxt

    if prefer_path is not None:
        _force_path(csr, source, dist, parent, prefer_path)

    return ShortestPathTree(source, parent, dist, order)


def bfs_many(
    graph: GraphLike,
    roots: Iterable[int],
    pool=None,
) -> Dict[int, ShortestPathTree]:
    """Run one BFS per distinct root, compiling the CSR form only once.

    This is the batched entry point the preprocessing phases use: the MSRP
    solver needs one tree per source *and* per landmark, the Section 8
    pipeline one per center, and compiling the flat layout once up front
    amortises it across the whole batch.  Duplicate roots are computed once
    and share the same tree object (mirroring how the solver shares trees
    between a landmark that is also a source).

    The roots run as one :func:`repro.parallel.run_sharded` phase of
    :func:`~repro.parallel.tasks.bfs_roots_task` on ``pool``, an
    :class:`~repro.parallel.Executor`: a process pool shards the distinct
    roots (the compiled CSR form ships once per worker and each worker
    runs a contiguous chunk of roots).  Without a pool the roots run
    in-process.  The returned mapping is identical either way — same
    trees, same first-seen key order.

    Returns
    -------
    dict
        ``root -> ShortestPathTree`` for every distinct root, in first-seen
        order.
    """
    # Imported here: repro.parallel's task module imports this one.
    from repro.parallel import run_sharded
    from repro.parallel.tasks import bfs_roots_task

    return run_sharded(
        bfs_roots_task,
        [_vertex_id(root) for root in roots],
        {"graph": ensure_csr(graph)},
        pool=pool,
    )


def connected_components(graph: GraphLike) -> List[List[int]]:
    """Connected components as sorted vertex lists, smallest vertex first.

    A single flat sweep over the CSR rows; used by the generators'
    connectivity checks and by tests that reason about disconnected inputs.
    """
    csr = ensure_csr(graph)
    rows = csr.rows
    n = csr.num_vertices
    seen = bytearray(n)
    components: List[List[int]] = []
    for start in range(n):
        if seen[start]:
            continue
        seen[start] = 1
        component = [start]
        frontier = [start]
        while frontier:
            nxt: List[int] = []
            push = nxt.append
            for u in frontier:
                for v in rows[u]:
                    if not seen[v]:
                        seen[v] = 1
                        push(v)
            component.extend(nxt)
            frontier = nxt
        component.sort()
        components.append(component)
    return components


def is_connected(graph: GraphLike) -> bool:
    """``True`` when the graph has at most one connected component."""
    csr = ensure_csr(graph)
    n = csr.num_vertices
    if n <= 1:
        return True
    dist = bfs_distances_csr(csr, 0)
    return dist.count(_INF) == 0
