"""Undirected, unweighted graph container used throughout the library.

The paper works exclusively with undirected, unweighted graphs whose
vertices we identify with the integers ``0 .. n-1``.  :class:`Graph` stores
adjacency lists, normalises edges to ``(min(u, v), max(u, v))`` tuples and
offers the handful of primitives the replacement-path algorithms need:
neighbour iteration, edge membership tests, and edge enumeration.

The container is deliberately minimal and immutable after construction; the
algorithms never mutate the input graph (edge deletions are simulated by the
traversals themselves), which keeps the whole library safe to use from
multiple threads and makes instances shareable between benchmark runs.
"""

from __future__ import annotations

from operator import index as _vertex_id
from typing import Iterable, Iterator, List, Sequence, Tuple

from repro.exceptions import GraphError

#: An undirected edge normalised so that the smaller endpoint comes first.
Edge = Tuple[int, int]


def normalize_edge(u: int, v: int) -> Edge:
    """Return the canonical representation of the undirected edge ``{u, v}``.

    The library represents every undirected edge as the tuple
    ``(min(u, v), max(u, v))`` so that dictionaries and sets keyed by edges
    behave consistently regardless of traversal direction.
    """
    return (u, v) if u <= v else (v, u)


class Graph:
    """A simple undirected, unweighted graph on vertices ``0 .. n-1``.

    Parameters
    ----------
    num_vertices:
        Number of vertices.  Vertices are the integers ``0 .. num_vertices-1``.
    edges:
        Iterable of ``(u, v)`` pairs.  Parallel edges are collapsed, self
        loops are rejected (they can never appear on a shortest path and the
        paper's model excludes them).

    Notes
    -----
    The adjacency lists are sorted, which makes traversal order (and hence
    every "canonical shortest path" the library talks about) deterministic
    for a given graph.  Vertex ids (and the count) pass ``operator.index``:
    ``3.7`` is refused, not truncated to ``3``, here and at every public
    entry point that takes a caller's vertex id.
    """

    __slots__ = ("_n", "_adj", "_edges", "_edge_set", "_csr")

    def __init__(self, num_vertices: int, edges: Iterable[Sequence[int]] = ()):
        self._n = _vertex_id(num_vertices)
        if self._n < 0:
            raise GraphError(f"num_vertices must be non-negative, got {num_vertices}")
        adjacency: List[set] = [set() for _ in range(self._n)]
        edge_set = set()
        for pair in edges:
            try:
                u, v = _vertex_id(pair[0]), _vertex_id(pair[1])
            except (TypeError, IndexError, ValueError) as exc:
                raise GraphError(f"edge {pair!r} is not a (u, v) pair") from exc
            if not (0 <= u < self._n and 0 <= v < self._n):
                raise GraphError(
                    f"edge ({u}, {v}) has an endpoint outside 0..{self._n - 1}"
                )
            if u == v:
                raise GraphError(f"self loop at vertex {u} is not allowed")
            e = normalize_edge(u, v)
            if e in edge_set:
                continue
            edge_set.add(e)
            adjacency[u].add(v)
            adjacency[v].add(u)
        self._adj: List[Tuple[int, ...]] = [tuple(sorted(s)) for s in adjacency]
        self._edges: Tuple[Edge, ...] = tuple(sorted(edge_set))
        self._edge_set = edge_set
        self._csr = None

    # -- basic accessors ---------------------------------------------------

    @property
    def num_vertices(self) -> int:
        """Number of vertices ``n``."""
        return self._n

    @property
    def num_edges(self) -> int:
        """Number of (undirected) edges ``m``."""
        return len(self._edges)

    def vertices(self) -> range:
        """Return the vertex ids as a :class:`range`."""
        return range(self._n)

    def edges(self) -> Tuple[Edge, ...]:
        """Return all edges as normalised ``(u, v)`` tuples with ``u < v``."""
        return self._edges

    def neighbors(self, v: int) -> Tuple[int, ...]:
        """Return the sorted neighbours of ``v``."""
        return self._adj[v]

    def degree(self, v: int) -> int:
        """Return the degree of ``v``."""
        return len(self._adj[v])

    def has_edge(self, u: int, v: int) -> bool:
        """Return ``True`` when the undirected edge ``{u, v}`` exists."""
        return normalize_edge(u, v) in self._edge_set

    def has_vertex(self, v: int) -> bool:
        """Return ``True`` when ``v`` is a valid vertex id."""
        return 0 <= v < self._n

    # -- convenience -------------------------------------------------------

    def csr(self):
        """Return the cached :class:`~repro.graph.csr.CSRGraph` view.

        The graph is immutable, so the flat compressed-sparse-row form is
        compiled at most once per instance and shared by every traversal.
        The BFS kernels in :mod:`repro.graph.csr` call this implicitly, so
        callers can keep passing plain :class:`Graph` objects to them.
        """
        csr = self._csr
        if csr is None:
            from repro.graph.csr import CSRGraph

            csr = CSRGraph.from_graph(self)
            self._csr = csr
        return csr

    def adjacency(self) -> List[Tuple[int, ...]]:
        """Return the adjacency structure as a list of neighbour tuples.

        The returned list is a shallow copy; the neighbour tuples themselves
        are immutable.
        """
        return list(self._adj)

    def copy(self) -> "Graph":
        """Return a structural copy of the graph."""
        return Graph(self._n, self._edges)

    def subgraph_without_edge(self, edge: Sequence[int]) -> "Graph":
        """Return a new graph equal to ``G - e``.

        This is used only by brute-force baselines and tests; the efficient
        algorithms never materialise ``G - e``.
        """
        e = normalize_edge(_vertex_id(edge[0]), _vertex_id(edge[1]))
        if e not in self._edge_set:
            raise GraphError(f"edge {e} is not present in the graph")
        return Graph(self._n, (f for f in self._edges if f != e))

    def __contains__(self, item: object) -> bool:
        if isinstance(item, int):
            return self.has_vertex(item)
        if isinstance(item, tuple) and len(item) == 2:
            return self.has_edge(int(item[0]), int(item[1]))
        return False

    def __iter__(self) -> Iterator[int]:
        return iter(range(self._n))

    def __len__(self) -> int:
        return self._n

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Graph):
            return NotImplemented
        return self._n == other._n and self._edges == other._edges

    def __hash__(self) -> int:
        return hash((self._n, self._edges))

    def __repr__(self) -> str:  # pragma: no cover - debugging helper
        return f"Graph(n={self._n}, m={self.num_edges})"

    # -- pickling ----------------------------------------------------------

    def __getstate__(self):
        """Compact pickled form: adjacency rows + edge tuple, no caches.

        The cached CSR view is dropped (the receiving process recompiles it
        lazily on first traversal) and the edge *set* is rebuilt from the
        edge tuple on restore, so the wire format carries each edge once.
        This is what ships a graph to pool workers under the ``spawn``
        start method.
        """
        return (self._n, self._adj, self._edges)

    def __setstate__(self, state) -> None:
        self._n, self._adj, self._edges = state
        self._edge_set = set(self._edges)
        self._csr = None

    # -- constructors ------------------------------------------------------

    @classmethod
    def from_edge_list(cls, edges: Iterable[Sequence[int]]) -> "Graph":
        """Build a graph whose vertex count is inferred from the edge list."""
        edge_list = [(_vertex_id(u), _vertex_id(v)) for u, v in edges]
        n = 1 + max((max(u, v) for u, v in edge_list), default=-1)
        return cls(n, edge_list)

    @classmethod
    def from_adjacency(cls, adjacency: Sequence[Sequence[int]]) -> "Graph":
        """Build a graph from a symmetric adjacency-list representation.

        The input must be a genuine undirected adjacency structure:
        ``adjacency[u]`` contains ``v`` if and only if ``adjacency[v]``
        contains ``u``.  One-sided entries (which an earlier version of this
        constructor silently promoted to edges, at ``O(deg)`` membership
        cost per check) now raise :class:`~repro.exceptions.GraphError`, as
        do self loops and out-of-range neighbours, so a malformed input can
        no longer round-trip into a graph that disagrees with it.
        ``Graph.from_adjacency(g.adjacency())`` reconstructs ``g`` exactly.
        """
        n = len(adjacency)
        neighbor_sets: List[set] = []
        for u, nbrs in enumerate(adjacency):
            row = set()
            for v in nbrs:
                v = _vertex_id(v)
                if not 0 <= v < n:
                    raise GraphError(
                        f"adjacency[{u}] lists {v}, outside 0..{n - 1}"
                    )
                if v == u:
                    raise GraphError(f"self loop at vertex {u} is not allowed")
                row.add(v)
            neighbor_sets.append(row)
        edges = []
        for u, row in enumerate(neighbor_sets):
            for v in row:
                if u not in neighbor_sets[v]:
                    raise GraphError(
                        f"asymmetric adjacency: {v} in adjacency[{u}] "
                        f"but {u} not in adjacency[{v}]"
                    )
                if u < v:
                    edges.append((u, v))
        return cls(n, edges)
