"""Shortest-path (BFS) trees and constant-time structural queries on them.

Every phase of the replacement-path algorithms reasons about *canonical*
shortest paths, which we fix to be the paths of a breadth-first-search tree
rooted at the relevant vertex (a source, a landmark, or a center).  The
:class:`ShortestPathTree` produced by :func:`repro.graph.bfs.bfs_tree`
therefore carries, besides parents and distances, each vertex's *span*:
its position ``pos[v]`` in a preorder of the tree and the end
``end[v] = pos[v] + |subtree(v)|`` of its subtree's run.  A subtree is one
contiguous run of the preorder, ``preorder()[pos[v]:end[v]]``, so ``x``
lies in ``subtree(v)`` iff ``pos[v] <= pos[x] < end[v]``.  That one test
answers, in ``O(1)``, the tree question of Sections 6-8 of the paper
(Lemma 6's ancestor query): ``tree_path_uses_edge(e, x)`` — does the tree
path root ``->`` ``x`` use the tree edge ``e``? — tests ``x`` against the
span of ``e``'s child.

Laziness contract
-----------------
Construction stores only the three flat arrays BFS already produced —
``parent``, ``dist`` and ``order`` — and *adopts* them when they are plain
lists (no copy).  The spans and the preorder are materialised on first use
and cached for the lifetime of the tree:

* a tree that only ever answers ``distance`` / ``path_to`` /
  ``edge_child`` / ``deepest_path_ancestor_indices`` queries (oracle
  distance tables, many center trees) never builds any derived structure;
* the first subtree query (``spans()``, ``tree_path_uses_edge``,
  ``distance_avoiding`` on a tree edge, ``preorder()``) builds the spans
  once, in ``O(n)``.

A tree edge's child needs no derived structure: the parent array answers
it.  An edge ``(u, v)`` whose endpoints are both vertices is a tree edge
with child ``v`` when ``parent[v] == u``, with child ``u`` when
``parent[u] == v``, and no tree edge otherwise.  The range check comes
first, because a bare ``parent[-1]`` read would answer for the last vertex.

The flat arrays themselves are part of the public surface: hot loops are
encouraged to grab ``parent``, ``spans()`` and ``preorder()`` once and
index them directly instead of paying a method call per query.
"""

from __future__ import annotations

import math
from operator import index as _vertex_id
from typing import List, Optional, Sequence, Tuple

from repro.exceptions import GraphError, NotOnPathError
from repro.graph.graph import Edge, normalize_edge


class ShortestPathTree:
    """A rooted shortest-path tree with O(1) subtree and path-edge queries.

    Instances are produced by :func:`repro.graph.bfs.bfs_tree` and
    :func:`repro.graph.csr.bfs_tree_csr`; the constructor is considered
    internal but is exercised directly by unit tests.

    Parameters
    ----------
    root:
        Root vertex of the tree.
    parent:
        ``parent[v]`` is the BFS parent of ``v`` (``None`` for the root and
        for vertices unreachable from the root).
    dist:
        ``dist[v]`` is the hop distance from ``root`` to ``v``
        (``math.inf`` for unreachable vertices).
    order:
        Vertices in the order BFS dequeued them (root first).  Used by
        callers that need a top-down traversal order.

    Notes
    -----
    List arguments are adopted without copying — the BFS kernels hand their
    freshly built arrays straight over.  Derived structures (spans,
    preorder) are built lazily; see the module docstring for
    the exact contract.
    """

    __slots__ = (
        "root",
        "parent",
        "dist",
        "order",
        "_pos",
        "_end",
        "_preorder",
    )

    def __init__(
        self,
        root: int,
        parent: Sequence[Optional[int]],
        dist: Sequence[float],
        order: Sequence[int],
    ):
        self.parent: List[Optional[int]] = (
            parent if type(parent) is list else list(parent)
        )
        self.dist: List[float] = dist if type(dist) is list else list(dist)
        self.order: List[int] = order if type(order) is list else list(order)
        if not (0 <= root < len(self.parent)):
            raise GraphError(
                f"root {root} outside vertex range 0..{len(self.parent) - 1}"
            )
        self.root = root
        # Derived structures; ``None`` until the first query that needs them.
        self._pos: Optional[List[int]] = None
        self._end: Optional[List[int]] = None
        self._preorder: Optional[List[int]] = None

    # -- lazy construction helpers ------------------------------------------

    def _build_spans(self) -> Tuple[List[int], List[int]]:
        """Compute every vertex's preorder span without running a DFS.

        A subtree with ``k`` vertices occupies ``k`` consecutive preorder
        positions, and the children of ``v`` own consecutive blocks
        starting right after ``v``, in the order ``order`` visits them.
        Two linear sweeps over ``order`` (which lists parents before
        children — the only property this relies on) therefore place
        every vertex: subtree sizes bottom-up, then blocks top-down.  For
        plain BFS trees this is the preorder of a DFS over the child
        lists; ``prefer_path``-reparented trees may order siblings
        differently (the spans stay correct, the exact positions are not
        part of the contract).  Unreachable vertices keep the ``-1``
        sentinel in both arrays, which makes every span test against them
        fail — exactly the answer structural queries need.
        """
        n = len(self.parent)
        parent = self.parent
        order = self.order
        # Bottom-up subtree sizes (children appear after parents in order).
        size = [1] * n
        for v in reversed(order):
            p = parent[v]
            if p is not None:
                size[p] += size[v]
        # Top-down block assignment.  Once v is placed, size[v] is reused
        # as the next free position inside v's run.
        pos = [-1] * n
        end = [-1] * n
        root = self.root
        pos[root] = 0
        end[root] = size[root]
        size[root] = 1
        for v in order:
            p = parent[v]
            if p is None:
                continue
            start = size[p]
            pos[v] = start
            end[v] = size[p] = start + size[v]
            size[v] = start + 1
        self._pos = pos
        self._end = end
        return pos, end

    # -- flat-array accessors for hot loops ----------------------------------

    def spans(self) -> Tuple[List[int], List[int]]:
        """The ``(pos, end)`` preorder spans (cached; ``-1`` = unreachable).

        ``x`` lies in the subtree of ``v`` iff ``pos[v] <= pos[x] < end[v]``,
        and that subtree is ``preorder()[pos[v]:end[v]]``.
        """
        pos = self._pos
        if pos is None:
            return self._build_spans()
        return pos, self._end  # type: ignore[return-value]

    def preorder(self) -> List[int]:
        """The reachable vertices in preorder, root first (cached).

        Filled from ``pos`` in ``O(n)``.  Consumers that walk the tree
        top-down (the assembly sweep, the result's subtree slices, the
        repair kernel) share this instead of re-deriving it.
        """
        preorder = self._preorder
        if preorder is None:
            pos, _ = self.spans()
            preorder = self._preorder = [0] * len(self.order)
            for v in self.order:
                preorder[pos[v]] = v
        return preorder

    # -- pickling ------------------------------------------------------------

    def __getstate__(self):
        """Ship only the three flat BFS arrays; derived caches rebuild lazily.

        The spans and the preorder are both ``O(n)`` to
        rematerialise and usually *larger* than the
        arrays they derive from, so a pickled tree (a checkpoint journal
        record) holds exactly what BFS produced.  A reader that only
        answers distance-style queries never rebuilds anything — the
        laziness contract survives the round trip.
        """
        return (self.root, self.parent, self.dist, self.order)

    def __setstate__(self, state) -> None:
        root, parent, dist, order = state
        # Unpickling materialises *new* float objects, but several hot
        # paths (``distance_avoiding``, the Section 8 arc loops) test
        # unreachability with ``is math.inf``
        # against the singleton.  Re-canonicalise so identity semantics are
        # indistinguishable from a locally built tree.
        inf = math.inf
        self.root = root
        self.parent = parent
        self.dist = [inf if d == inf else d for d in dist]
        self.order = order
        self._pos = None
        self._end = None
        self._preorder = None

    @property
    def has_structural_cache(self) -> bool:
        """``True`` once any query materialised a derived structure.

        Exposed for tests pinning the laziness contract; not used by the
        algorithms themselves.
        """
        return self._pos is not None

    # -- basic accessors ----------------------------------------------------

    @property
    def num_vertices(self) -> int:
        """Number of vertices of the underlying graph (not of the tree)."""
        return len(self.parent)

    def distance(self, v: int) -> float:
        """Hop distance from the root to ``v`` (``math.inf`` if unreachable)."""
        return self.dist[v]

    def is_reachable(self, v: int) -> bool:
        """Return ``True`` when ``v`` is in the same component as the root."""
        return v == self.root or self.parent[v] is not None

    # -- structural queries --------------------------------------------------

    def edge_child(self, edge: Sequence[int]) -> Optional[int]:
        """Return the lower (child) endpoint of a tree edge, or ``None``.

        For a tree edge ``(p, c)`` with ``p = parent[c]`` the child ``c`` is
        the endpoint farther from the root; its subtree is exactly the set of
        vertices whose root path uses the edge.  The parent array answers
        it (module docstring); an endpoint outside the vertex range is no
        tree edge.  Endpoints are coerced with ``operator.index``, so
        ``(0.5, 1.2)`` is refused (``TypeError``) instead of truncated to
        ``(0, 1)``.
        """
        u, v = _vertex_id(edge[0]), _vertex_id(edge[1])
        parent = self.parent
        n = len(parent)
        if 0 <= u < n and 0 <= v < n:
            if parent[v] == u:
                return v
            if parent[u] == v:
                return u
        return None

    def tree_path_uses_edge(self, edge: Sequence[int], target: int) -> bool:
        """Does the canonical root->``target`` path use the edge ``edge``?

        Non-tree edges are never used by tree paths; for a tree edge the
        answer is a subtree-membership test on its child endpoint.  The
        ``-1`` sentinel of unreachable targets fails the lower span bound
        (every tree-edge child has ``pos >= 1``), so no reachability
        pre-check is needed.  Endpoints are coerced like
        :meth:`edge_child`'s.
        """
        child = self.edge_child(edge)
        if child is None:
            return False
        pos, end = self.spans()
        return pos[child] <= pos[target] < end[child]

    def distance_avoiding(self, edge: Edge, target: int) -> float:
        """Root-``target`` distance when the canonical path avoids ``edge``.

        Fused form of ``distance`` + ``tree_path_uses_edge`` for the hot
        Algorithm-4 scans: returns ``dist[target]`` when the canonical
        root->``target`` path avoids ``edge`` and ``math.inf`` when the path
        uses it or ``target`` is unreachable.  Endpoints are coerced like
        :meth:`edge_child`'s.
        """
        d = self.dist[target]
        if d is math.inf:
            return d
        child = self.edge_child(edge)
        if child is not None:
            pos = self._pos
            if pos is None:
                pos, end = self._build_spans()
            else:
                end = self._end
            if pos[child] <= pos[target] < end[child]:
                return math.inf
        return d

    def path_to(self, target: int) -> List[int]:
        """Return the canonical root->``target`` path as a vertex list.

        Raises
        ------
        NotOnPathError
            If ``target`` is unreachable from the root.
        """
        if not self.is_reachable(target):
            raise NotOnPathError(
                f"vertex {target} is unreachable from root {self.root}"
            )
        path = [target]
        v = target
        while v != self.root:
            v = self.parent[v]  # type: ignore[assignment]
            path.append(v)
        path.reverse()
        return path

    def path_edges_to(self, target: int) -> List[Edge]:
        """Return the edges of the canonical root->``target`` path, ordered
        from the root towards ``target`` and normalised."""
        path = self.path_to(target)
        return [normalize_edge(path[i], path[i + 1]) for i in range(len(path) - 1)]

    def deepest_path_ancestor_indices(self, path: Sequence[int]) -> List[int]:
        """For every vertex return the index of its deepest ancestor on ``path``.

        ``path`` must be a root-to-vertex tree path (``path[0] == root``).
        The returned list ``a`` satisfies: ``a[x]`` is the largest index ``j``
        such that ``path[j]`` is an ancestor of ``x``, or ``-1`` when ``x`` is
        unreachable.  Computed in a single top-down sweep, ``O(n)``, using
        only ``parent``/``order`` — it never touches the lazy caches.

        This is the quantity the classical replacement-path algorithm uses to
        decide, for every failed path edge ``e_i``, whether the canonical
        root->``x`` path avoids ``e_i`` (it does iff ``a[x] <= i``).
        """
        if not path or path[0] != self.root:
            raise NotOnPathError("path must start at the tree root")
        n = self.num_vertices
        index_on_path = {v: i for i, v in enumerate(path)}
        result = [-1] * n
        for v in self.order:
            if v in index_on_path:
                result[v] = index_on_path[v]
            else:
                p = self.parent[v]
                result[v] = result[p] if p is not None else -1
        return result

    def reachable_vertices(self) -> List[int]:
        """Return the vertices reachable from the root (the BFS order)."""
        return list(self.order)

    def __repr__(self) -> str:  # pragma: no cover - debugging helper
        reachable = len(self.order)
        return (
            f"ShortestPathTree(root={self.root}, n={self.num_vertices}, "
            f"reachable={reachable})"
        )

