"""Graph substrate: containers, BFS, shortest-path trees, generators.

The layer is organised around two interchangeable BFS substrates:

* **Dict/tuple BFS** (:mod:`repro.graph.bfs`) — the readable reference
  implementation over :class:`Graph`'s adjacency tuples.  It defines the
  semantics (canonical traversal order, ``bfs_distances``'s
  ``forbidden_edge``, ``bfs_tree``'s ``prefer_path``) and serves as the
  correctness oracle for the flat kernel.
* **CSR flat kernel** (:mod:`repro.graph.csr`) — a compressed-sparse-row
  view (``array('i')`` offset/neighbour arrays) compiled once per
  :class:`Graph` and cached on the instance via ``Graph.csr()``, plus
  frontier-based BFS kernels (:func:`bfs_distances_csr`,
  :func:`bfs_tree_csr`) that produce bit-identical distances, parents and
  orders.  All hot paths — solver preprocessing, the brute-force oracle,
  the Section 8 center pipeline — run on this kernel.

Use :func:`bfs_many` when you need trees from several roots of the *same*
graph (sources, landmarks, centers): it compiles/reuses the CSR form once
and amortises it across the whole batch, deduplicating repeated roots.  Use
single-shot :func:`bfs_tree` / :func:`bfs_tree_csr` for one-off traversals
or when you need a ``prefer_path`` variant, and :func:`bfs_distances` /
:func:`bfs_distances_csr` for distances with a ``forbidden_edge``.
The randomized property battery (``tests/test_property_battery.py``) pins
the two substrates to each other on every generator in
:mod:`repro.graph.generators`.

Tree queries have one answer: :class:`ShortestPathTree`'s parent array
names a tree edge's child (``edge_child``: ``(u, v)`` has child ``v`` when
``parent[v] == u`` and child ``u`` when ``parent[u] == v``), and its
preorder spans (``spans()``: ``pos[c] <= pos[v] < end[c]``, used by
``tree_path_uses_edge``) then decide Lemma 6's "does ``e`` lie on the tree
path to ``v``" in ``O(1)``; the subtree itself is
``preorder()[pos[c]:end[c]]``.
"""

from repro.graph.bfs import bfs_distances, bfs_tree
from repro.graph.csr import (
    CSRGraph,
    bfs_distances_csr,
    bfs_many,
    bfs_tree_csr,
    connected_components,
    is_connected,
)
from repro.graph.graph import Edge, Graph, normalize_edge
from repro.graph.tree import ShortestPathTree
from repro.graph import generators

__all__ = [
    "Edge",
    "Graph",
    "normalize_edge",
    "bfs_distances",
    "bfs_tree",
    "CSRGraph",
    "bfs_distances_csr",
    "bfs_tree_csr",
    "bfs_many",
    "connected_components",
    "is_connected",
    "ShortestPathTree",
    "generators",
]
