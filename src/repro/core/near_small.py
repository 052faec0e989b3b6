"""Small replacement paths avoiding near edges (paper Section 7.1).

For every source ``s`` the algorithm builds an *auxiliary graph* ``G_s``
that encodes, for every target ``t`` and every near edge ``e`` on the
canonical ``s``-``t`` path, the shortest replacement paths whose length is
at most ``|se| + 2 sqrt(n/sigma) log n`` ("small" replacement paths).  The
graph has

* a source node ``[s]``,
* a node ``[v]`` for every vertex ``v``,
* a node ``[t, e]`` for every near edge ``e`` on the canonical ``s``-``t``
  path,

and the edges

* ``[s] -> [v]`` with weight ``|sv|``,
* ``[v] -> [t, e]`` with weight 1 when ``v`` is a neighbour of ``t``, the
  canonical ``s``-``v`` path avoids ``e`` and ``(v, t) != e``,
* ``[v, e] -> [t, e]`` with weight 1 when ``v`` is a neighbour of ``t`` and
  ``(v, t) != e``.

One Dijkstra run from ``[s]`` then yields ``w[t, e]``, which Lemma 10 shows
equals ``|st <> e|`` whenever the replacement path is small.  Every
``[s]``-``[t, e]`` path of the auxiliary graph corresponds to a real walk of
the same length that avoids ``e`` (the ``(v, t) != e`` guards make this
sound), so the value is always a valid upper bound.

The optional predecessor tracking reconstructs the corresponding walk in the
original graph.  The solver never asks for it: only the Section 8.2.1 split
(:func:`repro.multisource.tables.compute_small_paths_through_centers`), which
seeds the paper-construction reference of the Section 8.2 tables, needs those
explicit walks to decide whether a small replacement path passes through a
given center.

Walk reconstruction runs on flat integer *id-paths*: the Dijkstra
predecessors are kept as the dense-id array the interned substrate already
produced (``pred[i]`` is the id of the predecessor of auxiliary node ``i``,
``-1`` when none), so climbing from a ``[t, e]`` node to the source is pure
integer reads — no tuple node is materialised per hop.  Only at the end of
the climb is each id on the path decoded once through the intern table
(``id -> original tuple node``) to emit the corresponding vertices of ``G``:
a ``[v]`` node expands to the canonical ``s``-``v`` tree path, a ``[t, e]``
node contributes its target vertex.  :meth:`NearSmallTables.walk_reference`
keeps the historical tuple-node reconstruction as the equivalence oracle.
"""

from __future__ import annotations

import math
from typing import Dict, List, Optional, Sequence, Tuple

from repro.core.params import ProblemScale
from repro.exceptions import InvalidParameterError
from repro.graph.graph import Edge, Graph, normalize_edge
from repro.graph.tree import ShortestPathTree
from repro.rp.dijkstra import (
    InternedAuxiliaryGraph,
    InternedPredecessors,
    reconstruct_path,
)

#: auxiliary-graph node tags
_SRC = ("src",)


def _v_node(v: int) -> Tuple[str, int]:
    return ("v", v)


def _ve_node(t: int, e: Edge) -> Tuple[str, int, Edge]:
    return ("ve", t, e)


def near_edges_from_target(
    tree: ShortestPathTree, target: int, scale: ProblemScale
) -> List[Tuple[Edge, int]]:
    """Near edges of the canonical root-``target`` path, walking up from ``t``.

    Returns ``(edge, distance_to_target)`` pairs ordered from ``t`` towards
    the root.  Only the last ``O(sqrt(n/sigma) log n)`` edges of the path are
    touched, which is what keeps the whole construction within the paper's
    size bound.
    """
    if not tree.is_reachable(target):
        return []
    result: List[Tuple[Edge, int]] = []
    vertex = target
    distance = 0
    limit = scale.near_threshold
    while distance < limit:
        parent = tree.parent[vertex]
        if parent is None:
            break
        result.append((normalize_edge(parent, vertex), distance))
        vertex = parent
        distance += 1
    return result


class NearSmallTables:
    """Output of the Section 7.1 construction for one source.

    ``value(t, e)`` returns ``w[t, e]`` (``inf`` when the auxiliary graph has
    no ``[s] -> [t, e]`` path).  When built with ``with_paths=True`` the
    corresponding walk in the original graph can be reconstructed, which the
    Section 8.2.1 enumeration behind the reference Section 8.2 construction
    requires.

    Path state (``with_paths=True`` only) is flat: ``predecessors`` is the
    interned Dijkstra's mapping view (its raw dense-id ``pred`` array and
    intern table back the id-path climb), ``ve_ids`` maps ``(t, e)`` to the
    dense id of the ``[t, e]`` node, and ``src_id`` is the id of ``[s]``.
    """

    __slots__ = (
        "source",
        "_values",
        "_predecessors",
        "_tree",
        "_ve_ids",
        "_src_id",
    )

    def __init__(
        self,
        source: int,
        values: Dict[Tuple[int, Edge], float],
        predecessors: Optional[InternedPredecessors] = None,
        tree: Optional[ShortestPathTree] = None,
        ve_ids: Optional[Dict[Tuple[int, Edge], int]] = None,
        src_id: int = 0,
    ):
        self.source = source
        self._values = values
        self._predecessors = predecessors
        self._tree = tree
        self._ve_ids = ve_ids
        self._src_id = src_id

    def value(self, target: int, edge: Sequence[int]) -> float:
        """Return ``w[t, e]`` (``math.inf`` when not reachable in ``G_s``)."""
        e = normalize_edge(int(edge[0]), int(edge[1]))
        return self._values.get((target, e), math.inf)

    def value_normalized(self, target: int, edge: Edge) -> float:
        """:meth:`value` for callers that already hold a normalised edge.

        The assembly sweep calls this once per (target, near edge) pair, so
        it skips the re-normalisation and goes straight to the table.
        """
        return self._values.get((target, edge), math.inf)

    def known_pairs(self) -> List[Tuple[int, Edge]]:
        """All ``(target, edge)`` pairs with a finite value.

        Filters with :func:`math.isinf` rather than identity against the
        ``math.inf`` singleton: an infinity produced by arithmetic (e.g.
        ``math.inf + 1`` or ``float("inf")``) is a *different* float object,
        and an identity test would silently treat it as finite.
        """
        return [key for key, val in self._values.items() if not math.isinf(val)]

    def walk(self, target: int, edge: Sequence[int]) -> List[int]:
        """Reconstruct the walk in ``G`` realising ``w[t, e]``.

        Only available when the tables were built with ``with_paths=True``.
        Returns an empty list when ``[t, e]`` is unreachable in ``G_s``.

        The reconstruction is the flat id-path climb described in the
        module docstring: predecessor ids are followed root-wards as plain
        integers, and each id on the path is decoded through the intern
        table exactly once, in walk order — no tuple node per hop.
        """
        predecessors = self._predecessors
        if predecessors is None or self._tree is None:
            raise InvalidParameterError(
                "NearSmallTables was built without path reconstruction support"
            )
        e = normalize_edge(int(edge[0]), int(edge[1]))
        node_id = self._ve_ids.get((target, e)) if self._ve_ids else None
        if node_id is None:
            return []
        pred = predecessors.pred_ids()
        src_id = self._src_id
        # Climb the dense-id predecessor array: integers only.
        id_path: List[int] = []
        i = node_id
        while i != src_id:
            p = pred[i]
            if p < 0:
                return []  # [t, e] unreached by the auxiliary Dijkstra
            id_path.append(i)
            i = p
        # Decode the ids through the intern table, source-to-target.
        nodes = predecessors.nodes()
        walk: List[int] = []
        extend = walk.extend
        path_to = self._tree.path_to
        for i in reversed(id_path):
            node = nodes[i]
            if node[0] == "v":
                # The [s] -> [v] hop stands for the canonical s-v tree path.
                extend(path_to(node[1]))
            else:  # "ve" node contributes its target vertex
                walk.append(node[1])
        return walk

    def walk_reference(self, target: int, edge: Sequence[int]) -> List[int]:
        """Tuple-node reference reconstruction of :meth:`walk`.

        The historical implementation: rebuild the auxiliary path as tuple
        nodes via :func:`reconstruct_path` (one tuple translation per hop)
        and expand it.  Kept as the equivalence oracle the property battery
        pins the id-path :meth:`walk` against.
        """
        if self._predecessors is None or self._tree is None:
            raise InvalidParameterError(
                "NearSmallTables was built without path reconstruction support"
            )
        e = normalize_edge(int(edge[0]), int(edge[1]))
        aux_path = reconstruct_path(self._predecessors, _SRC, _ve_node(target, e))
        if not aux_path:
            return []
        walk: List[int] = []
        for node in aux_path:
            if node == _SRC:
                continue
            kind = node[0]
            if kind == "v":
                # The [s] -> [v] hop stands for the canonical s-v tree path.
                walk.extend(self._tree.path_to(node[1]))
            else:  # "ve" node contributes its target vertex
                walk.append(node[1])
        return walk


def compute_near_small_tables(
    graph: Graph,
    source: int,
    tree: ShortestPathTree,
    scale: ProblemScale,
    with_paths: bool = False,
) -> NearSmallTables:
    """Build ``G_s`` and run Dijkstra on it (Section 7.1).

    Parameters
    ----------
    graph:
        The input graph.
    source:
        The source ``s``.
    tree:
        BFS tree rooted at ``source`` (defines the canonical paths).
    scale:
        Problem-scale quantities (near threshold).
    with_paths:
        Keep Dijkstra predecessors so walks can be reconstructed.
    """
    if tree.root != source:
        raise InvalidParameterError("tree must be rooted at the source")

    aux = InternedAuxiliaryGraph()
    src_id = aux.intern(_SRC)

    # Near edges per target, and dense ids for the existing [t, e] nodes.
    near_edges: Dict[int, List[Edge]] = {}
    ve_ids: Dict[Tuple[int, Edge], int] = {}
    for target in tree.order:
        if target == source:
            continue
        edges = [e for e, _ in near_edges_from_target(tree, target, scale)]
        if edges:
            near_edges[target] = edges
            for e in edges:
                ve_ids[(target, e)] = aux.intern(_ve_node(target, e))

    # [s] -> [v] edges.
    add_arc = aux.add_arc
    dist = tree.dist
    v_ids: Dict[int, int] = {}
    for v in tree.order:
        v_ids[v] = v_id = aux.intern(_v_node(v))
        add_arc(src_id, v_id, float(dist[v]))

    # [v] -> [t, e] and [v, e] -> [t, e] edges.  The "canonical s-v path
    # avoids e" guard is the tree's Euler-interval test, inlined over the
    # flat arrays (one dict get + two comparisons per pair).
    tec = tree.edge_child_map()
    tec_get = tec.get
    tin, tout = tree.euler_intervals()
    ve_get = ve_ids.get
    for target, edges in near_edges.items():
        for neighbour in graph.neighbors(target):
            hop = normalize_edge(neighbour, target)
            neighbour_v_id = v_ids.get(neighbour)
            t_n = tin[neighbour]
            for e in edges:
                if hop == e:
                    continue
                if neighbour_v_id is not None:
                    child = tec_get(e)
                    if child is None or not (tin[child] <= t_n <= tout[child]):
                        add_arc(neighbour_v_id, ve_ids[(target, e)], 1.0)
                ne_id = ve_get((neighbour, e))
                if ne_id is not None:
                    add_arc(ne_id, ve_ids[(target, e)], 1.0)

    distances, predecessors = aux.dijkstra(_SRC, with_predecessors=with_paths)

    values: Dict[Tuple[int, Edge], float] = {}
    by_id = distances.by_id
    for key, node_id in ve_ids.items():
        values[key] = by_id(node_id, math.inf)

    return NearSmallTables(
        source,
        values,
        predecessors=predecessors if with_paths else None,
        tree=tree if with_paths else None,
        ve_ids=ve_ids if with_paths else None,
        src_id=src_id,
    )
