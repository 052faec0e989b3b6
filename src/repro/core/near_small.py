"""Small replacement paths avoiding near edges (paper Section 7.1).

For every source ``s`` the paper builds an *auxiliary graph* ``G_s``
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

**The zone and the repair.**  Write ``e = (p, ch)`` and ``N`` for the
near threshold.  The ``[t, e]`` nodes of one edge are the vertices of its
*zone* ``Z_e = {v in subtree(ch) : dist(v) < dist(ch) + N}``, and the
``[v]`` nodes that feed them are the vertices outside ``subtree(ch)``
(exactly those whose canonical path avoids ``e``).  So ``w[t, e]`` is
the shortest walk that starts at some ``v`` outside the subtree, at cost
``dist(v)``, steps into ``Z_e`` over an arc other than ``e`` and then
stays in ``Z_e``.  That is the subtree repair of ``e`` confined to its
zone: :func:`compute_near_small_tables` is one
:func:`repro.graph.repair.subtree_repair_distances` call with
``window=N``, ``O(sum_v deg(v) * min(depth(v), N))`` per source and no
auxiliary graph.  The paper's construction is kept as
:func:`compute_near_small_tables_reference`, built on the dict substrate
(:class:`~repro.rp.dijkstra.AuxiliaryGraphBuilder` and
:func:`~repro.rp.dijkstra.dijkstra` over the tuple nodes), like every
``_reference``; the two agree on every key, value and type
(``tests/test_property_battery.py``).

**The certificate.**  Let ``L = |st <> e|``.  Every vertex ``v`` of a
shortest ``s``-``t`` path in ``G - e`` has ``dist(v) <= L``.  If
``L < dist(ch) + N``, the part of that path after its last vertex
outside ``subtree(ch)`` lies in ``Z_e``, so ``w[t, e] <= L``; and
``w[t, e] >= L`` always.  Hence ``w[t, e] < dist(ch) + N`` implies
``w[t, e] = L``: the value certifies itself.  This is Lemma 10's
small/large split, checked per entry against the zone actually used.

A sharper bound certifies more: ``w[t, e] < 2(dist(ch) + N) - dist(t)``
implies ``w[t, e] = L``.  Let ``R`` be a shortest ``s``-``t`` path in
``G - e`` and ``x`` its last vertex outside ``subtree(ch)``.

* If ``R`` stays in ``Z_e`` after ``x``, the windowed repair offers
  ``dist(x)`` plus the part of ``R`` after ``x``, which is at most
  ``|R|``; so ``w[t, e] <= L``, and ``w[t, e] = L``.
* Otherwise ``R`` visits some ``u`` in ``subtree(ch)`` with
  ``dist(u) >= dist(ch) + N``.  The part of ``R`` up to ``u`` is at least
  ``dist(u)`` long and the rest at least ``d(u, t) >= dist(u) - dist(t)``,
  so ``L >= 2 dist(u) - dist(t) >= 2(dist(ch) + N) - dist(t)``.

So when ``w[t, e]`` is below that bound, ``L <= w[t, e]`` is too, no
shortest replacement path leaves the zone and the first case gives
``w[t, e] = L``.  Every near entry has ``dist(t) < dist(ch) + N``, so the
bound exceeds ``dist(ch) + N`` and certifies every entry the first one
does.  :func:`repro.core.msrp.solve_single_source` evaluates Algorithm 4
only on the entries the sharper bound does not cover.

The product tables are the kernel's ``PairEdgeTable`` itself, read with
``table.get((t, e), math.inf)``.  The reference returns a
:class:`NearSmallTables`, whose optional predecessor dict (the dict
Dijkstra's) reconstructs the corresponding walk in the original graph.
The solver never asks for it: only the Section 8.2.1 split
(:func:`repro.multisource.tables.compute_small_paths_through_centers`),
which seeds the paper-construction reference of the Section 8.2 tables,
needs those explicit walks to decide whether a small replacement path
passes through a given center.
"""

from __future__ import annotations

import math
from operator import index as _vertex_id
from typing import Dict, List, Optional, Sequence, Tuple

from repro.core.params import ProblemScale
from repro.exceptions import InvalidParameterError
from repro.graph.graph import Edge, Graph, normalize_edge
from repro.graph.repair import PairEdgeTable, subtree_repair_distances
from repro.graph.tree import ShortestPathTree
from repro.rp.dijkstra import AuxiliaryGraphBuilder, dijkstra, reconstruct_path

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
    """Output of the paper's Section 7.1 construction for one source.

    ``values`` is the ``(t, e) -> w[t, e]`` table, the shape
    :func:`compute_near_small_tables` returns.  When built by
    :func:`compute_near_small_tables_reference` with ``with_paths=True``
    the walk behind each value can be reconstructed, which the Section
    8.2.1 enumeration behind the reference Section 8.2 construction
    requires.
    """

    __slots__ = ("values", "_predecessors", "_tree")

    def __init__(
        self,
        values: PairEdgeTable,
        predecessors: Optional[Dict[Tuple, Tuple]] = None,
        tree: Optional[ShortestPathTree] = None,
    ):
        self.values = values
        self._predecessors = predecessors
        self._tree = tree

    def known_pairs(self) -> List[Tuple[int, Edge]]:
        """All ``(target, edge)`` pairs with a finite value.

        Filters with :func:`math.isinf` rather than identity against the
        ``math.inf`` singleton: an infinity produced by arithmetic (e.g.
        ``math.inf + 1`` or ``float("inf")``) is a *different* float object,
        and an identity test would silently treat it as finite.
        """
        return [key for key, val in self.values.items() if not math.isinf(val)]

    def walk(self, target: int, edge: Sequence[int]) -> List[int]:
        """Reconstruct the walk in ``G`` realising ``w[t, e]``.

        Only available when the tables were built with ``with_paths=True``.
        Returns an empty list when ``[t, e]`` is unreachable in ``G_s`` or
        is not a node of it.  The ``[s] -> [v]`` hop of the auxiliary path
        expands to the canonical ``s``-``v`` tree path and every ``[t, e]``
        node contributes its target vertex.
        """
        if self._predecessors is None or self._tree is None:
            raise InvalidParameterError(
                "NearSmallTables was built without path reconstruction support"
            )
        e = normalize_edge(_vertex_id(edge[0]), _vertex_id(edge[1]))
        aux_path = reconstruct_path(self._predecessors, _SRC, _ve_node(target, e))
        walk: List[int] = []
        for node in aux_path[1:]:
            if node[0] == "v":
                walk.extend(self._tree.path_to(node[1]))
            else:
                walk.append(node[1])
        return walk


def compute_near_small_tables(
    graph: Graph,
    source: int,
    tree: ShortestPathTree,
    scale: ProblemScale,
) -> PairEdgeTable:
    """The Section 7.1 values ``w[t, e]`` by windowed subtree repair.

    One :func:`subtree_repair_distances` call over every target with the
    near threshold as its window (module docstring).  The key set is
    every ``(t, e)`` with ``e`` near ``t``, as in
    :func:`compute_near_small_tables_reference`, and every value is a
    ``float``, ``math.inf`` itself when ``[t, e]`` is unreachable.
    """
    if tree.root != source:
        raise InvalidParameterError("tree must be rooted at the source")
    repaired = subtree_repair_distances(
        graph, tree, tree.order, math.inf, window=scale.near_threshold
    )
    # float() returns math.inf itself, so unreachable entries keep the
    # singleton the reference gives them.
    return {key: float(length) for key, length in repaired.items()}


def compute_near_small_tables_reference(
    graph: Graph,
    source: int,
    tree: ShortestPathTree,
    scale: ProblemScale,
    with_paths: bool = False,
) -> NearSmallTables:
    """Build ``G_s`` and run Dijkstra on it (the paper's Section 7.1).

    Returns a :class:`NearSmallTables` whose ``values`` equal the table of
    :func:`compute_near_small_tables`.

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

    builder = AuxiliaryGraphBuilder()

    # The (t, e) pairs with e near t, in tree order; each is a [t, e]
    # node, reached or not.
    near_edges: Dict[int, List[Edge]] = {}
    for target in tree.order:
        if target != source:
            edges = [e for e, _ in near_edges_from_target(tree, target, scale)]
            if edges:
                near_edges[target] = edges
    keys = [(target, e) for target, edges in near_edges.items() for e in edges]
    near = set(keys)
    for target, e in keys:
        builder.add_node(_ve_node(target, e))

    # [s] -> [v] edges.
    for v in tree.order:
        builder.add_edge(_SRC, _v_node(v), float(tree.dist[v]))

    # [v] -> [t, e] when the canonical s-v path avoids e, and
    # [v, e] -> [t, e] when e is near v; never over the arc e itself.
    for target, edges in near_edges.items():
        for neighbour in graph.neighbors(target):
            hop = normalize_edge(neighbour, target)
            for e in edges:
                if hop == e:
                    continue
                node = _ve_node(target, e)
                if not tree.tree_path_uses_edge(e, neighbour):
                    builder.add_edge(_v_node(neighbour), node, 1.0)
                if (neighbour, e) in near:
                    builder.add_edge(_ve_node(neighbour, e), node, 1.0)

    distances, predecessors = dijkstra(
        builder.adjacency(), _SRC, with_predecessors=with_paths
    )
    values = {key: distances.get(_ve_node(*key), math.inf) for key in keys}
    return NearSmallTables(
        values,
        predecessors=predecessors if with_paths else None,
        tree=tree if with_paths else None,
    )
