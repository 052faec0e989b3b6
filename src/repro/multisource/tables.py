"""Replacement paths source->center and center->landmark (Sections 8.1-8.2).

These two table families are the ingredients of the *minimum through
centers* term (Definition 17) of the path cover lemma:

* :func:`compute_source_to_center_tables` — for one source ``s``, the
  exact ``d(s, c, e)`` for every center ``c`` and every edge ``e`` among the
  first ``O~(2^k sqrt(n/sigma))`` edges of the canonical ``c``-``s`` path
  (``k`` = priority of ``c``).  It repairs the source's BFS tree once per
  tree edge above a center (:mod:`repro.graph.repair`), for
  ``O(sum_v deg(v) * depth_s(v))`` per source.
* :func:`compute_center_to_landmark_tables` — for one center ``c``, the
  exact ``d(c, r, e)`` for every given landmark ``r`` and every edge ``e``
  among the first ``O~(2^k sqrt(n/sigma))`` edges of the canonical
  ``c``-``r`` path.  The pipeline gives a center only the landmarks that
  MTC reads it for
  (:func:`repro.multisource.bottleneck.center_table_readers`): the ``r``
  whose canonical path from some source starts a Definition 15 interval
  at ``c``.  Centers that start no interval get no table.  On the
  ``sparse-aux`` benchmark instances that is 586-733 of 14,030-16,492
  ``(c, r)`` pairs, 50-68 of 115-133 centers and ~1.7k of ~45k entries.
  It repairs the center's BFS tree once per budgeted tree edge above a
  given landmark (:mod:`repro.graph.repair`), for at most ``O(sum_v
  deg(v) * min(depth_c(v), budget))`` per center.
* :func:`compute_source_to_center_tables_reference` — the paper's own
  Section 8.1 construction (an auxiliary graph of ``[c]`` and ``[c, e]``
  nodes seeded by the Section 7.1 small replacement paths).  Its values
  are realisable walks, so never below the exact tables.
* :func:`compute_center_to_landmark_tables_reference` — the paper's own
  Section 8.2 construction (Bernstein–Karger auxiliary graph ``G_c``, seeded
  by the Section 8.2.1 split of small replacement paths,
  :func:`compute_small_paths_through_centers`).  Its values are realisable
  walks, so never below the exact tables.  The differential battery pins
  both one-sided relations.
"""

from __future__ import annotations

import math
from operator import index as _vertex_id
from typing import Dict, Iterable, List, Mapping, Optional, Sequence, Tuple

from repro.core.near_small import NearSmallTables
from repro.core.params import ProblemScale
from repro.graph.graph import Edge, Graph, normalize_edge
from repro.graph.repair import PairEdgeTable, subtree_repair_distances
from repro.graph.tree import ShortestPathTree
from repro.multisource.centers import CenterHierarchy
from repro.rp.dijkstra import AuxiliaryGraphBuilder, dijkstra


def _edges_towards_root(
    tree: ShortestPathTree, vertex: int, limit: int
) -> List[Edge]:
    """First ``limit`` edges of the canonical ``vertex``-to-root path.

    The edges are returned starting at ``vertex`` and moving towards the
    root, which matches the paper's "first edges on the ``c s`` path".
    """
    edges: List[Edge] = []
    current = vertex
    while len(edges) < limit:
        parent = tree.parent[current]
        if parent is None:
            break
        edges.append(normalize_edge(parent, current))
        current = parent
    return edges


def _first_edges_from_root(
    tree: ShortestPathTree, vertex: int, limit: int
) -> List[Edge]:
    """First ``limit`` edges of the canonical root-to-``vertex`` path."""
    if not tree.is_reachable(vertex):
        return []
    path = tree.path_to(vertex)
    count = min(limit, len(path) - 1)
    return [normalize_edge(path[i], path[i + 1]) for i in range(count)]


# ---------------------------------------------------------------------------
# Section 8.1 — replacement paths from a source to every center
# ---------------------------------------------------------------------------


def compute_source_to_center_tables(
    graph: Graph,
    source: int,
    source_tree: ShortestPathTree,
    centers: CenterHierarchy,
    scale: ProblemScale,
) -> PairEdgeTable:
    """Exact Section 8.1 tables ``d(s, c, e)`` for one source.

    Returns ``(center, edge) -> length`` for every center ``c`` reachable
    from ``source`` and every edge among the first
    ``interval_edge_budget(priority(c))`` edges of the canonical
    ``c``-``source`` path, counted from ``c``: the restriction of
    :func:`repro.graph.repair.subtree_repair_distances` on the source tree
    to those keys, as floats.  The lengths are exact, so what Lemmas 19
    and 20 give the paper's construction with high probability holds
    deterministically, and the Section 7.1 tables are not needed.  Cost
    ``O(sum_v deg(v) * depth_s(v))``.
    """
    node_edges: Dict[int, List[Edge]] = {}
    for center in sorted(centers.all):
        if source_tree.is_reachable(center):
            budget = scale.interval_edge_budget(centers.priority_of(center))
            node_edges[center] = _edges_towards_root(source_tree, center, budget)
    # The deepest budgeted edge of a center is the one entering it.
    max_depth = max((source_tree.dist[c] for c in node_edges), default=0)
    repaired = subtree_repair_distances(graph, source_tree, node_edges, max_depth)
    return {
        (center, e): float(repaired[(center, e)])
        for center, edges in node_edges.items()
        for e in edges
    }


def compute_source_to_center_tables_reference(
    graph: Graph,
    source: int,
    source_tree: ShortestPathTree,
    centers: CenterHierarchy,
    center_trees: Mapping[int, ShortestPathTree],
    scale: ProblemScale,
    near_small: PairEdgeTable,
) -> PairEdgeTable:
    """The paper's Section 8.1 construction of the source->center tables.

    Materialises the auxiliary graph of Section 8.1 — ``[c]`` and
    ``[c, e]`` nodes, seeded by the small replacement paths of the
    source's Section 7.1 table ``near_small`` — on the dict-based
    :class:`AuxiliaryGraphBuilder` with one :meth:`tree_path_uses_edge`
    tree-predicate call per query.  Every
    auxiliary path is a real walk avoiding the edge, so each value is at
    least the exact :func:`compute_source_to_center_tables` value, over the
    same keys; the differential fuzz battery pins that one-sided relation.
    Completeness holds with high probability (Lemmas 19 and 20).
    """
    builder = AuxiliaryGraphBuilder()
    src_node = ("s",)
    builder.add_node(src_node)

    reachable_centers: List[int] = []
    node_edges: Dict[int, List[Edge]] = {}
    for center in sorted(centers.all):
        if not source_tree.is_reachable(center):
            continue
        reachable_centers.append(center)
        budget = scale.interval_edge_budget(centers.priority_of(center))
        node_edges[center] = _edges_towards_root(source_tree, center, budget)

    for center in reachable_centers:
        builder.add_edge(
            src_node, ("c", center), float(source_tree.dist[center])
        )
        for e in node_edges[center]:
            small_value = near_small.get((center, e), math.inf)
            if small_value != math.inf:
                builder.add_edge(src_node, ("ce", center, e), small_value)

    for other in reachable_centers:
        other_tree = center_trees[other]
        other_edge_set = set(node_edges[other])
        for center in reachable_centers:
            if not other_tree.is_reachable(center):
                continue
            hop = float(other_tree.dist[center])
            for e in node_edges[center]:
                if other_tree.tree_path_uses_edge(e, center):
                    continue
                if not source_tree.tree_path_uses_edge(e, other):
                    builder.add_edge(("c", other), ("ce", center, e), hop)
                if e in other_edge_set:
                    builder.add_edge(("ce", other, e), ("ce", center, e), hop)

    dist, _ = dijkstra(builder.adjacency(), src_node)
    table: PairEdgeTable = {}
    for center, edges in node_edges.items():
        for e in edges:
            table[(center, e)] = dist.get(("ce", center, e), math.inf)
    return table


# ---------------------------------------------------------------------------
# Section 8.2.1 — small replacement paths passing through a center
# ---------------------------------------------------------------------------


def compute_small_paths_through_centers(
    sources: Sequence[int],
    landmarks: Iterable[int],
    near_small_with_paths: Mapping[int, NearSmallTables],
    centers: CenterHierarchy,
) -> Dict[int, Dict[Tuple[int, Edge], float]]:
    """Enumerate small replacement paths and split them at centers (8.2.1).

    For every source ``s``, landmark ``r`` and near edge ``e`` with a finite
    Section 7.1 value, the realised walk is reconstructed; for every center
    ``c`` on the walk the length of the walk's suffix from (the last
    occurrence of) ``c`` to ``r`` is recorded.  The result maps each center
    to ``(landmark, edge) -> suffix length`` and seeds the ``[c] -> [r, e]``
    edges of the paper's Section 8.2 auxiliary graphs
    (:func:`compute_center_to_landmark_tables_reference`).  The walks need
    tables built by
    :func:`repro.core.near_small.compute_near_small_tables_reference` with
    ``with_paths=True``.
    """
    landmark_set = set(map(_vertex_id, landmarks))
    through: Dict[int, Dict[Tuple[int, Edge], float]] = {}
    for s in sources:
        tables = near_small_with_paths[s]
        for (target, e) in tables.known_pairs():
            if target not in landmark_set:
                continue
            walk = tables.walk(target, e)
            if not walk:
                continue
            last_position: Dict[int, int] = {}
            for position, vertex in enumerate(walk):
                if centers.is_center(vertex):
                    last_position[vertex] = position
            walk_length = len(walk) - 1
            for center, position in last_position.items():
                suffix = float(walk_length - position)
                per_center = through.setdefault(center, {})
                key = (target, e)
                if suffix < per_center.get(key, math.inf):
                    per_center[key] = suffix
    return through


# ---------------------------------------------------------------------------
# Section 8.2 — replacement paths from a center to every landmark
# ---------------------------------------------------------------------------


def compute_center_to_landmark_tables(
    graph: Graph,
    center: int,
    center_tree: ShortestPathTree,
    priority: int,
    landmarks: Iterable[int],
    scale: ProblemScale,
) -> PairEdgeTable:
    """Exact Section 8.2 tables ``d(c, r, e)`` for one center.

    Returns ``(landmark, edge) -> length`` for every reachable landmark
    ``r != center`` of ``landmarks`` and every edge among the first
    ``interval_edge_budget(priority)`` edges of the canonical
    ``center``-``landmark`` path: the restriction of
    :func:`repro.graph.repair.subtree_repair_distances` to the landmarks
    and the budget, as floats.  A landmark's keys and values do not depend
    on which other landmarks are given.  The pipeline passes the landmarks
    whose ``(center, r)`` pair MTC reads
    (:func:`repro.multisource.bottleneck.center_table_readers`), not the
    whole landmark set.  The lengths are exact, so Lemma 22 (the table is
    no longer than the suffix of any replacement path through the center)
    holds deterministically.  Only the subtrees holding a given landmark
    are repaired, at most ``O(sum_v deg(v) * min(depth_c(v), budget))``.
    """
    budget = scale.interval_edge_budget(priority)
    repaired = subtree_repair_distances(graph, center_tree, landmarks, budget)
    return {key: float(length) for key, length in repaired.items()}


def compute_center_to_landmark_tables_reference(
    center: int,
    center_tree: ShortestPathTree,
    priority: int,
    landmarks: Iterable[int],
    landmark_trees: Mapping[int, ShortestPathTree],
    scale: ProblemScale,
    small_through: Optional[Mapping[Tuple[int, Edge], float]] = None,
) -> PairEdgeTable:
    """The paper's Section 8.2 construction of the center->landmark tables.

    Materialises the Bernstein–Karger auxiliary graph ``G_c`` — explicit
    ``[r]`` nodes and all four arc families, seeded by the Section 8.2.1
    suffixes ``small_through`` — on the dict-based
    :class:`AuxiliaryGraphBuilder` with per-query tree predicates.  Every
    auxiliary path is a real walk avoiding the edge, so each value is at
    least the exact :func:`compute_center_to_landmark_tables` value, over
    the same keys; the differential fuzz battery pins that one-sided
    relation.  The graph only composes canonical landmark-to-landmark paths
    and small-path suffixes, so it misses the optimum whenever the sampled
    landmarks do not cover a replacement path.
    """
    small_through = small_through or {}
    budget = scale.interval_edge_budget(priority)

    builder = AuxiliaryGraphBuilder()
    src_node = ("c",)
    builder.add_node(src_node)

    reachable_landmarks: List[int] = []
    node_edges: Dict[int, List[Edge]] = {}
    for landmark in sorted(set(map(_vertex_id, landmarks))):
        if not center_tree.is_reachable(landmark) or landmark == center:
            continue
        reachable_landmarks.append(landmark)
        node_edges[landmark] = _first_edges_from_root(center_tree, landmark, budget)

    for landmark in reachable_landmarks:
        builder.add_edge(
            src_node, ("r", landmark), float(center_tree.dist[landmark])
        )
        for e in node_edges[landmark]:
            small_value = small_through.get((landmark, e), math.inf)
            if small_value != math.inf:
                builder.add_edge(src_node, ("re", landmark, e), small_value)

    for other in reachable_landmarks:
        other_tree = landmark_trees[other]
        other_edge_set = set(node_edges[other])
        for landmark in reachable_landmarks:
            if not other_tree.is_reachable(landmark):
                continue
            hop = float(other_tree.dist[landmark])
            for e in node_edges[landmark]:
                if other_tree.tree_path_uses_edge(e, landmark):
                    continue
                if not center_tree.tree_path_uses_edge(e, other):
                    builder.add_edge(("r", other), ("re", landmark, e), hop)
                if e in other_edge_set:
                    builder.add_edge(("re", other, e), ("re", landmark, e), hop)

    dist, _ = dijkstra(builder.adjacency(), src_node)
    table: PairEdgeTable = {}
    for landmark, edges in node_edges.items():
        for e in edges:
            table[(landmark, e)] = dist.get(("re", landmark, e), math.inf)
    return table
