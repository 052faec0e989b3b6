"""Path cover lemma, MTC terms and bottleneck edges (Sections 8.3, Lemmas 16-25).

For an edge ``e`` lying in the interval ``[c1, c2]`` of a canonical
``s``-``r`` path, the path cover lemma (Lemma 16 / 24) states::

    sr <> e = min( |s c1| + (c1 r <> e),          # passes through c1
                   (s c2 <> e) + |c2 r|,          # passes through c2
                   sr <> B[s, r, i] )             # avoids the interval

The first two terms are the *minimum through centers* (MTC, Definition 17)
and come from the Section 8.1/8.2 tables; the third term avoids the
interval's *bottleneck edge* ``B[s, r, i]`` — the edge of the interval whose
replacement path is longest — and is computed by one more auxiliary-graph
Dijkstra per source (Section 8.3.2, Lemma 25).

This module provides:

* :class:`MTCEvaluator` — evaluates MTC terms with the proper fallbacks
  ("the failed edge is not on the canonical path, so the plain distance is
  realisable").
* :func:`center_table_readers` — the ``(center, landmark)`` pairs of the
  Section 8.2 tables that :meth:`MTCEvaluator.mtc` can read, so only
  those are built.
* :func:`find_bottleneck_edges` — Section 8.3.1, the MTC value of every
  edge of a canonical path and the per-interval argmax.  It is the only
  product caller of :meth:`MTCEvaluator.mtc`: the Section 8.3 builder and
  the assembly read the values it returns, so each term is evaluated once.
* :func:`compute_interval_avoiding_tables` — Section 8.3.2, the per-source
  auxiliary graph whose Dijkstra distances are ``sr <> B[s, r, i]``.
"""

from __future__ import annotations

import math
from typing import Dict, Iterable, List, Mapping, Sequence, Set, Tuple

from repro.graph.graph import Edge, normalize_edge
from repro.graph.repair import PairEdgeTable
from repro.graph.tree import ShortestPathTree
from repro.multisource.intervals import PathInterval
from repro.rp.dijkstra import (
    AuxiliaryGraphBuilder,
    InternedAuxiliaryGraph,
    dijkstra,
)


class MTCEvaluator:
    """Evaluates the *minimum through centers* term for one source.

    Parameters
    ----------
    source:
        The source ``s``.
    source_tree:
        Canonical BFS tree rooted at ``s``.
    source_to_center:
        The Section 8.1 table ``(center, edge) -> d(s, center, edge)``.
    center_to_landmark:
        Per-center Section 8.2 tables
        ``center -> (landmark, edge) -> d(center, landmark, edge)``.
    center_trees:
        BFS trees of the centers (distance and path-membership fallbacks).
    """

    __slots__ = (
        "source",
        "_source_tree",
        "_source_to_center",
        "_center_to_landmark",
        "_center_trees",
    )

    def __init__(
        self,
        source: int,
        source_tree: ShortestPathTree,
        source_to_center: PairEdgeTable,
        center_to_landmark: Mapping[int, PairEdgeTable],
        center_trees: Mapping[int, ShortestPathTree],
    ):
        self.source = source
        self._source_tree = source_tree
        self._source_to_center = source_to_center
        self._center_to_landmark = center_to_landmark
        self._center_trees = center_trees

    # -- table lookups with realisable fallbacks -------------------------------

    def source_to_center(self, center: int, edge: Edge) -> float:
        """``d(s, center, edge)`` — never an underestimate."""
        value = self._source_to_center.get((center, edge))
        if value is not None:
            return value
        if not self._source_tree.is_reachable(center):
            return math.inf
        if not self._source_tree.tree_path_uses_edge(edge, center):
            return float(self._source_tree.dist[center])
        return math.inf

    def center_to_landmark(self, center: int, landmark: int, edge: Edge) -> float:
        """``d(center, landmark, edge)`` — never an underestimate."""
        table = self._center_to_landmark.get(center)
        if table is not None:
            value = table.get((landmark, edge))
            if value is not None:
                return value
        tree = self._center_trees.get(center)
        if tree is None or not tree.is_reachable(landmark):
            return math.inf
        if not tree.tree_path_uses_edge(edge, landmark):
            return float(tree.dist[landmark])
        return math.inf

    # -- the MTC term -----------------------------------------------------------

    def mtc(
        self,
        landmark: int,
        path_length: int,
        interval: PathInterval,
        edge: Edge,
    ) -> float:
        """Evaluate ``MTC(s, landmark, edge)`` for an edge of ``interval``.

        ``path_length`` is the number of edges of the canonical
        ``s``-``landmark`` path.  Both terms are realisable walks avoiding
        ``edge``, so the result never underestimates ``sr <> e``.
        """
        best = math.inf

        # Through the interval's left endpoint c1 (always a center: it is
        # either the source or an interior milestone).
        c1 = interval.start_vertex
        if c1 in self._center_trees:
            term = interval.start_index + self.center_to_landmark(c1, landmark, edge)
            best = min(best, term)

        # Through the interval's right endpoint c2.  When the interval ends
        # at the landmark itself the term degenerates (it only helps when
        # the landmark happens to be a center with a stored table entry);
        # the lookup fallbacks keep it realisable in every case.
        c2 = interval.end_vertex
        suffix = path_length - interval.end_index
        term = self.source_to_center(c2, edge) + suffix
        best = min(best, term)
        return best


def center_table_readers(
    decompositions: Iterable[Mapping[int, Sequence[PathInterval]]],
) -> Dict[int, Tuple[int, ...]]:
    """The Section 8.2 ``(center, landmark)`` pairs that MTC reads.

    ``decompositions`` holds, per source, ``landmark -> intervals`` of the
    canonical ``s``-``landmark`` path (Definition 15).  :meth:`MTCEvaluator.mtc`
    reads ``center_to_landmark(c1, r, e)`` only with ``c1`` the start
    vertex of an interval of that ``s``-``r`` decomposition, and its one
    product caller, :func:`find_bottleneck_edges`, passes every interval
    of it (as does :func:`compute_interval_avoiding_tables_reference`).
    Every interval start is a center: it is the source or a milestone of
    higher priority than the one before it.

    Returns ``center -> sorted landmarks``, centers in id order.  A center
    absent here is never queried, so building its tables, or a pair's
    tables for any other landmark, cannot change a value.
    """
    readers: Dict[int, Set[int]] = {}
    for per_landmark in decompositions:
        for landmark, intervals in per_landmark.items():
            for interval in intervals:
                readers.setdefault(interval.start_vertex, set()).add(landmark)
    return {
        center: tuple(sorted(readers[center])) for center in sorted(readers)
    }


def find_bottleneck_edges(
    path: Sequence[int],
    intervals: Sequence[PathInterval],
    landmark: int,
    evaluator: MTCEvaluator,
) -> Tuple[List[float], Dict[int, Tuple[Edge, int]]]:
    """Section 8.3.1: the MTC value of every path edge, and the bottlenecks.

    ``intervals`` is the path's whole Definition 15 decomposition.  Returns
    ``(values, bottlenecks)``: ``values[i]`` is ``MTC(s, landmark, e)`` for
    the path edge ``e`` with index ``i``, evaluated once here for the
    Section 8.3 builder and the assembly to read, and ``bottlenecks`` maps
    ``interval ordinal -> (bottleneck edge, its edge index)``, the first
    edge of the interval with the largest value.  Because every edge of an
    interval shares the same "avoid the interval" term, the edge maximising
    the MTC value also maximises the true replacement length (Lemma 24), so
    it is the bottleneck edge.

    The final interval gets no bottleneck.  Lemma 24 needs both MTC terms
    exact.  In the final interval ``[c1, r]`` the "passes through ``c2``"
    term is vacuous (``c2 = r``, the term would be ``sr <> e`` itself), so
    the argmax can miss the longest replacement path, and applying the
    interval-avoiding value of the edge it picks to every edge of the
    interval underestimated 35 entries on 23 of the ``sparse-aux``
    benchmark seeds 1-60.  :mod:`repro.multisource.pipeline` says what
    covers the final interval's edges instead.
    """
    path_length = len(path) - 1
    values: List[float] = []
    for interval in intervals:
        for edge_index in range(interval.start_index, interval.end_index):
            edge = normalize_edge(path[edge_index], path[edge_index + 1])
            values.append(evaluator.mtc(landmark, path_length, interval, edge))
    bottlenecks: Dict[int, Tuple[Edge, int]] = {}
    for interval in intervals[:-1]:
        segment = values[interval.start_index:interval.end_index]
        index = interval.start_index + segment.index(max(segment))
        bottlenecks[interval.ordinal] = (
            normalize_edge(path[index], path[index + 1]),
            index,
        )
    return values, bottlenecks


def compute_interval_avoiding_tables(
    source: int,
    source_tree: ShortestPathTree,
    landmark_paths: Mapping[int, Sequence[int]],
    landmark_intervals: Mapping[int, Sequence[PathInterval]],
    bottlenecks: Mapping[int, Mapping[int, Tuple[Edge, int]]],
    landmark_trees: Mapping[int, ShortestPathTree],
    mtc_values: Mapping[int, Sequence[float]],
    near_small: PairEdgeTable,
) -> Dict[Tuple[int, int], float]:
    """Section 8.3.2: replacement paths avoiding each interval's bottleneck.

    Parameters
    ----------
    landmark_paths / landmark_intervals / bottlenecks:
        Per-landmark canonical paths, their interval decompositions and the
        bottleneck edge of each interval (from :func:`find_bottleneck_edges`).
    mtc_values:
        ``landmark -> MTC value of every path edge, by edge index`` (from
        :func:`find_bottleneck_edges`): the ``MTC`` edge weights of the
        auxiliary graph.
    near_small:
        Section 7.1 table ``(t, e) -> w[t, e]`` of this source (small
        replacement paths seed direct ``[s] -> [s, r, i]`` edges).

    Returns
    -------
    dict
        ``(landmark, interval ordinal) -> |sr <> B[s, r, i]|``.

    Notes
    -----
    The ``via other landmarks`` families run per distinct bottleneck edge
    (the bottleneck edges are tree edges of the source tree, and many
    intervals share one): the ``[s, r, i]`` nodes are grouped by their
    bottleneck edge ``e``, and for each landmark ``r'`` each group resolves
    once what depends only on ``(r', e)``: ``e``'s subtree span in
    ``r'``'s tree, whether ``e`` lies on the canonical ``s``-``r'`` path,
    and then the term ``MTC(r', e)`` and the ``[r', i']`` node of ``r'``'s
    interval holding ``e``.  The quadratic loop body is span compares
    and dense-id arc appends — no per-query :meth:`tree_path_uses_edge` /
    ``is_reachable`` predicates.  The per-query form survives as
    :func:`compute_interval_avoiding_tables_reference`, the oracle the
    differential fuzz battery pins this builder against.
    """
    aux = InternedAuxiliaryGraph()
    src_id = aux.intern(("s",))

    landmarks = sorted(landmark_paths)

    # Index: for every landmark, the interval ordinal of each path-edge index.
    ordinal_of_index: Dict[int, List[int]] = {
        landmark: [
            interval.ordinal
            for interval in landmark_intervals[landmark]
            for _ in range(interval.num_edges)
        ]
        for landmark in landmarks
    }

    # Per (landmark, interval) node, grouped by distinct bottleneck edge:
    # every bottleneck edge is a tree edge of the source tree (it lies on a
    # canonical s-r path), so its subtree span, its path-edge index and
    # the edge itself are resolved once.  ``best[id]`` folds every
    # ``[s] -> [s, r, i]`` contribution — the small-path and MTC seeds plus
    # the entire ``via [r']`` family, whose ``[r']`` layer has the known
    # up-front Dijkstra distance ``|s r'|`` — into a running minimum that
    # becomes one seed arc per node, with identical distances (pinned
    # against the reference builder by the differential fuzz battery).
    s_edge_child = source_tree.edge_child
    s_pos, s_end = source_tree.spans()
    source_dist = source_tree.dist
    ri_ids: Dict[Tuple[int, int], int] = {}
    #: per distinct bottleneck edge, in first-use order: (edge, the span of
    #: its child in the source tree, its path-edge index, the group of
    #: (landmark, [s, r, i] node id) it is the bottleneck of)
    groups: List[Tuple[Edge, int, int, int, List[Tuple[int, int]]]] = []
    group_of: Dict[Edge, List[Tuple[int, int]]] = {}
    inf = math.inf
    best: List[float] = []
    for landmark in landmarks:
        for interval in landmark_intervals[landmark]:
            entry = bottlenecks[landmark].get(interval.ordinal)
            if entry is None:
                continue
            bottleneck_edge, bottleneck_index = entry
            node_id = aux.intern(("ri", landmark, interval.ordinal))
            ri_ids[(landmark, interval.ordinal)] = node_id
            while len(best) <= node_id:
                best.append(inf)

            # Small replacement path avoiding the bottleneck edge.
            seed = near_small.get((landmark, bottleneck_edge), inf)

            # MTC term for the bottleneck edge itself.
            mtc_value = mtc_values[landmark][bottleneck_index]
            if mtc_value < seed:
                seed = mtc_value
            if seed < best[node_id]:
                best[node_id] = seed

            group = group_of.get(bottleneck_edge)
            if group is None:
                group = group_of[bottleneck_edge] = []
                child = s_edge_child(bottleneck_edge)
                groups.append((
                    bottleneck_edge,
                    s_pos[child],
                    s_end[child],
                    bottleneck_index,
                    group,
                ))
            group.append((landmark, node_id))

    # Via other landmarks r', iterated outermost; each r' resolves every
    # distinct bottleneck edge once, for the whole group of nodes sharing it.
    add_arc = aux.add_arc
    for other in landmarks:
        other_tree = landmark_trees[other]
        o_dist = other_tree.dist
        o_edge_child = other_tree.edge_child
        o_pos, o_end = other_tree.spans()
        s_pos_other = s_pos[other]
        cand_base = float(source_dist[other])
        other_mtc = mtc_values[other]
        other_ordinals = ordinal_of_index[other]
        for edge, s_lo, s_hi, path_index, group in groups:
            # Span of e's child in r''s tree ((0, 0) — empty — when e is
            # not a tree edge there).
            child = o_edge_child(edge)
            if child is None:
                o_lo, o_hi = 0, 0
            else:
                o_lo, o_hi = o_pos[child], o_end[child]
            # source_tree.tree_path_uses_edge(e, other)
            if not s_lo <= s_pos_other < s_hi:
                # The canonical s-r' path avoids the bottleneck: the plain
                # distance |s r'| is realisable.
                for landmark, node_id in group:
                    if landmark == other:
                        continue
                    hop = o_dist[landmark]
                    if hop is inf:
                        continue
                    # other_tree.tree_path_uses_edge(e, landmark)
                    if o_lo <= o_pos[landmark] < o_hi:
                        continue
                    cand = cand_base + hop
                    if cand < best[node_id]:
                        best[node_id] = cand
                continue
            # The bottleneck lies on the canonical s-r' path, at the same
            # edge index as on the s-r path: relate the group's nodes to
            # r''s own interval machinery.
            mtc_other = other_mtc[path_index]
            other_ri_id = None
            for landmark, node_id in group:
                if landmark == other:
                    continue
                hop = o_dist[landmark]
                if hop is inf:
                    continue
                # other_tree.tree_path_uses_edge(e, landmark)
                if o_lo <= o_pos[landmark] < o_hi:
                    continue
                hop = float(hop)
                if other_ri_id is None:
                    key = (other, other_ordinals[path_index])
                    other_ri_id = ri_ids.get(key)
                    if other_ri_id is None:
                        other_ri_id = ri_ids[key] = aux.intern(("ri", *key))
                        while len(best) <= other_ri_id:
                            best.append(inf)
                cand = mtc_other + hop
                if cand < best[node_id]:
                    best[node_id] = cand
                add_arc(other_ri_id, node_id, hop)

    for node_id, value in enumerate(best):
        if value != inf:
            add_arc(src_id, node_id, value)

    dist = aux.dijkstra(src_id)

    result: Dict[Tuple[int, int], float] = {}
    for landmark in landmarks:
        for interval in landmark_intervals[landmark]:
            node_id = ri_ids.get((landmark, interval.ordinal))
            if (
                node_id is None
                or bottlenecks[landmark].get(interval.ordinal) is None
            ):
                continue
            result[(landmark, interval.ordinal)] = dist[node_id]
    return result


def compute_interval_avoiding_tables_reference(
    source: int,
    source_tree: ShortestPathTree,
    landmark_paths: Mapping[int, Sequence[int]],
    landmark_intervals: Mapping[int, Sequence[PathInterval]],
    bottlenecks: Mapping[int, Mapping[int, Tuple[Edge, int]]],
    landmark_trees: Mapping[int, ShortestPathTree],
    evaluator: MTCEvaluator,
    near_small: PairEdgeTable,
) -> Dict[Tuple[int, int], float]:
    """Pre-dense reference for :func:`compute_interval_avoiding_tables`.

    Builds the same Section 8.3.2 auxiliary graph through the dict-based
    :class:`AuxiliaryGraphBuilder`, calling the per-query tree predicates
    (``is_reachable`` / ``tree_path_uses_edge`` / ``edge_child``) inside
    the loop — the readable form that defines the semantics.  The
    differential fuzz battery asserts the dense builder produces an
    identical table on every instance.
    """
    builder = AuxiliaryGraphBuilder()
    src_node = ("s",)
    builder.add_node(src_node)

    landmarks = sorted(landmark_paths)

    interval_of_index: Dict[int, Dict[int, PathInterval]] = {}
    for landmark in landmarks:
        mapping: Dict[int, PathInterval] = {}
        for interval in landmark_intervals[landmark]:
            for edge_index in range(interval.start_index, interval.end_index):
                mapping[edge_index] = interval
        interval_of_index[landmark] = mapping

    for landmark in landmarks:
        builder.add_edge(
            src_node, ("r", landmark), float(source_tree.dist[landmark])
        )

    for landmark in landmarks:
        path = landmark_paths[landmark]
        path_length = len(path) - 1
        for interval in landmark_intervals[landmark]:
            entry = bottlenecks[landmark].get(interval.ordinal)
            if entry is None:
                continue
            bottleneck_edge, _ = entry
            node = ("ri", landmark, interval.ordinal)
            builder.add_node(node)

            small_value = near_small.get((landmark, bottleneck_edge), math.inf)
            if small_value != math.inf:
                builder.add_edge(src_node, node, small_value)

            mtc_value = evaluator.mtc(landmark, path_length, interval, bottleneck_edge)
            if mtc_value != math.inf:
                builder.add_edge(src_node, node, mtc_value)

            for other in landmarks:
                if other == landmark:
                    continue
                other_tree = landmark_trees[other]
                if not other_tree.is_reachable(landmark):
                    continue
                if other_tree.tree_path_uses_edge(bottleneck_edge, landmark):
                    continue
                hop = float(other_tree.dist[landmark])

                if source_tree.tree_path_uses_edge(bottleneck_edge, other):
                    child = source_tree.edge_child(bottleneck_edge)
                    edge_index = int(source_tree.dist[child]) - 1
                    other_interval = interval_of_index[other].get(edge_index)
                    if other_interval is None:
                        continue
                    other_length = len(landmark_paths[other]) - 1
                    mtc_other = evaluator.mtc(
                        other, other_length, other_interval, bottleneck_edge
                    )
                    if mtc_other != math.inf:
                        builder.add_edge(src_node, node, mtc_other + hop)
                    builder.add_edge(
                        ("ri", other, other_interval.ordinal), node, hop
                    )
                else:
                    builder.add_edge(("r", other), node, hop)

    distances, _ = dijkstra(builder.adjacency(), src_node)

    result: Dict[Tuple[int, int], float] = {}
    for landmark in landmarks:
        for interval in landmark_intervals[landmark]:
            if bottlenecks[landmark].get(interval.ordinal) is None:
                continue
            node = ("ri", landmark, interval.ordinal)
            result[(landmark, interval.ordinal)] = distances.get(node, math.inf)
    return result
