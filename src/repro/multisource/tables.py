"""Replacement paths source->center and center->landmark (Sections 8.1-8.2).

These two table families are the ingredients of the *minimum through
centers* term (Definition 17) of the path cover lemma:

* :func:`compute_source_to_center_tables` — for one source ``s``, the
  auxiliary graph of Section 8.1 whose Dijkstra distances give
  ``d(s, c, e)`` for every center ``c`` and every edge ``e`` among the first
  ``O~(2^k sqrt(n/sigma))`` edges of the canonical ``c``-``s`` path (``k`` =
  priority of ``c``).  Every arc is guarded by the "does the canonical path
  avoid the failed edge" predicates of the relevant BFS trees, so every
  distance is a real walk avoiding the edge and never underestimates;
  completeness holds with high probability (Lemmas 19 and 20).
* :func:`compute_center_to_landmark_tables` — for one center ``c``, the
  exact ``d(c, r, e)`` for every landmark ``r`` and every edge ``e`` among
  the first ``O~(2^k sqrt(n/sigma))`` edges of the canonical ``c``-``r``
  path.  It repairs the center's BFS tree once per budgeted tree edge
  (:mod:`repro.graph.repair`), for ``O(sum_v deg(v) * min(depth_c(v),
  budget))`` per center.
* :func:`compute_center_to_landmark_tables_reference` — the paper's own
  Section 8.2 construction (Bernstein–Karger auxiliary graph ``G_c``, seeded
  by the Section 8.2.1 split of small replacement paths,
  :func:`compute_small_paths_through_centers`).  Its values are realisable
  walks, so never below the exact tables; the differential battery pins
  that one-sided relation.
"""

from __future__ import annotations

import math
from typing import Dict, Iterable, List, Mapping, Optional, Sequence, Tuple

from repro.core.near_small import NearSmallTables
from repro.core.params import ProblemScale
from repro.graph.graph import Edge, Graph, normalize_edge
from repro.graph.repair import subtree_repair_distances
from repro.graph.tree import ShortestPathTree
from repro.multisource.centers import CenterHierarchy
from repro.npsupport import np, numpy_enabled
from repro.rp.dijkstra import AuxiliaryGraphBuilder, InternedAuxiliaryGraph, dijkstra

#: (endpoint, failed edge) -> replacement length
PairEdgeTable = Dict[Tuple[int, Edge], float]


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


def _fold_via_np(
    best: List[float],
    reachable: List[int],
    trees: Mapping[int, ShortestPathTree],
    edge_entries: Dict[int, List[Tuple[int, int]]],
    e_index: Dict[Edge, int],
    bounds: List[Tuple[int, int]],
    base_tin: Sequence[int],
    base_dist: Sequence[float],
    max_tin: int,
) -> List[float]:
    """Vectorized twin of the Section 8.1 via-fold double loop (numpy tier).

    :func:`compute_source_to_center_tables` folds the dominant ``via [c']``
    arc family into the per-node seed minima with a ``|C|^2 x budget``
    sweep; this helper flattens every ``(x, e)`` entry across all keys into
    one index triple up front and replaces the two inner loops with a single
    masked gather + fancy-indexed minimum per ``x'``.  The candidates
    ``cand_base + hop`` are IEEE-double additions — bit-identical to the
    reference loop's Python-float arithmetic — and each ``(x, e)`` node id
    occurs exactly once in the flattened entry list, so the fancy-indexed
    assignment is an exact minimum fold.  Returns the folded minima as a
    plain list of Python floats.
    """
    num_distinct = len(bounds)
    best_np = np.array(best, dtype=np.float64)
    total = sum(len(entries) for entries in edge_entries.values())
    if not total:
        return best_np.tolist()
    # One flattened row per (key, e) table slot: the distinct-edge index,
    # the aux node id and the key vertex.  Node ids are unique across rows
    # (each belongs to exactly one (key, e) pair), which is what makes the
    # fancy-indexed minimum below exact.
    flat_eidx = np.empty(total, dtype=np.intp)
    flat_node = np.empty(total, dtype=np.intp)
    flat_key = np.empty(total, dtype=np.intp)
    pos = 0
    for key, entries in edge_entries.items():
        for idx, node_id in entries:
            flat_eidx[pos] = idx
            flat_node[pos] = node_id
            flat_key[pos] = key
            pos += 1
    # ``e_index`` maps each distinct edge to 0..num_distinct-1 in insertion
    # order, so iterating its keys enumerates edges by index.
    distinct_edges = list(e_index)
    bounds_lo = np.fromiter(
        (b[0] for b in bounds), dtype=np.int64, count=num_distinct
    )
    bounds_hi = np.fromiter(
        (b[1] for b in bounds), dtype=np.int64, count=num_distinct
    )
    for other in reachable:
        other_tree = trees[other]
        o_tec_get = other_tree.edge_child_map().get
        o_dist_np, o_tin_np, o_tout_np = other_tree.np_views()
        t_other = base_tin[other]
        cand_base = float(base_dist[other])
        # Same per-distinct-edge interval resolution as the reference loop:
        # (1, 0) = empty unless e is a tree edge of other's tree, widened to
        # cover every tin when e lies on the canonical base path to other.
        # The only per-edge Python work left is the edge-child dict probe.
        child_a = np.fromiter(
            (o_tec_get(e, -1) for e in distinct_edges),
            dtype=np.int64,
            count=num_distinct,
        )
        has_child = child_a >= 0
        safe = np.where(has_child, child_a, 0)
        lo_a = np.where(has_child, o_tin_np[safe], 1)
        hi_a = np.where(has_child, o_tout_np[safe], 0)
        on_base = (bounds_lo <= t_other) & (t_other <= bounds_hi)
        lo_a[on_base] = -1
        hi_a[on_base] = max_tin
        hop = o_dist_np[flat_key]
        t_key = o_tin_np[flat_key]
        covered = (lo_a[flat_eidx] <= t_key) & (t_key <= hi_a[flat_eidx])
        valid = np.isfinite(hop) & ~covered
        if not valid.any():
            continue
        sel = flat_node[valid]
        best_np[sel] = np.minimum(best_np[sel], cand_base + hop[valid])
    return best_np.tolist()


# ---------------------------------------------------------------------------
# Section 8.1 — replacement paths from a source to every center
# ---------------------------------------------------------------------------


def compute_source_to_center_tables(
    graph: Graph,
    source: int,
    source_tree: ShortestPathTree,
    centers: CenterHierarchy,
    center_trees: Mapping[int, ShortestPathTree],
    scale: ProblemScale,
    near_small: NearSmallTables,
) -> PairEdgeTable:
    """Build the Section 8.1 auxiliary graph for one source and solve it.

    Returns a table mapping ``(center, edge)`` to the length of the shortest
    ``source``-``center`` path avoiding ``edge`` for every center ``c`` and
    every edge among the first ``interval_edge_budget(priority(c))`` edges
    of the canonical ``c``-``source`` path.

    The quadratic ``[c'] -> [c, e]`` loop runs on dense distinct-edge
    Euler-bound tables; the per-query tree-predicate form survives as
    :func:`compute_source_to_center_tables_reference`, the oracle the
    differential fuzz battery pins this builder against.
    """
    aux = InternedAuxiliaryGraph()
    src_node = ("s",)
    src_id = aux.intern(src_node)

    # Node set: [c] for every reachable center, [c, e] for its budgeted
    # edges — all interned to dense ids up front so the quadratic edge loops
    # below never hash a tuple node.
    reachable_centers: List[int] = []
    node_edges: Dict[int, List[Edge]] = {}
    for center in sorted(centers.all):
        if not source_tree.is_reachable(center):
            continue
        reachable_centers.append(center)
        budget = scale.interval_edge_budget(centers.priority_of(center))
        node_edges[center] = _edges_towards_root(source_tree, center, budget)

    ce_ids: Dict[Tuple[int, Edge], int] = {
        (center, e): aux.intern(("ce", center, e))
        for center, edges in node_edges.items()
        for e in edges
    }

    # Dense index over the *distinct* budgeted edges (paths towards the root
    # share suffixes, so the same edge appears for many centers).  Every
    # budgeted edge is a tree edge of the source tree, so its subtree
    # interval — the "canonical source path to x uses e" test — is resolved
    # here once; centers whose budget contains the same edge are collected
    # per distinct edge (``sharers``) for the ``[c', e]`` arc family.
    s_tec_get = source_tree.edge_child_map().get
    s_tin, s_tout = source_tree.euler_intervals()
    e_index: Dict[Edge, int] = {}
    distinct_edges: List[Edge] = []
    s_bounds: List[Tuple[int, int]] = []
    sharers: List[List[Tuple[int, int]]] = []
    edge_entries: Dict[int, List[Tuple[int, int]]] = {}
    for center, edges in node_edges.items():
        entries = []
        for e in edges:
            idx = e_index.get(e)
            if idx is None:
                idx = len(distinct_edges)
                e_index[e] = idx
                distinct_edges.append(e)
                child = s_tec_get(e)
                s_bounds.append((s_tin[child], s_tout[child]))
                sharers.append([])
            node_id = ce_ids[(center, e)]
            entries.append((idx, node_id))
            sharers[idx].append((center, node_id))
        edge_entries[center] = entries
    num_distinct = len(distinct_edges)

    # ``best[id]`` folds every ``[s] -> [c, e]`` contribution — the small
    # replacement paths and the whole ``via [c']`` family — into a running
    # minimum.  The ``[c']`` layer of the reference graph has exactly one
    # incoming arc ``[s] -> [c']`` of weight ``|s c'|``, so its Dijkstra
    # distance is known up front and relaxing ``[c'] -> [c, e]`` can only
    # ever produce ``|s c'| + |c' c|``; one seed arc per ``[c, e]`` node
    # yields identical distances with the dominant arc family folded away.
    inf = math.inf
    best: List[float] = [inf] * aux.num_nodes
    source_dist = source_tree.dist
    for center in reachable_centers:
        for e in node_edges[center]:
            small_value = near_small.value(center, e)
            if small_value != inf:
                node_id = ce_ids[(center, e)]
                if small_value < best[node_id]:
                    best[node_id] = small_value

    # The via-[c'] fold: per c' the distinct edges resolve against c''s
    # tree once, with "e lies on the canonical s-c' path" merged in as an
    # everything-covers interval — one containment test per (c', c, e).
    # The vectorized tier runs the identical sweep through _fold_via_np.
    max_tin = 2 * len(source_tree.parent)
    if numpy_enabled() and num_distinct:
        best = _fold_via_np(
            best,
            reachable_centers,
            center_trees,
            edge_entries,
            e_index,
            s_bounds,
            s_tin,
            source_dist,
            max_tin,
        )
    else:
        for other in reachable_centers:
            other_tree = center_trees[other]
            o_dist = other_tree.dist
            o_tec_get = other_tree.edge_child_map().get
            o_tin, o_tout = other_tree.euler_intervals()
            s_t_other = s_tin[other]
            cand_base = float(source_dist[other])
            o_lo = [1] * num_distinct
            o_hi = [0] * num_distinct
            for e, idx in e_index.items():
                lo, hi = s_bounds[idx]
                if lo <= s_t_other <= hi:
                    o_lo[idx] = -1
                    o_hi[idx] = max_tin
                    continue
                child = o_tec_get(e)
                if child is not None:
                    o_lo[idx] = o_tin[child]
                    o_hi[idx] = o_tout[child]
            for center in reachable_centers:
                hop = o_dist[center]
                if hop is math.inf:
                    continue
                cand = cand_base + hop
                o_t_center = o_tin[center]
                for idx, target_id in edge_entries[center]:
                    if o_lo[idx] <= o_t_center <= o_hi[idx]:
                        continue
                    if cand < best[target_id]:
                        best[target_id] = cand
    add_arc = aux.add_arc
    for node_id, value in enumerate(best):
        if value != inf:
            add_arc(src_id, node_id, value)

    # [c', e] -> [c, e] arcs survive as real auxiliary arcs (their sources
    # have genuinely recursive Dijkstra distances); only centers sharing the
    # budgeted edge qualify.  The arc-source center c' is outermost so each
    # edge resolves against c''s tree once, the guard is a dense interval
    # test, and the arcs flush into the typed arrays in one extend each.
    b_src: List[int] = []
    b_dst: List[int] = []
    b_w: List[float] = []
    src_app, dst_app, w_app = b_src.append, b_dst.append, b_w.append
    for c1 in reachable_centers:
        c1_tree = center_trees[c1]
        c1_dist = c1_tree.dist
        c1_tec_get = c1_tree.edge_child_map().get
        c1_tin, c1_tout = c1_tree.euler_intervals()
        for idx, id1 in edge_entries[c1]:
            edge_sharers = sharers[idx]
            if len(edge_sharers) < 2:
                continue
            child = c1_tec_get(distinct_edges[idx])
            if child is None:
                lo, hi = 1, 0
            else:
                lo, hi = c1_tin[child], c1_tout[child]
            for c2, id2 in edge_sharers:
                if c1 == c2:
                    continue
                hop = c1_dist[c2]
                if hop is math.inf:
                    continue
                # c1_tree.tree_path_uses_edge(e, c2)
                if lo <= c1_tin[c2] <= hi:
                    continue
                src_app(id1)
                dst_app(id2)
                w_app(float(hop))
    arc_src, arc_dst, arc_w = aux.arc_lists()
    arc_src.extend(b_src)
    arc_dst.extend(b_dst)
    arc_w.extend(b_w)

    distances, _ = aux.dijkstra(src_node)

    table: PairEdgeTable = {}
    by_id = distances.by_id
    for key, node_id in ce_ids.items():
        table[key] = by_id(node_id, math.inf)
    return table


def compute_source_to_center_tables_reference(
    graph: Graph,
    source: int,
    source_tree: ShortestPathTree,
    centers: CenterHierarchy,
    center_trees: Mapping[int, ShortestPathTree],
    scale: ProblemScale,
    near_small: NearSmallTables,
) -> PairEdgeTable:
    """Pre-dense reference for :func:`compute_source_to_center_tables`.

    Builds the same Section 8.1 auxiliary graph through the dict-based
    :class:`AuxiliaryGraphBuilder` with one :meth:`tree_path_uses_edge`
    tree-predicate call per query — the readable form that defines the
    semantics.  The differential fuzz battery asserts the dense builder
    produces an identical table on every instance.
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
            small_value = near_small.value(center, e)
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
    (:func:`compute_center_to_landmark_tables_reference`).
    """
    landmark_set = set(int(r) for r in landmarks)
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
    ``r != center`` and every edge among the first
    ``interval_edge_budget(priority)`` edges of the canonical
    ``center``-``landmark`` path: the restriction of
    :func:`repro.graph.repair.subtree_repair_distances` to the landmarks
    and the budget, as floats.  The lengths are exact, so Lemma 22 (the
    table is no longer than the suffix of any replacement path through the
    center) holds deterministically.  Cost ``O(sum_v deg(v) *
    min(depth_c(v), budget))``.
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
    for landmark in sorted(set(int(r) for r in landmarks)):
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
