"""Orchestration of the Section 8 machinery.

:func:`compute_auxiliary_tables` returns what the direct strategy
returns — per source, the ``(landmark, edge) -> d(s, r, e)`` table keyed
by every edge of every canonical ``s``-``r`` path
(:mod:`repro.core.landmark_rp`) — but through the paper's
Bernstein–Karger adaptation:

1. sample centers with priorities and run BFS from every center,
2. Section 8.2 — exact per-center tables ``d(center, landmark, e)`` by
   subtree repair (``compute_center_to_landmark_tables``), only for the
   ``(center, landmark)`` pairs that MTC reads: each source's canonical
   landmark paths are decomposed into intervals first, and a center gets
   the landmarks whose decomposition starts an interval at it
   (``center_table_readers``).  That is about 5% of all pairs on the
   ``sparse-aux`` benchmark instances, and the tables are unchanged on
   every pair that is read,
3. Section 8.1 — exact per-source tables ``d(source, center, e)`` by
   subtree repair of the source's tree
   (``compute_source_to_center_tables``; it does not read the Section 7.1
   tables),
4. Section 8.3 — bottleneck edges per interval and the interval-avoiding
   Dijkstra,
5. assembly via the path cover lemma, taking the minimum over the
   candidates (small replacement path, MTC, interval-avoiding value, and —
   for edges close to the landmark, where the path cover lemma's second
   term degenerates — an Algorithm-4-style scan over the level-0 centers).
   The scan is bounded by the minimum of the other three: a center ``c``
   whose ``d(s, c) + d(c, r)`` is not below it is skipped, which is exact
   because every Section 8.1 value ``d(s, c, e)`` is at least ``d(s, c)``
   and a candidate replaces the value in hand only when strictly smaller.

Every candidate is the length of a realisable walk avoiding the failed
edge, so a value can only overestimate.

**The final interval gets no interval-avoiding value.**  The Section 8.3
value ``sr <> B[s, r, i]`` avoids only the interval's bottleneck edge and
is applied to every edge of the interval, which is sound only when ``B``
is the edge with the longest replacement path.  Lemma 24 finds it as the
MTC argmax, and that needs both MTC terms exact.  In the final interval
``[c1, r]`` the "passes through ``c2``" term is vacuous (``c2 = r``, the
term would be ``sr <> e`` itself), so the argmax can miss, and applying
that ``sr <> B`` underestimated 35 entries on 23 of the ``sparse-aux``
benchmark seeds 1-60.  :func:`_assemble_for_source` therefore passes
every interval but the last to :func:`find_bottleneck_edges`.  An edge
``e`` of the final interval keeps the Section 7.1 value, the MTC ``c1``
term and the near-landmark scan.  For an optimal replacement path ``R``:

* ``R`` leaves the path at or after ``c1``: the ``c1`` term is exact.
* ``R`` is small (``|R| <= |se| + 2X``): the Section 7.1 value is exact
  when ``e`` is near ``r`` (Lemma 10).
* ``R`` is large: as in Lemmas 12/19, w.h.p. a level-0 center ``c`` lies
  on ``R``'s suffix with a canonical ``c``-``r`` path that avoids ``e``,
  and the scan reads ``d(s, c, e) + d(c, r) = |R|``.

Not proven here: that every edge of the final interval is near ``r``
(the Section 7.1 tables and the scan cover near edges only), and that the
scan's ``d(s, c, e)`` is a Section 8.1 table entry whenever ``e`` lies on
the canonical ``s``-``c`` path (the fallback is then ``math.inf``).  When
``r`` is not a center, ``c1`` is the last center before ``r``, and at the
paper's constants level-0 centers are dense enough to keep the interval
shorter than ``X`` w.h.p.; when ``r`` is a center the interval can be
longer, but the ``c2`` term then reads ``r``'s own exact Section 8.1
entry for every edge within its budget.  Measured: no underestimate on
the ``sparse-aux`` seeds 1-60 (35 before this rule), on
``sparse_workload(n, seed=n)`` for n = 240, 320 and 480 with algorithm
seeds 0-5, 0-3 and 480 (14, 5 and 2 before), nor on ``cycle_graph(160)``
plus 8 random chords at ``threshold_constant=0.1``, seeds 1-20 (39
before).
"""

from __future__ import annotations

import math
import random
import time
from typing import Dict, Iterable, List, Mapping, Optional, Sequence, Tuple

from repro.core.landmarks import LandmarkHierarchy
from repro.core.params import ProblemScale
from repro.graph.csr import bfs_many
from repro.graph.graph import Edge, Graph, normalize_edge
from repro.graph.repair import PairEdgeTable
from repro.graph.tree import ShortestPathTree
from repro.multisource.bottleneck import (
    MTCEvaluator,
    center_table_readers,
    compute_interval_avoiding_tables,
    find_bottleneck_edges,
)
from repro.multisource.centers import CenterHierarchy
from repro.multisource.intervals import PathInterval, decompose_path
from repro.multisource.tables import compute_source_to_center_tables
# Not called here: perfbench/tracing.py installs its "multisource.walks"
# span through vars(pipeline)["compute_small_paths_through_centers"].
from repro.multisource.tables import compute_small_paths_through_centers  # noqa: F401
from repro.parallel import Executor, child_rng, run_sharded


def compute_auxiliary_tables(
    graph: Graph,
    scale: ProblemScale,
    sources: Sequence[int],
    source_trees: Mapping[int, ShortestPathTree],
    landmarks: LandmarkHierarchy,
    landmark_trees: Mapping[int, ShortestPathTree],
    near_small: Mapping[int, PairEdgeTable],
    rng: Optional[random.Random] = None,
    centers: Optional[CenterHierarchy] = None,
    phase_seconds: Optional[Dict[str, float]] = None,
    pool: Optional[Executor] = None,
) -> Dict[int, PairEdgeTable]:
    """Compute ``d(s, r, e)`` for all sources and landmarks via Section 8.

    ``near_small`` holds the Section 7.1 tables of every source (the
    solver's own, built once per source).  Returns ``source ->
    (landmark, edge) -> d(s, r, e)``, with the key set of
    :func:`repro.core.landmark_rp.compute_direct_tables`.

    Each source's canonical landmark paths and their interval
    decompositions are computed once, here, and handed to the per-source
    assembly.  They also decide which ``(center, landmark)`` pairs
    Section 8.2 builds
    (:func:`~repro.multisource.bottleneck.center_table_readers`).

    When ``phase_seconds`` is given, wall-clock sub-phase durations are
    accumulated into it under ``aux_tables`` (the decompositions and the
    reader pass, then the 8.1/8.2/8.3 table builds) and ``aux_assembly``
    (the per-edge path-cover minimisation), the split the solver's
    ``phase_seconds`` reports.  On a process pool the per-worker sub-phase
    times are *summed* into the same keys, so the split reports aggregate
    compute seconds (wall time is what the caller measures around this
    function).

    Every per-root/per-center/per-source phase runs on ``pool``, an open
    :class:`~repro.parallel.Executor` (the solver passes the one spanning
    its solve); without one the phases run in-process.  The returned
    tables are byte-identical on every executor at any worker count.
    """
    timings = phase_seconds if phase_seconds is not None else {}
    if rng is None:
        # A bare ``Random(seed)`` here would replay the exact stream the
        # landmark sampler consumed (the solver seeds it with the same
        # ``params.seed``), making the center draws perfectly correlated
        # with the landmark draws and voiding the independence the
        # Section 8 lemmas assume.  Derive a tagged child seed instead.
        rng = child_rng(scale.params.seed, "multisource", "centers")
    centers = (
        centers
        if centers is not None
        else CenterHierarchy.sample(scale, sources, rng)
    )

    # BFS trees from every center, reusing the trees we already have; the
    # remaining roots run as one batch over the graph's cached CSR kernel.
    center_trees: Dict[int, ShortestPathTree] = {}
    missing: List[int] = []
    for center in sorted(centers.all):
        if center in source_trees:
            center_trees[center] = source_trees[center]
        elif center in landmark_trees:
            center_trees[center] = landmark_trees[center]
        else:
            missing.append(center)
    center_trees.update(bfs_many(graph, missing, pool=pool))

    from repro.parallel.tasks import assemble_task, center_tables_task

    # Canonical s-r paths and their Definition 15 intervals, once per
    # source.  MTC reads a center's Section 8.2 table only for the
    # landmarks whose decomposition starts an interval at that center, so
    # Section 8.2 builds exactly those (center, landmark) pairs.
    start = time.perf_counter()
    landmark_paths: Dict[int, Dict[int, List[int]]] = {}
    landmark_intervals: Dict[int, Dict[int, List[PathInterval]]] = {}
    for source in sources:
        paths, intervals = _decompose_landmark_paths(
            source, source_trees[source], landmarks.union, centers
        )
        landmark_paths[source] = paths
        landmark_intervals[source] = intervals
    readers = center_table_readers(landmark_intervals.values())

    # Section 8.2 — exact per-center tables d(c, r, e) for the landmarks
    # that read them, one subtree-repair sweep of the center's tree each.
    center_to_landmark: Dict[int, PairEdgeTable] = run_sharded(
        center_tables_task,
        sorted(readers),
        {
            "graph": graph,
            "center_trees": center_trees,
            "hierarchy": centers,
            "readers": readers,
            "scale": scale,
        },
        pool=pool,
    )
    timings["aux_tables"] = (
        timings.get("aux_tables", 0.0) + time.perf_counter() - start
    )

    # Sections 8.1, 8.3 and assembly, per source.  Workers report their
    # own tables/assembly split; summing preserves the serial semantics.
    assembled = run_sharded(
        assemble_task,
        sources,
        {
            "graph": graph,
            "scale": scale,
            "landmark_trees": landmark_trees,
            "centers": centers,
            "center_trees": center_trees,
            "center_to_landmark": center_to_landmark,
            "near_small": near_small,
            "source_trees": source_trees,
            "landmark_paths": landmark_paths,
            "landmark_intervals": landmark_intervals,
        },
        pool=pool,
    )
    tables: Dict[int, PairEdgeTable] = {}
    for source in sources:
        table, source_timings = assembled[source]
        tables[source] = table
        for key, seconds in source_timings.items():
            timings[key] = timings.get(key, 0.0) + seconds
    return tables


def _decompose_landmark_paths(
    source: int,
    source_tree: ShortestPathTree,
    landmarks: Iterable[int],
    centers: CenterHierarchy,
) -> Tuple[Dict[int, List[int]], Dict[int, List[PathInterval]]]:
    """Canonical ``source``-``r`` paths and their intervals (Definition 15).

    Keyed by every landmark ``r`` other than the source that the source
    reaches, in id order.
    """
    paths: Dict[int, List[int]] = {}
    intervals: Dict[int, List[PathInterval]] = {}
    for landmark in sorted(landmarks):
        if landmark == source or not source_tree.is_reachable(landmark):
            continue
        path = source_tree.path_to(landmark)
        paths[landmark] = path
        intervals[landmark] = decompose_path(path, centers.priority_of)
    return paths, intervals


def _assemble_for_source(
    graph: Graph,
    scale: ProblemScale,
    source: int,
    source_tree: ShortestPathTree,
    landmark_trees: Mapping[int, ShortestPathTree],
    centers: CenterHierarchy,
    center_trees: Mapping[int, ShortestPathTree],
    center_to_landmark: Mapping[int, PairEdgeTable],
    near_small: PairEdgeTable,
    landmark_paths: Mapping[int, List[int]],
    landmark_intervals: Mapping[int, List[PathInterval]],
    timings: Optional[Dict[str, float]] = None,
) -> PairEdgeTable:
    """Run Sections 8.1 and 8.3 for one source and assemble its table.

    ``landmark_paths`` and ``landmark_intervals`` are the source's
    :func:`_decompose_landmark_paths`, and ``near_small`` is its Section
    7.1 table.  Returns ``(landmark, edge) -> d(s, r, e)`` for every edge
    of every path in ``landmark_paths``.
    """
    timings = timings if timings is not None else {}
    start = time.perf_counter()
    source_to_center = compute_source_to_center_tables(
        graph=graph,
        source=source,
        source_tree=source_tree,
        centers=centers,
        scale=scale,
    )
    evaluator = MTCEvaluator(
        source=source,
        source_tree=source_tree,
        source_to_center=source_to_center,
        center_to_landmark=center_to_landmark,
        center_trees=center_trees,
    )

    # No bottleneck for the final interval: see the module docstring.
    bottlenecks: Dict[int, Dict[int, Tuple[Edge, int]]] = {
        landmark: find_bottleneck_edges(
            path, landmark_intervals[landmark][:-1], landmark, evaluator
        )
        for landmark, path in landmark_paths.items()
    }

    interval_avoiding = compute_interval_avoiding_tables(
        source=source,
        source_tree=source_tree,
        landmark_paths=landmark_paths,
        landmark_intervals=landmark_intervals,
        bottlenecks=bottlenecks,
        landmark_trees=landmark_trees,
        evaluator=evaluator,
        near_small=near_small,
    )
    timings["aux_tables"] = (
        timings.get("aux_tables", 0.0) + time.perf_counter() - start
    )
    start = time.perf_counter()

    source_dist = source_tree.dist
    level0_centers = [
        (center, center_trees[center]) for center in sorted(centers.level(0))
    ]

    small_value = near_small.get
    inf = math.inf
    table: PairEdgeTable = {}
    for landmark, path in landmark_paths.items():
        intervals = landmark_intervals[landmark]
        path_length = len(path) - 1
        interval_iter = iter(intervals)
        current = next(interval_iter)
        for edge_index in range(path_length):
            while not current.contains_edge_index(edge_index):
                current = next(interval_iter)
            edge = normalize_edge(path[edge_index], path[edge_index + 1])
            value = min(
                small_value((landmark, edge), inf),
                evaluator.mtc(landmark, path_length, current, edge),
                interval_avoiding.get((landmark, current.ordinal), inf),
            )
            distance_to_landmark = path_length - (edge_index + 1)
            if distance_to_landmark < scale.near_threshold:
                value = min(
                    value,
                    _near_landmark_candidate(
                        evaluator, source_dist, level0_centers, landmark, edge, value
                    ),
                )
            table[(landmark, edge)] = value
    timings["aux_assembly"] = (
        timings.get("aux_assembly", 0.0) + time.perf_counter() - start
    )
    return table


def _near_landmark_candidate(
    evaluator: MTCEvaluator,
    source_dist: Sequence[float],
    level0_centers: Sequence[Tuple[int, ShortestPathTree]],
    landmark: int,
    edge: Edge,
    bound: float,
) -> float:
    """Algorithm-4-style candidate for edges close to the landmark.

    When the failed edge sits in the final interval of the ``s``-``r`` path
    the path cover lemma's "passes through c2" case degenerates (``c2`` is
    the landmark itself).  A large replacement path avoiding such an edge
    has a long suffix, so (as in Lemmas 12/19) a level-0 center lies on it
    close to the landmark, with a canonical center-landmark path that avoids
    the edge; scanning the level-0 centers recovers that case.  Every
    candidate is realisable, so this extra generator can only tighten the
    minimum, never corrupt it.

    ``level0_centers`` are ``(center, tree)`` pairs in center-id order and
    ``source_dist`` the source tree's distances.  The candidate through
    ``c`` is at least ``d(s, c) + d(c, r)``, so centers whose bound is not
    below ``bound`` or the best so far are skipped; the result is the
    unbounded scan's minimum when that is below ``bound``, else
    ``math.inf``.
    """
    inf = math.inf
    best = inf
    limit = bound
    for center, tree in level0_centers:
        if source_dist[center] + tree.dist[landmark] >= limit:
            continue
        # Fused reachability + "canonical path avoids edge" + distance scan.
        hop = tree.distance_avoiding(edge, landmark)
        if hop is inf:
            continue
        candidate = evaluator.source_to_center(center, edge) + float(hop)
        if candidate < limit:
            best = limit = candidate
    return best
