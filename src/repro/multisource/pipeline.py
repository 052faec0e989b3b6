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
4. Section 8.3 — the MTC value of every path edge and the bottleneck
   edge of every interval but the last (``find_bottleneck_edges``, the
   only place MTC is evaluated), then the interval-avoiding Dijkstra,
   which reads those values,
5. assembly via the path cover lemma, taking the minimum over the
   candidates (small replacement path, MTC, interval-avoiding value, and —
   for edges close to the landmark, where the path cover lemma's second
   term degenerates — an Algorithm-4-style scan over the level-0 centers).
   The scan runs only on the near entries whose Section 7.1 value ``w`` is
   not certified exact: for ``e = (p, ch)`` on the ``s``-``r`` path it
   runs when ``w >= 2(dist(ch) + near_threshold) - dist(r)``, the bound
   :func:`repro.core.msrp.solve_single_source` gates Algorithm 4 with.  A
   smaller ``w`` equals ``|sr <> e|`` (the proof in
   :mod:`repro.core.near_small` holds for any target, landmarks included),
   and every scan candidate is the length of a walk avoiding ``e``, so
   none could beat it: skipping the scan there changes no entry.  The
   scan is bounded by the minimum of the other three: a center ``c``
   whose ``d(s, c) + d(c, r)`` is not below it is skipped, which is exact
   because every Section 8.1 value ``d(s, c, e)`` is at least ``d(s, c)``
   and a candidate replaces the value in hand only when strictly smaller.

Every candidate is the length of a realisable walk avoiding the failed
edge, so a value can only overestimate.

**The final interval gets no interval-avoiding value.**  The Section 8.3
value ``sr <> B[s, r, i]`` avoids only the interval's bottleneck edge and
is applied to every edge of the interval, which is sound only when ``B``
is the edge with the longest replacement path.
:func:`find_bottleneck_edges` says why the MTC argmax can miss that edge
in the final interval ``[c1, r]``, and gives that interval no bottleneck.
An edge ``e`` of the final interval keeps the Section 7.1 value, the MTC
``c1`` term and the near-landmark scan.  For an optimal replacement path
``R``:

* ``R`` leaves the path at or after ``c1``: the ``c1`` term is exact.
* ``R`` is small (``|R| <= |se| + 2X``): the Section 7.1 value is exact
  when ``e`` is near ``r`` (Lemma 10).
* ``R`` is large: as in Lemmas 12/19, w.h.p. a level-0 center ``c`` lies
  on ``R``'s suffix with a canonical ``c``-``r`` path that avoids ``e``,
  and the scan reads ``d(s, c, e) + d(c, r) = |R|``.

Not proven here: (1) that every edge of the final interval is near
``r`` (the Section 7.1 tables and the scan cover near edges only), and
(2) that the scan's ``d(s, c, e)`` is a Section 8.1 table entry whenever
``e`` lies on the canonical ``s``-``c`` path (the fallback is then
``math.inf``).  When ``r`` is not a center, ``c1`` is the last center
before ``r``, and at the paper's constants level-0 centers are dense
enough to keep the interval shorter than ``X`` w.h.p.; when ``r`` is a
center the interval can be longer, but the ``c2`` term then reads
``r``'s own exact Section 8.1 entry for every edge within its budget.
Counted under ``auxiliary``, step (1) as the final-interval edges not
near ``r`` and step (2) as the scan's lookups of ``d(s, c, e)`` with
``e`` on the canonical ``s``-``c`` path that miss the Section 8.1 table
(``TestFinalIntervalCover`` in ``tests/test_paper_lemmas.py`` pins the
``sparse-aux`` rows):

=================  ===============  =================
Instance           (1) not near r   (2) missing
=================  ===============  =================
sparse-aux seed 1  0 of 669         0 of 3
sparse-aux seed 2  0 of 627         no scan
ring seed 1        42 of 1,135      3,001 of 17,427
ring seed 6        78 of 1,149      3,427 of 15,437
=================  ===============  =================

The ring is ``cycle_graph(160)`` plus 8 random chords at
``threshold_constant=0.1``.  On ``sparse-aux`` the second step is nearly
vacuous.  Either miss can cost an overestimate, never an underestimate.
Measured: no underestimate on the ``sparse-aux`` seeds 1-60 (35 while the
final interval had a bottleneck), on ``sparse_workload(n, seed=n)`` for
n = 240, 320 and 480 with algorithm seeds 0-5, 0-3 and 480 (14, 5 and 2
before), nor on the ring seeds 1-20 (39 before).
"""

from __future__ import annotations

import math
import random
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

    Every per-root/per-center/per-source phase runs on ``pool``, an
    :class:`~repro.parallel.Executor` (the solver passes the one spanning
    its solve); without one each phase runs on a fresh executor.  The
    returned tables are byte-identical either way.
    """
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

    # Sections 8.1, 8.3 and assembly, per source.
    return run_sharded(
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
) -> PairEdgeTable:
    """Run Sections 8.1 and 8.3 for one source and assemble its table.

    ``landmark_paths`` and ``landmark_intervals`` are the source's
    :func:`_decompose_landmark_paths`, and ``near_small`` is its Section
    7.1 table.  Returns ``(landmark, edge) -> d(s, r, e)`` for every edge
    of every path in ``landmark_paths``.
    """
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

    mtc_values: Dict[int, List[float]] = {}
    bottlenecks: Dict[int, Dict[int, Tuple[Edge, int]]] = {}
    for landmark, path in landmark_paths.items():
        mtc_values[landmark], bottlenecks[landmark] = find_bottleneck_edges(
            path, landmark_intervals[landmark], landmark, evaluator
        )

    interval_avoiding = compute_interval_avoiding_tables(
        source=source,
        source_tree=source_tree,
        landmark_paths=landmark_paths,
        landmark_intervals=landmark_intervals,
        bottlenecks=bottlenecks,
        landmark_trees=landmark_trees,
        mtc_values=mtc_values,
        near_small=near_small,
    )

    source_dist = source_tree.dist
    level0_centers = [
        (center, center_trees[center]) for center in sorted(centers.level(0))
    ]

    near_threshold = scale.near_threshold
    small_value = near_small.get
    inf = math.inf
    table: PairEdgeTable = {}
    for landmark, path in landmark_paths.items():
        intervals = landmark_intervals[landmark]
        mtc = mtc_values[landmark]
        path_length = len(path) - 1
        interval_iter = iter(intervals)
        current = next(interval_iter)
        for edge_index in range(path_length):
            while not current.contains_edge_index(edge_index):
                current = next(interval_iter)
            edge = normalize_edge(path[edge_index], path[edge_index + 1])
            small = small_value((landmark, edge), inf)
            value = min(
                small,
                mtc[edge_index],
                interval_avoiding.get((landmark, current.ordinal), inf),
            )
            distance_to_landmark = path_length - (edge_index + 1)
            # The scan runs on a near entry only when its Section 7.1 value
            # is not certified exact (see the module docstring).
            if (
                distance_to_landmark < near_threshold
                and small >= 2 * (edge_index + 1 + near_threshold) - path_length
            ):
                value = min(
                    value,
                    _near_landmark_candidate(
                        evaluator, source_dist, level0_centers, landmark, edge, value
                    ),
                )
            table[(landmark, edge)] = value
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
    minimum, never corrupt it.  :func:`_assemble_for_source` calls it only
    on near entries whose Section 7.1 value is not certified exact
    (:mod:`repro.core.near_small`): no realisable candidate can beat an
    exact value, so on a certified entry the scan would return
    ``math.inf``.

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
