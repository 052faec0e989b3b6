"""Orchestration of the Section 8 machinery.

:func:`compute_auxiliary_tables` produces the same
:class:`~repro.core.landmark_rp.SourceLandmarkTables` interface as the
direct strategy, but through the paper's Bernstein–Karger adaptation:

1. sample centers with priorities and run BFS from every center,
2. Section 8.2 — exact per-center tables ``d(center, landmark, e)`` by
   subtree repair (``compute_center_to_landmark_tables``),
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

The assembled value can *underestimate*: the Section 8.3 interval-avoiding
value ``sr <> B[s, r, i]`` avoids only the interval's bottleneck edge, yet
assembly applies it to every edge of the interval.  On the ``sparse-aux``
benchmark instances (``perfbench/workloads.py``, instance seeds 1-60) this
gives wrong, too-small entries on 23 seeds;
``tests/test_differential_fuzz.py::test_auxiliary_pipeline_subsampled_regime``
pins one of them as a strict xfail, and
``test_auxiliary_pipeline_n480_known_underestimates`` two entries of an
n=480 instance.  The other candidates are realisable walks avoiding the
failed edge, and the high-probability lemmas of the paper (9, 12, 13,
18-22, 25) make one of them exact.
"""

from __future__ import annotations

import math
import random
import time
from typing import Dict, Iterable, List, Mapping, Optional, Sequence, Tuple

from repro.core.landmark_rp import PerSourceLandmarkTable, SourceLandmarkTables
from repro.core.landmarks import LandmarkHierarchy
from repro.core.near_small import NearSmallTables
from repro.core.params import ProblemScale
from repro.graph.csr import bfs_many
from repro.graph.graph import Edge, Graph, normalize_edge
from repro.graph.tree import ShortestPathTree
from repro.multisource.bottleneck import (
    MTCEvaluator,
    compute_interval_avoiding_tables,
    find_bottleneck_edges,
)
from repro.multisource.centers import CenterHierarchy
from repro.multisource.intervals import PathInterval, decompose_path
from repro.multisource.tables import (
    PairEdgeTable,
    compute_source_to_center_tables,
)
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
    near_small: Mapping[int, NearSmallTables],
    rng: Optional[random.Random] = None,
    centers: Optional[CenterHierarchy] = None,
    phase_seconds: Optional[Dict[str, float]] = None,
    workers: int = 0,
    pool: Optional[Executor] = None,
) -> SourceLandmarkTables:
    """Compute ``d(s, r, e)`` for all sources and landmarks via Section 8.

    ``near_small`` holds the Section 7.1 tables of every source (the
    solver's own, built once per source).

    When ``phase_seconds`` is given, wall-clock sub-phase durations are
    accumulated into it under ``aux_tables`` (the 8.1/8.2/8.3 table
    builds) and ``aux_assembly`` (the per-edge path-cover minimisation) —
    the breakdown the e2e benchmark harness reports.
    With ``workers > 1`` the per-worker sub-phase times are *summed* into
    the same keys, so the breakdown reports aggregate compute seconds
    (wall time is what the caller measures around this function).

    ``workers`` shards the per-root/per-center/per-source phases across a
    process pool (:mod:`repro.parallel`); the returned tables are
    byte-identical to the serial run at any worker count.  Passing an open
    :class:`~repro.parallel.Executor` via ``pool`` makes every sharded
    phase reuse its running workers (each phase context is broadcast into
    them), so the whole Section 8 pipeline pays at most one pool start-up;
    without it each phase opens its own one-shot pool, which is the
    measured ~10% overhead the solver's pool-reuse mode exists to avoid.
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
    # remaining roots run as one batch over the graph's cached CSR kernel
    # (sharded across the pool when ``workers`` asks for it).
    center_trees: Dict[int, ShortestPathTree] = {}
    missing: List[int] = []
    for center in sorted(centers.all):
        if center in source_trees:
            center_trees[center] = source_trees[center]
        elif center in landmark_trees:
            center_trees[center] = landmark_trees[center]
        else:
            missing.append(center)
    center_trees.update(bfs_many(graph, missing, workers=workers, pool=pool))

    from repro.parallel.tasks import assemble_task, center_tables_task

    # Section 8.2 — exact per-center tables d(c, r, e), one subtree-repair
    # sweep of the center's tree each.
    start = time.perf_counter()
    center_to_landmark: Dict[int, PairEdgeTable] = run_sharded(
        center_tables_task,
        sorted(centers.all),
        {
            "graph": graph,
            "center_trees": center_trees,
            "hierarchy": centers,
            "landmarks": landmarks.union,
            "scale": scale,
        },
        workers=workers,
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
            "landmarks": landmarks,
            "landmark_trees": landmark_trees,
            "centers": centers,
            "center_trees": center_trees,
            "center_to_landmark": center_to_landmark,
            "near_small": near_small,
            "source_trees": source_trees,
        },
        workers=workers,
        pool=pool,
    )
    tables: Dict[int, PerSourceLandmarkTable] = {}
    for source in sources:
        table, source_timings = assembled[source]
        tables[source] = table
        for key, seconds in source_timings.items():
            timings[key] = timings.get(key, 0.0) + seconds
    return SourceLandmarkTables(tables, source_trees, landmarks.union)


def _assemble_for_source(
    graph: Graph,
    scale: ProblemScale,
    source: int,
    source_tree: ShortestPathTree,
    landmarks: LandmarkHierarchy,
    landmark_trees: Mapping[int, ShortestPathTree],
    centers: CenterHierarchy,
    center_trees: Mapping[int, ShortestPathTree],
    center_to_landmark: Mapping[int, PairEdgeTable],
    near_small: NearSmallTables,
    timings: Optional[Dict[str, float]] = None,
) -> PerSourceLandmarkTable:
    """Run Sections 8.1 and 8.3 for one source and assemble its tables."""
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

    # Canonical paths, interval decompositions, bottleneck edges.
    landmark_paths: Dict[int, List[int]] = {}
    landmark_intervals: Dict[int, List[PathInterval]] = {}
    bottlenecks: Dict[int, Dict[int, Tuple[Edge, int]]] = {}
    for landmark in sorted(landmarks.union):
        if landmark == source or not source_tree.is_reachable(landmark):
            continue
        path = source_tree.path_to(landmark)
        intervals = decompose_path(path, centers.priority_of)
        landmark_paths[landmark] = path
        landmark_intervals[landmark] = intervals
        bottlenecks[landmark] = find_bottleneck_edges(
            path, intervals, landmark, evaluator
        )

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

    per_source: PerSourceLandmarkTable = {}
    for landmark in sorted(landmarks.union):
        if landmark == source:
            per_source[landmark] = {}
            continue
        if landmark not in landmark_paths:
            per_source[landmark] = {}
            continue
        path = landmark_paths[landmark]
        intervals = landmark_intervals[landmark]
        path_length = len(path) - 1
        per_edge: Dict[Edge, float] = {}
        interval_iter = iter(intervals)
        current = next(interval_iter)
        for edge_index in range(path_length):
            while not current.contains_edge_index(edge_index):
                current = next(interval_iter)
            edge = normalize_edge(path[edge_index], path[edge_index + 1])
            value = min(
                near_small.value(landmark, edge),
                evaluator.mtc(landmark, path_length, current, edge),
                interval_avoiding.get((landmark, current.ordinal), math.inf),
            )
            distance_to_landmark = path_length - (edge_index + 1)
            if distance_to_landmark < scale.near_threshold:
                value = min(
                    value,
                    _near_landmark_candidate(
                        evaluator, source_dist, level0_centers, landmark, edge, value
                    ),
                )
            per_edge[edge] = value
        per_source[landmark] = per_edge
    timings["aux_assembly"] = (
        timings.get("aux_assembly", 0.0) + time.perf_counter() - start
    )
    return per_source


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
