"""The Multiple Source Replacement Path algorithm (paper Theorem 1 / 26).

:class:`MSRPSolver` drives the full pipeline:

1. **Preprocessing** (Section 5): sample the landmark hierarchy, run BFS
   from every source and every landmark, and compute the source-to-landmark
   replacement tables ``d(s, r, e)`` with one of two strategies:

   * ``"direct"`` — the exact tables of Section 5, the paper's choice for
     ``sigma = 1``.  The paper runs the classical single-pair algorithm
     once per ``(source, landmark)`` pair (kept as
     ``compute_direct_tables_reference``); the solver gets the same values
     from one subtree repair of each source tree, ``O(m ecc(s))`` per
     source.
   * ``"auxiliary"`` — the Section 8 adaptation of Bernstein–Karger
     (centers, path-cover lemma, bottleneck edges), giving the
     ``O~(m sqrt(n sigma) + sigma n^2)`` bound of Theorem 26.

2. **Near-edge, small replacement paths** (Section 7.1): the paper builds
   a per-source auxiliary graph and runs Dijkstra on it (kept as
   ``compute_near_small_tables_reference``); the solver gets the same
   values from one subtree repair of each source tree, confined to each
   edge's near zone (:mod:`repro.core.near_small`).
3. **Assembly**: for every source, target and failed edge take the minimum
   of the responsible candidate generators — Algorithm 3 for far edges,
   the Section 7.1 value and Algorithm 4 for near edges.  Algorithm 4
   runs only where the Section 7.1 value is not certified exact
   (:func:`solve_single_source`, proof in :mod:`repro.core.near_small`).

Both table families are kept per source in one shape, the repair
kernel's :data:`~repro.graph.repair.PairEdgeTable`: ``(r, e) -> d(s, r, e)``
and ``(t, e) -> w[t, e]``, the paper's hash tables.  Every reader looks
an entry up with one ``table.get(key, fallback)``.

The solver records wall-clock statistics per phase (used by the benchmark
harness) and can optionally self-verify against the brute-force oracle.
"""

from __future__ import annotations

import math
import random
import time
from contextlib import contextmanager
from operator import index as _vertex_id
from typing import Dict, Iterable, Iterator, List, Optional

from repro.core.far_edges import FarEdgeSolver
from repro.core.landmark_rp import compute_direct_tables
from repro.core.landmarks import LandmarkHierarchy
from repro.core.near_large import NearLargeSolver
from repro.core.params import AlgorithmParams, ProblemScale
from repro.core.result import PerSourceTable, ReplacementPathResult
from repro.exceptions import InternalInvariantError, InvalidParameterError
from repro.graph.csr import bfs_many
from repro.graph.graph import Graph
from repro.graph.repair import PairEdgeTable
from repro.graph.tree import ShortestPathTree
from repro.parallel import CheckpointJournal, Executor, run_sharded

#: Valid values of the ``landmark_strategy`` argument.
LANDMARK_STRATEGIES = ("direct", "auxiliary")


class MSRPSolver:
    """End-to-end solver for the MSRP problem.

    Parameters
    ----------
    graph:
        Undirected, unweighted input graph.
    sources:
        The source set ``S`` (non-empty, distinct vertices).  Ids are
        coerced with ``operator.index``, so ``3.7`` is refused
        (``TypeError``) instead of truncated to source 3.
    params:
        Algorithm constants; defaults to :class:`AlgorithmParams`.
    landmark_strategy:
        ``"direct"`` or ``"auxiliary"`` (see module docstring).
    landmark_hierarchy:
        Optional pre-sampled hierarchy; tests inject deterministic ones.
    """

    def __init__(
        self,
        graph: Graph,
        sources: Iterable[int],
        params: Optional[AlgorithmParams] = None,
        landmark_strategy: str = "direct",
        landmark_hierarchy: Optional[LandmarkHierarchy] = None,
    ):
        self.graph = graph
        self.sources: List[int] = sorted(set(map(_vertex_id, sources)))
        if not self.sources:
            raise InvalidParameterError("the source set must not be empty")
        for s in self.sources:
            if not graph.has_vertex(s):
                raise InvalidParameterError(f"source {s} is not a vertex of the graph")
        if landmark_strategy not in LANDMARK_STRATEGIES:
            raise InvalidParameterError(
                f"landmark_strategy must be one of {LANDMARK_STRATEGIES}, "
                f"got {landmark_strategy!r}"
            )
        self.params = params if params is not None else AlgorithmParams()
        self.landmark_strategy = landmark_strategy
        self.scale = ProblemScale(graph.num_vertices, len(self.sources), self.params)
        self._given_hierarchy = landmark_hierarchy

        # Populated by preprocess().
        self.landmarks: Optional[LandmarkHierarchy] = None
        self.source_trees: Dict[int, ShortestPathTree] = {}
        self.landmark_trees: Dict[int, ShortestPathTree] = {}
        #: per source, ``(landmark, edge) -> d(s, r, e)`` (Section 5 or 8)
        self.landmark_tables: Optional[Dict[int, PairEdgeTable]] = None
        #: per source, ``(target, near edge) -> w[t, e]`` (Section 7.1)
        self.near_small_tables: Dict[int, PairEdgeTable] = {}
        #: wall-clock seconds per phase, filled in as the solver runs
        self.phase_seconds: Dict[str, float] = {}
        #: the Executor spanning the current solve, while one runs
        self._executor: Optional[Executor] = None
        #: :meth:`Executor.stats` of the most recent solve (its journal
        #: counters); empty until a solve ran.
        self.executor_stats: Dict[str, object] = {}

    # -- pipeline --------------------------------------------------------------

    def _make_executor(self) -> Executor:
        """Build the executor for one solve; with ``params.checkpoint``
        set, the checkpoint journal rides on it."""
        executor = Executor()
        if self.params.checkpoint is not None:
            journal = CheckpointJournal.open(
                self.params.checkpoint, identity=self._journal_identity()
            )
            executor.attach_journal(journal)
        return executor

    def _journal_identity(self) -> Dict[str, object]:
        """The workload identity a checkpoint journal is bound to.

        Covers everything that determines the solve's output: the graph
        (by fingerprint), the result-affecting parameters (by hash — the
        ``checkpoint`` directory and the post-hoc ``verify`` flag are
        excluded), the landmark strategy and the source set.  A journal
        whose identity differs refuses to open rather than splice
        mismatched results.
        """
        import hashlib
        import json
        from dataclasses import asdict

        from repro.store.format import graph_fingerprint

        params = asdict(self.params)
        for knob in ("checkpoint", "verify"):
            del params[knob]
        params_blob = json.dumps(params, sort_keys=True).encode("utf-8")
        return {
            "graph_fingerprint": graph_fingerprint(self.graph),
            "params_sha256": hashlib.sha256(params_blob).hexdigest(),
            "strategy": self.landmark_strategy,
            "sources": list(self.sources),
        }

    @contextmanager
    def _executor_scope(self) -> Iterator[Executor]:
        """One :class:`~repro.parallel.Executor` spanning the whole solve.

        Every keyed phase of the pipeline (BFS fan-out, Section 7.1 and
        8.1-8.3 builds, assembly sweep, brute-force verification) runs on
        the same executor, so the journal numbers its phases in one
        deterministic sequence.  Re-entrant, so ``solve()`` calling
        ``preprocess()`` shares the outer scope's executor.  On exit the
        executor's counters are preserved in :attr:`executor_stats`.
        """
        if self._executor is not None:
            yield self._executor
            return
        executor = self._make_executor()
        self._executor = executor
        try:
            yield executor
        finally:
            self.executor_stats = executor.stats()
            self._executor = None

    def preprocess(self) -> "MSRPSolver":
        """Run the preprocessing phase (Sections 5 and 8)."""
        with self._executor_scope():
            self._preprocess()
        return self

    def _preprocess(self) -> None:
        rng = random.Random(self.params.seed)

        start = time.perf_counter()
        self.landmarks = (
            self._given_hierarchy
            if self._given_hierarchy is not None
            else LandmarkHierarchy.sample(self.scale, self.sources, rng)
        )
        self.phase_seconds["sample_landmarks"] = time.perf_counter() - start

        start = time.perf_counter()
        # One batched sweep over the CSR kernel: the flat form is compiled
        # once and shared by every root, and a landmark that is also a
        # source reuses the same tree object.  The root fan-out runs on the
        # solve's executor.
        landmark_roots = sorted(self.landmarks.union)
        trees = bfs_many(
            self.graph, self.sources + landmark_roots, pool=self._executor
        )
        self.source_trees = {s: trees[s] for s in self.sources}
        self.landmark_trees = {r: trees[r] for r in landmark_roots}
        self.phase_seconds["bfs_trees"] = time.perf_counter() - start

        # The Section 7.1 tables come first: the auxiliary strategy's
        # Section 8.1 and 8.3 builds reuse them.
        start = time.perf_counter()
        from repro.parallel.tasks import near_small_task

        self.near_small_tables = run_sharded(
            near_small_task,
            self.sources,
            {
                "graph": self.graph,
                "trees": self.source_trees,
                "scale": self.scale,
            },
            pool=self._executor,
        )
        self.phase_seconds["near_small_auxiliary"] = time.perf_counter() - start

        start = time.perf_counter()
        self.landmark_tables = self._compute_landmark_tables(rng)
        self.phase_seconds["landmark_replacement_paths"] = time.perf_counter() - start

    def _compute_landmark_tables(
        self, rng: random.Random
    ) -> Dict[int, PairEdgeTable]:
        if self.landmark_strategy == "direct":
            return compute_direct_tables(
                self.graph, self.source_trees, self.landmarks.union
            )
        # Imported lazily: repro.multisource depends on repro.core for the
        # Section 7.1 tables its Section 8.1 and 8.3 builds reuse.
        from repro.multisource.pipeline import compute_auxiliary_tables

        return compute_auxiliary_tables(
            graph=self.graph,
            scale=self.scale,
            sources=self.sources,
            source_trees=self.source_trees,
            landmarks=self.landmarks,
            landmark_trees=self.landmark_trees,
            near_small=self.near_small_tables,
            rng=rng,
            pool=self._executor,
        )

    def solve(self) -> ReplacementPathResult:
        """Run the full pipeline and return the replacement-path tables.

        One :class:`~repro.parallel.Executor` spans the whole call —
        preprocessing, assembly and (with ``params.verify``) the
        brute-force cross-check.  With ``params.checkpoint`` set, every
        completed chunk is journaled and a re-run of a killed solve
        resumes from the journal.
        """
        with self._executor_scope() as executor:
            if self.landmark_tables is None:
                self._preprocess()

            start = time.perf_counter()
            far_solver = FarEdgeSolver(
                self.scale,
                self.landmarks,
                self.landmark_trees,
                self.landmark_tables,
                self.source_trees,
            )
            large_solver = NearLargeSolver(
                self.landmarks,
                self.landmark_trees,
                self.landmark_tables,
                self.source_trees,
            )

            from repro.parallel.tasks import solve_sources_task

            tables: Dict[int, PerSourceTable] = run_sharded(
                solve_sources_task,
                self.sources,
                {
                    "source_trees": self.source_trees,
                    "near_small_tables": self.near_small_tables,
                    "scale": self.scale,
                    "far_solver": far_solver,
                    "large_solver": large_solver,
                },
                pool=executor,
            )
            self.phase_seconds["assembly"] = time.perf_counter() - start

            result = ReplacementPathResult(tables, self.source_trees, graph=self.graph)
            if self.params.verify:
                self._verify(result)
        return result

    def store_metadata(self) -> Dict[str, object]:
        """Provenance block for the on-disk store (:mod:`repro.store`).

        Returns the strategy, the governing :class:`AlgorithmParams` as a
        plain dict, the sources and the executor's journal counters, so a
        store records how its tables were computed.  The wall-clock
        :attr:`phase_seconds` stay out: they differ between two solves of
        one instance, and so would the store's bytes.
        """
        from dataclasses import asdict

        return {
            "strategy": self.landmark_strategy,
            "params": asdict(self.params),
            "sources": list(self.sources),
            "executor_stats": dict(self.executor_stats),
        }

    def _verify(self, result: ReplacementPathResult) -> None:
        """Raise unless ``result`` equals brute force entry for entry.

        The message splits the mismatches three ways: overestimates (the
        one-sided miss the randomized algorithm is allowed), underestimates
        (a bug) and entries present on one side only.
        """
        from repro.rp.bruteforce import brute_force_multi_source

        reference = brute_force_multi_source(
            self.graph, self.sources, pool=self._executor
        )
        mismatches = result.differences_from(reference)
        if mismatches:
            over = under = one_sided = 0
            for _s, _t, _e, ours, theirs in mismatches:
                if math.isnan(ours) or math.isnan(theirs):
                    one_sided += 1
                elif ours > theirs:
                    over += 1
                else:
                    under += 1
            raise InternalInvariantError(
                f"MSRP output disagrees with brute force on {len(mismatches)} "
                f"entries ({over} overestimated, {under} underestimated, "
                f"{one_sided} on one side only); first mismatches: "
                f"{mismatches[:5]}"
            )


def solve_single_source(
    source: int,
    tree: ShortestPathTree,
    small_tables: PairEdgeTable,
    scale: ProblemScale,
    far_solver: FarEdgeSolver,
    large_solver: NearLargeSolver,
) -> PerSourceTable:
    """Assemble the replacement table of one source in a single sweep.

    Rather than re-walking ``path_to(target)`` and re-classifying its
    edges per target (``O(depth)`` parent hops, a ``ClassifiedEdge``
    allocation and an edge normalisation per (target, edge)), this
    visits the targets in tree preorder while maintaining the stack of
    normalised path edges: moving from one target to the next truncates
    the stack to the new parent's depth and pushes one edge, so every
    tree edge is normalised exactly once and per-(target, edge)
    classification is two array reads (the stack entry and the
    precomputed far-level-by-distance table).

    A near entry takes the Section 7.1 value ``w[t, e]`` (``small_tables``)
    and, only when ``w[t, e] >= 2(dist(ch) + near_threshold) - dist(t)``
    for ``e = (p, ch)``, the Algorithm 4 candidate below it.  A smaller
    ``w[t, e]`` is certified exact (:mod:`repro.core.near_small`), and
    every Algorithm 4 candidate is the length of a walk avoiding ``e``, so
    it could not replace the value: skipping the scan changes no entry.
    Stack index ``i`` holds the edge whose child is at depth
    ``dist(ch) = i + 1``, the stack length is ``dist(t)``, and entry ``i``
    of the target's list is that edge's replacement length
    (:data:`~repro.core.result.PerSourceTable`).

    A module-level function (not a solver method) so the keyed assembly
    phase can run it per source through :mod:`repro.parallel.tasks`.
    """
    order = tree.order
    dist = tree.dist
    parent = tree.parent

    # far_level_of[d] for every possible distance-to-target along a
    # path; -1 marks the near range (classify_path_edges semantics).
    max_depth = int(dist[order[-1]]) if order else 0
    near_threshold = scale.near_threshold
    far_level_of = [
        -1 if d < near_threshold else scale.far_level(d)
        for d in range(max_depth + 1)
    ]

    small_value = small_tables.get
    inf = math.inf
    large_candidate = large_solver.candidate
    far_candidate = far_solver.candidate_edge

    preorder = tree.preorder()
    edge_stack: List = []
    per_source: PerSourceTable = {}
    for target in preorder[1:]:
        p = parent[target]
        del edge_stack[int(dist[p]):]
        edge_stack.append((p, target) if p <= target else (target, p))
        length = len(edge_stack)
        per_target: List = []
        for i in range(length):
            edge = edge_stack[i]
            level = far_level_of[length - i - 1]
            if level < 0:
                value = small_value((target, edge), inf)
                if value >= 2 * (i + 1 + near_threshold) - length:
                    # Not certified: Algorithm 4, bounded by the Section
                    # 7.1 value (math.inf unless smaller).
                    alternative = large_candidate(source, target, edge, value)
                    if alternative < value:
                        value = alternative
            else:
                value = far_candidate(source, target, edge, level)
            per_target.append(value)
        per_source[target] = per_target
    return per_source


def multiple_source_replacement_paths(
    graph: Graph,
    sources: Iterable[int],
    params: Optional[AlgorithmParams] = None,
    landmark_strategy: str = "direct",
    landmark_hierarchy: Optional[LandmarkHierarchy] = None,
) -> ReplacementPathResult:
    """Solve the MSRP problem (paper Theorem 1 / Theorem 26).

    Parameters
    ----------
    graph:
        Undirected, unweighted graph.
    sources:
        The source set ``S``.
    params:
        Optional algorithm constants (seed, verification, scaled thresholds).
    landmark_strategy:
        How to compute the source-to-landmark replacement tables:
        ``"direct"`` (exact, one subtree repair per source tree in place of
        the paper's classical single-pair run per pair) or ``"auxiliary"``
        (the Section 8 construction of the paper).
    landmark_hierarchy:
        Optional pre-sampled landmark hierarchy (deterministic tests).

    Returns
    -------
    ReplacementPathResult
        ``result.replacement_length(s, t, e)`` is ``|st <> e|`` for every
        source ``s``, target ``t`` and edge ``e`` on the canonical ``s-t``
        path.  Entries are ``math.inf`` when the deletion disconnects the
        pair.  The answer is correct with high probability (Theorem 26).
    """
    solver = MSRPSolver(
        graph,
        sources,
        params=params,
        landmark_strategy=landmark_strategy,
        landmark_hierarchy=landmark_hierarchy,
    )
    return solver.solve()
