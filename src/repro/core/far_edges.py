"""Far-edge replacement paths (paper Section 6, Algorithm 3).

For a ``k``-far edge ``e`` on the canonical ``s``-``t`` path the replacement
path's suffix is longer than ``2^{k+1} sqrt(n/sigma) log n`` (Observation 8),
so with high probability it contains a landmark ``r`` of level ``k`` within
distance ``2^k sqrt(n/sigma) log n`` of ``t`` (Lemma 9).  Because ``e`` is at
least twice that far from ``t``, *any* ``r``-``t`` path within the radius
automatically avoids ``e``; the candidate ``d(s, r, e) + d(r, t)`` is
therefore always realisable, and for the landmark promised by Lemma 9 it is
exact.

The solver below evaluates Algorithm 3: among the level-``k`` landmarks
within the radius of ``t``, take the minimum candidate.  The per-edge cost
is ``O~(sqrt(n sigma) / 2^k)`` and, summed over the geometric ranges of a
path, ``O~(n)`` per target — the scaling trick the paper highlights as its
main idea.

Which landmarks lie within the radius depends only on the level and the
target, not on the source or the edge.  So the first call at a level walks
each level-``k`` landmark's BFS ``order`` until ``d(r, v)`` passes the
radius and files ``(r, d(r, v))`` under every vertex ``v`` it reaches.  That
costs the summed ball sizes, ``O(|L_k| n)`` at worst and as much memory,
once per level, and each call then reads only the in-radius landmarks of
its target (Lemma 9 expects a few) instead of testing all of ``L_k``.  A
level no call asks for builds nothing, and the lists are dropped when the
solver is pickled, so a sharded solve ships only the solver's inputs.

Two details make the scan deterministic and cheaper.  Each target's list
is in landmark-id order (a level is a frozenset, whose iteration order can
differ between equal hierarchies and across a pickle round trip), so a tie
between a table value (``7.0`` under the auxiliary strategy) and the
tree-distance fallback (``7``) always resolves the same way.  And a
landmark whose ``d(s, r) + d(r, t)`` is not below the best candidate so far
is skipped before its table lookup: every ``d(s, r, e)`` table value is the
length of an ``s``-``r`` walk, hence at least ``d(s, r)``, and a candidate
replaces the best only when strictly smaller, so the skipped landmark could
change neither the value nor the tie-break.
"""

from __future__ import annotations

import math
from operator import index as _vertex_id
from typing import Dict, List, Mapping, Tuple

from repro.core.landmarks import LandmarkHierarchy
from repro.core.params import ProblemScale
from repro.exceptions import InvalidParameterError
from repro.graph.graph import normalize_edge
from repro.graph.repair import PairEdgeTable
from repro.graph.tree import ShortestPathTree


class FarEdgeSolver:
    """Evaluates Algorithm 3 for ``k``-far edges.

    Parameters
    ----------
    scale:
        Problem-scale quantities (radii per level).
    landmarks:
        The sampled landmark hierarchy.
    landmark_trees:
        BFS tree for every landmark in ``landmarks.union`` (provides
        ``d(r, t)`` lookups).
    landmark_tables:
        Per source, the ``(r, e) -> d(s, r, e)`` table computed in the
        preprocessing phase.
    source_trees:
        BFS tree of every source; ``d(s, r)`` is the value of an edge off
        the canonical ``s``-``r`` path, which has no table key.
    """

    __slots__ = ("_scale", "_levels", "_tables", "_source_trees", "_in_radius")

    def __init__(
        self,
        scale: ProblemScale,
        landmarks: LandmarkHierarchy,
        landmark_trees: Mapping[int, ShortestPathTree],
        landmark_tables: Mapping[int, PairEdgeTable],
        source_trees: Mapping[int, ShortestPathTree],
    ):
        self._scale = scale
        self._tables = landmark_tables
        self._source_trees = source_trees
        # ``(landmark, tree)`` pairs of every level in landmark-id order,
        # the order the in-radius lists keep.
        self._levels = tuple(
            tuple(
                (landmark, landmark_trees[landmark])
                for landmark in sorted(level)
                if landmark in landmark_trees
            )
            for level in landmarks.levels
        )
        #: level -> target -> ``(landmark, d(r, t))`` within the level's
        #: radius, in landmark-id order; a level is built on first use
        self._in_radius: Dict[int, Dict[int, List[Tuple[int, float]]]] = {}

    def __getstate__(self):
        """Ship the solver's inputs only; the in-radius lists rebuild lazily."""
        return (self._scale, self._levels, self._tables, self._source_trees)

    def __setstate__(self, state) -> None:
        self._scale, self._levels, self._tables, self._source_trees = state
        self._in_radius = {}

    def _build_in_radius(self, level: int) -> Dict[int, List[Tuple[int, float]]]:
        """File every level-``level`` landmark under the vertices within its radius."""
        radius = self._scale.landmark_radius(level)
        in_radius: Dict[int, List[Tuple[int, float]]] = {}
        for landmark, tree in self._levels[level]:
            dist = tree.dist
            # BFS order lists vertices by nondecreasing distance.
            for vertex in tree.order:
                distance = dist[vertex]
                if distance > radius:
                    break
                in_radius.setdefault(vertex, []).append((landmark, distance))
        self._in_radius[level] = in_radius
        return in_radius

    def candidate_edge(
        self, source: int, target: int, edge, level: int
    ) -> float:
        """Best far-edge candidate for one failed ``level``-far edge (Algorithm 3).

        Returns ``math.inf`` when no level-``k`` landmark lies within the
        radius; by Lemma 9 this happens with probability at most ``1/n``
        for edges whose replacement path exists.
        """
        if level < 0:
            raise InvalidParameterError("landmark level must be non-negative")
        if level >= len(self._levels):
            # Levels beyond the sampled range are empty.
            return math.inf
        in_radius = self._in_radius.get(level)
        if in_radius is None:
            in_radius = self._build_in_radius(level)
        edge = normalize_edge(_vertex_id(edge[0]), _vertex_id(edge[1]))
        table = self._tables[source]
        source_dist = self._source_trees[source].dist
        best = math.inf
        for landmark, distance_to_target in in_radius.get(target, ()):
            # d(s, r, e) + d(r, t) >= d(s, r) + d(r, t): skip landmarks
            # that cannot beat the best so far.
            if source_dist[landmark] + distance_to_target >= best:
                continue
            candidate = (
                table.get((landmark, edge), source_dist[landmark])
                + distance_to_target
            )
            if candidate < best:
                best = candidate
        return best
