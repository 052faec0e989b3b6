"""Large replacement paths avoiding near edges (paper Section 7.2, Algorithm 4).

A *near* edge ``e`` sits within ``2 sqrt(n/sigma) log n`` of ``t`` on the
canonical ``s``-``t`` path.  When the replacement path avoiding ``e`` is
*large* — longer than ``|se| + 2 sqrt(n/sigma) log n`` — Lemma 11 shows its
suffix exceeds ``2 sqrt(n/sigma) log n``, so by Lemma 12 a level-0 landmark
``r`` lies on the suffix close to ``t``, and by Lemma 13 no shortest
``r``-``t`` path can use ``e``.  Algorithm 4 therefore scans ``L_0``,
keeps the landmarks whose canonical ``r``-``t`` path avoids ``e`` and takes
the best ``d(s, r, e) + d(r, t)``.

Every candidate the solver emits is realisable (both summands correspond to
paths avoiding ``e``), so it can never beat an exact value.  The assembly
sweep (:func:`repro.core.msrp.solve_single_source`) therefore evaluates
Algorithm 4 only on the near entries whose Section 7.1 value is not
certified exact, ``w[t, e] >= 2(dist(ch) + near_threshold) - dist(t)``
for ``e = (p, ch)`` (the certificate is proved in
:mod:`repro.core.near_small`).

The scan is bounded: the candidate through ``r`` is at least
``d(s, r) + d(r, t)``, because every ``d(s, r, e)`` table value is the
length of an ``s``-``r`` walk (under both landmark strategies) and the
fallback is ``d(s, r)`` itself.  A candidate replaces the current value
only when strictly smaller, so a landmark whose candidate is not below the
caller's ``bound`` or the best candidate so far could change neither the
minimum nor which landmark wins a tie (``7`` against ``7.0``).  Each
landmark is therefore read cheapest test first:

1. ``d(s, r) + d(r, t)`` against the limit, two array reads;
2. the candidate ``d(s, r, e) + d(r, t)`` against the limit, one table
   lookup;
3. only then whether ``r``'s canonical path to ``t`` uses ``e``
   (``distance_avoiding``).

A landmark that fails a test is skipped.  The candidate is the expression
the plain scan sums, so the result is the plain scan's minimum when that
is below ``bound`` and ``math.inf`` otherwise.
"""

from __future__ import annotations

import math
from typing import Mapping

from repro.core.landmarks import LandmarkHierarchy
from repro.graph.graph import Edge
from repro.graph.repair import PairEdgeTable
from repro.graph.tree import ShortestPathTree


class NearLargeSolver:
    """Evaluates Algorithm 4 for near edges.

    Parameters
    ----------
    landmarks:
        The landmark hierarchy; only level 0 is scanned.
    landmark_trees:
        BFS trees of the landmarks (for the ``d(r, t)`` value and the
        "does the canonical ``r``-``t`` path avoid ``e``" predicate).
    landmark_tables:
        Per source, the ``(r, e) -> d(s, r, e)`` table from the
        preprocessing phase.
    source_trees:
        BFS tree of every source; ``d(s, r)`` is the value of an edge off
        the canonical ``s``-``r`` path, which has no table key.
    """

    __slots__ = ("_tables", "_source_trees", "_pairs")

    def __init__(
        self,
        landmarks: LandmarkHierarchy,
        landmark_trees: Mapping[int, ShortestPathTree],
        landmark_tables: Mapping[int, PairEdgeTable],
        source_trees: Mapping[int, ShortestPathTree],
    ):
        self._tables = landmark_tables
        self._source_trees = source_trees
        # The scan below runs once per (target, near edge) pair, so resolve
        # the landmark -> tree mapping once instead of per candidate.
        self._pairs = tuple(
            (landmark, landmark_trees[landmark])
            for landmark in sorted(landmarks.level(0))
            if landmark in landmark_trees
        )

    def candidate(
        self, source: int, target: int, edge: Edge, bound: float = math.inf
    ) -> float:
        """Best Algorithm 4 candidate for one near edge, if below ``bound``.

        Returns ``math.inf`` when no level-0 landmark gives a candidate
        below ``bound`` (in particular when the target is unreachable from
        every landmark or every canonical landmark-target path uses ``e``).
        """
        if edge[0] > edge[1]:
            edge = (edge[1], edge[0])
        inf = math.inf
        best = inf
        limit = bound
        table = self._tables[source]
        source_dist = self._source_trees[source].dist
        for landmark, tree in self._pairs:
            distance_to_target = tree.dist[target]
            # d(s, r, e) + d(r, t) >= d(s, r) + d(r, t): skip landmarks
            # that cannot beat the value in hand.
            if source_dist[landmark] + distance_to_target >= limit:
                continue
            candidate = (
                table.get((landmark, edge), source_dist[landmark])
                + distance_to_target
            )
            if candidate < limit and (
                tree.distance_avoiding(edge, target) is not inf
            ):
                best = limit = candidate
        return best
