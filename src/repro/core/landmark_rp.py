"""Source-to-landmark replacement-path tables ``d(s, r, e)``.

Both the far-edge routine (Algorithm 3) and the large-replacement-path
routine (Algorithm 4) look up the quantity ``d(s, r, e)`` — the length of a
shortest ``s``-``r`` path avoiding ``e`` — for landmarks ``r``.  The paper
offers two ways to obtain these tables:

* the **direct** strategy (Section 5, used verbatim for ``sigma = 1``):
  the paper runs the classical single-pair algorithm of [20, 21, 22] once
  per ``(source, landmark)`` pair, ``O~(m + n)`` each, i.e.
  ``O~(m sigma sqrt(n sigma))`` overall.  That construction is kept as
  :func:`compute_direct_tables_reference`.  :func:`compute_direct_tables`
  computes the same exact values by one subtree repair of each source tree
  (:func:`repro.graph.repair.subtree_repair_distances` restricted to the
  landmarks), ``O(sum_v deg(v) * depth_s(v)) <= O(m ecc(s))`` per source
  whatever the number of landmarks.
* the **auxiliary** strategy (Section 8): the adapted Bernstein–Karger
  construction implemented in :mod:`repro.multisource`, costing
  ``O~(m sqrt(n sigma) + sigma n^2)``.

Both strategies produce a :class:`SourceLandmarkTables`, so the downstream
phases are agnostic to how the tables were obtained.
"""

from __future__ import annotations

import math
from typing import Dict, Iterable, Mapping, Optional, Sequence

from repro.exceptions import InvalidParameterError
from repro.graph.graph import Edge, Graph, normalize_edge
from repro.graph.repair import subtree_repair_distances
from repro.graph.tree import ShortestPathTree
from repro.rp.single_pair import replacement_paths

#: landmark -> (edge on the canonical source-landmark path -> length)
PerSourceLandmarkTable = Dict[int, Dict[Edge, float]]


class SourceLandmarkTables:
    """Replacement lengths from every source to every landmark.

    The table behaves like the hash tables of the paper's preprocessing
    phase: ``query(s, r, e)`` returns ``d(s, r, e)`` in ``O(1)``, falling
    back to the shortest ``s``-``r`` distance when ``e`` is not on the
    canonical ``s``-``r`` path (removing such an edge cannot hurt the
    canonical path) and to ``inf`` when ``r`` is unreachable from ``s``.
    """

    __slots__ = ("_tables", "_trees", "landmarks")

    def __init__(
        self,
        tables: Mapping[int, PerSourceLandmarkTable],
        source_trees: Mapping[int, ShortestPathTree],
        landmarks: Iterable[int],
    ):
        self._tables: Dict[int, PerSourceLandmarkTable] = {
            int(s): {int(r): dict(per_edge) for r, per_edge in per_source.items()}
            for s, per_source in tables.items()
        }
        self._trees = dict(source_trees)
        self.landmarks = frozenset(int(r) for r in landmarks)
        for s in self._tables:
            if s not in self._trees:
                raise InvalidParameterError(f"missing source tree for source {s}")

    def distance(self, source: int, landmark: int) -> float:
        """Shortest ``source``-``landmark`` distance (``inf`` when unreachable)."""
        return self._trees[source].distance(landmark)

    def query(self, source: int, landmark: int, edge: Sequence[int]) -> float:
        """Return ``d(source, landmark, edge)``."""
        per_source = self._tables.get(source)
        if per_source is None:
            raise InvalidParameterError(f"no landmark table for source {source}")
        e = normalize_edge(int(edge[0]), int(edge[1]))
        per_edge = per_source.get(landmark)
        if per_edge is not None and e in per_edge:
            return per_edge[e]
        # Edge not on the canonical source-landmark path: the canonical path
        # survives the deletion, so the plain distance is the answer.
        return self._trees[source].distance(landmark)

    def table_for(self, source: int) -> PerSourceLandmarkTable:
        """Raw table for one source (landmark -> edge -> length)."""
        return self._tables[source]

    def tree_for(self, source: int) -> ShortestPathTree:
        """The BFS tree whose distances back the ``query`` fallback."""
        return self._trees[source]

    @property
    def num_entries(self) -> int:
        """Total number of stored ``(s, r, e)`` triples."""
        return sum(
            len(per_edge)
            for per_source in self._tables.values()
            for per_edge in per_source.values()
        )

    def __repr__(self) -> str:  # pragma: no cover - debugging helper
        return (
            f"SourceLandmarkTables(sources={len(self._tables)}, "
            f"landmarks={len(self.landmarks)}, entries={self.num_entries})"
        )


def compute_direct_tables(
    graph: Graph,
    source_trees: Mapping[int, ShortestPathTree],
    landmarks: Iterable[int],
) -> SourceLandmarkTables:
    """Compute the exact ``d(s, r, e)`` by one subtree repair per source.

    Deleting an edge of the source tree changes distances only inside the
    subtree below it, so one :func:`subtree_repair_distances` call on each
    source tree, restricted to the landmarks and with no depth cap, gives
    every landmark's value at once.  That costs
    ``O(sum_v deg(v) * depth_s(v)) <= O(m ecc(s))`` per source, against
    ``O~(m |L|)`` for the paper's one single-pair run per landmark
    (:func:`compute_direct_tables_reference`); only when
    ``ecc(s) >> |L|`` is it above the paper's bound.

    Every landmark has a key: ``{}`` for the source itself and for a
    landmark the source cannot reach.  Lengths are ``int``, or
    ``math.inf`` when the edge separates the pair, exactly as the
    reference returns them.
    """
    landmark_set = sorted(set(int(r) for r in landmarks))
    tables: Dict[int, PerSourceLandmarkTable] = {}
    for source, tree in source_trees.items():
        per_source: PerSourceLandmarkTable = {r: {} for r in landmark_set}
        repaired = subtree_repair_distances(graph, tree, landmark_set, math.inf)
        for (landmark, edge), length in repaired.items():
            per_source[landmark][edge] = length
        tables[source] = per_source
    return SourceLandmarkTables(tables, source_trees, landmark_set)


def compute_direct_tables_reference(
    graph: Graph,
    source_trees: Mapping[int, ShortestPathTree],
    landmarks: Iterable[int],
) -> SourceLandmarkTables:
    """The paper's direct construction: one single-pair run per pair.

    Runs the classical single-pair algorithm
    (:func:`repro.rp.single_pair.replacement_paths`, a BFS from the
    landmark plus an ``O(m log m)`` cut sweep) once per
    ``(source, landmark)`` pair; this is the strategy of Theorem 14.  Both
    builders are exact, so :func:`compute_direct_tables` is pinned equal
    to this one, value types included.
    """
    landmark_set = sorted(set(int(r) for r in landmarks))
    tables: Dict[int, PerSourceLandmarkTable] = {}
    for source, tree in source_trees.items():
        per_source: PerSourceLandmarkTable = {}
        for landmark in landmark_set:
            if landmark == source or not tree.is_reachable(landmark):
                per_source[landmark] = {}
                continue
            result = replacement_paths(graph, source, landmark, source_tree=tree)
            per_source[landmark] = dict(result.lengths)
        tables[source] = per_source
    return SourceLandmarkTables(tables, source_trees, landmark_set)
