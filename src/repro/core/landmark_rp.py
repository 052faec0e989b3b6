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

Both strategies return ``source -> PairEdgeTable``: per source, the
paper's hash table ``(r, e) -> d(s, r, e)`` with a key for every landmark
``r != s`` that ``s`` reaches and every edge ``e`` of the canonical
``s``-``r`` path.  A reader looks an entry up with
``table.get((r, e), d(s, r))``: an edge off the canonical path cannot
lengthen it, and ``d(s, r)`` is ``inf`` when ``s`` does not reach ``r``.
"""

from __future__ import annotations

import math
from operator import index as _vertex_id
from typing import Dict, Iterable, Mapping

from repro.graph.graph import Graph
from repro.graph.repair import PairEdgeTable, subtree_repair_distances
from repro.graph.tree import ShortestPathTree
from repro.rp.single_pair import replacement_paths


def compute_direct_tables(
    graph: Graph,
    source_trees: Mapping[int, ShortestPathTree],
    landmarks: Iterable[int],
) -> Dict[int, PairEdgeTable]:
    """Compute the exact ``d(s, r, e)`` by one subtree repair per source.

    Deleting an edge of the source tree changes distances only inside the
    subtree below it, so one :func:`subtree_repair_distances` call on each
    source tree, restricted to the landmarks and with no depth cap, gives
    every landmark's value at once.  That costs
    ``O(sum_v deg(v) * depth_s(v)) <= O(m ecc(s))`` per source, against
    ``O~(m |L|)`` for the paper's one single-pair run per landmark
    (:func:`compute_direct_tables_reference`); only when
    ``ecc(s) >> |L|`` is it above the paper's bound.

    Lengths are ``int``, or ``math.inf`` when the edge separates the pair,
    exactly as the reference returns them.
    """
    landmark_set = set(map(_vertex_id, landmarks))
    return {
        source: subtree_repair_distances(graph, tree, landmark_set, math.inf)
        for source, tree in source_trees.items()
    }


def compute_direct_tables_reference(
    graph: Graph,
    source_trees: Mapping[int, ShortestPathTree],
    landmarks: Iterable[int],
) -> Dict[int, PairEdgeTable]:
    """The paper's direct construction: one single-pair run per pair.

    Runs the classical single-pair algorithm
    (:func:`repro.rp.single_pair.replacement_paths`, a BFS from the
    landmark plus an ``O(m log m)`` cut sweep) once per
    ``(source, landmark)`` pair; this is the strategy of Theorem 14.  Both
    builders are exact, so :func:`compute_direct_tables` is pinned equal
    to this one, value types included.
    """
    landmark_set = sorted(set(map(_vertex_id, landmarks)))
    tables: Dict[int, PairEdgeTable] = {}
    for source, tree in source_trees.items():
        table: PairEdgeTable = {}
        for landmark in landmark_set:
            if landmark == source or not tree.is_reachable(landmark):
                continue
            result = replacement_paths(graph, source, landmark, source_tree=tree)
            for edge, length in result.lengths.items():
                table[(landmark, edge)] = length
        tables[source] = table
    return tables
