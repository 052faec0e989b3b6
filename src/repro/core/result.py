"""Result containers for the SSRP / MSRP pipelines.

The output of the MSRP problem is, for every source ``s``, target ``t`` and
edge ``e`` on the canonical ``s``-``t`` path, the length ``|st <> e|``.
With ``sigma`` sources this is ``Theta(sigma n^2)`` numbers in the worst
case (the paper's footnote 2).  A path edge is fixed by its depth, so each
target's lengths are one list indexed by edge depth, and the source's BFS
tree implies every edge; this module is the only one that reads an entry
by its depth.  The query interface mirrors the fault-tolerant
distance-oracle view of Bernstein & Karger.
"""

from __future__ import annotations

import math
from collections.abc import Mapping
from operator import index as _vertex_id
from typing import Dict, Iterator, List, Optional, Sequence, Tuple

from repro.exceptions import InvalidParameterError
from repro.graph.graph import Edge, Graph, normalize_edge
from repro.graph.tree import ShortestPathTree

#: target -> lengths by edge depth: entry ``i`` avoids the canonical-path
#: edge whose child is at depth ``i + 1``, so the list is ``dist[t]`` long
PerSourceTable = Dict[int, List[float]]


def _require_vertex(tree: ShortestPathTree, target: int) -> int:
    """Coerce ``target`` like a source and refuse ids outside ``0..n-1``
    (a negative id would index from the end)."""
    target = _vertex_id(target)
    if not 0 <= target < tree.num_vertices:
        raise InvalidParameterError(
            f"target {target} is outside the vertex range 0..{tree.num_vertices - 1}"
        )
    return target


def _checked_table(
    s: int, tree: ShortestPathTree, per_source: Mapping
) -> PerSourceTable:
    """Copy one source's table in preorder, refusing a bad shape.

    A per-target mapping is the edge-keyed layout (``to_dict()`` output),
    whose ``dist[t]`` keys would pass a length check.  The copy puts
    infinities back on the ``math.inf`` singleton: tables replayed from a
    checkpoint journal hold *new* floats, and ``is math.inf`` callers (the
    benchmark fingerprint) must not tell a resumed run from a fresh one.
    """
    inf = math.inf
    table: PerSourceTable = {}
    for t in tree.preorder()[1:]:
        values = per_source.get(t)
        if values is None or isinstance(values, Mapping) or len(values) != tree.dist[t]:
            raise InvalidParameterError(
                f"source {s}, target {t} at distance {tree.dist[t]} needs that "
                "many lengths in a list indexed by edge depth (not an "
                f"edge-keyed mapping), got {values!r}"
            )
        table[t] = [inf if value == inf else value for value in values]
    if len(table) != len(per_source):
        foreign = [key for key in per_source if key not in table]
        raise InvalidParameterError(
            f"source {s}: keys {foreign} are not targets the source reaches"
        )
    return table


class ReplacementPathResult:
    """Replacement-path lengths for a set of sources.

    Parameters
    ----------
    tables:
        ``tables[s][t][i]`` is ``|st <> e|`` for the edge ``e`` of the
        canonical ``s``-``t`` path whose child is at depth ``i + 1``, for
        every target ``t`` that ``s`` reaches; a bad shape raises
        :class:`~repro.exceptions.InvalidParameterError`.
    source_trees:
        The BFS trees that define the canonical paths; they imply each
        entry's edge and answer queries about edges *not* on the path.
    graph:
        Optional originating graph.  When given, edge queries validate
        the edge actually exists — asking for the replacement length of a
        non-edge raises :class:`~repro.exceptions.InvalidParameterError`
        instead of silently returning the intact tree distance.
    """

    __slots__ = ("_tables", "_trees", "_graph", "_vertex_bound")

    def __init__(
        self,
        tables: Mapping[int, Mapping[int, Sequence[float]]],
        source_trees: Mapping[int, ShortestPathTree],
        graph: Optional[Graph] = None,
    ):
        self._trees: Dict[int, ShortestPathTree] = dict(source_trees)
        self._tables: Dict[int, PerSourceTable] = {}
        for s, per_source in tables.items():
            s = _vertex_id(s)
            if s not in self._trees:
                raise InvalidParameterError(f"missing source tree for source {s}")
            self._tables[s] = _checked_table(s, self._trees[s], per_source)
        self._graph = graph
        # Vertex bound for graph-less edge validation, resolved once.
        self._vertex_bound = (
            graph.num_vertices
            if graph is not None
            else min(
                (tree.num_vertices for tree in self._trees.values()), default=0
            )
        )

    # -- basic accessors ------------------------------------------------------

    @property
    def sources(self) -> Tuple[int, ...]:
        """The sources the result covers, in sorted order."""
        return tuple(sorted(self._tables))

    @property
    def graph(self) -> Optional[Graph]:
        """The originating graph, when the result carries one.

        A graph-backed result validates edge queries against the real edge
        set; the on-disk store (:mod:`repro.store`) persists the graph so
        that validation survives a save/load round-trip.
        """
        return self._graph

    def source_tree(self, source: int) -> ShortestPathTree:
        """The BFS tree that defines the canonical paths from ``source``."""
        return self._trees[self._require_source(source)]

    def targets(self, source: int) -> List[int]:
        """Targets for which replacement data is stored for ``source``."""
        return sorted(self._tables[self._require_source(source)])

    def table(self, source: int) -> PerSourceTable:
        """The raw per-source table (target -> lengths by depth), in preorder."""
        return self._tables[self._require_source(source)]

    # -- queries ---------------------------------------------------------------

    def distance(self, source: int, target: int) -> float:
        """Length of the canonical shortest ``source``-``target`` path."""
        tree = self._trees[self._require_source(source)]
        return tree.distance(_require_vertex(tree, target))

    def canonical_path(self, source: int, target: int) -> List[int]:
        """The canonical shortest ``source``-``target`` path (vertex list)."""
        tree = self._trees[self._require_source(source)]
        return tree.path_to(_require_vertex(tree, target))

    def replacement_length(
        self, source: int, target: int, edge: Sequence[int]
    ) -> float:
        """Return ``|st <> e|``.

        Edges that do not lie on the canonical ``source``-``target`` path do
        not change the distance, so the original shortest distance is
        returned for them.  ``math.inf`` means removing the edge disconnects
        the pair.

        The edge must be an actual edge of the instance: a pair that is not
        an edge of the graph (or, when the result was built without a graph
        reference, whose endpoints are not even vertices) raises
        :class:`~repro.exceptions.InvalidParameterError` rather than
        answering for a deletion that cannot happen.
        """
        source = self._require_source(source)
        tree = self._trees[source]
        target = _require_vertex(tree, target)
        child = tree.edge_child(self.require_edge(edge))
        if child is not None:
            pos, end = tree.spans()
            if pos[child] <= pos[target] < end[child]:
                return self._tables[source][target][int(tree.dist[child]) - 1]
        return tree.dist[target]

    def sweep(self, source: int, edge: Sequence[int]) -> List[float]:
        """``|sv <> e|`` for every vertex ``v``, as a list indexed by vertex.

        The tree distances with the failed edge's subtree overwritten: the
        subtree is one run of the preorder, and its entries all sit at the
        edge's depth.
        """
        source = self._require_source(source)
        tree = self._trees[source]
        child = tree.edge_child(self.require_edge(edge))
        lengths = list(tree.dist)
        if child is not None:
            pos, end = tree.spans()
            depth = int(tree.dist[child]) - 1
            per_source = self._tables[source]
            for target in tree.preorder()[pos[child]:end[child]]:
                lengths[target] = per_source[target][depth]
        return lengths

    def require_edge(self, edge: Sequence[int]) -> Edge:
        """Validate ``edge`` and return it normalised to ``(min, max)``.

        Public so serving layers that answer queries from cached slices
        (bypassing :meth:`replacement_length`) apply the same non-edge
        rejection.  Endpoints are coerced like sources, with
        ``operator.index``, so ``(0.5, 2.2)`` is refused instead of
        truncated to ``(0, 2)``.
        """
        u, v = _vertex_id(edge[0]), _vertex_id(edge[1])
        graph = self._graph
        if graph is not None:
            if not graph.has_edge(u, v):
                raise InvalidParameterError(
                    f"({u}, {v}) is not an edge of the graph; replacement "
                    "lengths are only defined for deletable edges"
                )
        else:
            # No graph reference: the trees still bound the vertex range.
            n = self._vertex_bound
            if not (0 <= u < n and 0 <= v < n) or u == v:
                raise InvalidParameterError(
                    f"({u}, {v}) is not an edge of a graph on {n} vertices"
                )
        return normalize_edge(u, v)

    def replacement_lengths(self, source: int, target: int) -> Dict[Edge, float]:
        """The ``edge -> length`` entries of a ``(source, target)`` pair, root first."""
        source = self._require_source(source)
        target = _vertex_id(target)
        values = self._tables[source].get(target)
        if values is None:
            return {}
        return dict(zip(self._trees[source].path_edges_to(target), values))

    # -- bulk views -------------------------------------------------------------

    def iter_entries(self) -> Iterator[Tuple[int, int, Edge, float]]:
        """Yield ``(source, target, edge, length)`` for every stored entry."""
        for s, per_source in self._tables.items():
            path_edges_to = self._trees[s].path_edges_to
            for t, values in per_source.items():
                for e, value in zip(path_edges_to(t), values):
                    yield s, t, e, value

    @property
    def output_size(self) -> int:
        """Total number of stored ``(s, t, e)`` triples (the ``sigma n^2`` term)."""
        return sum(
            len(values)
            for per_source in self._tables.values()
            for values in per_source.values()
        )

    def to_dict(self) -> Dict[int, Dict[int, Dict[Edge, float]]]:
        """Copy the result into nested ``source -> target -> edge`` dicts."""
        return {
            s: {t: self.replacement_lengths(s, t) for t in per_source}
            for s, per_source in self._tables.items()
        }

    # -- comparisons -------------------------------------------------------------

    def differences_from(
        self, reference: Mapping[int, Mapping[int, Mapping[Edge, float]]]
    ) -> List[Tuple[int, int, Edge, float, float]]:
        """Compare against an edge-keyed reference (e.g. the brute-force oracle).

        Returns a list of ``(source, target, edge, ours, theirs)`` tuples for
        every entry present in either side whose values differ.  An empty
        list means the two answers agree exactly.  The walk builds one
        target's edge keys at a time, never a whole :meth:`to_dict` copy.
        """
        mismatches: List[Tuple[int, int, Edge, float, float]] = []
        all_sources = set(self._tables) | set(reference)
        for s in all_sources:
            ours_source = self._tables.get(s, {})
            ref_source = reference.get(s, {})
            all_targets = set(ours_source) | set(ref_source)
            for t in all_targets:
                ours_target = self.replacement_lengths(s, t) if t in ours_source else {}
                ref_target = ref_source.get(t, {})
                for e in set(ours_target) | set(ref_target):
                    ours = ours_target.get(e, math.nan)
                    theirs = ref_target.get(e, math.nan)
                    if ours != theirs and not (math.isnan(ours) and math.isnan(theirs)):
                        mismatches.append((s, t, e, ours, theirs))
        return mismatches

    def matches(
        self, reference: Mapping[int, Mapping[int, Mapping[Edge, float]]]
    ) -> bool:
        """``True`` when the result agrees entirely with ``reference``."""
        return not self.differences_from(reference)

    # -- pickling ----------------------------------------------------------------

    def __getstate__(self):
        """Explicit pickled form: tables, trees and the graph reference.

        Without these methods a ``__slots__`` class pickles through the
        default reduce protocol, which restores the slots *directly* —
        skipping the constructor and therefore the ``math.inf``
        re-canonicalisation it performs.  An unpickled result would then
        hold ``inf`` objects that are ``== math.inf`` but not ``is
        math.inf``, silently breaking the byte-identical-parallelism
        invariant (benchmark fingerprints, ``is math.inf`` callers).

        The graph reference is part of the state on purpose: dropping it
        would downgrade ``require_edge`` to the permissive vertex-range
        check, re-opening the non-edge-query hole for round-tripped
        results.
        """
        return (self._tables, self._trees, self._graph)

    def __setstate__(self, state) -> None:
        tables, trees, graph = state
        # Route restoration through the constructor so every invariant it
        # establishes (inf canonicalisation, source/tree consistency,
        # vertex bound) holds for unpickled results too.
        self.__init__(tables, trees, graph=graph)

    # -- internals ---------------------------------------------------------------

    def _require_source(self, source: int) -> int:
        """Coerce ``source`` onto the constructor's plain-``int`` keys.

        ``operator.index`` accepts every true integer type (``bool``, numpy
        integer scalars) so such inputs address the same entries they would
        have created instead of falling through lookups into the "not
        stored" branches — while rejecting non-integral values like ``0.7``
        (``TypeError``) instead of silently truncating to a valid source.
        Returns the coerced key.
        """
        source = _vertex_id(source)
        if source not in self._tables:
            raise InvalidParameterError(
                f"{source} is not one of the result's sources {self.sources}"
            )
        return source

    def __repr__(self) -> str:  # pragma: no cover - debugging helper
        return (
            f"ReplacementPathResult(sources={len(self._tables)}, "
            f"entries={self.output_size})"
        )
