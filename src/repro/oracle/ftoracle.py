"""Fault-tolerant distance oracle facade.

The related-work discussion of the paper (Bernstein & Karger, Demetrescu et
al.) frames replacement paths as a *single-edge-fault distance oracle*:
preprocess the graph once, then answer ``QUERY(x, y, e)`` — the ``x``-``y``
distance avoiding edge ``e`` — in constant time.  This module provides that
interface on top of the MSRP pipeline for a fixed source set: queries from
any of the preprocessed sources to any vertex, avoiding any edge, are
answered in ``O(1)`` dictionary lookups.

This is the natural "downstream user" API: network-resilience tools ask
"how much longer is the route from depot ``s`` to customer ``t`` if link
``e`` fails?", which is exactly :meth:`FaultTolerantDistanceOracle.query`.
"""

from __future__ import annotations

import math
from typing import Iterable, Optional, Sequence

from repro.core.msrp import MSRPSolver
from repro.core.params import AlgorithmParams
from repro.core.result import ReplacementPathResult
from repro.exceptions import InvalidParameterError
from repro.graph.graph import Graph, normalize_edge


class FaultTolerantDistanceOracle:
    """Single-edge-fault distance oracle for a fixed set of sources.

    Parameters
    ----------
    graph:
        Undirected, unweighted graph.
    sources:
        The vertices queries may start from.  Preprocessing cost grows with
        ``sigma = len(sources)`` following Theorem 26; queries are ``O(1)``.
    params:
        Optional algorithm constants forwarded to the MSRP solver.
    landmark_strategy:
        Landmark preprocessing strategy (``"direct"`` or ``"auxiliary"``).
    """

    def __init__(
        self,
        graph: Graph,
        sources: Iterable[int],
        params: Optional[AlgorithmParams] = None,
        landmark_strategy: str = "direct",
    ):
        self._graph = graph
        self._solver = MSRPSolver(
            graph, sources, params=params, landmark_strategy=landmark_strategy
        )
        self._result: Optional[ReplacementPathResult] = None

    # -- lifecycle ------------------------------------------------------------

    def preprocess(self) -> "FaultTolerantDistanceOracle":
        """Run the MSRP pipeline; idempotent."""
        if self._result is None:
            self._result = self._solver.solve()
        return self

    @property
    def is_ready(self) -> bool:
        """``True`` once :meth:`preprocess` has completed."""
        return self._result is not None

    @property
    def result(self) -> ReplacementPathResult:
        """The underlying replacement-path tables (preprocessing if needed)."""
        self.preprocess()
        assert self._result is not None
        return self._result

    @property
    def sources(self) -> Sequence[int]:
        """The preprocessed sources."""
        return tuple(self._solver.sources)

    # -- queries ----------------------------------------------------------------

    def distance(self, source: int, target: int) -> float:
        """Fault-free shortest distance from ``source`` to ``target``."""
        return self.result.distance(source, target)

    def query(self, source: int, target: int, edge: Sequence[int]) -> float:
        """Return the ``source``-``target`` distance avoiding ``edge``.

        Mirrors the paper's ``QUERY(x, y, e)`` interface.  ``edge`` may be
        any edge of the graph; edges off the canonical path leave the
        distance unchanged.  ``math.inf`` indicates disconnection.
        """
        e = normalize_edge(int(edge[0]), int(edge[1]))
        if not self._graph.has_edge(*e):
            raise InvalidParameterError(f"edge {e} is not an edge of the graph")
        return self.result.replacement_length(source, target, e)

    def vulnerability(self, source: int, target: int) -> float:
        """Worst-case stretch over all single-edge failures.

        Returns the maximum of ``query(source, target, e) / distance`` over
        the edges of the canonical path — a simple resilience metric used by
        the example applications.  Returns ``math.inf`` when ``target`` is
        unreachable or some failure disconnects the pair, and ``1.0`` when
        ``target`` is the source (no failure can hurt).
        """
        base = self.distance(source, target)
        if base is math.inf or base == 0:
            return math.inf if base is math.inf else 1.0
        lengths = self.result.replacement_lengths(source, target)
        if not lengths:
            return 1.0
        worst = max(lengths.values())
        return worst / base
