"""Baseline algorithms the paper compares against (Sections 1-2).

Three baseline families match the running-time landscape discussed in the
paper's introduction:

* **Per-edge BFS brute force** — recompute a BFS for every failed edge;
  ``O~(sigma n m)``.  This is the naive algorithm every replacement-path
  paper implicitly compares against, and the repository's oracle:
  :func:`repro.rp.bruteforce.brute_force_single_source` and
  :func:`~repro.rp.bruteforce.brute_force_multi_source`.
* **Per-target classical replacement paths** — run the near-linear
  single-pair algorithm of [20, 21, 22] once per target;
  ``O~(m n)`` per source.  This is the "inefficient algorithm" the paper
  mentions at the start of Section 3.
* **Independent SSRP per source** — run the paper's own Theorem 14
  algorithm once per source with single-source landmark sampling;
  ``O~(sigma (m sqrt(n) + n^2))``.  Theorem 26 improves on this by sharing
  a single ``sqrt(n sigma)``-sized landmark family across all sources.

All baselines return the same nested-dictionary shape as
:class:`repro.core.result.ReplacementPathResult.to_dict` so the benchmark
harness and the tests can compare them interchangeably.
"""

from __future__ import annotations

from operator import index as _vertex_id
from typing import Iterable, Optional

from repro.core.params import AlgorithmParams
from repro.core.ssrp import single_source_replacement_paths
from repro.graph.bfs import bfs_tree
from repro.graph.graph import Graph
from repro.rp.bruteforce import MultiSourceAnswer, SingleSourceAnswer
from repro.rp.single_pair import replacement_paths


def ssrp_per_target_classical(graph: Graph, source: int) -> SingleSourceAnswer:
    """SSRP by running the classical single-pair algorithm per target.

    This costs ``O~(m n)`` and is exact; it is the strongest deterministic
    baseline available before the paper's randomised ``O~(m sqrt(n) + n^2)``
    algorithm.
    """
    tree = bfs_tree(graph, source)
    answer: SingleSourceAnswer = {}
    for target in tree.reachable_vertices():
        if target == source:
            continue
        answer[target] = dict(
            replacement_paths(graph, source, target, source_tree=tree).lengths
        )
    return answer


def msrp_per_target_classical(
    graph: Graph, sources: Iterable[int]
) -> MultiSourceAnswer:
    """MSRP by running the classical single-pair algorithm per (source, target).

    ``O~(sigma m n)`` — with ``sigma = n`` this is the ``O~(m n^2)`` regime
    the Bernstein–Karger oracle improves to ``O~(mn + n^3)``.
    """
    return {s: ssrp_per_target_classical(graph, s) for s in map(_vertex_id, sources)}


def msrp_independent_ssrp(
    graph: Graph,
    sources: Iterable[int],
    params: Optional[AlgorithmParams] = None,
) -> MultiSourceAnswer:
    """MSRP by running the paper's SSRP algorithm independently per source.

    Each run samples its own ``O~(sqrt(n))`` landmark family, so the total
    cost is ``O~(sigma (m sqrt(n) + n^2))`` — the baseline Theorem 26
    improves upon for ``sigma > 1``.
    """
    answer: MultiSourceAnswer = {}
    for s in map(_vertex_id, sources):
        result = single_source_replacement_paths(graph, s, params=params)
        answer[s] = result.to_dict()[s]
    return answer
