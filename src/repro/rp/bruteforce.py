"""Brute-force replacement-path oracles.

These are the ground-truth implementations every efficient algorithm in the
repository is tested against, and also the first baseline row of the
"running-time landscape" experiment (E1).  They recompute a BFS for every
failed edge:

* single pair  — ``O(len(P) * (m + n))``
* single source — ``O(n * (m + n))`` (one BFS per tree edge of ``T_s``)
* multiple sources — ``sigma`` times the single-source cost.

The single-source variant exploits the fact that a failed edge ``e`` only
matters for targets whose canonical path uses ``e``, i.e. the vertices in
the ``T_s`` subtree below ``e``; this keeps its output exactly aligned with
the efficient algorithms (same canonical paths, same set of reported
``(t, e)`` pairs).

The one-BFS-per-tree-edge sweep is embarrassingly parallel, so the single-
and multi-source oracles take the same ``pool`` as the efficient pipeline
(an :class:`~repro.parallel.Executor`): the per-edge sweep shards across
the pool with output entry-for-entry identical to the serial sweep
(including ``math.inf`` canonicalisation), which is what makes
``verify=True`` runs and the nightly differential-fuzz sweeps usable on
larger instances.  Without a pool the sweep runs in-process.
"""

from __future__ import annotations

import math
from operator import index as _vertex_id
from typing import Dict, Iterable, List, Optional, Sequence

from repro.exceptions import InvalidParameterError
from repro.graph.csr import bfs_distances_csr, bfs_tree_csr
from repro.graph.graph import Edge, Graph, normalize_edge
from repro.graph.tree import ShortestPathTree
from repro.parallel import Executor, run_sharded

#: target -> (failed edge -> replacement length)
SingleSourceAnswer = Dict[int, Dict[Edge, float]]
#: source -> SingleSourceAnswer
MultiSourceAnswer = Dict[int, SingleSourceAnswer]


def brute_force_single_pair(
    graph: Graph,
    source: int,
    target: int,
    source_tree: Optional[ShortestPathTree] = None,
) -> Dict[Edge, float]:
    """Replacement lengths for every edge of the canonical ``s``-``t`` path."""
    tree = source_tree if source_tree is not None else bfs_tree_csr(graph, source)
    if not tree.is_reachable(target) or source == target:
        return {}
    csr = graph.csr()
    answer: Dict[Edge, float] = {}
    for edge in tree.path_edges_to(target):
        dist = bfs_distances_csr(csr, source, forbidden_edge=edge)
        answer[edge] = dist[target]
    return answer


def brute_force_single_source(
    graph: Graph,
    source: int,
    source_tree: Optional[ShortestPathTree] = None,
    pool: Optional[Executor] = None,
) -> SingleSourceAnswer:
    """Ground-truth SSRP: replacement lengths for every target and failed edge.

    The one-BFS-per-tree-edge sweep runs as one sharded phase on ``pool``
    (in-process without one); the merge re-canonicalises infinities so a
    process pool's answer is entry-for-entry identical to the serial
    sweep, ``is math.inf`` checks included.

    Returns
    -------
    dict
        ``answer[t][e]`` is the length of the shortest ``source``-``t`` path
        avoiding ``e``, for every ``t`` reachable from ``source`` and every
        edge ``e`` on the canonical ``source``-``t`` path.
    """
    from repro.parallel.tasks import bruteforce_edges_task

    if not graph.has_vertex(source):
        raise InvalidParameterError(f"source {source} outside vertex range")
    tree = source_tree if source_tree is not None else bfs_tree_csr(graph, source)
    # One BFS per tree edge: compile the CSR view once and reuse it for the
    # whole sweep (this loop dominates the oracle's running time).  The
    # sweep is keyed by the child endpoint of each tree edge; every
    # transport executes the identical task function, so the pooled and
    # serial answers are structurally the same object graph.
    csr = graph.csr()
    reachable = tree.reachable_vertices()
    children = [child for child in reachable if tree.parent[child] is not None]
    sharded = run_sharded(
        bruteforce_edges_task,
        children,
        {"graph": csr, "source": source, "tree": tree},
        pool=pool,
    )
    inf = math.inf
    answer: SingleSourceAnswer = {t: {} for t in reachable if t != source}
    for child in children:
        edge, per_target = sharded[child]
        for t, value in per_target.items():
            # Pickled floats lose singleton identity; re-canonicalise so
            # ``is math.inf`` consumers cannot tell a sharded run apart.
            answer[t][edge] = inf if value == inf else value
    return answer


def brute_force_multi_source(
    graph: Graph,
    sources: Iterable[int],
    pool: Optional[Executor] = None,
) -> MultiSourceAnswer:
    """Ground-truth MSRP: one brute-force SSRP per source.

    Every per-source edge sweep runs on ``pool`` (in-process without
    one), so a multi-source verification never pays more than the one
    pool start-up of the caller's executor.
    """
    answer: MultiSourceAnswer = {}
    for s in map(_vertex_id, sources):
        answer[s] = brute_force_single_source(graph, s, pool=pool)
    return answer


def replacement_distance(
    graph: Graph, source: int, target: int, edge: Sequence[int]
) -> float:
    """Length of the shortest ``source``-``target`` path avoiding ``edge``.

    A thin convenience wrapper (one BFS on ``G - e``) used by examples and a
    few spot-check tests; the efficient algorithms never call it.
    """
    banned = normalize_edge(_vertex_id(edge[0]), _vertex_id(edge[1]))
    if not graph.has_edge(*banned):
        raise InvalidParameterError(f"edge {banned} is not in the graph")
    dist = bfs_distances_csr(graph, source, forbidden_edge=banned)
    return dist[target]


def count_reported_pairs(answer: SingleSourceAnswer) -> int:
    """Number of ``(t, e)`` pairs in a single-source answer (output volume)."""
    return sum(len(per_target) for per_target in answer.values())
