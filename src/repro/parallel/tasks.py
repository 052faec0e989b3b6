"""Task functions for the keyed pipeline phases.

Each function here is the per-chunk body of one
:func:`repro.parallel.executor.run_sharded` phase: it reads the phase's shared
inputs from :func:`~repro.parallel.executor.worker_context` and returns a
``{key: result}`` dict for the chunk it was handed.

Every task is a deterministic pure function of (context, keys): no task
consumes randomness, mutates the context, or depends on sibling keys.
That is what makes a resumed solve byte-identical to an uninterrupted
one: the checkpoint journal replays some keys' results from an earlier
process and recomputes the rest, and the merge cannot tell them apart.
``repro-lint`` rule REPRO001 scans these functions for nondeterminism.

Imports of :mod:`repro.core.msrp` and :mod:`repro.multisource.pipeline`
are deferred into the task bodies: those modules are the *call sites* of
the scheduler, and keeping the arrows one-directional at import time avoids
a cycle.
"""

from __future__ import annotations

from typing import Any, Dict, Sequence, Tuple

from repro.core.near_small import compute_near_small_tables
from repro.graph.csr import bfs_distances_csr, bfs_tree_csr
from repro.graph.graph import normalize_edge
from repro.multisource.tables import compute_center_to_landmark_tables
from repro.parallel.executor import worker_context


def bfs_roots_task(roots: Sequence[int]) -> Dict[int, Any]:
    """One BFS tree per root over the shared CSR graph.

    Context: ``{"graph": CSRGraph}``.
    """
    graph = worker_context()["graph"]
    return {root: bfs_tree_csr(graph, root) for root in roots}


def bruteforce_edges_task(
    children: Sequence[int],
) -> Dict[int, Tuple[Any, Dict[int, float]]]:
    """One forbidden-edge BFS per tree edge of the brute-force oracle.

    Context: ``{"graph": CSRGraph, "source": int, "tree": ShortestPathTree}``.
    A key is the child endpoint of a tree edge (unique per edge); the value
    is ``(edge, {target: replacement_length})`` restricted to the targets
    in the subtree below the failed edge, the child's preorder run —
    exactly the entries the merge in
    :func:`repro.rp.bruteforce.brute_force_single_source` fills for that
    edge.
    """
    ctx = worker_context()
    csr = ctx["graph"]
    source = ctx["source"]
    tree = ctx["tree"]
    preorder = tree.preorder()
    pos, end = tree.spans()
    results: Dict[int, Tuple[Any, Dict[int, float]]] = {}
    for child in children:
        edge = normalize_edge(tree.parent[child], child)
        dist = bfs_distances_csr(csr, source, forbidden_edge=edge)
        results[child] = (
            edge,
            {t: dist[t] for t in preorder[pos[child]:end[child]]},
        )
    return results


def near_small_task(sources: Sequence[int]) -> Dict[int, Any]:
    """Section 7.1 table per source (windowed subtree repair).

    Context: ``{"graph", "trees", "scale"}``.
    """
    ctx = worker_context()
    graph = ctx["graph"]
    trees = ctx["trees"]
    scale = ctx["scale"]
    return {
        source: compute_near_small_tables(graph, source, trees[source], scale)
        for source in sources
    }


def center_tables_task(centers: Sequence[int]) -> Dict[int, Any]:
    """Exact Section 8.2 table ``d(c, r, e)`` per center.

    Context: ``{"graph", "center_trees", "hierarchy", "readers",
    "scale"}``.  ``readers[c]`` is the sorted tuple of landmarks ``r``
    whose ``(c, r)`` pair MTC reads
    (:func:`repro.multisource.bottleneck.center_table_readers`); a center's
    table holds those landmarks only.
    """
    ctx = worker_context()
    graph = ctx["graph"]
    center_trees = ctx["center_trees"]
    hierarchy = ctx["hierarchy"]
    readers = ctx["readers"]
    scale = ctx["scale"]
    return {
        center: compute_center_to_landmark_tables(
            graph=graph,
            center=center,
            center_tree=center_trees[center],
            priority=hierarchy.priority_of(center),
            landmarks=readers[center],
            scale=scale,
        )
        for center in centers
    }


def assemble_task(sources: Sequence[int]) -> Dict[int, Any]:
    """Sections 8.1 + 8.3 + per-edge assembly for one source each.

    Context: ``{"graph", "scale", "landmark_trees", "centers",
    "center_trees", "center_to_landmark", "near_small", "source_trees",
    "landmark_paths", "landmark_intervals"}``; the last two hold each
    source's canonical landmark paths and their intervals.  Returns
    ``{source: table}`` with ``table`` the ``(landmark, edge) -> d(s, r,
    e)`` dict.
    """
    from repro.multisource.pipeline import _assemble_for_source

    ctx = worker_context()
    return {
        source: _assemble_for_source(
            graph=ctx["graph"],
            scale=ctx["scale"],
            source=source,
            source_tree=ctx["source_trees"][source],
            landmark_trees=ctx["landmark_trees"],
            centers=ctx["centers"],
            center_trees=ctx["center_trees"],
            center_to_landmark=ctx["center_to_landmark"],
            near_small=ctx["near_small"][source],
            landmark_paths=ctx["landmark_paths"][source],
            landmark_intervals=ctx["landmark_intervals"][source],
        )
        for source in sources
    }


def solve_sources_task(sources: Sequence[int]) -> Dict[int, Any]:
    """Final assembly sweep (`solve_single_source`) per source.

    Context: ``{"source_trees", "near_small_tables", "scale", "far_solver",
    "large_solver"}``.
    """
    from repro.core.msrp import solve_single_source

    ctx = worker_context()
    source_trees = ctx["source_trees"]
    near_small_tables = ctx["near_small_tables"]
    scale = ctx["scale"]
    far_solver = ctx["far_solver"]
    large_solver = ctx["large_solver"]
    return {
        source: solve_single_source(
            source,
            source_trees[source],
            near_small_tables[source],
            scale,
            far_solver,
            large_solver,
        )
        for source in sources
    }
