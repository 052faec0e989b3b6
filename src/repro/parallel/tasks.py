"""Module-level task functions for the sharded pipeline phases.

Each function here is the per-chunk body of one
:func:`repro.parallel.executor.run_sharded` phase: it reads the phase's shared
inputs from :func:`~repro.parallel.executor.worker_context` and returns a
``{key: result}`` dict for the chunk it was handed.  They live at module
scope (not as closures or methods) because the ``spawn`` start method
pickles task functions by qualified name.

Every task is a deterministic pure function of (context, keys): no task
consumes randomness, mutates the context, or depends on sibling keys, which
is what makes the sharded merge byte-identical to the serial loop.  Workers
run strictly serial code — ``resolve_workers`` returns 0 inside a pool
worker, so a task can safely call helpers that themselves accept a
``workers`` knob.

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


def chaos_probe_task(keys: Sequence[int]) -> Dict[int, int]:
    """Trivial pure task pinning the fault-injection battery.

    Context: ``{"bias": int}``.  Cheap on purpose — the chaos tests
    exercise the *scheduler's* crash recovery (worker kills, hangs,
    timeouts, serial degradation), and a heavyweight task body would only
    slow the battery down without widening its coverage.
    """
    ctx = worker_context()
    bias = ctx["bias"]
    return {key: key * key + bias for key in keys}


def bfs_roots_task(roots: Sequence[int]) -> Dict[int, Any]:
    """One BFS tree per root over the shared CSR graph.

    Context: ``{"graph": CSRGraph, "forbidden_edge": Optional[Edge]}``.
    """
    ctx = worker_context()
    graph = ctx["graph"]
    forbidden_edge = ctx["forbidden_edge"]
    return {
        root: bfs_tree_csr(graph, root, forbidden_edge=forbidden_edge)
        for root in roots
    }


def bruteforce_edges_task(
    children: Sequence[int],
) -> Dict[int, Tuple[Any, Dict[int, float]]]:
    """One forbidden-edge BFS per tree edge of the brute-force oracle.

    Context: ``{"graph": CSRGraph, "source": int, "tree": ShortestPathTree}``.
    A key is the child endpoint of a tree edge (unique per edge); the value
    is ``(edge, {target: replacement_length})`` restricted to the targets
    in the subtree below the failed edge — exactly the entries the serial
    sweep in :func:`repro.rp.bruteforce.brute_force_single_source` fills
    for that edge, in the same target order.
    """
    ctx = worker_context()
    csr = ctx["graph"]
    source = ctx["source"]
    tree = ctx["tree"]
    reachable = tree.reachable_vertices()
    is_ancestor = tree.is_ancestor
    results: Dict[int, Tuple[Any, Dict[int, float]]] = {}
    for child in children:
        parent = tree.parent[child]
        edge = normalize_edge(parent, child)
        dist = bfs_distances_csr(csr, source, forbidden_edge=edge)
        per_target: Dict[int, float] = {}
        for t in reachable:
            if t != source and is_ancestor(child, t):
                per_target[t] = dist[t]
        results[child] = (edge, per_target)
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
