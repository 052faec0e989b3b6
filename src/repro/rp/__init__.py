"""Replacement-path primitives: classical single-pair algorithm, brute force,
and the Dijkstra substrates used by the auxiliary-graph constructions.

Two Dijkstra substrates are exported, one per role.  The dict-based pair
(:class:`AuxiliaryGraphBuilder` + :func:`dijkstra`) defines the semantics,
takes the paper's tuple nodes, tracks predecessors on request and is what
every ``_reference`` construction builds on.  The
:class:`InternedAuxiliaryGraph` is the Section 8.3.2 product builder's: it
takes dense integer ids (``intern``, ``add_arc``) and its ``dijkstra``
returns the distance list indexed by id, so it is not a drop-in for the
dict builder.
"""

from repro.rp.bruteforce import (
    brute_force_multi_source,
    brute_force_single_pair,
    brute_force_single_source,
    count_reported_pairs,
    replacement_distance,
)
from repro.rp.dijkstra import (
    AuxiliaryGraphBuilder,
    InternedAuxiliaryGraph,
    dijkstra,
    reconstruct_path,
)
from repro.rp.single_pair import (
    SinglePairReplacementPaths,
    replacement_path_lengths,
    replacement_paths,
)

__all__ = [
    "replacement_paths",
    "replacement_path_lengths",
    "SinglePairReplacementPaths",
    "brute_force_single_pair",
    "brute_force_single_source",
    "brute_force_multi_source",
    "replacement_distance",
    "count_reported_pairs",
    "dijkstra",
    "reconstruct_path",
    "AuxiliaryGraphBuilder",
    "InternedAuxiliaryGraph",
]
