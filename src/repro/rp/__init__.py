"""Replacement-path primitives: classical single-pair algorithm, brute force,
and the Dijkstra substrates used by the auxiliary-graph constructions.

Two Dijkstra substrates are exported: the dict-based reference pair
(:class:`AuxiliaryGraphBuilder` + :func:`dijkstra`) that defines the
semantics, and the :class:`InternedAuxiliaryGraph` the hot paths run on
(dense integer node ids, per-node arc rows, ``(float, int)`` heap entries).
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
