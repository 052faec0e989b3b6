"""Single Source Replacement Paths (paper Theorem 14).

The SSRP problem is the ``sigma = 1`` specialisation of MSRP, and the
paper's SSRP algorithm is exactly the MSRP pipeline with the *direct*
landmark strategy: replacement paths from the single source to every
landmark are computed exactly, after which the far/near machinery of
Sections 6-7 assembles the answer in ``O~(m sqrt(n) + n^2)`` time.  The
paper computes them with the classical near-linear algorithm once per
landmark, ``O~(m sqrt(n))`` in all; the library gets the same values from
one subtree repair of the source tree, ``O(m ecc(s))``
(:func:`repro.core.landmark_rp.compute_direct_tables`).

:func:`single_source_replacement_paths` is a thin convenience wrapper around
:class:`repro.core.msrp.MSRPSolver` that fixes ``sigma = 1`` and always uses
the direct strategy, mirroring how the paper presents Theorem 14 before
generalising to Theorem 26.
"""

from __future__ import annotations

from typing import Optional

from repro.core.landmarks import LandmarkHierarchy
from repro.core.msrp import MSRPSolver
from repro.core.params import AlgorithmParams
from repro.core.result import ReplacementPathResult
from repro.graph.graph import Graph


def single_source_replacement_paths(
    graph: Graph,
    source: int,
    params: Optional[AlgorithmParams] = None,
    landmark_hierarchy: Optional[LandmarkHierarchy] = None,
) -> ReplacementPathResult:
    """Solve the SSRP problem from a single source (Theorem 14).

    Parameters
    ----------
    graph:
        Undirected, unweighted graph.
    source:
        The single source ``s``.
    params:
        Optional algorithm constants (seed, verification, scaled thresholds).
    landmark_hierarchy:
        Optional pre-sampled landmark hierarchy (deterministic tests).

    Returns
    -------
    ReplacementPathResult
        Replacement lengths ``|st <> e|`` for every target ``t`` and edge
        ``e`` on the canonical ``s-t`` path, correct with high probability.
    """
    solver = MSRPSolver(
        graph,
        [source],
        params=params,
        landmark_strategy="direct",
        landmark_hierarchy=landmark_hierarchy,
    )
    return solver.solve()
