"""The paper's core SSRP/MSRP pipeline (Sections 5-7)."""

from repro.core.classification import (
    FAR,
    NEAR,
    ClassifiedEdge,
    classify_path_edges,
)
from repro.core.far_edges import FarEdgeSolver
from repro.core.landmark_rp import compute_direct_tables
from repro.core.landmarks import LandmarkHierarchy
from repro.core.msrp import (
    LANDMARK_STRATEGIES,
    MSRPSolver,
    multiple_source_replacement_paths,
)
from repro.core.near_large import NearLargeSolver
from repro.core.near_small import (
    NearSmallTables,
    compute_near_small_tables,
    compute_near_small_tables_reference,
    near_edges_from_target,
)
from repro.core.params import AlgorithmParams, ProblemScale
from repro.core.result import ReplacementPathResult
from repro.core.ssrp import single_source_replacement_paths

__all__ = [
    "AlgorithmParams",
    "ProblemScale",
    "LandmarkHierarchy",
    "ClassifiedEdge",
    "classify_path_edges",
    "NEAR",
    "FAR",
    "FarEdgeSolver",
    "NearLargeSolver",
    "NearSmallTables",
    "compute_near_small_tables",
    "compute_near_small_tables_reference",
    "near_edges_from_target",
    "compute_direct_tables",
    "MSRPSolver",
    "LANDMARK_STRATEGIES",
    "multiple_source_replacement_paths",
    "single_source_replacement_paths",
    "ReplacementPathResult",
]
