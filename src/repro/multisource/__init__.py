"""Section 8 machinery: centers, intervals, MTC, bottleneck edges and the
auxiliary-graph constructions that compute source-to-landmark replacement
paths in ``O~(m sqrt(n sigma) + sigma n^2)``."""

from repro.multisource.bottleneck import (
    MTCEvaluator,
    compute_interval_avoiding_tables,
    compute_interval_avoiding_tables_reference,
    find_bottleneck_edges,
)
from repro.multisource.centers import CenterHierarchy
from repro.multisource.intervals import (
    PathInterval,
    decompose_path,
    milestone_indices,
)
from repro.multisource.pipeline import compute_auxiliary_tables
from repro.multisource.tables import (
    compute_center_to_landmark_tables,
    compute_center_to_landmark_tables_reference,
    compute_small_paths_through_centers,
    compute_source_to_center_tables,
    compute_source_to_center_tables_reference,
)

__all__ = [
    "CenterHierarchy",
    "PathInterval",
    "milestone_indices",
    "decompose_path",
    "compute_source_to_center_tables",
    "compute_source_to_center_tables_reference",
    "compute_center_to_landmark_tables",
    "compute_center_to_landmark_tables_reference",
    "compute_small_paths_through_centers",
    "MTCEvaluator",
    "find_bottleneck_edges",
    "compute_interval_avoiding_tables",
    "compute_interval_avoiding_tables_reference",
    "compute_auxiliary_tables",
]
