"""Baseline algorithms used by tests and the benchmark harness."""

from repro.baselines.naive import (
    msrp_independent_ssrp,
    msrp_per_target_classical,
    ssrp_per_target_classical,
)

__all__ = [
    "ssrp_per_target_classical",
    "msrp_per_target_classical",
    "msrp_independent_ssrp",
]
