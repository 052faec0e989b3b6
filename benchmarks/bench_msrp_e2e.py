"""Workload and output-fingerprint helpers that ``perfbench/`` imports.

``perfbench/workloads.py`` builds its ``sparse-aux`` instances with
:func:`sparse_workload` and checks repeated solves with
:func:`fingerprint`, importing both from this path; moving them is a
change to the benchmark.
"""

from __future__ import annotations

import math
from typing import Dict

from repro.graph.generators import random_connected_graph


def sparse_workload(num_vertices: int, seed: int):
    """Connected sparse graph with ``m ~ 3 n`` (same as the figure benches)."""
    return random_connected_graph(num_vertices, extra_edges=2 * num_vertices, seed=seed)


def fingerprint(result) -> Dict[str, float]:
    """Cheap output invariant: entry count + checksum of the finite values."""
    entries = 0
    finite_sum = 0.0
    infinite = 0
    for _s, _t, _e, value in result.iter_entries():
        entries += 1
        if value is math.inf:
            infinite += 1
        else:
            finite_sum += value
    return {"entries": entries, "finite_sum": finite_sum, "infinite": infinite}
