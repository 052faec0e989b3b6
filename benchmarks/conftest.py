"""Shared workload builders and reporting helpers for the benchmark harness.

Every benchmark module is one experiment (E1-E9, named on the first line
of its docstring) and prints, besides the pytest-benchmark timing
table, the "rows" the corresponding paper claim implies: measured runtimes
per configuration, fitted growth exponents, hit rates or speedup factors.
Sizes are chosen so the whole suite completes in a few minutes of pure
Python; the shapes (who wins, how runtimes scale) are what matters, not the
absolute numbers.
"""

from __future__ import annotations

import time
from typing import Callable, Dict, List

import pytest

from repro.core.params import AlgorithmParams
from repro.graph import generators
from repro.graph.graph import Graph


def sparse_workload(num_vertices: int, seed: int = 0) -> Graph:
    """Connected sparse graph with ``m ~ 3 n`` (the paper's sparse regime)."""
    return generators.random_connected_graph(
        num_vertices, extra_edges=2 * num_vertices, seed=seed
    )


def dense_workload(num_vertices: int, seed: int = 0) -> Graph:
    """Dense-ish random graph with ``m ~ n^2 / 8``."""
    return generators.gnp_random_graph(num_vertices, 0.25, seed=seed)


def long_path_workload(num_vertices: int) -> Graph:
    """2 x (n/2) grid: long shortest paths, finite replacement paths."""
    return generators.grid_graph(2, max(2, num_vertices // 2))


def benchmark_params(seed: int = 0) -> AlgorithmParams:
    """Default parameters used across the harness (fixed seed)."""
    return AlgorithmParams(seed=seed)


def time_once(fn: Callable[[], object]) -> float:
    """Wall-clock one invocation (used for the slower comparison rows)."""
    start = time.perf_counter()
    fn()
    return time.perf_counter() - start


def best_of(fn: Callable[[], object], reps: int = 3) -> float:
    """Best of ``reps`` timings; damps GC pauses and first-call warmup."""
    return min(time_once(fn) for _ in range(reps))


def print_table(title: str, header: List[str], rows: List[List[object]]) -> None:
    """Print a small aligned table; this is the 'figure' output of a bench."""
    print(f"\n=== {title} ===")
    widths = [
        max(len(str(header[i])), max((len(str(r[i])) for r in rows), default=0))
        for i in range(len(header))
    ]
    print("  ".join(str(h).ljust(w) for h, w in zip(header, widths)))
    for row in rows:
        print("  ".join(str(c).ljust(w) for c, w in zip(row, widths)))
