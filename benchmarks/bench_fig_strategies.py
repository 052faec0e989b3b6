"""E3b — direct versus auxiliary landmark preprocessing (Section 8).

Compares the two interchangeable strategies for computing the
source-to-landmark tables ``d(s, r, e)``:

* ``direct`` — exact tables.  The paper runs the classical single-pair
  algorithm once per (source, landmark) pair,
  ``O~(m sigma sqrt(n sigma))``; the library gets the same values from one
  subtree repair per source tree, ``O(m ecc(s))`` each;
* ``auxiliary`` — the paper's Section 8 construction,
  ``O~(m sqrt(n sigma) + sigma n^2)``.

Both must produce identical final answers; the benchmark verifies that and
reports the phase timings.  On these sparse graphs of small eccentricity
the direct phase is the cheaper one by an order of magnitude or more (on a
2-CPU host: 1 ms against 26 ms at n = 40, sigma = 4, and 3 ms against
69 ms at n = 60, sigma = 6), because repair's cost grows with the
eccentricity, not with the number of landmarks.
"""

from __future__ import annotations

import pytest

from benchmarks.conftest import benchmark_params, print_table, sparse_workload
from repro.core.msrp import MSRPSolver
from repro.graph import generators

CONFIGS = [(40, 4), (60, 6)]


@pytest.mark.parametrize("num_vertices,sigma", CONFIGS)
@pytest.mark.parametrize("strategy", ["direct", "auxiliary"])
def test_landmark_strategy(benchmark, num_vertices, sigma, strategy):
    graph = sparse_workload(num_vertices, seed=num_vertices)
    sources = generators.random_sources(graph, sigma, seed=sigma)
    solver = MSRPSolver(
        graph, sources, params=benchmark_params(seed=1), landmark_strategy=strategy
    )
    benchmark.pedantic(solver.solve, rounds=1, iterations=1, warmup_rounds=0)


def test_strategies_agree_report(benchmark):
    rows = []
    for num_vertices, sigma in CONFIGS:
        graph = sparse_workload(num_vertices, seed=num_vertices)
        sources = generators.random_sources(graph, sigma, seed=sigma)
        direct_solver = MSRPSolver(
            graph, sources, params=benchmark_params(seed=1), landmark_strategy="direct"
        )
        auxiliary_solver = MSRPSolver(
            graph, sources, params=benchmark_params(seed=1), landmark_strategy="auxiliary"
        )
        direct = direct_solver.solve()
        auxiliary = auxiliary_solver.solve()
        agree = direct.to_dict() == auxiliary.to_dict()
        rows.append(
            [
                num_vertices,
                sigma,
                f"{direct_solver.phase_seconds['landmark_replacement_paths'] * 1000:.0f} ms",
                f"{auxiliary_solver.phase_seconds['landmark_replacement_paths'] * 1000:.0f} ms",
                "yes" if agree else "NO",
            ]
        )
        assert agree
    benchmark.pedantic(lambda: None, rounds=1, iterations=1, warmup_rounds=0)
    print_table(
        "E3b: landmark preprocessing, direct vs auxiliary (Section 8)",
        ["n", "sigma", "direct phase", "auxiliary phase", "outputs agree"],
        rows,
    )
