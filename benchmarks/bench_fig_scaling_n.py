"""E2 / Figure A — SSRP runtime scaling in ``n`` (Theorem 14).

Times the paper's SSRP algorithm and the per-target classical baseline once
each on sparse graphs (``m ~ 3n``) with n = 60, 100, 160 and 240, prints
the series with the baseline / paper ratio, and fits a power law to each.
The cost model puts the baseline's exponent about one half above the
paper's (``m n`` against ``m sqrt(n) + n^2`` with ``m = Theta(n)``).

It asserts only that the ratio does not shrink by more than a fifth from
the smallest to the largest ``n``; the fitted exponents are printed, not
asserted.  Two runs on a 2-CPU Linux container (CPython 3.11) measured
the baseline 8-19x slower than the paper's algorithm at every ``n``, with
fitted exponents of 1.84 against 1.84 in one run and 2.11 against 1.65 in
the other: single-shot timings at these sizes do not resolve the
predicted gap.
"""

from __future__ import annotations

import pytest

from benchmarks.conftest import benchmark_params, print_table, sparse_workload, time_once
from repro.analysis import fit_power_law
from repro.baselines import ssrp_per_target_classical
from repro.core.ssrp import single_source_replacement_paths

SIZES = [60, 100, 160, 240]


@pytest.mark.parametrize("num_vertices", SIZES)
def test_ssrp_scaling_in_n(benchmark, num_vertices):
    graph = sparse_workload(num_vertices, seed=num_vertices)
    params = benchmark_params(seed=num_vertices)
    benchmark.pedantic(
        lambda: single_source_replacement_paths(graph, 0, params=params),
        rounds=1,
        iterations=1,
        warmup_rounds=0,
    )


def test_ssrp_scaling_series(benchmark):
    """Measure the whole series once and report the fitted exponents."""
    ssrp_times, baseline_times = [], []
    for num_vertices in SIZES:
        graph = sparse_workload(num_vertices, seed=num_vertices)
        params = benchmark_params(seed=num_vertices)
        ssrp_times.append(
            time_once(lambda: single_source_replacement_paths(graph, 0, params=params))
        )
        baseline_times.append(time_once(lambda: ssrp_per_target_classical(graph, 0)))

    benchmark.pedantic(lambda: None, rounds=1, iterations=1, warmup_rounds=0)

    ssrp_fit = fit_power_law(SIZES, ssrp_times)
    baseline_fit = fit_power_law(SIZES, baseline_times)
    rows = [
        [n, f"{s * 1000:.1f} ms", f"{b * 1000:.1f} ms", f"{b / s:.2f}x"]
        for n, s, b in zip(SIZES, ssrp_times, baseline_times)
    ]
    print_table(
        "Figure A: SSRP runtime vs n (sparse graphs, sigma = 1)",
        ["n", "paper SSRP", "per-target baseline", "baseline / paper"],
        rows,
    )
    print(
        f"fitted exponents: paper SSRP n^{ssrp_fit.exponent:.2f} "
        f"(R^2={ssrp_fit.r_squared:.2f}), baseline n^{baseline_fit.exponent:.2f} "
        f"(R^2={baseline_fit.r_squared:.2f})"
    )
    # Shape assertion: the baseline grows at least as fast as the paper's
    # algorithm over this range.
    assert baseline_times[-1] / ssrp_times[-1] >= baseline_times[0] / ssrp_times[0] * 0.8
