"""E2 / Figure A — SSRP runtime scaling in ``n`` (Theorem 14).

Times the paper's SSRP algorithm and the per-target classical baseline,
best of 3 each, on sparse graphs (``m ~ 3n``) with n = 60, 100, 160 and
240, prints the series with the baseline / paper ratio, and fits a power
law to each.  The cost model puts the baseline's exponent about one half
above the paper's (``m n`` against ``m sqrt(n) + n^2`` with
``m = Theta(n)``).

It asserts only that the ratio does not shrink by more than a fifth from
the smallest to the largest ``n``; the fitted exponents are printed, not
asserted.  Three runs on a 2-CPU x86-64 Linux container (CPython 3.11.7)
measured the baseline 7-19x slower than the paper's algorithm at every
``n`` and fitted the paper's algorithm at n^1.60, n^1.69 and n^1.65
against the baseline's n^1.97, n^2.03 and n^2.00: a gap of 0.34-0.37,
below the model's 0.5.  Single-shot timings had fitted the two at n^1.84
against n^1.84 in one run and n^1.65 against n^2.11 in the next.
"""

from __future__ import annotations

import pytest

from benchmarks.conftest import benchmark_params, best_of, print_table, sparse_workload
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
    """Measure the whole series, best of 3, and report the fitted exponents."""
    ssrp_times, baseline_times = [], []
    for num_vertices in SIZES:
        graph = sparse_workload(num_vertices, seed=num_vertices)
        params = benchmark_params(seed=num_vertices)
        ssrp_times.append(
            best_of(lambda: single_source_replacement_paths(graph, 0, params=params))
        )
        baseline_times.append(best_of(lambda: ssrp_per_target_classical(graph, 0)))

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
