"""E1 / "Table 1" — the running-time landscape of the paper's introduction.

The paper positions its ``O~(m sqrt(n sigma) + sigma n^2)`` algorithm against
(a) the per-edge-BFS brute force, (b) the per-target classical algorithm,
and (c) running its own SSRP algorithm independently per source.  On four
sparse instances (``m ~ 3n``; n = 80 and 120, sigma = 1 to 11) this script
times all four once each and prints, per row, the wall time, its ratio to
the paper's algorithm and the cost model's predicted operation count.

What it asserts is model-level only: ``predicted_operations`` gives the
paper's algorithm fewer operations than the brute force, and every timing
is positive.  The single-shot times are not asserted: brute force has
been the faster one on a row before (n = 80, sigma = 4, at 0.54x of the
paper's time in an earlier revision).

Two runs on a 2-CPU Linux container (CPython 3.11) printed the paper's
algorithm fastest on every row: the brute force took 1.5-6.0x its time,
the per-target baseline 11-21x and independent SSRP 1.2-3.5x.  The
brute-force margin was largest at sigma = 1 and did not grow with ``n``
or ``sigma``.
"""

from __future__ import annotations

import pytest

from benchmarks.conftest import benchmark_params, print_table, sparse_workload, time_once
from repro.analysis import predicted_operations, speedup_table
from repro.baselines import msrp_independent_ssrp, msrp_per_target_classical
from repro.core.msrp import multiple_source_replacement_paths
from repro.graph import generators
from repro.rp.bruteforce import brute_force_multi_source

CONFIGS = [
    # (n, sigma)
    (80, 1),
    (80, 4),
    (120, 4),
    (120, 11),
]


@pytest.mark.parametrize("num_vertices,num_sources", CONFIGS)
def test_table1_runtime_comparison(benchmark, num_vertices, num_sources):
    graph = sparse_workload(num_vertices, seed=num_vertices + num_sources)
    sources = generators.random_sources(graph, num_sources, seed=1)
    params = benchmark_params(seed=num_vertices)

    timings = {
        "bruteforce": time_once(lambda: brute_force_multi_source(graph, sources)),
        "per_target": time_once(lambda: msrp_per_target_classical(graph, sources)),
        "independent_ssrp": time_once(
            lambda: msrp_independent_ssrp(graph, sources, params=params)
        ),
    }
    benchmark.pedantic(
        lambda: multiple_source_replacement_paths(graph, sources, params=params),
        rounds=1,
        iterations=1,
        warmup_rounds=0,
    )
    timings["msrp"] = time_once(
        lambda: multiple_source_replacement_paths(graph, sources, params=params)
    )

    speedups = speedup_table(timings, reference="msrp")
    rows = []
    for name, seconds in sorted(timings.items(), key=lambda kv: kv[1]):
        predicted = predicted_operations(
            name if name != "msrp" else "msrp",
            graph.num_vertices,
            graph.num_edges,
            len(sources),
        )
        rows.append(
            [name, f"{seconds * 1000:.1f} ms", f"{speedups[name]:.2f}x", f"{predicted:,.0f}"]
        )
    print_table(
        f"Table 1 row: n={graph.num_vertices} m={graph.num_edges} sigma={len(sources)}",
        ["algorithm", "measured", "vs paper algo", "predicted ops"],
        rows,
    )

    # Shape assertion at the model level: the paper's cost model predicts
    # fewer operations than the brute force for every configuration.  The
    # measured pure-Python timings are reported above but not asserted:
    # interpreter constant factors keep the brute force competitive at
    # these instance sizes on sparse graphs.
    assert predicted_operations(
        "msrp", graph.num_vertices, graph.num_edges, len(sources)
    ) < predicted_operations(
        "bruteforce", graph.num_vertices, graph.num_edges, len(sources)
    )
    assert all(value > 0 for value in timings.values())
