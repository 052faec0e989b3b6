"""Road-network resilience analysis from multiple depots.

This is the scenario the replacement-path literature is motivated by:
a logistics operator has a handful of depots (the sources) and wants to
know, for every customer location and every single road-segment closure,
how much longer the best route becomes — and which closures disconnect a
customer entirely.

The "road network" is modelled as a grid with a few diagonal shortcuts (a
standard synthetic stand-in for a city street network).  The script solves
replacement paths from the depots once, ranks the most fragile
(depot, customer) pairs by their worst-case stretch, and lists the critical
road segments whose failure disconnects some customer.

Run with::

    python examples/road_network_resilience.py
"""

from __future__ import annotations

import math
import random

from repro import AlgorithmParams, Graph, multiple_source_replacement_paths
from repro.graph import generators


def build_city(rows: int = 9, cols: int = 12, seed: int = 3) -> Graph:
    """A grid street network with a few diagonal shortcuts removed/added."""
    rng = random.Random(seed)
    grid = generators.grid_graph(rows, cols)
    edges = list(grid.edges())
    # Add a few diagonal "avenues".
    for _ in range(rows * cols // 6):
        r, c = rng.randrange(rows - 1), rng.randrange(cols - 1)
        edges.append((r * cols + c, (r + 1) * cols + c + 1))
    # Close a few random segments to make the topology less regular.
    rng.shuffle(edges)
    return Graph(rows * cols, edges[: int(len(edges) * 0.93)])


def main() -> None:
    city = build_city()
    depots = [0, 58, 107]
    customers = [5, 23, 47, 71, 95, 102]
    print(f"street network: {city.num_vertices} junctions, {city.num_edges} segments")
    print(f"depots: {depots}\n")

    result = multiple_source_replacement_paths(
        city, depots, params=AlgorithmParams(seed=3)
    )

    # Rank (depot, customer) pairs by worst-case stretch under one closure.
    ranking = []
    for depot in depots:
        for customer in customers:
            base = result.distance(depot, customer)
            if math.isinf(base):
                continue
            worst = max(result.replacement_lengths(depot, customer).values())
            ranking.append((worst / base, depot, customer, base))
    ranking.sort(reverse=True)

    print("most fragile depot -> customer routes (worst stretch under one closure):")
    for stretch, depot, customer, base in ranking[:8]:
        label = "DISCONNECTED" if math.isinf(stretch) else f"x{stretch:.2f}"
        print(f"  depot {depot:3d} -> customer {customer:3d}: base {base:.0f} hops, worst {label}")

    # Critical segments: closures that disconnect some customer from every depot.
    critical = set()
    for depot in depots:
        for customer in customers:
            for edge, length in result.replacement_lengths(depot, customer).items():
                if math.isinf(length):
                    # Disconnected from this depot; check the other depots.
                    if all(
                        math.isinf(result.replacement_length(other, customer, edge))
                        for other in depots
                    ):
                        critical.add((edge, customer))
    print("\nsingle closures that cut a customer off from every depot:")
    if not critical:
        print("  none — every customer keeps a route under any single closure")
    for edge, customer in sorted(critical):
        print(f"  closing segment {edge} strands customer {customer}")


if __name__ == "__main__":
    main()
