"""Interval decomposition of source-to-landmark paths (Definition 15).

Walking a canonical ``s``-``r`` path from the source, the decomposition
records the first center, then the next center of strictly higher priority,
and so on up to the highest-priority center on the path; the same staircase
is built backwards from ``r``.  The recorded *milestones* split the path into
``O(log n)`` intervals whose interior edges are "close" (Lemma 18) to both
interval endpoints, which is what lets the Section 8.1/8.2 auxiliary graphs
cover every failed edge with only ``O~(2^k sqrt(n/sigma))`` nodes per center.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, List, Sequence


@dataclass(frozen=True)
class PathInterval:
    """One interval of a decomposed path.

    ``start_index``/``end_index`` are positions on the path vertex list; the
    interval owns the edges with indices ``start_index .. end_index - 1``.
    """

    ordinal: int
    start_index: int
    end_index: int
    start_vertex: int
    end_vertex: int

    @property
    def num_edges(self) -> int:
        return self.end_index - self.start_index

    def contains_edge_index(self, edge_index: int) -> bool:
        """Does the interval own the path edge with the given index?"""
        return self.start_index <= edge_index < self.end_index


def milestone_indices(
    path: Sequence[int], priority_of: Callable[[int], int]
) -> List[int]:
    """Indices of the interval milestones on ``path`` (Definition 15).

    The list always starts at index 0 (the source, which is a center by
    construction) and ends at the last index (the landmark, which may not
    be a center; the final interval then ends at the landmark itself).
    """
    last = len(path) - 1
    if last <= 0:
        return [0] if path else []

    ascending = [0]
    best = priority_of(path[0])
    for j in range(1, last + 1):
        p = priority_of(path[j])
        if p > best:
            ascending.append(j)
            best = p
    peak = ascending[-1]

    descending = [last]
    best_from_r = priority_of(path[last])
    for j in range(last - 1, peak, -1):
        p = priority_of(path[j])
        if p > best_from_r:
            descending.append(j)
            best_from_r = p

    merged = ascending + [j for j in reversed(descending) if j > peak]
    milestones: List[int] = []
    for j in merged:
        if not milestones or j > milestones[-1]:
            milestones.append(j)
    if milestones[-1] != last:
        milestones.append(last)
    return milestones


def decompose_path(
    path: Sequence[int], priority_of: Callable[[int], int]
) -> List[PathInterval]:
    """Split a canonical path into its intervals (Definition 15)."""
    marks = milestone_indices(path, priority_of)
    intervals: List[PathInterval] = []
    for ordinal in range(len(marks) - 1):
        a, b = marks[ordinal], marks[ordinal + 1]
        intervals.append(
            PathInterval(
                ordinal=ordinal,
                start_index=a,
                end_index=b,
                start_vertex=path[a],
                end_vertex=path[b],
            )
        )
    return intervals

