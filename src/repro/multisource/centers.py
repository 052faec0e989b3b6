"""Center sampling with priorities (paper Section 8, first paragraphs).

Section 8 samples a second hierarchy of vertices, the *centers* ``C_k``,
with the same probabilities as the landmarks (``4 / 2^k * sqrt(sigma/n)``).
A center's *priority* is the highest level that sampled it; every source is
added to ``C_0`` so each source is a center of priority at least 0.  The
interval decomposition of source-to-landmark paths (Definition 15) and the
auxiliary graphs of Sections 8.1-8.3 are all driven by these priorities.
"""

from __future__ import annotations

import random
from typing import Dict, FrozenSet, Iterable, Optional, Sequence

from repro.core.landmarks import LandmarkHierarchy, sample_levels
from repro.core.params import ProblemScale


class CenterHierarchy(LandmarkHierarchy):
    """Sampled center sets ``C_0 .. C_K`` with per-vertex priorities.

    A :class:`~repro.core.landmarks.LandmarkHierarchy` (levels, sources,
    union, level accessors) plus the priorities.

    Attributes
    ----------
    priority:
        Mapping ``vertex -> highest level k with vertex in C_k``; vertices
        that are not centers are absent.
    """

    __slots__ = ("priority",)

    def __init__(self, levels: Sequence[Iterable[int]], sources: Iterable[int]):
        super().__init__(levels, sources)
        priority: Dict[int, int] = {}
        for k, level in enumerate(self.levels):
            for v in level:
                priority[v] = k
        self.priority = priority

    @classmethod
    def sample(
        cls,
        scale: ProblemScale,
        sources: Iterable[int],
        rng: Optional[random.Random] = None,
    ) -> "CenterHierarchy":
        """Sample centers with the Definition 3 probabilities."""
        # Deliberately not LandmarkHierarchy.sample: perfbench/tracing.py
        # counts landmark and center draws on each class's own ``sample``.
        return cls(sample_levels(scale, rng), sources)

    # -- accessors -------------------------------------------------------------

    @property
    def all(self) -> FrozenSet[int]:
        """Every center (union of all levels plus the sources)."""
        return self.union

    def priority_of(self, vertex: int) -> int:
        """Priority of ``vertex`` (``-1`` when it is not a center)."""
        return self.priority.get(vertex, -1)

    def is_center(self, vertex: int) -> bool:
        return vertex in self.priority
