"""Landmark sampling (paper Definition 3 and Lemma 4).

The algorithm samples a hierarchy of vertex sets ``L_0, L_1, ..., L_K`` with
``K = log sqrt(n sigma)``; level ``k`` includes every vertex independently
with probability ``min(1, 4 / 2^k * sqrt(sigma / n))``.  The union ``L``
additionally contains every source.  Lemma 4 shows ``|L_k| =
O~(sqrt(n sigma) / 2^k)`` and ``|L| = O~(sqrt(n sigma))`` with high
probability; the benchmark ``bench_fig_landmark_sizes`` measures exactly
this.

The *center* hierarchy of Section 8 is sampled with identical
probabilities; only its role differs.  So
:class:`~repro.multisource.centers.CenterHierarchy` subclasses
:class:`LandmarkHierarchy`, and both ``sample`` constructors draw their
levels with :func:`sample_levels`.
"""

from __future__ import annotations

import random
from operator import index as _vertex_id
from typing import FrozenSet, Iterable, List, Optional, Sequence, Tuple

from repro.core.params import ProblemScale
from repro.exceptions import InvalidParameterError


def sample_levels(
    scale: ProblemScale, rng: Optional[random.Random] = None
) -> List[List[int]]:
    """One Definition 3 draw of the levels ``0 .. scale.max_level``.

    Level ``k`` holds each vertex independently with probability
    ``scale.sampling_probability(k)``; ``rng`` defaults to one seeded with
    ``scale.params.seed``.
    """
    rng = rng if rng is not None else random.Random(scale.params.seed)
    n = scale.num_vertices
    levels: List[List[int]] = []
    for k in range(scale.max_level + 1):
        probability = scale.sampling_probability(k)
        if probability >= 1.0:
            levels.append(list(range(n)))
        else:
            levels.append([v for v in range(n) if rng.random() < probability])
    return levels


class LandmarkHierarchy:
    """A levelled family of sampled vertex sets plus the source vertices.

    Attributes
    ----------
    levels:
        ``levels[k]`` is the frozen set ``L_k``.  Levels are sampled
        independently (they are not nested), exactly as in Definition 3.
    sources:
        The source vertices; they are always members of level 0 and of the
        union, mirroring "L also contains all source nodes".
    """

    __slots__ = ("levels", "sources", "_union")

    def __init__(self, levels: Sequence[Iterable[int]], sources: Iterable[int]):
        self.sources: Tuple[int, ...] = tuple(sorted(set(map(_vertex_id, sources))))
        built = [frozenset(map(_vertex_id, lvl)) for lvl in levels]
        if not built:
            built = [frozenset()]
        # Sources join level 0 (and therefore the union).
        built[0] = built[0] | frozenset(self.sources)
        self.levels: Tuple[FrozenSet[int], ...] = tuple(built)
        union = set()
        for lvl in self.levels:
            union |= lvl
        self._union: FrozenSet[int] = frozenset(union)

    # -- constructors --------------------------------------------------------

    @classmethod
    def sample(
        cls,
        scale: ProblemScale,
        sources: Iterable[int],
        rng: Optional[random.Random] = None,
    ) -> "LandmarkHierarchy":
        """Sample the hierarchy for a given problem scale (Definition 3)."""
        return cls(sample_levels(scale, rng), sources)

    # -- accessors -----------------------------------------------------------

    @property
    def max_level(self) -> int:
        """Largest level index ``K``."""
        return len(self.levels) - 1

    def level(self, k: int) -> FrozenSet[int]:
        """Return ``L_k``.

        Levels beyond ``max_level`` are empty by convention; the far-edge
        routine occasionally asks for a level slightly above the sampled
        range when distances are clamped.
        """
        if k < 0:
            raise InvalidParameterError("hierarchy level must be non-negative")
        if k >= len(self.levels):
            return frozenset()
        return self.levels[k]

    @property
    def union(self) -> FrozenSet[int]:
        """The set ``L`` — union of all levels and the sources."""
        return self._union

    def level_sizes(self) -> List[int]:
        """Sizes ``|L_k|`` for every level (used by the Lemma 4 experiment)."""
        return [len(lvl) for lvl in self.levels]

    def __len__(self) -> int:
        return len(self._union)

    def __contains__(self, vertex: object) -> bool:
        return vertex in self._union

    def __repr__(self) -> str:  # pragma: no cover - debugging helper
        sizes = ", ".join(str(len(lvl)) for lvl in self.levels)
        return f"{type(self).__name__}(sizes=[{sizes}], union={len(self._union)})"
