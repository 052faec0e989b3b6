"""Algorithm parameters and the derived problem-scale quantities.

The paper's algorithm is governed by a small number of numeric knobs:

* the landmark/center sampling probability ``4 / 2^k * sqrt(sigma / n)``
  (Definition 3 and Section 8),
* the near/far distance unit ``sqrt(n / sigma) * log n`` that appears in the
  edge classification (Section 5), in Algorithm 3's radius check and in the
  small/large replacement-path split of Section 7, and
* the "suitably chosen constant ``ell``" bounding how many edges per center
  the Section 8 auxiliary graphs materialise.

:class:`AlgorithmParams` collects the constants (so tests and benchmarks can
scale them) and :class:`ProblemScale` turns them into the concrete
quantities for a given ``(n, sigma)`` pair.  Keeping this logic in one place
guarantees that every phase of the pipeline classifies edges and sizes
landmark sets consistently.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Tuple

from repro.exceptions import InvalidParameterError


@dataclass(frozen=True)
class AlgorithmParams:
    """Tunable constants of the randomised MSRP algorithm.

    Attributes
    ----------
    sampling_constant:
        The ``4`` in the sampling probability ``4 / 2^k * sqrt(sigma / n)``
        of Definition 3.  Larger values enlarge the landmark sets, improving
        the success probability at the cost of preprocessing time.
    threshold_constant:
        Multiplier applied to the distance unit ``sqrt(n / sigma) * log n``.
        The paper uses ``1``; benchmarks use smaller values to surface the
        asymptotic regime on modest graph sizes.  It scales the unit ``X``
        but not the sampling rate, so a value below ``1`` voids the
        high-probability bound (Lemma 9): a ``k``-far window of length
        ``2^k X`` then expects only ``4 * threshold_constant * log2 n``
        landmark hits — 2.9 at ``n = 160`` with ``0.1`` — and when the
        window holds none the far-edge candidates overestimate.  That is
        why the ``far-clusters`` benchmark instances overestimate on 20
        of seeds 1-60.  Errors stay one-sided: every candidate is a
        realisable walk.
    interval_constant:
        The paper's "suitably chosen constant ``ell >= 2``" bounding the
        number of per-center failed edges materialised by the Section 8
        auxiliary graphs.
    seed:
        Seed for all random sampling.  ``None`` draws fresh randomness.
    verify:
        When ``True`` the pipelines cross-check their output against the
        brute-force oracle and raise
        :class:`~repro.exceptions.InternalInvariantError` on mismatch.
        Intended for tests and small instances only.
    workers:
        Process count for the sharded per-source phases
        (:mod:`repro.parallel`).  ``0`` (default) and ``1`` run serially;
        any larger value shards the BFS fan-out, the Section 7.1/8.1-8.3
        builds, the assembly sweeps and (under ``verify``) the brute-force
        oracle's per-edge BFS sweep across that many worker processes.
        Output is byte-identical at every worker count.  A solve runs
        every phase on one executor: a
        :class:`~repro.parallel.SerialExecutor` when ``workers <= 1``,
        otherwise one :class:`~repro.parallel.LocalProcessExecutor` pool.
    checkpoint:
        Directory of a :class:`~repro.parallel.CheckpointJournal`.  When
        set, every completed chunk of every sharded phase is durably
        journaled as the solve runs, and a re-run with the same graph,
        parameters and checkpoint directory resumes by re-executing only
        unjournaled work — fingerprint-identical to an uninterrupted run.
        Requires a fixed ``seed`` (resuming an unseeded solve would splice
        results from divergent random streams).
    """

    sampling_constant: float = 4.0
    threshold_constant: float = 1.0
    interval_constant: float = 2.0
    seed: Optional[int] = None
    verify: bool = False
    workers: int = 0
    checkpoint: Optional[str] = None

    def __post_init__(self) -> None:
        if self.sampling_constant <= 0:
            raise InvalidParameterError("sampling_constant must be positive")
        if self.threshold_constant <= 0:
            raise InvalidParameterError("threshold_constant must be positive")
        if self.interval_constant < 1:
            raise InvalidParameterError("interval_constant must be at least 1")
        if self.workers < 0:
            raise InvalidParameterError("workers must be non-negative")
        if self.checkpoint is not None and self.seed is None:
            raise InvalidParameterError(
                "checkpointed solves require a fixed seed: a resumed run "
                "must replay the exact random draws of the interrupted one, "
                "or journaled and recomputed results would mix streams"
            )


class ProblemScale:
    """Concrete scale quantities for a problem instance.

    Parameters
    ----------
    num_vertices:
        ``n``.
    num_sources:
        ``sigma`` (must satisfy ``1 <= sigma <= n``).
    params:
        The governing :class:`AlgorithmParams`.
    """

    __slots__ = ("num_vertices", "num_sources", "params", "base_unit", "max_level")

    def __init__(self, num_vertices: int, num_sources: int, params: AlgorithmParams):
        if num_vertices <= 0:
            raise InvalidParameterError("the graph must have at least one vertex")
        if not 1 <= num_sources <= num_vertices:
            raise InvalidParameterError(
                f"sigma={num_sources} must lie in [1, n={num_vertices}]"
            )
        self.num_vertices = num_vertices
        self.num_sources = num_sources
        self.params = params
        #: the paper's distance unit ``sqrt(n / sigma) * log n`` (the log
        #: factor clamped to at least 1 for ``n < 2``)
        self.base_unit = (
            params.threshold_constant
            * math.sqrt(num_vertices / num_sources)
            * max(1.0, math.log2(num_vertices))
        )
        #: levels ``k = 0 .. log(sqrt(n sigma))`` (Definition 3)
        self.max_level = max(
            0, math.ceil(math.log2(max(2.0, math.sqrt(num_vertices * num_sources))))
        )

    # -- sampling ------------------------------------------------------------

    def sampling_probability(self, level: int) -> float:
        """Probability with which ``L_k`` / ``C_k`` samples each vertex."""
        if level < 0:
            raise InvalidParameterError("level must be non-negative")
        raw = (
            self.params.sampling_constant
            / (2**level)
            * math.sqrt(self.num_sources / self.num_vertices)
        )
        return min(1.0, raw)

    def expected_level_size(self, level: int) -> float:
        """Expected number of vertices in ``L_k`` (Lemma 4)."""
        return self.num_vertices * self.sampling_probability(level)

    # -- edge classification ---------------------------------------------------

    @property
    def near_threshold(self) -> float:
        """Edges closer than this to ``t`` on the ``s-t`` path are *near*."""
        return 2.0 * self.base_unit

    def far_range(self, level: int) -> Tuple[float, float]:
        """Distance window ``[2^{k+1} X, 2^{k+2} X]`` of ``k``-far edges."""
        return (2.0 ** (level + 1) * self.base_unit, 2.0 ** (level + 2) * self.base_unit)

    def far_level(self, distance_to_target: float) -> int:
        """Level ``k`` such that ``distance_to_target`` is ``k``-far.

        ``distance_to_target`` must be at least :attr:`near_threshold`;
        callers classify near edges before asking for a far level.
        """
        if distance_to_target < self.near_threshold:
            raise InvalidParameterError(
                f"distance {distance_to_target} is below the near threshold "
                f"{self.near_threshold}"
            )
        level = int(math.floor(math.log2(distance_to_target / self.base_unit))) - 1
        return max(0, min(level, self.max_level))

    def landmark_radius(self, level: int) -> float:
        """Algorithm 3's acceptance radius ``2^k sqrt(n/sigma) log n``."""
        return (2.0**level) * self.base_unit

    def interval_edge_budget(self, level: int) -> int:
        """Number of per-center failed edges materialised at priority ``k``.

        This is the paper's ``ell * 2^k * sqrt(n / sigma) * log n`` bound
        (Lemmas 18-20); the Section 8 auxiliary graphs only create nodes for
        this many edges counted from the center.
        """
        return int(math.ceil(self.params.interval_constant * (2.0**level) * self.base_unit))

    def __repr__(self) -> str:  # pragma: no cover - debugging helper
        return (
            f"ProblemScale(n={self.num_vertices}, sigma={self.num_sources}, "
            f"base_unit={self.base_unit:.2f}, max_level={self.max_level})"
        )
