"""Tests for algorithm parameters, problem scale and landmark sampling."""

from __future__ import annotations

import math
import random

import pytest

from repro.core.landmarks import LandmarkHierarchy
from repro.core.params import AlgorithmParams, ProblemScale
from repro.exceptions import InvalidParameterError


class TestAlgorithmParams:
    def test_defaults_match_paper_constants(self):
        params = AlgorithmParams()
        assert params.sampling_constant == 4.0
        assert params.threshold_constant == 1.0

    def test_invalid_constants_rejected(self):
        with pytest.raises(InvalidParameterError):
            AlgorithmParams(sampling_constant=0)
        with pytest.raises(InvalidParameterError):
            AlgorithmParams(threshold_constant=-1)
        with pytest.raises(InvalidParameterError):
            AlgorithmParams(interval_constant=0.5)


class TestProblemScale:
    def test_base_unit_formula(self):
        scale = ProblemScale(256, 4, AlgorithmParams(threshold_constant=0.5))
        assert scale.base_unit == pytest.approx(0.5 * math.sqrt(256 / 4) * 8)
        # The log factor is clamped to 1 below n = 2.
        assert ProblemScale(1, 1, AlgorithmParams()).base_unit == 1.0

    def test_log_factor_applied(self):
        scale = ProblemScale(256, 4, AlgorithmParams())
        assert scale.base_unit == pytest.approx(8 * math.log2(256))

    def test_sampling_probability_decreases_with_level(self):
        scale = ProblemScale(400, 4, AlgorithmParams())
        probs = [scale.sampling_probability(k) for k in range(scale.max_level + 1)]
        assert all(probs[i] >= probs[i + 1] for i in range(len(probs) - 1))
        assert all(0 < p <= 1 for p in probs)

    def test_far_level_windows(self):
        scale = ProblemScale(400, 1, AlgorithmParams())
        unit = scale.base_unit
        assert scale.far_level(2 * unit) == 0
        assert scale.far_level(4 * unit) == 1
        assert scale.far_level(8.5 * unit) == 2

    def test_far_level_below_near_threshold_rejected(self):
        scale = ProblemScale(100, 1, AlgorithmParams())
        with pytest.raises(InvalidParameterError):
            scale.far_level(scale.near_threshold / 2)

    def test_far_level_is_clamped_to_max(self):
        scale = ProblemScale(64, 1, AlgorithmParams(threshold_constant=0.01))
        assert scale.far_level(63) <= scale.max_level

    def test_landmark_radius_is_sound_for_far_edges(self):
        # radius(k) must be strictly below the lower end of the k-far window.
        scale = ProblemScale(900, 9, AlgorithmParams())
        for k in range(scale.max_level + 1):
            low, _ = scale.far_range(k)
            assert scale.landmark_radius(k) < low

    def test_invalid_sigma_rejected(self):
        with pytest.raises(InvalidParameterError):
            ProblemScale(10, 0, AlgorithmParams())
        with pytest.raises(InvalidParameterError):
            ProblemScale(10, 11, AlgorithmParams())


class TestLandmarkHierarchy:
    def test_sources_always_present(self):
        scale = ProblemScale(50, 2, AlgorithmParams(seed=1))
        landmarks = LandmarkHierarchy.sample(scale, [7, 13])
        assert 7 in landmarks.level(0)
        assert 13 in landmarks.union

    def test_level_sizes_shrink_geometrically_in_expectation(self):
        scale = ProblemScale(4000, 4, AlgorithmParams(seed=3))
        landmarks = LandmarkHierarchy.sample(scale, [0])
        sizes = landmarks.level_sizes()
        # Expected sizes halve per level; allow generous slack for randomness.
        assert sizes[0] > sizes[min(3, len(sizes) - 1)]

    def test_size_concentration_lemma4(self):
        # Lemma 4: |L_k| = O~(sqrt(n sigma) / 2^k).  Check a 4x expectation cap.
        scale = ProblemScale(2000, 2, AlgorithmParams(seed=11))
        rng = random.Random(11)
        landmarks = LandmarkHierarchy.sample(scale, [0, 1], rng)
        for k, size in enumerate(landmarks.level_sizes()):
            expected = scale.expected_level_size(k)
            assert size <= 4 * expected + 4 * math.log2(scale.num_vertices)

    def test_explicit_levels_and_queries(self):
        landmarks = LandmarkHierarchy([[1, 2], [2]], sources=[0])
        assert landmarks.level(0) == frozenset({0, 1, 2})
        assert landmarks.level(1) == frozenset({2})
        assert landmarks.level(99) == frozenset()
        assert 0 in landmarks
        assert len(landmarks) == 3
        with pytest.raises(InvalidParameterError):
            landmarks.level(-1)

    def test_sampling_is_seed_deterministic(self):
        scale = ProblemScale(300, 3, AlgorithmParams(seed=42))
        a = LandmarkHierarchy.sample(scale, [0], random.Random(42))
        b = LandmarkHierarchy.sample(scale, [0], random.Random(42))
        assert a.levels == b.levels
