"""Tests for pressure curves, the pressure zero, and box-counting estimates.

Self-similar families give closed forms: k equal similarities of ratio r have
p(s) = log(k r^s) with zero log k / log(1/r), and diagonal families make the
pressure piecewise linear with hand-computable kinks.
"""

import json
import math

import numpy as np
import pytest

from affdim import (
    AffineMap,
    HypothesisViolation,
    IfsFamily,
    PressureCurve,
    box_dimension,
    deterministic_tree,
    dimension_report,
    enumerate_points,
    pressure_curve,
    pressure_zero,
)
from affdim import code_tree, dimension

from conftest import random_contraction

LOG2_OVER_LOG3 = math.log(2.0) / math.log(3.0)
DIAG_ZERO = 1.0 + math.log(1.2) / math.log(5.0)


def thirds_tree(depth: int = 6):
    fam = IfsFamily(
        "thirds",
        (AffineMap([[1 / 3]], 0, [0.0]), AffineMap([[1 / 3]], 1, [2 / 3])),
    )
    return deterministic_tree(fam, depth)


def diag_tree(depth: int = 6):
    T = np.diag([0.4, 0.2])
    fam = IfsFamily("diag", tuple(AffineMap(T, c, np.zeros(2)) for c in range(3)))
    return deterministic_tree(fam, depth)


def corner_tree(depth: int = 10):
    T = 0.45 * np.eye(2)
    fam = IfsFamily(
        "corners",
        (
            AffineMap(T, 0, [0.0, 0.0]),
            AffineMap(T, 1, [0.55, 0.0]),
            AffineMap(T, 2, [0.0, 0.55]),
        ),
    )
    return deterministic_tree(fam, depth)


# ---------------------------------------------------------------------------
# pressure curves


class TestPressureCurve:
    @pytest.mark.parametrize("k", [1, 3])
    def test_similarity_closed_form(self, k):
        grid = np.linspace(0.0, 1.0, 9)
        curve = pressure_curve(thirds_tree(), grid, k)
        np.testing.assert_allclose(
            curve.p, math.log(2.0) - grid * math.log(3.0), rtol=1e-12, atol=1e-12
        )
        # every level sees the same similarity, so the finite-size
        # diagnostic collapses
        assert np.max(curve.diagnostic) < 1e-12

    def test_diagonal_piecewise_form(self):
        curve = pressure_curve(diag_tree(), [0.5, 1.0, 1.5, 2.0, 2.5], k=3)
        expected = [
            math.log(3.0) + 0.5 * math.log(0.4),
            math.log(3.0) + math.log(0.4),
            math.log(3.0) + math.log(0.4) + 0.5 * math.log(0.2),
            math.log(3.0) + math.log(0.4) + math.log(0.2),
            math.log(3.0) + 1.25 * math.log(0.4 * 0.2),
        ]
        np.testing.assert_allclose(curve.p, expected, rtol=1e-10)

    def test_pressure_at_zero_counts_branches(self):
        curve = pressure_curve(corner_tree(4), [0.0], k=2)
        assert curve.p[0] == pytest.approx(math.log(3.0), rel=1e-12)

    def test_rejects_increasing_values(self):
        with pytest.raises(ValueError, match="not decreasing"):
            PressureCurve(
                s=np.array([0.0, 1.0]),
                p=np.array([0.0, 1.0]),
                k=2,
                k_half=1,
                diagnostic=np.zeros(2),
            )

    def test_rejects_unsorted_grid(self):
        with pytest.raises(ValueError, match="increasing"):
            PressureCurve(
                s=np.array([1.0, 0.0]),
                p=np.array([1.0, 0.0]),
                k=2,
                k_half=1,
                diagnostic=np.zeros(2),
            )

    def test_rejects_shape_mismatch(self):
        with pytest.raises(ValueError, match="equal-length"):
            PressureCurve(
                s=np.array([0.0, 1.0]),
                p=np.array([1.0, 0.0, -1.0]),
                k=2,
                k_half=1,
                diagnostic=np.zeros(2),
            )

    def test_level_must_be_positive(self):
        with pytest.raises(ValueError, match="k must"):
            pressure_curve(thirds_tree(), [0.0, 1.0], k=0)

    def test_rejects_non_finite_values(self):
        for p, diag in (([0.0, -np.inf], [0.0, 0.0]), ([0.0, -1.0], [0.0, np.nan])):
            with pytest.raises(ValueError, match="underflow"):
                PressureCurve(
                    s=np.array([0.0, 1.0]),
                    p=np.array(p),
                    k=2,
                    k_half=1,
                    diagnostic=np.array(diag),
                )

    def test_underflowing_sums_are_refused(self):
        fam = IfsFamily("tiny", tuple(AffineMap([[0.001]], c) for c in range(2)))
        with pytest.raises(ValueError, match="s = 30.0: the partition sum underflow"):
            pressure_curve(deterministic_tree(fam, 12), [5.0, 30.0], k=12)


# ---------------------------------------------------------------------------
# the zero of the pressure


class TestPressureZero:
    @pytest.mark.parametrize("k", [1, 2, 3])
    def test_similarity_zero(self, k):
        res = pressure_zero(thirds_tree(), k, tol=1e-8)
        assert res.flag is None
        assert abs(res.s0 - LOG2_OVER_LOG3) <= 1e-6
        assert res.bracket[0] <= res.s0 <= res.bracket[1]
        assert res.iterations > 0

    def test_diagonal_zero(self):
        res = pressure_zero(diag_tree(), 6, tol=1e-8)
        assert res.flag is None
        assert abs(res.s0 - DIAG_ZERO) <= 1e-5

    def test_single_branch_is_flagged_zero(self):
        fam = IfsFamily("solo", (AffineMap(np.diag([0.4, 0.2])),))
        res = pressure_zero(deterministic_tree(fam, 4), 3)
        assert res.s0 == 0.0
        assert "nonpositive" in res.flag

    def test_zero_above_cap_is_flagged(self):
        fam = IfsFamily(
            "crowd", tuple(AffineMap([[0.9]], c, [0.0]) for c in range(50))
        )
        res = pressure_zero(deterministic_tree(fam, 2), 1, s_cap=16.0)
        assert res.s0 == 16.0
        assert "cap" in res.flag

    def test_level_must_be_positive(self):
        with pytest.raises(ValueError, match="k must"):
            pressure_zero(thirds_tree(), 0)

    def test_re_enumerating_path_matches_the_spectrum_cache(self, rng, monkeypatch):
        mats = [random_contraction(rng, 2, 0.2, 0.45) for _ in range(3)]
        tree = deterministic_tree(
            IfsFamily("rand", tuple(AffineMap(T, c) for c, T in enumerate(mats))), 6
        )
        # small blocks, so that worker threads get several blocks to share
        monkeypatch.setattr(code_tree, "_BLOCK_LIMIT", 50)
        passes = []
        counted = dimension.partition_sums

        def counting(*args, **kwargs):
            passes.append(1)
            return counted(*args, **kwargs)

        monkeypatch.setattr(dimension, "partition_sums", counting)
        cached = [pressure_zero(tree, 6, threads=t) for t in (1, 4)]
        assert not passes
        monkeypatch.setattr(dimension, "_SPECTRUM_CACHE_WORDS", tree.word_count(6) - 1)
        streamed = [pressure_zero(tree, 6, threads=t) for t in (1, 4)]
        assert passes
        assert cached[0] == cached[1] and streamed[0] == streamed[1]
        assert cached[0].flag is None and streamed[0].flag is None
        assert streamed[0].s0 == pytest.approx(cached[0].s0, rel=1e-12)
        assert streamed[0].iterations == cached[0].iterations


# ---------------------------------------------------------------------------
# box counting


class TestBoxDimension:
    def test_planar_grid_has_dimension_two(self):
        xs = np.arange(64) / 64.0
        points = np.stack(np.meshgrid(xs, xs), axis=-1).reshape(-1, 2)
        fit = box_dimension(points, 1, 6)
        assert fit.estimate == pytest.approx(2.0, abs=1e-9)
        assert fit.residual_rms < 1e-9
        assert fit.scales == (1, 2, 3, 4, 5, 6)
        assert fit.counts == tuple(4**j for j in range(1, 7))

    def test_segment_has_dimension_one(self):
        points = np.stack([np.arange(2048) / 2048.0, np.zeros(2048)], axis=1)
        fit = box_dimension(points, 1, 8)
        assert fit.estimate == pytest.approx(1.0, abs=1e-9)

    def test_counts_are_monotone(self):
        points, _ = enumerate_points(corner_tree(7), 7)
        fit = box_dimension(points, 2, 8)
        assert all(a <= b for a, b in zip(fit.counts, fit.counts[1:]))

    def test_uniform_cloud_stays_in_range(self, rng):
        points = rng.uniform(size=(5000, 2))
        fit = box_dimension(points, 2, 6)
        assert 0.0 <= fit.estimate <= 2.05

    def test_rejects_degenerate_cloud(self):
        points = np.tile([0.25, 0.5], (2000, 1))
        with pytest.raises(ValueError, match="degenerate"):
            box_dimension(points, 2, 6)

    def test_rejects_small_clouds(self):
        with pytest.raises(ValueError, match="1000"):
            box_dimension(np.random.default_rng(0).uniform(size=(999, 2)), 2, 6)

    def test_rejects_bad_scale_window(self):
        points = np.random.default_rng(0).uniform(size=(2000, 2))
        for j_min, j_max in ((3, 3), (5, 2), (0, 4)):
            with pytest.raises(ValueError, match="j_min"):
                box_dimension(points, j_min, j_max)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_rejects_non_finite_points(self, bad):
        # a nan cast to an int64 box key used to count as one more box
        points = np.random.default_rng(0).uniform(size=(2000, 2))
        points[17, 1] = bad
        with pytest.raises(ValueError, match="finite"):
            box_dimension(points, 2, 6)

    def test_rejects_non_planar_input(self):
        with pytest.raises(ValueError, match="points"):
            box_dimension(np.zeros(2000), 2, 6)

    def test_json_round_trip(self):
        points = np.random.default_rng(1).uniform(size=(3000, 2))
        payload = box_dimension(points, 2, 6).to_json_dict()
        json.dumps(payload, allow_nan=False)


# ---------------------------------------------------------------------------
# the combined report


class TestDimensionReport:
    def test_corner_system_consistency(self):
        tree = corner_tree(10)
        report = dimension_report(tree, k=6, depth=10)
        assert report.point_count == 3**10
        assert report.box_scales == tuple(range(2, 10))
        assert report.dimension == min(report.s0, 2.0)
        assert abs(report.dimension - report.box_estimate) <= 0.1
        assert report.flag is None
        lo, hi = report.box_band
        assert lo <= report.box_estimate <= hi

    def test_rejects_large_contractions(self):
        fam = IfsFamily(
            "wide",
            (
                AffineMap(np.diag([0.6, 0.3]), 0, [0.0, 0.0]),
                AffineMap(np.diag([0.6, 0.3]), 1, [0.4, 0.4]),
            ),
        )
        tree = deterministic_tree(fam, 6)
        with pytest.raises(HypothesisViolation, match="1/2"):
            dimension_report(tree, k=3, depth=6)

    def test_disagreement_is_flagged(self):
        report = dimension_report(corner_tree(8), k=4, depth=8, flag_tol=1e-6)
        assert report.flag is not None
        assert "non-generic" in report.flag

    def test_json_is_strict(self):
        report = dimension_report(corner_tree(8), k=4, depth=8)
        json.dumps(report.to_json_dict(), allow_nan=False)
