"""Tests for pressure curves, the pressure zero, and box-counting estimates.

Self-similar families give closed forms: k equal similarities of ratio r have
p(s) = log(k r^s) with zero log k / log(1/r), and diagonal families make the
pressure piecewise linear with hand-computable kinks.
"""

import json
import math
import pathlib

import numpy as np
import pytest

from affdim import (
    AffineMap,
    BoxCountFit,
    HypothesisViolation,
    IfsFamily,
    PressureCurve,
    box_dimension,
    deterministic_tree,
    dimension_report,
    enumerate_points,
    parse_system,
    pressure_curve,
    pressure_zero,
)
from affdim import code_tree, dimension

from conftest import random_contraction

LOG2_OVER_LOG3 = math.log(2.0) / math.log(3.0)
DIAG_ZERO = 1.0 + math.log(1.2) / math.log(5.0)
EXAMPLES = pathlib.Path(__file__).resolve().parents[1] / "docs" / "examples"


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

    def test_sums_below_the_smallest_double_are_evaluated(self):
        # S(12, 30) = 2^12 * 1e-1080; p(s) = log 2 - 3 s log 10 at every level
        fam = IfsFamily("tiny", tuple(AffineMap([[0.001]], c) for c in range(2)))
        curve = pressure_curve(deterministic_tree(fam, 12), [5.0, 20.0, 30.0], k=12)
        expected = [math.log(2.0) - 3.0 * s * math.log(10.0) for s in (5.0, 20.0, 30.0)]
        np.testing.assert_allclose(curve.p, expected, rtol=1e-12)
        assert np.all(curve.diagnostic <= 1e-12 * np.abs(curve.p))


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

    def test_zero_above_cap_is_flagged(self, monkeypatch):
        fam = IfsFamily(
            "crowd", tuple(AffineMap([[0.9]], c, [0.0]) for c in range(50))
        )
        monkeypatch.setattr(dimension, "_S_CAP", 16.0)
        res = pressure_zero(deterministic_tree(fam, 2), 1)
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
        # small blocks, so that the cache holds several blocks to fold
        monkeypatch.setattr(code_tree, "_BLOCK_LIMIT", 50)
        passes = []
        counted = code_tree.partition_sums

        def counting(*args, **kwargs):
            passes.append(1)
            return counted(*args, **kwargs)

        monkeypatch.setattr(code_tree, "partition_sums", counting)
        cached = pressure_zero(tree, 6)
        assert not passes
        monkeypatch.setattr(code_tree, "_SPECTRUM_CACHE_WORDS", tree.word_count(6) - 1)
        streamed = pressure_zero(tree, 6)
        assert passes
        assert cached.flag is None and streamed.flag is None
        assert streamed == cached


def family_tree(mats, depth):
    return deterministic_tree(IfsFamily("fam", tuple(AffineMap(T, c) for c, T in enumerate(mats))), depth)


def random_tree(rng, d, depth, maps=3):
    return family_tree([random_contraction(rng, d, 0.15, 0.45) for _ in range(maps)], depth)


def bisect(f, lo, hi, steps=200):
    """Zero of a decreasing f on [lo, hi] by plain bisection."""
    for _ in range(steps):
        mid = 0.5 * (lo + hi)
        if mid in (lo, hi):
            break
        lo, hi = (mid, hi) if f(mid) > 0.0 else (lo, mid)
    return 0.5 * (lo + hi)


class TestTangentAndChord:
    @pytest.mark.parametrize("d", [1, 2, 3])
    def test_slope_sum_is_the_derivative(self, rng, d):
        tree = random_tree(rng, d, 5)
        k, h = 5, 1e-6
        s_values = [0.3, 0.7, d - 0.4, d + 0.6]
        sums = code_tree.partition_sums(tree, k, s_values, slopes=True)
        np.testing.assert_array_equal(sums[0], code_tree.partition_sums(tree, k, s_values))
        dp = -np.exp(sums[1] - sums[0]) / k
        for s, got in zip(s_values, dp):
            lo, hi = code_tree.partition_sums(tree, k, [s - h, s + h]) / k
            assert got == pytest.approx((hi - lo) / (2 * h), rel=1e-6)

    def test_single_family_in_one_dimension(self, rng):
        t = rng.uniform(0.1, 0.45, size=4) * rng.choice([-1.0, 1.0], size=4)
        tree = family_tree([np.array([[x]]) for x in t], 6)
        grid = np.linspace(0.0, 2.5, 11)
        log_sums = code_tree.partition_sums(tree, 6, grid)
        exact = 6 * np.log([np.sum(np.abs(t) ** s) for s in grid])
        np.testing.assert_allclose(log_sums, exact, rtol=1e-13, atol=1e-13)
        zero = bisect(lambda s: math.log(np.sum(np.abs(t) ** s)), 0.0, 64.0)
        res = pressure_zero(tree, 6, tol=1e-10)
        assert res.flag is None
        assert res.bracket[0] <= zero <= res.bracket[1]
        assert abs(res.s0 - zero) <= 1e-9

    @pytest.mark.parametrize("which", ["corner", "diag", "d1", "d2", "d3"])
    def test_bracket_holds_the_bisection_zero(self, rng, which):
        if which == "corner":
            spec = parse_system(str(EXAMPLES / "corner_system.json"))
            tree = deterministic_tree(spec.family(None), 8)
        elif which == "diag":
            tree = diag_tree(8)
        else:
            tree = random_tree(rng, int(which[1]), 8)
        for k in range(1, 9):
            res = pressure_zero(tree, k)
            assert res.flag is None
            lo, hi = res.bracket
            assert lo <= res.s0 <= hi
            assert 0.0 <= res.p_bound <= 1e-6
            zero = bisect(lambda s: code_tree.partition_sums(tree, k, [s])[0], 0.0, 64.0)
            # where p_k is affine on the piece (corner, diag) tangent and chord
            # meet up to rounding, and so does the zero of the rounded p_k
            assert lo - 4 * math.ulp(lo) <= zero <= hi + 4 * math.ulp(hi)

    @pytest.mark.parametrize("seed", range(4))
    def test_co_diagonal_closed_form(self, seed):
        rng = np.random.default_rng(seed)
        theta = rng.uniform(0.2, 1.3)
        R = np.array([[math.cos(theta), -math.sin(theta)], [math.sin(theta), math.cos(theta)]])
        a = np.array([0.42, *rng.uniform(0.3, 0.42, size=2)])
        b = rng.uniform(0.1, 0.25, size=3)
        # sum a_i > 1, so the zero lies in [1, 2]; the products keep a >= b map
        # by map, so there S(k, s) = (sum a_i b_i^(s - 1))^k
        zero = bisect(lambda s: math.log(np.sum(a * b ** (s - 1.0))), 1.0, 2.0)
        res = pressure_zero(family_tree([R @ np.diag([x, y]) @ R.T for x, y in zip(a, b)], 8), 8)
        assert res.flag is None
        assert abs(res.s0 - zero) <= 1e-10

    def test_zero_above_the_dimension(self):
        r = np.array([0.7, 0.75, 0.8, 0.85, 0.9])
        tree = family_tree([np.array([[x]]) for x in r], 3)
        res = pressure_zero(tree, 3)
        zero = bisect(lambda s: math.log(np.sum(r**s)), 1.0, 64.0)
        assert res.flag is None
        assert abs(res.s0 - zero) <= 1e-6
        assert res.bracket[0] <= zero <= res.bracket[1]

    @pytest.mark.parametrize("d", [1, 2, 3])
    def test_streamed_search_takes_few_passes(self, rng, monkeypatch, d):
        tree = random_tree(rng, d, 7)
        passes = []
        counted = code_tree.partition_sums

        def counting(*args, **kwargs):
            passes.append(1)
            return counted(*args, **kwargs)

        monkeypatch.setattr(code_tree, "partition_sums", counting)
        monkeypatch.setattr(code_tree, "_SPECTRUM_CACHE_WORDS", 0)
        res = pressure_zero(tree, 7)
        assert res.flag is None
        assert res.iterations == len(passes) <= 3

    def test_one_dimensional_search_builds_no_cache(self, rng, monkeypatch):
        # 3^7 words fit the spectrum cache, but a d = 1 pass is a transfer product
        t = rng.uniform(0.1, 0.45, size=3) * rng.choice([-1.0, 1.0], size=3)
        tree = family_tree([np.array([[x]]) for x in t], 7)
        assert tree.word_count(7) <= code_tree._SPECTRUM_CACHE_WORDS
        passes = []
        counted = code_tree.partition_sums

        def counting(*args, **kwargs):
            passes.append(1)
            return counted(*args, **kwargs)

        def enumerate_nothing(*args, **kwargs):
            raise AssertionError("pressure_zero built a spectrum cache")

        monkeypatch.setattr(code_tree, "partition_sums", counting)
        monkeypatch.setattr(code_tree, "_map_words", enumerate_nothing)
        res = pressure_zero(tree, 7, tol=1e-10)
        assert res.flag is None
        assert res.iterations == len(passes)
        zero = bisect(lambda s: math.log(np.sum(np.abs(t) ** s)), 0.0, 64.0)
        assert abs(res.s0 - zero) <= 1e-9


# ---------------------------------------------------------------------------
# box counting


def per_scale_fit(points, j_min, j_max):
    """The box count with one np.unique per scale, kept as the reference."""
    js = list(range(j_min, j_max + 1))
    counts = [
        int(np.unique(np.floor(points * float(2**j)).astype(np.int64), axis=0).shape[0])
        for j in js
    ]
    x = np.array(js, dtype=float) * math.log(2.0)
    y = np.log(np.array(counts, dtype=float))
    slope, intercept = np.polyfit(x, y, 1)
    resid = y - (slope * x + intercept)
    stderr = math.sqrt(
        float(np.sum(resid**2)) / max(len(js) - 2, 1) / float(np.sum((x - x.mean()) ** 2))
    )
    return BoxCountFit(
        estimate=float(slope),
        slope_stderr=stderr,
        residual_rms=float(np.sqrt(np.mean(resid**2))),
        scales=tuple(js),
        counts=tuple(counts),
    )


def assert_same_fit(got, want):
    for field in ("estimate", "slope_stderr", "residual_rms", "scales", "counts"):
        assert getattr(got, field) == getattr(want, field), field
    assert all(type(c) is int for c in got.counts)


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

    def test_rejects_a_cloud_without_coordinates(self):
        # 1,200 rows and no column: the cloud has points, but no x1, ..., xd
        with pytest.raises(ValueError, match="no coordinate columns x1, ..., xd"):
            box_dimension(np.zeros((1200, 0)), 2, 6)

    def test_json_round_trip(self):
        points = np.random.default_rng(1).uniform(size=(3000, 2))
        payload = box_dimension(points, 2, 6).to_json_dict()
        json.dumps(payload, allow_nan=False)

    @pytest.mark.parametrize("d", [1, 2, 3, 4])
    @pytest.mark.parametrize("j_min, j_max", [(1, 9), (2, 3), (5, 6), (1, 20)])
    def test_matches_per_scale_unique(self, d, j_min, j_max):
        # signed coordinates, a shifted copy that straddles zero, and repeats
        rng = np.random.default_rng(np.random.SeedSequence([31, d]))
        cloud = rng.normal(scale=2.0, size=(1500, d))
        points = np.concatenate([cloud, cloud[:400], cloud[:300] - 0.75, -cloud[:200]])
        rng.shuffle(points)
        assert np.any(points < 0)
        assert_same_fit(box_dimension(points, j_min, j_max), per_scale_fit(points, j_min, j_max))

    def test_matches_per_scale_unique_on_the_corner_cloud(self):
        points, _ = enumerate_points(corner_tree(9), 9)
        for j_min, j_max in ((1, 12), (2, 9), (7, 8)):
            assert_same_fit(box_dimension(points, j_min, j_max), per_scale_fit(points, j_min, j_max))

    @staticmethod
    def lexsort_rows(keys):
        """The distinct rows by one np.lexsort, kept as the reference."""
        keys = keys[np.lexsort(keys.T)]
        return keys[np.concatenate([[True], np.any(keys[1:] != keys[:-1], axis=1)])]

    @pytest.mark.parametrize("d", [1, 2, 3, 5])
    def test_distinct_rows_match_the_lexsort_path(self, d, monkeypatch):
        # rows packed into one int64 sort as np.lexsort sorts them, bit for
        # bit; spans that need more than 63 bits together keep the lexsort
        rng = np.random.default_rng(np.random.SeedSequence([37, d]))
        top = 2**62
        narrow = [
            rng.integers(-40, 40, size=(3000, d)),
            np.concatenate([rng.integers(0, 2 ** (60 // d), size=(500, d))] * 3),
            np.column_stack([np.full(800, -7)] + [rng.integers(-5, 5, 800)] * (d - 1)),
            # widths that sum to exactly 63 bits, the last column in the top bit
            np.column_stack([rng.integers(0, 2 ** (63 // d), 1000) for _ in range(d - 1)]
                            + [rng.integers(0, 2 ** (63 - (d - 1) * (63 // d)), 1000) - 2**40]),
        ]
        # one column of 64 bits, then (d > 1) spans of 63 and 34 bits a column
        wide = [np.tile(np.array([[-top], [top - 1], [5], [-top], [0]]) * 2, (1, d))]
        if d > 1:
            wide += [rng.integers(-top, top, size=(1000, d)), rng.integers(0, 2**33, size=(1000, d))]
        calls = []
        lexsort = np.lexsort
        monkeypatch.setattr(np, "lexsort", lambda k: calls.append(len(k)) or lexsort(k))
        for keys, path in [(k, "packed") for k in narrow] + [(k, "lexsort") for k in wide]:
            keys = np.ascontiguousarray(keys, dtype=np.int64)
            calls.clear()
            got = dimension._distinct_rows(keys)
            assert bool(calls) == (path == "lexsort")
            want = self.lexsort_rows(keys)
            assert got.dtype == np.int64 and got.shape == want.shape and np.array_equal(got, want)

    def test_rejects_scales_that_overflow_int64_keys(self):
        # max |x| = 2.5 = 0.625 * 2^2, so x * 2^j fits in int64 up to j = 61
        points = np.random.default_rng(2).uniform(-2.0, 2.0, size=(2000, 2))
        points[5, 0] = -2.5
        assert_same_fit(box_dimension(points, 59, 61), per_scale_fit(points, 59, 61))
        for j_max in (62, 70, 2000):
            with pytest.raises(ValueError, match="j_max can be at most 61"):
                box_dimension(points, 2, j_max)


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

    def test_disagreement_is_flagged(self, monkeypatch):
        monkeypatch.setattr(dimension, "_FLAG_TOL", 1e-6)
        report = dimension_report(corner_tree(8), k=4, depth=8)
        assert report.flag is not None
        assert "non-generic" in report.flag

    def test_json_is_strict(self):
        report = dimension_report(corner_tree(8), k=4, depth=8)
        json.dumps(report.to_json_dict(), allow_nan=False)
