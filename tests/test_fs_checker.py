"""Tests for the spanning-condition checkers and the two-map certificate.

The oracle used throughout: a verdict of Fail must come with a witness pair
(v, w) that genuinely annihilates, i.e. <w | compound(S) v> vanishes for every
map S of the family, and pass margins must match hand-computable geometry on
small families (identity, quarter turn, triangular maps).
"""

import json
import math

import numpy as np
import pytest

from affdim import (
    LinearFamily,
    UnsupportedEigenstructure,
    VerdictKind,
    check_cm,
    check_cs,
    compound_matrix,
    criterion_cscm,
    estimate_fullness,
    iterate_closure,
)

from conftest import random_nonsingular

ROT90 = np.array([[0.0, -1.0], [1.0, 0.0]])
UPPER_A = np.array([[0.9, 0.3], [0.0, 0.7]])
UPPER_B = np.array([[0.6, -0.2], [0.0, 0.8]])


def annihilation_residual(fam, witness):
    """max_S |<w | compound(S) v>| over the family, relative to the scales."""
    v, w = witness.v, witness.w
    scale = v.norm() * w.norm()
    worst = 0.0
    for S in fam:
        img = compound_matrix(S, v.m).entries @ v.coords
        worst = max(
            worst,
            abs(float(w.coords @ img))
            / (scale * max(float(np.linalg.norm(img)) / v.norm(), 1e-300)),
        )
    return worst


# ---------------------------------------------------------------------------
# family container and closure


class TestLinearFamily:
    def test_requires_maps(self):
        with pytest.raises(ValueError, match="at least one"):
            LinearFamily(2, ())

    def test_rejects_shape_mismatch(self):
        with pytest.raises(ValueError, match="shape"):
            LinearFamily(2, (np.eye(3),))

    def test_rejects_singular(self):
        with pytest.raises(ValueError, match="singular"):
            LinearFamily.from_matrices([np.array([[1.0, 0.0], [0.0, 0.0]])])

    def test_len_and_iter(self):
        fam = LinearFamily.from_matrices([np.eye(2), ROT90])
        assert len(fam) == 2
        assert all(M.shape == (2, 2) for M in fam)

    def test_maps_are_read_only(self):
        fam = LinearFamily.from_matrices([np.eye(2)])
        with pytest.raises(ValueError):
            fam.maps[0][0, 0] = 5.0


class TestIterateClosure:
    def test_single_map_counts(self):
        fam = LinearFamily.from_matrices([0.5 * np.eye(2)])
        assert len(iterate_closure(fam, 2)) == 2

    def test_two_map_counts(self):
        fam = LinearFamily.from_matrices([UPPER_A, UPPER_B])
        assert len(iterate_closure(fam, 2)) == 6
        assert len(iterate_closure(fam, 3)) == 14

    def test_words_are_compositions(self):
        fam = LinearFamily.from_matrices([UPPER_A, UPPER_B])
        clo = iterate_closure(fam, 2)
        # depth-2 block is ordered (A@A, A@B, B@A, B@B)
        np.testing.assert_allclose(clo.maps[2], UPPER_A @ UPPER_A)
        np.testing.assert_allclose(clo.maps[3], UPPER_A @ UPPER_B)
        np.testing.assert_allclose(clo.maps[4], UPPER_B @ UPPER_A)
        np.testing.assert_allclose(clo.maps[5], UPPER_B @ UPPER_B)

    def test_depth_must_be_positive(self):
        fam = LinearFamily.from_matrices([np.eye(2)])
        with pytest.raises(ValueError, match="depth"):
            iterate_closure(fam, 0)

    def test_cap(self):
        fam = LinearFamily.from_matrices([UPPER_A, UPPER_B])
        with pytest.raises(ValueError, match="cap"):
            iterate_closure(fam, 4, cap=10)


# ---------------------------------------------------------------------------
# condition C(m)


class TestCheckCm:
    def test_identity_alone_fails_with_witness(self):
        fam = LinearFamily.from_matrices([np.eye(2)])
        verdict = check_cm(fam, 1)
        assert verdict.kind is VerdictKind.FAIL
        assert not verdict.passed
        assert verdict.witness is not None
        assert verdict.witness.v.m == 1 and verdict.witness.w.m == 1
        assert annihilation_residual(fam, verdict.witness) < 1e-12

    def test_quarter_turn_pair_passes_with_unit_margin(self):
        fam = LinearFamily.from_matrices([np.eye(2), ROT90])
        verdict = check_cm(fam, 1, samples=1000)
        assert verdict.kind is VerdictKind.EMPIRICAL_PASS
        assert verdict.passed
        # v and ROT90 v are orthonormal, so the stacked images always have
        # both singular values equal to 1
        assert verdict.margin > 0.999

    def test_cardinality_quick_reject(self, rng):
        mats = [random_nonsingular(rng, 4) for _ in range(5)]
        verdict = check_cm(LinearFamily.from_matrices(mats), 2)
        assert verdict.kind is VerdictKind.FAIL
        assert "cardinality" in verdict.reason

    def test_trivial_grades_certify(self):
        fam = LinearFamily.from_matrices([np.eye(3)])
        for m in (0, 3):
            verdict = check_cm(fam, m)
            assert verdict.kind is VerdictKind.CERTIFIED_PASS

    def test_grade_out_of_range(self):
        fam = LinearFamily.from_matrices([np.eye(2)])
        for m in (-1, 3):
            with pytest.raises(ValueError, match="grade"):
                check_cm(fam, m)

    def test_negative_samples(self):
        fam = LinearFamily.from_matrices([np.eye(2), ROT90])
        with pytest.raises(ValueError, match="samples"):
            check_cm(fam, 1, samples=-1)

    @pytest.mark.parametrize("depth", [1, 2, 4, 8])
    def test_triangular_family_fails_at_every_closure_depth(self, depth):
        # span{e1} is invariant for every word, so (v, w) = (e1, e2) kills
        # the condition no matter how deep the closure goes
        fam = iterate_closure(LinearFamily.from_matrices([UPPER_A, UPPER_B]), depth)
        verdict = check_cm(fam, 1, samples=200)
        assert verdict.kind is VerdictKind.FAIL
        assert annihilation_residual(fam, verdict.witness) < 1e-12

    def test_witness_pulls_back_through_conjugation(self, rng):
        # a witness for {P S P^-1} must pull back to one for {S}: pair
        # compound(P^-T) w against compound(P^-1) v, equivalently push w
        # through P^T
        P = random_nonsingular(rng, 2, cond_cap=50)
        P_inv = np.linalg.inv(P)
        conj = LinearFamily.from_matrices([P @ UPPER_A @ P_inv, P @ UPPER_B @ P_inv])
        verdict = check_cm(conj, 1)
        assert verdict.kind is VerdictKind.FAIL
        m = verdict.witness.v.m
        v_back = compound_matrix(P_inv, m).entries @ verdict.witness.v.coords
        w_back = compound_matrix(P.T, m).entries @ verdict.witness.w.coords
        scale = float(np.linalg.norm(v_back) * np.linalg.norm(w_back))
        worst = max(
            abs(float(w_back @ (compound_matrix(S, m).entries @ v_back)))
            for S in (UPPER_A, UPPER_B)
        )
        assert worst <= 1e-10 * scale

    def test_verdict_str_mentions_kind(self):
        fam = LinearFamily.from_matrices([np.eye(2)])
        text = str(check_cm(fam, 1))
        assert "Fail" in text and "m=1" in text


# ---------------------------------------------------------------------------
# condition C(s) for fractional s


class TestCheckCs:
    def test_identity_alone_fails_below_one(self):
        fam = LinearFamily.from_matrices([np.eye(2)])
        verdict = check_cs(fam, 0.5)
        assert verdict.kind is VerdictKind.FAIL
        assert verdict.s == 0.5
        assert "C(1)" in verdict.reason
        # the witness is a quadruple: trivial grade-0 part, grade-1 extension
        assert verdict.witness.v.m == 0
        assert verdict.witness.v_wedge.m == 1 and verdict.witness.w_wedge.m == 1

    def test_quarter_turn_pair_passes_below_one(self):
        fam = LinearFamily.from_matrices([np.eye(2), ROT90])
        verdict = check_cs(fam, 0.5, samples=1000)
        assert verdict.kind is VerdictKind.EMPIRICAL_PASS
        # v and ROT90 v span the plane, so one of the two pairings is at
        # least 1/sqrt(2) for any unit w
        assert verdict.margin > 0.70

    def test_generic_triple_dimension_passes(self, rng):
        mats = [random_nonsingular(rng, 3, cond_cap=20) for _ in range(8)]
        verdict = check_cs(LinearFamily.from_matrices(mats), 1.5, samples=1000)
        assert verdict.kind is VerdictKind.EMPIRICAL_PASS
        assert verdict.m == 1
        assert verdict.margin > 0.0

    def test_triangular_family_fails_fractional(self):
        fam = LinearFamily.from_matrices([UPPER_A, UPPER_B])
        verdict = check_cs(fam, 1.5, samples=200)
        assert verdict.kind is VerdictKind.FAIL
        assert "C(" in verdict.reason

    def test_integer_s_is_rejected(self):
        fam = LinearFamily.from_matrices([np.eye(2), ROT90])
        with pytest.raises(ValueError, match="integer"):
            check_cs(fam, 1.0)

    def test_s_out_of_range(self):
        fam = LinearFamily.from_matrices([np.eye(2), ROT90])
        for s in (-0.5, 0.0, 2.0, 2.5):
            with pytest.raises(ValueError):
                check_cs(fam, s)


# ---------------------------------------------------------------------------
# the two-map certificate


class TestCriterion:
    F = np.diag([0.4, 0.3])
    G = np.array([[0.325, 0.125], [0.125, 0.325]])

    def test_worked_pair_certifies(self):
        report = criterion_cscm(self.F, self.G)
        assert report.passed
        assert report.failure_stage is None
        np.testing.assert_allclose(report.f_eigenvalues, [0.4, 0.3])
        np.testing.assert_allclose(report.g_eigenvalues, [0.45, 0.2])
        # G's eigenbasis is the diagonal/antidiagonal frame, so the change of
        # basis has every entry +-1/sqrt(2) and determinant -1
        np.testing.assert_allclose(np.abs(report.change_of_basis), np.full((2, 2), 2**-0.5), atol=1e-12)
        assert math.isclose(report.min_abs_minor, 2**-0.5, rel_tol=1e-10)
        assert math.isclose(report.minor_margin, 2**-0.5, rel_tol=1e-10)
        assert report.n0 == 2
        assert report.certified_depth == 8

    def test_equal_maps_fail_on_minors(self):
        report = criterion_cscm(self.F, self.F)
        assert not report.passed
        assert report.failure_stage == "minors"
        assert report.min_abs_minor <= 1e-12

    def test_repeated_eigenvalues_fail_product_stage(self):
        # a scalar multiple of the identity has a clean eigenbasis but its
        # 1-fold eigenvalue products collide
        report = criterion_cscm(self.F, 0.3 * np.eye(2))
        assert not report.passed
        assert report.failure_stage == "eigenvalue-products:G"
        assert report.product_margins_g[0] <= 1e-12

    def test_certified_depth_dimension_three(self, rng):
        Q = np.linalg.qr(rng.standard_normal((3, 3)))[0]
        G = Q @ np.diag([0.5, 0.3, 0.2]) @ Q.T
        report = criterion_cscm(np.diag([0.45, 0.35, 0.15]), G)
        assert report.n0 == 3
        assert report.certified_depth == 18

    def test_rotation_is_unsupported(self):
        theta = 0.7
        R = np.array([[math.cos(theta), -math.sin(theta)], [math.sin(theta), math.cos(theta)]])
        with pytest.raises(UnsupportedEigenstructure, match="complex"):
            criterion_cscm(0.5 * R, self.G)

    def test_jordan_block_is_unsupported(self):
        J = np.array([[0.5, 1.0], [0.0, 0.5]])
        with pytest.raises(UnsupportedEigenstructure, match="defective|repeated"):
            criterion_cscm(J, self.G)

    def test_shape_mismatch(self):
        with pytest.raises(ValueError, match="square"):
            criterion_cscm(np.eye(2), np.eye(3))

    def test_scale_invariance(self):
        base = criterion_cscm(self.F, self.G)
        scaled = criterion_cscm(3.0 * self.F, 0.25 * self.G)
        assert scaled.passed == base.passed
        assert math.isclose(scaled.minor_margin, base.minor_margin, rel_tol=1e-9)
        assert scaled.product_margins_f[0] == pytest.approx(base.product_margins_f[0], rel=1e-9)

    def test_orthogonal_conjugation_invariance(self, rng):
        # rotating both maps rotates both eigenbases, so the change of basis
        # only changes by row/column signs and the margins are unchanged
        base = criterion_cscm(self.F, self.G)
        Q = np.linalg.qr(rng.standard_normal((2, 2)))[0]
        moved = criterion_cscm(Q @ self.F @ Q.T, Q @ self.G @ Q.T)
        assert moved.passed == base.passed
        assert math.isclose(moved.minor_margin, base.minor_margin, rel_tol=1e-9)
        assert math.isclose(moved.min_abs_minor, base.min_abs_minor, rel_tol=1e-9)

    def test_top_product_margin_is_vacuous_and_json_safe(self):
        report = criterion_cscm(self.F, self.G)
        assert report.product_margins_f[-1] == math.inf
        payload = report.to_json_dict()
        assert payload["product_margins_f"][-1] is None
        # strict JSON: no NaN / Infinity tokens anywhere
        json.dumps(payload, allow_nan=False)

    def test_certified_family_passes_every_grade(self):
        report = criterion_cscm(self.F, self.G)
        assert report.passed
        fam = iterate_closure(LinearFamily.from_matrices([self.F, self.G]), 4)
        for m in (1,):
            verdict = check_cm(fam, m, samples=300)
            assert verdict.passed, str(verdict)


# ---------------------------------------------------------------------------
# empirical fullness


class TestEstimateFullness:
    def test_identity_alone_decays_toward_zero(self):
        fam = LinearFamily.from_matrices([np.eye(2)])
        small = estimate_fullness(fam, 1.0, sample_count=100)
        large = estimate_fullness(fam, 1.0, sample_count=400)
        assert small.c_hat <= 1.0 + 1e-9
        assert large.c_hat < small.c_hat
        assert large.c_hat < 1e-3

    @pytest.mark.parametrize("seed", range(5))
    def test_quarter_turn_pair_has_positive_floor(self, seed):
        fam = LinearFamily.from_matrices([np.eye(2), ROT90])
        est = estimate_fullness(fam, 1.0, sample_count=150, seed=seed)
        assert est.c_hat > 0.5

    def test_certified_closure_is_full_at_fractional_s(self):
        fam = iterate_closure(
            LinearFamily.from_matrices([TestCriterion.F, TestCriterion.G]), 4
        )
        est = estimate_fullness(fam, 1.5, sample_count=200)
        assert est.c_hat > 0.05
        assert est.samples == 200

    def test_monotone_in_sample_count(self):
        fam = LinearFamily.from_matrices([np.eye(2), ROT90])
        a = estimate_fullness(fam, 1.0, sample_count=50, seed=3)
        b = estimate_fullness(fam, 1.0, sample_count=150, seed=3)
        assert b.c_hat <= a.c_hat

    def test_worst_pair_reproduces_c_hat(self):
        fam = LinearFamily.from_matrices([np.eye(2)])
        est = estimate_fullness(fam, 1.0, sample_count=100)
        U, V = est.worst_U, est.worst_V
        num = np.linalg.svd(U @ V, compute_uv=False)[0]
        den = np.linalg.svd(U, compute_uv=False)[0] * np.linalg.svd(V, compute_uv=False)[0]
        assert math.isclose(num / den, est.c_hat, rel_tol=1e-12)

    def test_sample_count_must_be_positive(self):
        fam = LinearFamily.from_matrices([np.eye(2)])
        with pytest.raises(ValueError, match="positive"):
            estimate_fullness(fam, 1.0, sample_count=0)
