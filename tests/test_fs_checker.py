"""Tests for the spanning-condition checkers and the two-map certificate.

The oracle used throughout: a verdict of Fail must come with a witness pair
(v, w) that genuinely annihilates, i.e. <w | compound(S) v> vanishes for every
map S of the family, and pass margins must match hand-computable geometry on
small families (identity, quarter turn, triangular maps).
"""

import itertools
import json
import math
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

from affdim import fs_checker
from affdim import (
    LinearFamily,
    UnsupportedEigenstructure,
    VerdictKind,
    check_cm,
    check_cs,
    cli,
    compound_matrix,
    criterion_cscm,
    estimate_fullness,
    iterate_closure,
    wedge,
)

from affdim.singular_values import _GRAM_I as GRAM_I, _GRAM_J as GRAM_J, SINGULARITY_RTOL

from conftest import random_nonsingular, rng_for

EXAMPLES = Path(__file__).resolve().parents[1] / "docs" / "examples"

ROT90 = np.array([[0.0, -1.0], [1.0, 0.0]])
UPPER_A = np.array([[0.9, 0.3], [0.0, 0.7]])
UPPER_B = np.array([[0.6, -0.2], [0.0, 0.8]])
# two totally positive maps of R^3 (every minor positive) that pass the certificate
TP_PAIR = [
    [[0.4237, 0.2825, 0.1412], [0.2825, 0.4237, 0.2825], [0.1412, 0.2825, 0.4237]],
    [[0.6319, 0.158, 0.0316], [0.316, 0.4739, 0.158], [0.158, 0.316, 0.316]],
]


def annihilation_residual(fam, witness):
    """max_S |<w | compound(S) v>| over the family, relative to the scales."""
    v, w = witness.v, witness.w
    scale = np.linalg.norm(v.coords) * np.linalg.norm(w.coords)
    worst = 0.0
    for S in fam.maps:
        img = compound_matrix(S, v.m).entries @ v.coords
        worst = max(
            worst,
            abs(float(w.coords @ img))
            / (scale * max(float(np.linalg.norm(img)) / np.linalg.norm(v.coords), 1e-300)),
        )
    return worst


def extension_oracle(x):
    """x ^ e_j for the first j of largest norm, with x ^ e_j summed over the
    blades I as x_I (e_I ^ e_j), each term a public ``wedge`` of basis vectors."""
    eye = np.eye(x.d)
    blades = itertools.combinations(range(x.d), x.m)
    terms = [(c, [eye[i] for i in I]) for c, I in zip(x.coords, blades)]
    extensions = [sum(c * wedge(cols + [eye[j]]).coords for c, cols in terms) for j in range(x.d)]
    norms = [np.linalg.norm(e) for e in extensions]
    return extensions[norms.index(max(norms))]


def generic_family():
    """Four seeded Gaussian maps of R^3: C(1) holds, with margins spread out."""
    rng = rng_for(0)
    return LinearFamily.from_matrices([random_nonsingular(rng, 3) for _ in range(4)])


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
        # the first singular map of the stack is the one named
        singular = np.array([[1.0, 2.0], [2.0, 4.0]])
        with pytest.raises(ValueError, match=r"^maps\[2\] is singular: matrix is numerically singular"):
            LinearFamily.from_matrices([np.eye(2), ROT90, singular, np.zeros((2, 2))])

    def test_len_and_iter(self):
        fam = LinearFamily.from_matrices([np.eye(2), ROT90])
        assert len(fam) == 2
        assert all(M.shape == (2, 2) for M in fam.maps)

    def test_maps_are_read_only(self):
        mats = [np.eye(2), ROT90, UPPER_A]
        fam = LinearFamily.from_matrices(mats)
        assert fam.maps.shape == (3, 2, 2) and fam.maps.dtype == float
        assert np.array_equal(fam.maps, np.stack(mats))
        assert not fam.maps.flags.writeable
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

    def test_ill_conditioned_products_are_not_gated(self):
        # a pair that criterion_cscm certifies (depth 18); its depth-6 closure
        # holds maps[62] with singular values (0.53, 2.2e-6, 9.4e-12), far below
        # the generators' gate, yet nonsingular as a product of nonsingular maps
        P = np.array([[1.0, 1.0, 1.0], [1.0, 2.0, 3.0], [1.0, 3.0, 6.0]])
        Q = np.array([[3.0, 2.0, 1.0], [2.0, 3.0, 2.0], [1.0, 2.0, 3.0]])
        F = np.round(0.9 * P / np.linalg.norm(P, 2), 4)
        G = np.round(0.9 * Q / np.linalg.norm(Q, 2), 4)
        report = criterion_cscm(F, G)
        assert report.passed and report.certified_depth == 18
        fam = iterate_closure(LinearFamily.from_matrices([F, G]), 6)
        assert len(fam) == 126
        sigma = np.linalg.svd(fam.maps[62], compute_uv=False)
        assert np.prod(sigma / sigma[0]) <= SINGULARITY_RTOL
        with pytest.raises(ValueError, match=r"^maps\[0\] is singular"):
            LinearFamily.from_matrices(fam.maps[62:63])
        for m in (1, 2):
            verdict = check_cm(fam, m)
            assert verdict.kind is VerdictKind.EMPIRICAL_PASS, str(verdict)

    def test_depth_must_be_positive(self):
        fam = LinearFamily.from_matrices([np.eye(2)])
        with pytest.raises(ValueError, match="depth"):
            iterate_closure(fam, 0)

    def test_cap(self, monkeypatch):
        fam = LinearFamily.from_matrices([UPPER_A, UPPER_B])
        # the count stops at the first level over the cap, however deep the request
        with pytest.raises(ValueError, match="largest depth within the cap is 18$"):
            iterate_closure(fam, 10**12)
        monkeypatch.setattr(fs_checker, "_CLOSURE_CAP", 10)
        # 2 + 4 maps fit under the cap, 2 + 4 + 8 do not
        with pytest.raises(ValueError, match="cap of 10 maps; the largest depth within the cap is 2$"):
            iterate_closure(fam, 4)
        with pytest.raises(ValueError, match="largest depth within the cap is 10$"):
            iterate_closure(LinearFamily.from_matrices([UPPER_A]), 10**12)

    @pytest.mark.parametrize("d, k, depth", [(1, 3, 4), (2, 2, 6), (3, 3, 4), (4, 1, 5)])
    def test_matches_the_nested_list_fold(self, d, k, depth):
        # reference: level j + 1 is [A @ B for A in maps for B in level j]
        rng = rng_for(d * 100 + k)
        maps = [random_nonsingular(rng, d) for _ in range(k)]
        out, level = list(maps), list(maps)
        for _ in range(2, depth + 1):
            level = [A @ B for A in maps for B in level]
            out.extend(level)
        clo = iterate_closure(LinearFamily.from_matrices(maps), depth)
        assert np.array_equal(clo.maps, np.stack(out))


# ---------------------------------------------------------------------------
# normalized compounds


@pytest.mark.parametrize("d", [1, 2, 3, 4, 5])
def test_normalized_compounds_match_the_per_map_form(d):
    # ||C||_2 of the grade-m compound C of S is sigma_1 ... sigma_m of S.
    # Where C is 3 x 3 (every grade of d = 3) the norm is read off C itself,
    # and each normalized compound has ||.||_2 within 4 ulps of 1; the maps
    # after the seventh make the closed form's top two eigenvalues meet
    # (sigma_1 = sigma_2 at grade 1, sigma_2 = sigma_3 at grade 2, a scalar
    # multiple of an orthogonal map, a near-tie), so they reach its eigvalsh
    # fallback.  Elsewhere each compound is divided by that product from its
    # own map's SVD, bit for bit.  Against C / ||C||_2 the entries agree to
    # within 2 m (1 + sigma_1 / sigma_m) ulps of the largest, as each sigma_i
    # carries an absolute rounding of about eps sigma_1; the largest gap here
    # is 59 ulps, at d = m = 2 with sigma_1 / sigma_2 = 189, and no other
    # exceeds 13
    rng = rng_for(d)
    maps = [random_nonsingular(rng, d) for _ in range(7)]
    if d == 3:
        q = [np.linalg.qr(rng.standard_normal((3, 3)))[0] for _ in range(6)]
        maps += [q[0] @ np.diag(s) @ q[1 + k] for k, s in enumerate(
            [(0.9, 0.9, 0.3), (0.9, 0.4, 0.4), (0.7, 0.7, 0.7), (0.5, 0.5 * (1 - 1e-9), 0.2)])]
    fam = LinearFamily.from_matrices(maps)
    for m in range(d + 1):
        if math.comb(d, m) == 3:
            norms = np.linalg.norm(fs_checker._normalized_compounds(fam, m), 2, axis=(1, 2))
            assert np.all(np.abs(norms - 1) <= 4 * np.spacing(np.minimum(norms, 1.0)))
            continue
        ref = []
        for S in fam.maps:
            C = compound_matrix(S, m).entries
            sigma = np.linalg.svd(S, compute_uv=False)
            ref.append(C / np.prod(sigma[:m]))
            spectral = C / np.linalg.norm(C, 2)
            ulps = np.max(np.abs(ref[-1] - spectral)) / np.spacing(np.max(np.abs(spectral)))
            assert ulps <= 2 * m * (1 + sigma[0] / sigma[max(m, 1) - 1])
        got = fs_checker._normalized_compounds(fam, m)
        assert np.array_equal(got, np.stack(ref))


def per_map_candidates(fam, m):
    """Reference pool, map by map: the coordinate blades, then the
    combinations of each map's unit real eigenvectors."""
    eye = np.eye(fam.d)
    out = [eye[:, list(c)] for c in itertools.combinations(range(fam.d), m)]
    lam, vec = np.linalg.eig(fam.maps)
    real = np.abs(lam.imag) <= 1e-9 * np.max(np.abs(lam), axis=1, keepdims=True)
    for keep, V in zip(real, vec):
        cols = V[:, keep].real
        norms = np.linalg.norm(cols, axis=0)
        vecs = cols[:, norms > 1e-12] / norms[norms > 1e-12]
        out.extend(vecs[:, list(c)] for c in itertools.combinations(range(vecs.shape[1]), m))
    return np.stack(out)


@pytest.mark.parametrize("d", [2, 3, 5, 8, 12])
def test_candidate_pool_matches_the_per_map_form_bit_for_bit(d):
    # Gaussian maps have some complex eigenvalues; triangular ones share e1
    rng = rng_for(100 + d)
    gaussian = LinearFamily.from_matrices([random_nonsingular(rng, d) for _ in range(4)])
    triangular = LinearFamily.from_matrices(np.triu(rng.standard_normal((3, d, d))) + 2 * np.eye(d))
    for fam in (gaussian, triangular):
        for m in sorted({1, 2, d - 1}):
            got = fs_checker._candidate_factors(fam, m)
            ref = per_map_candidates(fam, m)
            assert got.shape == ref.shape and got.tobytes() == ref.tobytes()


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
        fam = LinearFamily.from_matrices(mats)
        verdict = check_cm(fam, 2)
        assert verdict.kind is VerdictKind.FAIL
        assert "cardinality" in verdict.reason
        # a cardinality fail scans the structured pool only and counts all of it
        assert verdict.samples == len(fs_checker._candidate_factors(fam, 2))
        assert verdict.margin == 0.0
        assert annihilation_residual(fam, verdict.witness) < 1e-12

    def test_cardinality_fail_takes_no_margin(self, monkeypatch):
        # with fewer maps than C(d, m) every margin is 0: the witness v is the
        # first pool blade, and no stack is reduced, screened or scored
        for name in ("_reduced_stack", "_screen", "_rank_margins"):
            monkeypatch.setattr(fs_checker, name, lambda *args, name=name: pytest.fail(f"{name} was called"))
        rng = rng_for(21)
        for d, m, k in ((2, 1, 1), (3, 1, 2), (3, 2, 2), (4, 2, 5), (5, 2, 3)):
            fam = LinearFamily.from_matrices([random_nonsingular(rng, d) for _ in range(k)])
            coords, factors = fs_checker._coords_of_factors(fs_checker._candidate_factors(fam, m))
            verdict = check_cm(fam, m)
            assert verdict.kind is VerdictKind.FAIL and "cardinality" in verdict.reason
            assert verdict.margin == 0.0 and verdict.samples == len(coords)
            assert np.array_equal(verdict.witness.v_factors, factors[0])
            assert annihilation_residual(fam, verdict.witness) < 1e-12

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
        # the trivial grades 0 and d are refused too, not certified
        fam = LinearFamily.from_matrices([np.eye(2), ROT90])
        for m in (0, 1, 2):
            with pytest.raises(ValueError, match="samples"):
                check_cm(fam, m, samples=-1)

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


@pytest.mark.parametrize("tol", [-1.0, math.nan, math.inf])
def test_tolerance_must_be_finite_and_nonnegative(tol):
    # a negative or nan tol made every margin look healthy: the triangular
    # pair passed C(1) and two equal maps passed the certificate
    upper = LinearFamily.from_matrices([[[0.81, 0.27], [0.0, 0.63]], UPPER_B])
    for run in (
        lambda: check_cm(upper, 1, tol=tol),
        lambda: check_cs(upper, 0.5, tol=tol),
        lambda: criterion_cscm(TestCriterion.F, TestCriterion.F, tol=tol),
    ):
        with pytest.raises(ValueError, match="tol"):
            run()


class TestCandidateScan:
    """check_cm scores the structured pool, then each sampled batch, once."""

    @staticmethod
    def count_calls(monkeypatch, name):
        calls = []
        real = getattr(fs_checker, name)

        def counted(*args):
            calls.append(args)
            return real(*args)

        monkeypatch.setattr(fs_checker, name, counted)
        return calls

    def test_pass_scores_each_batch_once(self, monkeypatch):
        calls = self.count_calls(monkeypatch, "_rank_margins")
        verdict = check_cm(LinearFamily.from_matrices([np.eye(2), ROT90]), 1, samples=3000)
        assert verdict.kind is VerdictKind.EMPIRICAL_PASS
        # the pool, then ceil(3000 / 1024) Gaussian batches
        assert len(calls) == 1 + 3

    def test_fail_builds_the_pool_once(self, monkeypatch):
        generic = generic_family()
        # tol at the worst margin of a clean run makes a sampled draw fail
        worst = check_cm(generic, 1, samples=3000).margin
        calls = self.count_calls(monkeypatch, "_candidate_factors")
        cases = [
            (LinearFamily.from_matrices([np.eye(2)]), fs_checker.DEFAULT_TOL, "cardinality"),
            (LinearFamily.from_matrices([UPPER_A, UPPER_B]), fs_checker.DEFAULT_TOL, "structured"),
            (generic, worst, "sampled"),
        ]
        for fam, tol, where in cases:
            before = len(calls)
            verdict = check_cm(fam, 1, samples=3000, tol=tol)
            assert verdict.kind is VerdictKind.FAIL and where in verdict.reason
            assert len(calls) == before + 1

    def test_one_eigen_decomposition_per_closure(self, tmp_path, monkeypatch, capsys):
        # the candidate pools of both grades read the family's cached eig
        doc = {"d": 3, "bounds": {"sigma_lo": 0.01, "sigma_hi": 1.0},
               "families": [{"label": "tp", "maps": [{"T": T} for T in TP_PAIR]}]}
        system = tmp_path / "system.json"
        system.write_text(json.dumps(doc), encoding="utf-8")
        shapes = []
        real = np.linalg.eig
        monkeypatch.setattr(np.linalg, "eig", lambda a: shapes.append(np.shape(a)) or real(a))
        assert cli(["check-fs", str(system), "--depth", "9"]) == 0
        assert capsys.readouterr().out.count("EmpiricalPass") == 2
        assert shapes.count((1022, 3, 3)) == 1

    def test_structured_fail_counts_the_pool(self):
        # 2 coordinate blades plus the 2 real eigenvectors of each map
        verdict = check_cm(LinearFamily.from_matrices([UPPER_A, UPPER_B]), 1, samples=5000)
        assert verdict.reason == "rank deficiency at a structured candidate"
        assert verdict.samples == 6

    def test_sampled_fail_and_pass_count_draws(self):
        fam = generic_family()
        pool = len(fs_checker._candidate_factors(fam, 1))
        clean = check_cm(fam, 1, samples=3000)
        assert clean.kind is VerdictKind.EMPIRICAL_PASS
        assert clean.samples == pool + 3000
        # with tol at the worst margin, exactly the draw attaining it fails
        hit = check_cm(fam, 1, samples=3000, tol=clean.margin)
        assert hit.reason == "rank deficiency at a sampled decomposable element"
        assert hit.margin == clean.margin
        drawn = hit.samples - pool
        assert 2048 < drawn <= 3000  # in the third batch
        # the count is the number of draws up to and including the failing one
        before = check_cm(fam, 1, samples=drawn - 1, tol=clean.margin)
        assert before.kind is VerdictKind.EMPIRICAL_PASS
        assert before.samples == pool + drawn - 1
        assert check_cm(fam, 1, samples=drawn, tol=clean.margin).samples == hit.samples


class TestWitnessTieBreak:
    """Margins and pairings within the floor of the least are equal up to
    rounding: the witness is the first of them in scan order, whatever their
    last bits."""

    @staticmethod
    def split_family():
        # 12 maps of R^5 that share the invariant plane P span(e1, e2): each
        # map's eigenvector wedge of that plane has a margin at rounding level,
        # and blades across the plane and its complement pair at rounding level
        rng = rng_for(773)
        P = np.linalg.qr(rng.standard_normal((5, 5)))[0]
        mats = []
        for _ in range(12):
            S = np.zeros((5, 5))
            for lo, hi in ((0, 2), (2, 5)):
                B = random_nonsingular(rng, hi - lo, cond_cap=20)
                S[lo:hi, lo:hi] = B @ np.diag(rng.uniform(0.5, 2.0, hi - lo)) @ np.linalg.inv(B)
            mats.append(P @ S @ P.T)
        return LinearFamily.from_matrices(mats)

    @staticmethod
    def witness_key(verdict):
        # w is a pool blade, or else the null direction of v's images
        wit = verdict.witness
        w = wit.w.coords if wit.w_factors is None else wit.w_factors
        return verdict.samples, wit.v_factors.tobytes(), w.tobytes()

    def test_ties_are_at_rounding_level(self):
        fam = self.split_family()
        CC = fs_checker._normalized_compounds(fam, 2)
        coords, factors = fs_checker._coords_of_factors(fs_checker._candidate_factors(fam, 2))
        margins = fs_checker._rank_margins(CC, coords)
        tied = np.flatnonzero(margins <= fs_checker._TIE_FLOOR)
        assert tied.size >= 12 and np.unique(margins[tied]).size > 1
        verdict = check_cm(fam, 2)
        assert verdict.kind is VerdictKind.FAIL
        # the first tied candidate in pool order, and an annihilating blade from the pool
        assert np.array_equal(verdict.witness.v_factors, factors[tied[0]])
        assert verdict.witness.w_factors is not None
        assert annihilation_residual(fam, verdict.witness) < 1e-12

    def test_last_bits_of_the_margins_do_not_choose(self, monkeypatch):
        fam = self.split_family()
        base = self.witness_key(check_cm(fam, 2))
        real = fs_checker._rank_margins
        for seed in range(8):
            rng = rng_for(seed)

            def moved(CC, vs):
                margins = real(CC, vs)
                low = margins < fs_checker._TIE_FLOOR
                margins[low] = rng.uniform(0.0, fs_checker._TIE_FLOOR, int(low.sum()))
                return margins

            monkeypatch.setattr(fs_checker, "_rank_margins", moved)
            assert self.witness_key(check_cm(fam, 2)) == base

    def test_duplicate_candidates_tie(self, monkeypatch):
        # A and A @ A share their eigenvectors, so a depth-2 closure's pool
        # holds each of A's candidates twice, with margins equal up to rounding
        rng = rng_for(8)
        fam = iterate_closure(LinearFamily.from_matrices([random_nonsingular(rng, 3) for _ in range(3)]), 2)
        CC = fs_checker._normalized_compounds(fam, 1)
        coords, factors = fs_checker._coords_of_factors(fs_checker._candidate_factors(fam, 1))
        margins = fs_checker._rank_margins(CC, coords)
        least = np.flatnonzero(margins <= np.min(margins) + fs_checker._TIE_FLOOR)
        # the later duplicate is the smaller in the last bits
        assert least.size == 2 and np.argmin(margins) == least[1]
        tol = float(np.min(margins)) * (1 + 1e-6)
        base = check_cm(fam, 1, tol=tol)
        assert base.reason == "rank deficiency at a structured candidate"
        assert np.array_equal(base.witness.v_factors, factors[least[0]])
        real = fs_checker._rank_margins
        for seed in range(8):
            rng = rng_for(seed)

            def moved(CC, vs):
                margins = real(CC, vs)
                return margins * (1 + np.finfo(float).eps * rng.integers(-4, 5, margins.shape))

            monkeypatch.setattr(fs_checker, "_rank_margins", moved)
            assert self.witness_key(check_cm(fam, 1, tol=tol)) == self.witness_key(base)

    def test_coordinate_layout_does_not_choose(self, monkeypatch):
        fam = self.split_family()
        base = check_cm(fam, 2)
        real = fs_checker._wedge_batch
        monkeypatch.setattr(fs_checker, "_wedge_batch", lambda f: np.ascontiguousarray(real(f)))
        moved = check_cm(fam, 2)
        assert self.witness_key(moved) == self.witness_key(base)
        np.testing.assert_allclose(moved.witness.v.coords, base.witness.v.coords, rtol=0, atol=1e-15)
        np.testing.assert_allclose(moved.witness.w.coords, base.witness.w.coords, rtol=0, atol=1e-15)


# ---------------------------------------------------------------------------
# rank margins from the reduced stack


def image_margins(CC, vs):
    """Reference margins from the k x n image matrices W_v = sum_j v_j CC[:, :, j]."""
    k, n = CC.shape[:2]
    if k < n:
        return np.zeros(vs.shape[0])
    sv = np.linalg.svd(np.einsum("kij,tj->tki", CC, vs), compute_uv=False)
    return sv[:, n - 1] / sv[:, 0]


def seeded_family(seed):
    """Gaussian, upper triangular or near-scalar maps, some closed to depth 2:
    a mix in which most verdicts fail, at structured and sampled candidates."""
    rng = rng_for(seed)
    d = int(rng.integers(2, 6))
    k = int(rng.integers(1, 2 * d + 2))
    kind = seed % 3
    if kind == 0:
        mats = [random_nonsingular(rng, d) for _ in range(k)]
    elif kind == 1:
        mats = np.triu(rng.standard_normal((k, d, d))) + 2 * np.eye(d)
    else:
        mats = 0.3 * np.eye(d) + 0.05 * rng.standard_normal((k, d, d))
    fam = LinearFamily.from_matrices(mats)
    return iterate_closure(fam, 2) if rng.random() < 0.5 else fam


class TestReducedMargins:
    """Margins come from the R factor of the stacked compounds, an (r, n, n)
    stack with r <= n^2, whatever the number of maps."""

    @pytest.mark.parametrize("d", [2, 3, 4, 5])
    def test_match_the_image_form(self, d):
        for m in range(1, d):
            n = math.comb(d, m)
            for k in sorted({n - 1, n, n * n - 1, n * n, 5 * n * n} - {0}):
                rng = rng_for((d, m, k))
                fam = LinearFamily.from_matrices([random_nonsingular(rng, d) for _ in range(k)])
                CC = fs_checker._normalized_compounds(fam, m)
                _, vs, _ = next(fs_checker._sampled_blades(d, m, 64, (d, m, k)))
                reduced = fs_checker._reduced_stack(CC)
                assert reduced.shape == (min(k, n * n), n, n)
                got = fs_checker._rank_margins(reduced, vs)
                if k < n:
                    assert np.all(got == 0.0)
                else:
                    np.testing.assert_allclose(got, image_margins(CC, vs), rtol=1e-12, atol=0)

    def test_no_svd_sees_more_than_n_squared_rows(self, tmp_path, monkeypatch, capsys):
        shapes = []
        real = np.linalg.svd

        def recording(a, *args, **kwargs):
            shapes.append(np.shape(a))
            return real(a, *args, **kwargs)

        # a totally positive pair passes at both grades; the triangular pair
        # fails, with a witness w from the pool
        for pair, m, kind in (
            (TP_PAIR, 1, VerdictKind.EMPIRICAL_PASS),
            (TP_PAIR, 2, VerdictKind.EMPIRICAL_PASS),
            ([UPPER_A, UPPER_B], 1, VerdictKind.FAIL),
        ):
            fam = iterate_closure(LinearFamily.from_matrices(pair), 9)
            assert len(fam) == 1022
            with monkeypatch.context() as patch:
                patch.setattr(np.linalg, "svd", recording)
                assert check_cm(fam, m).kind is kind
            n = math.comb(fam.d, m)
            assert shapes and max(shape[-2] for shape in shapes) <= n * n
            shapes.clear()
        # check-fs on a d = 3 closure reads every compound norm off the
        # compound itself: no SVD receives the closure's 1,022 maps, only the
        # two generators' singularity gate and the rank margins' rows
        doc = {"d": 3, "bounds": {"sigma_lo": 0.01, "sigma_hi": 1.0},
               "families": [{"label": "tp", "maps": [{"T": T} for T in TP_PAIR]}]}
        system = tmp_path / "system.json"
        system.write_text(json.dumps(doc), encoding="utf-8")
        for extra in ([], ["--s", "1.5"]):
            with monkeypatch.context() as patch:
                patch.setattr(np.linalg, "svd", recording)
                assert cli(["check-fs", str(system), "--depth", "9", *extra]) == 0
            assert capsys.readouterr().out.count("EmpiricalPass") == (2 if not extra else 1)
            assert (2, 3, 3) in shapes and (1022, 3, 3) not in shapes
            assert max(shape[-2] for shape in shapes) <= 9
            shapes.clear()

    def test_verdicts_match_the_image_form(self, monkeypatch):
        # the image form is check_cm with the reduction left out
        fails = 0
        for seed in range(300):
            fam = seeded_family(seed)
            m = int(rng_for(10_000 + seed).integers(1, fam.d))
            tol = (1e-9, 1e-3, 0.05)[seed % 3]
            got = check_cm(fam, m, samples=200, tol=tol, seed=seed)
            with monkeypatch.context() as patch:
                patch.setattr(fs_checker, "_reduced_stack", lambda CC: CC)
                ref = check_cm(fam, m, samples=200, tol=tol, seed=seed)
            assert (got.kind, got.samples, got.reason) == (ref.kind, ref.samples, ref.reason)
            assert math.isclose(got.margin, ref.margin, rel_tol=1e-10, abs_tol=1e-15)
            if got.kind is VerdictKind.FAIL:
                fails += 1
                for name in ("v", "w"):
                    assert getattr(got.witness, name).coords.tobytes() == getattr(ref.witness, name).coords.tobytes()
                for name in ("v_factors", "w_factors"):
                    a, b = getattr(got.witness, name), getattr(ref.witness, name)
                    assert (a is None and b is None) or a.tobytes() == b.tobytes()
        assert fails >= 150


def verdict_key(verdict):
    """Everything a verdict reports, bit for bit."""
    key = [verdict.kind, verdict.samples, verdict.reason, verdict.margin.hex()]
    wit = verdict.witness
    if wit is not None:
        for name in ("v", "w", "v_wedge", "w_wedge"):
            x = getattr(wit, name)
            key.append(None if x is None else x.coords.tobytes())
        for name in ("v_factors", "w_factors"):
            x = getattr(wit, name)
            key.append(None if x is None else x.tobytes())
        key.append(wit.w_decomposable)
    return key


class TestMarginScreen:
    """The Gram-eigenvalue screen sends only the blades that could be least or
    at most tol to the exact margins, and changes no verdict."""

    @staticmethod
    def screen_families():
        rng = rng_for(8)
        tp = LinearFamily.from_matrices(TP_PAIR)
        upper = LinearFamily.from_matrices([UPPER_A, UPPER_B])
        return (
            [seeded_family(seed) for seed in range(40)]
            + [tp] + [iterate_closure(tp, depth) for depth in range(2, 10)]
            + [upper, iterate_closure(upper, 6)]
            # the A / A @ A family of test_duplicate_candidates_tie
            + [iterate_closure(LinearFamily.from_matrices([random_nonsingular(rng, 3) for _ in range(3)]), 2)]
            + TestMarginScreen.meeting_families()
        )

    @staticmethod
    def meeting_families():
        """Three maps of R^3 with sigma_1 = 1 that take e1 to s_k q_k, q_k
        orthonormal, so the blade e1's Gram is Q diag(s^2) Q^T: for
        s = (1, 1, 1/2) its top two eigenvalues meet (the closed form's r = -1
        on G), and for s = (1, 1/2, 1/2) its bottom two (r = -1 on
        (tr G) I - G).  Its squared margin is 1/4, tol^2 at tol = 0.5."""
        q = np.linalg.qr(rng_for(9).standard_normal((3, 3)))[0]
        return [
            LinearFamily.from_matrices([q[:, np.roll(np.arange(3), -k)] @ np.diag([s[k], 1.0, 1.0])
                                        for k in range(3)])
            for s in ((1.0, 1.0, 0.5), (1.0, 0.5, 0.5))
        ]

    def test_verdicts_match_the_unscreened_path(self, monkeypatch):
        def unscreened(run):
            with monkeypatch.context() as patch:
                patch.setattr(fs_checker, "_screen", lambda reduced, vs, tol: np.arange(len(vs)))
                return run()

        compared = fails = 0
        for fam in self.screen_families():
            for m in range(1, fam.d):
                least = unscreened(lambda: check_cm(fam, m, samples=200, tol=0.0)).margin
                tols = [0.0, 1e-9, 0.5] + [least * f for f in (1 - 1e-6, 1 + 1e-6) if least > 0]
                for tol in tols:
                    run = lambda: check_cm(fam, m, samples=200, tol=tol)  # noqa: E731
                    got, ref = run(), unscreened(run)
                    assert verdict_key(got) == verdict_key(ref), (fam.d, len(fam), m, tol)
                    compared += 1
                    fails += got.kind is VerdictKind.FAIL
            run = lambda: check_cs(fam, fam.d - 0.5, samples=200)  # noqa: E731
            assert verdict_key(run()) == verdict_key(unscreened(run))
        assert compared >= 500 and fails >= 300

    def test_few_rows_reach_the_svd(self, monkeypatch):
        scanned, checked = [], []
        screen, exact = fs_checker._screen, fs_checker._rank_margins
        monkeypatch.setattr(fs_checker, "_screen",
                            lambda reduced, vs, tol: scanned.append(len(vs)) or screen(reduced, vs, tol))
        monkeypatch.setattr(fs_checker, "_rank_margins",
                            lambda CC, vs: checked.append(len(vs)) or exact(CC, vs))
        # three Gaussian maps closed to depth 6: 1,092 maps.  A pool repeats a
        # blade wherever words share an eigenvector (A, A @ A, ...), and every
        # copy tied with the least goes to the SVD: 12 rows in the pool of
        # TP_PAIR's depth-9 closure.  Here the least blade is not repeated
        rng = rng_for(0)
        fam = iterate_closure(LinearFamily.from_matrices([random_nonsingular(rng, 3) for _ in range(3)]), 6)
        for m in (1, 2):
            assert check_cm(fam, m, samples=3000).kind is VerdictKind.EMPIRICAL_PASS
        # the pool of the maps' eigenvector blades, then three sampled batches, per grade
        assert len(scanned) == len(checked) == 8 and min(scanned) > 900
        assert max(checked) <= 8

    @staticmethod
    def crafted_grams():
        """Positive semidefinite 3 x 3 Grams at the closed form's edges, by
        eigenvalues: scalar, top two equal, bottom two equal, rank one, zero,
        and three within a relative range of 1e-16; each exactly diagonal and
        rotated, at scales from 2^-20 to 2^20."""
        rng = rng_for(11)
        grams = []
        for _ in range(40):
            q = np.linalg.qr(rng.standard_normal((3, 3)))[0]
            a, b = np.sort(rng.uniform(0.1, 1.0, size=2))[::-1] * 2.0 ** int(rng.integers(-20, 21))
            for lam in ([a, a, a], [a, a, b], [a, b, b], [a, 0.0, 0.0], [0.0, 0.0, 0.0],
                        [a, a * (1 - 1e-16), a * (1 - 2e-16)]):
                grams += [np.diag(lam), q @ np.diag(lam) @ q.T]
        return np.array(grams)

    def test_closed_form_is_within_its_slack_or_falls_back(self):
        eps = np.finfo(float).eps
        grams = self.crafted_grams()
        lo, hi, slack = fs_checker._closed_form_extremes(grams[:, GRAM_I, GRAM_J].T)
        lam = np.linalg.eigvalsh(grams)
        zero = ~grams.any(axis=(1, 2))
        assert np.all(hi[zero] == 0)  # screened as odd, so kept
        # an infinite slack sends the blade to eigvalsh wherever it could matter;
        # every other value lies within its slack plus eigvalsh's own 10 n eps
        # on each of the two eigenvalues
        bounded = ~zero & np.isfinite(slack)
        err = (np.abs(lo - lam[:, 0]) + np.abs(hi - lam[:, -1]))[bounded] / lam[bounded, -1]
        assert np.all(err <= slack[bounded] + 60 * eps)
        # where a pair meets (top two, bottom two, or both of rank one) the
        # slack is millions of eps wide, so such a blade is screened again by
        # eigvalsh wherever it could be the least or tol; its error, up to 3e7
        # eps, is then within the slack
        meeting = np.isin(np.arange(len(grams)) % 12 // 2, [1, 2, 3])
        assert np.all(slack[meeting] > 1e6 * eps)
        assert np.all(slack >= 246 * eps)

    @staticmethod
    def form_stacks():
        """(r, 3, 3) stacks for the quadratic-form screen: a generic family's
        reduced stack, the depth-9 TP_PAIR closure's at grade 2, an
        ill-conditioned one (columns j scaled by 1, 1e-8, 1e-16, rows nearly
        equal) and the generic one scaled by 3 * 2^-500 and by 1e100."""
        rng = rng_for(13)
        generic = fs_checker._reduced_stack(fs_checker._normalized_compounds(generic_family(), 1))
        tp = iterate_closure(LinearFamily.from_matrices(TP_PAIR), 9)
        closure = fs_checker._reduced_stack(fs_checker._normalized_compounds(tp, 2))
        ill = (rng.standard_normal((1, 3, 3)) + 1e-12 * rng.standard_normal((7, 3, 3))) * [1.0, 1e-8, 1e-16]
        return [generic, closure, ill, generic * (3 * 2.0**-500), generic * 1e100]

    def test_quadratic_grams_are_within_their_bound(self):
        # the (6, N) Gram entries of the quadratic form against exact rational
        # ones, entry by entry: |g_e - G_e| <= gamma_{r+8} (A_v^T A_v)_e, with
        # A_v the images of |v| under |R|; the screen's bound covers the trace
        half = Fraction(1, 2**53)
        for R in self.form_stacks():
            r = R.shape[0]
            gamma = (r + 8) * half / (1 - (r + 8) * half)
            vs = rng_for(r).standard_normal((40, 3))
            vs /= np.linalg.norm(vs, axis=1)[:, None]
            g, bound = fs_checker._quadratic_grams(R, vs)
            exact_R = [[[Fraction(x) for x in row] for row in Ra] for Ra in R]
            for t, v in enumerate(vs):
                v = [Fraction(x) for x in v]
                W = [[sum(Ra[i][j] * v[j] for j in range(3)) for i in range(3)] for Ra in exact_R]
                A = [[sum(abs(Ra[i][j] * v[j]) for j in range(3)) for i in range(3)] for Ra in exact_R]
                for e, (i, i2) in enumerate(zip(GRAM_I, GRAM_J)):
                    G = sum(Wa[i] * Wa[i2] for Wa in W)
                    weight = sum(Aa[i] * Aa[i2] for Aa in A)
                    assert abs(Fraction(g[e, t]) - G) <= gamma * weight
                assert Fraction(bound[t]) >= gamma * sum(Aa[i] ** 2 for Aa in A for i in range(3))

    def test_near_ties_and_tol_stay_kept(self):
        # copies of the least blade and of a middle one, each moved by a few
        # ulps, with tol at the middle one's margin: every blade within the
        # tie floor of the least, and every copy at tol^2, is kept
        eps = np.finfo(float).eps
        rng = rng_for(14)
        for R in self.form_stacks():
            vs = rng.standard_normal((300, 3))
            vs /= np.linalg.norm(vs, axis=1)[:, None]
            margins = fs_checker._rank_margins(R, vs)
            least, middle = np.argmin(margins), np.argsort(margins)[150]
            moved = lambda v: v * (1 + eps * rng.integers(-4, 5, size=(20, 3)))  # noqa: E731
            batch = np.vstack([vs, moved(vs[least]), moved(vs[middle])])
            exact = fs_checker._rank_margins(R, batch)
            kept = set(fs_checker._screen(R, batch, float(margins[middle])).tolist())
            assert set(range(300, 340)) <= kept
            assert set(np.flatnonzero(exact <= np.min(exact) + fs_checker._TIE_FLOOR).tolist()) <= kept
            if np.min(exact) > 1e-6:  # margins at rounding level all tie with the least
                assert len(kept) < 100

    def test_meeting_eigenvalues_reach_the_fallback(self, monkeypatch):
        eps = np.finfo(float).eps
        real = np.linalg.eigvalsh
        for fam in self.meeting_families():
            reduced = fs_checker._reduced_stack(fs_checker._normalized_compounds(fam, 1))
            r, n = reduced.shape[:2]
            W = (np.eye(3) @ reduced.reshape(r * n, n).T).reshape(-1, r, n)
            slack = fs_checker._closed_form_extremes((W.transpose(0, 2, 1) @ W)[:, GRAM_I, GRAM_J].T)[2]
            assert slack[0] > 1e6 * eps
            again = []
            monkeypatch.setattr(np.linalg, "eigvalsh", lambda G: again.append(len(G)) or real(G))
            # e1's squared margin is tol^2 = 1/4: kept, screened again, and kept
            assert fs_checker._screen(reduced, np.eye(3), 0.5).tolist() == [0]
            assert again and again[0] >= 1
            monkeypatch.setattr(np.linalg, "eigvalsh", real)

    def test_odd_screens_are_rechecked(self, monkeypatch):
        rng = rng_for(5)
        reduced = fs_checker._reduced_stack(fs_checker._normalized_compounds(generic_family(), 1))
        vs = rng.standard_normal((8, 3))
        vs /= np.linalg.norm(vs, axis=1)[:, None]
        dropped = sorted(set(range(8)) - set(fs_checker._screen(reduced, vs, 0.0).tolist()))
        assert len(dropped) >= 5
        # a stack with a zero column gives the blade e3 no image: lambda_max = 0
        # and the screened value 0 / 0; a NaN column gives a NaN Gram
        for fill in (0.0, math.nan):
            crafted = reduced.copy()
            crafted[:, :, 2] = fill
            assert 8 in fs_checker._screen(crafted, np.vstack([vs, np.eye(3)[2]]), 0.0)
        # dropped blades are kept once their screened value is NaN or
        # infinite, or their lambda_max is not positive; the (lambda_min,
        # lambda_2, lambda_max) below reach the screen through the closed form,
        # which returns lambda_max of G and tr G - lambda_min of (tr G) I - G
        odd = np.array([[math.nan, 1.0, 2.0], [1.0, 1.0, math.inf], [-math.inf, 1.0, 1.0],
                        [-2.0, -1.0, -1.0], [0.0, 0.0, 0.0]])
        real = fs_checker._top_eigenvalue

        def crafted_top_eigenvalue(g, top, gap, work):
            real(g, top, gap, work)
            trace = g[0, 0] + g[1, 0] + g[2, 0]
            top[0, dropped[:5]] = odd[:, -1]
            top[1, dropped[:5]] = trace[dropped[:5]] - odd[:, 0]

        monkeypatch.setattr(fs_checker, "_top_eigenvalue", crafted_top_eigenvalue)
        assert set(dropped[:5]) <= set(fs_checker._screen(reduced, vs, 0.0).tolist())
        # with every value odd there is no least to compare with: all are kept
        monkeypatch.setattr(fs_checker, "_top_eigenvalue",
                            lambda g, top, gap, work: real(g, top, gap, work) or top.fill(math.nan))
        assert fs_checker._screen(reduced, vs, 0.0).tolist() == list(range(8))

    def test_odd_screens_are_rechecked_beyond_three_blades(self, monkeypatch):
        # n = C(4, 1) = 4 Grams keep eigvalsh; its odd values are kept as well
        rng = rng_for(6)
        fam = LinearFamily.from_matrices([random_nonsingular(rng, 4) for _ in range(5)])
        reduced = fs_checker._reduced_stack(fs_checker._normalized_compounds(fam, 1))
        vs = rng.standard_normal((10, 4))
        vs /= np.linalg.norm(vs, axis=1)[:, None]
        dropped = sorted(set(range(10)) - set(fs_checker._screen(reduced, vs, 0.0).tolist()))
        assert len(dropped) >= 5
        odd = [[math.nan, 1.0, 1.0, 2.0], [1.0, 1.0, 1.0, math.inf], [-math.inf, 1.0, 1.0, 1.0],
               [-2.0, -1.0, -1.0, -1.0], [0.0, 0.0, 0.0, 0.0]]
        real = np.linalg.eigvalsh

        def crafted_eigvalsh(G):
            lam = real(G)
            lam[dropped[:5]] = odd
            return lam

        monkeypatch.setattr(np.linalg, "eigvalsh", crafted_eigvalsh)
        assert set(dropped[:5]) <= set(fs_checker._screen(reduced, vs, 0.0).tolist())
        monkeypatch.setattr(np.linalg, "eigvalsh", lambda G: np.full(G.shape[:2], math.nan))
        assert fs_checker._screen(reduced, vs, 0.0).tolist() == list(range(10))

    def test_margin_bits_do_not_depend_on_blas_threads(self):
        # the screen's products go through BLAS; the margins it lets through
        # must not change in the last bit
        root = Path(__file__).resolve().parents[1]
        code = (
            "import json, sys\n"
            "from affdim import LinearFamily, check_cm, check_cs, iterate_closure\n"
            "fam = iterate_closure(LinearFamily.from_matrices(json.loads(sys.argv[1])), 9)\n"
            "print([check_cm(fam, m).margin.hex() for m in (1, 2)], check_cs(fam, 1.5).margin.hex())\n"
        )
        outputs = []
        for threads in ("1", "2"):
            env = dict(os.environ, OPENBLAS_NUM_THREADS=threads, OMP_NUM_THREADS=threads)
            env["PYTHONPATH"] = os.pathsep.join(
                [str(root / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
            )
            proc = subprocess.run([sys.executable, "-c", code, json.dumps(TP_PAIR)],
                                  capture_output=True, env=env, timeout=120, cwd=root)
            assert proc.returncode == 0, proc.stderr
            outputs.append(proc.stdout)
        assert outputs[0] == outputs[1] and outputs[0].count(b"0x") == 3


class TestWitnessPairingSlices:
    """A Fail witness pairs the images with the pool slice by slice, so its
    memory is bounded; the slicing does not choose the witness."""

    @staticmethod
    def witnesses(fam, m, entries, monkeypatch, **kwargs):
        keys = []
        for budget in (1 << 40, entries):  # one slice, then slices of a few blades
            with monkeypatch.context() as patch:
                patch.setattr(fs_checker, "_PAIRING_ENTRIES", budget)
                verdict = check_cm(fam, m, **kwargs)
            assert verdict.kind is VerdictKind.FAIL
            keys.append(TestWitnessTieBreak.witness_key(verdict))
        return keys

    def test_seeded_families(self, monkeypatch):
        fails = 0
        for seed in range(120):
            fam = seeded_family(seed)
            m = int(rng_for(10_000 + seed).integers(1, fam.d))
            if check_cm(fam, m, samples=200, seed=seed).kind is not VerdictKind.FAIL:
                continue
            fails += 1
            one, sliced = self.witnesses(fam, m, len(fam), monkeypatch, samples=200, seed=seed)
            assert one == sliced
        assert fails >= 50

    def test_deep_closure_and_rounding_ties(self, monkeypatch):
        deep = iterate_closure(LinearFamily.from_matrices([UPPER_A, UPPER_B]), 9)
        one, sliced = self.witnesses(deep, 1, 3 * len(deep), monkeypatch)
        assert one == sliced
        split = TestWitnessTieBreak.split_family()
        one, sliced = self.witnesses(split, 2, 2 * len(split), monkeypatch)
        assert one == sliced

    def test_duplicate_blades_are_paired_once(self, monkeypatch, capsys):
        # every corner map is a multiple of I, so the 59,048 pool blades of its
        # depth-9 closure hold 2 distinct ones; the witness is the one found
        # when every row was paired
        widths = []
        first_least = fs_checker._first_least
        monkeypatch.setattr(fs_checker, "_first_least",
                            lambda values: widths.append(len(values)) or first_least(values))
        assert cli(["check-fs", str(EXAMPLES / "corner_system.json"), "--depth", "9"]) == 1
        assert capsys.readouterr().out == (
            "C(1): Fail (grade m=1, samples=59048, margin=0.000e+00): "
            "rank deficiency at a structured candidate\n"
            "  witness v = [1.0, 0.0]\n"
            "  witness w = [0.0, 1.0]\n"
        )
        assert widths[-1] == 2

    def test_duplicate_before_the_witness_maps_back_to_its_pool_row(self):
        # distinct rows e1, e2 sit at pool rows 0 and 2: the e2 blade pairs to
        # zero with the image e1, and is reported as pool row 2
        CC = np.array([[[1.0, 0.0], [0.0, 0.0]]])
        pool = np.array([[1.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
        factors = pool[:, :, None] * np.array([1.0, 2.0, 3.0])[:, None, None]
        witness = fs_checker._annihilating_witness(
            CC, 2, 1, np.array([1.0, 0.0]), None, pool, factors, fs_checker.DEFAULT_TOL)
        assert witness.w_decomposable
        assert witness.w.coords.tolist() == [0.0, 1.0]
        assert witness.w_factors.tolist() == [[0.0], [3.0]]


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

    def test_quadruple_stage_fail(self):
        # both prefilters pass at tol 0.1, but a sampled quadruple finds no
        # single map pairing both grades
        rng = rng_for(14)
        mats = [0.3 * np.eye(3) + 0.15 * rng.standard_normal((3, 3)) for _ in range(6)]
        fam = LinearFamily.from_matrices(mats)
        tol = 0.1
        verdict = check_cs(fam, 1.5, samples=1000, tol=tol)
        assert verdict.kind is VerdictKind.FAIL
        assert verdict.reason == "no single map pairs both grades for a sampled quadruple"
        assert verdict.margin <= tol
        wit = verdict.witness
        m = verdict.m
        assert wit.v.m == m and wit.v_wedge.m == m + 1 and wit.w_wedge.m == m + 1
        np.testing.assert_array_equal(wit.v.coords, wedge(list(wit.v_factors.T)).coords)
        np.testing.assert_array_equal(wit.w.coords, wedge(list(wit.w_factors.T)).coords)

        def pairing(S, x, y):
            C = compound_matrix(S, x.m).entries
            return abs(float(y.coords @ C @ x.coords)) / (
                np.linalg.norm(C, 2) * np.linalg.norm(x.coords) * np.linalg.norm(y.coords)
            )

        joint = max(
            min(pairing(S, wit.v, wit.w), pairing(S, wit.v_wedge, wit.w_wedge)) for S in fam.maps
        )
        assert math.isclose(joint, verdict.margin, rel_tol=1e-9)

    def test_witness_is_the_first_tied_quadruple(self, monkeypatch):
        # joints within the floor of the least are equal up to rounding, as
        # check_cm's margins are: the witness is the first, not the argmin
        tied = {5: 3e-16, 9: 1e-16, 20: 2e-16}

        def stub(CC, vs, ws):
            out = np.ones((vs.shape[0], CC.shape[0]))
            for t, value in tied.items():
                out[t] = value
            return out

        monkeypatch.setattr(fs_checker, "_pairings", stub)
        fam = LinearFamily.from_matrices([np.eye(2), ROT90])
        verdict = check_cs(fam, 0.5, samples=50, seed=3)
        assert verdict.kind is VerdictKind.FAIL
        assert verdict.margin == tied[5]
        X = fs_checker._rng_for(3, 0).standard_normal((50, 2, 1))
        np.testing.assert_array_equal(verdict.witness.v_wedge.coords, X[5, :, 0])

    @pytest.mark.parametrize(
        "mats, s",
        [
            ([UPPER_A, UPPER_B], 1.5),
            ([np.diag([0.5, 0.4, 0.3])], 2.5),
            ([random_nonsingular(rng_for(4), 4) for _ in range(2)], 2.5),
            ([random_nonsingular(rng_for(8), 8) for _ in range(2)], 4.5),
        ],
        ids=["triangular-pair-d2", "diagonal-map-d3", "gaussian-pair-d4", "gaussian-pair-d8"],
    )
    def test_grade_m_fail_lifts_by_the_widest_basis_extension(self, mats, s):
        # the grade-m prefilter's witness (v, w) becomes (v, v ^ e_j, w, w ^ e_j)
        # with e_j the first basis vector of largest extension norm
        fam = LinearFamily.from_matrices(mats)
        verdict = check_cs(fam, s, samples=200)
        m = verdict.m
        assert verdict.kind is VerdictKind.FAIL
        assert verdict.reason.startswith(f"necessary condition C({m}) fails")
        wit = verdict.witness
        for x, x_wedge in ((wit.v, wit.v_wedge), (wit.w, wit.w_wedge)):
            assert x.m == m and x_wedge.m == m + 1
            np.testing.assert_array_equal(x_wedge.coords, extension_oracle(x))
        if fam.d >= 4:  # the null direction of two maps' images: no factors
            assert wit.w_factors is None and not wit.w_decomposable
        else:
            assert wit.w_factors is not None

    def test_lift_takes_one_minor_per_blade_and_basis_vector(self, monkeypatch):
        # each e_I ^ e_j is +-1 at one blade, so the lift needs one sign minor
        # per pair (I, j), not every grade-(m + 1) minor of every pair
        d, m = 10, 5
        minors = []
        real = fs_checker._wedge_batch

        def counted(factors):
            N, rows, cols = factors.shape
            minors.append(N * math.comb(rows, cols))
            return real(factors)

        monkeypatch.setattr(fs_checker, "_wedge_batch", counted)
        rng = rng_for(10)
        v, w = (wedge(list(rng.standard_normal((m, d)))) for _ in range(2))
        wit = fs_checker._extend_to_quadruple(d, m, fs_checker.FailWitness(m=m, v=v, w=w))
        assert sum(minors) <= d * math.comb(d, m)
        for x, x_wedge in ((wit.v, wit.v_wedge), (wit.w, wit.w_wedge)):
            np.testing.assert_array_equal(x_wedge.coords, extension_oracle(x))

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

    @staticmethod
    def pairwise_margins(lam, d):
        """The least relative gap over every pair of k-fold products, one pair
        at a time (in Python floats, which round as float64 does)."""
        out = []
        for k in range(1, d + 1):
            prods = [float(np.prod(lam[list(c)])) for c in itertools.combinations(range(d), k)]
            gap = math.inf
            for a, b in itertools.combinations(prods, 2):
                gap = min(gap, abs(a - b) / max(abs(a), abs(b), 1e-300))
            out.append(gap)
        return tuple(out)

    @pytest.mark.parametrize("d", range(1, 13))
    def test_product_margins_match_every_pair(self, d):
        # neighbours of the sorted products give every pair's least gap, bit
        # for bit: mixed signs, a repeated value, and near-ties included
        rng = rng_for(500 + d)
        spectra = [rng.uniform(-1.0, 1.0, d) for _ in range(6 if d <= 10 else 1)]
        if d <= 10:  # the reference takes about a second per spectrum at d = 12
            spectra.append(np.sign(rng.standard_normal(d)) * rng.uniform(0.5, 0.5 + 1e-9, d))
        if d >= 2:
            spectra.append(np.concatenate([[0.5, 0.5], rng.uniform(-1.0, 1.0, d - 2)]))
        for lam in spectra:
            lam = lam[np.argsort(-lam)]
            assert fs_checker._product_margins(lam, d) == self.pairwise_margins(lam, d)

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

    def test_ratios_below_the_smallest_double_are_taken_in_log_form(self):
        # for s >= d phi_s is |det|^(s/d), so every ratio is sum_j |det S_j|^(s/d):
        # about 7e-210 at s = 400, and 1e-523 at s = 1000, below every double
        maps = [0.3 * np.eye(2), np.array([[0.2, 0.1], [0.0, 0.4]])]
        fam = LinearFamily.from_matrices(maps)
        est = estimate_fullness(fam, 400.0, sample_count=50)
        want = sum(abs(np.linalg.det(m)) ** 200 for m in maps)
        assert est.c_hat == pytest.approx(want, rel=1e-10, abs=0)
        with pytest.raises(ValueError, match=r"s = 1000\.0"):
            estimate_fullness(fam, 1000.0, sample_count=50)

    def test_ratio_from_d_on_is_the_closed_form_at_any_sample_count(self):
        # every fourth pair is conditioned up to 1e12, which costs the SVD of
        # U S_j V about eps * 1e12 of relative accuracy in sigma_min, raised to
        # the power s / d = 200; from s = d on the ratio is taken from the maps'
        # own log|det|, so every pair gives sum_j |det S_j|^(s/d)
        maps = [0.3 * np.eye(2), np.array([[0.2, 0.1], [0.0, 0.4]])]
        fam = LinearFamily.from_matrices(maps)
        want = sum(abs(np.linalg.det(m)) ** 200 for m in maps)
        est = estimate_fullness(fam, 400.0, sample_count=1000)
        assert est.c_hat == pytest.approx(want, rel=1e-13, abs=0)
        assert est.samples == 1000
        assert estimate_fullness(fam, 2.0, sample_count=20).c_hat == pytest.approx(0.17, rel=1e-14)

    def test_sample_count_must_be_positive(self):
        fam = LinearFamily.from_matrices([np.eye(2)])
        with pytest.raises(ValueError, match="positive"):
            estimate_fullness(fam, 1.0, sample_count=0)
