"""Blade bookkeeping against brute-force oracles.

Every identity here is checked against an independent computation built from
``itertools`` and raw determinants, so a sign or indexing slip in the package
cannot cancel itself out.
"""

import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from affdim.exterior_algebra import (
    MAX_DIM,
    ExteriorVector,
    _rows_array,
    _wedge_batch,
    compound_matrix,
    wedge,
)
from conftest import random_nonsingular, rng_for

# ---------------------------------------------------------------------------
# oracles


def lex_indices(d: int, m: int) -> list[tuple[int, ...]]:
    return list(itertools.combinations(range(1, d + 1), m))


def minor_oracle(S, rows, cols) -> float:
    S = np.asarray(S, dtype=float)
    idx_r = [r - 1 for r in rows]
    idx_c = [c - 1 for c in cols]
    sub = S[np.ix_(idx_r, idx_c)]
    return float(np.linalg.det(sub)) if len(rows) else 1.0


def wedge_oracle(vectors) -> np.ndarray:
    """Plucker coordinates as raw minors of the stacked column matrix."""
    M = np.column_stack([np.asarray(v, dtype=float) for v in vectors])
    d, m = M.shape
    return np.array([minor_oracle(M, rows, range(1, m + 1)) for rows in lex_indices(d, m)])


# ---------------------------------------------------------------------------
# multi-indices and vectors


def test_multi_indices_are_lexicographic():
    assert lex_indices(4, 2) == [tuple(r) for r in (_rows_array(4, 2) + 1).tolist()]
    assert _rows_array(5, 3).shape == (math.comb(5, 3), 3)
    assert _rows_array(3, 0).shape == (1, 0)


def test_exterior_vector_validation():
    ExteriorVector(4, 2, np.zeros(6))
    with pytest.raises(ValueError):
        ExteriorVector(4, 2, np.zeros(5))
    with pytest.raises(ValueError):
        ExteriorVector(4, 5, np.zeros(1))
    v = ExteriorVector(3, 0, [2.5])
    assert v.coords.shape == (1,)


def test_dimension_guard():
    with pytest.raises(ValueError):
        _rows_array(MAX_DIM + 1, 2)


# ---------------------------------------------------------------------------
# wedge


def test_wedge_basis_blade():
    v = wedge([np.array([1.0, 0.0, 0.0]), np.array([0.0, 1.0, 0.0])])
    assert np.array_equal(v.coords, [1.0, 0.0, 0.0])


def test_wedge_repeated_vector_is_zero():
    x = np.array([1.0, -2.0, 0.5])
    v = wedge([x, x])
    assert np.allclose(v.coords, 0.0)


def test_plucker_coordinates_match_minor_oracle():
    v1 = np.array([1.0, 2.0, 0.0, 1.0])
    v2 = np.array([0.0, 1.0, 1.0, 3.0])
    hand = [1.0, 1.0, 3.0, 2.0, 5.0, -1.0]  # 2x2 minors worked out by hand
    assert np.allclose(wedge_oracle([v1, v2]), hand, atol=1e-12)
    got = wedge([v1, v2])
    assert np.allclose(got.coords, hand, atol=1e-12)


@given(st.integers(0, 10**6), st.integers(2, 5), st.integers(1))
def test_wedge_matches_minor_oracle(seed, d, _):
    rng = rng_for(seed)
    m = int(rng.integers(1, d + 1))
    vectors = [rng.standard_normal(d) for _ in range(m)]
    got = wedge(vectors).coords
    want = wedge_oracle(vectors)
    assert np.allclose(got, want, atol=1e-10 * max(1.0, np.abs(want).max()))


def test_wedge_errors():
    with pytest.raises(ValueError):
        wedge([])
    with pytest.raises(ValueError):
        wedge([np.zeros(3), np.zeros(2)])
    with pytest.raises(ValueError):
        wedge([np.zeros(2)] * 3)


# ---------------------------------------------------------------------------
# inner product


def coordinate_blade(d: int, J) -> ExteriorVector:
    """e_{j1} ^ ... ^ e_{jm} for the ascending 1-based labels ``J``."""
    return wedge([np.eye(d)[j - 1] for j in J])


def test_inner_orthonormal_blades_exactly():
    for d in (2, 3, 4):
        for m in range(1, d + 1):
            blades = lex_indices(d, m)
            for J in blades:
                for K in blades:
                    val = coordinate_blade(d, J).coords @ coordinate_blade(d, K).coords
                    assert val == (1.0 if J == K else 0.0)


# ---------------------------------------------------------------------------
# compound matrices


def test_compound_identity_and_scalars():
    for d in (2, 3, 4):
        for m in range(d + 1):
            C = compound_matrix(np.eye(d), m)
            assert np.array_equal(C.entries, np.eye(math.comb(d, m)))
    S = rng_for(5).standard_normal((3, 3))
    assert np.allclose(compound_matrix(S, 3).entries, [[np.linalg.det(S)]], rtol=1e-12)
    assert np.array_equal(compound_matrix(S, 0).entries, [[1.0]])


def test_wedge_batch_chunks_match_single_wedges():
    # d = 12, m = 6: each factor stack needs 924 * 36 scratch entries, so a
    # batch of 200 splits into two chunks under the 2**22 bound
    factors = rng_for(12).standard_normal((200, 12, 6))
    got = _wedge_batch(factors)
    assert got.shape == (200, math.comb(12, 6))
    for t in (0, 125, 126, 199):
        assert np.array_equal(got[t], _wedge_batch(factors[t : t + 1])[0])


def test_compound_of_diagonal():
    C = compound_matrix(np.diag([2.0, 3.0, 5.0]), 2)
    assert np.allclose(C.entries, np.diag([6.0, 10.0, 15.0]), atol=1e-14)


@given(st.integers(0, 10**6), st.integers(2, 5))
def test_compound_entries_match_minor_oracle(seed, d):
    rng = rng_for(seed)
    S = rng.standard_normal((d, d))
    for m in range(d + 1):
        C = compound_matrix(S, m).entries
        blades = lex_indices(d, m)
        want = np.array([[minor_oracle(S, J, I) for I in blades] for J in blades])
        assert np.allclose(C, want, atol=1e-10 * max(1.0, np.abs(want).max())), (d, m)


@given(st.integers(0, 10**6), st.integers(2, 5))
def test_cauchy_binet_functoriality(seed, d):
    rng = rng_for(seed)
    A = rng.standard_normal((d, d))
    B = rng.standard_normal((d, d))
    for m in range(d + 1):
        left = compound_matrix(A @ B, m).entries
        right = compound_matrix(A, m).entries @ compound_matrix(B, m).entries
        scale = max(1.0, float(np.abs(right).max()))
        assert np.abs(left - right).max() <= 1e-9 * scale


@given(st.integers(0, 10**6), st.integers(2, 5))
def test_compound_adjoint(seed, d):
    rng = rng_for(seed)
    A = rng.standard_normal((d, d))
    m = int(rng.integers(1, d + 1))
    n = math.comb(d, m)
    v = ExteriorVector(d, m, rng.standard_normal(n))
    w = ExteriorVector(d, m, rng.standard_normal(n))
    lhs = float((compound_matrix(A, m).entries @ v.coords) @ w.coords)
    rhs = float(v.coords @ (compound_matrix(A.T, m).entries @ w.coords))
    assert abs(lhs - rhs) <= 1e-12 * max(1.0, abs(lhs), abs(rhs))


def test_compound_out_of_range():
    with pytest.raises(ValueError):
        compound_matrix(np.eye(3), 4)
    with pytest.raises(ValueError):
        compound_matrix(np.eye(3), -1)
    with pytest.raises(ValueError):
        compound_matrix(np.ones((2, 3)), 1)


# ---------------------------------------------------------------------------
# induced action: a map acts on grade m through its m-th compound


def test_apply_map_identity_and_determinant():
    v = ExteriorVector(2, 1, [1.0, -2.0])
    assert np.array_equal(compound_matrix(np.eye(2), 1).entries @ v.coords, v.coords)
    top = coordinate_blade(2, (1, 2))
    got = compound_matrix(np.diag([2.0, 3.0]), 2).entries @ top.coords
    assert np.allclose(got, [6.0], atol=1e-14)


@given(st.integers(0, 10**6), st.integers(2, 5))
@settings(max_examples=60)
def test_apply_map_commutes_with_wedge(seed, d):
    rng = rng_for(seed)
    S = random_nonsingular(rng, d)
    m = int(rng.integers(1, d + 1))
    vectors = [rng.standard_normal(d) for _ in range(m)]
    lhs = compound_matrix(S, m).entries @ wedge(vectors).coords
    rhs = wedge([S @ x for x in vectors]).coords
    assert np.allclose(lhs, rhs, atol=1e-9 * max(1.0, np.abs(rhs).max()))
