"""Singular spectra and the interpolated singular value function.

The spectrum oracle below solves the characteristic polynomial of T^T T with
``np.roots`` from hand-assembled coefficients, so it shares no code path with
the LAPACK-based implementation.
"""

import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from affdim.singular_values import phi, phi_from_singular_values, singular_values
from conftest import random_contraction, random_nonsingular, rng_for

# ---------------------------------------------------------------------------
# oracle


def spectrum_oracle(T: np.ndarray) -> np.ndarray:
    """Singular values of a d <= 3 matrix via the characteristic polynomial."""
    M = T.T @ T
    d = M.shape[0]
    if d == 1:
        coeffs = [1.0, -M[0, 0]]
    elif d == 2:
        coeffs = [1.0, -np.trace(M), np.linalg.det(M)]
    elif d == 3:
        principal_2 = (
            M[0, 0] * M[1, 1] - M[0, 1] * M[1, 0]
            + M[0, 0] * M[2, 2] - M[0, 2] * M[2, 0]
            + M[1, 1] * M[2, 2] - M[1, 2] * M[2, 1]
        )
        coeffs = [1.0, -np.trace(M), principal_2, -np.linalg.det(M)]
    else:
        raise ValueError("oracle only covers d <= 3")
    roots = np.roots(coeffs)
    return np.sqrt(np.sort(np.abs(roots))[::-1])


# ---------------------------------------------------------------------------
# singular_values


def test_diagonal_spectrum():
    sigma = singular_values(np.diag([0.5, 0.25]))
    assert np.array_equal(sigma, [0.5, 0.25])
    with pytest.raises(ValueError):
        sigma[0] = 1.0  # read-only


def test_rotation_spectrum():
    theta = 0.7
    R = np.array([[math.cos(theta), -math.sin(theta)], [math.sin(theta), math.cos(theta)]])
    assert np.allclose(singular_values(R), [1.0, 1.0], atol=1e-14)


def test_singular_matrix_rejected():
    with pytest.raises(ValueError):
        singular_values(np.array([[1.0, 2.0], [2.0, 4.0]]))
    with pytest.raises(ValueError):
        singular_values(np.zeros((3, 3)))


def test_nonsquare_rejected():
    with pytest.raises(ValueError):
        singular_values(np.ones((2, 3)))


@given(st.integers(0, 10**6), st.integers(1, 3))
def test_spectrum_matches_charpoly_oracle(seed, d):
    rng = rng_for(seed)
    T = random_nonsingular(rng, d, cond_cap=1e4)
    got = singular_values(T)
    want = spectrum_oracle(T)
    assert np.allclose(got, want, rtol=1e-8, atol=1e-10 * want[0])


@given(st.integers(0, 10**6), st.integers(1, 6))
def test_sigma_product_equals_abs_det(seed, d):
    rng = rng_for(seed)
    T = random_nonsingular(rng, d, cond_cap=1e5)
    det = abs(float(np.linalg.det(T)))
    assert math.isclose(float(np.prod(singular_values(T))), det, rel_tol=1e-10)


# ---------------------------------------------------------------------------
# phi


def test_phi_fixed_values():
    assert phi(np.eye(2), 1.5) == 1.0
    T = np.diag([0.5, 0.25])
    assert math.isclose(phi(T, 1.5), 0.5 * 0.25**0.5, rel_tol=1e-15)
    # above s = d: determinant-power continuation |det|^(s/d), the unique
    # choice that stays submultiplicative past the top grade
    assert math.isclose(phi(T, 3.0), 0.125**1.5, rel_tol=1e-14)
    assert math.isclose(phi(T, 2.0), 0.125, rel_tol=1e-15)
    assert phi(T, 0.0) == 1.0


def test_phi_rejects_negative_s():
    with pytest.raises(ValueError):
        phi(np.eye(2), -0.1)


def test_phi_piecewise_slopes():
    sigma = np.array([0.9, 0.5, 0.2])

    def log_slope(a, b):
        return (
            math.log(phi_from_singular_values(sigma, b))
            - math.log(phi_from_singular_values(sigma, a))
        ) / (b - a)

    for m in (1, 2, 3):
        assert math.isclose(log_slope(m - 0.75, m - 0.25), math.log(sigma[m - 1]), rel_tol=1e-9)
    # past the top grade the slope is the mean log singular value
    assert math.isclose(log_slope(3.25, 3.75), float(np.mean(np.log(sigma))), rel_tol=1e-9)


@given(st.integers(0, 10**6), st.integers(2, 4))
def test_phi_continuous_at_integers(seed, d):
    rng = rng_for(seed)
    sigma = np.sort(rng.uniform(0.1, 0.95, size=d))[::-1]
    delta = 1e-13
    for m in range(1, d + 1):
        mid = phi_from_singular_values(sigma, float(m))
        left = phi_from_singular_values(sigma, m - delta)
        right = phi_from_singular_values(sigma, m + delta)
        assert abs(left - mid) <= 1e-12 * mid
        assert abs(right - mid) <= 1e-12 * mid
        # the integer point itself is the plain product of the top m values
        assert math.isclose(mid, float(np.prod(sigma[:m])), rel_tol=1e-12)


@given(st.integers(0, 10**6), st.integers(1, 5))
def test_phi_submultiplicative(seed, d):
    rng = rng_for(seed)
    A = random_nonsingular(rng, d, cond_cap=1e4)
    B = random_nonsingular(rng, d, cond_cap=1e4)
    for s in np.linspace(0.0, d + 1.0, 21):
        lhs = phi(A @ B, float(s))
        rhs = phi(A, float(s)) * phi(B, float(s))
        assert lhs <= rhs * (1.0 + 1e-12), s


@given(st.integers(0, 10**6), st.integers(1, 4))
def test_phi_strictly_decreasing_for_contractions(seed, d):
    rng = rng_for(seed)
    T = random_contraction(rng, d, 0.15, 0.85)
    sigma = singular_values(T)
    vals = np.array([phi_from_singular_values(sigma, float(s)) for s in np.linspace(0.0, d + 1.0, 40)])
    assert np.all(np.diff(vals) < 0)


def test_phi_vectorizes_over_leading_axes():
    rng = rng_for(11)
    sig = np.sort(rng.uniform(0.1, 0.9, size=(7, 3)), axis=1)[:, ::-1]
    for s in (0.0, 0.4, 1.0, 1.7, 2.0, 2.6, 3.0, 3.9):
        batch = phi_from_singular_values(sig, s)
        single = np.array([phi_from_singular_values(row, s) for row in sig])
        assert np.array_equal(batch, single)
