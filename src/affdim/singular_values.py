"""Singular spectra and the interpolated singular value product.

For a nonsingular T with singular values s1 >= ... >= sd > 0 and a real
exponent s >= 0, the product

    phi_s(T) = s1 * ... * s_{m-1} * s_m^(s - m + 1),   m - 1 <= s < m <= d,
    phi_s(T) = (s1 * ... * sd)^(s / d) = |det T|^(s/d),   s >= d,

interpolates between the norms of the compound matrices: at integer s = m <= d
it equals s1 * ... * s_m, the spectral norm of the m-th compound.  It is
submultiplicative in T for every fixed s; above s = d that forces the
determinant-power continuation (the naive alternative s1...s_{d-1} *
s_d^(s-d+1) fails submultiplicativity because the smallest singular value is
supermultiplicative: sd(TU) >= sd(T) sd(U)).  Both continuations agree at
s = d, so phi stays continuous.  At integer s both one-sided branches agree;
we evaluate the left limit so the branch never flips under floating point
rounding of s.  One kernel, ``_log_phi``, evaluates log phi_s from log
spectra: ``phi_from_singular_values`` exponentiates it, and the word sums of
``code_tree`` reduce it in log form, where phi_s far below the smallest
double stays finite.
"""

from __future__ import annotations

import math

import numpy as np

__all__ = [
    "SINGULARITY_RTOL",
    "singular_values",
    "phi",
    "phi_from_singular_values",
]

# scale-free nonsingularity gate: prod(sigma_i / sigma_1) must exceed this
SINGULARITY_RTOL = 1e-14


def _nonsingular_spectra(stack: np.ndarray, name: str | None = None) -> np.ndarray:
    """Descending singular spectra of a (k, d, d) stack, from one batched SVD.

    The first map whose prod(sigma_i / sigma_1) is at most ``SINGULARITY_RTOL``
    is rejected; with a ``name`` the error calls it ``name[i]``.
    """
    sigma = np.linalg.svd(stack, compute_uv=False)
    top = sigma[:, :1]
    ratio = np.divide(sigma, top, out=np.zeros_like(sigma), where=top > 0)
    bad = np.flatnonzero(np.prod(ratio, axis=1) <= SINGULARITY_RTOL)
    if bad.size:
        i, sv = int(bad[0]), sigma[bad[0]]
        msg = (f"matrix is numerically singular: singular values {np.array2string(sv, precision=4)}, "
               f"|det| = {float(np.prod(sv)):.3e} vs scale {float(sv[0] ** len(sv)):.3e}")
        raise ValueError(msg if name is None else f"{name}[{i}] is singular: {msg}")
    sigma.setflags(write=False)
    return sigma


def singular_values(T) -> np.ndarray:
    """Full singular spectrum of a square nonsingular matrix, as a read-only
    descending array.

    Accuracy is that of LAPACK SVD: ~1e-10 relative for the small, decently
    conditioned (cond <= 1e8) matrices this package works with.  Inputs whose
    determinant is below ``SINGULARITY_RTOL`` relative to sigma_1^d are
    rejected as numerically singular.
    """
    T = np.asarray(T, dtype=float)
    if T.ndim != 2 or T.shape[0] != T.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {T.shape}")
    return _nonsingular_spectra(T[None])[0]


def _log_phi(log_sigma: np.ndarray, s: float) -> np.ndarray:
    """log phi_s, shape (...), from log spectra of shape (..., d), each row the
    logs of a descending positive spectrum."""
    d = log_sigma.shape[-1]
    s = float(s)
    if not s >= 0:
        raise ValueError(f"exponent must be nonnegative, got {s}")
    if s >= d:
        with np.errstate(over="ignore"):  # a huge s gives -inf, which the word sums refuse
            return (s / d) * np.sum(log_sigma, axis=-1)
    if s == math.floor(s):
        # integer grade: plain product of the top s values (left limit)
        return np.sum(log_sigma[..., : int(s)], axis=-1)
    m = math.floor(s) + 1
    return np.sum(log_sigma[..., : m - 1], axis=-1) + (s - m + 1) * log_sigma[..., m - 1]


def phi_from_singular_values(sigma, s: float):
    """Vectorized phi_s over trailing-axis spectra.

    ``sigma`` has shape (..., d), each row descending positive; returns the
    interpolated singular value product with shape (...).
    """
    return np.exp(_log_phi(np.log(np.asarray(sigma, dtype=float)), s))


def phi(T, s: float) -> float:
    """phi_s of a nonsingular square matrix."""
    return float(phi_from_singular_values(singular_values(T), s))
