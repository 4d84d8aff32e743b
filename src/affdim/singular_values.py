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
spectra laid out spectrum axis first, one row per singular value, so that
phi_s is a sum of whole rows: on each piece it is a partial sum of the top
rows, scaled by s / d above s = d or plus a fraction of the next row
between integers.  ``code_tree`` takes a block's spectra in this layout,
so no transpose is copied on either side: for d = 3 from its suffix
table's Grams (``code_tree._congruent_spectra``), and for any other d from
the block's linear parts, laid out entry axes first, (d, d, n).  The d = 3
Grams' largest eigenvalues come from Smith's closed form,
``_top_eigenvalue``, which the spanning checks' d = 3 compound norms and
margin screen share.
``phi_from_singular_values`` moves its trailing spectrum axis to the front
and exponentiates the kernel.  The word sums of
``code_tree`` reduce it in log form, where phi_s far below the smallest
double stays finite; they evaluate many s on one block of words, so they
hand the kernel one dict that keeps each partial sum once taken.

On each piece m - 1 < s <= m < d, on d - 1 < s < d, and on s >= d, log
phi_s of every spectrum is affine in s.  ``_piece`` is the only rule for
which piece an s lies in, and ``_log_phi`` branches on it; ``_slope`` hands
out the piece's slope row B, log sigma_m below d and the mean log singular
value from d on.  The word sums evaluate the first s of each run of s in
one piece exactly, an anchor, and step along the rest of an evenly spaced
run by multiplying each word's weight by one rate exp(delta * B), within a
rounding budget of 2^-46 in log phi_s (``code_tree._log_sums`` says which
runs step and when they re-anchor).  So they and the
kernel cannot disagree about a piece, even at a grid point such as
1.0000000000000002 next to an integer.
"""

from __future__ import annotations

import math

import numpy as np

__all__ = ["singular_values", "phi_from_singular_values"]

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

    Accuracy is that of LAPACK SVD: sigma_1 to a few ulps, and sigma_i to
    about eps * sigma_1 absolute, so the relative error of the smallest
    value grows with the condition number.  That is ample for a single map,
    whose determinant must exceed ``SINGULARITY_RTOL`` relative to
    sigma_1^d (smaller ones are rejected as numerically singular), but not
    for deep products of maps: their spectra are taken by
    ``code_tree._log_spectra`` and, for d = 3, ``code_tree._congruent_spectra``,
    with no SVD for d <= 3.  For d = 2 and d = 3 they take the smallest
    singular value from the letters' summed log|det|, which stays accurate
    however ill-conditioned the product is; the d = 3 sigma_2 is still known
    only to about eps * sigma_1 / sigma_2, relatively, of the worse
    conditioned of the word's two parts, its prefix and its suffix, and its
    sigma_1 and sigma_1 sigma_2 to about eps * rho² (``_congruent_spectra``
    says what rho is).
    """
    T = np.asarray(T, dtype=float)
    if T.ndim != 2 or T.shape[0] != T.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {T.shape}")
    return _nonsingular_spectra(T[None])[0]


def _exponent(s) -> float:
    """``s`` as a float, refused unless it is a nonnegative number (nan is not)."""
    s = float(s)
    if not s >= 0:
        raise ValueError(f"exponent must be nonnegative, got {s}")
    return s


def _check_tol(tol: float) -> None:
    if not (math.isfinite(tol) and tol >= 0):
        raise ValueError(f"tol must be finite and >= 0, got {tol}")


def _partial(log_sigma: np.ndarray, m: int, sums: dict) -> np.ndarray:
    """np.sum(log_sigma[:m], axis=0), kept by m in ``sums`` once taken."""
    if m not in sums:
        sums[m] = np.sum(log_sigma[:m], axis=0)
    return sums[m]


def _piece(d: int, s: float) -> int:
    """The piece of an exponent ``s >= 0`` on which log phi_s is affine in s:
    m for m - 1 < s <= m < d (an integer is the left limit of the piece below
    it, and m = 0 holds s = 0 alone), m = d for d - 1 < s < d, and d + 1 for
    s >= d."""
    return d + 1 if s >= d else math.ceil(s)


def _slope(log_sigma: np.ndarray, m: int, sums: dict) -> tuple[np.ndarray, float]:
    """(row, scale) with d/ds log phi_s = scale * row on piece m of
    ``_piece``: the m-th log singular values below d, and the mean of them all
    (their partial sum, kept in ``sums``, over d) for s >= d.  Piece 0 holds
    s = 0 alone, so no step moves along it; it takes log sigma_1, the right
    derivative there."""
    d = log_sigma.shape[0]
    if m > d:
        return _partial(log_sigma, d, sums), 1.0 / d
    return log_sigma[max(m, 1) - 1], 1.0


def _log_phi(log_sigma: np.ndarray, s: float, sums: dict | None = None) -> np.ndarray:
    """log phi_s, shape (...), from log spectra of shape (d, ...): row i holds
    the logs of the i-th largest singular values, so each spectrum runs down
    axis 0 and phi_s is a few whole-row adds.

    The branch is the piece ``_piece`` gives s.  Each piece reads one partial
    sum np.sum(log_sigma[:m], axis=0), kept by m in ``sums`` once taken: a
    caller that evaluates many s on one block passes one dict, so each is
    taken once.  An integer s below d returns the partial sum itself, which a
    caller that passed ``sums`` must not write to; any other s returns a fresh
    array.
    """
    d = log_sigma.shape[0]
    s = _exponent(s)
    sums = {} if sums is None else sums
    m = _piece(d, s)
    if m == 0:  # phi_0 is 1, so log phi_0 is 0 with no partial sum taken
        return np.zeros(log_sigma.shape[1:])
    if m > d:
        with np.errstate(over="ignore"):  # a huge s gives -inf, which the word sums refuse
            return (s / d) * _partial(log_sigma, d, sums)
    if s == m:
        # integer grade: plain product of the top s values (left limit)
        return _partial(log_sigma, m, sums)
    out = (s - m + 1) * log_sigma[m - 1]
    if m > 1:  # the top 0 values sum to 0, which would add nothing but the sign of a zero
        out += _partial(log_sigma, m - 1, sums)
    return out


def phi_from_singular_values(sigma, s: float):
    """Vectorized phi_s over trailing-axis spectra.

    ``sigma`` has shape (..., d), each row descending positive; returns the
    interpolated singular value product with shape (...).
    """
    return np.exp(_log_phi(np.moveaxis(np.log(np.asarray(sigma, dtype=float)), -1, 0), s))


# Smith's closed form for the largest eigenvalue of symmetric 3×3 matrices,
# with its layout, its fallback cut and its elementwise helpers: the one copy
# the d = 3 block spectra of ``code_tree`` and the d = 3 compound norms and
# margin screen of ``fs_checker`` share.  The rows of a symmetric 3×3 G in
# that layout: entries (i, j), i <= j
_GRAM_I = np.array([0, 1, 2, 0, 0, 1])
_GRAM_J = np.array([0, 1, 2, 1, 2, 2])
# Columns whose two largest Gram eigenvalues nearly meet (1 + r below this in
# ``_top_eigenvalue``) take them from ``np.linalg.eigvalsh``: the closed form
# loses half the digits where the arccos argument r reaches -1.
_CLOSED_FORM_GAP = 1e-3


def _scaled(x):
    """Columns of ``x`` scaled in place by powers of two (exactly) so that each
    largest |entry| lies in [0.5, 1), and the exponents taken out; 0 for a zero
    column."""
    _, e = np.frexp(np.max(np.abs(x), axis=0))
    np.ldexp(x, -e, out=x)
    return e


def _sum_products(pairs, out, tmp):
    """out = a_0 b_0 + a_1 b_1 + ... over the (a, b) ``pairs``, summed from the
    left, with ``tmp`` as scratch."""
    (a, b), *rest = pairs
    np.multiply(a, b, out=out)
    for a, b in rest:
        out += np.multiply(a, b, out=tmp)
    return out


def _minor(a, b, c, e, out, tmp):
    """out = a b - c e, with ``tmp`` as scratch."""
    np.multiply(a, b, out=out)
    out -= np.multiply(c, e, out=tmp)
    return out


def _gram(x, g, tmp):
    """The Gram matrix X Xᵀ of each column of ``x`` (9, n), the row-major
    entries of a 3×3 X, written into ``g`` (6, n) as its entries (i, j), i <= j,
    in the order (0, 0), (1, 1), (2, 2), (0, 1), (0, 2), (1, 2); ``tmp`` is
    (n,) scratch."""
    rows = x[0:3], x[3:6], x[6:9]
    for out, i, j in zip(g, _GRAM_I, _GRAM_J):
        _sum_products(zip(rows[i], rows[j]), out, tmp)
    return g


def _symmetric(g):
    """The symmetric 3×3 matrices (n, 3, 3) of the columns of ``g`` (6, n)."""
    out = np.empty((g.shape[1], 3, 3))
    out[:, _GRAM_I, _GRAM_J] = g.T
    out[:, _GRAM_J, _GRAM_I] = g.T
    return out


def _top_eigenvalue(g, top, gap, work):
    """Largest eigenvalue of each symmetric 3×3 column of ``g`` (6, ...), its
    entries (``_GRAM_I``, ``_GRAM_J``) in the order (0, 0), (1, 1), (2, 2),
    (0, 1), (0, 2), (1, 2), written into ``top`` (...), and 1 + r into ``gap`` (...),
    which is 0 where the top two eigenvalues meet; ``work`` is (7, ...)
    scratch, and ``g`` is left as it is.  Elementwise, so the trailing axes
    may be a stack of Grams.  It has three callers, and each keeps its own
    ``eigvalsh`` fallback for the columns whose gap is near 0:
    ``code_tree._congruent_spectra`` hands in a d = 3 block's Grams and
    cofactor Grams, (6, 2, chunk), for sigma_1 and sigma_1 sigma_2 of its
    words; ``fs_checker._closed_form_norms`` the Grams C Cᵀ of a family's
    3×3 compounds, (6, k), for their spectral norms; and
    ``fs_checker._closed_form_extremes`` a screened batch's image Grams G
    beside (tr G) I - G, (6, 2, N), for their largest and smallest
    eigenvalues.

    Smith's trigonometric formula (1961) for a symmetric 3×3 G: with q = tr G / 3,
    p² = |G - qI|_F² / 6 and r = det(G - qI) / (2p³) in [-1, 1], the largest
    eigenvalue is q + 2p cos(arccos(r) / 3).  A G within rounding of scalar
    (p <= 64 eps q) takes r = 1: the computed and the true eigenvalue then both
    lie in [q + p, q + 2p], so the error is at most p.
    """
    g00, g11, g22, g01, g02, g12 = g
    a00, a11, a22, p, t, u, v = work
    q = np.add(g00, g11, out=top)  # top holds q until the end
    q += g22
    q /= 3.0
    np.subtract(g00, q, out=a00)
    np.subtract(g11, q, out=a11)
    np.subtract(g22, q, out=a22)
    _sum_products(((a00, a00), (a11, a11), (a22, a22)), p, t)
    _sum_products(((g01, g01), (g02, g02), (g12, g12)), u, t)
    u *= 2.0
    p += u
    p /= 6.0
    np.sqrt(p, out=p)
    det = _minor(a11, a22, g12, g12, u, t)
    det *= a00
    det -= np.multiply(_minor(g01, a22, g12, g02, v, t), g01, out=v)
    det += np.multiply(_minor(g01, g12, a11, g02, v, t), g02, out=v)
    np.multiply(p, 2.0, out=v)
    v *= p
    v *= p
    gap.fill(1.0)
    r = np.divide(det, v, out=gap, where=p > np.multiply(q, 2.0**-46, out=t))
    np.clip(r, -1.0, 1.0, out=r)
    np.cos(np.divide(np.arccos(r, out=t), 3.0, out=t), out=u)
    u *= np.multiply(p, 2.0, out=v)
    top += u
    gap += 1.0
