"""Dense exterior powers of R^d for small d.

A grade-m element is stored as a coordinate vector of length C(d, m) over the
blade basis ``e_{i1} ^ ... ^ e_{im}``, ``1 <= i1 < ... < im <= d``, with blades
ordered lexicographically.  In this basis:

* the wedge of m column vectors has coordinates equal to the m x m minors of
  the d x m matrix they span (Pluecker coordinates);
* a matrix S acts through its m-th compound matrix, whose (J, I) entry is the
  minor of S with rows J and columns I, so compounds compose functorially
  (Cauchy-Binet);
* the blade basis is orthonormal for the coordinate inner product
  ``v.coords @ w.coords``.

Blade coordinates have one rule, ``_wedge_batch``: Laplace expansion along
the last factor, vectorized over the batch and the blades, with no BLAS or
LAPACK call, so grade 1 returns the vectors' own entries and every row's bits
depend on that row alone.  Its rounding is at most beta_m * eps * prod |v_i|
in the 2-norm of a grade-m coordinate vector, beta_m ~ 1/2 sum_{g=2..m}
g^(3/2) (derived in its docstring).  The 2 x 2 minors that
``singular_values._minor`` and ``code_tree._cofactors`` take for spectra are
not blade coordinates and stay with them.  Blade counts grow like C(d, d//2), so
construction is refused above ``MAX_DIM``.  The blade order has one home,
``_rows_array``; every wedge, compound and extension of a blade by a vector
goes through both.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "ExteriorVector",
    "CompoundMatrix",
    "wedge",
    "compound_matrix",
]

MAX_DIM = 12


def _require_dim(d) -> int:
    d = int(d)
    if not 1 <= d <= MAX_DIM:
        raise ValueError(
            f"ambient dimension must lie in [1, {MAX_DIM}], got {d}; "
            "dense blade storage is unreasonable past that"
        )
    return d


def _require_grade(d: int, m) -> int:
    m = int(m)
    if not 0 <= m <= d:
        raise ValueError(f"grade must satisfy 0 <= m <= d, got m={m} with d={d}")
    return m


@functools.lru_cache(maxsize=None)
def _rows_array(d: int, m: int) -> np.ndarray:
    """The grade-m blades, lexicographically, as a read-only 0-based
    row-selection table of shape (C(d, m), m)."""
    d = _require_dim(d)
    m = _require_grade(d, m)
    out = np.array(list(itertools.combinations(range(d), m)), dtype=np.intp)
    out.setflags(write=False)
    return out


@dataclass(frozen=True, eq=False)
class ExteriorVector:
    """A grade-m element of the exterior power, dense blade coordinates."""

    d: int
    m: int
    coords: np.ndarray

    def __post_init__(self):
        d = _require_dim(self.d)
        m = _require_grade(d, self.m)
        coords = np.array(self.coords, dtype=float).reshape(-1)
        n = math.comb(d, m)
        if coords.shape != (n,):
            raise ValueError(
                f"grade-{m} element over R^{d} needs {n} coordinates, got {coords.shape}"
            )
        coords.setflags(write=False)
        object.__setattr__(self, "d", d)
        object.__setattr__(self, "m", m)
        object.__setattr__(self, "coords", coords)


@dataclass(frozen=True, eq=False)
class CompoundMatrix:
    """The induced action of a d x d matrix on grade-m coordinates."""

    d: int
    m: int
    entries: np.ndarray

    def __post_init__(self):
        n = math.comb(self.d, self.m)
        entries = np.array(self.entries, dtype=float)
        if entries.shape != (n, n):
            raise ValueError(f"compound of grade {self.m} over R^{self.d} must be {n} x {n}")
        entries.setflags(write=False)
        object.__setattr__(self, "entries", entries)


@functools.lru_cache(maxsize=None)
def _laplace_tables(d: int, g: int) -> tuple[np.ndarray, np.ndarray]:
    """Index tables of the expansion of the grade-g blades (g >= 2) along
    their last factor, each read-only of shape (g, C(d, g)): entry (t, J) of
    the first is the row label j_t of blade J, and of the second the position
    of J without j_t among the grade-(g - 1) blades."""
    rows, lower = _rows_array(d, g), _rows_array(d, g - 1)
    kept = np.arange(g - 1)
    others = kept + (kept >= np.arange(g)[:, None])  # row t: the positions u != t, (g, g - 1)
    digits = d ** np.arange(g - 2, -1, -1)  # base-d keys of sorted tuples keep their lex order
    drop = np.searchsorted(lower @ digits, rows[:, others] @ digits)
    tables = np.ascontiguousarray(rows.T), np.ascontiguousarray(drop.T)
    for table in tables:
        table.setflags(write=False)
    return tables


# entries of each (chunk, C(d, g)) scratch array of _wedge_batch, 512 KB:
# at d = 12, m = 6 chunks 4 and 16 times larger fell out of cache and ran
# 1.2 and 1.6 times slower
_WEDGE_CHUNK = 2**16


def _wedge_batch(factors: np.ndarray) -> np.ndarray:
    """Blade coordinates for a batch of factor stacks.

    ``factors`` has shape (N, d, m), columns are the vectors v_1, ..., v_m to
    be wedged; the result has shape (N, C(d, m)), and its entry at blade
    J = (j_1 < ... < j_g) is the minor with rows J.  This is the only
    blade-coordinate rule.  Grade 0 is 1 and grade 1 is v_1 itself; grade g
    expands along v_g,

        w_g[J] = sum_{t=1..g} (-1)^(g-t) v_g[j_t] w_{g-1}[J without j_t],

    summed in that t order for every stack and blade at once, so a row's bits
    do not depend on the rest of the batch or on the chunking.

    Rounding.  With u = eps / 2, gamma_g = g u / (1 - g u) and
    P_g = |v_1| ... |v_g| (2-norms), each computed coordinate of grade g is
    a g-term sum of exactly signed products and is within
    gamma_g sum_t |v_g[j_t]| |w^_{g-1}[J without j_t]| of the exact expansion
    of the computed w^_{g-1}; by Cauchy-Schwarz that bound has 2-norm at most
    sqrt(g) |v_g| |w^_{g-1}| over the blades.  The error carried in from
    grade g - 1 is wedged with v_g exactly, and |x ^ v| <= |x| |v| for every
    x, while |w_{g-1}| <= P_{g-1} (Hadamard).  So e_g = |w^_g - w_g| / P_g
    obeys e_1 = 0, e_g <= e_{g-1} + sqrt(g) gamma_g (1 + e_{g-1}), and

        |w^_m - w_m| <= beta_m eps P_m,  beta_m ~ 1/2 sum_{g=2..m} g^(3/2)

    to first order in eps (beta_2 = 1.41, beta_3 = 4.01, beta_6 = 21.0,
    beta_12 = 110), barring underflow.  Permutation stacks come out as
    exactly +-1 or 0.
    """
    N, d, m = factors.shape
    if m == 0:
        return np.ones((N, 1))
    out = np.empty((N, math.comb(d, m)))
    step = max(1, _WEDGE_CHUNK // math.comb(d, min(m, d // 2)))  # the widest grade on the way
    for lo in range(0, N, step):
        chunk = factors[lo : lo + step]
        w = chunk[:, :, 0]
        for g in range(2, m + 1):
            v = chunk[:, :, g - 1]
            labels, drop = _laplace_tables(d, g)
            acc = v[:, labels[0]] * w[:, drop[0]]
            if g % 2 == 0:
                np.negative(acc, out=acc)
            for t in range(1, g):
                term = v[:, labels[t]] * w[:, drop[t]]
                if (g - 1 - t) % 2:
                    acc -= term
                else:
                    acc += term
            w = acc
        out[lo : lo + step] = w
    return out


def wedge(vectors) -> ExteriorVector:
    """Wedge an ordered list of m vectors in R^d.

    The coordinate at blade J is the minor of the d x m factor matrix with
    rows J, so swapping two inputs flips every sign and a linearly dependent
    input list gives the zero element.
    """
    cols = [np.asarray(v, dtype=float).reshape(-1) for v in vectors]
    if not cols:
        raise ValueError("need at least one vector to wedge")
    d = cols[0].shape[0]
    if any(c.shape != (d,) for c in cols):
        raise ValueError("all factors must share the ambient dimension")
    _require_dim(d)
    m = len(cols)
    if m > d:
        raise ValueError(f"cannot wedge {m} vectors in R^{d}")
    coords = _wedge_batch(np.column_stack(cols)[None])[0]
    return ExteriorVector(d, m, coords)


def _compounds(stack: np.ndarray, m: int) -> np.ndarray:
    """m-th compounds of a (k, d, d) stack, shape (k, C(d, m), C(d, m)), in C
    order (einsums over them depend on the layout in the last bit).  Column I
    of a compound is the wedge of the columns I of its matrix.
    """
    k, d = stack.shape[:2]
    cols = _rows_array(d, m)
    n = cols.shape[0]
    factors = stack[:, :, cols].transpose(0, 2, 1, 3).reshape(k * n, d, m)
    return np.ascontiguousarray(_wedge_batch(factors).reshape(k, n, n).transpose(0, 2, 1))


def compound_matrix(S, m: int) -> CompoundMatrix:
    """m-th compound of a square matrix: entry (J, I) is minor(S; rows J, cols I).

    Satisfies the product rule compound(A @ B) = compound(A) @ compound(B);
    grade 0 is the 1 x 1 identity and grade d is [[det S]].
    """
    S = np.asarray(S, dtype=float)
    if S.ndim != 2 or S.shape[0] != S.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {S.shape}")
    d = _require_dim(S.shape[0])
    m = _require_grade(d, m)
    return CompoundMatrix(d, m, _compounds(S[None], m)[0])
