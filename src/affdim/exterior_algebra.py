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

Everything is computed with explicit dense minors.  That is exact enough, and
fast, for the ambient dimensions this package targets; blade counts grow like
C(d, d//2), so construction is refused above ``MAX_DIM``.  The blade order
has one home, ``_rows_array``, and blade coordinates with their signs have
one rule, ``_wedge_batch``; every wedge, compound and extension of a blade
by a vector goes through both.
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


def _wedge_batch(factors: np.ndarray) -> np.ndarray:
    """Blade coordinates for a batch of factor stacks.

    ``factors`` has shape (N, d, m), columns are the vectors to be wedged;
    the result has shape (N, C(d, m)) and row r of the selection table picks
    the minor with rows J_r.  This is the only place minors are computed.
    """
    N, d, m = factors.shape
    rows = _rows_array(d, m)
    # chunk the batch so the (chunk, C(d, m), m, m) scratch block stays small
    step = max(1, 2**22 // max(rows.shape[0] * m * m, 1))
    if N <= step:  # det's own output layout: later row norms depend on it in the last bit
        return np.linalg.det(factors[:, rows, :])
    return np.concatenate([np.linalg.det(factors[lo : lo + step, rows, :]) for lo in range(0, N, step)])


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
