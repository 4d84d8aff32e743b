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
C(d, d//2), so construction is refused above ``MAX_DIM``.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "MAX_DIM",
    "MultiIndex",
    "ExteriorVector",
    "CompoundMatrix",
    "multi_indices",
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
def multi_indices(d: int, m: int) -> tuple[tuple[int, ...], ...]:
    """All strictly ascending m-tuples over {1, ..., d}, lexicographically."""
    d = _require_dim(d)
    m = _require_grade(d, m)
    return tuple(itertools.combinations(range(1, d + 1), m))


@functools.lru_cache(maxsize=None)
def _positions(d: int, m: int) -> dict[tuple[int, ...], int]:
    return {J: r for r, J in enumerate(multi_indices(d, m))}


@functools.lru_cache(maxsize=None)
def _rows_array(d: int, m: int) -> np.ndarray:
    """0-based row-selection table of shape (C(d,m), m)."""
    idx = multi_indices(d, m)
    out = np.zeros((len(idx), m), dtype=np.intp)
    for r, J in enumerate(idx):
        out[r] = np.asarray(J, dtype=np.intp) - 1
    return out


@functools.lru_cache(maxsize=None)
def _extension_table(d: int, m: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Tables for appending one vector to a grade-m element.

    For each target blade L of grade m+1 and each slot t, the coordinate of
    v ^ x at L picks up ``sign * v[L minus its t-th entry] * x[t-th entry]``.
    """
    targets = multi_indices(d, m + 1)
    pos_m = _positions(d, m)
    n, w = len(targets), m + 1
    sources = np.zeros((n, w), dtype=np.intp)
    axes = np.zeros((n, w), dtype=np.intp)
    signs = np.zeros((n, w))
    for r, L in enumerate(targets):
        for t in range(w):
            sub = L[:t] + L[t + 1 :]
            sources[r, t] = pos_m[sub]
            axes[r, t] = L[t] - 1
            signs[r, t] = -1.0 if (m - t) % 2 else 1.0
    return sources, axes, signs


@dataclass(frozen=True)
class MultiIndex:
    """A strictly ascending tuple of axis labels in {1, ..., d}."""

    d: int
    entries: tuple[int, ...]

    def __post_init__(self):
        d = _require_dim(self.d)
        entries = tuple(int(i) for i in self.entries)
        object.__setattr__(self, "d", d)
        object.__setattr__(self, "entries", entries)
        if any(not 1 <= i <= d for i in entries):
            raise ValueError(f"entries out of range [1, {d}]: {entries}")
        if any(a >= b for a, b in zip(entries, entries[1:])):
            raise ValueError(f"entries must be strictly ascending: {entries}")

    @property
    def m(self) -> int:
        return len(self.entries)

    @property
    def position(self) -> int:
        """Lexicographic rank among all grade-m multi-indices."""
        return _positions(self.d, self.m)[self.entries]

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

    @classmethod
    def basis_blade(cls, d: int, entries) -> "ExteriorVector":
        J = MultiIndex(d, tuple(entries))
        coords = np.zeros(math.comb(d, J.m))
        coords[J.position] = 1.0
        return cls(d, J.m, coords)

    @classmethod
    def zero(cls, d: int, m: int) -> "ExteriorVector":
        return cls(d, m, np.zeros(math.comb(d, m)))

    def norm(self) -> float:
        return float(np.linalg.norm(self.coords))

    def coefficient(self, entries) -> float:
        return float(self.coords[MultiIndex(self.d, tuple(entries)).position])

    def __repr__(self) -> str:
        return f"ExteriorVector(d={self.d}, m={self.m}, {np.array2string(self.coords, precision=6)})"


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

    def apply(self, v: ExteriorVector) -> ExteriorVector:
        if (v.d, v.m) != (self.d, self.m):
            raise ValueError(
                f"grade/dimension mismatch: compound is (d={self.d}, m={self.m}), "
                f"vector is (d={v.d}, m={v.m})"
            )
        return ExteriorVector(self.d, self.m, self.entries @ v.coords)


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


def _wedge_with_vector(v: ExteriorVector, x) -> ExteriorVector:
    # append a single vector on the right: v ^ x, grade m -> m+1
    x = np.asarray(x, dtype=float).reshape(-1)
    if x.shape != (v.d,):
        raise ValueError(f"extension vector must live in R^{v.d}")
    if v.m >= v.d:
        raise ValueError("cannot extend a top-grade element")
    sources, axes, signs = _extension_table(v.d, v.m)
    coords = np.sum(signs * v.coords[sources] * x[axes], axis=1)
    return ExteriorVector(v.d, v.m + 1, coords)


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
