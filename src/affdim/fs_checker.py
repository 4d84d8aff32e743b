"""Deciding and certifying the spanning conditions C(m) and C(s).

A finite family {S_i} of nonsingular d x d matrices satisfies condition C(m)
if for every pair of nonzero decomposable grade-m elements v, w some member
pairs them nontrivially: <S_i v | w> != 0.  For non-integral s in (m, m+1)
the condition C(s) additionally requires a *single* i to work simultaneously
at grade m and grade m+1 for compatible extensions v ^ v', w ^ w'.  A
``LinearFamily`` keeps its maps as one read-only (k, d, d) stack, and
closures, compounds, norms and eigenvectors are computed batched over it.

Sampling can only falsify these conditions or support them empirically, so
``check_cm`` / ``check_cs`` return three-valued verdicts with normalized
margins.  ``check_cm`` scans candidate blades once, in a fixed order: a
structured pool (the coordinate blades, then wedges of each map's real
eigenvectors), then ceil(samples / 1024) seeded Gaussian batches.  Each batch
is scored by one rank-margin call; the first batch with a margin at or below
tol gives the Fail verdict, whose annihilating partner w is sought in the same
pool.  Margins within 1e-15 of the least count as equal, so the witness is the
first of them in scan order.  A family with fewer maps than C(d, m) can never
span, so its scan stops after the pool.  ``check_cs`` runs ``check_cm`` at
grades m and m + 1 as prefilters, lifting a grade fail to a quadruple witness,
and then samples quadruples.  The certifying route is ``criterion_cscm``: a
pair (F, G) with distinct-product real eigenvalue tuples whose eigenbasis
change matrix has every minor nonzero guarantees that the family of all
compositions of F and G up to depth 2 * n0^2 satisfies C(s) for every
0 <= s <= d, where n0 = max_m C(d, m).

A margin is sigma_n / sigma_1 of the k x n matrix of images C_i v of a blade
v, n = C(d, m).  ``check_cm`` takes one QR factorization of the k maps'
compounds, stacked side by side, and reads every margin off its R factor: an
r x n matrix per blade with r <= n^2 and the same singular values.  The cost
of a margin therefore does not grow with k, which doubles with each level of
a two-map closure.  Only the least margin and a margin at or below tol are
ever reported, so each batch is screened first: ``_screen`` reads every
blade's squared margin off the extreme eigenvalues of its n x n image Gram,
and only the blades whose screened value lies within a rounding band of the
batch's least or of tol^2 get their exact margin, a LAPACK SVD of the r x n
images.  For n = 3, every grade of d = 3, the eigenvalues come from Smith's
closed form, ``singular_values._top_eigenvalue``, with no LAPACK call per
blade: lambda_max of G and of (tr G) I - G in one call.  Each blade's band
bounds the Gram's rounding and the closed form's, which grows as
1 / sqrt(gap) where a pair of eigenvalues meets; the few blades the screen
keeps are screened again by ``eigvalsh``, and other n use ``eigvalsh`` from
the start (see ``_screen``).  So no other blade can be the least or at most
tol; it is scored +inf.  Verdicts, sample counts, margins and witnesses are
those of exact margins on every blade, bit for bit.

All pass/fail thresholds are applied to scale-free quantities: compounds are
normalized by their spectral norms, minors by sigma_max(A)^order, so scaling
any map or eigenvector never flips a verdict.  The spectral norm of a grade-m
compound is sigma_1 ... sigma_m of its map, and a family takes its maps'
spectra from one batched SVD, once, for every grade.
"""

from __future__ import annotations

import enum
import functools
import itertools
import math
import sys
from dataclasses import dataclass, replace

import numpy as np

from .exterior_algebra import (
    ExteriorVector,
    _compounds,
    _rows_array,
    _wedge_batch,
    compound_matrix,
)
from .singular_values import (
    _GRAM_I,
    _GRAM_J,
    _check_tol,
    _log_phi,
    _nonsingular_spectra,
    _top_eigenvalue,
)

__all__ = [
    "UnsupportedEigenstructure",
    "LinearFamily",
    "VerdictKind",
    "FailWitness",
    "Verdict",
    "CriterionReport",
    "FullnessEstimate",
    "iterate_closure",
    "check_cm",
    "check_cs",
    "criterion_cscm",
    "estimate_fullness",
]

DEFAULT_TOL = 1e-9
_BATCH = 1024
# margins and pairings are scale-free, in [0, 1]; two that differ by less
# than this are equal up to rounding, and the witness is the first of them
_TIE_FLOOR = 1e-15
# a Fail witness pairs the k images with the candidate pool this many
# (image, blade) entries at a time, so its memory does not grow with k x pool
_PAIRING_ENTRIES = 1 << 22
# iterate_closure refuses a closure of more maps than this
_CLOSURE_CAP = 10**6


class UnsupportedEigenstructure(ValueError):
    """Raised when a map has complex or (near-)defective eigenvalues."""


@dataclass(frozen=True, eq=False)
class LinearFamily:
    """A family of nonsingular d x d matrices, ``maps``: one read-only (k, d, d) array.

    ``from_matrices`` builds a family of generators and refuses a numerically
    singular one.  A family built from gated maps, such as ``iterate_closure``'s
    products, is not gated again: det is multiplicative, so its members are
    nonsingular however ill-conditioned they are.
    """

    d: int
    maps: np.ndarray

    def __post_init__(self):
        maps = np.array(self.maps, dtype=float)
        if maps.size == 0:
            raise ValueError("family must contain at least one map")
        if maps.shape[1:] != (self.d, self.d):
            raise ValueError(f"maps has shape {maps.shape}, expected (k, {self.d}, {self.d})")
        maps.setflags(write=False)
        object.__setattr__(self, "maps", maps)

    @classmethod
    def from_matrices(cls, mats) -> "LinearFamily":
        """The family of the generators ``mats``, each passed through the singularity gate."""
        mats = np.asarray(mats, dtype=float)
        fam = cls(mats.shape[-1], mats)
        _nonsingular_spectra(fam.maps, "maps")
        return fam

    def __len__(self) -> int:
        return len(self.maps)

    @functools.cached_property
    def _eig(self) -> tuple[np.ndarray, np.ndarray]:
        """``np.linalg.eig`` of the maps, taken once per family: the candidate
        pools of every grade read it."""
        return np.linalg.eig(self.maps)

    @functools.cached_property
    def _singular_values(self) -> np.ndarray:
        """Singular spectra of the maps, from one batched SVD taken once per
        family: every grade's compound norms read it."""
        return np.linalg.svd(self.maps, compute_uv=False)


class VerdictKind(enum.Enum):
    CERTIFIED_PASS = "CertifiedPass"
    EMPIRICAL_PASS = "EmpiricalPass"
    FAIL = "Fail"


@dataclass(frozen=True, eq=False)
class FailWitness:
    """A concrete pair (or quadruple, for fractional s) that kills the condition.

    ``v``/``w`` are the grade-m elements; for fractional s the grade-(m+1)
    extensions are carried in ``v_wedge``/``w_wedge``.  ``w_decomposable``
    records whether the annihilating direction was realized as a blade; when
    it was not, the witness is a rank-deficiency certificate rather than a
    decomposable counterexample.
    """

    m: int
    v: ExteriorVector | None
    w: ExteriorVector | None
    w_decomposable: bool = True
    v_factors: np.ndarray | None = None
    w_factors: np.ndarray | None = None
    v_wedge: ExteriorVector | None = None
    w_wedge: ExteriorVector | None = None


@dataclass(frozen=True, eq=False)
class Verdict:
    kind: VerdictKind
    m: int
    s: float | None = None
    samples: int = 0
    margin: float = math.nan
    witness: FailWitness | None = None
    reason: str = ""

    @property
    def passed(self) -> bool:
        return self.kind is not VerdictKind.FAIL

    def __str__(self) -> str:
        bits = [f"{self.kind.value} (grade m={self.m}"]
        if self.s is not None:
            bits.append(f", s={self.s}")
        bits.append(f", samples={self.samples}, margin={self.margin:.3e})")
        if self.reason:
            bits.append(f": {self.reason}")
        return "".join(bits)


def iterate_closure(fam: LinearFamily, depth: int) -> LinearFamily:
    """All compositions S_{i1} @ ... @ S_{ij} for 1 <= j <= depth, word order.

    The products pass no singularity gate: those of nonsingular maps are
    nonsingular, however small their determinant relative to sigma_1^d.
    """
    if depth < 1:
        raise ValueError(f"closure depth must be >= 1, got {depth}")
    k = len(fam)
    total = 0
    for j in range(1, depth + 1):  # stops at the first level over the cap
        total += k**j
        if total > _CLOSURE_CAP:
            raise ValueError(
                f"a closure of depth {depth} would contain more than the cap of "
                f"{_CLOSURE_CAP} maps; the largest depth within the cap is {j - 1}"
            )
    # level j + 1 is every map times every level-j word: (k, L) -> k * L
    levels = [fam.maps]
    for _ in range(2, depth + 1):
        levels.append((fam.maps[:, None] @ levels[-1][None]).reshape(-1, fam.d, fam.d))
    return LinearFamily(fam.d, np.concatenate(levels))


# ---------------------------------------------------------------------------
# normalized compounds and candidate test vectors


def _normalized_compounds(fam: LinearFamily, m: int) -> np.ndarray:
    """Stack of grade-m compounds, each divided by its spectral norm.

    The spectral norm of the m-th compound of T is sigma_1 ... sigma_m of T,
    so every grade divides by products of the one set of spectra the family
    keeps.  A map whose product is 0 or not finite has a compound that
    cannot be normalized: a closure's deep products have underflowed (or
    overflowed), and that is refused.
    """
    norms = np.prod(fam._singular_values[:, :m], axis=1)
    bad = np.flatnonzero(~(np.isfinite(norms) & (norms > 0)))
    if bad.size:
        i = int(bad[0])
        raise ValueError(f"the closure's products underflow or overflow at this depth: the "
                         f"grade-{m} compound of map {i} has spectral norm {float(norms[i])!r}")
    return _compounds(fam.maps, m) / norms[:, None, None]


def _candidate_factors(fam: LinearFamily, m: int) -> np.ndarray:
    """Deterministic decomposable candidates as one (P, d, m) stack: the
    coordinate blades, then wedges of each map's unit real eigenvectors, map
    by map in combination order."""
    d = fam.d
    combos = _rows_array(d, m)
    lam, vec = fam._eig
    real = np.abs(lam.imag) <= 1e-9 * np.max(np.abs(lam), axis=1, keepdims=True)
    # eigenvectors as contiguous rows: each norm is then numpy's pairwise sum
    # over one vector, whose last bits for d >= 8 depend on that layout
    rows = np.ascontiguousarray(vec.real.transpose(0, 2, 1))
    norms = np.linalg.norm(rows, axis=2)
    usable = real & (norms > 1e-12)
    unit = rows / np.where(usable, norms, 1.0)[:, :, None]
    # a combination is a candidate when all its columns are usable: (k, C(d, m))
    chosen = np.all(usable[:, combos], axis=2)
    coordinate = np.eye(d)[:, combos].transpose(1, 0, 2)
    return np.concatenate([coordinate, unit[:, combos].transpose(0, 1, 3, 2)[chosen]])


def _coords_of_factors(factors: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Unit blade coordinates for a (P, d, m) factor stack, dropping degenerate ones."""
    coords = _wedge_batch(factors)
    norms = np.linalg.norm(coords, axis=1)
    keep = norms > 1e-12
    return coords[keep] / norms[keep, None], factors[keep]


def _reduced_stack(CC: np.ndarray) -> np.ndarray:
    """An (r, n, n) stack, r = min(k, n^2), with the rank margins of the (k, n, n) stack CC.

    The images of v are W_v = sum_j v_j H_j with H_j[:, i] = CC[:, i, j].  If
    H = [H_1 | ... | H_n] = Q R with Q's columns orthonormal, then
    W_v = Q R (v (x) I), so R (v (x) I) has the singular values of W_v, and R
    comes back in CC's (map, i, j) layout.
    """
    k, n = CC.shape[:2]
    R = np.linalg.qr(CC.transpose(0, 2, 1).reshape(k, n * n), mode="r")
    return R.reshape(-1, n, n).transpose(0, 2, 1)


def _first_least(values: np.ndarray) -> int:
    """Index of the first value within _TIE_FLOOR of the least: an argmin whose
    ties at rounding level resolve by scan index, not by last bits."""
    return int(np.flatnonzero(values <= np.min(values) + _TIE_FLOOR)[0])


def _rank_margins(CC: np.ndarray, vs: np.ndarray) -> np.ndarray:
    """For each test vector v, sigma_n / sigma_1 of the stacked images S_i v.

    CC is (k, n, n), vs is (N, n); the margin is zero exactly when the images
    fail to span.  On a raw stack it depends on the maps' relative scales:
    scaling one map moves the other images' share of the stack.  It is scale
    free because ``check_cm`` hands in ``_normalized_compounds``, each of
    spectral norm 1, so rescaling any map leaves CC as it was.
    ``check_cm`` passes ``_reduced_stack(CC)``, at most n^2 rows and fewer
    than n exactly when k < n, in place of CC: the margins agree up to
    rounding, and their cost does not depend on k.
    """
    k, n = CC.shape[:2]
    if k < n:  # fewer maps than the blade count: can never span
        return np.zeros(vs.shape[0])
    W = np.einsum("kij,tj->tki", CC, vs)
    sv = np.linalg.svd(W, compute_uv=False)
    return sv[:, n - 1] / sv[:, 0]


def _closed_form_extremes(G: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(lambda_min, lambda_max, slack) of each positive semidefinite 3 x 3
    Gram of G (N, 3, 3), from one ``_top_eigenvalue`` call on the (6, 2, N)
    stack of G and H = (tr G) I - G: lambda_min(G) = tr G - lambda_max(H).

    ``slack`` bounds, to first order, how far the screened squared margin
    lambda_min / lambda_max lies from the one the exact eigenvalues of the
    rounded G give, in units of lambda_max: (246 + 11 / sqrt(gap_G) + 22 /
    sqrt(gap_H)) eps, with each Gram's gap = 1 + r of ``_top_eigenvalue``
    (infinite where a gap is 0).  For a positive semidefinite X with q =
    tr X / 3, so p <= q <= lambda_max(X), the closed form is within
    (80 + 11 / sqrt(gap)) eps q of lambda_max(X):

    - 64 eps q where X is within rounding of scalar and r is taken as 1;
    - about 16 eps q from the roundings of q, of the shifted diagonal, of p
      and of the last operations;
    - 11 eps q / sqrt(gap) from r's rounding: the shifted diagonal keeps a
      trace of at most 13 eps q, which moves det(X - qI) by 3 p^2 times a
      third of it, so r by 6.5 eps q / p, and the determinant and 2 p^3 add
      about 20 eps; lambda_max moves by d lambda / dr <= p / sqrt(6 gap)
      times that, and the sum is at most 26.5 eps q / sqrt(6 gap).

    lambda_max(G) has q = tr G / 3 <= lambda_max(G); H has q = 2 tr G / 3,
    and forming H and subtracting its top eigenvalue from tr G add 6 eps q,
    while tr G's own rounding cancels.  The squared margin moves by at most
    the two errors' sum over lambda_max(G).  Where the top two eigenvalues of
    G or of H nearly meet (gap -> 0), the slack grows as 1 / sqrt(gap): the
    arccos argument r reaches -1, where arccos' slope is infinite.  H's top
    two meet where G's bottom two do, lambda_2 = lambda_3 of G.
    """
    N = G.shape[0]
    stack = np.empty((6, 2, N))
    g, h = stack[:, 0], stack[:, 1]
    g[...] = G[:, _GRAM_I, _GRAM_J].T
    trace = g[0] + g[1] + g[2]
    np.subtract(trace, g[:3], out=h[:3])
    np.negative(g[3:], out=h[3:])
    top, gap = np.empty((2, N)), np.empty((2, N))
    _top_eigenvalue(stack, top, gap, np.empty((7, 2, N)))
    with np.errstate(divide="ignore"):
        slack = (246.0 + 11.0 / np.sqrt(gap[0]) + 22.0 / np.sqrt(gap[1])) * np.finfo(float).eps
    return trace - top[1], top[0], slack


def _ratio(lo: np.ndarray, hi: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """lo / hi, and the mask of the odd ones: NaN or infinite, or with hi
    not positive and finite."""
    with np.errstate(divide="ignore", invalid="ignore"):
        sq = lo / hi
    return sq, ~(np.isfinite(sq) & (hi > 0) & np.isfinite(hi))


def _near_least(sq: np.ndarray, odd: np.ndarray, band: np.ndarray, tol: float) -> np.ndarray:
    """Mask of the screened squared margins ``sq`` whose band (per value) can
    reach the batch's least or tol^2, and of every ``odd`` one."""
    least = np.min((sq + band)[~odd], initial=math.inf)
    return odd | (sq - band <= least) | (np.abs(sq - tol * tol) <= 2 * band)


def _screen(reduced: np.ndarray, vs: np.ndarray, tol: float) -> np.ndarray:
    """Indices of the blades vs whose exact margin could be the least or at most tol.

    The squared margin of v is lambda_min / lambda_max of the n x n Gram
    G_v = W_v^T W_v of its images W_v in the (r, n, n) reduced stack, and one
    BLAS product forms every W_v of the batch.  Forming W_v and G_v rounds
    each Gram entry by at most gamma_{n r} sigma_1^2, so ||dG||_2 <= n^2 r eps
    sigma_1^2 to first order.  ``eigvalsh`` adds a backward error of about
    10 n eps ||G||_2, so a screened value is within u = (n^2 r + 10 n) eps of
    the exact squared margin.  For n = 3 the eigenvalues come from Smith's
    closed form instead (``_closed_form_extremes``), whose error, its slack,
    takes the place of 10 n eps in u, column by column.  Each value gets the
    band 4 u: two screened values are compared, and the margins' own SVD
    rounding comes on top.

    A blade is kept when its value less its band is at most the least value
    plus band over the batch, or when it lies within twice its band of tol^2.
    A blade that is not kept is not the least, and lies clearly above or
    clearly below tol; below it, the least, which is kept, is below tol too,
    so a Fail and its witness come from kept blades.  The band is wider than
    the tie floor (at most 2 _TIE_FLOOR on squared margins), so every blade
    tied with the least is kept.  The closed form's slack is never below
    246 eps, and it grows without bound where a Gram's top or bottom two
    eigenvalues meet, so every kept blade with a closed-form value is
    screened again by ``eigvalsh``, and the kept set is taken again with
    ``eigvalsh``'s band for them: it can only shrink.  So the fallback has no
    fixed gap cut; each column's own bound decides, and ``eigvalsh`` sees only
    the few columns that could matter.  A screened value that is NaN or
    infinite, or whose lambda_max is not positive and finite, is always kept,
    and so is every blade when r < n.
    """
    r, n = reduced.shape[:2]
    if r < n:
        return np.arange(vs.shape[0])
    eps = np.finfo(float).eps
    W = (vs @ reduced.reshape(r * n, n).T).reshape(-1, r, n)
    G = W.transpose(0, 2, 1) @ W
    # a Gram with a NaN or inf entry is screened as zero, so it is kept
    G = np.where(np.isfinite(G).all(axis=(1, 2))[:, None, None], G, 0.0)
    if n == 3:
        lo, hi, slack = _closed_form_extremes(G)
    else:
        lam = np.linalg.eigvalsh(G)
        lo, hi, slack = lam[:, 0], lam[:, -1], np.full(len(G), 10 * n * eps)
    sq, odd = _ratio(lo, hi)
    band = 4 * (n * n * r * eps + slack)
    kept = _near_least(sq, odd, band, tol)
    again = np.flatnonzero(kept & ~odd & (slack > 10 * n * eps))
    if again.size:
        lam = np.linalg.eigvalsh(G[again])
        sq[again], odd[again] = _ratio(lam[:, 0], lam[:, -1])
        band[again] = 4 * (n * n * r + 10 * n) * eps
        kept = _near_least(sq, odd, band, tol)
    return np.flatnonzero(kept)


def _rng_for(seed, index: int) -> np.random.Generator:
    # one stream per index, spawned from the seed: what index t draws does not
    # depend on the draws before it, so a larger sample count only appends
    return np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(index,)))


def _batches(samples: int, seed):
    """The seeded sample walk, ``_BATCH`` draws at a time: (draws before the
    batch, its size, its generator ``_rng_for(seed, batch index)``)."""
    for index, done in enumerate(range(0, samples, _BATCH)):
        yield done, min(_BATCH, samples - done), _rng_for(seed, index)


def _sampled_blades(d: int, m: int, samples: int, seed):
    """Seeded Gaussian candidate batches: (draws before the batch, coords, factors)."""
    for done, b, rng in _batches(samples, seed):
        yield (done, *_coords_of_factors(rng.standard_normal((b, d, m))))


def _annihilating_witness(
    CC: np.ndarray,
    d: int,
    m: int,
    v: np.ndarray,
    v_factors: np.ndarray,
    pool_coords: np.ndarray,
    pool_factors: np.ndarray,
    tol: float,
) -> FailWitness:
    """Witness for a candidate v whose images do not span: v plus an
    annihilating w, taken from the structured pool when one pairs to within
    tol, else the null direction of the images."""
    images = np.einsum("kij,j->ki", CC, v)
    k, n = images.shape
    # maps that share an eigenvector bit for bit (multiples of I, triangular
    # maps' e1) repeat pool rows exactly; duplicates pair identically, so only
    # each one's first row is paired, and i indexes those rows
    first = np.sort(np.unique(pool_coords, axis=0, return_index=True)[1])
    step = max(1, _PAIRING_ENTRIES // k)
    pairing = np.empty(len(first))
    for lo in range(0, len(pairing), step):
        block = images @ pool_coords[first[lo:lo + step]].T
        np.max(np.abs(block, out=block), axis=0, out=pairing[lo:lo + step])
    i = _first_least(pairing)
    j = int(first[i])
    if pairing[i] <= tol:
        w, w_factors, decomposable = pool_coords[j], pool_factors[j], True
    else:
        # the raw null direction is decomposable automatically only at the
        # extreme grades; with k >= n maps the reduced Vt is n x n and holds
        # it, and with fewer it lacks the null rows, so U is k x k only then
        null = np.linalg.svd(images, full_matrices=k < n)[2][-1]
        w, w_factors, decomposable = null, None, m in (1, d - 1)
    return FailWitness(
        m=m,
        v=ExteriorVector(d, m, v),
        w=ExteriorVector(d, m, w),
        w_decomposable=decomposable,
        v_factors=v_factors,
        w_factors=w_factors,
    )


def check_cm(
    fam: LinearFamily,
    m: int,
    samples: int = 1000,
    tol: float = DEFAULT_TOL,
    seed=0,
) -> Verdict:
    """Test condition C(m) on sampled and structured decomposable elements.

    Never returns a certified pass for 1 <= m <= d-1: a clean run of samples
    is only empirical evidence.  Fails are genuine and come with a witness.
    """
    d = fam.d
    _check_tol(tol)
    if not 0 <= m <= d:
        raise ValueError(f"grade must satisfy 0 <= m <= {d}, got {m}")
    if samples < 0:
        raise ValueError("samples must be nonnegative")
    if m in (0, d):
        return Verdict(
            kind=VerdictKind.CERTIFIED_PASS,
            m=m,
            margin=1.0,
            reason="grades 0 and d are spanned trivially by nonsingular maps",
        )
    n = math.comb(d, m)
    CC = _normalized_compounds(fam, m)
    reduced = _reduced_stack(CC)
    pool_coords, pool_factors = _coords_of_factors(_candidate_factors(fam, m))
    pool = pool_coords.shape[0]

    # one scan in a fixed order: the structured pool (drawn=None), then the
    # sampled batches; with too few maps every margin is zero, so the pool
    # alone decides
    scan = [(None, pool_coords, pool_factors)]
    if len(fam) >= n:
        scan = itertools.chain(scan, _sampled_blades(d, m, samples, seed))
    worst = math.inf
    for drawn, coords, factors in scan:
        # exact margins only where the screen says they can matter; +inf elsewhere
        margins = np.full(coords.shape[0], math.inf)
        kept = _screen(reduced, coords, tol)
        margins[kept] = _rank_margins(reduced, coords[kept])
        bad = np.flatnonzero(margins <= tol)
        if bad.size == 0:
            worst = min(worst, float(np.min(margins, initial=math.inf)))
            continue
        t = int(bad[_first_least(margins[bad])])
        if len(fam) < n:
            reason = f"cardinality: {len(fam)} maps < C({d},{m}) = {n}, images cannot span"
        elif drawn is None:
            reason = "rank deficiency at a structured candidate"
        else:
            reason = "rank deficiency at a sampled decomposable element"
        return Verdict(
            kind=VerdictKind.FAIL,
            m=m,
            samples=pool if drawn is None else pool + drawn + t + 1,
            margin=float(margins[t]),
            witness=_annihilating_witness(CC, d, m, coords[t], factors[t], pool_coords, pool_factors, tol),
            reason=reason,
        )
    return Verdict(kind=VerdictKind.EMPIRICAL_PASS, m=m, samples=samples + pool, margin=worst)


def _extend_to_quadruple(d: int, m: int, wit: FailWitness) -> FailWitness:
    """Lift a grade-m witness to a C(s) quadruple: each of v and w is wedged
    with the first basis vector e_j that gives the extension of largest norm.

    For j not in I, e_I ^ e_j is +-e_J at the one blade J = I u {j}, so x ^ e_j
    scatters +-x_I into blade J; the sign is the one minor of [e_I | e_j]
    restricted to the rows J."""
    lo, hi = _rows_array(d, m), _rows_array(d, m + 1)
    pair, js = np.nonzero(np.all(lo[:, :, None] != np.arange(d), axis=1))  # every (I, j), j not in I
    cols = np.column_stack([lo[pair], js])
    J = np.sort(cols, axis=1)
    signs = _wedge_batch((J[:, :, None] == cols[:, None, :]).astype(float))[:, 0]
    digits = d ** np.arange(m, -1, -1)  # base-d keys of sorted tuples keep their lex order
    blade = np.searchsorted(hi @ digits, J @ digits)

    def best_extension(x: ExteriorVector) -> ExteriorVector:
        ext = np.zeros((d, hi.shape[0]))  # row j is x ^ e_j
        ext[js, blade] = signs * x.coords[pair] + 0.0  # + 0.0: a zero coordinate lifts to +0.0
        j = max(range(d), key=lambda i: np.linalg.norm(ext[i]))
        return ExteriorVector(d, m + 1, ext[j])

    return replace(wit, v_wedge=best_extension(wit.v), w_wedge=best_extension(wit.w))


def _split_quadruple(d: int, m: int, wit: FailWitness) -> FailWitness:
    """Turn a grade-(m+1) witness into a quadruple: each grade-m part wedges
    the first m factors (the scalar 1 at m = 0), and stays unknown where the
    factors are."""

    def lower(factors):
        if m == 0:
            return ExteriorVector(d, 0, [1.0]), None
        if factors is None:
            return None, None
        f = factors[:, :m]
        return ExteriorVector(d, m, _wedge_batch(f[None])[0]), f

    (v, v_f), (w, w_f) = lower(wit.v_factors), lower(wit.w_factors)
    return FailWitness(
        m=m,
        v=v,
        w=w,
        w_decomposable=wit.w_decomposable,
        v_factors=v_f,
        w_factors=w_f,
        v_wedge=wit.v,
        w_wedge=wit.w,
    )


def _pairings(CC: np.ndarray, vs: np.ndarray, ws: np.ndarray) -> np.ndarray:
    """|<w_t | C_k v_t>| over the maps k, with v_t and w_t scaled to unit norm."""
    vs = vs / np.linalg.norm(vs, axis=1)[:, None]
    ws = ws / np.linalg.norm(ws, axis=1)[:, None]
    return np.abs(np.einsum("tm,kmn,tn->tk", ws, CC, vs))


def check_cs(
    fam: LinearFamily,
    s: float,
    samples: int = 1000,
    tol: float = DEFAULT_TOL,
    seed=0,
) -> Verdict:
    """Test condition C(s) for non-integral s in (0, d).

    Runs the necessary C(m) / C(m+1) prefilters with m = floor(s), then
    samples quadruples (v, v ^ v', w, w ^ w') and requires a single map to
    pair both grades above the tolerance.
    """
    d = fam.d
    _check_tol(tol)
    s = float(s)
    if not 0 < s < d:
        raise ValueError(f"s must lie in (0, {d}), got {s}")
    if s == math.floor(s):
        raise ValueError(f"s = {s} is an integer; condition C({int(s)}) is check_cm's job")
    if samples < 1:  # with no sampled quadruple a pass would have no margin
        raise ValueError(f"C(s) needs at least one sampled quadruple, got samples = {samples}")
    m = int(math.floor(s))

    for grade, tag, lift in ((m, 1, _extend_to_quadruple), (m + 1, 2, _split_quadruple)):
        sub = check_cm(fam, grade, samples=samples, tol=tol, seed=(seed, tag))
        if not sub.passed:
            return Verdict(
                kind=VerdictKind.FAIL,
                m=m,
                s=s,
                samples=sub.samples,
                margin=sub.margin,
                witness=lift(d, m, sub.witness),
                reason=f"necessary condition C({grade}) fails: {sub.reason}",
            )

    # at m = 0 the grade-0 blades and compounds are all [1], so the low
    # pairing is identically 1 and only grade m + 1 decides
    grades = (m, m + 1)
    CCs = [_normalized_compounds(fam, g) for g in grades]

    worst = math.inf
    for done, b, rng in _batches(samples, seed):
        X = rng.standard_normal((b, d, m + 1))
        Y = rng.standard_normal((b, d, m + 1))
        vs = [_wedge_batch(X[:, :, :g]) for g in grades]
        ws = [_wedge_batch(Y[:, :, :g]) for g in grades]
        keep = np.all([np.linalg.norm(x, axis=1) > 1e-12 for x in vs + ws], axis=0)
        pairs = [_pairings(CC, v[keep], w[keep]) for CC, v, w in zip(CCs, vs, ws)]
        joint = np.max(np.minimum(*pairs), axis=1)
        bad = np.flatnonzero(joint <= tol)
        if bad.size:
            t = int(bad[_first_least(joint[bad])])
            quad = FailWitness(
                m=m + 1,
                v=ExteriorVector(d, m + 1, vs[1][keep][t]),
                w=ExteriorVector(d, m + 1, ws[1][keep][t]),
                v_factors=X[keep][t],
                w_factors=Y[keep][t],
            )
            return Verdict(
                kind=VerdictKind.FAIL,
                m=m,
                s=s,
                samples=done + joint.size,
                margin=float(joint[t]),
                witness=_split_quadruple(d, m, quad),
                reason="no single map pairs both grades for a sampled quadruple",
            )
        worst = min(worst, float(np.min(joint, initial=math.inf)))

    return Verdict(kind=VerdictKind.EMPIRICAL_PASS, m=m, s=s, samples=samples, margin=worst)


# ---------------------------------------------------------------------------
# the two-map certificate


@dataclass(frozen=True, eq=False)
class CriterionReport:
    """Outcome of the two-map eigenstructure criterion.

    ``passed`` means: real simple eigenvalues with pairwise distinct ascending
    k-fold products for both maps, and every minor of the eigenbasis change
    matrix bounded away from zero.  The family of all compositions of the two
    maps up to ``certified_depth`` then satisfies C(s) for all 0 <= s <= d.
    """

    d: int
    f_eigenvalues: np.ndarray
    g_eigenvalues: np.ndarray
    product_margins_f: tuple[float, ...]
    product_margins_g: tuple[float, ...]
    change_of_basis: np.ndarray
    min_abs_minor: float
    minor_margin: float
    n0: int
    certified_depth: int
    passed: bool
    failure_stage: str | None = None

    def to_json_dict(self) -> dict:
        return {
            "d": self.d,
            "f_eigenvalues": [float(x) for x in self.f_eigenvalues],
            "g_eigenvalues": [float(x) for x in self.g_eigenvalues],
            # the k = d margin is vacuous (a single product, nothing to
            # separate); keep strict-JSON output by mapping inf to null
            "product_margins_f": [m if math.isfinite(m) else None for m in self.product_margins_f],
            "product_margins_g": [m if math.isfinite(m) else None for m in self.product_margins_g],
            "change_of_basis": [[float(x) for x in row] for row in self.change_of_basis],
            "min_abs_minor": self.min_abs_minor,
            "minor_margin": self.minor_margin,
            "n0": self.n0,
            "certified_depth": self.certified_depth,
            "passed": self.passed,
            "failure_stage": self.failure_stage,
        }


def _real_sorted_eigensystem(S: np.ndarray, which: str) -> tuple[np.ndarray, np.ndarray]:
    lam, vec = np.linalg.eig(S)
    scale = float(np.max(np.abs(lam))) or 1.0
    if np.any(np.abs(lam.imag) > 1e-12 * scale):
        raise UnsupportedEigenstructure(
            f"{which} has complex eigenvalues {np.array2string(lam, precision=4)}; "
            "the certificate needs d distinct real eigenvalues"
        )
    lam, vec = lam.real, vec.real
    order = np.argsort(-lam)
    lam, vec = lam[order], vec[:, order]
    vec = vec / np.linalg.norm(vec, axis=0)
    # deterministic sign: largest-magnitude component positive
    picks = np.argmax(np.abs(vec), axis=0)
    signs = np.sign(vec[picks, np.arange(vec.shape[1])])
    vec = vec * signs
    cond = np.linalg.cond(vec)
    if not np.isfinite(cond) or cond > 1e12:
        raise UnsupportedEigenstructure(
            f"{which} is defective or nearly so (eigenvector condition {cond:.2e}); "
            "repeated eigenvalues are not supported"
        )
    return lam, vec


def _product_margins(lam: np.ndarray, d: int) -> tuple[float, ...]:
    """Per-k least relative gap |a - b| / max(|a|, |b|) between k-fold eigenvalue
    products, taken between sorted neighbours: of two products of one sign,
    the larger's neighbour is at least as close, and two of opposite signs
    are at least 1 apart, more than any pair of one sign between them."""
    out = []
    for k in range(1, d + 1):
        prods = np.sort(np.prod(lam[_rows_array(d, k)], axis=1))
        if prods.size < 2:
            out.append(math.inf)
            continue
        a, b = prods[:-1], prods[1:]
        denom = np.maximum(np.maximum(np.abs(a), np.abs(b)), 1e-300)
        out.append(float(np.min(np.abs(b - a) / denom)))
    return tuple(out)


def criterion_cscm(F, G, tol: float = DEFAULT_TOL) -> CriterionReport:
    """Two-map certificate for the spanning condition at every grade.

    Checks that F and G each have d simple real eigenvalues whose ascending
    k-fold products are pairwise distinct for every k, and that the change of
    basis A from G's unit eigenvectors to F's has all minors of all orders
    nonzero; minors are exactly the entries of A's compound matrices and are
    compared to tol after normalizing by sigma_max(A)^order, so the verdict
    does not depend on how eigenvectors are scaled.
    """
    _check_tol(tol)
    F = np.asarray(F, dtype=float)
    G = np.asarray(G, dtype=float)
    if F.ndim != 2 or F.shape[0] != F.shape[1] or F.shape != G.shape:
        raise ValueError(f"F and G must be square of equal size, got {F.shape} and {G.shape}")
    d = F.shape[0]
    lam_f, E_f = _real_sorted_eigensystem(F, "F")
    lam_g, E_g = _real_sorted_eigensystem(G, "G")

    margins_f = _product_margins(lam_f, d)
    margins_g = _product_margins(lam_g, d)

    # columns of A expand F's eigenvectors in G's eigenbasis
    A = np.linalg.solve(E_g, E_f)

    sig1 = float(np.linalg.norm(A, 2))
    min_abs = math.inf
    margin = math.inf
    for k in range(1, d + 1):
        minors = compound_matrix(A, k).entries
        min_abs = min(min_abs, float(np.min(np.abs(minors))))
        margin = min(margin, float(np.min(np.abs(minors))) / sig1**k)

    n0 = max(math.comb(d, m) for m in range(d + 1))
    depth = 2 * n0 * n0

    stage = None
    if min(margins_f) <= tol:
        stage = "eigenvalue-products:F"
    elif min(margins_g) <= tol:
        stage = "eigenvalue-products:G"
    elif margin <= tol:
        stage = "minors"

    return CriterionReport(
        d=d,
        f_eigenvalues=lam_f,
        g_eigenvalues=lam_g,
        product_margins_f=margins_f,
        product_margins_g=margins_g,
        change_of_basis=A,
        min_abs_minor=min_abs,
        minor_margin=margin,
        n0=n0,
        certified_depth=depth,
        passed=stage is None,
        failure_stage=stage,
    )


# ---------------------------------------------------------------------------
# empirical (c, s)-fullness


@dataclass(frozen=True, eq=False)
class FullnessEstimate:
    """An empirical upper bound for the fullness constant.

    ``c_hat`` is the minimum of sum_j phi_s(U S_j V) / (phi_s(U) phi_s(V))
    over the sampled pairs, so the true constant can only be smaller; this is
    never a certificate that the family is (c, s)-full.
    """

    c_hat: float
    worst_U: np.ndarray
    worst_V: np.ndarray
    samples: int


def _fullness_pair(rng: np.random.Generator, d: int, index: int) -> tuple[np.ndarray, np.ndarray]:
    """Pair stream: mostly Gaussian, every fourth pair an adversarial diagonal
    couple with geometrically shrinking aspect ratio, rotations alternating
    between the outside (pure diagonal probe) and the inside."""
    if index % 4 == 3:
        t = index // 4
        eps = 2.0 ** (-2.0 - 0.5 * t)
        eps = max(eps, 1e-12)
        diag_u = np.diag(np.logspace(0.0, math.log10(eps), d))
        diag_v = np.diag(np.logspace(math.log10(eps), 0.0, d))
        q1 = np.linalg.qr(rng.standard_normal((d, d)))[0]
        q2 = np.linalg.qr(rng.standard_normal((d, d)))[0]
        if (index // 4) % 2 == 0:
            return q1 @ diag_u, diag_v @ q2
        return diag_u @ q1, q2 @ diag_v
    for _ in range(64):
        U = rng.standard_normal((d, d))
        V = rng.standard_normal((d, d))
        su = np.linalg.svd(U, compute_uv=False)
        sv = np.linalg.svd(V, compute_uv=False)
        if su[-1] > 1e-8 * su[0] and sv[-1] > 1e-8 * sv[0]:
            return U, V
    raise RuntimeError("could not draw a well conditioned sample pair")


def estimate_fullness(
    fam: LinearFamily,
    s: float,
    sample_count: int = 1000,
    seed=0,
) -> FullnessEstimate:
    """Probe the fullness inequality over sampled and adversarial (U, V) pairs.

    The sample at index t depends only on (seed, t), so enlarging
    ``sample_count`` extends the stream and the estimate is monotone
    nonincreasing in it.  Each ratio is taken in log form, its sum over the
    family shifted by the largest term, so phi_s far below the smallest
    double does not underflow; a ``c_hat`` below the normal double range is
    refused.  For s >= d, phi_s = |det|^(s/d) is multiplicative, so every
    pair's ratio is sum_j |det S_j|^(s/d): it is taken from the maps' own
    log|det| (``np.linalg.slogdet``), and the first pair is the worst.  The
    SVD of U S_j V would lose its smallest singular values' relative accuracy
    at the adversarial pairs' condition numbers, and phi_s raises that error
    to the power s / d.
    """
    if sample_count < 1:
        raise ValueError("sample_count must be positive")
    s = float(s)
    d = fam.d

    def log_phi(mats):  # log phi_s of a (..., d, d) stack
        return _log_phi(np.moveaxis(np.log(np.linalg.svd(mats, compute_uv=False)), -1, 0), s)

    pairs = (_fullness_pair(_rng_for(seed, t), d, t) for t in range(sample_count))
    if s >= d:
        with np.errstate(over="ignore"):  # a huge s gives -inf, refused below
            log_c_hat = float(np.logaddexp.reduce((s / d) * np.linalg.slogdet(fam.maps)[1]))
        worst = next(pairs)
    else:
        log_c_hat, worst = math.inf, None
        for U, V in pairs:
            terms = log_phi(np.einsum("ij,kjl,lm->kim", U, fam.maps, V))
            top = np.max(terms)
            log_ratio = float(top + np.log(np.sum(np.exp(terms - top))) - log_phi(U) - log_phi(V))
            if log_ratio < log_c_hat:
                log_c_hat = log_ratio
                worst = (U, V)
    c_hat = math.exp(log_c_hat)
    if c_hat < sys.float_info.min:
        raise ValueError(f"c_hat at s = {s!r} is below the normal double range: "
                         f"log c_hat = {log_c_hat!r}")
    return FullnessEstimate(c_hat=c_hat, worst_U=worst[0], worst_V=worst[1], samples=sample_count)
