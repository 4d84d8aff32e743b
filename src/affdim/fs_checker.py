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
pool.  A family with fewer maps than C(d, m) can never span, so its scan stops
after the pool.  ``check_cs`` runs ``check_cm`` at grades m and m + 1 as
prefilters, lifting a grade fail to a quadruple witness, and then samples
quadruples.  The certifying route is ``criterion_cscm``: a pair (F, G) with
distinct-product real eigenvalue tuples whose eigenbasis change matrix has
every minor nonzero guarantees that the family of all compositions of F and
G up to depth 2 * n0^2 satisfies C(s) for every 0 <= s <= d, where
n0 = max_m C(d, m).

All pass/fail thresholds are applied to scale-free quantities: compounds are
normalized by their spectral norms, minors by sigma_max(A)^order, so scaling
any map or eigenvector never flips a verdict.
"""

from __future__ import annotations

import enum
import itertools
import math
from dataclasses import dataclass, field

import numpy as np

from .exterior_algebra import (
    ExteriorVector,
    _compounds,
    _wedge_batch,
    _wedge_with_vector,
    compound_matrix,
)
from .singular_values import _nonsingular_spectra, phi_from_singular_values

__all__ = [
    "DEFAULT_TOL",
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


class UnsupportedEigenstructure(ValueError):
    """Raised when a map has complex or (near-)defective eigenvalues."""


@dataclass(frozen=True, eq=False)
class LinearFamily:
    """A family of nonsingular d x d matrices, ``maps``: one read-only (k, d, d) array."""

    d: int
    maps: np.ndarray

    def __post_init__(self):
        maps = np.array(self.maps, dtype=float)
        if maps.size == 0:
            raise ValueError("family must contain at least one map")
        if maps.shape[1:] != (self.d, self.d):
            raise ValueError(f"maps has shape {maps.shape}, expected (k, {self.d}, {self.d})")
        _nonsingular_spectra(maps, "maps")
        maps.setflags(write=False)
        object.__setattr__(self, "maps", maps)

    @classmethod
    def from_matrices(cls, mats) -> "LinearFamily":
        mats = np.asarray(mats, dtype=float)
        return cls(mats.shape[-1], mats)

    def __len__(self) -> int:
        return len(self.maps)

    def __iter__(self):
        return iter(self.maps)


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


def iterate_closure(fam: LinearFamily, depth: int, cap: int = 10**6) -> LinearFamily:
    """All compositions S_{i1} @ ... @ S_{ij} for 1 <= j <= depth, word order."""
    if depth < 1:
        raise ValueError(f"closure depth must be >= 1, got {depth}")
    k = len(fam)
    total = sum(k**j for j in range(1, depth + 1))
    if total > cap:
        raise ValueError(
            f"closure would contain {total} maps, above the cap {cap}; "
            "lower the depth or raise the cap explicitly"
        )
    # level j + 1 is every map times every level-j word: (k, L) -> k * L
    levels = [fam.maps]
    for _ in range(2, depth + 1):
        levels.append((fam.maps[:, None] @ levels[-1][None]).reshape(-1, fam.d, fam.d))
    return LinearFamily(fam.d, np.concatenate(levels))


# ---------------------------------------------------------------------------
# normalized compounds and candidate test vectors


def _normalized_compounds(fam: LinearFamily, m: int) -> np.ndarray:
    """Stack of grade-m compounds, each divided by its spectral norm."""
    C = _compounds(fam.maps, m)
    return C / np.linalg.norm(C, 2, axis=(1, 2))[:, None, None]


def _candidate_factors(fam: LinearFamily, m: int) -> list[np.ndarray]:
    """Deterministic decomposable candidates: coordinate blades, then wedges
    of each map's unit real eigenvectors."""
    d = fam.d
    eye = np.eye(d)
    out = [eye[:, list(c)] for c in itertools.combinations(range(d), m)]
    lam, vec = np.linalg.eig(fam.maps)
    real = np.abs(lam.imag) <= 1e-9 * np.max(np.abs(lam), axis=1, keepdims=True)
    for keep, V in zip(real, vec):
        cols = V[:, keep].real
        norms = np.linalg.norm(cols, axis=0)
        vecs = cols[:, norms > 1e-12] / norms[norms > 1e-12]
        out.extend(vecs[:, list(c)] for c in itertools.combinations(range(vecs.shape[1]), m))
    return out


def _coords_of_factors(factors: list[np.ndarray]) -> tuple[np.ndarray, list[np.ndarray]]:
    """Unit blade coordinates for each factor stack, dropping degenerate ones."""
    stack = np.stack(factors)
    coords = _wedge_batch(stack)
    norms = np.linalg.norm(coords, axis=1)
    keep = norms > 1e-12
    return coords[keep] / norms[keep, None], [f for f, k in zip(factors, keep) if k]


def _rank_margins(CC: np.ndarray, vs: np.ndarray) -> np.ndarray:
    """For each test vector v, sigma_n / sigma_1 of the stacked images S_i v.

    CC is (k, n, n), vs is (N, n); the margin is zero exactly when the images
    fail to span, and is invariant under rescaling any single map.
    """
    k, n = CC.shape[:2]
    if k < n:  # fewer maps than the blade count: can never span
        return np.zeros(vs.shape[0])
    W = np.einsum("kij,tj->tki", CC, vs)
    sv = np.linalg.svd(W, compute_uv=False)
    return sv[:, n - 1] / sv[:, 0]


def _rng_for(seed, index: int) -> np.random.Generator:
    # splittable per-batch streams: results do not depend on how batches are
    # scheduled across workers, only on their indices
    return np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(index,)))


def _check_tol(tol: float) -> None:
    if not (math.isfinite(tol) and tol >= 0):
        raise ValueError(f"tol must be finite and >= 0, got {tol}")


def _sampled_blades(d: int, m: int, samples: int, seed):
    """Seeded Gaussian candidate batches: (draws before the batch, coords, factors)."""
    done = 0
    batch_index = 0
    while done < samples:
        b = min(_BATCH, samples - done)
        factors = _rng_for(seed, batch_index).standard_normal((b, d, m))
        yield (done, *_coords_of_factors(list(factors)))
        done += b
        batch_index += 1


def _annihilating_witness(
    CC: np.ndarray,
    d: int,
    m: int,
    v: np.ndarray,
    v_factors: np.ndarray,
    pool_coords: np.ndarray,
    pool_factors: list[np.ndarray],
    tol: float,
) -> FailWitness:
    """Witness for a candidate v whose images do not span: v plus an
    annihilating w, taken from the structured pool when one pairs to within
    tol, else the null direction of the images."""
    images = np.einsum("kij,j->ki", CC, v)
    pairing = np.max(np.abs(images @ pool_coords.T), axis=0)
    j = int(np.argmin(pairing))
    if pairing[j] <= tol:
        w, w_factors, decomposable = pool_coords[j], pool_factors[j], True
    else:
        # the raw null direction is decomposable automatically only at the
        # extreme grades
        w, w_factors, decomposable = np.linalg.svd(images)[2][-1], None, m in (1, d - 1)
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
    if m in (0, d):
        return Verdict(
            kind=VerdictKind.CERTIFIED_PASS,
            m=m,
            margin=1.0,
            reason="grades 0 and d are spanned trivially by nonsingular maps",
        )
    if samples < 0:
        raise ValueError("samples must be nonnegative")
    n = math.comb(d, m)
    CC = _normalized_compounds(fam, m)
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
        margins = _rank_margins(CC, coords)
        bad = np.flatnonzero(margins <= tol)
        if bad.size == 0:
            worst = min(worst, float(np.min(margins, initial=math.inf)))
            continue
        t = int(bad[np.argmin(margins[bad])])
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
    """Lift a grade-m witness to a C(s) quadruple by wedging on basis vectors."""

    def best_extension(x: ExteriorVector) -> ExteriorVector:
        best, best_norm = None, -1.0
        for j in range(d):
            e = np.zeros(d)
            e[j] = 1.0
            cand = _wedge_with_vector(x, e)
            nn = cand.norm()
            if nn > best_norm:
                best, best_norm = cand, nn
        return best

    return FailWitness(
        m=m,
        v=wit.v,
        w=wit.w,
        w_decomposable=wit.w_decomposable,
        v_factors=wit.v_factors,
        w_factors=wit.w_factors,
        v_wedge=best_extension(wit.v),
        w_wedge=best_extension(wit.w),
    )


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
    done = 0
    batch_index = 0
    while done < samples:
        b = min(_BATCH, samples - done)
        rng = _rng_for(seed, batch_index)
        X = rng.standard_normal((b, d, m + 1))
        Y = rng.standard_normal((b, d, m + 1))
        vs = [_wedge_batch(X[:, :, :g]) for g in grades]
        ws = [_wedge_batch(Y[:, :, :g]) for g in grades]
        keep = np.all([np.linalg.norm(x, axis=1) > 1e-12 for x in vs + ws], axis=0)
        pairs = [_pairings(CC, v[keep], w[keep]) for CC, v, w in zip(CCs, vs, ws)]
        joint = np.max(np.minimum(*pairs), axis=1)
        t = int(np.argmin(joint))
        if joint[t] <= tol:
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
        worst = min(worst, float(joint[t]))
        done += b
        batch_index += 1

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
    """Per-k minimal relative gap between ascending k-fold eigenvalue products."""
    out = []
    for k in range(1, d + 1):
        prods = np.array([np.prod(lam[list(c)]) for c in itertools.combinations(range(d), k)])
        if prods.size < 2:
            out.append(math.inf)
            continue
        gap = math.inf
        for a, b in itertools.combinations(range(prods.size), 2):
            denom = max(abs(prods[a]), abs(prods[b]), 1e-300)
            gap = min(gap, abs(prods[a] - prods[b]) / denom)
        out.append(float(gap))
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
    nonincreasing in it.
    """
    if sample_count < 1:
        raise ValueError("sample_count must be positive")
    s = float(s)
    d = fam.d
    c_hat = math.inf
    worst = None
    for t in range(sample_count):
        rng = _rng_for(seed, t)
        U, V = _fullness_pair(rng, d, t)
        prods = np.einsum("ij,kjl,lm->kim", U, fam.maps, V)
        sv = np.linalg.svd(prods, compute_uv=False)
        total = float(np.sum(phi_from_singular_values(sv, s)))
        denom = float(
            phi_from_singular_values(np.linalg.svd(U, compute_uv=False), s)
            * phi_from_singular_values(np.linalg.svd(V, compute_uv=False), s)
        )
        ratio = total / denom
        if ratio < c_hat:
            c_hat = ratio
            worst = (U, V)
    return FullnessEstimate(c_hat=c_hat, worst_U=worst[0], worst_V=worst[1], samples=sample_count)
