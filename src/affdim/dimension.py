"""Affinity dimension via the pressure zero, cross-checked by box counting.

The finite-level pressure p_k(s) = log S(k, s) / k is strictly decreasing in
s for a tree of strict contractions, and convex on each piece [m - 1, m] and
on [d, inf), so its zero is found by tangent and chord steps, each pass
reading log S(k, s) and its slope sum at several s at once from the
log-domain partition sums of ``code_tree`` (a transfer product in d = 1).
Under the standard hypotheses (all singular values in (0, 1/2)) the
attractor dimension equals min(s0, d) for typical translation assignments,
which the box-counting estimate of an enumerated cylinder cloud is expected
to reproduce; a large disagreement is flagged as a possibly non-generic
translation choice rather than silently ignored.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass

import numpy as np

from .code_tree import CodeTreeRealization, _level_sums, enumerate_points, partition_sums
from .singular_values import _check_tol, _exponent

__all__ = [
    "HypothesisViolation",
    "PressureCurve",
    "PressureZeroResult",
    "BoxCountFit",
    "DimensionReport",
    "pressure_curve",
    "pressure_zero",
    "box_dimension",
    "dimension_report",
]

_MONOTONE_TOL = 1e-10
# pressure_zero makes at most this many passes, and reports a zero above
# max(d, _S_CAP) as _S_CAP, flagged
_MAX_PASSES = 60
_S_CAP = 64.0
# dimension_report flags a pressure dimension and box estimate this far apart
_FLAG_TOL = 0.25


class HypothesisViolation(RuntimeError):
    """A run asked for a conclusion whose hypotheses the system violates."""


def _require_increasing(s_grid: np.ndarray) -> None:
    if np.any(np.diff(s_grid) <= 0):
        raise ValueError("s grid must be strictly increasing")


@dataclass(frozen=True, eq=False)
class PressureCurve:
    """p_k on a grid, with a finite-size diagnostic |p_k - p_{k//2}|."""

    s: np.ndarray
    p: np.ndarray
    k: int
    k_half: int
    diagnostic: np.ndarray

    def __post_init__(self):
        s = np.array(self.s, dtype=float)
        p = np.array(self.p, dtype=float)
        diag = np.array(self.diagnostic, dtype=float)
        if not (s.shape == p.shape == diag.shape) or s.ndim != 1:
            raise ValueError("grid, values and diagnostics must be equal-length vectors")
        _require_increasing(s)
        finite = np.isfinite(p) & np.isfinite(diag)
        if not finite.all():
            raise ValueError(f"pressure is not finite at s = {float(s[~finite][0])!r}: "
                             "log phi_s of a word underflowed past the double range")
        if np.any(np.diff(p) > _MONOTONE_TOL):
            raise ValueError(
                "pressure values are not decreasing along the grid; "
                "this cannot happen for strict contractions"
            )
        for arr in (s, p, diag):
            arr.setflags(write=False)
        object.__setattr__(self, "s", s)
        object.__setattr__(self, "p", p)
        object.__setattr__(self, "diagnostic", diag)


def pressure_curve(
    tree: CodeTreeRealization,
    s_grid,
    k: int,
) -> PressureCurve:
    """Evaluate p_k over a grid, plus the p_{k//2} comparison diagnostic.

    A negative, nan or not strictly increasing grid is refused before the
    first word is enumerated.
    """
    s_grid = np.array([_exponent(s) for s in s_grid])
    if k < 1:
        raise ValueError("k must be >= 1")
    _require_increasing(s_grid)
    k_half = max(1, k // 2)
    p = partition_sums(tree, k, s_grid) / k
    p_half = partition_sums(tree, k_half, s_grid) / k_half
    diagnostic = np.abs(p - p_half)
    return PressureCurve(s=s_grid, p=p, k=k, k_half=k_half, diagnostic=diagnostic)


@dataclass(frozen=True)
class PressureZeroResult:
    """The level-k pressure zero ``s0`` and what the search knows about it.

    ``bracket`` is [tangent root, chord root], which holds the level-k zero
    up to rounding in p_k, and ``s0`` lies in it; ``p_bound`` bounds
    |p_k(s0)|; ``iterations`` counts passes.  A flagged result
    (zero at s = 0, above the cap, or not reached) has no such bracket.
    """

    s0: float
    bracket: tuple[float, float]
    p_bound: float
    iterations: int
    flag: str | None = None


@dataclass(frozen=True)
class _Point:
    s: float
    p: float
    dp: float  # right derivative of p_k


def pressure_zero(
    tree: CodeTreeRealization,
    k: int,
    tol: float = 1e-6,
) -> PressureZeroResult:
    """Find the zero of the decreasing p_k by tangent and chord, to |p| <= tol.

    On each piece [m - 1, m], m <= d, and on [d, inf), log phi_s of every word
    is affine in s, so p_k is a log-sum-exp of affine functions there: convex
    as well as decreasing.  Each pass evaluates p_k and its right derivative
    p_k' at several s at once, as ``code_tree._level_sums`` serves them: one
    transfer product for d = 1, one enumeration for d >= 2, or a fold over
    the level's log spectra, kept from one enumeration when they fit its
    cache.  The first takes s = 0, 1, ..., d, which picks the piece that
    holds the zero.  Let a be the largest point
    so far with p > 0 and b the smallest with p <= 0.  The tangent root t of
    p_k at a is then a lower bound on the zero and the chord root c between
    a and b an upper bound, and each later pass evaluates both.  The search
    stops when p(a) <= tol, with s0 = t, since p(t) lies in [0, p(a)]; when
    |p'(a)| (c - t) <= tol, which bounds |p| on all of [t, c] because p'
    rises along the piece, with s0 the root of the convex quadratic through
    p(a), p'(a) and p(b), which lies in [t, c]; or when |p(b)| <= tol, with
    s0 = c.

    If p_k(0) <= 0 (a single branch) the zero is at s = 0 and is returned
    flagged; if p_k is still positive at max(d, ``_S_CAP``) the result is
    capped at ``_S_CAP`` and flagged instead of searching on.  ``_MAX_PASSES``
    bounds the passes once the zero is bracketed.
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    _check_tol(tol)
    d = tree.d
    level_sums = _level_sums(tree, k)
    points: list[_Point] = []
    passes = 0

    def evaluate(s_values):
        nonlocal passes
        passes += 1
        sums = level_sums(s_values)
        dp = -np.exp(sums[1] - sums[0]) / k
        points.extend(_Point(s, float(v) / k, float(g)) for s, v, g in zip(s_values, sums[0], dp))

    evaluate([float(m) for m in range(d + 1)])
    if points[0].p <= 0.0:
        return PressureZeroResult(0.0, (0.0, 0.0), -points[0].p, passes,
                                  flag="pressure nonpositive at s = 0")
    while True:
        b = min((q for q in points if q.p <= 0.0), key=lambda q: q.s, default=None)
        a = max((q for q in points if q.p > 0.0 and (b is None or q.s < b.s)), key=lambda q: q.s)
        t = a.s - a.p / a.dp if a.dp < 0.0 else a.s
        if b is None:  # the zero lies above every point so far, on [d, inf)
            if t >= _S_CAP:
                return PressureZeroResult(_S_CAP, (_S_CAP, _S_CAP), a.p, passes,
                                          flag=f"pressure still positive at the cap {_S_CAP}")
            evaluate([t, _S_CAP])
            continue
        c = a.s + a.p * (b.s - a.s) / (a.p - b.p)
        bracket = (min(t, c), max(t, c))  # t <= c up to rounding
        width = -a.dp * (bracket[1] - bracket[0]) if a.dp < 0.0 else math.inf
        if a.p <= tol:
            return PressureZeroResult(t, bracket, min(a.p, width), passes)
        if width <= tol:
            # any s in [t, c] will do: take the root of the convex quadratic
            # through p(a), p'(a) and p(b), which lies between t and c
            curve = (b.p - a.p - a.dp * (b.s - a.s)) / (b.s - a.s) ** 2
            x = a.s + 2.0 * a.p / (math.sqrt(max(a.dp * a.dp - 4.0 * curve * a.p, 0.0)) - a.dp)
            return PressureZeroResult(min(max(x, bracket[0]), bracket[1]), bracket, width, passes)
        if abs(b.p) <= tol:
            return PressureZeroResult(c, bracket, min(abs(b.p), width), passes)
        if passes >= _MAX_PASSES or (t <= a.s and c >= b.s):
            bound = min(a.p, width)
            return PressureZeroResult(t, bracket, bound, passes,
                                      flag=f"tangent and chord stopped at |p| <= {bound:.3e} > tol")
        evaluate([t, c])


def _distinct_rows(keys: np.ndarray) -> np.ndarray:
    """The distinct rows of an (N, d) integer array, sorted."""
    keys = keys[np.lexsort(keys.T)]
    fresh = np.empty(keys.shape[0], dtype=bool)
    fresh[0] = True
    np.any(keys[1:] != keys[:-1], axis=1, out=fresh[1:])
    return keys[fresh]


@dataclass(frozen=True, eq=False)
class BoxCountFit:
    estimate: float
    slope_stderr: float
    residual_rms: float
    scales: tuple[int, ...]
    counts: tuple[int, ...]

    def to_json_dict(self) -> dict:
        return asdict(self)


def box_dimension(points, j_min: int, j_max: int) -> BoxCountFit:
    """Least-squares slope of log N(2^-j) against j log 2 over dyadic scales.

    N counts occupied boxes of the grid of side 2^-j anchored at the origin.
    Needs at least 1000 points and a nondegenerate cloud.

    The boxes nest: x * 2^j is exact in binary floating point, so the int64
    box key floor(x * 2^j) equals floor(x * 2^j_max) >> (j_max - j), negative
    coordinates included.  The keys are therefore built and deduplicated once
    at j_max, and each coarser scale shifts the previous scale's distinct
    boxes right by one bit and deduplicates those.  Every finest key must fit
    in int64, i.e. max |coordinate| * 2^j_max < 2^63; a larger ``j_max`` is
    rejected with the largest usable one, since one overflowed key would
    corrupt every scale.
    """
    points = np.asarray(points, dtype=float)
    if points.ndim != 2:
        raise ValueError(f"points must be an (N, d) array, got shape {points.shape}")
    if points.shape[1] < 1:
        raise ValueError("points have no coordinate columns x1, ..., xd; at least one is needed")
    if not np.all(np.isfinite(points)):
        raise ValueError("points must be finite; the cloud holds a nan or inf coordinate")
    n, _ = points.shape
    if n < 1000:
        raise ValueError(f"box counting needs at least 1000 points, got {n}")
    if not 1 <= j_min < j_max:
        raise ValueError(f"need 1 <= j_min < j_max, got ({j_min}, {j_max})")
    if float(np.max(np.ptp(points, axis=0))) == 0.0:
        raise ValueError("degenerate point cloud: all points identical")
    # max |x| = m * 2^e with 1/2 <= m < 1, so |x| * 2^j < 2^63 iff j <= 63 - e
    j_top = 63 - math.frexp(float(np.max(np.abs(points))))[1]
    if j_max > j_top:
        raise ValueError(
            f"j_max = {j_max} overflows the int64 box keys of this cloud: "
            f"max |coordinate| * 2^j_max must stay below 2^63, so j_max can be at most {j_top}"
        )
    js = list(range(j_min, j_max + 1))
    boxes = _distinct_rows(np.floor(np.ldexp(points, j_max)).astype(np.int64))
    counts = [boxes.shape[0]]
    for _ in range(j_max - j_min):
        boxes = _distinct_rows(boxes >> 1)
        counts.append(boxes.shape[0])
    counts.reverse()
    x = np.array(js, dtype=float) * math.log(2.0)
    y = np.log(np.array(counts, dtype=float))
    slope, intercept = np.polyfit(x, y, 1)
    resid = y - (slope * x + intercept)
    dof = max(len(js) - 2, 1)
    sxx = float(np.sum((x - x.mean()) ** 2))
    stderr = math.sqrt(float(np.sum(resid**2)) / dof / sxx)
    return BoxCountFit(
        estimate=float(slope),
        slope_stderr=stderr,
        residual_rms=float(np.sqrt(np.mean(resid**2))),
        scales=tuple(js),
        counts=tuple(counts),
    )


@dataclass(frozen=True, eq=False)
class DimensionReport:
    s0: float
    dimension: float  # min(s0, d)
    box_estimate: float
    box_band: tuple[float, float]
    box_scales: tuple[int, ...]
    point_count: int
    pressure: PressureZeroResult
    flag: str | None

    def to_json_dict(self) -> dict:
        return {
            "s0": self.s0,
            "dimension": self.dimension,
            "box_estimate": self.box_estimate,
            "box_band": list(self.box_band),
            "box_scales": list(self.box_scales),
            "point_count": self.point_count,
            "pressure_flag": self.pressure.flag,
            "pressure_bracket": list(self.pressure.bracket),
            "flag": self.flag,
        }


def dimension_report(
    tree: CodeTreeRealization,
    k: int,
    depth: int,
    tol: float = 1e-6,
    j_min: int = 2,
    j_max: int | None = None,
) -> DimensionReport:
    """Pressure zero at level k against box counting of depth-``depth`` points.

    Requires every singular value in (0, 1/2); otherwise the dimension formula
    min(s0, d) carries no guarantee and the run is refused.  The report is
    flagged when min(s0, d) and the box estimate differ by more than
    ``_FLAG_TOL``.
    """
    sig_hi = tree.sigma_max()
    sig_lo = tree.sigma_min()
    if not 0.0 < sig_lo <= sig_hi < 0.5:
        raise HypothesisViolation(
            f"dimension formula requires 0 < sigma_min <= sigma_max < 1/2, "
            f"got [{sig_lo:.6g}, {sig_hi:.6g}]"
        )
    pz = pressure_zero(tree, k, tol=tol)
    points, _ = enumerate_points(tree, depth, 0.0)
    if j_max is None:
        # stop above the composition resolution sigma_max^depth
        j_res = int(math.floor(depth * math.log2(1.0 / sig_hi)))
        j_max = max(j_min + 2, min(j_res - 2, 12))
    fit = box_dimension(points, j_min, j_max)
    dim = min(pz.s0, float(tree.d))
    flag = None
    if abs(dim - fit.estimate) > _FLAG_TOL:
        flag = (
            f"pressure dimension {dim:.4f} and box estimate {fit.estimate:.4f} disagree "
            "beyond tolerance; translation assignment may be non-generic"
        )
    return DimensionReport(
        s0=pz.s0,
        dimension=dim,
        box_estimate=fit.estimate,
        box_band=(fit.estimate - 2 * fit.slope_stderr, fit.estimate + 2 * fit.slope_stderr),
        box_scales=fit.scales,
        point_count=points.shape[0],
        pressure=pz,
        flag=flag,
    )
