"""Affinity dimension via the pressure zero, cross-checked by box counting.

The finite-level pressure p_k(s) = log S(k, s) / k is strictly decreasing in
s for a tree of strict contractions, so its zero is found by doubling out a
bracket and bisecting.  Under the standard hypotheses (all singular values in
(0, 1/2)) the attractor dimension equals min(s0, d) for typical translation
assignments, which the box-counting estimate of an enumerated cylinder cloud
is expected to reproduce; a large disagreement is flagged as a possibly
non-generic translation choice rather than silently ignored.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .code_tree import CodeTreeRealization, _map_words, enumerate_points, partition_sums
from .fs_checker import _check_tol
from .singular_values import phi_from_singular_values

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
# pressure_zero keeps every word's spectrum in memory up to this many words
_SPECTRUM_CACHE_WORDS = 10**6


class HypothesisViolation(RuntimeError):
    """A run asked for a conclusion whose hypotheses the system violates."""


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
        if np.any(np.diff(s) <= 0):
            raise ValueError("s grid must be strictly increasing")
        if not (np.all(np.isfinite(p)) and np.all(np.isfinite(diag))):
            bad = float(s[~(np.isfinite(p) & np.isfinite(diag))][0])
            raise ValueError(
                f"pressure is not finite at s = {bad!r}: the partition sum underflowed "
                "to 0 in double precision"
            )
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
    threads: int = 1,
) -> PressureCurve:
    """Evaluate p_k over a grid, plus the p_{k//2} comparison diagnostic."""
    s_grid = np.array([float(s) for s in s_grid])
    if k < 1:
        raise ValueError("k must be >= 1")
    k_half = max(1, k // 2)
    S = partition_sums(tree, k, s_grid, threads=threads)
    S_half = partition_sums(tree, k_half, s_grid, threads=threads)
    # an underflowed sum gives a non-finite p, which PressureCurve rejects
    with np.errstate(divide="ignore", invalid="ignore"):
        p = np.log(S) / k
        p_half = np.log(S_half) / k_half
        diagnostic = np.abs(p - p_half)
    return PressureCurve(s=s_grid, p=p, k=k, k_half=k_half, diagnostic=diagnostic)


@dataclass(frozen=True)
class PressureZeroResult:
    s0: float
    bracket: tuple[float, float]
    p_value: float
    iterations: int
    flag: str | None = None


def pressure_zero(
    tree: CodeTreeRealization,
    k: int,
    tol: float = 1e-6,
    max_iter: int = 60,
    s_cap: float = 64.0,
    threads: int = 1,
) -> PressureZeroResult:
    """Bisect the strictly decreasing p_k to |p| <= tol.

    If p_k(0) <= 0 (a single branch) the zero is at s = 0 and is returned
    flagged; if p_k stays positive all the way to ``s_cap`` the result is
    capped and flagged instead of looping forever.
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    _check_tol(tol)

    # cache the word spectra once when affordable: bisection then costs
    # nothing beyond vector arithmetic
    cache = None
    if tree.word_count(k) <= _SPECTRUM_CACHE_WORDS:
        cache = np.concatenate(
            _map_words(tree, k, lambda spectra, _: spectra, threads), axis=0
        )

    def p(s: float) -> float:
        if cache is not None:
            return math.log(float(np.sum(phi_from_singular_values(cache, s)))) / k
        return float(np.log(partition_sums(tree, k, [s], threads=threads))[0]) / k

    p0 = p(0.0)
    if p0 <= 0.0:
        return PressureZeroResult(0.0, (0.0, 0.0), p0, 0, flag="pressure nonpositive at s = 0")

    lo, hi = 0.0, 1.0
    p_hi = p(hi)
    while p_hi > 0.0:
        lo, hi = hi, hi * 2.0
        if hi > s_cap:
            return PressureZeroResult(
                s_cap, (lo, hi), p_hi, 0, flag=f"pressure still positive at the cap {s_cap}"
            )
        p_hi = p(hi)

    mid, p_mid = hi, p_hi
    iterations = 0
    for iterations in range(1, max_iter + 1):
        mid = 0.5 * (lo + hi)
        p_mid = p(mid)
        if abs(p_mid) <= tol:
            break
        if p_mid > 0.0:
            lo = mid
        else:
            hi = mid
    flag = None if abs(p_mid) <= tol else f"bisection stopped at |p| = {abs(p_mid):.3e} > tol"
    return PressureZeroResult(float(mid), (float(lo), float(hi)), float(p_mid), iterations, flag)


@dataclass(frozen=True, eq=False)
class BoxCountFit:
    estimate: float
    slope_stderr: float
    residual_rms: float
    scales: tuple[int, ...]
    counts: tuple[int, ...]

    def to_json_dict(self) -> dict:
        return {
            "estimate": self.estimate,
            "slope_stderr": self.slope_stderr,
            "residual_rms": self.residual_rms,
            "scales": list(self.scales),
            "counts": list(self.counts),
        }


def box_dimension(points, j_min: int, j_max: int) -> BoxCountFit:
    """Least-squares slope of log N(2^-j) against j log 2 over dyadic scales.

    N counts occupied boxes of the grid of side 2^-j anchored at the origin.
    Needs at least 1000 points and a nondegenerate cloud.
    """
    points = np.asarray(points, dtype=float)
    if points.ndim != 2:
        raise ValueError(f"points must be an (N, d) array, got shape {points.shape}")
    if not np.all(np.isfinite(points)):
        raise ValueError("points must be finite; the cloud holds a nan or inf coordinate")
    n, _ = points.shape
    if n < 1000:
        raise ValueError(f"box counting needs at least 1000 points, got {n}")
    if not 1 <= j_min < j_max:
        raise ValueError(f"need 1 <= j_min < j_max, got ({j_min}, {j_max})")
    if float(np.max(np.ptp(points, axis=0))) == 0.0:
        raise ValueError("degenerate point cloud: all points identical")
    js = list(range(j_min, j_max + 1))
    counts = []
    for j in js:
        keys = np.floor(points * float(2**j)).astype(np.int64)
        counts.append(int(np.unique(keys, axis=0).shape[0]))
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
    flag_tol: float = 0.25,
    threads: int = 1,
) -> DimensionReport:
    """Pressure zero at level k against box counting of depth-``depth`` points.

    Requires every singular value in (0, 1/2); otherwise the dimension formula
    min(s0, d) carries no guarantee and the run is refused.
    """
    sig_hi = tree.sigma_max()
    sig_lo = tree.sigma_min()
    if not 0.0 < sig_lo <= sig_hi < 0.5:
        raise HypothesisViolation(
            f"dimension formula requires 0 < sigma_min <= sigma_max < 1/2, "
            f"got [{sig_lo:.6g}, {sig_hi:.6g}]"
        )
    pz = pressure_zero(tree, k, tol=tol, threads=threads)
    points, _ = enumerate_points(tree, depth, 0.0, threads=threads)
    if j_max is None:
        # stop above the composition resolution sigma_max^depth
        j_res = int(math.floor(depth * math.log2(1.0 / sig_hi)))
        j_max = max(j_min + 2, min(j_res - 2, 12))
    fit = box_dimension(points, j_min, j_max)
    dim = min(pz.s0, float(tree.d))
    flag = None
    if abs(dim - fit.estimate) > flag_tol:
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
