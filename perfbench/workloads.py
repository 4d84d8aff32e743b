"""Seeded system documents, the CLI steps run on them, and their output checks.

Each workload makes a different layer of ``affdim`` do most of the work:

* ``pressure-d3`` — exact enumeration, batched LAPACK SVD and the ``phi``
  reduction (a generic 3-map family in d=3, two passes, 64 s-values);
* ``dim-d1-deep`` — the pressure zero-finder above the 10^6-word spectrum
  cache, so every bisection step re-enumerates (2^20 words, d=1);
* ``cloud-d2`` — point enumeration, a CSV round trip and box counting, with
  the pressure zero served from the spectrum cache (co-diagonal d=2 family);
* ``checkfs-closure`` — the two-map certificate and the spanning checks on a
  composition closure, the only workload in ``fs_checker`` and
  ``exterior_algebra``.

This module never imports ``affdim``: the program only ever sees the
generated documents.  Every check returns a problem string or ``None``, and
every check is exercised against mutated outputs by :func:`self_test`.
"""

from __future__ import annotations

import csv
import hashlib
import io
import itertools
import json
import math
import os
from dataclasses import dataclass
from typing import Callable

import numpy as np

# Sizes.  The d=1 family needs 2^DEEP_K > 10^6 words so that the zero-finder
# cannot use its spectrum cache; the d=2 family stays under it.
PRESSURE_K = 12
PRESSURE_GRID = 64
DEEP_K = 20
DEEP_DEPTH = 16
DEEP_TOL = 1e-3
DEEP_BITS = 4
CLOUD_K = 12
CLOUD_DEPTH = 11
CLOUD_TOL = 1e-6
CHECKFS_DEPTH = 9


@dataclass(frozen=True)
class Step:
    """One CLI call.  ``argv`` may depend on earlier outputs of the same pass."""

    name: str
    argv: Callable[[dict], list]
    out_file: str | None = None


@dataclass(frozen=True)
class Workload:
    name: str
    generate: Callable[[int], tuple[dict, dict]]
    steps: Callable[[str], list]
    check: Callable[[dict, dict], dict]
    mutations: Callable[[dict], list]


# ---------------------------------------------------------------------------
# generators


def _rng(seed: int, name: str) -> np.random.Generator:
    tag = int.from_bytes(hashlib.sha256(name.encode()).digest()[:4], "little")
    return np.random.default_rng(np.random.SeedSequence([int(seed), tag]))


def _orthogonal(rng: np.random.Generator, d: int) -> np.ndarray:
    q, r = np.linalg.qr(rng.standard_normal((d, d)))
    return q * np.sign(np.diag(r))


def _document(mats, translations=None) -> dict:
    """A system document whose declared bounds enclose the maps' spectra."""
    sv = np.concatenate([np.linalg.svd(T, compute_uv=False) for T in mats])
    doc = {
        "d": int(mats[0].shape[0]),
        "bounds": {
            "sigma_lo": math.floor(float(sv.min()) * 1e6) / 1e6,
            "sigma_hi": math.ceil(float(sv.max()) * 1e6) / 1e6,
        },
        "families": [{
            "label": "gen",
            "maps": [
                {"T": [[float(x) for x in row] for row in T], "translation_class": i}
                for i, T in enumerate(mats)
            ],
        }],
    }
    if translations is not None:
        doc["translations"] = {str(i): [float(x) for x in a] for i, a in enumerate(translations)}
    return doc


def _root(f, lo: float, hi: float) -> float:
    """Bisect a decreasing f to the last representable bit."""
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if mid in (lo, hi):
            break
        if f(mid) > 0.0:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def _phi_ordered(a: np.ndarray, b: np.ndarray | None, s: float) -> np.ndarray:
    """phi_s, 0 <= s <= d, of maps with singular values a >= b (d = 2) or a (d = 1)."""
    if b is None or s <= 1.0:
        return a**s
    return a * b ** (s - 1.0)


def _closed_form_s0(a: np.ndarray, b: np.ndarray | None) -> float:
    """Zero of log sum_i phi_s(T_i); exact for families whose products keep
    the singular values ordered map by map (d=1, co-diagonal d=2)."""
    top = 1.0 if b is None else 2.0
    return _root(lambda s: math.log(float(np.sum(_phi_ordered(a, b, s)))), 0.0, top)


def gen_pressure(seed: int) -> tuple[dict, dict]:
    rng = _rng(seed, "pressure-d3")
    mats = []
    for _ in range(3):
        sigma = np.sort(rng.uniform(0.15, 0.6, size=3))[::-1]
        mats.append(_orthogonal(rng, 3) @ np.diag(sigma) @ _orthogonal(rng, 3).T)
    meta = {
        "p0": math.log(3.0),
        "p_top": math.log(sum(abs(float(np.linalg.det(T))) for T in mats)),
    }
    return _document(mats), meta


def gen_deep(seed: int) -> tuple[dict, dict]:
    """Two maps whose pressure zero is a dyadic rational with DEEP_BITS bits.

    Bisection from [0, 1] then meets the zero exactly at step DEEP_BITS and
    never earlier (|p| >= |log r_max| 2^-DEEP_BITS > DEEP_TOL at coarser
    midpoints), so every seed costs the same number of enumeration passes.
    """
    rng = _rng(seed, "dim-d1-deep")
    odd = [n for n in range(1, 2**DEEP_BITS, 2) if 0.55 <= n / 2**DEEP_BITS <= 0.8]
    while True:
        s0 = int(rng.choice(odd)) / 2**DEEP_BITS
        r2 = rng.uniform(0.3, 0.42)
        r1 = (1.0 - r2**s0) ** (1.0 / s0)
        if 0.2 < r1 < 0.45:
            break
    r = np.array([r1, r2])
    mats = [np.array([[sg * x]]) for sg, x in zip(rng.choice([-1.0, 1.0], size=2), r)]
    meta = {"d": 1, "s0": s0, "tol": DEEP_TOL, "slope": -math.log(float(r.max()))}
    return _document(mats, rng.random((2, 1))), meta


def gen_cloud(seed: int) -> tuple[dict, dict]:
    rng = _rng(seed, "cloud-d2")
    theta = rng.uniform(0.2, 1.3)
    R = np.array([[math.cos(theta), -math.sin(theta)], [math.sin(theta), math.cos(theta)]])
    # the largest singular value is fixed, so dim picks the same box scales
    # for every seed
    a = np.array([0.42, *rng.uniform(0.3, 0.42, size=2)])
    b = rng.uniform(0.1, 0.25, size=3)
    mats = [R @ np.diag([x, y]) @ R.T for x, y in zip(a, b)]
    meta = {
        "d": 2,
        "s0": _closed_form_s0(a, b),
        "tol": CLOUD_TOL,
        "slope": -math.log(float(a.max())),
        "rows": 3**CLOUD_DEPTH,
    }
    return _document(mats, rng.random((3, 2))), meta


def _totally_positive(rng: np.random.Generator) -> np.ndarray:
    """A 3x3 totally positive matrix as a product of positive bidiagonal
    factors and a diagonal with well separated entries (Loewner-Whitney)."""

    def elementary(i, j, x):
        M = np.eye(3)
        M[i, j] = x
        return M

    lo, up = rng.uniform(0.05, 0.3, size=(2, 3))
    diag = np.array([1.0, rng.uniform(0.65, 0.8), rng.uniform(0.4, 0.55)])
    return (elementary(2, 1, lo[0]) @ elementary(1, 0, lo[1]) @ elementary(2, 1, lo[2])
            @ np.diag(diag)
            @ elementary(1, 2, up[0]) @ elementary(0, 1, up[1]) @ elementary(1, 2, up[2]))


def _eigenbasis(T: np.ndarray) -> np.ndarray:
    vec = np.linalg.eig(T)[1].real
    return vec / np.linalg.norm(vec, axis=0)


def _min_normalized_minor(A: np.ndarray) -> float:
    d = A.shape[0]
    sig1 = float(np.linalg.norm(A, 2))
    out = math.inf
    for k in range(1, d + 1):
        for rows in itertools.combinations(range(d), k):
            for cols in itertools.combinations(range(d), k):
                minor = abs(float(np.linalg.det(A[np.ix_(rows, cols)])))
                out = min(out, minor / sig1**k)
    return out


def gen_checkfs(seed: int) -> tuple[dict, dict]:
    """A totally positive pair, scaled to norm 0.9.

    Every composition of totally positive maps is totally positive, so each
    of the closure's maps has three distinct positive eigenvalues and adds
    the same number of candidate blades to the spanning checks: the work
    does not depend on the seed.  The pair is redrawn until the eigenbasis
    change has no minor below 1e-3, well clear of the certificate's 1e-9.
    """
    rng = _rng(seed, "checkfs-closure")
    while True:
        F, G = (0.9 * T / np.linalg.norm(T, 2) for T in (_totally_positive(rng), _totally_positive(rng)))
        if _min_normalized_minor(np.linalg.solve(_eigenbasis(G), _eigenbasis(F))) > 1e-3:
            break
    return _document([F, G]), {"depth": CHECKFS_DEPTH}


# ---------------------------------------------------------------------------
# steps


def _system(workdir: str) -> str:
    return os.path.join(workdir, "system.json")


def steps_pressure(workdir):
    argv = ["pressure", _system(workdir), "--k", str(PRESSURE_K), "--grid", str(PRESSURE_GRID)]
    return [Step("pressure", lambda prev: argv)]


def steps_deep(workdir):
    argv = ["dim", _system(workdir), "--k", str(DEEP_K), "--depth", str(DEEP_DEPTH),
            "--tol", repr(DEEP_TOL)]
    return [Step("dim", lambda prev: argv)]


def steps_cloud(workdir):
    csv_path = os.path.join(workdir, "cloud.csv")

    def boxdim(prev):
        scales = json.loads(prev["dim"])["box_scales"]
        return ["boxdim", csv_path, "--j-min", str(scales[0]), "--j-max", str(scales[-1])]

    return [
        Step("dim", lambda prev: ["dim", _system(workdir), "--k", str(CLOUD_K),
                                  "--depth", str(CLOUD_DEPTH), "--tol", repr(CLOUD_TOL)]),
        Step("points", lambda prev: ["points", _system(workdir), "--depth", str(CLOUD_DEPTH),
                                     "--out", csv_path], out_file=csv_path),
        Step("boxdim", boxdim),
    ]


def steps_checkfs(workdir):
    return [
        Step("certify", lambda prev: ["certify", _system(workdir)]),
        Step("check-fs", lambda prev: ["check-fs", _system(workdir), "--depth", str(CHECKFS_DEPTH)]),
    ]


# ---------------------------------------------------------------------------
# checks: each takes the generator's meta and one pass's outputs (bytes per
# step) and returns {step name: problem or None}


def _s0_problem(meta: dict, report: dict) -> str | None:
    s0 = report["s0"]
    if not isinstance(s0, float) or not math.isfinite(s0):
        return f"s0 = {s0!r} is not a finite number"
    # bisection stops once |p| <= tol and |p'| >= slope, so s0 is within
    # tol / slope of the closed form, up to rounding in the pressure sums
    allowed = 1.01 * meta["tol"] / meta["slope"] + 1e-9
    if abs(s0 - meta["s0"]) > allowed:
        return f"s0 = {s0!r} but the closed form gives {meta['s0']!r} (allowed {allowed:.3g})"
    if report["dimension"] != min(s0, float(meta["d"])):
        return f"dimension {report['dimension']!r} is not min(s0, d) = {min(s0, float(meta['d']))!r}"
    return None


def check_pressure(meta, out):
    text = out["pressure"].decode()
    rows = list(csv.reader(io.StringIO(text)))
    if not rows or rows[0] != ["s", "p", "diag"]:
        return {"pressure": "header is not s,p,diag"}
    vals = np.array([[float(x) for x in r] for r in rows[1:]])
    if vals.shape != (PRESSURE_GRID, 3):
        return {"pressure": f"expected {PRESSURE_GRID} rows of 3 values, got {vals.shape}"}
    s, p, diag = vals.T
    problem = None
    if not np.all(np.isfinite(vals)):
        problem = "non-finite value in the curve"
    elif s[0] != 0.0 or s[-1] != 3.0:
        problem = f"grid runs from {s[0]!r} to {s[-1]!r}, not the default [0, 3]"
    elif not np.all(np.diff(p) < 0.0):
        problem = "pressure values are not strictly decreasing"
    elif abs(p[0] - meta["p0"]) > 1e-12:
        problem = f"p(0) = {p[0]!r}, expected log 3 = {meta['p0']!r}"
    elif abs(p[-1] - meta["p_top"]) > 1e-9:
        problem = f"p(3) = {p[-1]!r}, expected log sum |det T_i| = {meta['p_top']!r}"
    return {"pressure": problem}


def check_deep(meta, out):
    report = json.loads(out["dim"])
    return {"dim": _s0_problem(meta, report)}


def check_cloud(meta, out):
    dim = json.loads(out["dim"])
    box = json.loads(out["boxdim"])
    rows = out["points"].count(b"\n") - 1
    problems = {"dim": _s0_problem(meta, dim), "points": None, "boxdim": None}
    if rows != meta["rows"] or not out["points"].startswith(b"x1,x2,weight\n"):
        problems["points"] = f"CSV has {rows} data rows, expected {meta['rows']}"
    if box["estimate"] != dim["box_estimate"]:
        problems["boxdim"] = (
            f"boxdim estimate {box['estimate']!r} differs from the dim report's "
            f"box_estimate {dim['box_estimate']!r}"
        )
    elif box["scales"] != dim["box_scales"]:
        problems["boxdim"] = "boxdim ran at other scales than dim reported"
    return problems


def check_checkfs(meta, out):
    cert = json.loads(out["certify"])
    problems = {"certify": None, "check-fs": None}
    if cert.get("passed") is not True:
        problems["certify"] = f"certificate rejected at {cert.get('failure_stage')!r}"
    elif cert["certified_depth"] < meta["depth"]:
        problems["certify"] = f"certified depth {cert['certified_depth']} < {meta['depth']}"
    lines = [ln for ln in out["check-fs"].decode().splitlines() if ln.startswith("C(")]
    grades = [ln.split(":", 1)[0] for ln in lines]
    if grades != ["C(1)", "C(2)"]:
        problems["check-fs"] = f"expected verdicts for C(1) and C(2), got {grades}"
    elif not all(ln.split(": ", 1)[1].startswith("EmpiricalPass") for ln in lines):
        problems["check-fs"] = "a spanning verdict did not pass: " + "; ".join(lines)
    return problems


# ---------------------------------------------------------------------------
# self-tests: each mutation must be flagged by the workload's check


def _replace_json(raw: bytes, **changes) -> bytes:
    doc = json.loads(raw)
    doc.update(changes)
    return (json.dumps(doc, indent=2) + "\n").encode()


def _swap_pressure_rows(raw: bytes) -> bytes:
    lines = raw.decode().split("\n")
    s_a, p_a, d_a = lines[10].split(",")
    s_b, p_b, d_b = lines[11].split(",")
    lines[10], lines[11] = f"{s_a},{p_b},{d_a}", f"{s_b},{p_a},{d_b}"
    return "\n".join(lines).encode()


def mutations_pressure(out):
    return [("non-monotone curve", {"pressure": _swap_pressure_rows(out["pressure"])})]


def _wrong_s0(raw: bytes) -> bytes:
    return _replace_json(raw, s0=json.loads(raw)["s0"] + 1e-2)


def mutations_deep(out):
    return [("wrong s0", {"dim": _wrong_s0(out["dim"])})]


def mutations_cloud(out):
    box = json.loads(out["boxdim"])
    nudged = float(np.nextafter(box["estimate"], math.inf))
    return [
        ("wrong s0", {"dim": _wrong_s0(out["dim"])}),
        ("mismatched box estimate", {"boxdim": _replace_json(out["boxdim"], estimate=nudged)}),
        ("missing CSV row", {"points": out["points"].rsplit(b"\n", 2)[0] + b"\n"}),
    ]


def mutations_checkfs(out):
    failed = out["check-fs"].replace(b"C(2): EmpiricalPass", b"C(2): Fail", 1)
    return [
        ("rejected certificate", {"certify": _replace_json(out["certify"], passed=False)}),
        ("failed verdict", {"check-fs": failed}),
    ]


def flip_byte(raw: bytes) -> bytes:
    """The same output with its middle byte changed."""
    i = len(raw) // 2
    return raw[:i] + bytes([raw[i] ^ 1]) + raw[i + 1 :]


def self_test(workload: "Workload", meta: dict, out: dict) -> dict:
    """Run the workload's check on mutated copies of real outputs.

    Returns {mutation: True if flagged}.
    """
    results = {}
    for label, changes in workload.mutations(out):
        mutated = dict(out, **changes)
        try:
            flagged = any(p is not None for p in workload.check(meta, mutated).values())
        except (ValueError, KeyError, TypeError, IndexError):
            flagged = True
        results[label] = flagged
    return results


WORKLOADS = {
    w.name: w
    for w in (
        Workload("pressure-d3", gen_pressure, steps_pressure, check_pressure, mutations_pressure),
        Workload("dim-d1-deep", gen_deep, steps_deep, check_deep, mutations_deep),
        Workload("cloud-d2", gen_cloud, steps_cloud, check_cloud, mutations_cloud),
        Workload("checkfs-closure", gen_checkfs, steps_checkfs, check_checkfs, mutations_checkfs),
    )
}
