#!/usr/bin/env python3
"""How often does a random pair of diagonalizable contractions certify?

Draws pairs (F, G) with distinct real eigenvalues in (0, 1) and random
eigenbases, runs the two-map certificate, and tabulates how many pass, at
which stage the rest fail, and how thin the minor margins get.  The certified
fraction should sit at or very near 100%: the criterion holds off a closed
null set.
"""

import argparse
import math
import sys

import numpy as np

from affdim import UnsupportedEigenstructure, criterion_cscm
from affdim.exterior_algebra import MAX_DIM


def random_diagonalizable(rng: np.random.Generator, d: int) -> np.ndarray:
    while True:
        lam = rng.uniform(0.0, 1.0, size=d)
        if np.min(np.abs(np.subtract.outer(lam, lam) + np.eye(d))) > 1e-9:
            break
    E = rng.standard_normal((d, d))
    return E @ np.diag(lam) @ np.linalg.inv(E)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--d", type=int, default=3, help="ambient dimension (default 3)")
    parser.add_argument("--trials", type=int, default=200, help="number of pairs")
    parser.add_argument("--tol", type=float, default=1e-9, help="certificate tolerance")
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args(argv)
    for flag in ("d", "trials"):
        if getattr(args, flag) < 1:
            parser.error(f"argument --{flag}: must be at least 1, got {getattr(args, flag)}")
    if args.d > MAX_DIM:
        parser.error(f"argument --d: must be at most {MAX_DIM}, got {args.d}")
    if not (math.isfinite(args.tol) and args.tol >= 0):
        parser.error(f"argument --tol: must be finite and >= 0, got {args.tol}")

    rng = np.random.default_rng(args.seed)
    stages: dict[str, int] = {}
    margins = []
    unsupported = 0
    for _ in range(args.trials):
        F = random_diagonalizable(rng, args.d)
        G = random_diagonalizable(rng, args.d)
        try:
            report = criterion_cscm(F, G, tol=args.tol)
        except UnsupportedEigenstructure:
            unsupported += 1
            continue
        if report.passed:
            margins.append(report.minor_margin)
            depth = report.certified_depth
        else:
            stages[report.failure_stage] = stages.get(report.failure_stage, 0) + 1

    certified = len(margins)
    print(f"d = {args.d}, trials = {args.trials}, tol = {args.tol:g}, seed = {args.seed}")
    print(f"certified: {certified}/{args.trials} "
          f"({100.0 * certified / args.trials:.1f}%)")
    if margins:
        q = np.quantile(margins, [0.0, 0.25, 0.5, 0.75, 1.0])
        print("minor margin quantiles (min/q1/median/q3/max):")
        print("  " + "  ".join(f"{x:.3e}" for x in q))
        print(f"certified composition depth: {depth}")
    for stage, count in sorted(stages.items()):
        print(f"failed at {stage}: {count}")
    if unsupported:
        print(f"unsupported eigenstructure (should not happen for these draws): {unsupported}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
