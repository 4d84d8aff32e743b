#!/usr/bin/env python3
"""Are neck levels of a random graph-directed sequence geometrically spaced?

Runs ``affdim simulate`` once and tabulates the gaps between consecutive neck
levels it reports against the Geometric(p) law they should follow, where p is
the total probability of neck labels.  Prints the gap histogram, the sample
mean against thinning/p, and a chi-square p-value with the tail pooled so
every expected count stays at least 5.  Whatever ``simulate`` refuses ends
the run with ``simulate``'s error and exit code, and prints no table.
"""

import argparse
import contextlib
import io
import pathlib
import sys

import numpy as np
from scipy import stats

from affdim import cli, parse_system

# Two-vertex system: label "neck" (prob 0.3) sends everything back to vertex 1,
# label "spread" (prob 0.7) branches away from it, so necks recur at rate 0.3.
GRAPH_SYSTEM = pathlib.Path(__file__).resolve().parents[1] / "docs" / "examples" / "graph_system.json"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("doc", nargs="?", default=GRAPH_SYSTEM,
                        help="system JSON path (default: docs/examples/graph_system.json)")
    parser.add_argument("--length", type=int, default=10_000, help="sequence length (default 10000)")
    parser.add_argument("--thinning", type=int, default=1, help="keep every t-th neck")
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args(argv)
    for flag in ("length", "thinning"):
        if getattr(args, flag) < 1:
            parser.error(f"argument --{flag}: must be at least 1, got {getattr(args, flag)}")

    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli(["simulate", str(args.doc), "--length", str(args.length),
                    "--thinning", str(args.thinning), "--seed", str(args.seed)])
    if code:
        return code
    gaps = np.array([int(row.split(",")[1]) for row in out.getvalue().splitlines()[1:]], dtype=int)
    if gaps.size < 2:
        print(f"only {gaps.size} neck(s) in {args.length} levels; increase --length", file=sys.stderr)
        return 1
    p_neck = parse_system(args.doc).graph.neck_probability()

    print(f"length = {args.length}, seed = {args.seed}, thinning = {args.thinning}")
    print(f"neck probability: {p_neck:.6g}   necks found: {gaps.size}")
    print(f"gap mean: {gaps.mean():.4f}   "
          f"theory (thinning/p): {args.thinning / p_neck:.4f}")

    counts = np.bincount(gaps)[1:]  # gaps start at 1
    print(f"{'gap':>4}  {'count':>7}  histogram")
    peak = counts.max()
    for gap_len, count in enumerate(counts, start=1):
        bar = "#" * max(1, round(40 * count / peak)) if count else ""
        print(f"{gap_len:>4}  {count:>7}  {bar}")

    if args.thinning == 1:
        n = gaps.size
        kmax = int(gaps.max())
        expected = n * p_neck * (1 - p_neck) ** (np.arange(1, kmax + 1) - 1)
        observed = np.bincount(gaps, minlength=kmax + 1)[1:].astype(float)
        # pool the tail until every expected bin is >= 5
        while expected.size > 1 and expected[-1] < 5:
            expected[-2] += expected[-1]
            observed[-2] += observed[-1]
            expected, observed = expected[:-1], observed[:-1]
        chi2, pval = stats.chisquare(observed, expected * observed.sum() / expected.sum())
        print(f"chi-square vs Geometric({p_neck:g}): stat = {chi2:.3f}, p = {pval:.4f}")
    else:
        print("(chi-square check only applies to unthinned gaps)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
