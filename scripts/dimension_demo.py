#!/usr/bin/env python3
"""End-to-end dimension estimate for a self-affine system document.

Parses a system JSON, binds random translations when the document leaves them
free, builds the deterministic code tree, and prints the pressure zero next to
the box-counting estimate of the attractor — the two numbers the affinity
formula says should agree for generic translations.  With --seeds > 1 the
binding is repeated to show how little the box estimate moves across
translation draws.
"""

import argparse
import pathlib
import sys

from affdim import (
    HypothesisViolation,
    bind_translations,
    deterministic_tree,
    dimension_report,
    parse_system,
)

# Three copies of 0.45*I in the unit square: overlapping enough to be
# interesting, with dim_B = s0 = log 3 / log(1/0.45) ~ 1.3758.
CORNER_SYSTEM = pathlib.Path(__file__).resolve().parents[1] / "docs" / "examples" / "corner_system.json"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("doc", nargs="?", default=CORNER_SYSTEM,
                        help="system JSON path (default: docs/examples/corner_system.json)")
    parser.add_argument("--family", help="family label (default: first)")
    parser.add_argument("--depth", type=int, default=10, help="code tree depth (default 10)")
    parser.add_argument("--k", type=int, default=6, help="pressure block length (default 6)")
    parser.add_argument("--seeds", type=int, default=1, help="number of translation bindings")
    args = parser.parse_args(argv)
    for flag in ("depth", "k", "seeds"):
        if getattr(args, flag) < 1:
            parser.error(f"argument --{flag}: must be at least 1, got {getattr(args, flag)}")

    spec = parse_system(args.doc)

    print(f"{'seed':>4}  {'s0':>10}  {'box':>10}  {'gap':>8}  {'dim':>10}  flag")
    for seed in range(args.seeds):
        bound = spec if spec.translations is not None else bind_translations(spec, seed=seed)
        tree = deterministic_tree(bound.family(args.family), args.depth)
        try:
            report = dimension_report(tree, k=args.k, depth=args.depth)
        except HypothesisViolation as exc:
            print(f"{seed:>4}  hypothesis violated: {exc}")
            continue
        flag = report.flag or "-"
        gap = abs(report.box_estimate - report.dimension)
        print(f"{seed:>4}  {report.s0:>10.6f}  {report.box_estimate:>10.6f}"
              f"  {gap:>8.4f}  {report.dimension:>10.6f}  {flag}")
        if spec.translations is not None and args.seeds > 1:
            print("(document pins its translations; further seeds are identical)")
            break
    return 0


if __name__ == "__main__":
    sys.exit(main())
