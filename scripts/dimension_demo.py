#!/usr/bin/env python3
"""End-to-end dimension estimate for a self-affine system document.

Runs ``affdim dim`` once per seed and prints the pressure zero next to the
box-counting estimate of the attractor — the two numbers the affinity formula
says should agree for generic translations.  With --seeds > 1 the translation
binding is redrawn to show how little the box estimate moves across draws.
Whatever ``dim`` refuses ends the table with ``dim``'s error and exit code;
a refused first run prints no table at all.
"""

import argparse
import contextlib
import io
import json
import pathlib
import sys

from affdim import cli, parse_system

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
    family = [] if args.family is None else ["--family", args.family]

    for seed in range(args.seeds):
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = cli(["dim", str(args.doc), "--k", str(args.k), "--depth", str(args.depth),
                        "--seed", str(seed)] + family)
        if code:
            return code
        report = json.loads(out.getvalue())
        flag = report["flag"] or "-"
        gap = abs(report["box_estimate"] - report["dimension"])
        if seed == 0:  # with the first row, so a refused run leaves stdout empty
            print(f"{'seed':>4}  {'s0':>10}  {'box':>10}  {'gap':>8}  {'dim':>10}  flag")
        print(f"{seed:>4}  {report['s0']:>10.6f}  {report['box_estimate']:>10.6f}"
              f"  {gap:>8.4f}  {report['dimension']:>10.6f}  {flag}")
        if args.seeds > 1 and parse_system(args.doc).translations is not None:
            print("(document pins its translations; further seeds are identical)")
            break
    return 0


if __name__ == "__main__":
    sys.exit(main())
