"""JSON system descriptions and the ``affdim`` command-line front end.

A *system document* is a single JSON object describing one or more labeled
affine-map families, the declared singular-value bounds, optional translation
vectors keyed by translation class, and an optional labeled multigraph whose
walks generate code trees:

.. code-block:: json

    {
      "d": 2,
      "bounds": {"sigma_lo": 0.45, "sigma_hi": 0.45},
      "families": [
        {"label": "tri", "maps": [
          {"T": [[0.45, 0.0], [0.0, 0.45]], "translation_class": 0},
          {"T": [[0.45, 0.0], [0.0, 0.45]], "translation_class": 1},
          {"T": [[0.45, 0.0], [0.0, 0.45]], "translation_class": 2}
        ]}
      ],
      "translations": {"0": [0.0, 0.0], "1": [0.55, 0.0], "2": [0.0, 0.55]}
    }

Matrices are row-major.  When ``translations`` is absent the classes can be
bound later to uniform draws from [0, 1]^d with :func:`bind_translations`.
When a ``graph`` is present, its ``labels`` pair one-to-one with ``families``
(label i uses family i's maps, referenced by index), and at least one
positive-probability label must send every edge to the root vertex so that
necks recur.

The CLI wraps the pipeline::

    affdim check-fs SYSTEM [--family F] [--s S] [--depth D] [--samples N] [--tol T] [--seed N]
    affdim certify  SYSTEM [--family F] [--maps I J] [--tol T]
    affdim pressure SYSTEM [--family F] [--s-min A] [--s-max B] [--grid N] [--k K]
    affdim dim      SYSTEM [--family F] [--j-min A] [--j-max B] [--k K] [--depth D] [--tol T] [--seed N]
    affdim simulate SYSTEM [--length N] [--thinning T] [--seed N]
    affdim points   SYSTEM [--family F] [--s S] [--depth D] [--seed N]
    affdim boxdim   POINTS_CSV [--j-min A] [--j-max B]

Each subcommand takes only the flags it reads, plus ``--out PATH`` and
``--threads N``; ``--threads`` must be at least 1 and changes nothing.
The counts ``--depth``, ``--grid``, ``--k``, ``--length`` and ``--thinning``
must be at least 1 and ``--samples`` at least 0; the parser refuses any
other value, naming the flag.  :func:`cli` reads the system document and writes the output, once each; the
``_cmd_*`` handlers only compute, so a refused run writes no stdout and no
``--out`` file.  Exit codes: 0 = success or passing verdict; 1 = Fail verdict or
a hypothesis violated at run time; 2 = invalid input.  All randomized output is
a pure function of ``--seed``, which must be at least 0, and never of
``--threads`` or scheduling.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import os
import sys
import warnings
from dataclasses import dataclass, field

import numpy as np

from .code_tree import (
    AffineMap,
    EnumerationCapExceeded,
    GraphEdge,
    GraphLabel,
    GraphSystem,
    IfsFamily,
    detect_necks,
    deterministic_tree,
    enumerate_points,
    sample_graph_sequence,
)
from .dimension import HypothesisViolation, box_dimension, dimension_report, pressure_curve
from .exterior_algebra import MAX_DIM
from .fs_checker import (
    DEFAULT_TOL,
    LinearFamily,
    UnsupportedEigenstructure,
    Verdict,
    check_cm,
    check_cs,
    criterion_cscm,
    iterate_closure,
)

__all__ = [
    "SystemSpec",
    "SystemSpecError",
    "parse_system",
    "bind_translations",
    "cli",
    "main",
]


class SystemSpecError(ValueError):
    """A system document is malformed or breaks an invariant.

    ``field`` holds a dotted path into the document (e.g.
    ``families[0].maps[1].T``) so errors point at the offending entry.
    """

    def __init__(self, field: str, message: str):
        self.field = field
        super().__init__(f"{field}: {message}")


@dataclass(frozen=True, eq=False)
class SystemSpec:
    """A validated system document.

    ``translations`` is None until vectors are bound (explicitly in the file
    or via :func:`bind_translations`); maps then carry their bound ``a``.
    ``doc`` is the decoded JSON document the spec was built from, which
    :func:`bind_translations` rebuilds with drawn translations; only the
    document builder sets it, so a spec built by hand has ``doc`` None.
    """

    d: int
    families: tuple[IfsFamily, ...]
    bounds: tuple[float, float]
    translations: dict[int, np.ndarray] | None = None
    graph: GraphSystem | None = None
    doc: dict | None = field(default=None, init=False, repr=False)

    def family(self, key: str | int | None) -> IfsFamily:
        """Select a family by label, by integer index, or the first one."""
        if key is None:
            return self.families[0]
        for fam in self.families:
            if fam.label == key:
                return fam
        try:
            idx = int(key)
        except (TypeError, ValueError):
            raise SystemSpecError(
                "families", f"no family labeled {key!r} (have {[f.label for f in self.families]})"
            ) from None
        if not 0 <= idx < len(self.families):
            raise SystemSpecError("families", f"family index {idx} outside 0..{len(self.families) - 1}")
        return self.families[idx]


def _object(raw, where: str, required: tuple, optional: tuple = ()) -> dict:
    """``raw`` as a JSON object with every ``required`` key and no key outside
    ``required + optional``."""
    if not isinstance(raw, dict):
        raise SystemSpecError(where, f"expected an object, got {raw!r:.60}")
    for key in required:
        if key not in raw:
            raise SystemSpecError(where, f"missing required key {key!r}")
    for key in raw:
        if key not in required + optional:
            raise SystemSpecError(where, f"unknown key {key!r} (allowed: {', '.join(required + optional)})")
    return raw


def _array(raw, where: str) -> list:
    """``raw`` as a nonempty JSON array."""
    if not isinstance(raw, list) or not raw:
        raise SystemSpecError(where, f"expected a nonempty array, got {raw!r:.60}")
    return raw


def _integer(raw, where: str, lo: int, hi: float = math.inf) -> int:
    """``raw`` as an integer in ``lo..hi``; an integral float counts, a boolean does not."""
    if isinstance(raw, float) and raw.is_integer():  # False for inf and nan
        raw = int(raw)
    if not isinstance(raw, int) or isinstance(raw, bool):
        raise SystemSpecError(where, f"expected an integer, got {raw!r:.60}")
    if not lo <= raw <= hi:
        raise SystemSpecError(where, f"{raw} is outside {lo}..{hi}")
    return raw


def _numbers(raw, where: str, depth: int) -> np.ndarray:
    """``raw`` as a float array: ``depth`` levels of nonempty JSON arrays (0 for
    a single number), every entry a finite double and none a boolean."""
    items = [(raw, where)]
    for _ in range(depth):
        items = [(y, f"{at}[{i}]") for x, at in items for i, y in enumerate(_array(x, at))]
    for x, at in items:
        if not isinstance(x, (int, float)) or isinstance(x, bool):
            raise SystemSpecError(at, f"expected a number, got {x!r:.60}")
    try:
        x = np.array(raw, dtype=float)
    except OverflowError:
        raise SystemSpecError(where, "a number lies outside the double range") from None
    except ValueError:  # every entry is a number, so only a ragged nesting gets here
        raise SystemSpecError(where, f"rows must all have the same length, got {raw!r}") from None
    if not np.all(np.isfinite(x)):
        raise SystemSpecError(where, f"numbers must be finite, got {raw!r}")
    return x


def parse_system(source) -> SystemSpec:
    """Parse and validate a system document from a file path or raw JSON text.

    A string whose first non-space character is ``{`` is treated as the
    document itself; anything else (including path objects) is read from disk.
    Raises :class:`SystemSpecError` at the first malformed field, or the first
    broken invariant, met in reading order.
    """
    if isinstance(source, str) and source.lstrip().startswith("{"):
        text = source
    else:
        with open(os.fspath(source), "r", encoding="utf-8") as fh:
            text = fh.read()
    try:
        doc = json.loads(text)
    except ValueError as exc:
        raise SystemSpecError("(document)", f"not valid JSON: {exc}") from exc
    return _build(doc)


def _build(doc: dict) -> SystemSpec:
    """The spec of a decoded JSON document, which it keeps as ``doc``.

    Every field is read through ``_object``, ``_array``, ``_integer`` or
    ``_numbers``, so a malformed document is refused at the field being read.
    """
    _object(doc, "(document)", ("d", "families", "bounds"), ("translations", "graph"))
    d = _integer(doc["d"], "d", 1, MAX_DIM)
    bounds = _object(doc["bounds"], "bounds", ("sigma_lo", "sigma_hi"))
    lo = float(_numbers(bounds["sigma_lo"], "bounds.sigma_lo", 0))
    if lo <= 0.0:
        raise SystemSpecError("bounds.sigma_lo", f"must be positive, got {lo!r}")
    hi = float(_numbers(bounds["sigma_hi"], "bounds.sigma_hi", 0))
    if hi > 1.0:
        raise SystemSpecError("bounds.sigma_hi", f"must be at most 1, got {hi!r}")
    if not lo <= hi:
        raise SystemSpecError("bounds", f"sigma_lo = {lo!r} exceeds sigma_hi = {hi!r}")

    translations = None
    if "translations" in doc:
        translations, keys = {}, {}
        tdoc = doc["translations"]
        if not isinstance(tdoc, dict):
            raise SystemSpecError("translations", f"expected an object, got {tdoc!r:.60}")
        for key, vec in tdoc.items():
            if not (key.isascii() and key.isdigit()):
                raise SystemSpecError("translations", f"key {key!r} is not a class number (digits only)")
            a = _numbers(vec, f"translations.{key}", 1)
            if a.shape != (d,):
                raise SystemSpecError(f"translations.{key}", f"expected a vector in R^{d}, got shape {a.shape}")
            cls = int(key)
            if cls in keys:
                raise SystemSpecError(
                    "translations", f"keys {keys[cls]!r} and {key!r} both name translation class {cls}"
                )
            a.setflags(write=False)
            translations[cls], keys[cls] = a, key

    families = []
    labels_seen = set()
    classes_used = set()
    for i, fdoc in enumerate(_array(doc["families"], "families")):
        fdoc = _object(fdoc, f"families[{i}]", ("label", "maps"))
        label = fdoc["label"]
        if not isinstance(label, str) or not label:
            raise SystemSpecError(f"families[{i}].label", f"expected a nonempty string, got {label!r:.60}")
        if label in labels_seen:
            raise SystemSpecError(f"families[{i}].label", f"duplicate family label {label!r}")
        labels_seen.add(label)
        maps = []
        for j, mdoc in enumerate(_array(fdoc["maps"], f"families[{i}].maps")):
            where = f"families[{i}].maps[{j}]"
            mdoc = _object(mdoc, where, ("T",), ("translation_class",))
            T = _numbers(mdoc["T"], where + ".T", 2)
            if T.shape != (d, d):
                raise SystemSpecError(
                    where + ".T", f"expected a {d}x{d} row-major matrix, got shape {T.shape}"
                )
            cls = _integer(mdoc.get("translation_class", j), where + ".translation_class", 0)
            classes_used.add(cls)
            a = None
            if translations is not None:
                if cls not in translations:
                    raise SystemSpecError(
                        "translations", f"no vector for translation class {cls} used by {where}"
                    )
                a = translations[cls]
            try:
                amap = AffineMap(T, cls, a)
            except ValueError as exc:
                raise SystemSpecError(where + ".T", str(exc)) from exc
            s_max, s_min = amap.sigma_max(), amap.sigma_min()
            if s_max > hi + 1e-9 or s_min < lo - 1e-9:
                raise SystemSpecError(
                    where + ".T",
                    f"singular values [{s_min:.6g}, {s_max:.6g}] leave the declared "
                    f"bounds [{lo!r}, {hi!r}]",
                )
            maps.append(amap)
        try:
            families.append(IfsFamily(label, tuple(maps)))
        except ValueError as exc:
            raise SystemSpecError(f"families[{i}]", str(exc)) from exc

    if translations is not None:
        stray = sorted(set(translations) - classes_used)
        if stray:
            raise SystemSpecError(
                "translations", f"classes {stray} are not used by any map (typo?)"
            )

    graph = None
    if "graph" in doc:
        gdoc = _object(doc["graph"], "graph", ("V", "v0", "labels"))
        V, v0 = _integer(gdoc["V"], "graph.V", 1), _integer(gdoc["v0"], "graph.v0", 1)
        if len(_array(gdoc["labels"], "graph.labels")) != len(families):
            raise SystemSpecError(
                "graph.labels",
                f"expected one label per family ({len(families)}), got {len(gdoc['labels'])}",
            )
        glabels = []
        for i, ldoc in enumerate(gdoc["labels"]):
            fam = families[i]
            ldoc = _object(ldoc, f"graph.labels[{i}]", ("prob", "edges"))
            prob = float(_numbers(ldoc["prob"], f"graph.labels[{i}].prob", 0))
            if prob < 0.0:
                raise SystemSpecError(f"graph.labels[{i}].prob", f"must be nonnegative, got {prob!r}")
            edges = []
            first_use = {}  # (vertex, map index) -> the edge that first used it
            for j, edoc in enumerate(_array(ldoc["edges"], f"graph.labels[{i}].edges")):
                where = f"graph.labels[{i}].edges[{j}]"
                edoc = _object(edoc, where, ("from", "to", "map"))
                idx = _integer(edoc["map"], where + ".map", 0, fam.size - 1)
                source = _integer(edoc["from"], where + ".from", 1)
                edge = GraphEdge(source, _integer(edoc["to"], where + ".to", 1), fam.maps[idx])
                first = first_use.setdefault((source, idx), j)
                if first != j:
                    raise SystemSpecError(
                        where + ".map",
                        f"map {idx} already leaves vertex {source} by edges[{first}]; "
                        "a vertex's out-edges under one label need distinct maps",
                    )
                edges.append(edge)
            glabels.append(GraphLabel(fam.label, prob, tuple(edges)))
        try:
            graph = GraphSystem(V, v0, tuple(glabels))
        except ValueError as exc:
            raise SystemSpecError("graph", str(exc)) from exc

    spec = SystemSpec(d=d, families=tuple(families), bounds=(lo, hi),
                      translations=translations, graph=graph)
    object.__setattr__(spec, "doc", doc)
    return spec


def bind_translations(spec: SystemSpec, seed=0) -> SystemSpec:
    """Bind unbound translation classes to uniform draws from [0, 1]^d.

    Already-bound documents are returned unchanged; the assignment depends
    only on ``seed`` and the sorted set of classes.
    """
    if spec.translations is not None:
        return spec
    if spec.doc is None:
        raise ValueError("bind_translations needs a spec from parse_system, which keeps its document")
    classes = sorted({m.translation_class for fam in spec.families for m in fam.maps})
    rng = np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(9,)))
    drawn = {str(c): rng.random(spec.d).tolist() for c in classes}
    return _build({**spec.doc, "translations": drawn})


# ---------------------------------------------------------------------------
# command-line front end


def _emit(pieces: list[str], out: str | None) -> None:
    """Write the already formatted ``pieces`` in order, to stdout or to ``out``."""
    if out is None or out == "-":
        sys.stdout.writelines(pieces)
    else:
        with open(out, "w", encoding="utf-8", newline="\n") as fh:
            fh.writelines(pieces)


_CSV_CHUNK = 1 << 14  # rows formatted per ``%`` call


def _csv_text(header: str, columns) -> list[str]:
    """The header line, then one row per line, each cell the ``repr`` of its
    number, as a list of pieces to write in order: no joined copy of the text
    is made, and every piece is formatted before ``_emit`` writes the first.

    A column whose cells all have the bits of its first (so 0.0 and -0.0 do
    not mix) is written into the line template once; the other cells fill
    the template ``_CSV_CHUNK`` rows at a time with ``%r``, which is ``repr``.
    """
    rows = np.column_stack(columns)
    if not len(rows):
        return [header + "\n"]
    bits = rows.view(np.int64)
    constant = np.all(bits == bits[0], axis=0)
    line = ",".join(repr(x) if same else "%r" for x, same in zip(rows[0].tolist(), constant)) + "\n"
    free = rows[:, ~constant]
    return [header + "\n"] + [
        (line * len(chunk)) % tuple(chunk.ravel().tolist())
        for chunk in (free[lo:lo + _CSV_CHUNK] for lo in range(0, len(free), _CSV_CHUNK))
    ]


def _verdict_text(tag: str, v: Verdict) -> str:
    lines = [f"{tag}: {v}"]
    wit = v.witness
    if wit is not None:
        for name in ("v", "w", "v_wedge", "w_wedge"):
            x = getattr(wit, name)
            if x is not None:
                lines.append(f"  witness {name} = {[float(c) for c in x.coords]}")
        if not wit.w_decomposable:
            lines.append("  (w is a rank-deficiency direction, not necessarily a blade)")
    return "".join(line + "\n" for line in lines)


def _cmd_check_fs(args, spec) -> tuple[list[str], int]:
    fam = LinearFamily.from_matrices([m.T for m in spec.family(args.family).maps])
    if args.depth > 1:
        fam = iterate_closure(fam, args.depth)
    opts = {"samples": args.samples, "tol": args.tol, "seed": args.seed}
    if args.s is None:
        grades = list(range(1, spec.d)) or [0]
        verdicts = [(f"C({m})", check_cm(fam, m, **opts)) for m in grades]
    elif args.s.is_integer():
        m = int(args.s)
        verdicts = [(f"C({m})", check_cm(fam, m, **opts))]
    else:
        verdicts = [(f"C({args.s})", check_cs(fam, args.s, **opts))]
    passed = all(v.passed for _, v in verdicts)
    return [_verdict_text(tag, v) for tag, v in verdicts], 0 if passed else 1


def _cmd_certify(args, spec) -> tuple[list[str], int]:
    fam = spec.family(args.family)
    i, j = args.maps
    if not (0 <= i < fam.size and 0 <= j < fam.size) or i == j:
        raise SystemSpecError(
            "maps", f"need two distinct map indices in 0..{fam.size - 1}, got ({i}, {j})"
        )
    report = criterion_cscm(fam.maps[i].T, fam.maps[j].T, tol=args.tol)
    return [json.dumps(report.to_json_dict(), indent=2) + "\n"], 0 if report.passed else 1


def _cmd_pressure(args, spec) -> tuple[list[str], int]:
    s_max = float(spec.d) if args.s_max is None else args.s_max
    grid = np.linspace(args.s_min, s_max, args.grid)
    tree = deterministic_tree(spec.family(args.family), args.k)
    curve = pressure_curve(tree, grid, args.k)
    return _csv_text("s,p,diag", (curve.s, curve.p, curve.diagnostic)), 0


def _cmd_dim(args, spec) -> tuple[list[str], int]:
    lo, hi = spec.bounds
    if not 0.0 < lo <= hi < 0.5:
        raise HypothesisViolation(
            f"the dimension formula requires declared bounds 0 < sigma_lo <= sigma_hi < 1/2; "
            f"this document declares [{lo!r}, {hi!r}]"
        )
    spec = bind_translations(spec, args.seed)
    fam = spec.family(args.family)
    tree = deterministic_tree(fam, max(args.k, args.depth))
    report = dimension_report(tree, args.k, args.depth, tol=args.tol, j_min=args.j_min, j_max=args.j_max)
    return [json.dumps(report.to_json_dict(), indent=2) + "\n"], 0


def _cmd_simulate(args, spec) -> tuple[list[str], int]:
    if spec.graph is None:
        raise SystemSpecError("graph", "simulate needs a document with a graph section")
    gs = spec.graph
    g = sample_graph_sequence(gs, args.seed, args.length)
    necks = detect_necks(g, gs, thinning=args.thinning)
    gaps = np.diff(np.concatenate([[0], np.asarray(necks, dtype=int)]))
    sys.stderr.write(
        f"labels drawn: {len(g)}\n"
        f"neck probability: {gs.neck_probability()!r}\n"
        f"necks realized: {len(necks)}\n"
        + (f"mean gap: {float(np.mean(gaps))!r}\n" if len(gaps) else "")
    )
    return _csv_text("index,gap", (np.arange(1, len(gaps) + 1), gaps)), 0


def _cmd_points(args, spec) -> tuple[list[str], int]:
    spec = bind_translations(spec, args.seed)
    fam = spec.family(args.family)
    tree = deterministic_tree(fam, args.depth)
    points, weights = enumerate_points(tree, args.depth, args.s)
    header = ",".join(f"x{i + 1}" for i in range(spec.d)) + ",weight"
    return _csv_text(header, (points, weights)), 0


def _cmd_boxdim(args, spec) -> tuple[list[str], int]:
    with open(args.points, "r", encoding="utf-8") as fh:
        header = fh.readline().strip().split(",")
    with warnings.catch_warnings():  # a header-only file is refused below, without numpy's warning
        warnings.filterwarnings("ignore", "loadtxt: input contained no data", UserWarning)
        data = np.loadtxt(args.points, delimiter=",", skiprows=1, ndmin=2)
    if data.shape[0] == 0:
        raise ValueError(f"{args.points}: no data rows below the header")
    if data.shape[1] != len(header):
        raise ValueError(f"{args.points}: rows have {data.shape[1]} columns, the header {len(header)}")
    if header[-1].strip() == "weight":
        data = data[:, :-1]
    fit = box_dimension(data, args.j_min, args.j_max)
    return [json.dumps(fit.to_json_dict(), indent=2) + "\n"], 0


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The ``affdim`` parser, built once per process: ``parse_args`` writes
    only the namespace it returns, so every ``cli`` call can share it."""
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--out", default=None, help="output path (default: stdout)")
    common.add_argument("--threads", type=int, default=1,
                        help="at least 1; accepted, but enumeration runs on one thread")
    document = argparse.ArgumentParser(add_help=False, parents=[common])
    document.add_argument("system", help="system JSON (path or literal text)")
    family = argparse.ArgumentParser(add_help=False, parents=[document])
    family.add_argument("--family", default=None, help="family label or index (default: first)")

    parser = argparse.ArgumentParser(
        prog="affdim",
        description="Affinity dimension toolkit: spanning checks, certificates, "
        "pressure curves and box-counting for affine code-tree systems.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("check-fs", parents=[family],
                       help="test the spanning condition C(m) / C(s) for a family")
    p.add_argument("--s", type=float, default=None,
                   help="grade to test; integer -> C(m), fractional -> C(s); "
                        "default: every integer grade")
    p.add_argument("--depth", type=int, default=1, help="closure depth")
    p.add_argument("--samples", type=int, default=1000, help="random sample count")
    p.add_argument("--tol", type=float, default=DEFAULT_TOL, help="numeric tolerance")
    p.add_argument("--seed", type=int, default=0, help="seed for the samples")
    p.set_defaults(handler=_cmd_check_fs)

    p = sub.add_parser("certify", parents=[family],
                       help="two-map eigenstructure certificate")
    p.add_argument("--maps", type=int, nargs=2, default=(0, 1), metavar=("I", "J"),
                   help="indices of the two maps (default: 0 1)")
    p.add_argument("--tol", type=float, default=DEFAULT_TOL, help="numeric tolerance")
    p.set_defaults(handler=_cmd_certify)

    p = sub.add_parser("pressure", parents=[family],
                       help="pressure curve p_k(s) as CSV (s,p,diag)")
    p.add_argument("--s-min", type=float, default=0.0)
    p.add_argument("--s-max", type=float, default=None, help="default: ambient dimension")
    p.add_argument("--grid", type=int, default=21, help="number of grid points")
    p.add_argument("--k", type=int, default=6, help="composition level")
    p.set_defaults(handler=_cmd_pressure)

    p = sub.add_parser("dim", parents=[family],
                       help="dimension report (pressure zero vs box counting) as JSON")
    p.add_argument("--j-min", type=int, default=2, help="finest dyadic scale is 2^-j_max")
    p.add_argument("--j-max", type=int, default=None, help="default: set from depth and bounds")
    p.add_argument("--k", type=int, default=6, help="composition level of the pressure")
    p.add_argument("--depth", type=int, default=10, help="tree depth of the box-counted points")
    p.add_argument("--tol", type=float, default=1e-6, help="tolerance on |p| at the zero")
    p.add_argument("--seed", type=int, default=0, help="seed for unbound translations")
    p.set_defaults(handler=_cmd_dim)

    p = sub.add_parser("simulate", parents=[document],
                       help="draw a graph label sequence; emit neck gaps as CSV (index,gap)")
    p.add_argument("--length", type=int, default=10000, help="number of labels to draw")
    p.add_argument("--thinning", type=int, default=1, help="keep every t-th neck")
    p.add_argument("--seed", type=int, default=0, help="seed for the label draws")
    p.set_defaults(handler=_cmd_simulate)

    p = sub.add_parser("points", parents=[family],
                       help="enumerate cylinder points as CSV (x1,...,xd,weight)")
    p.add_argument("--s", type=float, default=0.0, help="weight exponent (default 0: uniform)")
    p.add_argument("--depth", type=int, default=8, help="tree depth")
    p.add_argument("--seed", type=int, default=0, help="seed for unbound translations")
    p.set_defaults(handler=_cmd_points)

    p = sub.add_parser("boxdim", parents=[common],
                       help="box-counting fit for a CSV point cloud")
    p.add_argument("points", help="CSV with header x1,...,xd[,weight]")
    p.add_argument("--j-min", type=int, default=2)
    p.add_argument("--j-max", type=int, default=9)
    p.set_defaults(handler=_cmd_boxdim)

    return parser


def cli(argv=None) -> int:
    """Run one subcommand: read its document, compute, write the output; returns the exit code."""
    parser = _build_parser()
    args = parser.parse_args(argv)
    for flag, least in (("threads", 1), ("depth", 1), ("grid", 1), ("k", 1), ("seed", 0),
                        ("samples", 0), ("length", 1), ("thinning", 1)):
        value = getattr(args, flag, None)
        if value is not None and value < least:
            parser.error(f"argument --{flag}: must be at least {least}, got {value}")
    for flag in ("s_min", "s_max"):
        value = getattr(args, flag, None)
        if value is not None and not math.isfinite(value):
            parser.error(f"argument --{flag.replace('_', '-')}: must be finite, got {value}")
    try:
        spec = parse_system(args.system) if hasattr(args, "system") else None
        pieces, code = args.handler(args, spec)
        _emit(pieces, args.out)
        return code
    except (UnsupportedEigenstructure, HypothesisViolation, EnumerationCapExceeded) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 1
    except (ValueError, OSError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 2
    except MemoryError as exc:
        detail = f": {exc}" if str(exc) else ""
        sys.stderr.write(f"error: out of memory{detail}\n")
        return 2


def main() -> None:
    raise SystemExit(cli())
