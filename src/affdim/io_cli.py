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

    affdim check-fs SYSTEM [--s S] [--samples N] [--depth D]
    affdim certify  SYSTEM [--maps I J] [--tol T]
    affdim pressure SYSTEM [--k K] [--s-min A --s-max B --grid N]
    affdim dim      SYSTEM [--k K] [--depth D]
    affdim simulate SYSTEM [--length N] [--thinning T]
    affdim points   SYSTEM [--depth D] [--s S]
    affdim boxdim   POINTS_CSV [--j-min A --j-max B]

Exit codes: 0 = success or passing verdict; 1 = Fail verdict or a hypothesis
violated at run time; 2 = invalid input.  All randomized output is a pure
function of ``--seed`` and never of ``--threads`` or scheduling.
"""

from __future__ import annotations

import argparse
import functools
import importlib.resources
import json
import math
import os
import sys
import warnings
from dataclasses import dataclass, field

import jsonschema
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
from .fs_checker import (
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
    "serialize_system",
    "bind_translations",
    "cli",
    "main",
]


class SystemSpecError(ValueError):
    """A system document failed schema or invariant validation.

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
    ``doc`` is the canonical document the spec was built from: float
    matrices, an explicit translation class per map, translations keyed by
    class in class order, and edges by map index.  Serialization writes it
    and equality compares it.  Only the document builder sets it, so a spec
    constructed directly has no ``doc`` and cannot be compared or serialized.
    """

    d: int
    families: tuple[IfsFamily, ...]
    bounds: tuple[float, float]
    translations: dict[int, np.ndarray] | None = None
    graph: GraphSystem | None = None
    doc: dict = field(init=False, repr=False)

    @property
    def bound(self) -> bool:
        return self.translations is not None

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

    def __eq__(self, other):
        if not isinstance(other, SystemSpec):
            return NotImplemented
        return self.doc == other.doc

    __hash__ = None


@functools.lru_cache(maxsize=1)
def _schema() -> dict:
    text = importlib.resources.files("affdim").joinpath("system_spec.schema.json").read_text()
    return json.loads(text)


def _json_path(parts) -> str:
    out = ""
    for p in parts:
        out += f"[{p}]" if isinstance(p, int) else (f".{p}" if out else str(p))
    return out or "(document)"


def _numbers(raw, where: str) -> np.ndarray:
    """``raw`` as a float array, every entry a finite double."""
    try:
        x = np.array(raw, dtype=float)
    except OverflowError:
        raise SystemSpecError(where, "a number lies outside the double range") from None
    if not np.all(np.isfinite(x)):
        raise SystemSpecError(where, f"numbers must be finite, got {raw!r}")
    return x


def parse_system(source) -> SystemSpec:
    """Parse and validate a system document from a file path or raw JSON text.

    A string whose first non-space character is ``{`` is treated as the
    document itself; anything else (including path objects) is read from disk.
    Raises :class:`SystemSpecError` with a field-precise message on any
    schema or invariant violation.
    """
    if isinstance(source, str) and source.lstrip().startswith("{"):
        text = source
    else:
        text = open(os.fspath(source), "r", encoding="utf-8").read()
    try:
        doc = json.loads(text)
    except ValueError as exc:
        raise SystemSpecError("(document)", f"not valid JSON: {exc}") from exc

    validator = jsonschema.Draft202012Validator(_schema())
    errors = sorted(validator.iter_errors(doc), key=lambda e: list(map(str, e.absolute_path)))
    if errors:
        e = errors[0]
        raise SystemSpecError(_json_path(e.absolute_path), e.message)
    return _build(doc)


def _build(doc: dict) -> SystemSpec:
    """The spec of a schema-valid document, with its canonical form as ``doc``."""
    d = int(doc["d"])
    lo = float(_numbers(doc["bounds"]["sigma_lo"], "bounds.sigma_lo"))
    hi = float(_numbers(doc["bounds"]["sigma_hi"], "bounds.sigma_hi"))
    if not lo <= hi:
        raise SystemSpecError("bounds", f"sigma_lo = {lo!r} exceeds sigma_hi = {hi!r}")
    canon: dict = {"d": d, "bounds": {"sigma_lo": lo, "sigma_hi": hi}, "families": []}

    translations = None
    if "translations" in doc:
        translations = {}
        for key, vec in doc["translations"].items():
            a = _numbers(vec, f"translations.{key}")
            if a.shape != (d,):
                raise SystemSpecError(f"translations.{key}", f"expected a vector in R^{d}, got shape {a.shape}")
            a.setflags(write=False)
            translations[int(key)] = a

    families = []
    labels_seen = set()
    classes_used = set()
    for i, fdoc in enumerate(doc["families"]):
        label = fdoc["label"]
        if label in labels_seen:
            raise SystemSpecError(f"families[{i}].label", f"duplicate family label {label!r}")
        labels_seen.add(label)
        maps = []
        for j, mdoc in enumerate(fdoc["maps"]):
            where = f"families[{i}].maps[{j}]"
            T = _numbers(mdoc["T"], where + ".T")
            if T.shape != (d, d):
                raise SystemSpecError(
                    where + ".T", f"expected a {d}x{d} row-major matrix, got shape {T.shape}"
                )
            cls = int(mdoc.get("translation_class", j))
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
        canon["families"].append({"label": label, "maps": [
            {"T": m.T.tolist(), "translation_class": m.translation_class} for m in maps
        ]})

    if translations is not None:
        stray = sorted(set(translations) - classes_used)
        if stray:
            raise SystemSpecError(
                "translations", f"classes {stray} are not used by any map (typo?)"
            )
        canon["translations"] = {str(c): translations[c].tolist() for c in sorted(translations)}

    graph = None
    if "graph" in doc:
        gdoc = doc["graph"]
        if len(gdoc["labels"]) != len(families):
            raise SystemSpecError(
                "graph.labels",
                f"expected one label per family ({len(families)}), got {len(gdoc['labels'])}",
            )
        glabels = []
        canon_labels = []
        for i, ldoc in enumerate(gdoc["labels"]):
            fam = families[i]
            prob = float(_numbers(ldoc["prob"], f"graph.labels[{i}].prob"))
            edges = []
            canon_edges = []
            for j, edoc in enumerate(ldoc["edges"]):
                idx = int(edoc["map"])
                if not 0 <= idx < fam.size:
                    raise SystemSpecError(
                        f"graph.labels[{i}].edges[{j}].map",
                        f"map index {idx} outside 0..{fam.size - 1} of family {fam.label!r}",
                    )
                edge = GraphEdge(int(edoc["from"]), int(edoc["to"]), fam.maps[idx])
                edges.append(edge)
                canon_edges.append({"from": edge.source, "to": edge.target, "map": idx})
            glabels.append(GraphLabel(fam.label, prob, tuple(edges)))
            canon_labels.append({"prob": prob, "edges": canon_edges})
        try:
            graph = GraphSystem(int(gdoc["V"]), int(gdoc["v0"]), tuple(glabels))
        except ValueError as exc:
            raise SystemSpecError("graph", str(exc)) from exc
        canon["graph"] = {"V": graph.V, "v0": graph.v0, "labels": canon_labels}

    spec = SystemSpec(d=d, families=tuple(families), bounds=(lo, hi),
                      translations=translations, graph=graph)
    object.__setattr__(spec, "doc", canon)
    return spec


def serialize_system(spec: SystemSpec) -> str:
    """Canonical JSON text; ``parse_system(serialize_system(s)) == s``."""
    return json.dumps(spec.doc, indent=2) + "\n"


def bind_translations(spec: SystemSpec, seed=0) -> SystemSpec:
    """Bind unbound translation classes to uniform draws from [0, 1]^d.

    Already-bound documents are returned unchanged; the assignment depends
    only on ``seed`` and the sorted set of classes.
    """
    if spec.translations is not None:
        return spec
    classes = sorted({m.translation_class for fam in spec.families for m in fam.maps})
    rng = np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(9,)))
    drawn = {str(c): rng.random(spec.d).tolist() for c in classes}
    return _build({**spec.doc, "translations": drawn})


# ---------------------------------------------------------------------------
# command-line front end


def _emit(text: str, out: str | None) -> None:
    if out is None or out == "-":
        sys.stdout.write(text)
    else:
        with open(out, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(text)


def _csv_text(header: str, columns) -> str:
    """The header, then one row per line, each cell the ``repr`` of its number."""
    rows = np.column_stack(columns)
    return header + "\n" + "".join(",".join(map(repr, row.tolist())) + "\n" for row in rows)


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


def _linear_family(spec: SystemSpec, key, depth: int) -> LinearFamily:
    fam = spec.family(key)
    base = LinearFamily.from_matrices([m.T for m in fam.maps])
    if depth > 1:
        base = iterate_closure(base, depth)
    return base


def _cmd_check_fs(args) -> int:
    spec = parse_system(args.system)
    depth = 1 if args.depth is None else args.depth
    samples = 1000 if args.samples is None else args.samples
    tol = 1e-9 if args.tol is None else args.tol
    fam = _linear_family(spec, args.family, depth)
    d = spec.d

    if args.s is None:
        grades = list(range(1, d))
        if not grades:
            grades = [0]
        verdicts = [
            (f"C({m})", check_cm(fam, m, samples=samples, tol=tol, seed=args.seed))
            for m in grades
        ]
    elif args.s.is_integer():
        m = int(args.s)
        verdicts = [(f"C({m})", check_cm(fam, m, samples=samples, tol=tol, seed=args.seed))]
    else:
        verdicts = [(f"C({args.s})", check_cs(fam, args.s, samples=samples, tol=tol, seed=args.seed))]

    _emit("".join(_verdict_text(tag, v) for tag, v in verdicts), args.out)
    return 0 if all(v.passed for _, v in verdicts) else 1


def _cmd_certify(args) -> int:
    spec = parse_system(args.system)
    fam = spec.family(args.family)
    i, j = args.maps
    if not (0 <= i < fam.size and 0 <= j < fam.size) or i == j:
        raise SystemSpecError(
            "maps", f"need two distinct map indices in 0..{fam.size - 1}, got ({i}, {j})"
        )
    tol = 1e-9 if args.tol is None else args.tol
    report = criterion_cscm(fam.maps[i].T, fam.maps[j].T, tol=tol)
    _emit(json.dumps(report.to_json_dict(), indent=2) + "\n", args.out)
    return 0 if report.passed else 1


def _cmd_pressure(args) -> int:
    spec = parse_system(args.system)
    fam = spec.family(args.family)
    k = 6 if args.k is None else args.k
    depth = k if args.depth is None else max(args.depth, k)
    s_max = float(spec.d) if args.s_max is None else args.s_max
    grid = np.linspace(args.s_min, s_max, args.grid)
    tree = deterministic_tree(fam, depth)
    curve = pressure_curve(tree, grid, k, threads=args.threads)
    _emit(_csv_text("s,p,diag", (curve.s, curve.p, curve.diagnostic)), args.out)
    return 0


def _cmd_dim(args) -> int:
    spec = parse_system(args.system)
    lo, hi = spec.bounds
    if not 0.0 < lo <= hi < 0.5:
        raise HypothesisViolation(
            f"the dimension formula requires declared bounds 0 < sigma_lo <= sigma_hi < 1/2; "
            f"this document declares [{lo!r}, {hi!r}]"
        )
    spec = bind_translations(spec, args.seed)
    fam = spec.family(args.family)
    k = 6 if args.k is None else args.k
    depth = 10 if args.depth is None else args.depth
    tol = 1e-6 if args.tol is None else args.tol
    tree = deterministic_tree(fam, max(k, depth))
    report = dimension_report(
        tree, k, depth, tol=tol, j_min=args.j_min, j_max=args.j_max, threads=args.threads
    )
    _emit(json.dumps(report.to_json_dict(), indent=2) + "\n", args.out)
    return 0


def _cmd_simulate(args) -> int:
    spec = parse_system(args.system)
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
    _emit(_csv_text("index,gap", (np.arange(1, len(gaps) + 1), gaps)), args.out)
    return 0


def _cmd_points(args) -> int:
    spec = bind_translations(parse_system(args.system), args.seed)
    fam = spec.family(args.family)
    depth = 8 if args.depth is None else args.depth
    tree = deterministic_tree(fam, depth)
    points, weights = enumerate_points(tree, depth, args.s, threads=args.threads)
    header = ",".join(f"x{i + 1}" for i in range(spec.d)) + ",weight"
    _emit(_csv_text(header, (points, weights)), args.out)
    return 0


def _cmd_boxdim(args) -> int:
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
    _emit(json.dumps(fit.to_json_dict(), indent=2) + "\n", args.out)
    return 0


def _build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--seed", type=int, default=0, help="seed for every random draw")
    common.add_argument("--depth", type=int, default=None, help="tree / closure depth")
    common.add_argument("--k", type=int, default=None, help="composition level")
    common.add_argument("--samples", type=int, default=None, help="random sample count")
    common.add_argument("--tol", type=float, default=None, help="numeric tolerance")
    common.add_argument("--out", default=None, help="output path (default: stdout)")
    common.add_argument("--threads", type=int, default=1,
                        help="worker threads for enumeration (at least 1)")

    parser = argparse.ArgumentParser(
        prog="affdim",
        description="Affinity dimension toolkit: spanning checks, certificates, "
        "pressure curves and box-counting for affine code-tree systems.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("check-fs", parents=[common],
                       help="test the spanning condition C(m) / C(s) for a family")
    p.add_argument("system", help="system JSON (path or literal text)")
    p.add_argument("--family", default=None, help="family label or index (default: first)")
    p.add_argument("--s", type=float, default=None,
                   help="grade to test; integer -> C(m), fractional -> C(s); "
                        "default: every integer grade")
    p.set_defaults(handler=_cmd_check_fs)

    p = sub.add_parser("certify", parents=[common],
                       help="two-map eigenstructure certificate")
    p.add_argument("system")
    p.add_argument("--family", default=None)
    p.add_argument("--maps", type=int, nargs=2, default=(0, 1), metavar=("I", "J"),
                   help="indices of the two maps (default: 0 1)")
    p.set_defaults(handler=_cmd_certify)

    p = sub.add_parser("pressure", parents=[common],
                       help="pressure curve p_k(s) as CSV (s,p,diag)")
    p.add_argument("system")
    p.add_argument("--family", default=None)
    p.add_argument("--s-min", type=float, default=0.0)
    p.add_argument("--s-max", type=float, default=None, help="default: ambient dimension")
    p.add_argument("--grid", type=int, default=21, help="number of grid points")
    p.set_defaults(handler=_cmd_pressure)

    p = sub.add_parser("dim", parents=[common],
                       help="dimension report (pressure zero vs box counting) as JSON")
    p.add_argument("system")
    p.add_argument("--family", default=None)
    p.add_argument("--j-min", type=int, default=2, help="finest dyadic scale is 2^-j_max")
    p.add_argument("--j-max", type=int, default=None, help="default: set from depth and bounds")
    p.set_defaults(handler=_cmd_dim)

    p = sub.add_parser("simulate", parents=[common],
                       help="draw a graph label sequence; emit neck gaps as CSV (index,gap)")
    p.add_argument("system")
    p.add_argument("--length", type=int, default=10000, help="number of labels to draw")
    p.add_argument("--thinning", type=int, default=1, help="keep every t-th neck")
    p.set_defaults(handler=_cmd_simulate)

    p = sub.add_parser("points", parents=[common],
                       help="enumerate cylinder points as CSV (x1,...,xd,weight)")
    p.add_argument("system")
    p.add_argument("--family", default=None)
    p.add_argument("--s", type=float, default=0.0, help="weight exponent (default 0: uniform)")
    p.set_defaults(handler=_cmd_points)

    p = sub.add_parser("boxdim", parents=[common],
                       help="box-counting fit for a CSV point cloud")
    p.add_argument("points", help="CSV with header x1,...,xd[,weight]")
    p.add_argument("--j-min", type=int, default=2)
    p.add_argument("--j-max", type=int, default=9)
    p.set_defaults(handler=_cmd_boxdim)

    return parser


def cli(argv=None) -> int:
    """Run one subcommand; returns the process exit code."""
    parser = _build_parser()
    args = parser.parse_args(argv)
    for flag in ("threads", "depth", "grid"):
        value = getattr(args, flag, None)
        if value is not None and value < 1:
            parser.error(f"argument --{flag}: must be at least 1, got {value}")
    for flag in ("s_min", "s_max"):
        value = getattr(args, flag, None)
        if value is not None and not math.isfinite(value):
            parser.error(f"argument --{flag.replace('_', '-')}: must be finite, got {value}")
    try:
        return args.handler(args)
    except UnsupportedEigenstructure as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 1
    except SystemSpecError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 2
    except (HypothesisViolation, EnumerationCapExceeded) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 1
    except (ValueError, OSError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 2


def main() -> None:
    raise SystemExit(cli())
