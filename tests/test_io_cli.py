"""Tests for document parsing, binding, and the CLI.

Round trips are the backbone: parsing the field walker's text of a spec must
reproduce every field exactly, and every CLI run must be byte-reproducible
for fixed seed and thread count.
"""

import json
import math
import os
import pathlib
import subprocess
import sys

import numpy as np
import pytest

from affdim import (
    AffineMap,
    IfsFamily,
    SystemSpec,
    SystemSpecError,
    bind_translations,
    cli,
    deterministic_tree,
    enumerate_points,
    parse_system,
    pressure_curve,
)
from affdim import code_tree, io_cli

from conftest import random_contraction

CORNER_DOC = {
    "d": 2,
    "bounds": {"sigma_lo": 0.45, "sigma_hi": 0.45},
    "families": [
        {
            "label": "corners",
            "maps": [
                {"T": [[0.45, 0.0], [0.0, 0.45]], "translation_class": 0},
                {"T": [[0.45, 0.0], [0.0, 0.45]], "translation_class": 1},
                {"T": [[0.45, 0.0], [0.0, 0.45]], "translation_class": 2},
            ],
        }
    ],
    "translations": {"0": [0.0, 0.0], "1": [0.55, 0.0], "2": [0.0, 0.55]},
}

IDENTITY_DOC = {
    "d": 2,
    "bounds": {"sigma_lo": 1.0, "sigma_hi": 1.0},
    "families": [{"label": "still", "maps": [{"T": [[1.0, 0.0], [0.0, 1.0]]}]}],
}

SPIN_DOC = {
    "d": 2,
    "bounds": {"sigma_lo": 1.0, "sigma_hi": 1.0},
    "families": [
        {
            "label": "spin",
            "maps": [
                {"T": [[1.0, 0.0], [0.0, 1.0]]},
                {"T": [[0.0, -1.0], [1.0, 0.0]]},
            ],
        }
    ],
}

CERT_DOC = {
    "d": 2,
    "bounds": {"sigma_lo": 0.2, "sigma_hi": 0.45},
    "families": [
        {
            "label": "pair",
            "maps": [
                {"T": [[0.4, 0.0], [0.0, 0.3]]},
                {"T": [[0.325, 0.125], [0.125, 0.325]]},
            ],
        }
    ],
}

THIRDS_DOC = {
    "d": 1,
    "bounds": {"sigma_lo": 1.0 / 3.0, "sigma_hi": 1.0 / 3.0},
    "families": [
        {
            "label": "thirds",
            "maps": [{"T": [[1.0 / 3.0]]}, {"T": [[1.0 / 3.0]]}],
        }
    ],
    "translations": {"0": [0.0], "1": [2.0 / 3.0]},
}

GRAPH_DOC = {
    "d": 1,
    "bounds": {"sigma_lo": 0.2, "sigma_hi": 0.4},
    "families": [
        {"label": "n", "maps": [{"T": [[0.25]]}, {"T": [[0.2]]}]},
        {"label": "s", "maps": [{"T": [[0.4]]}, {"T": [[0.35]]}, {"T": [[0.3]]}]},
    ],
    "graph": {
        "V": 2,
        "v0": 1,
        "labels": [
            {
                "prob": 0.3,
                "edges": [
                    {"from": 1, "to": 1, "map": 0},
                    {"from": 2, "to": 1, "map": 1},
                ],
            },
            {
                "prob": 0.7,
                "edges": [
                    {"from": 1, "to": 2, "map": 0},
                    {"from": 1, "to": 2, "map": 1},
                    {"from": 2, "to": 2, "map": 2},
                ],
            },
        ],
    },
}

# two 1-D maps so strong that phi_s of a deep word lies far below the smallest double
TINY_DOC = {
    "d": 1,
    "bounds": {"sigma_lo": 0.001, "sigma_hi": 0.001},
    "families": [
        {
            "label": "tiny",
            "maps": [
                {"T": [[0.001]], "translation_class": 0},
                {"T": [[0.001]], "translation_class": 1},
            ],
        }
    ],
    "translations": {"0": [0.0], "1": [0.5]},
}

WIDE_DOC = {
    "d": 2,
    "bounds": {"sigma_lo": 0.3, "sigma_hi": 0.6},
    "families": [
        {
            "label": "wide",
            "maps": [
                {"T": [[0.6, 0.0], [0.0, 0.3]]},
                {"T": [[0.3, 0.0], [0.0, 0.6]]},
            ],
        }
    ],
}

# three generic maps: every C(s) prefilter passes
GENERIC_DOC = {
    "d": 2,
    "bounds": {"sigma_lo": 0.1, "sigma_hi": 0.45},
    "families": [
        {
            "label": "generic",
            "maps": [
                {"T": [[0.3, 0.1], [0.05, 0.35]]},
                {"T": [[0.4, -0.1], [0.1, 0.2]]},
                {"T": [[0.2, 0.0], [0.15, 0.3]]},
            ],
        }
    ],
}

# an integer literal past the largest double
HUGE_INT = "1" + "0" * 400


def doc_text(doc) -> str:
    return json.dumps(doc)


def doc_path(tmp_path, doc, name="system.json"):
    path = tmp_path / name
    path.write_text(doc_text(doc), encoding="utf-8")
    return str(path)


def mutate(doc, fn):
    copy = json.loads(json.dumps(doc))
    fn(copy)
    return doc_text(copy)


def reference_serialize(spec) -> str:
    """A spec's fields as JSON text: float matrices, an explicit translation
    class per map, translations in class order and edges by map index, so two
    specs with the same text have the same fields."""
    doc: dict = {
        "d": spec.d,
        "bounds": {"sigma_lo": float(spec.bounds[0]), "sigma_hi": float(spec.bounds[1])},
        "families": [
            {
                "label": fam.label,
                "maps": [
                    {"T": [[float(x) for x in row] for row in m.T],
                     "translation_class": m.translation_class}
                    for m in fam.maps
                ],
            }
            for fam in spec.families
        ],
    }
    if spec.translations is not None:
        doc["translations"] = {
            str(c): [float(x) for x in spec.translations[c]] for c in sorted(spec.translations)
        }
    if spec.graph is not None:
        gs = spec.graph
        doc["graph"] = {
            "V": gs.V,
            "v0": gs.v0,
            "labels": [
                {
                    "prob": float(g.prob),
                    "edges": [
                        {"from": e.source, "to": e.target,
                         "map": spec.families[i].maps.index(e.map)}
                        for e in g.edges
                    ],
                }
                for i, g in enumerate(gs.labels)
            ],
        }
    return json.dumps(doc, indent=2) + "\n"


# ---------------------------------------------------------------------------
# parsing and validation


class TestParse:
    def test_minimal_document(self):
        spec = parse_system(doc_text(CERT_DOC))
        assert spec.d == 2
        assert len(spec.families) == 1
        assert spec.families[0].label == "pair"
        assert spec.families[0].size == 2
        assert spec.bounds == (0.2, 0.45)
        assert spec.translations is None and spec.graph is None
        assert spec.doc == CERT_DOC  # the decoded input

    def test_translations_are_applied(self):
        spec = parse_system(doc_text(CORNER_DOC))
        assert list(spec.translations) == [0, 1, 2]
        np.testing.assert_array_equal(spec.families[0].maps[1].a, [0.55, 0.0])

    def test_path_and_text_agree(self, tmp_path):
        path = doc_path(tmp_path, CORNER_DOC)
        assert reference_serialize(parse_system(path)) == reference_serialize(
            parse_system(doc_text(CORNER_DOC)))

    def test_graph_document(self):
        spec = parse_system(doc_text(GRAPH_DOC))
        gs = spec.graph
        assert gs is not None
        assert (gs.V, gs.v0) == (2, 1)
        assert gs.neck_label_indices() == (0,)
        assert math.isclose(gs.neck_probability(), 0.3)

    def test_family_lookup(self):
        spec = parse_system(doc_text(GRAPH_DOC))
        assert spec.family("s").label == "s"
        assert spec.family(0).label == "n"
        assert spec.family("1").label == "s"
        assert spec.family(None).label == "n"
        with pytest.raises(SystemSpecError, match="no family"):
            spec.family("missing")
        with pytest.raises(SystemSpecError, match="outside"):
            spec.family(7)


class TestParseErrors:
    def expect(self, text, field_part, message_part=""):
        with pytest.raises(SystemSpecError) as info:
            parse_system(text)
        assert field_part in info.value.field
        assert message_part in str(info.value)

    def test_invalid_json(self):
        self.expect("{not json", "(document)", "not valid JSON")

    def test_missing_required_key(self):
        self.expect(mutate(CERT_DOC, lambda d: d.pop("bounds")), "(document)", "bounds")

    def test_dimension_out_of_schema(self):
        self.expect(mutate(CERT_DOC, lambda d: d.update(d=0)), "d")
        self.expect(mutate(CERT_DOC, lambda d: d.update(d=13)), "d")

    def test_unknown_top_level_key(self):
        self.expect(mutate(CERT_DOC, lambda d: d.update(extra=1)), "(document)")

    def test_matrix_wrong_shape(self):
        self.expect(
            mutate(CERT_DOC, lambda d: d["families"][0]["maps"][1].update(T=[[0.3, 0.0]])),
            "families[0].maps[1].T",
            "2x2",
        )

    def test_singular_matrix(self):
        self.expect(
            mutate(CERT_DOC, lambda d: d["families"][0]["maps"][0].update(
                T=[[0.4, 0.0], [0.4, 0.0]])),
            "families[0].maps[0].T",
            "singular",
        )

    def test_expanding_matrix(self):
        self.expect(
            mutate(IDENTITY_DOC, lambda d: d["families"][0]["maps"][0].update(
                T=[[1.5, 0.0], [0.0, 0.5]])),
            "families[0].maps[0].T",
        )

    def test_bounds_inverted(self):
        self.expect(
            mutate(CERT_DOC, lambda d: d["bounds"].update(sigma_lo=0.5)),
            "bounds",
            "exceeds",
        )

    def test_singular_values_leave_bounds(self):
        self.expect(
            mutate(CERT_DOC, lambda d: d["bounds"].update(sigma_hi=0.35)),
            "families[0].maps[0].T",
            "leave the declared",
        )

    def test_duplicate_family_labels(self):
        def dup(d):
            d["families"].append(json.loads(json.dumps(d["families"][0])))

        self.expect(mutate(CERT_DOC, dup), "families[1].label", "duplicate")

    def test_missing_translation_class(self):
        self.expect(
            mutate(CORNER_DOC, lambda d: d["translations"].pop("2")),
            "translations",
            "class 2",
        )

    def test_stray_translation_class(self):
        self.expect(
            mutate(CORNER_DOC, lambda d: d["translations"].update({"9": [0.0, 0.0]})),
            "translations",
            "not used",
        )

    def test_translation_keys_naming_one_class(self):
        # "01" and "1" are both class 1; neither may silently replace the other
        self.expect(
            mutate(CORNER_DOC, lambda d: d["translations"].update({"01": [0.9, 0.0]})),
            "translations",
            "keys '1' and '01' both name translation class 1",
        )

    def test_translation_key_with_a_trailing_newline(self):
        # "^[0-9]+$" also matches "1\n", since "$" matches before a final newline
        text = doc_text(CORNER_DOC).replace('"1": [0.55', '"1\\n": [0.55')
        assert '"1\\n"' in text
        self.expect(text, "translations", "not a class number")

    def test_ragged_matrix(self):
        self.expect(
            mutate(CERT_DOC, lambda d: d["families"][0]["maps"][0].update(T=[[0.25, 0.0], [0.25]])),
            "families[0].maps[0].T",
            "rows must all have the same length",
        )

    def test_translation_wrong_dimension(self):
        self.expect(
            mutate(CORNER_DOC, lambda d: d["translations"].update({"1": [0.55]})),
            "translations.1",
            "R^2",
        )

    def test_graph_label_count_mismatch(self):
        self.expect(
            mutate(GRAPH_DOC, lambda d: d["graph"]["labels"].pop()),
            "graph.labels",
            "one label per family",
        )

    def test_graph_edge_map_out_of_range(self):
        self.expect(
            mutate(GRAPH_DOC, lambda d: d["graph"]["labels"][0]["edges"][0].update(map=5)),
            "graph.labels[0].edges[0].map",
            "outside",
        )

    def test_graph_probabilities_must_sum(self):
        self.expect(
            mutate(GRAPH_DOC, lambda d: d["graph"]["labels"][0].update(prob=0.5)),
            "graph",
            "sum to 1",
        )

    def test_graph_needs_a_neck_label(self):
        def reroute(d):
            # send the neck label's edges away from the root
            d["graph"]["labels"][0]["edges"][0]["to"] = 2
            d["graph"]["labels"][0]["edges"][1]["to"] = 2

        self.expect(mutate(GRAPH_DOC, reroute), "graph", "neck")

    def test_graph_vertex_reuses_a_map(self):
        # the vertex's out-family would repeat a translation class, which only
        # building a tree used to find
        self.expect(
            mutate(GRAPH_DOC, lambda d: d["graph"]["labels"][1]["edges"][1].update(map=0)),
            "graph.labels[1].edges[1].map",
            "map 0 already leaves vertex 1 by edges[0]",
        )
        # another vertex may use the same map
        parse_system(mutate(GRAPH_DOC, lambda d: d["graph"]["labels"][1]["edges"][2].update(map=0)))


DROP = object()  # ``edit`` removes the key instead of setting it

MAP0 = ("families", 0, "maps", 0)
LABEL0 = ("graph", "labels", 0)
EDGE0 = LABEL0 + ("edges", 0)


def edit(doc, path, value) -> str:
    """The document's text with the entry at ``path`` set to ``value`` (or dropped)."""
    if not path:
        return json.dumps(value)
    copy = json.loads(json.dumps(doc))
    parent = copy
    for part in path[:-1]:
        parent = parent[part]
    if value is DROP:
        del parent[path[-1]]
    else:
        parent[path[-1]] = value
    return json.dumps(copy)


def refusal(doc, path, value, field):
    label = "/".join(map(str, path)) + "=" + ("drop" if value is DROP else repr(value))
    return pytest.param(doc, path, value, field, id=label)


# One malformed document per structural rule: a missing or unknown key at
# each object level, a wrong JSON type for each kind of field, an empty array
# or label, and each range; each is refused at the field that breaks the rule.
REFUSALS = [
    refusal(CERT_DOC, (), [], "(document)"),
    refusal(CERT_DOC, ("d",), DROP, "(document)"),
    refusal(CERT_DOC, ("extra",), 1, "(document)"),
    refusal(CERT_DOC, ("bounds", "sigma_hi"), DROP, "bounds"),
    refusal(CERT_DOC, ("bounds", "extra"), 1, "bounds"),
    refusal(CERT_DOC, ("bounds",), [0.2, 0.45], "bounds"),
    refusal(CERT_DOC, ("families", 0, "label"), DROP, "families[0]"),
    refusal(CERT_DOC, ("families", 0, "extra"), 1, "families[0]"),
    refusal(CERT_DOC, MAP0 + ("T",), DROP, "families[0].maps[0]"),
    refusal(CERT_DOC, MAP0 + ("extra",), 1, "families[0].maps[0]"),
    refusal(GRAPH_DOC, ("graph", "v0"), DROP, "graph"),
    refusal(GRAPH_DOC, ("graph", "extra"), 1, "graph"),
    refusal(GRAPH_DOC, ("graph",), [], "graph"),
    refusal(GRAPH_DOC, LABEL0 + ("prob",), DROP, "graph.labels[0]"),
    refusal(GRAPH_DOC, LABEL0 + ("extra",), 1, "graph.labels[0]"),
    refusal(GRAPH_DOC, EDGE0 + ("map",), DROP, "graph.labels[0].edges[0]"),
    refusal(GRAPH_DOC, EDGE0 + ("extra",), 1, "graph.labels[0].edges[0]"),
    refusal(GRAPH_DOC, EDGE0, [1, 1, 0], "graph.labels[0].edges[0]"),
    # a string, boolean or null where a number is expected
    refusal(CERT_DOC, MAP0 + ("T", 0, 0), "0.4", "families[0].maps[0].T[0][0]"),
    refusal(CERT_DOC, MAP0 + ("T", 0, 0), True, "families[0].maps[0].T[0][0]"),
    refusal(CERT_DOC, MAP0 + ("T", 0, 1), None, "families[0].maps[0].T[0][1]"),
    refusal(CERT_DOC, MAP0 + ("T", 1), 0.3, "families[0].maps[0].T[1]"),
    refusal(CERT_DOC, MAP0 + ("T",), 0.4, "families[0].maps[0].T"),
    refusal(CERT_DOC, MAP0 + ("T", 1, 1), [0.3], "families[0].maps[0].T[1][1]"),
    refusal(CERT_DOC, ("bounds", "sigma_lo"), "0.2", "bounds.sigma_lo"),
    refusal(CERT_DOC, ("bounds", "sigma_hi"), None, "bounds.sigma_hi"),
    refusal(CERT_DOC, ("bounds", "sigma_hi"), True, "bounds.sigma_hi"),
    refusal(CORNER_DOC, ("translations", "0", 0), None, "translations.0[0]"),
    refusal(CORNER_DOC, ("translations", "0", 1), "0", "translations.0[1]"),
    refusal(CORNER_DOC, ("translations", "0"), 0.0, "translations.0"),
    refusal(GRAPH_DOC, LABEL0 + ("prob",), False, "graph.labels[0].prob"),
    refusal(GRAPH_DOC, LABEL0 + ("prob",), "0.3", "graph.labels[0].prob"),
    # a string, boolean or non-integral float where an integer is expected
    refusal(CERT_DOC, ("d",), "2", "d"),
    refusal(CERT_DOC, ("d",), 2.5, "d"),
    refusal(CERT_DOC, ("d",), True, "d"),
    refusal(CERT_DOC, MAP0 + ("translation_class",), "0", "families[0].maps[0].translation_class"),
    refusal(CERT_DOC, MAP0 + ("translation_class",), 0.5, "families[0].maps[0].translation_class"),
    refusal(GRAPH_DOC, ("graph", "V"), 1.5, "graph.V"),
    refusal(GRAPH_DOC, ("graph", "v0"), "1", "graph.v0"),
    refusal(GRAPH_DOC, EDGE0 + ("from",), "1", "graph.labels[0].edges[0].from"),
    refusal(GRAPH_DOC, EDGE0 + ("to",), 1.5, "graph.labels[0].edges[0].to"),
    refusal(GRAPH_DOC, EDGE0 + ("map",), True, "graph.labels[0].edges[0].map"),
    refusal(CERT_DOC, ("families", 0, "label"), 3, "families[0].label"),
    refusal(CERT_DOC, ("families",), {"label": "pair"}, "families"),
    refusal(CERT_DOC, ("families", 0), "pair", "families[0]"),
    refusal(CERT_DOC, ("families", 0, "maps"), {"T": [[0.4]]}, "families[0].maps"),
    refusal(GRAPH_DOC, ("graph", "labels"), {"prob": 1.0}, "graph.labels"),
    refusal(GRAPH_DOC, LABEL0 + ("edges",), {"from": 1}, "graph.labels[0].edges"),
    # empty arrays and an empty label
    refusal(CERT_DOC, ("families",), [], "families"),
    refusal(CERT_DOC, ("families", 0, "maps"), [], "families[0].maps"),
    refusal(CERT_DOC, MAP0 + ("T",), [], "families[0].maps[0].T"),
    refusal(CERT_DOC, MAP0 + ("T", 0), [], "families[0].maps[0].T[0]"),
    refusal(CORNER_DOC, ("translations", "0"), [], "translations.0"),
    refusal(GRAPH_DOC, ("graph", "labels"), [], "graph.labels"),
    refusal(GRAPH_DOC, LABEL0 + ("edges",), [], "graph.labels[0].edges"),
    refusal(CERT_DOC, ("families", 0, "label"), "", "families[0].label"),
    # integer ranges, and non-finite numbers in integer fields
    refusal(CERT_DOC, ("d",), 0, "d"),
    refusal(CERT_DOC, ("d",), 13, "d"),
    refusal(CERT_DOC, ("d",), math.inf, "d"),
    refusal(CERT_DOC, ("d",), math.nan, "d"),
    refusal(CERT_DOC, ("d",), int(HUGE_INT), "d"),
    refusal(CERT_DOC, MAP0 + ("translation_class",), -1, "families[0].maps[0].translation_class"),
    refusal(CERT_DOC, MAP0 + ("translation_class",), math.inf,
            "families[0].maps[0].translation_class"),
    refusal(GRAPH_DOC, EDGE0 + ("map",), -1, "graph.labels[0].edges[0].map"),
    refusal(GRAPH_DOC, EDGE0 + ("map",), math.nan, "graph.labels[0].edges[0].map"),
    refusal(GRAPH_DOC, ("graph", "V"), 0, "graph.V"),
    refusal(GRAPH_DOC, ("graph", "V"), -math.inf, "graph.V"),
    refusal(GRAPH_DOC, ("graph", "v0"), 0, "graph.v0"),
    refusal(GRAPH_DOC, ("graph", "v0"), math.nan, "graph.v0"),
    refusal(GRAPH_DOC, EDGE0 + ("from",), 0, "graph.labels[0].edges[0].from"),
    refusal(GRAPH_DOC, EDGE0 + ("from",), math.inf, "graph.labels[0].edges[0].from"),
    refusal(GRAPH_DOC, EDGE0 + ("to",), 0, "graph.labels[0].edges[0].to"),
    refusal(GRAPH_DOC, EDGE0 + ("to",), math.inf, "graph.labels[0].edges[0].to"),
    # number ranges
    refusal(CERT_DOC, ("bounds", "sigma_lo"), 0, "bounds.sigma_lo"),
    refusal(CERT_DOC, ("bounds", "sigma_lo"), -0.1, "bounds.sigma_lo"),
    refusal(CERT_DOC, ("bounds", "sigma_hi"), 1.5, "bounds.sigma_hi"),
    refusal(GRAPH_DOC, LABEL0 + ("prob",), -0.1, "graph.labels[0].prob"),
    # translation keys are decimal digits, in an object
    refusal(CORNER_DOC, ("translations", "a"), [0.0, 0.0], "translations"),
    refusal(CORNER_DOC, ("translations", "-1"), [0.0, 0.0], "translations"),
    refusal(CORNER_DOC, ("translations", "1.0"), [0.0, 0.0], "translations"),
    refusal(CORNER_DOC, ("translations",), [[0.0, 0.0]], "translations"),
    # a vertex's out-edges under one label name distinct maps
    refusal(GRAPH_DOC, ("graph", "labels", 1, "edges", 1, "map"), 0, "graph.labels[1].edges[1].map"),
]


@pytest.mark.parametrize("doc, path, value, field", REFUSALS)
def test_structural_refusals(tmp_path, doc, path, value, field):
    text = edit(doc, path, value)
    system = tmp_path / "system.json"  # a file, so a non-object document is read too
    system.write_text(text, encoding="utf-8")
    with pytest.raises(SystemSpecError) as info:
        parse_system(str(system))
    assert info.value.field == field


# An integral float is an integer, and a zero probability is a probability
@pytest.mark.parametrize("doc, path, value, plain", [
    (CERT_DOC, ("d",), 2.0, 2),
    (CERT_DOC, MAP0 + ("translation_class",), 0.0, 0),
    (GRAPH_DOC, ("graph", "V"), 2.0, 2),
    (GRAPH_DOC, EDGE0 + ("map",), 0.0, 0),
    (GRAPH_DOC, EDGE0 + ("from",), 1.0, 1),
    (GRAPH_DOC, ("graph", "labels", 1, "prob"), 0, 0.0),
])
def test_structural_acceptances(doc, path, value, plain):
    if path[-1] == "prob":  # the neck label then carries all the mass
        doc = json.loads(edit(GRAPH_DOC, ("graph", "labels", 0, "prob"), 1.0))
    spec = parse_system(edit(doc, path, value))
    assert reference_serialize(spec) == reference_serialize(parse_system(edit(doc, path, plain)))


def test_document_layer_needs_numpy_only():
    # a fresh interpreter: nothing imported by the test run leaks in
    root = pathlib.Path(__file__).resolve().parents[1]
    code = (
        "import sys\n"
        "from affdim import cli, parse_system\n"
        "parse_system('docs/examples/graph_system.json')\n"
        "cli(['certify', 'docs/examples/corner_system.json'])\n"
        "print(sorted(m for m in sys.modules if m.split('.')[0] == 'jsonschema'))\n"
    )
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(root / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env=env, timeout=120, cwd=root)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1] == "[]"


# ---------------------------------------------------------------------------
# round trips and binding


class TestRoundTrip:
    @pytest.mark.parametrize(
        "doc", [CERT_DOC, CORNER_DOC, THIRDS_DOC, GRAPH_DOC, SPIN_DOC]
    )
    def test_parse_serialize_parse(self, doc):
        text = reference_serialize(parse_system(doc_text(doc)))
        assert reference_serialize(parse_system(text)) == text

    def test_random_documents(self, rng):
        for _ in range(10):
            d = int(rng.integers(1, 4))
            n_maps = int(rng.integers(1, 4))
            mats = [random_contraction(rng, d, 0.15, 0.45) for _ in range(n_maps)]
            sigmas = np.concatenate(
                [np.linalg.svd(T, compute_uv=False) for T in mats]
            )
            doc = {
                "d": d,
                "bounds": {
                    "sigma_lo": float(np.min(sigmas)),
                    "sigma_hi": float(np.max(sigmas)),
                },
                "families": [
                    {
                        "label": "rand",
                        "maps": [{"T": [[float(x) for x in row] for row in T]} for T in mats],
                    }
                ],
            }
            if rng.random() < 0.5:
                doc["translations"] = {
                    str(c): [float(x) for x in rng.uniform(size=d)] for c in range(n_maps)
                }
            text = reference_serialize(parse_system(doc_text(doc)))
            assert reference_serialize(parse_system(text)) == text


class TestBindTranslations:
    def test_deterministic(self):
        spec = parse_system(doc_text(CERT_DOC))
        a, b, c = (reference_serialize(bind_translations(spec, seed)) for seed in (4, 4, 5))
        assert a == b
        assert a != c

    def test_idempotent(self):
        spec = parse_system(doc_text(CORNER_DOC))
        assert bind_translations(spec, seed=1) is spec
        once = bind_translations(parse_system(doc_text(CERT_DOC)), seed=1)
        assert bind_translations(once, seed=99) is once

    def test_spec_built_by_hand_is_refused(self):
        maps = (AffineMap(0.3 * np.eye(2), 0), AffineMap(0.3 * np.eye(2), 1))
        spec = SystemSpec(d=2, families=(IfsFamily("pair", maps),), bounds=(0.3, 0.3))
        assert spec.doc is None
        with pytest.raises(ValueError, match="parse_system"):
            bind_translations(spec, seed=0)
        a = {0: np.zeros(2), 1: np.full(2, 0.5)}
        bound = SystemSpec(d=2, families=spec.families, bounds=(0.3, 0.3), translations=a)
        assert bind_translations(bound, seed=0) is bound

    def test_classes_share_vectors(self):
        doc = {
            "d": 1,
            "bounds": {"sigma_lo": 0.25, "sigma_hi": 0.25},
            "families": [
                {"label": "a", "maps": [{"T": [[0.25]], "translation_class": 0},
                                        {"T": [[0.25]], "translation_class": 1}]},
                {"label": "b", "maps": [{"T": [[0.25]], "translation_class": 1}]},
            ],
        }
        spec = bind_translations(parse_system(doc_text(doc)), seed=0)
        # class 1 appears in both families and must carry the same vector
        np.testing.assert_array_equal(
            spec.families[0].maps[1].a, spec.families[1].maps[0].a
        )

    def test_graph_edges_follow_binding(self):
        spec = bind_translations(parse_system(doc_text(GRAPH_DOC)), seed=2)
        for i, g in enumerate(spec.graph.labels):
            for e in g.edges:
                assert any(e.map == m for m in spec.families[i].maps)

    def test_round_trip_after_binding(self):
        text = reference_serialize(bind_translations(parse_system(doc_text(GRAPH_DOC)), seed=3))
        assert reference_serialize(parse_system(text)) == text


class TestBuildPath:
    """``bind_translations`` rebuilds the decoded document with drawn vectors."""

    @pytest.mark.parametrize("doc", [CERT_DOC, GRAPH_DOC, WIDE_DOC])
    @pytest.mark.parametrize("seed", [0, 3])
    def test_bound_vectors_are_draws_in_class_order(self, doc, seed):
        spec = parse_system(doc_text(doc))
        bound = bind_translations(spec, seed=seed)
        rng = np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(9,)))
        classes = sorted({m.translation_class for fam in spec.families for m in fam.maps})
        drawn = {c: rng.random(spec.d) for c in classes}
        assert list(bound.translations) == classes
        assert bound.doc == {**doc, "translations": {str(c): drawn[c].tolist() for c in classes}}
        for c in classes:
            np.testing.assert_array_equal(bound.translations[c], drawn[c])
        for fam, old in zip(bound.families, spec.families):
            for m, m_old in zip(fam.maps, old.maps):
                np.testing.assert_array_equal(m.a, drawn[m.translation_class])
                np.testing.assert_array_equal(m.T, m_old.T)
        if spec.graph is not None:
            for i, (g, g_old) in enumerate(zip(bound.graph.labels, spec.graph.labels)):
                maps, old_maps = bound.families[i].maps, spec.families[i].maps
                assert [(e.source, e.target, maps.index(e.map)) for e in g.edges] == [
                    (e.source, e.target, old_maps.index(e.map)) for e in g_old.edges
                ]


# ---------------------------------------------------------------------------
# the command line


# two totally positive maps of R^3 that pass the certificate
TP_PAIR_DOC = {
    "d": 3,
    "bounds": {"sigma_lo": 0.01, "sigma_hi": 1.0},
    "families": [
        {
            "label": "positive",
            "maps": [
                {"T": [[0.4237, 0.2825, 0.1412], [0.2825, 0.4237, 0.2825], [0.1412, 0.2825, 0.4237]]},
                {"T": [[0.6319, 0.158, 0.0316], [0.316, 0.4739, 0.158], [0.158, 0.316, 0.316]]},
            ],
        }
    ],
}


class TestCli:
    def test_check_fs_identity_fails(self, tmp_path, capsys):
        rc = cli(["check-fs", doc_path(tmp_path, IDENTITY_DOC)])
        out = capsys.readouterr().out
        assert rc == 1
        assert "Fail" in out and "witness v" in out

    def test_check_fs_spin_passes(self, tmp_path, capsys):
        rc = cli(["check-fs", doc_path(tmp_path, SPIN_DOC), "--samples", "500"])
        out = capsys.readouterr().out
        assert rc == 0
        assert "C(1)" in out and "EmpiricalPass" in out

    def test_check_fs_fractional_grade(self, tmp_path, capsys):
        rc = cli(["check-fs", doc_path(tmp_path, SPIN_DOC), "--s", "0.5", "--samples", "500"])
        out = capsys.readouterr().out
        assert rc == 0
        assert "C(0.5)" in out

    def test_check_fs_integer_grade_label(self, tmp_path, capsys):
        rc = cli(["check-fs", doc_path(tmp_path, IDENTITY_DOC), "--s", "1"])
        out = capsys.readouterr().out
        assert rc == 1
        assert "C(1)" in out

    def test_check_fs_bytes_do_not_depend_on_blas_threads(self, tmp_path):
        # rank margins go through LAPACK's QR of the stacked compounds
        root = pathlib.Path(__file__).resolve().parents[1]
        system = doc_path(tmp_path, TP_PAIR_DOC)
        outputs = []
        for threads in ("1", "2"):
            env = dict(os.environ, OPENBLAS_NUM_THREADS=threads)
            env["PYTHONPATH"] = os.pathsep.join(
                [str(root / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
            )
            proc = subprocess.run([sys.executable, "-m", "affdim", "check-fs", system, "--depth", "6"],
                                  capture_output=True, env=env, timeout=120, cwd=root)
            assert proc.returncode == 0, proc.stderr
            outputs.append(proc.stdout)
        assert outputs[0] == outputs[1]
        assert outputs[0].count(b"EmpiricalPass") == 2

    def test_minors_take_no_lapack_determinant(self, tmp_path, capsys, monkeypatch):
        # blade coordinates and compound entries come from the exterior-power
        # recursion; a LAPACK det back in the minors ends these runs here
        def refuse(*args, **kwargs):
            raise AssertionError("np.linalg.det was called")

        monkeypatch.setattr(np.linalg, "det", refuse)
        system = doc_path(tmp_path, TP_PAIR_DOC)
        corner = pathlib.Path(__file__).resolve().parents[1] / "docs" / "examples" / "corner_system.json"
        assert cli(["certify", system]) == 0
        assert cli(["check-fs", system, "--depth", "4"]) == 0
        assert cli(["check-fs", str(corner), "--s", "1.5"]) == 1
        out = capsys.readouterr().out
        assert out.count("EmpiricalPass") == 2 and "C(1.5): Fail" in out

    @staticmethod
    def generic_system(tmp_path, d, seed):
        rng = np.random.default_rng(seed)
        maps = [{"T": random_contraction(rng, d, 0.15, 0.45).tolist()} for _ in range(3)]
        return doc_path(tmp_path, {"d": d, "bounds": {"sigma_lo": 0.1, "sigma_hi": 0.45},
                                   "families": [{"label": "generic", "maps": maps}]})

    @staticmethod
    def stdout_per_blas_threads(steps):
        """The standard output of one process per BLAS thread count (1, 2) that
        runs ``steps`` through ``cli``, printing each exit code."""
        root = pathlib.Path(__file__).resolve().parents[1]
        code = ("import json, sys\nfrom affdim import cli\n"
                "for argv in json.loads(sys.argv[1]):\n    print(cli(argv))\n")
        outputs = []
        for threads in ("1", "2"):
            env = dict(os.environ, OPENBLAS_NUM_THREADS=threads, OMP_NUM_THREADS=threads)
            env["PYTHONPATH"] = os.pathsep.join(
                [str(root / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
            )
            proc = subprocess.run([sys.executable, "-c", code, json.dumps(steps)],
                                  capture_output=True, env=env, timeout=120, cwd=root)
            assert proc.returncode == 0, proc.stderr
            assert proc.stderr == b""
            outputs.append(proc.stdout)
        return outputs

    def test_generic_d3_bytes_do_not_depend_on_blas_threads(self, tmp_path):
        # one process per BLAS thread count runs four subcommands on a seeded
        # generic d = 3 family: the tables' products (3, 3) @ (3, 3n), the
        # blocks' stacked Gram congruences (2, 6, 6) @ (2, 6, 8192) in
        # full-width chunks, the slope sums' (3, n) @ (n,) products and the
        # rank margins' QR go through BLAS or LAPACK
        system = self.generic_system(tmp_path, 3, 16)
        steps = [["pressure", system, "--k", "9", "--grid", "16"],
                 ["dim", system, "--k", "9", "--depth", "8"],
                 ["points", system, "--s", "0.7", "--depth", "9"],
                 ["check-fs", system, "--depth", "4"]]
        outputs = self.stdout_per_blas_threads(steps)
        assert outputs[0] == outputs[1]
        lines = outputs[0].decode().splitlines()
        assert lines[0] == "s,p,diag" and lines[17] == "0"  # the pressure CSV, then its exit code
        assert lines.count("0") == 4 and lines[-1] == "0"
        assert outputs[0].count(b"EmpiricalPass") == 2

    @pytest.mark.parametrize("d, k", [(2, 11), (4, 9)])
    def test_generic_bytes_do_not_depend_on_blas_threads(self, tmp_path, d, k):
        # blocks of 59,049 (d = 2) and 19,683 (d = 4) words: each block's
        # (d, d) @ (d, d n) product is wide enough for BLAS to split it
        # across threads.  Points go through (d, d) @ (d, n) products, at
        # s = 0 alone and at s = 0.7 beside the blocks' linear parts
        system = self.generic_system(tmp_path, d, 16 + d)
        steps = [["pressure", system, "--k", str(k), "--grid", "16"],
                 ["dim", system, "--k", str(k), "--depth", "8"],
                 ["points", system, "--depth", str(k)],
                 ["points", system, "--s", "0.7", "--depth", str(k)]]
        outputs = self.stdout_per_blas_threads(steps)
        assert outputs[0] == outputs[1]
        lines = outputs[0].decode().splitlines()
        codes = [i for i, line in enumerate(lines) if line == "0"]  # each step's exit code
        assert lines[0] == "s,p,diag" and codes[0] == 17  # the pressure CSV, then its exit code
        assert json.loads("\n".join(lines[18:codes[1]]))["dimension"] > 0
        # each points CSV is a header and one row per level-k word
        header = ",".join(f"x{i + 1}" for i in range(d)) + ",weight"
        assert codes[2:] == [codes[1] + 2 + 3**k, codes[1] + 4 + 2 * 3**k] and codes[-1] == len(lines) - 1
        assert lines[codes[1] + 1] == lines[codes[2] + 1] == header

    def test_check_fs_closure_over_the_cap_names_the_largest_depth(self, tmp_path, capsys):
        # 2 + 4 + ... + 2^18 maps fit under the cap of 10^6, 2^19 more do not
        rc = cli(["check-fs", doc_path(tmp_path, CERT_DOC), "--depth", "25"])
        captured = capsys.readouterr()
        assert rc == 2
        assert captured.out == ""
        assert "the largest depth within the cap is 18" in captured.err

    def test_points_over_the_cap_names_the_largest_level(self, capsys):
        # 3^14 words fit under the cap of 10^7, 3^15 do not
        corner = pathlib.Path(__file__).resolve().parents[1] / "docs" / "examples" / "corner_system.json"
        rc = cli(["points", str(corner), "--depth", "16"])
        captured = capsys.readouterr()
        assert rc == 1
        assert captured.out == ""
        assert captured.err == ("error: level 16 holds 43046721 words, above the cap 10000000; "
                                "the largest level within the cap is 14\n")

    def test_check_fs_literal_document(self, capsys):
        rc = cli(["check-fs", doc_text(SPIN_DOC), "--samples", "200"])
        assert rc == 0
        capsys.readouterr()

    def test_certify_worked_pair(self, tmp_path, capsys):
        rc = cli(["certify", doc_path(tmp_path, CERT_DOC)])
        out = capsys.readouterr().out
        assert rc == 0
        payload = json.loads(out)
        assert payload["passed"] is True
        assert payload["certified_depth"] == 8
        assert payload["product_margins_f"][-1] is None
        assert math.isclose(payload["min_abs_minor"], 2**-0.5, rel_tol=1e-9)

    def test_certify_equal_maps_fails(self, tmp_path, capsys):
        doc = mutate(CERT_DOC, lambda d: d["families"][0]["maps"].__setitem__(
            1, d["families"][0]["maps"][0]))
        rc = cli(["certify", doc])
        out = capsys.readouterr().out
        assert rc == 1
        assert json.loads(out)["failure_stage"] == "minors"

    def test_certify_rotation_is_unsupported(self, tmp_path, capsys):
        rc = cli(["certify", doc_path(tmp_path, SPIN_DOC), "--maps", "1", "0"])
        err = capsys.readouterr().err
        assert rc == 1
        assert "error:" in err and "complex" in err

    def test_certify_rejects_equal_indices(self, tmp_path, capsys):
        rc = cli(["certify", doc_path(tmp_path, CERT_DOC), "--maps", "1", "1"])
        err = capsys.readouterr().err
        assert rc == 2
        assert "distinct" in err

    def test_pressure_zero_crossing(self, tmp_path, capsys):
        rc = cli(["pressure", doc_path(tmp_path, THIRDS_DOC), "--k", "4"])
        out = capsys.readouterr().out
        assert rc == 0
        rows = [line.split(",") for line in out.strip().splitlines()]
        assert rows[0] == ["s", "p", "diag"]
        s = np.array([float(r[0]) for r in rows[1:]])
        p = np.array([float(r[1]) for r in rows[1:]])
        assert np.all(np.diff(p) < 0)
        i = int(np.searchsorted(-p, 0.0))
        crossing = s[i - 1] - p[i - 1] * (s[i] - s[i - 1]) / (p[i] - p[i - 1])
        assert abs(crossing - math.log(2) / math.log(3)) < 1e-9

    def test_dim_report(self, tmp_path, capsys):
        rc = cli(["dim", doc_path(tmp_path, CORNER_DOC)])
        out = capsys.readouterr().out
        assert rc == 0
        payload = json.loads(out)
        assert abs(payload["s0"] - 1.3758316) < 1e-4
        assert payload["dimension"] == min(payload["s0"], 2.0)
        assert abs(payload["dimension"] - payload["box_estimate"]) <= 0.1
        assert payload["flag"] is None

    def test_dim_reports_the_pressure_bracket(self, tmp_path, capsys):
        rc = cli(["dim", doc_path(tmp_path, CERT_DOC)])
        payload = json.loads(capsys.readouterr().out)
        assert rc == 0
        lo, hi = payload["pressure_bracket"]
        assert lo <= payload["s0"] <= hi
        assert hi - lo <= 1e-6

    def test_dim_bytes_match_across_cache_and_threads(self, tmp_path, capsys, monkeypatch):
        system = doc_path(tmp_path, CERT_DOC)
        outputs = []
        for cache in (code_tree._SPECTRUM_CACHE_WORDS, 0):
            monkeypatch.setattr(code_tree, "_SPECTRUM_CACHE_WORDS", cache)
            for threads in ("1", "4"):
                assert cli(["dim", system, "--k", "7", "--threads", threads]) == 0
                outputs.append(capsys.readouterr().out.encode())
        assert len(set(outputs)) == 1

    def test_out_of_memory_is_an_error_line(self, tmp_path, capsys, monkeypatch):
        def exhausted(*args, **kwargs):
            raise MemoryError("Unable to allocate 13.0 GiB for an array")

        monkeypatch.setattr(io_cli, "dimension_report", exhausted)
        rc = cli(["dim", doc_path(tmp_path, CERT_DOC)])
        captured = capsys.readouterr()
        assert rc == 2
        assert captured.out == ""
        assert captured.err == "error: out of memory: Unable to allocate 13.0 GiB for an array\n"

    def test_dim_refuses_large_contractions(self, tmp_path, capsys):
        rc = cli(["dim", doc_path(tmp_path, WIDE_DOC)])
        err = capsys.readouterr().err
        assert rc == 1
        assert "1/2" in err

    def test_pressure_allows_large_contractions(self, tmp_path, capsys):
        rc = cli(["pressure", doc_path(tmp_path, WIDE_DOC), "--k", "3", "--grid", "5"])
        capsys.readouterr()
        assert rc == 0

    def test_simulate_graph(self, tmp_path, capsys):
        rc = cli(["simulate", doc_path(tmp_path, GRAPH_DOC), "--length", "500"])
        captured = capsys.readouterr()
        assert rc == 0
        assert "neck probability: 0.3" in captured.err
        lines = captured.out.strip().splitlines()
        assert lines[0] == "index,gap"
        gaps = [int(line.split(",")[1]) for line in lines[1:]]
        assert all(g >= 1 for g in gaps)

    def test_simulate_requires_graph(self, tmp_path, capsys):
        rc = cli(["simulate", doc_path(tmp_path, CERT_DOC)])
        err = capsys.readouterr().err
        assert rc == 2
        assert "graph" in err

    def test_simulate_reproducible(self, tmp_path, capsys):
        path = doc_path(tmp_path, GRAPH_DOC)
        cli(["simulate", path, "--length", "300", "--seed", "8"])
        first = capsys.readouterr().out
        cli(["simulate", path, "--length", "300", "--seed", "8"])
        second = capsys.readouterr().out
        cli(["simulate", path, "--length", "300", "--seed", "9"])
        third = capsys.readouterr().out
        assert first == second
        assert first != third

    def test_points_then_boxdim(self, tmp_path, capsys):
        system = doc_path(tmp_path, CORNER_DOC)
        cloud = str(tmp_path / "cloud.csv")
        rc = cli(["points", system, "--depth", "7", "--out", cloud])
        assert rc == 0
        text = open(cloud, encoding="utf-8").read()
        lines = text.strip().splitlines()
        assert lines[0] == "x1,x2,weight"
        assert len(lines) == 1 + 3**7
        weights = [float(line.split(",")[-1]) for line in lines[1:]]
        assert math.isclose(sum(weights), 1.0, rel_tol=1e-9)

        rc = cli(["boxdim", cloud, "--j-min", "2", "--j-max", "7"])
        out = capsys.readouterr().out
        assert rc == 0
        assert 1.2 <= json.loads(out)["estimate"] <= 1.7

        # dim's box estimate is reproduced bit for bit from the written cloud
        assert cli(["dim", system, "--depth", "7"]) == 0
        report = json.loads(capsys.readouterr().out)
        scales = report["box_scales"]
        rc = cli(["boxdim", cloud, "--j-min", str(scales[0]), "--j-max", str(scales[-1])])
        assert rc == 0
        assert json.loads(capsys.readouterr().out)["estimate"] == report["box_estimate"]

    def test_overflowing_box_scales_exit_two(self, tmp_path, capsys):
        # floor(x * 2^70) does not fit in int64: the counts used to collapse
        # from 6561 to 18 above j = 63 behind a numpy RuntimeWarning
        system = doc_path(tmp_path, CORNER_DOC)
        cloud = str(tmp_path / "cloud.csv")
        assert cli(["points", system, "--depth", "8", "--out", cloud]) == 0
        for argv in (["boxdim", cloud, "--j-min", "2"], ["dim", system, "--depth", "8"]):
            rc = cli(argv + ["--j-max", "70"])
            captured = capsys.readouterr()
            assert rc == 2
            assert captured.out == ""
            assert "j_max can be at most 63" in captured.err

    def test_csv_writer_matches_the_per_cell_formula(self, tmp_path, capsys, monkeypatch):
        # every cell is repr(x) of its Python number, as the per-cell writer
        # wrote it: repr(float(x)) for float tables, repr(int(x)) for integer ones
        def per_cell(header, rows):
            lines = [header] + [",".join(repr(x) for x in np.asarray(row).tolist()) for row in rows]
            return "\n".join(lines) + "\n"

        def csv_text(header, columns):
            # the writer hands out its pieces, the header line first; joined they are the text
            pieces = io_cli._csv_text(header, columns)
            assert isinstance(pieces, list) and pieces[0] == header + "\n"
            return "".join(pieces)

        spec = parse_system(json.dumps(CORNER_DOC))
        tree = deterministic_tree(spec.family(None), 5)
        points, weights = enumerate_points(tree, 5, 1.3)
        assert cli(["points", doc_path(tmp_path, CORNER_DOC), "--depth", "5", "--s", "1.3"]) == 0
        expected = per_cell("x1,x2,weight", np.column_stack([points, weights]))
        assert capsys.readouterr().out == expected

        curve = pressure_curve(deterministic_tree(spec.family(None), 6), np.linspace(0, 2, 9), 6)
        assert cli(["pressure", doc_path(tmp_path, CORNER_DOC), "--grid", "9"]) == 0
        expected = per_cell("s,p,diag", zip(curve.s, curve.p, curve.diagnostic))
        assert capsys.readouterr().out == expected

        odd = np.array([[-0.0, 5e-324, 1e300], [0.1, -2.5, 1e-7], [3.0, np.nextafter(1.0, 2.0), -1e22]])
        assert csv_text("a,b,c", (odd[:, :2], odd[:, 2])) == per_cell("a,b,c", odd)

        # constant columns go into the line template once; chunks of 7 rows
        # leave a short last chunk
        monkeypatch.setattr(io_cli, "_CSV_CHUNK", 7)
        n = 40
        mixed_zero = np.where(np.arange(n) % 3 == 1, -0.0, 0.0)
        table = np.column_stack([np.full(n, 0.1), np.full(n, -0.0), mixed_zero, np.linspace(-1.0, 1.0, n)])
        text = csv_text("a,b,c,e", (table[:, :3], table[:, 3]))
        assert text == per_cell("a,b,c,e", table)
        assert text.splitlines()[2] == "0.1,-0.0,-0.0,-0.9487179487179487"
        assert text.splitlines()[3] == "0.1,-0.0,0.0,-0.8974358974358975"
        every = np.full((n, 2), 0.25)
        assert csv_text("a,b", (every,)) == per_cell("a,b", every)
        # simulate's integer columns, a constant one among them, keep repr of ints
        index, gaps = np.arange(1, n + 1), np.full(n, 2)
        gaps[::5] = 3
        text = csv_text("index,gap", (index, gaps))
        assert text == per_cell("index,gap", np.column_stack([index, gaps]))
        assert text.startswith("index,gap\n1,3\n2,2\n")
        assert csv_text("index,gap", (index, np.full(n, 4))).endswith("\n40,4\n")
        # no rows: the header alone
        empty = np.diff(np.concatenate([[0], np.asarray((), dtype=int)]))
        assert csv_text("index,gap", (np.arange(1, 1), empty)) == "index,gap\n"

    def test_points_bytes_stable_across_threads(self, tmp_path):
        system = doc_path(tmp_path, CORNER_DOC)
        outs = []
        for run, threads in enumerate(("1", "4", "1")):
            target = str(tmp_path / f"cloud{run}.csv")
            assert cli(["points", system, "--depth", "6", "--threads", threads,
                        "--out", target]) == 0
            outs.append(open(target, "rb").read())
        assert outs[0] == outs[1] == outs[2]

    def test_pressure_bytes_stable_across_threads(self, tmp_path):
        system = doc_path(tmp_path, THIRDS_DOC)
        outs = []
        for run, threads in enumerate(("1", "4")):
            target = str(tmp_path / f"curve{run}.csv")
            assert cli(["pressure", system, "--k", "8", "--threads", threads, "--out", target]) == 0
            outs.append(open(target, "rb").read())
        assert outs[0] == outs[1]

    def test_pressure_below_the_smallest_double(self, tmp_path, capsys):
        # S(12, s) = 2^12 * 0.001^(12 s) is below the smallest double for s >= 20,
        # yet p(s) = log 2 - 3 s log 10 is an ordinary number
        rc = cli(["pressure", doc_path(tmp_path, TINY_DOC), "--k", "12",
                  "--s-min", "20", "--s-max", "40"])
        captured = capsys.readouterr()
        assert rc == 0
        assert captured.err == ""
        rows = [line.split(",") for line in captured.out.splitlines()[1:]]
        assert len(rows) == 21
        for s, p, _ in rows:
            expected = math.log(2.0) - 3.0 * float(s) * math.log(10.0)
            assert float(p) == pytest.approx(expected, rel=1e-12)
        assert float(rows[0][1]) == pytest.approx(math.log(2.0) - 60.0 * math.log(10.0), rel=1e-12)

    def test_points_weights_below_the_smallest_double(self, tmp_path, capsys):
        # every level-3 word has phi_200 = 1e-1800, so the weights are uniform
        rc = cli(["points", doc_path(tmp_path, TINY_DOC), "--depth", "3", "--s", "200"])
        captured = capsys.readouterr()
        assert rc == 0
        assert captured.err == ""
        weights = [float(line.split(",")[-1]) for line in captured.out.splitlines()[1:]]
        assert weights == [1.0 / 8.0] * 8

    @pytest.mark.parametrize("argv", [["pressure", "--k", "120", "--grid", "3"],
                                      ["points", "--depth", "120", "--s", "1.5"]])
    def test_underflowed_composed_matrix_exits_two(self, tmp_path, capsys, argv):
        # diag(0.001, 0.001)^120 and diag(0.001, 0.001, 0.001)^120 have
        # sigma_1 = 1e-360, which is 0.0 in double precision; diag(0.5, 0.001,
        # 0.001)^120 keeps sigma_1 but loses sigma_1 sigma_2
        for d, diagonal in ((2, [0.001, 0.001]), (3, [0.001, 0.001, 0.001]),
                            (3, [0.5, 0.001, 0.001])):
            small = {
                "d": d,
                "bounds": {"sigma_lo": min(diagonal), "sigma_hi": max(diagonal)},
                "families": [{"label": "small", "maps": [{"T": np.diag(diagonal).tolist()}]}],
                "translations": {"0": [0.1] * d},
            }
            rc = cli(argv[:1] + [doc_path(tmp_path, small)] + argv[1:])
            captured = capsys.readouterr()
            assert rc == 2
            assert captured.out == ""
            assert "level-120 word underflowed to a singular matrix" in captured.err
            assert "Warning" not in captured.err

    @pytest.mark.parametrize("argv", [["pressure", "--k", "2", "--grid", "3"],
                                      ["points", "--depth", "2", "--s", "1.5"]])
    @pytest.mark.parametrize("d", [1, 2, 3])
    def test_underflow_before_the_last_word_exits_two(self, tmp_path, capsys, argv, d):
        # word 00 is 1e-170 squared, 0.0 in double precision, while the last
        # word 11 is 0.5 squared; every word is checked, not only the last.
        # d = 1 takes log|t| from the summed log|det| where the product underflows
        mixed = {
            "d": d,
            "bounds": {"sigma_lo": 1e-170, "sigma_hi": 0.5},
            "families": [{"label": "mixed",
                          "maps": [{"T": (1e-170 * np.eye(d)).tolist(), "translation_class": 0},
                                   {"T": (0.5 * np.eye(d)).tolist(), "translation_class": 1}]}],
            "translations": {"0": [0.1] * d, "1": [0.6] * d},
        }
        rc = cli(argv[:1] + [doc_path(tmp_path, mixed)] + argv[1:])
        captured = capsys.readouterr()
        if d == 1:
            assert rc == 0 and captured.err == ""
            rows = [[float(x) for x in line.split(",")] for line in captured.out.splitlines()[1:]]
            if argv[0] == "pressure":  # p(1) = log S(2, 1) / 2 = log(1e-170 + 0.5)
                assert [s for s, _, _ in rows] == [0.0, 0.5, 1.0]
                assert rows[2][1] == pytest.approx(math.log(0.5), rel=1e-15)
            else:  # phi_1.5 of word 00 is 1e-510 against 0.125^1.5
                assert len(rows) == 4 and rows[0][-1] == 0.0 and rows[-1][-1] > 0.5
            return
        assert rc == 2
        assert captured.out == ""
        assert "level-2 word underflowed to a singular matrix" in captured.err
        assert "Warning" not in captured.err

    def test_one_dimensional_words_below_the_smallest_double(self, tmp_path, capsys):
        # 0.3^700 is about 1e-366, below the smallest double, so its log is
        # taken from the summed log|det|: p(s) = s log 0.3
        one = {"d": 1, "bounds": {"sigma_lo": 0.3, "sigma_hi": 0.3},
               "families": [{"label": "one", "maps": [{"T": [[0.3]]}]}]}
        rc = cli(["pressure", doc_path(tmp_path, one), "--k", "700", "--grid", "3"])
        captured = capsys.readouterr()
        assert rc == 0
        assert captured.err == ""
        rows = [[float(x) for x in line.split(",")] for line in captured.out.splitlines()[1:]]
        assert [s for s, _, _ in rows] == [0.0, 0.5, 1.0]
        for s, p, _ in rows:
            assert p == pytest.approx(s * math.log(0.3), rel=1e-13)

    def test_one_dimensional_pressure_far_above_the_cap(self, tmp_path, capsys):
        # 2^700 words: the d = 1 partition sums are a transfer product, so
        # p(s) = log(0.2^s + 0.45^s) at every k and the diagnostic is rounding
        two = {"d": 1, "bounds": {"sigma_lo": 0.2, "sigma_hi": 0.45},
               "families": [{"label": "two", "maps": [{"T": [[0.2]]}, {"T": [[-0.45]]}]}]}
        rc = cli(["pressure", doc_path(tmp_path, two), "--k", "700", "--grid", "5"])
        captured = capsys.readouterr()
        assert rc == 0
        assert captured.err == ""
        rows = [[float(x) for x in line.split(",")] for line in captured.out.splitlines()[1:]]
        assert [s for s, _, _ in rows] == [0.0, 0.25, 0.5, 0.75, 1.0]
        for s, p, diag in rows:
            assert p == pytest.approx(math.log(0.2**s + 0.45**s), rel=1e-13)
            assert diag <= 1e-12 * abs(p)

    def test_second_singular_value_below_the_smallest_double(self, tmp_path, capsys):
        # diag(0.3, 0.001)^120 has sigma_2 = 1e-360, below the smallest double,
        # but log sigma_2 is the sum of the letters' log|det| less log sigma_1
        flat = {
            "d": 2,
            "bounds": {"sigma_lo": 0.001, "sigma_hi": 0.3},
            "families": [{"label": "flat", "maps": [{"T": [[0.3, 0.0], [0.0, 0.001]]}]}],
            "translations": {"0": [0.1, 0.2]},
        }
        system = doc_path(tmp_path, flat)
        rc = cli(["pressure", system, "--k", "120", "--s-min", "0", "--s-max", "2", "--grid", "3"])
        captured = capsys.readouterr()
        assert rc == 0
        assert captured.err == ""
        rows = [[float(x) for x in line.split(",")] for line in captured.out.splitlines()[1:]]
        assert [s for s, _, _ in rows] == [0.0, 1.0, 2.0]
        assert rows[1][1] == pytest.approx(math.log(0.3), rel=1e-12)
        assert rows[2][1] == pytest.approx(math.log(3e-4), rel=1e-12)
        rc = cli(["points", system, "--depth", "120", "--s", "1.5"])
        captured = capsys.readouterr()
        assert rc == 0
        assert captured.err == ""
        assert captured.out.splitlines()[1].split(",")[-1] == "1.0"

    def test_third_singular_value_below_the_smallest_double(self, tmp_path, capsys):
        # diag(0.3, 0.3, 0.001)^120 has sigma_3 = 1e-360, below the smallest
        # double, but log sigma_3 is the sum of the letters' log|det| less
        # log sigma_1 sigma_2
        flat = {
            "d": 3,
            "bounds": {"sigma_lo": 0.001, "sigma_hi": 0.3},
            "families": [{"label": "flat", "maps": [{"T": np.diag([0.3, 0.3, 0.001]).tolist()}]}],
            "translations": {"0": [0.1, 0.2, 0.3]},
        }
        system = doc_path(tmp_path, flat)
        rc = cli(["pressure", system, "--k", "120", "--s-min", "0", "--s-max", "3", "--grid", "4"])
        captured = capsys.readouterr()
        assert rc == 0
        assert captured.err == ""
        rows = [[float(x) for x in line.split(",")] for line in captured.out.splitlines()[1:]]
        assert [s for s, _, _ in rows] == [0.0, 1.0, 2.0, 3.0]
        assert rows[1][1] == pytest.approx(math.log(0.3), rel=1e-12)
        assert rows[2][1] == pytest.approx(2.0 * math.log(0.3), rel=1e-12)
        assert rows[3][1] == pytest.approx(math.log(9e-5), rel=1e-12)
        rc = cli(["points", system, "--depth", "120", "--s", "2.5"])
        captured = capsys.readouterr()
        assert rc == 0
        assert captured.err == ""
        assert captured.out.splitlines()[1].split(",")[-1] == "1.0"

    def test_ragged_matrix_exits_two(self, capsys):
        ragged = mutate(CERT_DOC,
                        lambda d: d["families"][0]["maps"][0].update(T=[[0.25, 0.0], [0.25]]))
        rc = cli(["check-fs", ragged])
        captured = capsys.readouterr()
        assert rc == 2
        assert captured.out == ""
        assert "error: families[0].maps[0].T: rows must all have the same length" in captured.err

    def test_points_with_infinite_exponent_exits_two(self, tmp_path, capsys):
        rc = cli(["points", doc_path(tmp_path, TINY_DOC), "--depth", "3", "--s", "inf"])
        captured = capsys.readouterr()
        assert rc == 2
        assert captured.out == ""
        assert "not finite" in captured.err

    @pytest.mark.parametrize("threads", ["0", "-1"])
    def test_threads_below_one_exit_two(self, tmp_path, capsys, threads):
        with pytest.raises(SystemExit) as info:
            cli(["pressure", doc_path(tmp_path, THIRDS_DOC), "--threads", threads])
        assert info.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "--threads" in captured.err

    @pytest.mark.parametrize("command", ["check-fs", "dim", "simulate", "points"])
    def test_negative_seed_exits_two(self, tmp_path, capsys, command):
        # numpy refused -1 for simulate and points without naming the flag;
        # dim ran and check-fs printed a verdict
        system = doc_path(tmp_path, GRAPH_DOC if command == "simulate" else CORNER_DOC)
        out = tmp_path / "out.txt"
        with pytest.raises(SystemExit) as info:
            cli([command, system, "--seed", "-1", "--out", str(out)])
        assert info.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "argument --seed: must be at least 0, got -1" in captured.err
        assert not out.exists()

    @pytest.mark.parametrize("command, flag, value, least", [
        ("check-fs", "--samples", "-1", 0), ("simulate", "--length", "0", 1), ("simulate", "--thinning", "0", 1),
    ])
    def test_counts_below_their_least_exit_two(self, tmp_path, capsys, command, flag, value, least):
        # the handlers refused these too, with messages that did not name the flag
        system = doc_path(tmp_path, GRAPH_DOC if command == "simulate" else CORNER_DOC)
        out = tmp_path / "out.txt"
        with pytest.raises(SystemExit) as info:
            cli([command, system, flag, value, "--out", str(out)])
        assert info.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert f"argument {flag}: must be at least {least}, got {value}" in captured.err
        assert not out.exists()

    @pytest.mark.parametrize("extra", [[], ["--s", "0.5"]])
    def test_underflowing_closure_exits_two(self, tmp_path, capsys, extra):
        # the products of depth 11 lie below the smallest subnormal: zero matrices
        tiny = {"d": 2, "bounds": {"sigma_lo": 1e-30, "sigma_hi": 1e-30},
                "families": [{"label": "tiny", "maps": [{"T": [[1e-30, 0.0], [0.0, 1e-30]]},
                                                        {"T": [[0.0, 1e-30], [1e-30, 0.0]]}]}]}
        rc = cli(["check-fs", doc_path(tmp_path, tiny), "--depth", "11", *extra])
        captured = capsys.readouterr()
        assert rc == 2
        assert captured.out == ""
        assert captured.err == ("error: the closure's products underflow or overflow at this depth: "
                                "the grade-1 compound of map 2046 has spectral norm 0.0\n")

    @pytest.mark.parametrize("refused", [
        "check-fs --k 2", "certify --samples 5", "pressure --tol 1e-3", "dim --samples 10",
        "simulate --k 3", "points --tol 1", "boxdim --seed 1",
    ])
    def test_flags_the_subcommand_does_not_read_exit_two(self, tmp_path, capsys, refused):
        command, *flag = refused.split()
        docs = {"check-fs": CERT_DOC, "certify": CERT_DOC, "pressure": CERT_DOC, "simulate": GRAPH_DOC}
        source = doc_path(tmp_path, docs.get(command, CORNER_DOC))
        if command == "boxdim":
            cloud = str(tmp_path / "cloud.csv")
            assert cli(["points", source, "--depth", "7", "--out", cloud]) == 0
            source = cloud
        with pytest.raises(SystemExit) as info:
            cli([command, source] + flag)
        assert info.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert f"unrecognized arguments: {' '.join(flag)}" in captured.err
        assert cli([command, source, "--threads", "1"]) == 0

    @pytest.mark.parametrize("argv", [
        ["--depth", "0"], ["--depth", "-1"], ["--grid", "0"], ["--grid", "-1"], ["--k", "0"],
    ])
    def test_depth_and_grid_below_one_exit_two(self, tmp_path, capsys, argv):
        # each subcommand here reads the flag, so the refusal is the range check
        commands = {"--depth": ["dim", "check-fs"], "--grid": ["pressure"], "--k": ["pressure", "dim"]}[argv[0]]
        for command in commands:
            with pytest.raises(SystemExit) as info:
                cli([command, doc_path(tmp_path, CERT_DOC)] + argv)
            assert info.value.code == 2
            captured = capsys.readouterr()
            assert captured.out == ""
            assert f"argument {argv[0]}: must be at least 1" in captured.err

    @pytest.mark.parametrize("tol", ["-1", "nan"])
    def test_bad_tolerance_exits_two(self, tmp_path, capsys, tol):
        # both used to report a pass: the equal pair certified and the
        # triangular pair passed C(1) with margin 0
        equal = {
            "d": 2,
            "bounds": {"sigma_lo": 0.3, "sigma_hi": 0.4},
            "families": [{"label": "equal", "maps": [{"T": [[0.4, 0.0], [0.0, 0.3]]}] * 2}],
        }
        upper = {
            "d": 2,
            "bounds": {"sigma_lo": 0.3, "sigma_hi": 0.95},
            "families": [{"label": "up", "maps": [
                {"T": [[0.81, 0.27], [0.0, 0.63]]}, {"T": [[0.6, -0.2], [0.0, 0.8]]},
            ]}],
        }
        for argv in (["certify", doc_text(equal)], ["check-fs", doc_text(upper)],
                     ["dim", doc_text(equal)]):
            rc = cli(argv + ["--tol", tol])
            captured = capsys.readouterr()
            assert rc == 2
            assert captured.out == ""
            assert "tol" in captured.err

    @pytest.mark.parametrize("flag", ["--s-min", "--s-max"])
    @pytest.mark.parametrize("value", ["inf", "nan"])
    def test_non_finite_pressure_range_exits_two(self, tmp_path, capsys, flag, value):
        with pytest.raises(SystemExit) as info:
            cli(["pressure", doc_path(tmp_path, THIRDS_DOC), f"{flag}={value}", "--grid", "3"])
        assert info.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert f"{flag}: must be finite" in captured.err
        assert "RuntimeWarning" not in captured.err

    @pytest.mark.parametrize("grid, message", [
        (["--s-min", "2", "--s-max", "1"], "s grid must be strictly increasing"),
        (["--s-min", "1", "--s-max", "1"], "s grid must be strictly increasing"),
        (["--s-min", "-1"], "exponent must be nonnegative, got -1.0"),
        (["--s-min", "-1", "--s-max", "-2"], "exponent must be nonnegative, got -1.0"),
    ])
    def test_bad_s_grid_is_refused_before_the_first_word(self, capsys, monkeypatch, grid, message):
        def enumerate_nothing(*args, **kwargs):
            raise AssertionError("words enumerated before the grid was checked")

        monkeypatch.setattr(code_tree, "_map_words", enumerate_nothing)
        corner = pathlib.Path(__file__).resolve().parents[1] / "docs" / "examples" / "corner_system.json"
        rc = cli(["pressure", str(corner), "--k", "14", *grid])
        captured = capsys.readouterr()
        assert rc == 2
        assert captured.out == ""
        assert captured.err == f"error: {message}\n"

    def test_check_fs_out_writes_the_verdicts(self, tmp_path, capsys):
        system = doc_path(tmp_path, IDENTITY_DOC)
        rc = cli(["check-fs", system])
        printed = capsys.readouterr().out
        target = tmp_path / "verdicts.txt"
        assert cli(["check-fs", system, "--out", str(target)]) == rc == 1
        assert capsys.readouterr().out == ""
        assert target.read_bytes() == printed.encode()
        assert "witness v" in printed

    @pytest.mark.parametrize("argv", [["dim", "--k", "5", "--depth", "7"], ["pressure", "--k", "4"]],
                             ids=["dim-json", "pressure-csv"])
    def test_out_dash_is_stdout(self, tmp_path, capsys, argv):
        argv = argv[:1] + [doc_path(tmp_path, CORNER_DOC)] + argv[1:]
        assert cli(argv) == 0
        printed = capsys.readouterr().out
        assert cli(argv + ["--out", "-"]) == 0
        assert capsys.readouterr().out == printed

    def test_one_parser_serves_every_call(self, tmp_path, capsys):
        dim = ["dim", doc_path(tmp_path, CORNER_DOC), "--k", "5", "--depth", "7"]
        check_fs = ["check-fs", doc_path(tmp_path, SPIN_DOC, "spin.json"), "--samples", "200"]
        io_cli._build_parser.cache_clear()
        fresh = []
        for argv in (dim, check_fs):
            rc = cli(argv)
            fresh.append((rc, capsys.readouterr()))
        assert io_cli._build_parser() is io_cli._build_parser()

        for refused, message in ((["--depth", "0"], "argument --depth: must be at least 1"),
                                 (["--bogus", "1"], "unrecognized arguments: --bogus 1")):
            with pytest.raises(SystemExit) as info:
                cli(dim + refused)
            assert info.value.code == 2
            assert message in capsys.readouterr().err

        again = []
        for argv in (dim, check_fs):
            rc = cli(argv)
            again.append((rc, capsys.readouterr()))
        assert again == fresh
        assert [rc for rc, _ in fresh] == [0, 0]

    @pytest.mark.parametrize("doc, argv", [
        (SPIN_DOC, ["check-fs", "--samples", "50"]),
        (CERT_DOC, ["certify"]),
        (CORNER_DOC, ["pressure", "--k", "3", "--grid", "5"]),
        (CORNER_DOC, ["dim", "--k", "4", "--depth", "7"]),
        (GRAPH_DOC, ["simulate", "--length", "200"]),
        (CORNER_DOC, ["points", "--depth", "3"]),
    ], ids=["check-fs", "certify", "pressure", "dim", "simulate", "points"])
    def test_the_document_is_read_once(self, tmp_path, monkeypatch, doc, argv):
        system = doc_path(tmp_path, doc)
        read, parse = [], io_cli.parse_system
        monkeypatch.setattr(io_cli, "parse_system", lambda source: read.append(source) or parse(source))
        assert cli(argv[:1] + [system] + argv[1:]) in (0, 1)
        assert read == [system]

        if argv[0] == "points":
            cloud = tmp_path / "cloud.csv"
            assert cli(["points", system, "--depth", "7", "--out", str(cloud)]) == 0
            read.clear()
            assert cli(["boxdim", str(cloud), "--j-min", "2", "--j-max", "4"]) == 0
            assert read == []

    @pytest.mark.parametrize("doc, argv, code", [
        (CERT_DOC, ["certify", "--maps", "0", "0"], 2),
        (WIDE_DOC, ["dim"], 1),
        (CERT_DOC, ["simulate"], 2),
    ], ids=["certify-equal-maps", "dim-wide-bounds", "simulate-no-graph"])
    def test_a_refused_run_writes_nothing(self, tmp_path, capsys, doc, argv, code):
        system = doc_path(tmp_path, doc)
        target = tmp_path / "out.txt"
        for out in ([], ["--out", str(target)]):
            assert cli(argv[:1] + [system] + argv[1:] + out) == code
            captured = capsys.readouterr()
            assert captured.out == ""
            assert captured.err.startswith("error: ")
        assert not target.exists()

    @pytest.mark.parametrize("doc, argv, message", [
        pytest.param(SPIN_DOC, ["--s", "inf"], "s must lie in", id="inf"),
        pytest.param(SPIN_DOC, ["--s", "nan"], "s must lie in", id="nan"),
        # C(s) with no sampled quadruple: once a pass with margin inf, and on
        # d = 1 a pass, since grades 0 and d returned first; a negative count
        # is the parser's to refuse
        pytest.param(GENERIC_DOC, ["--s", "1.5", "--samples", "0"],
                     "at least one sampled quadruple, got samples = 0", id="no-samples"),
        pytest.param(THIRDS_DOC, ["--s", "0.5", "--samples", "0"],
                     "at least one sampled quadruple, got samples = 0", id="no-samples-d1"),
        pytest.param(THIRDS_DOC, ["--s", "0.5", "--samples", "-1"],
                     "argument --samples: must be at least 0, got -1", id="negative-samples"),
    ])
    def test_non_finite_grade_exits_two(self, tmp_path, capsys, doc, argv, message):
        try:
            rc = cli(["check-fs", doc_path(tmp_path, doc)] + argv)
        except SystemExit as exc:  # refused by the parser
            rc = exc.code
        captured = capsys.readouterr()
        assert rc == 2
        assert captured.out == ""
        assert message in captured.err

    def test_pool_scan_takes_no_samples(self, tmp_path, capsys):
        # without --s only the candidate pool is scanned, which needs no sample
        rc = cli(["check-fs", doc_path(tmp_path, GENERIC_DOC), "--samples", "0"])
        captured = capsys.readouterr()
        assert rc == 0
        assert "samples=" in captured.out

    @pytest.mark.parametrize("cell", ["nan", "inf"])
    def test_boxdim_rejects_non_finite_points(self, tmp_path, capsys, cell):
        rows = np.random.default_rng(0).uniform(size=(2000, 2)).tolist()
        lines = ["x1,x2"] + [f"{x!r},{y!r}" for x, y in rows]
        lines[18] = f"{rows[17][0]!r},{cell}"
        cloud = tmp_path / "cloud.csv"
        cloud.write_text("\n".join(lines) + "\n")
        rc = cli(["boxdim", str(cloud)])
        captured = capsys.readouterr()
        assert rc == 2
        assert captured.out == ""
        assert "finite" in captured.err

    @pytest.mark.parametrize("field, before, after", [
        ("translations.1", '"1": [0.5]', '"1": [1e999]'),
        ("translations.1", '"1": [0.5]', '"1": [NaN]'),
        ("translations.1", '"1": [0.5]', '"1": [-Infinity]'),
        ("families[0].maps[1].T", '[[0.001]], "translation_class": 1',
         '[[NaN]], "translation_class": 1'),
        ("bounds.sigma_lo", '"sigma_lo": 0.001', '"sigma_lo": NaN'),
    ])
    def test_non_finite_document_numbers_exit_two(self, capsys, field, before, after):
        # Python's json reads 1e999 as inf and accepts NaN and Infinity literals
        text = doc_text(TINY_DOC)
        assert before in text
        rc = cli(["points", text.replace(before, after), "--depth", "2"])
        captured = capsys.readouterr()
        assert rc == 2
        assert captured.out == ""
        assert f"error: {field}: numbers must be finite" in captured.err

    def test_non_finite_label_probability_exits_two(self, capsys):
        text = doc_text(GRAPH_DOC).replace('"prob": 0.3', '"prob": NaN')
        rc = cli(["simulate", text])
        captured = capsys.readouterr()
        assert rc == 2
        assert captured.out == ""
        assert "error: graph.labels[0].prob: numbers must be finite" in captured.err

    @pytest.mark.parametrize("field, before, after", [
        ("families[0].maps[1].T", '[[0.001]], "translation_class": 1',
         f'[[{HUGE_INT}]], "translation_class": 1'),
        ("translations.1", '"1": [0.5]', f'"1": [{HUGE_INT}]'),
    ])
    def test_integers_past_the_double_range_exit_two(self, capsys, field, before, after):
        text = doc_text(TINY_DOC)
        assert before in text
        rc = cli(["points", text.replace(before, after), "--depth", "2"])
        captured = capsys.readouterr()
        assert rc == 2
        assert captured.out == ""
        assert f"error: {field}: a number lies outside the double range" in captured.err

    def test_more_vertices_than_edges_exits_two(self, capsys):
        # label 'n' has edges from vertices 1 and 2 only
        text = mutate(GRAPH_DOC, lambda d: d["graph"].update(V=10**6))
        rc = cli(["simulate", text])
        captured = capsys.readouterr()
        assert rc == 2
        assert captured.out == ""
        assert len(captured.err) < 300
        assert "no outgoing edge from 999998 of the 1000000 vertices, first [3, 4, 5, 6, 7]" in captured.err

    @pytest.mark.parametrize("argv, s", [
        (["pressure", "--s-max", "1e308", "--grid", "3"], "5e+307"),
        (["points", "--s", "1e308", "--depth", "3"], "1e+308"),
    ])
    def test_overflowing_exponent_exits_two(self, tmp_path, capsys, argv, s):
        # (s / d) * log|det| of a word is past -1.8e308: log phi_s overflows to -inf
        rc = cli(argv[:1] + [doc_path(tmp_path, TINY_DOC)] + argv[1:])
        captured = capsys.readouterr()
        assert rc == 2
        assert captured.out == ""
        assert f"s = {s}" in captured.err
        assert "overflows the double range" in captured.err
        assert "Warning" not in captured.err

    def test_boxdim_refuses_a_header_only_file(self, tmp_path, capsys):
        cloud = tmp_path / "cloud.csv"
        cloud.write_text("x1,x2,weight\n")
        rc = cli(["boxdim", str(cloud)])
        captured = capsys.readouterr()
        assert rc == 2
        assert captured.out == ""
        assert "no data rows below the header" in captured.err

    def test_boxdim_refuses_rows_wider_than_the_header(self, tmp_path, capsys):
        rows = np.random.default_rng(0).uniform(size=(2000, 3)).tolist()
        cloud = tmp_path / "cloud.csv"
        cloud.write_text("x1,x2\n" + "".join(f"{x!r},{y!r},{z!r}\n" for x, y, z in rows))
        rc = cli(["boxdim", str(cloud)])
        captured = capsys.readouterr()
        assert rc == 2
        assert captured.out == ""
        assert "rows have 3 columns, the header 2" in captured.err

    def test_boxdim_refuses_a_weight_only_file(self, tmp_path, capsys):
        # once the weight column is dropped no coordinate column is left
        cloud = tmp_path / "cloud.csv"
        cloud.write_text("weight\n" + "0.001\n" * 1200)
        rc = cli(["boxdim", str(cloud)])
        captured = capsys.readouterr()
        assert rc == 2
        assert captured.out == ""
        assert "error: points have no coordinate columns x1, ..., xd" in captured.err
        assert "zero-size array" not in captured.err

    def test_unknown_family_is_a_document_error(self, tmp_path, capsys):
        rc = cli(["check-fs", doc_path(tmp_path, CERT_DOC), "--family", "nope"])
        err = capsys.readouterr().err
        assert rc == 2
        assert "no family" in err

    def test_missing_file(self, capsys):
        rc = cli(["check-fs", "/nonexistent/system.json"])
        err = capsys.readouterr().err
        assert rc == 2
        assert "error:" in err

    def test_bad_usage_exits_two(self, capsys):
        with pytest.raises(SystemExit) as info:
            cli(["no-such-command"])
        assert info.value.code == 2
        with pytest.raises(SystemExit) as info:
            cli(["check-fs"])
        assert info.value.code == 2
        capsys.readouterr()
