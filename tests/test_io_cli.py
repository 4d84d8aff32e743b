"""Tests for document parsing, serialization, binding, and the CLI.

Round trips are the backbone: parse(serialize(spec)) must reproduce the spec
exactly, and every CLI run must be byte-reproducible for fixed seed and
thread count.
"""

import json
import math

import numpy as np
import pytest

from affdim import (
    SystemSpec,
    SystemSpecError,
    bind_translations,
    cli,
    deterministic_tree,
    enumerate_points,
    parse_system,
    pressure_curve,
    serialize_system,
)
from affdim import io_cli

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
        assert not spec.bound and spec.graph is None

    def test_translations_are_applied(self):
        spec = parse_system(doc_text(CORNER_DOC))
        assert spec.bound
        np.testing.assert_array_equal(spec.families[0].maps[1].a, [0.55, 0.0])

    def test_path_and_text_agree(self, tmp_path):
        path = doc_path(tmp_path, CORNER_DOC)
        assert parse_system(path) == parse_system(doc_text(CORNER_DOC))

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


# ---------------------------------------------------------------------------
# round trips and binding


class TestRoundTrip:
    @pytest.mark.parametrize(
        "doc", [CERT_DOC, CORNER_DOC, THIRDS_DOC, GRAPH_DOC, SPIN_DOC]
    )
    def test_parse_serialize_parse(self, doc):
        spec = parse_system(doc_text(doc))
        text = serialize_system(spec)
        again = parse_system(text)
        assert again == spec
        # serialization is canonical: a second pass is byte-identical
        assert serialize_system(again) == text

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
            spec = parse_system(doc_text(doc))
            assert parse_system(serialize_system(spec)) == spec


class TestBindTranslations:
    def test_deterministic(self):
        spec = parse_system(doc_text(CERT_DOC))
        a = bind_translations(spec, seed=4)
        b = bind_translations(spec, seed=4)
        assert a == b
        assert a != bind_translations(spec, seed=5)

    def test_idempotent(self):
        spec = parse_system(doc_text(CORNER_DOC))
        assert bind_translations(spec, seed=1) is spec
        once = bind_translations(parse_system(doc_text(CERT_DOC)), seed=1)
        assert bind_translations(once, seed=99) is once

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
        spec = bind_translations(parse_system(doc_text(GRAPH_DOC)), seed=3)
        assert parse_system(serialize_system(spec)) == spec


def reference_serialize(spec) -> str:
    """The per-field walker that serialized specs before they carried ``doc``."""
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


def reference_eq(a, b) -> bool:
    """The field-by-field equality specs had before they compared documents."""
    if a.d != b.d or tuple(a.bounds) != tuple(b.bounds) or a.families != b.families:
        return False
    if (a.translations is None) != (b.translations is None):
        return False
    if a.translations is not None:
        if set(a.translations) != set(b.translations):
            return False
        if any(not np.array_equal(a.translations[c], b.translations[c]) for c in a.translations):
            return False
    if (a.graph is None) != (b.graph is None):
        return False
    if a.graph is not None:
        ga, gb = a.graph, b.graph
        if (ga.V, ga.v0) != (gb.V, gb.v0) or ga.labels != gb.labels:
            return False
    return True


class TestBuildPath:
    """parse, bind, serialize and == all go through one canonical document."""

    @staticmethod
    def specs():
        specs = [parse_system(doc_text(doc))
                 for doc in (CERT_DOC, CORNER_DOC, THIRDS_DOC, GRAPH_DOC, SPIN_DOC)]
        graph = parse_system(doc_text(GRAPH_DOC))
        return specs + [bind_translations(graph, seed=seed) for seed in (2, 3)]

    def test_serialization_matches_the_field_walker(self):
        for spec in self.specs():
            text = serialize_system(spec)
            assert text == reference_serialize(spec)
            assert json.loads(text) == spec.doc

    def test_equality_matches_the_field_walker(self):
        specs = self.specs()
        specs += [parse_system(serialize_system(spec)) for spec in specs]
        verdicts = [(a == b, reference_eq(a, b)) for a in specs for b in specs]
        assert all(new == old for new, old in verdicts)
        assert sum(new for new, _ in verdicts) == 2 * len(specs)

    @pytest.mark.parametrize("doc", [CERT_DOC, GRAPH_DOC, WIDE_DOC])
    @pytest.mark.parametrize("seed", [0, 3])
    def test_bound_vectors_are_draws_in_class_order(self, doc, seed):
        spec = parse_system(doc_text(doc))
        bound = bind_translations(spec, seed=seed)
        rng = np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(9,)))
        classes = sorted({m.translation_class for fam in spec.families for m in fam.maps})
        drawn = {c: rng.random(spec.d) for c in classes}
        assert list(bound.translations) == classes
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

    def test_directly_constructed_specs_do_not_compare_equal(self):
        # only the document builder sets ``doc``; a spec made by hand has none,
        # so ==, != and serialization fail loudly instead of agreeing on a missing document
        one, two = (parse_system(doc_text(doc)) for doc in (THIRDS_DOC, CORNER_DOC))
        a = SystemSpec(one.d, one.families, one.bounds)
        b = SystemSpec(two.d, two.families, two.bounds)
        assert "doc" not in repr(a)
        for compare in (lambda: a == b, lambda: a != b, lambda: a == one, lambda: a == a):
            with pytest.raises(AttributeError, match="doc"):
                compare()
        with pytest.raises(AttributeError, match="doc"):
            serialize_system(a)
        with pytest.raises(TypeError):
            SystemSpec(one.d, one.families, one.bounds, doc=one.doc)


# ---------------------------------------------------------------------------
# the command line


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

    def test_csv_writer_matches_the_per_cell_formula(self, tmp_path, capsys):
        # every cell is repr(float(x)), as the per-cell writer wrote it
        def per_cell(header, rows):
            lines = [header] + [",".join(repr(float(x)) for x in row) for row in rows]
            return "\n".join(lines) + "\n"

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
        assert io_cli._csv_text("a,b,c", (odd[:, :2], odd[:, 2])) == per_cell("a,b,c", odd)

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
            assert cli(["pressure", system, "--k", "8", "--depth", "8",
                        "--threads", threads, "--out", target]) == 0
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
        # diag(0.3, 0.001)^120 has a second singular value of 1e-360, which is 0.0
        # in double precision: the word's matrix itself is singular
        flat = {
            "d": 2,
            "bounds": {"sigma_lo": 0.001, "sigma_hi": 0.3},
            "families": [{"label": "flat", "maps": [{"T": [[0.3, 0.0], [0.0, 0.001]]}]}],
            "translations": {"0": [0.1, 0.2]},
        }
        rc = cli(argv[:1] + [doc_path(tmp_path, flat)] + argv[1:])
        captured = capsys.readouterr()
        assert rc == 2
        assert captured.out == ""
        assert "level-120 word underflowed to a singular matrix" in captured.err
        assert "Warning" not in captured.err

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

    @pytest.mark.parametrize("argv", [
        ["--depth", "0"], ["--depth", "-1"], ["--grid", "0"], ["--grid", "-1"],
    ])
    def test_depth_and_grid_below_one_exit_two(self, tmp_path, capsys, argv):
        commands = ["pressure"] if argv[0] == "--grid" else ["pressure", "check-fs"]
        for command in commands:
            with pytest.raises(SystemExit) as info:
                cli([command, doc_path(tmp_path, CERT_DOC)] + argv)
            assert info.value.code == 2
            captured = capsys.readouterr()
            assert captured.out == ""
            assert argv[0] in captured.err

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

    def test_check_fs_out_writes_the_verdicts(self, tmp_path, capsys):
        system = doc_path(tmp_path, IDENTITY_DOC)
        rc = cli(["check-fs", system])
        printed = capsys.readouterr().out
        target = tmp_path / "verdicts.txt"
        assert cli(["check-fs", system, "--out", str(target)]) == rc == 1
        assert capsys.readouterr().out == ""
        assert target.read_bytes() == printed.encode()
        assert "witness v" in printed

    @pytest.mark.parametrize("s", ["inf", "nan"])
    def test_non_finite_grade_exits_two(self, tmp_path, capsys, s):
        rc = cli(["check-fs", doc_path(tmp_path, SPIN_DOC), "--s", s])
        captured = capsys.readouterr()
        assert rc == 2
        assert captured.out == ""
        assert "s must lie in" in captured.err

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
