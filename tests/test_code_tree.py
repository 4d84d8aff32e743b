"""Tests for code trees: construction, necks, neck blocks, and partition sums.

Oracles: constant trees have closed-form partition sums S(k, s) =
(sum_i phi_s(T_i))^k for equal-shape maps, word counts are products of
branching numbers, and compositions can be folded by hand: enumeration
returns each word's point f_word(0) in lexicographic word order, and for
d = 1 the partition sum at s = 1 is the sum of |T_word|.
"""

import functools
import itertools
import math
import pathlib
import re
import warnings

import numpy as np
import pytest

from affdim import (
    AffineMap,
    CodeTreeRealization,
    EnumerationCapExceeded,
    GraphEdge,
    GraphLabel,
    GraphSystem,
    IfsFamily,
    build_code_tree,
    detect_necks,
    deterministic_tree,
    enumerate_points,
    parse_system,
    partition_sums,
    sample_graph_sequence,
)

from affdim import code_tree
from affdim.singular_values import _log_phi, _piece, phi_from_singular_values

from conftest import random_contraction

EXAMPLES = pathlib.Path(__file__).resolve().parents[1] / "docs" / "examples"
ROT90 = np.array([[0.0, -1.0], [1.0, 0.0]])


def thirds_family() -> IfsFamily:
    return IfsFamily(
        "thirds",
        (
            AffineMap([[1.0 / 3.0]], 0, [0.0]),
            AffineMap([[1.0 / 3.0]], 1, [2.0 / 3.0]),
        ),
    )


def corner_family() -> IfsFamily:
    T = 0.45 * np.eye(2)
    return IfsFamily(
        "corners",
        (
            AffineMap(T, 0, [0.0, 0.0]),
            AffineMap(T, 1, [0.55, 0.0]),
            AffineMap(T, 2, [0.0, 0.55]),
        ),
    )


def walk_graph() -> GraphSystem:
    """Two vertices; label 'n' (prob 0.3) sends everything to the root."""
    stay0 = AffineMap([[0.40]], 0, [0.0])
    stay1 = AffineMap([[0.35]], 1, [0.5])
    cross = AffineMap([[0.30]], 0, [0.2])
    back0 = AffineMap([[0.25]], 0, [0.1])
    back1 = AffineMap([[0.20]], 0, [0.6])
    return GraphSystem(
        V=2,
        v0=1,
        labels=(
            GraphLabel("n", 0.3, (GraphEdge(1, 1, back0), GraphEdge(2, 1, back1))),
            GraphLabel(
                "s",
                0.7,
                (GraphEdge(1, 2, stay0), GraphEdge(1, 2, stay1), GraphEdge(2, 2, cross)),
            ),
        ),
    )


# ---------------------------------------------------------------------------
# maps and families


class TestAffineMap:
    def test_defaults(self):
        m = AffineMap(0.5 * np.eye(2))
        assert m.translation_class == 0
        np.testing.assert_array_equal(m.a, np.zeros(2))
        assert m.d == 2

    def test_rejects_nonsquare(self):
        with pytest.raises(ValueError, match="square"):
            AffineMap(np.ones((2, 3)))

    def test_rejects_singular(self):
        with pytest.raises(ValueError):
            AffineMap(np.zeros((2, 2)))

    def test_rejects_expanding(self):
        with pytest.raises(ValueError, match="norm"):
            AffineMap(1.5 * np.eye(2))

    def test_norm_one_is_allowed_at_construction(self):
        # rotations are legal maps; strict contraction is only required when
        # a tree is realized
        AffineMap(ROT90)

    def test_rejects_translation_shape(self):
        with pytest.raises(ValueError, match="translation"):
            AffineMap(0.5 * np.eye(2), 0, [1.0, 2.0, 3.0])

    def test_singular_extremes(self):
        m = AffineMap(np.diag([0.5, 0.2]))
        assert math.isclose(m.sigma_max(), 0.5)
        assert math.isclose(m.sigma_min(), 0.2)

    def test_with_translation(self):
        shifted = AffineMap(0.5 * np.eye(2), 3, [1.0, -1.0])
        assert shifted.translation_class == 3
        np.testing.assert_array_equal(shifted.a, [1.0, -1.0])


class TestIfsFamily:
    def test_size_and_dim(self):
        fam = corner_family()
        assert fam.size == 3 and fam.d == 2

    def test_rejects_empty(self):
        with pytest.raises(ValueError, match="at least one"):
            IfsFamily("empty", ())

    def test_rejects_mixed_dimensions(self):
        with pytest.raises(ValueError, match="dimension"):
            IfsFamily("mixed", (AffineMap(0.5 * np.eye(2)), AffineMap([[0.5]], 1)))

    def test_rejects_repeated_translation_class(self):
        with pytest.raises(ValueError, match="class"):
            IfsFamily(
                "dup", (AffineMap(0.5 * np.eye(2), 1), AffineMap(0.4 * np.eye(2), 1))
            )


# ---------------------------------------------------------------------------
# graph systems


class TestGraphSystem:
    def test_walk_graph_properties(self):
        gs = walk_graph()
        np.testing.assert_allclose(gs.mu, [0.3, 0.7])
        assert gs.neck_label_indices() == (0,)
        assert math.isclose(gs.neck_probability(), 0.3)

    def test_out_family_orders_edges(self):
        gs = walk_graph()
        fam, targets = gs.out_family(1, 1)
        assert fam.size == 2 and targets == (2, 2)

    def test_out_family_missing_vertex(self):
        full = (
            GraphEdge(1, 1, AffineMap([[0.5]])),
            GraphEdge(2, 1, AffineMap([[0.4]], 1)),
        )
        partial = (GraphEdge(1, 1, AffineMap([[0.3]])),)
        gs = GraphSystem(
            2, 1, (GraphLabel("n", 1.0, full), GraphLabel("z", 0.0, partial))
        )
        with pytest.raises(ValueError, match="no outgoing"):
            gs.out_family(1, 2)

    def test_rejects_bad_probabilities(self):
        e = (GraphEdge(1, 1, AffineMap([[0.5]])),)
        with pytest.raises(ValueError, match="sum to 1"):
            GraphSystem(1, 1, (GraphLabel("a", 0.6, e), GraphLabel("b", 0.6, e)))
        with pytest.raises(ValueError, match="nonnegative"):
            GraphSystem(1, 1, (GraphLabel("a", -0.5, e), GraphLabel("b", 1.5, e)))

    def test_rejects_uncovered_vertex(self):
        e = (GraphEdge(1, 1, AffineMap([[0.5]])),)
        with pytest.raises(ValueError, match="no outgoing edge"):
            GraphSystem(2, 1, (GraphLabel("a", 1.0, e),))

    def test_rejects_edge_outside_graph(self):
        e = (GraphEdge(1, 3, AffineMap([[0.5]])),)
        with pytest.raises(ValueError, match="outside"):
            GraphSystem(2, 1, (GraphLabel("a", 1.0, e),))

    def test_rejects_neckless_system(self):
        # the single label keeps vertex 2 away from the root
        edges = (
            GraphEdge(1, 2, AffineMap([[0.5]])),
            GraphEdge(2, 2, AffineMap([[0.4]])),
        )
        with pytest.raises(ValueError, match="neck"):
            GraphSystem(2, 1, (GraphLabel("a", 1.0, edges),))

    def test_rejects_root_outside_range(self):
        e = (GraphEdge(1, 1, AffineMap([[0.5]])),)
        with pytest.raises(ValueError, match="v0"):
            GraphSystem(1, 2, (GraphLabel("a", 1.0, e),))


# ---------------------------------------------------------------------------
# label sequences and necks


class TestSequencesAndNecks:
    def test_point_mass(self):
        e = (GraphEdge(1, 1, AffineMap([[0.5]])),)
        gs = GraphSystem(1, 1, (GraphLabel("a", 1.0, e),))
        g = sample_graph_sequence(gs, seed=0, length=50)
        assert np.all(g == 0)

    def test_reproducible(self):
        gs = walk_graph()
        a = sample_graph_sequence(gs, seed=11, length=200)
        b = sample_graph_sequence(gs, seed=11, length=200)
        np.testing.assert_array_equal(a, b)
        assert np.any(a != sample_graph_sequence(gs, seed=12, length=200))

    def test_label_frequencies(self):
        gs = walk_graph()
        g = sample_graph_sequence(gs, seed=7, length=10_000)
        freq = float(np.mean(g == 0))
        stderr = math.sqrt(0.3 * 0.7 / 10_000)
        assert abs(freq - 0.3) < 3 * stderr

    def test_length_must_be_positive(self):
        with pytest.raises(ValueError, match="length"):
            sample_graph_sequence(walk_graph(), seed=0, length=0)

    def test_detect_necks_positions(self):
        gs = walk_graph()
        g = [1, 1, 0, 1, 1, 1, 0, 1]
        assert detect_necks(g, gs) == (3, 7)
        assert detect_necks([1, 1, 1], gs) == ()

    def test_detect_necks_thinning(self):
        gs = walk_graph()
        g = [0, 1, 0, 0, 1, 0]
        assert detect_necks(g, gs) == (1, 3, 4, 6)
        assert detect_necks(g, gs, thinning=2) == (3, 6)
        with pytest.raises(ValueError, match="thinning"):
            detect_necks(g, gs, thinning=0)


# ---------------------------------------------------------------------------
# realized trees


class TestDeterministicTree:
    def test_word_counts(self):
        tree = deterministic_tree(thirds_family(), 3)
        assert [tree.word_count(k) for k in range(4)] == [1, 2, 4, 8]
        assert tree.necks == (1, 2, 3)

    def test_three_branches(self):
        tree = deterministic_tree(corner_family(), 4)
        assert tree.word_count(4) == 81
        assert [lev.families[tree.root_state].size for lev in tree.levels] == [3, 3, 3, 3]

    def test_rejects_non_contraction(self):
        spin = IfsFamily("spin", (AffineMap(ROT90),))
        with pytest.raises(ValueError, match="strict"):
            deterministic_tree(spin, 2)

    def test_rejects_nonpositive_depth(self):
        with pytest.raises(ValueError, match="depth"):
            deterministic_tree(thirds_family(), 0)

    def test_sigma_bounds(self):
        tree = deterministic_tree(corner_family(), 3)
        assert math.isclose(tree.sigma_max(), 0.45)
        assert math.isclose(tree.sigma_min(), 0.45)

    def test_is_the_one_vertex_graph_tree(self):
        fam = corner_family()
        loop = GraphLabel(fam.label, 1.0, tuple(GraphEdge(1, 1, m) for m in fam.maps))
        graph_tree = build_code_tree(GraphSystem(1, 1, (loop,)), np.zeros(5))
        tree = deterministic_tree(fam, 5)
        assert (graph_tree.root_state, graph_tree.necks) == (tree.root_state, tree.necks)
        # reference: the constant tree laid out directly, one level table shared by all levels
        table = code_tree._LevelTable((fam,), ((0,) * fam.size,))
        by_hand = CodeTreeRealization((table,) * 5, necks=(1, 2, 3, 4, 5))
        s_values = [0.0, 0.7, 1.0, 1.3, 2.0, 2.5]
        for other in (graph_tree, by_hand):
            for k in (1, 3, 5):
                np.testing.assert_array_equal(partition_sums(tree, k, s_values),
                                              partition_sums(other, k, s_values))
            for s in (0.0, 1.3):
                for mine, theirs in zip(enumerate_points(tree, 5, s), enumerate_points(other, 5, s)):
                    np.testing.assert_array_equal(mine, theirs)


class TestOneSpectrumPerMap:
    """Spectrum reads come from the construction gate's SVD, not from LAPACK."""

    def test_sigma_reads_run_no_lapack(self, rng, monkeypatch):
        maps = [AffineMap(random_contraction(rng, d, 0.05, 0.95), c) for d in (1, 2, 3, 4, 5)
                for c in range(4)]
        trees = [deterministic_tree(IfsFamily("f", tuple(maps[i:i + 4])), 3)
                 for i in range(0, len(maps), 4)]
        expected = [(float(np.linalg.norm(m.T, 2)), float(np.linalg.svd(m.T, compute_uv=False)[-1]))
                    for m in maps]
        calls = []

        def counted(name):
            real = getattr(np.linalg, name)

            def wrapper(*args, **kwargs):
                calls.append(name)
                return real(*args, **kwargs)
            return wrapper

        for name in ("svd", "norm"):
            monkeypatch.setattr(np.linalg, name, counted(name))
        got = [(m.sigma_max(), m.sigma_min()) for m in maps]
        got_trees = [(t.sigma_max(), t.sigma_min()) for t in trees]
        monkeypatch.undo()
        assert calls == []
        assert got == expected
        for i, pair in enumerate(got_trees):
            chunk = expected[4 * i:4 * i + 4]
            assert pair == (max(hi for hi, _ in chunk), min(lo for _, lo in chunk))

    def test_spectrum_is_read_only(self):
        m = AffineMap(np.diag([0.5, 0.2]))
        np.testing.assert_array_equal(m.sigma, [0.5, 0.2])
        with pytest.raises(ValueError):
            m.sigma[0] = 0.1


def word_index(word, branching: int) -> int:
    """Position of a word in the lexicographic order of a constant tree."""
    index = 0
    for letter in word:
        index = index * branching + int(letter)
    return index


def level_states(tree, level0, state0, k) -> np.ndarray:
    """The level-k states of the descendants of the node at (level0, state0), in word order."""
    return code_tree._expand_block(tree, level0, state0, k, states=True)[0]


def letter_paths(tree, level0, state0, k) -> list:
    """Every word from the node at (level0, state0) down to level k, in word
    order, as (letters, level-k state) with one (level, state, branch) per
    letter, by depth-first recursion over the level tables."""
    if level0 == k:
        return [([], state0)]
    tbl = tree.levels[level0]
    return [([(level0, state0, b), *letters], end)
            for b in range(int(tbl._sizes[state0]))
            for letters, end in letter_paths(tree, level0 + 1, int(tbl._child[state0, b]), k)]


def fold_right(tree, letters):
    """A word's (linear part, log|det|, point) composed one word at a time
    from the right, T_{w_1}(T_{w_2}(...)), starting from the empty word: one
    (d, d) product per letter, ``*`` for d = 1."""
    d = tree.d
    mats, log_det, point = np.eye(d), 0.0, np.zeros(d)
    for lev, state, b in reversed(letters):
        tbl = tree.levels[lev]
        T = tbl._T[state, b]
        mats = T * mats if d == 1 else T @ mats
        log_det = tbl._log_det[state, b] + log_det
        point = T @ point + tbl._a[state, b]
    return mats, log_det, point


def fold_left(tree, letters):
    """A word's linear part composed from the left, ((T_{w_1} T_{w_2}) ...),
    as the top-down walk formed it, and None for its log|det|."""
    mats = np.eye(tree.d)
    for lev, state, b in letters:
        mats = mats @ tree.levels[lev]._T[state, b]
    return mats, None


class TestCompose:
    """Maps composed along words, read off the enumeration."""

    def test_empty_word(self):
        # level-1 words start from the identity and the origin, so their
        # points are the translations and their sums the maps' own |T|
        tree = deterministic_tree(thirds_family(), 2)
        points, _ = enumerate_points(tree, 1)
        np.testing.assert_array_equal(points, [[0.0], [2.0 / 3.0]])
        assert math.isclose(partition_sums(tree, 1, [1.0])[0], math.log(2.0 / 3.0))

    def test_cantor_endpoints(self):
        tree = deterministic_tree(thirds_family(), 2)
        points, _ = enumerate_points(tree, 2)
        assert math.isclose(points[word_index((1, 1), 2), 0], 8.0 / 9.0)
        # all four words compose to |T| = 1/9
        assert math.isclose(partition_sums(tree, 2, [1.0])[0], math.log(4.0 / 9.0))

    def test_scaled_rotation_powers(self):
        theta = 0.3
        R = np.array(
            [[math.cos(theta), -math.sin(theta)], [math.sin(theta), math.cos(theta)]]
        )
        fam = IfsFamily("turn", (AffineMap(0.8 * R, 0, [0.1, 0.0]),))
        tree = deterministic_tree(fam, 5)
        points, _ = enumerate_points(tree, 5)
        # f^5(0) = sum_j (0.8 R)^j a, and R^j turns by j theta
        x_ref = sum(
            0.8**j * np.array([0.1 * math.cos(j * theta), 0.1 * math.sin(j * theta)])
            for j in range(5)
        )
        np.testing.assert_allclose(points[0], x_ref, atol=1e-14)
        # (0.8 R)^5 has both singular values 0.8^5
        np.testing.assert_allclose(
            partition_sums(tree, 5, [1.0, 2.0]), np.log([0.8**5, 0.8**10]), rtol=1e-12
        )

    def test_fold_oracle(self, rng):
        mats = [random_contraction(rng, 2, 0.2, 0.45) for _ in range(3)]
        fam = IfsFamily(
            "rand", tuple(AffineMap(T, c, rng.uniform(size=2)) for c, T in enumerate(mats))
        )
        tree = deterministic_tree(fam, 4)
        s = 1.5
        points, weights = enumerate_points(tree, 4, s=s)
        words = list(itertools.product(range(3), repeat=4))
        phis = []
        for word in words:
            T_ref = np.eye(2)
            x_ref = np.zeros(2)
            for letter in word:
                T_ref = T_ref @ fam.maps[letter].T
            for letter in reversed(word):
                m = fam.maps[letter]
                x_ref = m.T @ x_ref + m.a
            np.testing.assert_allclose(points[word_index(word, 3)], x_ref, atol=1e-14)
            sigma = np.linalg.svd(T_ref, compute_uv=False)
            phis.append(sigma[0] * math.sqrt(sigma[1]))
        np.testing.assert_allclose(weights, np.array(phis) / sum(phis), rtol=1e-12)
        assert partition_sums(tree, 4, [s])[0] == pytest.approx(math.log(sum(phis)), rel=1e-12)


class TestBuildCodeTree:
    def alternating_graph(self) -> GraphSystem:
        return GraphSystem(
            V=2,
            v0=1,
            labels=(
                GraphLabel(
                    "a",
                    0.5,
                    (
                        GraphEdge(1, 2, AffineMap([[0.5]], 0, [0.0])),
                        GraphEdge(2, 1, AffineMap([[0.4]], 0, [0.1])),
                    ),
                ),
                GraphLabel(
                    "b",
                    0.5,
                    (
                        GraphEdge(1, 1, AffineMap([[0.3]], 0, [0.2])),
                        GraphEdge(2, 1, AffineMap([[0.25]], 0, [0.3])),
                    ),
                ),
            ),
        )

    def test_hand_trace(self):
        gs = self.alternating_graph()
        tree = build_code_tree(gs, [0, 1, 0, 1])
        assert tree.depth == 4 and tree.d == 1
        assert tree.word_count(4) == 1
        assert tree.necks == (2, 4)
        # root walks 1 -> 2 under 'a', back to 1 under 'b'
        assert level_states(tree, 0, tree.root_state, 1).tolist() == [1]
        assert tree.levels[1].families[1].label == "b@v2"
        # the one level-4 word is (0, 0, 0, 0); at s = 1 its sum is |T|
        assert math.isclose(partition_sums(tree, 4, [1.0])[0], math.log(0.5 * 0.25 * 0.5 * 0.25))
        points, weights = enumerate_points(tree, 4)
        # fold 0 through b@v2, a@v1, b@v2, a@v1
        assert math.isclose(points[0, 0], 0.5 * (0.25 * (0.5 * 0.3) + 0.3))
        assert weights.tolist() == [1.0]

    def test_word_counts_follow_out_degrees(self):
        gs = walk_graph()
        # 's' branches twice out of the root, once elsewhere; 'n' never does
        assert build_code_tree(gs, [1, 1, 1, 1]).word_count(4) == 2
        assert build_code_tree(gs, [1, 1, 0, 1]).word_count(4) == 4
        assert build_code_tree(gs, [0, 1, 0, 1]).word_count(4) == 4
        assert build_code_tree(gs, [1, 0, 1, 0]).word_count(4) == 4

    def test_level_zero_counts_one_word_from_any_root(self):
        # level 0 holds the empty word alone, also when the root is not state 0
        # (its count was once sized for one state and raised IndexError here)
        gs, g = walk_graph(), [1, 1, 0, 1]
        tree = CodeTreeRealization(build_code_tree(gs, g).levels, 1, detect_necks(g, gs))
        assert tree.root_state == 1
        assert [tree.word_count(k) for k in range(5)] == [1, 1, 1, 1, 2]
        assert partition_sums(tree, 0, [0.5]).tolist() == [0.0]

    def test_start_vertex_validated(self):
        # a tree walked from another vertex is realized with that root state
        levels = build_code_tree(walk_graph(), [0, 1]).levels
        with pytest.raises(ValueError, match="root state 4 missing from level 0"):
            CodeTreeRealization(levels, 4)

    def test_thinning_drops_intermediate_necks(self):
        gs = walk_graph()
        g = [0, 1, 0, 0, 1, 0]
        tree = build_code_tree(gs, g)
        assert tree.necks == (1, 3, 4, 6)
        thinned = CodeTreeRealization(tree.levels, tree.root_state, detect_necks(g, gs, thinning=2))
        assert thinned.necks == (3, 6)

    def test_family_beyond_neck_depends_only_on_suffix(self):
        gs = walk_graph()
        g = sample_graph_sequence(gs, seed=3, length=12)
        tree = build_code_tree(gs, g)
        assert len(tree.necks) >= 2
        n1 = tree.necks[0]
        at_neck = level_states(tree, 0, tree.root_state, n1)
        assert set(at_neck.tolist()) == {gs.v0 - 1}
        # below the neck every node's subtree is the neck state's, node by node
        for level in range(n1, min(tree.depth, n1 + 4) + 1):
            from_root = level_states(tree, 0, tree.root_state, level)
            from_neck = level_states(tree, n1, gs.v0 - 1, level)
            np.testing.assert_array_equal(from_root, np.tile(from_neck, len(at_neck)))


# ---------------------------------------------------------------------------
# partition sums


class TestPartitionSums:
    def test_cantor_closed_form(self):
        tree = deterministic_tree(thirds_family(), 4)
        assert partition_sums(tree, 4, [1.0])[0] == pytest.approx(math.log(16.0 / 81.0), rel=1e-12)

    def test_fractional_closed_form(self):
        T = np.diag([0.4, 0.2])
        fam = IfsFamily(
            "flat", tuple(AffineMap(T, c, np.zeros(2)) for c in range(3))
        )
        tree = deterministic_tree(fam, 2)
        expected = (3.0 * 0.4 * math.sqrt(0.2)) ** 2
        assert partition_sums(tree, 2, [1.5])[0] == pytest.approx(math.log(expected), rel=1e-12)
        assert expected == pytest.approx(0.288, rel=1e-12)

    def test_s_zero_counts_words(self):
        tree = deterministic_tree(corner_family(), 3)
        for k in (1, 2, 3):
            assert partition_sums(tree, k, [0.0])[0] == pytest.approx(k * math.log(3.0), rel=1e-12)

    def test_level_zero_is_one(self):
        tree = deterministic_tree(thirds_family(), 2)
        assert partition_sums(tree, 0, [1.7])[0] == 0.0

    @pytest.mark.parametrize("s", [-0.5, math.nan])
    def test_bad_exponent_is_refused_before_the_first_word(self, monkeypatch, s):
        def enumerate_nothing(*args, **kwargs):
            raise AssertionError("words enumerated before the exponents were checked")

        monkeypatch.setattr(code_tree, "_map_words", enumerate_nothing)
        tree = deterministic_tree(thirds_family(), 3)
        for k in (0, 3):
            with pytest.raises(ValueError, match=f"exponent must be nonnegative, got {s}"):
                partition_sums(tree, k, [1.0, s], slopes=True)
        with pytest.raises(ValueError, match=f"exponent must be nonnegative, got {s}"):
            enumerate_points(tree, 3, s)

    def test_vectorized_matches_scalar(self):
        tree = deterministic_tree(corner_family(), 3)
        grid = [0.5, 1.0, 1.5, 2.0]
        vec = partition_sums(tree, 3, grid)
        np.testing.assert_allclose(
            vec, [partition_sums(tree, 3, [s])[0] for s in grid], rtol=1e-14
        )

    def test_level_out_of_range(self):
        tree = deterministic_tree(thirds_family(), 2)
        with pytest.raises(ValueError, match="k must"):
            partition_sums(tree, 3, [1.0])[0]

    def test_fekete_submultiplicativity(self, rng):
        mats = [random_contraction(rng, 2, 0.15, 0.45) for _ in range(3)]
        fam = IfsFamily("rand", tuple(AffineMap(T, c) for c, T in enumerate(mats)))
        tree = deterministic_tree(fam, 6)
        for s in (0.7, 1.5, 2.3):
            log_S = {k: partition_sums(tree, k, [s])[0] for k in range(1, 7)}
            for j, k in ((1, 4), (2, 3), (3, 3), (2, 4)):
                assert log_S[j + k] <= log_S[j] + log_S[k] + math.log1p(1e-9)

    def test_one_dimensional_oracle_below_the_smallest_double(self):
        # for d = 1, S(k, s) = (sum_i |t_i|^s)^k exactly; at s = 20 and k = 10
        # that is about 1e-340, below the smallest double
        t = [0.01, -0.02, 0.005]
        fam = IfsFamily("line", tuple(AffineMap([[x]], c) for c, x in enumerate(t)))
        tree = deterministic_tree(fam, 10)
        grid = np.linspace(0.0, 20.0, 41)
        oracle = [10 * math.log(sum(abs(x) ** s for x in t)) for s in grid]
        assert math.exp(oracle[-1]) == 0.0
        np.testing.assert_allclose(partition_sums(tree, 10, grid), oracle, rtol=1e-12)

    def test_cap_exceeded_names_the_largest_level_within_it(self, monkeypatch):
        monkeypatch.setattr(code_tree, "ENUMERATION_CAP", 80)
        tree = deterministic_tree(corner_family(), 6)
        for k in (4, 6):  # 3^4 = 81 words are over the cap, 3^3 = 27 within it
            with pytest.raises(EnumerationCapExceeded,
                               match=f"level {k} holds {3**k} words, above the cap 80; "
                                     "the largest level within the cap is 3$"):
                partition_sums(tree, k, [1.0])
        with pytest.raises(EnumerationCapExceeded, match="the largest level within the cap is 3$"):
            enumerate_points(tree, 4)
        assert partition_sums(tree, 3, [0.0])[0] == pytest.approx(3 * math.log(3.0), rel=1e-12)

    def test_word_counts_past_int64_are_refused_before_the_first_word(self, monkeypatch):
        # 3^40 and 3^41 words overflow int64 (the count read -6.3e18 at k = 40),
        # which let such a level past the cap and into an enumeration
        def enumerate_nothing(*args, **kwargs):
            raise AssertionError("words enumerated past the cap")

        monkeypatch.setattr(code_tree, "_expand_block", enumerate_nothing)
        tree = deterministic_tree(corner_family(), 1000)
        assert [tree.word_count(k) for k in (40, 1000)] == [3**40, 3**1000]
        for k, holds in ((40, str(3**40)), (41, "at least 2^64"), (1000, "at least 2^1584")):
            message = (f"level {k} holds {holds} words, above the cap 10000000; "
                       "the largest level within the cap is 14")
            with pytest.raises(EnumerationCapExceeded, match=f"^{re.escape(message)}$"):
                partition_sums(tree, k, [1.0])


def word_spectra(tree, k) -> np.ndarray:
    """Every level-k word's log spectrum, one row per word in word order, from
    the (d, n) blocks the block map hands out."""
    return np.concatenate([log_sigma.T for log_sigma in
                           code_tree._map_words(tree, k, lambda log_sigma, _: log_sigma)])


def expand_words(tree, k) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Every level-k word's composed linear part, log|det| and point f_word(0),
    in word order and word-major, as one table built from the root."""
    mats, log_det, points = code_tree._expand_block(tree, 0, tree.root_state, k, mats=True,
                                                    log_det=True, points=True)[1]
    return np.moveaxis(mats, -1, 0), log_det, points.T


def entry_major(mats) -> np.ndarray:
    """Word-major linear parts (n, d, d) as a contiguous entry-major (d, d, n) array."""
    return np.ascontiguousarray(np.moveaxis(mats, 0, -1))


class TestLogSpectra:
    def test_codiagonal_oracle_where_the_product_loses_sigma_2(self):
        # R diag(a, b) R^T words have spectrum (prod a, prod b); at k = 12 the
        # products' condition numbers reach 1e30, so their own sigma_2 is noise
        theta = 0.7
        R = np.array([[math.cos(theta), -math.sin(theta)], [math.sin(theta), math.cos(theta)]])
        ab = [(0.4, 0.001), (0.35, 0.002)]
        fam = IfsFamily("co", tuple(AffineMap(R @ np.diag(x) @ R.T, c) for c, x in enumerate(ab)))
        k = 12
        log_sigma = word_spectra(deterministic_tree(fam, k), k)
        log_ab = np.log(np.array(ab))
        expected = np.array([log_ab[list(w)].sum(axis=0)
                             for w in itertools.product(range(2), repeat=k)])
        np.testing.assert_allclose(log_sigma, expected, rtol=1e-12, atol=0)

    def test_well_conditioned_products_match_the_svd(self, rng):
        mats = [random_contraction(rng, 2, 0.3, 0.6) for _ in range(3)]
        fam = IfsFamily("rand", tuple(AffineMap(T, c) for c, T in enumerate(mats)))
        tree = deterministic_tree(fam, 5)
        reference = np.log(np.linalg.svd(expand_words(tree, 5)[0], compute_uv=False))
        np.testing.assert_allclose(word_spectra(tree, 5), reference, rtol=0, atol=1e-13)

    @pytest.mark.parametrize("d", [1, 4])
    def test_other_dimensions_equal_the_svd_bit_for_bit(self, rng, d):
        if d == 1:
            mats = [np.array([[x]]) for x in (0.3, -0.45, 0.2)]
        else:
            mats = [random_contraction(rng, 4, 0.2, 0.6) for _ in range(3)]
        fam = IfsFamily("mixed", tuple(AffineMap(T, c) for c, T in enumerate(mats)))
        tree = deterministic_tree(fam, 6)
        reference = np.log(np.linalg.svd(expand_words(tree, 6)[0], compute_uv=False))
        assert word_spectra(tree, 6).tobytes() == reference.tobytes()

    @staticmethod
    def block_diagonal_tree(rng, params, k):
        """The depth-k tree of Q (a R(theta) ⊕ b) Q^T maps, one per (a, theta, b),
        and its words' oracle pairs (sum log a, sum log b), in word order."""
        Q, _ = np.linalg.qr(rng.standard_normal((3, 3)))
        maps = []
        for c, (a, theta, b) in enumerate(params):
            M = np.zeros((3, 3))
            M[:2, :2] = a * np.array([[math.cos(theta), -math.sin(theta)],
                                      [math.sin(theta), math.cos(theta)]])
            M[2, 2] = b
            maps.append(AffineMap(Q @ M @ Q.T, c))
        log_ab = np.log(np.array([(a, b) for a, _, b in params]))
        oracle = np.array([log_ab[list(w)].sum(axis=0)
                           for w in itertools.product(range(len(params)), repeat=k)])
        return deterministic_tree(IfsFamily("block", tuple(maps)), k), oracle

    def test_block_diagonal_oracle_with_equal_top_pair(self, rng, monkeypatch):
        # a > b: sigma_1 = sigma_2 = prod a, where the closed form is least
        # accurate, so every word takes eigvalsh of its two Grams, all in one
        # call, and no SVD
        tree, oracle = self.block_diagonal_tree(rng, [(0.5, 0.3, 0.2), (0.4, 1.1, 0.1)], 8)
        eigvalsh, svd = np.linalg.eigvalsh, np.linalg.svd
        seen = []
        monkeypatch.setattr(np.linalg, "eigvalsh", lambda a: seen.append(len(a)) or eigvalsh(a))
        monkeypatch.setattr(np.linalg, "svd", lambda *a, **kw: seen.append("svd") or svd(*a, **kw))
        log_sigma = word_spectra(tree, 8)
        assert seen == [2 * 2**8]
        expected = np.stack([oracle[:, 0], oracle[:, 0], oracle[:, 1]], axis=1)
        np.testing.assert_allclose(log_sigma, expected, rtol=0, atol=1e-12)

    def test_block_diagonal_oracle_with_equal_bottom_pair(self, rng):
        # a < b: sigma_1 = prod b and sigma_2 = sigma_3 = prod a.  The lower
        # pair is as far from the oracle as LAPACK's, up to the rounding of
        # the summed log|det| that log sigma_3 is taken from
        tree, oracle = self.block_diagonal_tree(rng, [(0.2, 0.3, 0.5), (0.1, 1.1, 0.4)], 8)
        log_sigma = word_spectra(tree, 8)
        lapack = np.log(np.linalg.svd(expand_words(tree, 8)[0], compute_uv=False))
        expected = np.stack([oracle[:, 1], oracle[:, 0], oracle[:, 0]], axis=1)
        np.testing.assert_allclose(log_sigma[:, 0], expected[:, 0], rtol=0, atol=1e-12)
        ours = np.max(np.abs(log_sigma[:, 1:] - expected[:, 1:]))
        theirs = np.max(np.abs(lapack[:, 1:] - expected[:, 1:]))
        assert ours <= theirs + 1e-13

    @pytest.mark.parametrize("axes", [[(0, 1, 0.0)] * 3, [(0, 1, 0.3), (1, 2, 1.1), (0, 2, 2.0)]])
    def test_similarity_words_take_no_svd(self, monkeypatch, axes):
        # 0.4 I, then 0.4 times three rotations in coordinate planes.  Every
        # Gram matrix is scalar up to rounding, so r is noise; taking r = 1
        # there costs at most p <= 64 eps q, and no row needs the SVD
        rotations = []
        for i, j, theta in axes:
            R = np.eye(3)
            R[[i, i, j, j], [i, j, i, j]] = [math.cos(theta), -math.sin(theta),
                                             math.sin(theta), math.cos(theta)]
            rotations.append(R)
        fam = IfsFamily("similar", tuple(AffineMap(0.4 * R, c) for c, R in enumerate(rotations)))
        tree = deterministic_tree(fam, 7)
        calls = []
        svd = np.linalg.svd
        monkeypatch.setattr(np.linalg, "svd", lambda *a, **kw: calls.append(1) or svd(*a, **kw))
        log_sigma = word_spectra(tree, 7)
        assert calls == []
        assert log_sigma.shape == (3**7, 3)
        np.testing.assert_allclose(log_sigma, 7 * math.log(0.4), rtol=0, atol=1e-13)

    def test_well_conditioned_3x3_products_match_the_svd(self, rng):
        mats = [random_contraction(rng, 3, 0.2, 0.6) for _ in range(3)]
        fam = IfsFamily("rand", tuple(AffineMap(T, c) for c, T in enumerate(mats)))
        tree = deterministic_tree(fam, 6)
        reference = np.log(np.linalg.svd(expand_words(tree, 6)[0], compute_uv=False))
        np.testing.assert_allclose(word_spectra(tree, 6), reference, rtol=0, atol=1e-13)

    def test_block_log_det_is_prefix_plus_suffix(self, rng, monkeypatch):
        # a block's log|det| is its prefix's left-to-right sum plus its suffix
        # table's, so it differs from the one-block sum by rounding only
        mats = [random_contraction(rng, 2, 0.2, 0.6) for _ in range(3)]
        fam = IfsFamily("rand", tuple(AffineMap(T, c) for c, T in enumerate(mats)))
        tree = deterministic_tree(fam, 7)
        _, whole, _ = expand_words(tree, 7)
        # 3^2 words below each level-5 node: the words split at level 5
        monkeypatch.setattr(code_tree, "_BLOCK_LIMIT", 3**2)
        _, (_, prefix, _) = code_tree._expand_block(tree, 0, tree.root_state, 5, log_det=True)
        _, (_, suffix, _) = code_tree._expand_block(tree, 5, tree.root_state, 7, log_det=True)
        assert len(prefix) == 3**5
        seen = []
        log_spectra = code_tree._log_spectra
        monkeypatch.setattr(code_tree, "_log_spectra",
                            lambda m, log_det, k: seen.append(log_det) or log_spectra(m, log_det, k))
        word_spectra(tree, 7)
        assert len(seen) == 3**5
        split = np.concatenate(seen)
        assert split.tobytes() == np.concatenate([ld + suffix for ld in prefix]).tobytes()
        np.testing.assert_allclose(split, whole, rtol=1e-14, atol=0)

    @pytest.mark.parametrize("d", [1, 2, 3])
    def test_underflow_in_any_word_is_refused(self, monkeypatch, d):
        # word 00 underflows to the zero matrix; the later words do not.  One
        # word per d = 3 chunk puts it in a chunk other than the last.  d = 1
        # takes log|t| from the summed log|det| where the product underflows
        monkeypatch.setattr(code_tree, "_SPECTRUM_CHUNK", 1)
        fam = IfsFamily("mixed", (AffineMap(1e-170 * np.eye(d), 0), AffineMap(0.5 * np.eye(d), 1)))
        tree = deterministic_tree(fam, 2)
        if d == 1:
            log_t = np.log([1e-170, 0.5])
            np.testing.assert_allclose(word_spectra(tree, 2)[:, 0],
                                       [a + b for a in log_t for b in log_t], rtol=1e-15, atol=0)
            # the words whose product is a normal double take its log
            products = np.log([1e-170 * 0.5, 0.5 * 1e-170, 0.25])
            assert word_spectra(tree, 2)[1:, 0].tolist() == products.tolist()
            # S(2, 1) = (1e-170 + 0.5)^2
            assert partition_sums(tree, 2, [1.0])[0] == pytest.approx(2 * math.log(0.5), rel=1e-15)
            return
        with pytest.raises(ValueError, match="level-2 word underflowed"):
            word_spectra(tree, 2)
        with pytest.raises(ValueError, match="level-2 word underflowed"):
            partition_sums(tree, 2, [1.0])

    def test_lost_second_singular_value_is_refused(self):
        # sigma_1 survives in the rank-one word, but sigma_1 sigma_2 is lost
        mats = np.array([np.diag([0.5, 0.0, 0.0]), 0.5 * np.eye(3)])
        with pytest.raises(ValueError, match="level-5 word underflowed"):
            one_block_spectra(entry_major(mats), np.zeros(2), 5)

    def test_codiagonal_d3_oracle_across_blocks(self, monkeypatch):
        # Q diag(a_i) Qᵀ maps share one rotation, so each word's exact log
        # sigma_j is sum log a_ij.  A block takes sigma_1 sigma_2 from its
        # prefix's and its suffixes' cofactor matrices, each a shorter word
        # than the block's: taking it from the cofactors of each composed
        # level-8 product is 1.2e-9 off here
        Q, _ = np.linalg.qr(np.random.default_rng(3).standard_normal((3, 3)))
        diagonals = [(0.45, 0.05, 0.02), (0.4, 0.06, 0.03)]
        fam = IfsFamily("co", tuple(AffineMap(Q @ np.diag(a) @ Q.T, c) for c, a in enumerate(diagonals)))
        monkeypatch.setattr(code_tree, "_BLOCK_LIMIT", 2**5)
        monkeypatch.setattr(code_tree, "_SPECTRUM_CHUNK", 7)
        tree = deterministic_tree(fam, 8)
        assert len(code_tree._map_words(tree, 8, lambda *_: None)) == 2**3
        log_a = np.log(np.array(diagonals))
        oracle = np.array([log_a[list(w)].sum(axis=0) for w in itertools.product(range(2), repeat=8)])
        error = np.max(np.abs(word_spectra(tree, 8) - oracle), axis=0)
        assert error[0] <= 1e-13
        assert error[1] <= 1e-9

    @pytest.mark.xfail(strict=True, reason="the suffix's cofactor matrices are taken from its "
                       "composed products, whose 2×2 minors cancel at rate eps sigma_1 / sigma_2")
    def test_codiagonal_d3_oracle_at_depth_16(self):
        # the maps of the test above at k = 16: 2^16 words make one block, whose
        # suffix is the whole word, so each sigma_1 sigma_2 comes from a composed
        # 16-letter product; sigma_1 holds to 1e-14, sigma_2 and sigma_3 miss by 0.089
        Q, _ = np.linalg.qr(np.random.default_rng(3).standard_normal((3, 3)))
        diagonals = [(0.45, 0.05, 0.02), (0.4, 0.06, 0.03)]
        fam = IfsFamily("co", tuple(AffineMap(Q @ np.diag(a) @ Q.T, c) for c, a in enumerate(diagonals)))
        words = np.array(list(itertools.product(range(2), repeat=16)))
        oracle = np.log(np.array(diagonals))[words].sum(axis=1)
        error = np.max(np.abs(word_spectra(deterministic_tree(fam, 16), 16) - oracle), axis=0)
        assert np.all(error <= 1e-12), error

    def test_misaligned_prefix_costs_sigma_1_eps_rho_squared(self):
        # Q diag(0.9, 1e-3, 1e-3) Qᵀ and its two permuted copies: a prefix that
        # crushes its suffix's top direction has rho = sigma_1(M) sigma_1(T) /
        # sigma_1(M T) = 900.  The block's Gram L(M) G_T carries the suffix
        # Gram's rounding, eps sigma_1(T)², times sigma_1(M)², so log sigma_1 is
        # known to about eps rho² (6e-12 measured), where the composed product's
        # own Gram gives eps rho (1.1e-13 measured).  The aligned words, rho = 1,
        # are exact to rounding either way.  Each sigma_1 sigma_2 here has
        # rho = 1 and keeps the eps sigma_1 / sigma_2 of its suffix
        eps = np.finfo(float).eps
        Q, _ = np.linalg.qr(np.random.default_rng(3).standard_normal((3, 3)))
        diagonals = np.array([(0.9, 1e-3, 1e-3), (1e-3, 0.9, 1e-3), (1e-3, 1e-3, 0.9)])
        maps = np.array([Q @ np.diag(a) @ Q.T for a in diagonals])
        table = code_tree._gram_table(entry_major(maps))
        for head, a in zip(maps, diagonals):
            exact = np.sort(a * diagonals, axis=1)[:, ::-1]  # the words M T, exactly
            want = np.log(np.stack([exact[:, 0], exact[:, 0] * exact[:, 1]]))
            got = code_tree._congruent_spectra(head, table, np.log(exact).sum(axis=1), 1)
            composed = per_word_gram_spectra(head @ maps)
            rho = 0.9 * 0.9 / exact[:, 0]
            assert set(np.round(rho)) == {1.0, 900.0}
            assert np.all(np.abs(got[0] - want[0]) <= 4 * eps * rho**2)
            assert np.all(np.abs(composed[0] - want[0]) <= 4 * eps * rho)
            assert np.all(np.abs(got[0] + got[1] - want[1]) <= 4 * eps * 900)

    def test_near_gap_columns_take_the_fallback(self, monkeypatch):
        # behind a similarity prefix 0.5 R, Q diag(a, a, b) Qᵀ has a repeated top
        # Gram eigenvalue and Q diag(a, b, b) Qᵀ a repeated top cofactor Gram
        # eigenvalue: both take eigvalsh of their two Grams.  0.4 Q has scalar
        # Grams, where r = 1 and the closed form is exact to rounding
        monkeypatch.setattr(code_tree, "_SPECTRUM_CHUNK", 5)
        rng = np.random.default_rng(5)
        mats, sigma = [], []
        for t in range(30):
            Q, _ = np.linalg.qr(rng.standard_normal((3, 3)))
            a, b = rng.uniform(0.5, 0.9), rng.uniform(0.1, 0.4)
            spectrum = [(0.4, 0.4, 0.4), (a, a, b), (a, b, b)][t % 3]
            mats.append(0.4 * Q if t % 3 == 0 else Q @ np.diag(spectrum) @ Q.T)
            sigma.append(spectrum)
        head = 0.5 * np.linalg.qr(rng.standard_normal((3, 3)))[0]
        want = np.log(0.5 * np.array(sigma)).T
        eigvalsh, calls = np.linalg.eigvalsh, []
        monkeypatch.setattr(np.linalg, "eigvalsh", lambda a: calls.append(len(a)) or eigvalsh(a))
        got = code_tree._congruent_spectra(head, code_tree._gram_table(entry_major(np.array(mats))),
                                           np.sum(want, axis=0), 4)
        assert sum(calls) == 2 * 20 and len(calls) == 6  # one call per chunk of 5
        np.testing.assert_allclose(got, want, rtol=0, atol=1e-13)


class TestSharedSuffixes:
    @staticmethod
    def two_vertex_tree(rng, d):
        """A depth-7 tree of a two-vertex graph whose vertices have different
        out-degrees under each label.  Maps and translations are positive, so
        points sum without cancellation."""

        def out(source, targets):
            return [GraphEdge(source, t, AffineMap(0.3 * np.eye(d) + 0.05 * rng.uniform(size=(d, d)),
                                                   c, rng.uniform(size=d)))
                    for c, t in enumerate(targets)]

        gs = GraphSystem(2, 1, (
            GraphLabel("n", 0.4, tuple(out(1, [1, 1, 1]) + out(2, [1, 1]))),
            GraphLabel("w", 0.6, tuple(out(1, [2, 1]) + out(2, [1, 2, 2]))),
        ))
        return build_code_tree(gs, [1, 0, 1, 1, 0, 1, 1])

    @staticmethod
    def split_level(tree, k, limit):
        """The first level at which no state has more than ``limit`` level-k descendants."""
        counts = tree._suffix_counts(k)
        return next(lev for lev in range(k + 1) if np.max(counts[lev]) <= limit)

    @pytest.mark.parametrize("d", [1, 2, 3])
    def test_blocks_at_several_keys_match_one_block(self, rng, monkeypatch, d):
        tree = self.two_vertex_tree(rng, d)
        k = tree.depth
        mats, log_det, points = expand_words(tree, k)
        spectra = one_block_spectra(entry_major(mats), log_det, k)
        monkeypatch.setattr(code_tree, "_BLOCK_LIMIT", 20)
        split = self.split_level(tree, k, 20)
        states = level_states(tree, 0, tree.root_state, split)
        # one expansion of the prefixes, then one suffix table per state met
        keys = [(0, tree.root_state)] + [(split, st) for st in dict.fromkeys(states.tolist())]
        assert len(keys) >= 3
        expanded = []
        expand = code_tree._expand_block
        monkeypatch.setattr(code_tree, "_expand_block",
                            lambda tree, lev, st, *rest, **kw: expanded.append((lev, st))
                            or expand(tree, lev, st, *rest, **kw))

        np.testing.assert_allclose(word_spectra(tree, k), spectra.T, rtol=1e-13, atol=0)
        assert expanded == keys
        per_sum = 0 if d == 1 else 1  # d = 1 partition sums take the transfer product, no block
        grid = [0.4, 1.0, 2.2]
        sums = partition_sums(tree, k, grid)
        np.testing.assert_allclose(sums, code_tree._log_sums(spectra, grid), rtol=1e-13, atol=0)
        assert expanded == (1 + per_sum) * keys
        got_points, got_weights = enumerate_points(tree, k, s=0.7)
        log_w = _log_phi(spectra, 0.7)
        weights = np.exp(log_w - np.max(log_w))
        np.testing.assert_allclose(got_points, points, rtol=1e-13, atol=0)
        np.testing.assert_allclose(got_weights, weights / np.sum(weights), rtol=1e-13, atol=0)
        assert expanded == (2 + per_sum) * keys
        assert np.array_equal(partition_sums(tree, k, grid), sums)
        assert expanded == (2 + 2 * per_sum) * keys

    @pytest.mark.parametrize("d", [1, 2])
    def test_each_reachable_table_is_joined_once_per_sweep(self, rng, monkeypatch, d):
        # tables are built from the leaves up: every (level, state) reachable
        # from the sweep's node is joined once, deepest level first, and the
        # words come out in word order with their level-k states
        tree = self.two_vertex_tree(rng, d)
        k = tree.depth
        joined = []
        join = code_tree._join
        monkeypatch.setattr(code_tree, "_join", lambda tbl, state, below:
                            joined.append((tbl, state)) or join(tbl, state, below))
        for level0, state0 in ((0, tree.root_state), (2, 0), (2, 1), (k - 1, 1)):
            paths = letter_paths(tree, level0, state0, k)
            joined.clear()
            states, (mats, log_det, points) = code_tree._expand_block(
                tree, level0, state0, k, mats=True, log_det=True, points=True, states=True)
            reach = [sorted({letters[lev - level0][1] for letters, _ in paths})
                     for lev in range(k - 1, level0 - 1, -1)]
            expected = [(tree.levels[lev], s)
                        for lev, states_at in zip(range(k - 1, level0 - 1, -1), reach) for s in states_at]
            assert len(joined) == len(expected) and all(
                got[0] is want[0] and got[1] == want[1] for got, want in zip(joined, expected))
            assert states.tolist() == [end for _, end in paths]
            words = [fold_right(tree, letters) for letters, _ in paths]
            assert mats.tobytes() == entry_major(np.array([w[0] for w in words])).tobytes()
            assert log_det.tobytes() == np.array([w[1] for w in words]).tobytes()
            np.testing.assert_allclose(points, np.array([w[2] for w in words]).T, rtol=1e-13, atol=0)

    @pytest.mark.parametrize("d", [1, 2, 3])
    def test_underflow_only_the_product_shows_is_refused(self, monkeypatch, d):
        # every block hangs at level 3: prefix 000 (1e-300 I) and suffix 0
        # (1e-100 I) are representable, but their product, word 0000, is not.
        # d = 1 takes log|t| from the summed log|det| where the product
        # underflows, and d = 3 forms no product: its spectra come from the
        # prefix and the suffix table's Grams, each scaled by powers of two
        monkeypatch.setattr(code_tree, "_BLOCK_LIMIT", 2)
        fam = IfsFamily("tiny", (AffineMap(1e-100 * np.eye(d), 0), AffineMap(0.5 * np.eye(d), 1)))
        tree = deterministic_tree(fam, 4)
        assert self.split_level(tree, 4, 2) == 3
        _, (prefixes, _, _) = code_tree._expand_block(tree, 0, tree.root_state, 3, mats=True)
        assert np.all(np.diag(prefixes[:, :, 0]) > 0.0)
        expanded = []
        expand = code_tree._expand_block
        monkeypatch.setattr(code_tree, "_expand_block",
                            lambda tree, lev, st, k, **kw: expanded.append((lev, st, k, kw["mats"]))
                            or expand(tree, lev, st, k, **kw))
        if d == 1:
            # S(4, 1) sums |t| over the words: (1e-100 + 0.5)^4, and word 0000 is 1e-400
            assert partition_sums(tree, 4, [1.0])[0] == pytest.approx(4 * math.log(0.5), rel=1e-15)
            assert expanded == []  # the transfer product enumerates no word
            log_sigma = word_spectra(tree, 4)
            assert expanded == [(0, 0, 3, True), (3, 0, 4, True)]
            assert log_sigma[0, 0] == pytest.approx(-400 * math.log(10.0), rel=1e-15)
            assert np.all(np.isfinite(log_sigma))
            return
        if d == 3:
            assert partition_sums(tree, 4, [1.0])[0] == pytest.approx(4 * math.log(0.5), rel=1e-15)
            assert expanded == [(0, 0, 3, True), (3, 0, 4, True)]
            log_sigma = word_spectra(tree, 4)
            np.testing.assert_allclose(log_sigma[0], -400 * math.log(10.0), rtol=1e-15, atol=0)
            assert np.all(np.isfinite(log_sigma))
            return
        with pytest.raises(ValueError, match="level-4 word underflowed"):
            partition_sums(tree, 4, [1.0])
        assert expanded == [(0, 0, 3, True), (3, 0, 4, True)]
        with pytest.raises(ValueError, match="level-4 word underflowed"):
            word_spectra(tree, 4)

    def test_underflow_in_a_d3_prefix_is_refused(self, monkeypatch):
        # every block hangs at level 2, and prefix 00 (1e-340 I) underflows to
        # the zero matrix, whose Gram congruence loses every block word
        monkeypatch.setattr(code_tree, "_BLOCK_LIMIT", 2)
        fam = IfsFamily("mixed", (AffineMap(1e-170 * np.eye(3), 0), AffineMap(0.5 * np.eye(3), 1)))
        tree = deterministic_tree(fam, 3)
        assert self.split_level(tree, 3, 2) == 2
        with pytest.raises(ValueError, match="level-3 word underflowed"):
            partition_sums(tree, 3, [1.0])

    @pytest.mark.parametrize("limit", range(1, 41))
    def test_split_blocks_are_bounded_and_in_word_order(self, rng, monkeypatch, limit):
        # the states' subtrees differ in size, so the split level is the first
        # at which the largest of them fits
        tree = self.two_vertex_tree(rng, 2)
        k = tree.depth
        mats, log_det, points = expand_words(tree, k)
        monkeypatch.setattr(code_tree, "_BLOCK_LIMIT", limit)
        # the stand-in hands each block's composed words to the reduction; their
        # linear parts (d, d, n) and points (d, n) are entry-major, so blocks
        # join on the last axis
        monkeypatch.setattr(code_tree, "_log_spectra", lambda m, ld, k: (m, ld))
        blocks = code_tree._map_words(tree, k, lambda words, pts: (*words, pts), want_points=True)
        assert len(blocks) == tree.word_count(self.split_level(tree, k, limit))
        assert all(1 <= len(ld) <= limit for _, ld, _ in blocks)
        got_mats, got_log_det, got_points = zip(*blocks)
        for got, want in ((np.concatenate(got_mats, axis=-1), entry_major(mats)),
                          (np.concatenate(got_log_det), log_det),
                          (np.concatenate(got_points, axis=-1), points.T)):
            np.testing.assert_allclose(got, want, rtol=1e-13, atol=0)


def enumerated_sums(tree, k, s_values):
    """log S(k, s) and the slope row the enumeration gives: ``_log_sums`` of
    every block's words, folded in word order."""
    return code_tree._fold(code_tree._map_words(
        tree, k, lambda log_sigma, _: code_tree._log_sums(log_sigma, s_values, slopes=True)))


def refuse_enumeration(*args, **kwargs):
    raise AssertionError("a d = 1 partition sum enumerated words")


def unreachable_state_graph() -> GraphSystem:
    """Three vertices; only vertex 3 itself sends an edge to vertex 3, so a
    walk from the root never reaches it."""
    maps = [AffineMap([[t]], c) for c, t in enumerate((0.4, -0.3, 0.25, 0.2, 0.45, 0.35))]
    return GraphSystem(3, 1, (
        GraphLabel("n", 0.4, (GraphEdge(1, 1, maps[0]), GraphEdge(1, 1, maps[1]),
                              GraphEdge(2, 1, maps[2]), GraphEdge(3, 1, maps[3]))),
        GraphLabel("s", 0.6, (GraphEdge(1, 2, maps[0]), GraphEdge(1, 2, maps[4]),
                              GraphEdge(2, 1, maps[5]), GraphEdge(2, 2, maps[1]),
                              GraphEdge(3, 3, maps[4]), GraphEdge(3, 1, maps[2]))),
    ))


class TestTransferSums:
    GRID = [0.0, 0.3, 0.7, 1.0, 1.6, 3.0]

    def assert_matches_enumeration(self, monkeypatch, tree, levels):
        want = {k: enumerated_sums(tree, k, self.GRID) for k in levels}
        monkeypatch.setattr(code_tree, "_map_words", refuse_enumeration)
        monkeypatch.setattr(code_tree, "_expand_block", refuse_enumeration)
        for k in levels:
            got = partition_sums(tree, k, self.GRID, slopes=True)
            # where log S nears 0 its error is measured absolutely: 1e-15 in
            # log S is 1e-15 relative in S
            np.testing.assert_allclose(got, want[k], rtol=1e-13, atol=1e-15)
            assert np.array_equal(partition_sums(tree, k, self.GRID), got[0])

    def test_two_vertex_tree_matches_the_enumeration(self, rng, monkeypatch):
        tree = TestSharedSuffixes.two_vertex_tree(rng, 1)
        self.assert_matches_enumeration(monkeypatch, tree, range(1, tree.depth + 1))

    @pytest.mark.parametrize("seed", range(4))
    def test_example_graph_matches_the_enumeration(self, monkeypatch, seed):
        gs = parse_system(str(EXAMPLES / "graph_system.json")).graph
        tree = build_code_tree(gs, sample_graph_sequence(gs, seed, 10))
        self.assert_matches_enumeration(monkeypatch, tree, (1, 4, 10))

    def test_unreachable_state_matches_the_enumeration(self, monkeypatch):
        gs = unreachable_state_graph()
        tree = build_code_tree(gs, [1, 1, 0, 1, 1, 1, 0, 1])
        assert all(2 not in level_states(tree, 0, tree.root_state, k).tolist()
                   for k in range(1, tree.depth + 1))
        self.assert_matches_enumeration(monkeypatch, tree, range(1, tree.depth + 1))

    def test_deterministic_tree_far_above_the_cap(self, monkeypatch):
        # 3^40 words; S(40, s) = (sum_i |t_i|^s)^40, below the smallest double at s = 20
        t = np.array([0.2, -0.35, 0.1])
        fam = IfsFamily("line", tuple(AffineMap([[x]], c) for c, x in enumerate(t)))
        tree = deterministic_tree(fam, 40)
        assert tree.word_count(40) > code_tree.ENUMERATION_CAP
        monkeypatch.setattr(code_tree, "_map_words", refuse_enumeration)
        monkeypatch.setattr(code_tree, "_expand_block", refuse_enumeration)
        grid = [0.0, 0.5, 1.0, 2.5, 20.0]
        got = partition_sums(tree, 40, grid, slopes=True)
        one = np.array([np.sum(np.abs(t) ** s) for s in grid])
        rate = np.array([np.sum(np.abs(t) ** s * -np.log(np.abs(t))) for s in grid])
        np.testing.assert_allclose(got[0], 40 * np.log(one), rtol=1e-13, atol=0)
        np.testing.assert_allclose(got[1], 39 * np.log(one) + np.log(40 * rate), rtol=1e-13, atol=0)
        assert math.exp(got[0, -1]) == 0.0

    def test_overflowing_exponent_is_refused_quietly(self):
        tree = deterministic_tree(thirds_family(), 3)
        with pytest.raises(ValueError, match=r"^log phi_s at s = 1e\+308 overflows the double range$"):
            partition_sums(tree, 3, [1.0, 1e308, math.inf], slopes=True)


def per_word_blocks(tree, k, fold):
    """Every block's words composed one word at a time: the block's prefix
    word, to the split level, and each suffix word below it are folded by
    ``fold`` from the letters, and the block's word is their product, ``*``
    for d = 1 and one (d, d) ``@`` otherwise.  One (linear parts, log|det|,
    prefix, suffixes) tuple per block: the words' linear parts entry-major
    (d, d, n), their log|det| (n,) (None unless ``fold`` gives one), the
    prefix word's linear part (d, d) and the suffix words' entry-major."""
    split = TestSharedSuffixes.split_level(tree, k, code_tree._BLOCK_LIMIT)
    blocks = []
    for head, state in letter_paths(tree, 0, tree.root_state, split):
        mats, log_det, tails = [], [], []
        head = fold(tree, head)
        for tail, _ in letter_paths(tree, split, state, k):
            tail = fold(tree, tail)
            tails.append(tail[0])
            mats.append(head[0] * tail[0] if tree.d == 1 else head[0] @ tail[0])
            if head[1] is not None:
                log_det.append(head[1] + tail[1])
        blocks.append((entry_major(np.array(mats)), np.array(log_det) if log_det else None,
                       head[0], entry_major(np.array(tails))))
    return blocks


def unbuffered_gram(x):
    """``code_tree._gram`` with one temporary per operation, kept as a bit
    reference: the Gram entries (0, 0), (1, 1), (2, 2), (0, 1), (0, 2), (1, 2)
    of the row-major 3×3 columns of ``x``."""
    x0, x1, x2, x3, x4, x5, x6, x7, x8 = x
    return np.stack([
        x0 * x0 + x1 * x1 + x2 * x2,
        x3 * x3 + x4 * x4 + x5 * x5,
        x6 * x6 + x7 * x7 + x8 * x8,
        x0 * x3 + x1 * x4 + x2 * x5,
        x0 * x6 + x1 * x7 + x2 * x8,
        x3 * x6 + x4 * x7 + x5 * x8,
    ])


def unbuffered_top_eigenvalue(g):
    """``code_tree._top_eigenvalue`` as it was before it wrote into buffers,
    one temporary per operation, kept as a bit reference."""
    g00, g11, g22, g01, g02, g12 = g
    q = (g00 + g11 + g22) / 3.0
    g00, g11, g22 = g00 - q, g11 - q, g22 - q
    p = np.sqrt((g00 * g00 + g11 * g11 + g22 * g22
                 + 2.0 * (g01 * g01 + g02 * g02 + g12 * g12)) / 6.0)
    det = (g00 * (g11 * g22 - g12 * g12) - g01 * (g01 * g22 - g12 * g02)
           + g02 * (g01 * g12 - g11 * g02))
    r = np.divide(det, 2.0 * p * p * p, out=np.ones_like(p), where=p > 2.0**-46 * q)
    np.clip(r, -1.0, 1.0, out=r)
    return q + 2.0 * p * np.cos(np.arccos(r) / 3.0), 1.0 + r


def unbuffered_cofactors(x):
    """``code_tree._cofactors`` as it was before it wrote into a buffer, kept
    as a bit reference."""
    x0, x1, x2, x3, x4, x5, x6, x7, x8 = x
    return np.stack([
        x4 * x8 - x5 * x7, x5 * x6 - x3 * x8, x3 * x7 - x4 * x6,
        x7 * x2 - x8 * x1, x8 * x0 - x6 * x2, x6 * x1 - x7 * x0,
        x1 * x5 - x2 * x4, x2 * x3 - x0 * x5, x0 * x4 - x1 * x3,
    ])


GRAM_PAIRS = ((0, 0), (1, 1), (2, 2), (0, 1), (0, 2), (1, 2))


def congruence_matrix(m):
    """The 6×6 matrix of G -> M G Mᵀ on the Gram rows, entry by entry."""
    return np.array([[m[i, a] * m[j, a] if a == b else m[i, a] * m[j, b] + m[i, b] * m[j, a]
                      for a, b in GRAM_PAIRS] for i, j in GRAM_PAIRS])


def symmetric(g):
    """The symmetric (n, 3, 3) matrices of Gram rows (6, n)."""
    out = np.empty((g.shape[1], 3, 3))
    for row, (i, j) in zip(g, GRAM_PAIRS):
        out[:, i, j] = out[:, j, i] = row
    return out


def unbuffered_congruent_spectra(head, mats, log_det):
    """``code_tree._congruent_spectra`` of a prefix word ``head`` (3, 3) and a
    suffix table's entry-major linear parts ``mats`` (3, 3, n), as one chunk
    with one temporary per operation and the table's Grams taken beside it,
    kept as a bit reference."""
    x = mats.reshape(9, -1).copy()
    e = code_tree._scaled(x)
    c = unbuffered_cofactors(x)
    f = 2 * e + code_tree._scaled(c)
    m = head.reshape(9, 1).copy()
    a = code_tree._scaled(m)[0]
    m_c = unbuffered_cofactors(m)
    b = 2 * a + code_tree._scaled(m_c)[0]
    g = congruence_matrix(m.reshape(3, 3)) @ unbuffered_gram(x)
    h = congruence_matrix(m_c.reshape(3, 3)) @ unbuffered_gram(c)
    (top1, gap1), (top12, gap12) = unbuffered_top_eigenvalue(g), unbuffered_top_eigenvalue(h)
    near = np.flatnonzero((gap1 < code_tree._CLOSED_FORM_GAP) | (gap12 < code_tree._CLOSED_FORM_GAP))
    top1[near] = np.linalg.eigvalsh(symmetric(g[:, near]))[:, -1]
    top12[near] = np.linalg.eigvalsh(symmetric(h[:, near]))[:, -1]
    ln2 = math.log(2.0)
    log_sigma = np.empty((3, x.shape[1]))
    log_sigma[0] = 0.5 * np.log(top1) + (a + e) * ln2
    log_sigma[1] = 0.5 * np.log(top12) + (b + f) * ln2
    log_sigma[2] = log_det - log_sigma[1]
    log_sigma[1] -= log_sigma[0]
    return log_sigma


def per_word_gram_spectra(words):
    """log sigma_1 and log sigma_1 sigma_2, (2, n), of word-major 3×3 products
    (n, 3, 3), each from the largest eigenvalue (``np.linalg.eigvalsh``) of the
    product's own Gram matrix and of its cofactor matrix's."""
    rows = words[:, 0], words[:, 1], words[:, 2]
    cof = np.stack([np.cross(rows[1], rows[2]), np.cross(rows[2], rows[0]),
                    np.cross(rows[0], rows[1])], axis=1)
    return np.stack([0.5 * np.log(np.linalg.eigvalsh(x @ np.swapaxes(x, 1, 2))[:, -1])
                     for x in (words, cof)])


def one_block_spectra(mats, log_det, k):
    """The log spectra of entry-major products (d, d, n) as ``_map_words`` takes
    them for one block whose prefix is the empty word: for d = 3 from their
    Grams (``_congruent_spectra`` of the identity), else ``_log_spectra``."""
    if mats.shape[0] != 3:
        return code_tree._log_spectra(mats, log_det, k)
    return code_tree._congruent_spectra(np.eye(3), code_tree._gram_table(mats), log_det, k)


def special_columns(rng, n):
    """``n`` 3×3 matrices as (9, n) row-major columns: generic ones over a wide
    range of scales, scaled rotations (a scalar Gram matrix, r = 1),
    Q diag(a, a, b) Qᵀ (a repeated top Gram eigenvalue, r near -1) and, right
    after each, Q diag(a, b, b) Qᵀ, where sigma_2 = sigma_3, so only the
    cofactor Gram's top eigenvalue repeats."""
    x = rng.standard_normal((9, n)) * 2.0 ** rng.integers(-30, 30, size=n)
    for j in range(0, n, 3):
        q, _ = np.linalg.qr(rng.standard_normal((3, 3)))
        a, b = sorted(rng.uniform(0.1, 1.0, size=2), reverse=True)
        x[:, j] = (0.4 * q if j % 2 else q @ np.diag([a, a, b]) @ q.T).reshape(9)
        if j % 2 == 0 and j + 1 < n:
            x[:, j + 1] = (q @ np.diag([a, b, b]) @ q.T).reshape(9)
    return x


class TestEntryMajorBlocks:
    """Blocks formed as one (d, d) @ (d, d·n) product from entry-major suffix
    tables, which are built from the leaves up one product per letter, keep
    every bit of the per-word right-associated products.  A d = 3 block forms
    no products: its spectra, from its prefix word and its suffix table's
    Grams, keep every bit of the one-chunk unbuffered kernel on the per-word
    parts, and the buffered d = 3 kernels every bit of their unbuffered
    bodies."""

    @staticmethod
    def assert_blocks_keep_every_bit(monkeypatch, tree, k, count):
        want = per_word_blocks(tree, k, fold_right)
        if tree.d == 3:
            # the stand-in hands the block kernel's inputs to the reduction beside its result
            spectra = code_tree._congruent_spectra
            monkeypatch.setattr(code_tree, "_congruent_spectra", lambda m, table, log_det, k:
                                (m, table, log_det, spectra(m, table, log_det, k)))
            got = code_tree._map_words(tree, k, lambda words, _: words)
            assert len(got) == len(want) == count
            for (head, table, log_det, log_sigma), (products, want_log_det, want_head, tails) in zip(got, want):
                assert head.tobytes() == want_head.tobytes()
                assert log_det.tobytes() == want_log_det.tobytes()
                for part, want_part in zip(table, code_tree._gram_table(tails.copy())):
                    assert part.tobytes() == want_part.tobytes()
                want_sigma = unbuffered_congruent_spectra(want_head, tails, want_log_det)
                assert log_sigma.tobytes() == want_sigma.tobytes()
                np.testing.assert_allclose(np.cumsum(log_sigma[:2], axis=0),
                                           per_word_gram_spectra(np.moveaxis(products, -1, 0)),
                                           rtol=0, atol=1e-13)
            return
        # the stand-in hands each block's composed linear parts and log|det| to the reduction
        monkeypatch.setattr(code_tree, "_log_spectra", lambda mats, log_det, k: (mats, log_det))
        got = code_tree._map_words(tree, k, lambda words, _: words)
        assert len(got) == len(want) == count
        for (mats, log_det), (want_mats, want_log_det, _, _) in zip(got, want):
            assert mats.shape == want_mats.shape and mats.flags.c_contiguous
            assert mats.tobytes() == want_mats.tobytes()
            assert log_det.tobytes() == want_log_det.tobytes()

    @pytest.mark.parametrize("d", [1, 2, 3, 4])
    def test_deterministic_blocks_keep_every_bit(self, monkeypatch, d):
        rng = np.random.default_rng(300 + d)
        if d == 1:
            mats = [np.array([[x]]) for x in (0.3, -0.45, 0.2)]
        else:
            mats = [random_contraction(rng, d, 0.2, 0.6) for _ in range(3)]
        tree = deterministic_tree(IfsFamily("bits", tuple(AffineMap(T, c) for c, T in enumerate(mats))), 7)
        monkeypatch.setattr(code_tree, "_BLOCK_LIMIT", 3**4)
        monkeypatch.setattr(code_tree, "_SPECTRUM_CHUNK", 7)  # d = 3 spectra in chunks of odd width
        self.assert_blocks_keep_every_bit(monkeypatch, tree, 7, 3**3)

    @pytest.mark.parametrize("d", [1, 2, 3, 4])
    def test_graph_tree_blocks_keep_every_bit(self, rng, monkeypatch, d):
        # blocks at several states, whose suffix tables differ in size
        tree = TestSharedSuffixes.two_vertex_tree(rng, d)
        monkeypatch.setattr(code_tree, "_BLOCK_LIMIT", 20)
        split = TestSharedSuffixes.split_level(tree, tree.depth, 20)
        self.assert_blocks_keep_every_bit(monkeypatch, tree, tree.depth, tree.word_count(split))

    @pytest.mark.parametrize("d", [2, 3])
    def test_blocks_match_the_left_associated_products(self, rng, monkeypatch, d):
        # the top-down walk composed every word from the left; on positive
        # entries the two orders agree to rounding, and so do a d = 3 block's
        # spectra and those of the left-associated products' own Grams
        tree = TestSharedSuffixes.two_vertex_tree(rng, d)
        monkeypatch.setattr(code_tree, "_BLOCK_LIMIT", 20)
        want = per_word_blocks(tree, tree.depth, fold_left)
        if d == 3:
            got = code_tree._map_words(tree, tree.depth, lambda log_sigma, _: log_sigma)
            assert len(got) == len(want) > 2
            for log_sigma, (left, _, _, _) in zip(got, want):
                np.testing.assert_allclose(np.cumsum(log_sigma[:2], axis=0),
                                           per_word_gram_spectra(np.moveaxis(left, -1, 0)),
                                           rtol=0, atol=1e-13)
            return
        monkeypatch.setattr(code_tree, "_log_spectra", lambda mats, log_det, k: mats)
        got = code_tree._map_words(tree, tree.depth, lambda mats, _: mats)
        assert len(got) == len(want) > 2
        for mats, (left, _, _, _) in zip(got, want):
            np.testing.assert_allclose(mats, left, rtol=1e-13, atol=0)

    def test_uniform_points_form_no_block_linear_parts(self, rng, monkeypatch):
        # at s = 0 the blocks compose points alone; with spectra wanted a d = 3
        # block composes log|det| too, but still no linear parts, and the
        # points keep every bit either way
        tree = TestSharedSuffixes.two_vertex_tree(rng, 3)
        monkeypatch.setattr(code_tree, "_BLOCK_LIMIT", 20)
        blocks = []
        compose = code_tree._compose

        def spy(head, tail, out=(None, None, None)):
            words = compose(head, tail, out)
            if all(part is None for part in out):  # a block: one prefix word on a whole table
                blocks.append((words[0] is None, words[1] is None))
            return words

        monkeypatch.setattr(code_tree, "_compose", spy)
        uniform, weights = enumerate_points(tree, tree.depth, 0.0)
        count = len(blocks)
        assert count > 2 and blocks == [(True, True)] * count
        weighted, _ = enumerate_points(tree, tree.depth, 0.7)
        assert blocks[count:] == [(True, False)] * count
        assert uniform.tobytes() == weighted.tobytes()
        assert weights.tobytes() == np.full(len(weights), 1 / len(weights)).tobytes()

    @pytest.mark.parametrize("n", [1, 7, 8192])
    def test_buffered_kernels_keep_every_bit(self, n):
        x = special_columns(np.random.default_rng(n), n)
        code_tree._scaled(x[:, n // 2:])  # half the columns as _gram_table scales them
        # slices of wider arrays, as _gram_table reads and writes its chunks
        wide, wide_gram = np.full((9, n + 5), np.nan), np.full((6, n + 5), np.nan)
        wide[:, 2:-3] = x
        view, gram = wide[:, 2:-3], wide_gram[:, 2:-3]
        work, top, gap, c, tmp = (np.full(shape, np.nan) for shape in ((7, n), n, n, (9, n), n))
        want_gram = unbuffered_gram(x)
        want_top, want_gap = unbuffered_top_eigenvalue(want_gram)
        for _ in range(2):  # the second call finds the first's values in the buffers
            assert code_tree._gram(view, gram, tmp) is gram
            assert gram.tobytes() == want_gram.tobytes()
            code_tree._top_eigenvalue(gram, top, gap, work)
            assert top.tobytes() == want_top.tobytes()
            assert gap.tobytes() == want_gap.tobytes()
            assert gram.tobytes() == want_gram.tobytes()  # kept for the fallback
            assert code_tree._cofactors(view, c, tmp) is c
            assert c.tobytes() == unbuffered_cofactors(x).tobytes()
        assert view.tobytes() == x.tobytes()
        # against each column's own Gram, where the top pair is apart
        apart = want_gap >= code_tree._CLOSED_FORM_GAP
        own = np.linalg.eigvalsh(symmetric(want_gram))[:, -1]
        np.testing.assert_allclose(top[apart], own[apart], rtol=1e-13, atol=0)
        if n > 1:  # both special kinds of column are there
            assert np.any(want_gap < code_tree._CLOSED_FORM_GAP) and np.any(want_gap == 2.0)

    @pytest.mark.parametrize("chunk", [7, 1 << 13])
    def test_entry_major_d3_spectra_keep_every_bit(self, chunk, monkeypatch):
        # one block: a prefix word on a 300-word suffix table of special columns.
        # A similarity prefix keeps their repeated top eigenvalues, which take
        # the fallback in both Grams, whether G's or only H's top pair meets;
        # a generic one mixes them
        monkeypatch.setattr(code_tree, "_SPECTRUM_CHUNK", chunk)
        rng = np.random.default_rng(chunk)
        mats = special_columns(rng, 300).T.reshape(-1, 3, 3)
        eigvalsh, calls = np.linalg.eigvalsh, []
        monkeypatch.setattr(np.linalg, "eigvalsh", lambda a: calls.append(len(a)) or eigvalsh(a))
        similarity = 0.5 * np.linalg.qr(rng.standard_normal((3, 3)))[0]
        for head, similar in ((similarity, True), (random_contraction(rng, 3, 0.2, 0.6), False)):
            words = head @ mats
            log_det = np.log(np.abs(np.linalg.det(words)))
            want = unbuffered_congruent_spectra(head, entry_major(mats), log_det)
            calls.clear()
            got = code_tree._congruent_spectra(head, code_tree._gram_table(entry_major(mats)), log_det, 5)
            assert got.shape == (3, 300) and got.tobytes() == want.tobytes()
            np.testing.assert_allclose(np.cumsum(got[:2], axis=0), per_word_gram_spectra(words),
                                       rtol=0, atol=1e-13)
            if similar:  # in every sixth column G's top pair meets, in the next only H's:
                assert sum(calls) >= 2 * 100  # both Grams of each go to eigvalsh


def row_major_log_phi(log_sigma, s):
    """log phi_s from spectra laid out one row per spectrum, (..., d): the
    kernel's body before the spectrum axis moved first, kept as a bit reference."""
    d = log_sigma.shape[-1]
    s = float(s)
    if s >= d:
        return (s / d) * np.sum(log_sigma, axis=-1)
    if s == math.floor(s):
        return np.sum(log_sigma[..., : int(s)], axis=-1)
    m = math.floor(s) + 1
    return np.sum(log_sigma[..., : m - 1], axis=-1) + (s - m + 1) * log_sigma[..., m - 1]


def per_s_log_sums(log_sigma, s_values, slopes=False):
    """``code_tree._log_sums`` as it was before its s-values shared partial sums
    and a buffer: a fresh log phi_s per s from ``row_major_log_phi``, then top +
    log sum exp(log phi_s - top), kept as a bit reference."""
    d = log_sigma.shape[0]
    row_major = np.ascontiguousarray(log_sigma.T)
    out = np.empty((2, len(s_values)) if slopes else len(s_values))
    for i, s in enumerate(s_values):
        log_phi = row_major_log_phi(row_major, s)
        top = np.max(log_phi)
        if not slopes:
            out[i] = top + np.log(np.sum(np.exp(log_phi - top)))
            continue
        weights = np.exp(log_phi - top)
        rows = log_sigma @ weights
        rate = -(np.sum(rows) / d if s >= d else rows[math.floor(s)])
        with np.errstate(divide="ignore"):
            out[:, i] = top + np.log([np.sum(weights), rate])
    return out


class TestSpectrumAxisFirst:
    """The spectrum-axis-first kernel reproduces the row-major one bit for bit.
    d = 9 takes the SVD path and sums 9 terms above s = 9, where numpy sums 8
    or more terms pairwise."""

    @staticmethod
    def grid(d):
        """0, a non-integer inside every piece, every integer up to d, and two s > d."""
        return [0.0, *(m - 0.3 for m in range(1, d + 1)), *range(1, d + 1), d + 0.25, d + 3.5]

    @staticmethod
    def tree(d):
        rng = np.random.default_rng(100 + d)
        if d == 1:
            mats = [np.array([[x]]) for x in (0.3, -0.45, 0.2)]
        else:
            mats = [random_contraction(rng, d, 0.2, 0.6) for _ in range(3)]
        fam = IfsFamily("bits", tuple(AffineMap(T, c) for c, T in enumerate(mats)))
        return deterministic_tree(fam, 5)

    @pytest.mark.parametrize("d", [1, 2, 3, 4, 9])
    def test_word_sums_keep_every_bit(self, monkeypatch, d):
        # several blocks, and d = 3 spectra in several chunks of odd length
        monkeypatch.setattr(code_tree, "_BLOCK_LIMIT", 3**3)
        monkeypatch.setattr(code_tree, "_SPECTRUM_CHUNK", 7)
        tree, grid = self.tree(d), self.grid(d)
        for log_sigma in code_tree._map_words(tree, 5, lambda log_sigma, _: log_sigma):
            row_major = np.ascontiguousarray(log_sigma.T)
            for s in grid:
                assert np.array_equal(_log_phi(log_sigma, s), row_major_log_phi(row_major, s)), s
        sums = partition_sums(tree, 5, grid)
        _, weights = enumerate_points(tree, 5, s=1.3)
        # the stand-in ignores the shared partial sums, so the word sums then
        # take every log phi_s fresh from the row-major body
        monkeypatch.setattr(code_tree, "_log_phi", lambda log_sigma, s, sums=None:
                            row_major_log_phi(np.ascontiguousarray(log_sigma.T), s))
        assert np.array_equal(partition_sums(tree, 5, grid), sums)
        assert np.array_equal(enumerate_points(tree, 5, s=1.3)[1], weights)

    @pytest.mark.parametrize("slopes", [False, True])
    @pytest.mark.parametrize("d", [1, 2, 3, 4, 9])
    def test_shared_partial_sums_keep_every_bit(self, monkeypatch, d, slopes):
        monkeypatch.setattr(code_tree, "_BLOCK_LIMIT", 3**3)
        monkeypatch.setattr(code_tree, "_SPECTRUM_CHUNK", 7)
        grid = self.grid(d)
        blocks = code_tree._map_words(self.tree(d), 5, lambda log_sigma, _: log_sigma)
        assert len(blocks) == 9
        for log_sigma in blocks:
            assert log_sigma.flags.c_contiguous == (d <= 3)  # d >= 4 hands out the SVD's transpose
            got = code_tree._log_sums(log_sigma, grid, slopes)
            assert np.array_equal(got, per_s_log_sums(log_sigma, grid, slopes))

    @pytest.mark.parametrize("slopes", [False, True])
    @pytest.mark.parametrize("s, match", [(-0.5, "nonnegative, got -0.5"), (math.nan, "nonnegative, got nan"),
                                          (1e308, r"at s = 1e\+308 overflows")])
    def test_word_sums_refuse(self, s, match, slopes):
        log_sigma = np.log([[1e-2, 1e-3], [1e-3, 1e-4]])  # (1e308 / 2) log(1e-5) is below -DBL_MAX
        with pytest.raises(ValueError, match=match):
            code_tree._log_sums(log_sigma, [0.5, s], slopes)

    @pytest.mark.parametrize("d", [1, 2, 3, 4, 9])
    @pytest.mark.parametrize("shape", [(), (40,), (5, 6)])
    def test_phi_from_singular_values_keeps_every_bit(self, d, shape):
        rng = np.random.default_rng(200 + d)
        sigma = np.sort(rng.uniform(0.05, 0.95, size=(*shape, d)), axis=-1)[..., ::-1]
        for s in self.grid(d):
            got = phi_from_singular_values(sigma, s)
            assert got.shape == shape
            assert np.array_equal(got, np.exp(row_major_log_phi(np.log(sigma), s))), s


def rotation(theta):
    c, s = math.cos(theta), math.sin(theta)
    return np.array([[c, -s], [s, c]])


class TestGeometricRecurrence:
    """``_log_sums`` steps along each run of s in one piece by multiplying the
    words' weights by exp(delta * B); evaluating every s afresh
    (``per_s_log_sums``) is the reference."""

    @staticmethod
    def blocks(tree, k):
        return code_tree._map_words(tree, k, lambda log_sigma, _: log_sigma)

    @staticmethod
    def anchors(monkeypatch):
        """The s-values ``_log_sums`` evaluates afresh, in order."""
        seen = []
        log_phi = code_tree._log_phi
        monkeypatch.setattr(code_tree, "_log_phi", lambda log_sigma, s, *rest, **kw:
                            seen.append(s) or log_phi(log_sigma, s, *rest, **kw))
        return seen

    @staticmethod
    def runs(grid, d):
        return len(list(itertools.groupby(grid, functools.partial(_piece, d))))

    @pytest.mark.parametrize("slopes", [False, True])
    @pytest.mark.parametrize("grid", [np.linspace(0.0, 64.0, 65), np.arange(0.0, 64.5, 0.5)],
                             ids=["s-max-64", "halves"])
    def test_reanchored_runs_match_per_s_sums(self, monkeypatch, grid, slopes):
        # above s = 2, phi_s of a level-4 word of 0.001 rotations falls by e^-27.6
        # per unit of s, so the weights' sum falls below 2^-900 within a run; the
        # grids are evenly spaced to the bit, which a run must be within
        # 2^-46 / 27.6 to step
        fam = IfsFamily("small", tuple(AffineMap(0.001 * rotation(t), c) for c, t in enumerate((0.3, 1.1, 2.0))))
        tree = deterministic_tree(fam, 4)
        grid = [float(s) for s in grid]
        anchors = self.anchors(monkeypatch)
        for log_sigma in self.blocks(tree, 4):
            anchors.clear()
            got = code_tree._log_sums(log_sigma, grid, slopes)
            assert self.runs(grid, 2) < len(anchors) < len(grid)  # re-anchored, and still stepped
            np.testing.assert_allclose(got, per_s_log_sums(log_sigma, grid, slopes), rtol=0, atol=1e-12)

    @pytest.mark.parametrize("slopes", [False, True])
    def test_linspace_grid_within_the_rounding_of_s_steps(self, monkeypatch, slopes):
        # np.linspace(0, 64, 21) strays from an even progression by about 1.8e-15,
        # above 2^-46 / max|B| with max|B| = 13.8 on these words, but within the
        # rounding eps * 64 of its largest s, so its run above s = 2 steps; it
        # then stays within the documented bound of evaluating every s afresh
        fam = IfsFamily("small", tuple(AffineMap(0.001 * rotation(t), c) for c, t in enumerate((0.3, 1.1, 2.0))))
        tree = deterministic_tree(fam, 4)
        grid = [float(s) for s in np.linspace(0.0, 64.0, 21)]
        eps = np.finfo(float).eps
        anchors = self.anchors(monkeypatch)
        for log_sigma in self.blocks(tree, 4):
            steep = float(np.max(np.abs(np.sum(log_sigma, axis=0)))) / 2  # max|B| for s >= d = 2
            delta = (grid[-1] - grid[1]) / (len(grid) - 2)
            assert max(abs(s - (grid[1] + j * delta)) for j, s in enumerate(grid[1:])) * steep > 2.0**-46
            anchors.clear()
            got = code_tree._log_sums(log_sigma, grid, slopes)
            assert self.runs(grid, 2) < len(anchors) < len(grid)  # it steps, re-anchoring below 2^-900
            bound = 2 * max(2.0**-46, eps * grid[-1] * steep) + 4 * eps * grid[-1] * steep
            np.testing.assert_allclose(got, per_s_log_sums(log_sigma, grid, slopes), rtol=0, atol=bound)

    @pytest.mark.parametrize("slopes", [False, True])
    def test_pressure_grid_steps_every_later_s(self, monkeypatch, slopes):
        # ``affdim pressure``'s grid: np.linspace spacing is even within the budget,
        # so each piece's first s is its only anchor
        grid = [float(s) for s in np.linspace(0.0, 3.0, 64)]
        anchors = self.anchors(monkeypatch)
        for log_sigma in self.blocks(TestSpectrumAxisFirst.tree(3), 5):
            anchors.clear()
            got = code_tree._log_sums(log_sigma, grid, slopes)
            assert len(anchors) == self.runs(grid, 3)
            np.testing.assert_allclose(got, per_s_log_sums(log_sigma, grid, slopes), rtol=0, atol=1e-13)

    @pytest.mark.parametrize("slopes", [False, True])
    @pytest.mark.parametrize("d, grid", [
        (1, [1.0, 1.25, 4.5]),
        (2, [0.1, 0.15, 0.4, 0.95, 1.0, 2.5, 2.6, 3.1, 5.0, 5.05, 9.0]),
        (3, [1.2, 1.3, 1.9, 2.05, 2.5, 2.55, 3.0, 3.5, 7.25]),
        (2, [5.0, 4.0, 3.0, 2.0]),
        (2, [0.0, 0.0, 0.0, 2.5, 2.5]),
        (2, [0.9, 0.9, 0.4]),
    ], ids=["uneven-d1", "uneven-d2", "uneven-d3", "falling", "repeated", "repeated-then-falling"])
    def test_uneven_falling_and_repeated_runs_keep_every_bit(self, d, grid, slopes):
        # an uneven run is anchored at every s (one rate for the whole run would put
        # its later s at the wrong place), and so is a falling one, whose rate would
        # grow every weight; a repeated s takes the rate exp(0) = 1, which leaves
        # the weights as they are
        for log_sigma in self.blocks(TestSpectrumAxisFirst.tree(d), 5):
            assert np.array_equal(code_tree._log_sums(log_sigma, grid, slopes),
                                  per_s_log_sums(log_sigma, grid, slopes))

    @pytest.mark.parametrize("slopes", [False, True])
    def test_vast_step_is_refused_quietly(self, slopes):
        # the rate of the step 2.5 -> 1e308 overflows to 0, and the anchor it forces refuses s
        log_sigma = np.log([[1e-2, 1e-3], [1e-3, 1e-4]])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match=r"log phi_s at s = 1e\+308 overflows the double range"):
                code_tree._log_sums(log_sigma, [2.5, 1e308], slopes)


# ---------------------------------------------------------------------------
# point clouds


class TestEnumeratePoints:
    def test_level_two_points_by_hand(self):
        fam = corner_family()
        tree = deterministic_tree(fam, 2)
        points, weights = enumerate_points(tree, 2, s=0.0)
        assert points.shape == (9, 2)
        expected = np.array(
            [
                fam.maps[i].T @ fam.maps[j].a + fam.maps[i].a
                for i in range(3)
                for j in range(3)
            ]
        )
        order = np.lexsort(points.T)
        ref_order = np.lexsort(expected.T)
        np.testing.assert_allclose(points[order], expected[ref_order], atol=1e-14)
        np.testing.assert_allclose(weights, np.full(9, 1.0 / 9.0), rtol=1e-12)

    def test_weights_normalize(self, rng):
        mats = [random_contraction(rng, 2, 0.2, 0.45) for _ in range(2)]
        fam = IfsFamily(
            "rand", tuple(AffineMap(T, c, rng.uniform(size=2)) for c, T in enumerate(mats))
        )
        tree = deterministic_tree(fam, 5)
        _, weights = enumerate_points(tree, 5, s=1.3)
        assert math.isclose(float(weights.sum()), 1.0, rel_tol=1e-12)
        assert np.all(weights > 0)

    @pytest.mark.parametrize("limit_power", [1, 4])
    def test_uniform_weights_take_no_svd(self, monkeypatch, limit_power, rng):
        # phi_0 is 1, so s = 0 needs no spectra; at s = 1.3 the d = 2 and d = 3
        # spectra of distinct singular values take no SVD either, however
        # finely the level-7 words are split into blocks
        monkeypatch.setattr(code_tree, "_BLOCK_LIMIT", 3**limit_power)
        tree = deterministic_tree(corner_family(), 7)
        blocks = code_tree._map_words(tree, 7, lambda *_: None, want_spectra=False)
        assert len(blocks) == 3 ** (7 - limit_power)
        solid = IfsFamily("solid", tuple(AffineMap(random_contraction(rng, 3, 0.2, 0.6), c)
                                         for c in range(3)))
        solid_tree = deterministic_tree(solid, 7)
        calls = []
        svd = np.linalg.svd

        def counted(*args, **kwargs):
            calls.append(1)
            return svd(*args, **kwargs)

        monkeypatch.setattr(np.linalg, "svd", counted)
        points, weights = enumerate_points(tree, 7, 0.0)
        assert calls == []
        n = 3**7
        assert points.shape == (n, 2)
        assert weights.tobytes() == np.full(n, 1 / n).tobytes()
        _, weights = enumerate_points(tree, 7, 1.3)
        assert calls == []
        assert math.isclose(float(weights.sum()), 1.0, rel_tol=1e-12)
        _, weights = enumerate_points(solid_tree, 7, 1.3)
        assert calls == []
        assert math.isclose(float(weights.sum()), 1.0, rel_tol=1e-12)

    def test_level_must_be_realized(self):
        tree = deterministic_tree(thirds_family(), 2)
        with pytest.raises(ValueError, match="k must"):
            enumerate_points(tree, 3)

    def test_weights_below_the_smallest_double_are_normalized(self):
        # phi_200 of every level-3 word is 1e-1800; the largest log weight sets the scale
        fam = IfsFamily("tiny", tuple(AffineMap([[0.001]], c) for c in range(2)))
        tree = deterministic_tree(fam, 3)
        _, weights = enumerate_points(tree, 3, s=200.0)
        assert weights.tolist() == [1.0 / 8.0] * 8
        mixed = IfsFamily("mixed", (AffineMap([[0.001]], 0), AffineMap([[0.002]], 1)))
        _, weights = enumerate_points(deterministic_tree(mixed, 3), 3, s=200.0)
        # word weights are proportional to 2^(200 * number of 0.002 letters)
        ones = np.array([bin(i).count("1") for i in range(8)])
        expected = np.exp(200.0 * math.log(2.0) * (ones - 3))
        np.testing.assert_allclose(weights, expected / expected.sum(), rtol=1e-12)


# ---------------------------------------------------------------------------
# realization container invariants


class TestRealizationValidation:
    def test_depth_level_mismatch(self):
        # the depth and d are read off the level tables, so they cannot disagree with them
        tree = deterministic_tree(thirds_family(), 2)
        by_hand = CodeTreeRealization(tree.levels)
        assert (by_hand.depth, by_hand.d) == (2, 1)
        with pytest.raises(ValueError, match="depth >= 1"):
            CodeTreeRealization(())
        plane = deterministic_tree(corner_family(), 1)
        with pytest.raises(ValueError, match="mix ambient dimensions"):
            CodeTreeRealization(tree.levels + plane.levels)

    def test_neck_monotonicity(self):
        tree = deterministic_tree(thirds_family(), 3)
        with pytest.raises(ValueError, match="increasing"):
            CodeTreeRealization(tree.levels, necks=(2, 2))
