"""Tests for code trees: construction, necks, shifts, and partition sums.

Oracles: constant trees have closed-form partition sums S(k, s) =
(sum_i phi_s(T_i))^k for equal-shape maps, word counts are products of
branching numbers, and compositions can be folded by hand: enumeration
returns each word's point f_word(0) in lexicographic word order, and for
d = 1 the partition sum at s = 1 is the sum of |T_word|.
"""

import itertools
import math

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
    count_full_blocks,
    detect_necks,
    deterministic_tree,
    enumerate_points,
    partition_sum_mc,
    partition_sums,
    sample_graph_sequence,
    sample_measure_points,
    shift_first_neck,
)

from affdim import code_tree

from conftest import random_contraction

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

    def test_with_translation_and_eq(self):
        m = AffineMap(0.5 * np.eye(2), 3)
        shifted = m.with_translation([1.0, -1.0])
        assert shifted.translation_class == 3
        assert shifted != m
        assert shifted == AffineMap(0.5 * np.eye(2), 3, [1.0, -1.0])


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
        assert gs.d == 1
        np.testing.assert_allclose(gs.mu, [0.3, 0.7])
        assert gs.neck_label_indices() == (0,)
        assert math.isclose(gs.neck_probability(), 0.3)
        assert gs.max_out_degree() == 2

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
        assert tree.branching(()) == 3
        assert tree.branching((2, 0, 1)) == 3

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
        assert tree == graph_tree
        # reference: the constant tree laid out directly, one level table shared by all levels
        table = code_tree._LevelTable((fam,), ((0,) * fam.size,))
        by_hand = CodeTreeRealization(d=2, depth=5, levels=(table,) * 5, necks=(1, 2, 3, 4, 5))
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

    def test_invalid_words(self):
        tree = deterministic_tree(thirds_family(), 2)
        with pytest.raises(ValueError, match="letter"):
            tree.state_at((2,))
        with pytest.raises(ValueError, match="length"):
            tree.state_at((0, 0, 0))


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
        assert tree.state_at((0,)) == 1
        assert tree.family_at((0,)).label == "b@v2"
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

    def test_depth_cannot_exceed_sequence(self):
        gs = walk_graph()
        with pytest.raises(ValueError, match="depth"):
            build_code_tree(gs, [0, 1], depth=3)

    def test_start_vertex_validated(self):
        gs = walk_graph()
        with pytest.raises(ValueError, match="vertex"):
            build_code_tree(gs, [0, 1], start_vertex=5)

    def test_thinning_drops_intermediate_necks(self):
        gs = walk_graph()
        g = [0, 1, 0, 0, 1, 0]
        assert build_code_tree(gs, g).necks == (1, 3, 4, 6)
        assert build_code_tree(gs, g, thinning=2).necks == (3, 6)

    def test_family_beyond_neck_depends_only_on_suffix(self):
        gs = walk_graph()
        g = sample_graph_sequence(gs, seed=3, length=12)
        tree = build_code_tree(gs, g)
        assert len(tree.necks) >= 2
        shifted = shift_first_neck(tree)
        n1 = tree.necks[0]
        for length in range(n1, min(tree.depth - 1, n1 + 4) + 1):
            word = (0,) * length
            assert tree.family_at(word) == shifted.family_at(word[n1:])


class TestShiftFirstNeck:
    def test_constant_tree_shift_drops_one_level(self):
        tree = deterministic_tree(thirds_family(), 5)
        assert shift_first_neck(tree) == deterministic_tree(thirds_family(), 4)

    def test_neck_relabeling(self):
        gs = walk_graph()
        g = [1, 1, 0, 1, 1, 1, 0, 1, 0]
        tree = build_code_tree(gs, g)
        assert tree.necks == (3, 7, 9)
        once = shift_first_neck(tree)
        assert once.depth == 6 and once.necks == (4, 6)
        twice = shift_first_neck(once)
        assert twice.depth == 2 and twice.necks == (2,)

    def test_requires_two_necks(self):
        tree = deterministic_tree(thirds_family(), 1)
        with pytest.raises(ValueError, match="two"):
            shift_first_neck(tree)


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

    def test_threads_do_not_change_the_result(self):
        tree = deterministic_tree(thirds_family(), 17)
        grid = [0.3, 0.63, 1.0]
        one = partition_sums(tree, 17, grid, threads=1)
        four = partition_sums(tree, 17, grid, threads=4)
        assert np.array_equal(one, four)

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

    def test_cap_exceeded_points_to_monte_carlo(self):
        tree = deterministic_tree(corner_family(), 4)
        with pytest.raises(EnumerationCapExceeded, match="partition_sum_mc"):
            partition_sums(tree, 4, [1.0], cap=80)[0]


class TestPartitionSumMc:
    def test_similarity_tree_is_exact(self):
        tree = deterministic_tree(thirds_family(), 6)
        est, err = partition_sum_mc(tree, 6, 1.0, samples=500, seed=0)
        assert err == 0.0
        assert math.log(est) == pytest.approx(partition_sums(tree, 6, [1.0])[0], rel=1e-12)

    def test_agrees_within_four_stderr(self, rng):
        mats = [random_contraction(rng, 2, 0.2, 0.45) for _ in range(3)]
        fam = IfsFamily("rand", tuple(AffineMap(T, c) for c, T in enumerate(mats)))
        tree = deterministic_tree(fam, 5)
        exact = math.exp(partition_sums(tree, 5, [1.2])[0])
        est, err = partition_sum_mc(tree, 5, 1.2, samples=20_000, seed=1)
        assert err > 0.0
        assert abs(est - exact) <= 4 * err

    def test_level_zero(self):
        tree = deterministic_tree(thirds_family(), 2)
        assert partition_sum_mc(tree, 0, 1.0) == (1.0, 0.0)

    def test_needs_two_samples(self):
        tree = deterministic_tree(thirds_family(), 2)
        with pytest.raises(ValueError, match="two samples"):
            partition_sum_mc(tree, 1, 1.0, samples=1)


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

    def test_threads_do_not_change_points(self):
        tree = deterministic_tree(thirds_family(), 17)
        p1, w1 = enumerate_points(tree, 17, s=0.63, threads=1)
        p4, w4 = enumerate_points(tree, 17, s=0.63, threads=4)
        assert np.array_equal(p1, p4) and np.array_equal(w1, w4)

    @pytest.mark.parametrize("threads", [1, 4])
    def test_uniform_weights_take_no_svd(self, monkeypatch, threads):
        # phi_0 is 1, so s = 0 needs no spectra; s = 1.3 takes one SVD per block
        monkeypatch.setattr(code_tree, "_BLOCK_LIMIT", 3**4)
        tree = deterministic_tree(corner_family(), 7)
        blocks = len(code_tree._blocks(tree, 7, code_tree._BLOCK_LIMIT))
        assert blocks == 27
        calls = []
        svd = np.linalg.svd

        def counted(*args, **kwargs):
            calls.append(1)
            return svd(*args, **kwargs)

        monkeypatch.setattr(np.linalg, "svd", counted)
        points, weights = enumerate_points(tree, 7, 0.0, threads=threads)
        assert calls == []
        n = 3**7
        assert points.shape == (n, 2)
        assert weights.tobytes() == np.full(n, 1 / n).tobytes()
        _, weights = enumerate_points(tree, 7, 1.3, threads=threads)
        assert len(calls) == blocks
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


class TestSampleMeasurePoints:
    def test_uniform_weights_and_support(self):
        tree = deterministic_tree(thirds_family(), 3)
        points, weights = sample_measure_points(tree, 1, 1.0, count=400, seed=2)
        np.testing.assert_allclose(weights, np.full(400, 1.0 / 400.0))
        # level-1 cylinders sit at 0 and 2/3
        assert set(np.round(points[:, 0], 12)) <= {0.0, round(2.0 / 3.0, 12)}

    def test_frequencies_match_weights(self):
        tree = deterministic_tree(thirds_family(), 3)
        points, _ = sample_measure_points(tree, 1, 1.0, count=4000, seed=5)
        freq = float(np.mean(points[:, 0] > 0.1))
        stderr = math.sqrt(0.25 / 4000)
        assert abs(freq - 0.5) < 3 * stderr

    def test_neck_index_validation(self):
        tree = deterministic_tree(thirds_family(), 3)
        with pytest.raises(ValueError, match="1-based"):
            sample_measure_points(tree, 0, 1.0, count=1)
        with pytest.raises(ValueError, match="not realized"):
            sample_measure_points(tree, 4, 1.0, count=1)
        with pytest.raises(ValueError, match="count"):
            sample_measure_points(tree, 1, 1.0, count=0)


# ---------------------------------------------------------------------------
# block fullness counting


class TestCountFullBlocks:
    def test_spinning_family_fills_every_block(self):
        fam = IfsFamily("spin", (AffineMap(0.45 * np.eye(2), 0), AffineMap(0.45 * ROT90, 1)))
        tree = deterministic_tree(fam, 4)
        assert count_full_blocks(tree, 1.0, 0.1, 0, 3, samples=40) == 3

    def test_single_map_fills_nothing(self):
        fam = IfsFamily("solo", (AffineMap(0.45 * np.eye(2)),))
        tree = deterministic_tree(fam, 4)
        assert count_full_blocks(tree, 1.0, 0.1, 0, 3, samples=60) == 0

    def test_empty_range(self):
        tree = deterministic_tree(thirds_family(), 3)
        assert count_full_blocks(tree, 0.5, 0.1, 2, 2) == 0

    def test_range_validation(self):
        tree = deterministic_tree(thirds_family(), 3)
        with pytest.raises(ValueError, match="n_from"):
            count_full_blocks(tree, 0.5, 0.1, 3, 1)
        with pytest.raises(ValueError, match="necks"):
            count_full_blocks(tree, 0.5, 0.1, 0, 9)


# ---------------------------------------------------------------------------
# realization container invariants


class TestRealizationValidation:
    def test_depth_level_mismatch(self):
        tree = deterministic_tree(thirds_family(), 2)
        with pytest.raises(ValueError, match="level"):
            CodeTreeRealization(d=1, depth=3, levels=tree.levels, necks=())

    def test_neck_monotonicity(self):
        tree = deterministic_tree(thirds_family(), 3)
        with pytest.raises(ValueError, match="increasing"):
            CodeTreeRealization(d=1, depth=3, levels=tree.levels, necks=(2, 2))

    def test_tree_equality(self):
        a = deterministic_tree(thirds_family(), 3)
        b = deterministic_tree(thirds_family(), 3)
        assert a == b
        assert a != deterministic_tree(thirds_family(), 2)
