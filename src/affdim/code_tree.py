"""Finite realizations of affine code trees and their partition sums.

A code tree assigns to every node a label, i.e. a finite family of affine
contractions; the node has one child per member.  All trees here are level
homogeneous in a weak sense: the label of a node depends only on its depth
and on a small integer state carried along the path (for graph-driven trees
the state is the vertex the walk sits at, deterministic trees have a single
state).  That makes a realized tree a list of per-level transition tables,
which is compact, immutable and shareable; the sub trees hanging off a neck
level are structurally identical by construction and are represented once.

Necks of a graph-driven tree are the levels immediately after a graph label
all of whose edges return to the root vertex; every node alive at a neck
has the same future.  ``shift_first_neck`` reroots the tree at its first
neck, which shortens the neck list accordingly.

Every walk that composes maps along words goes through one level step,
``_advance``: a batch of rows, each a (state, linear part, point), moves
one level down to a chosen child per row.  Exact enumeration expands every
child (``_expand_block``), the Monte Carlo estimator one random child per
row.  Full enumeration runs through one block map, ``_map_words``: the
level-k words are split, in lexicographic word order, into bounded blocks;
each block is expanded, the logs of its singular spectra are taken after
one batched SVD, and a caller's reduction is applied per block.  The log
partition sums log S(k, s) (S sums phi_s of the composed linear parts over
the level-k words), the weighted cylinder points and the pressure
zero-finder's cache are such reductions, all in log form over
``singular_values._log_phi``, so values far below the smallest double stay
finite.  The points at s = 0 carry uniform weights (phi_0 is 1) and run no
SVD.  Block results are folded in word order, so results are bit-identical
no matter how many worker threads are used.
"""

from __future__ import annotations

import functools
import itertools
import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field

import numpy as np

from .fs_checker import LinearFamily, estimate_fullness
from .singular_values import _log_phi, singular_values

__all__ = [
    "ENUMERATION_CAP",
    "EnumerationCapExceeded",
    "AffineMap",
    "IfsFamily",
    "GraphEdge",
    "GraphLabel",
    "GraphSystem",
    "CodeTreeRealization",
    "deterministic_tree",
    "sample_graph_sequence",
    "build_code_tree",
    "detect_necks",
    "partition_sums",
    "partition_sum_mc",
    "shift_first_neck",
    "enumerate_points",
    "sample_measure_points",
    "count_full_blocks",
]

ENUMERATION_CAP = 10**7
_BLOCK_LIMIT = 1 << 16


class EnumerationCapExceeded(RuntimeError):
    """Raised when a full word enumeration would be unreasonably large."""


@dataclass(frozen=True, eq=False)
class AffineMap:
    """x -> T x + a with nonsingular T, ``norm(T) <= 1``.

    Strict contraction (and the stronger 1/2 bound needed by the dimension
    formula) is enforced where it matters: at tree construction and in
    ``dimension_report``.  The translation ``a`` defaults to zero; distinct
    translation classes mark entries of the translation vector that must be
    drawn independently when an assignment is sampled.  ``sigma`` is the
    read-only descending singular spectrum of T, taken once by the
    construction gate.
    """

    T: np.ndarray
    translation_class: int = 0
    a: np.ndarray | None = None
    sigma: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        T = np.array(self.T, dtype=float)
        if T.ndim != 2 or T.shape[0] != T.shape[1]:
            raise ValueError(f"linear part must be square, got shape {T.shape}")
        sigma = singular_values(T)  # rejects singular parts
        if sigma[0] > 1.0 + 1e-12:
            raise ValueError(
                f"linear part must satisfy norm(T) <= 1, got sigma_1 = {sigma[0]:.6g}"
            )
        T.setflags(write=False)
        a = self.a
        if a is None:
            a = np.zeros(T.shape[0])
        else:
            a = np.array(a, dtype=float).reshape(-1)
            if a.shape != (T.shape[0],):
                raise ValueError(f"translation must live in R^{T.shape[0]}, got shape {a.shape}")
        a.setflags(write=False)
        object.__setattr__(self, "T", T)
        object.__setattr__(self, "a", a)
        object.__setattr__(self, "sigma", sigma)
        object.__setattr__(self, "translation_class", int(self.translation_class))

    @property
    def d(self) -> int:
        return self.T.shape[0]

    def sigma_max(self) -> float:
        return float(self.sigma[0])

    def sigma_min(self) -> float:
        return float(self.sigma[-1])

    def with_translation(self, a) -> "AffineMap":
        return AffineMap(self.T, self.translation_class, a)

    def __eq__(self, other):
        if not isinstance(other, AffineMap):
            return NotImplemented
        return (
            self.translation_class == other.translation_class
            and np.array_equal(self.T, other.T)
            and np.array_equal(self.a, other.a)
        )

    __hash__ = None


@dataclass(frozen=True)
class IfsFamily:
    """One label's worth of affine maps, in branch order."""

    label: str
    maps: tuple[AffineMap, ...]

    def __post_init__(self):
        if not self.maps:
            raise ValueError(f"family {self.label!r} must contain at least one map")
        d = self.maps[0].d
        if any(m.d != d for m in self.maps):
            raise ValueError(f"family {self.label!r} mixes ambient dimensions")
        classes = [m.translation_class for m in self.maps]
        if len(set(classes)) != len(classes):
            raise ValueError(
                f"family {self.label!r} repeats a translation class: {classes}"
            )
        object.__setattr__(self, "maps", tuple(self.maps))

    @property
    def d(self) -> int:
        return self.maps[0].d

    @property
    def size(self) -> int:
        return len(self.maps)


@dataclass(frozen=True)
class GraphEdge:
    """Edge of a labeled multigraph; vertices are 1-based."""

    source: int
    target: int
    map: AffineMap


@dataclass(frozen=True)
class GraphLabel:
    name: str
    prob: float
    edges: tuple[GraphEdge, ...]


@dataclass(frozen=True, eq=False)
class GraphSystem:
    """A probability vector over labeled multigraphs on V vertices.

    Every vertex must have an outgoing edge under every positive-probability
    label, and at least one positive-probability label must send all of its
    edges back to the root vertex, so that necks recur along almost every
    label sequence.
    """

    V: int
    v0: int
    labels: tuple[GraphLabel, ...]

    def __post_init__(self):
        if self.V < 1:
            raise ValueError(f"V must be >= 1, got {self.V}")
        if not 1 <= self.v0 <= self.V:
            raise ValueError(f"root vertex v0 = {self.v0} outside 1..{self.V}")
        if not self.labels:
            raise ValueError("need at least one graph label")
        probs = np.array([g.prob for g in self.labels], dtype=float)
        if np.any(probs < 0):
            raise ValueError(f"label probabilities must be nonnegative, got {probs}")
        if abs(float(probs.sum()) - 1.0) > 1e-9:
            raise ValueError(f"label probabilities must sum to 1, got {float(probs.sum())!r}")
        d = None
        for li, g in enumerate(self.labels):
            for e in g.edges:
                if not (1 <= e.source <= self.V and 1 <= e.target <= self.V):
                    raise ValueError(
                        f"labels[{li}] has an edge {e.source}->{e.target} outside 1..{self.V}"
                    )
                d = e.map.d if d is None else d
                if e.map.d != d:
                    raise ValueError("graph labels mix ambient dimensions")
            covered = {e.source for e in g.edges}
            if g.prob > 0 and len(covered) < self.V:
                first = list(itertools.islice(
                    (v for v in range(1, self.V + 1) if v not in covered), 5))
                raise ValueError(
                    f"labels[{li}] ({g.name!r}) has no outgoing edge from "
                    f"{self.V - len(covered)} of the {self.V} vertices, first {first}"
                )
        if not self.neck_label_indices():
            raise ValueError(
                "no positive-probability label returns every edge to the root vertex; "
                "necks would never occur"
            )

    @property
    def d(self) -> int:
        return self.labels[0].edges[0].map.d

    @property
    def mu(self) -> np.ndarray:
        return np.array([g.prob for g in self.labels], dtype=float)

    def neck_label_indices(self) -> tuple[int, ...]:
        out = []
        for i, g in enumerate(self.labels):
            if g.prob > 0 and all(e.target == self.v0 for e in g.edges):
                out.append(i)
        return tuple(out)

    def neck_probability(self) -> float:
        return float(sum(self.labels[i].prob for i in self.neck_label_indices()))

    def max_out_degree(self) -> int:
        deg = 0
        for g in self.labels:
            for v in range(1, self.V + 1):
                deg = max(deg, sum(1 for e in g.edges if e.source == v))
        return deg

    def out_family(self, label_index: int, vertex: int) -> tuple[IfsFamily, tuple[int, ...]]:
        g = self.labels[label_index]
        edges = [e for e in g.edges if e.source == vertex]
        if not edges:
            raise ValueError(f"vertex {vertex} has no outgoing edge under label {g.name!r}")
        fam = IfsFamily(f"{g.name}@v{vertex}", tuple(e.map for e in edges))
        return fam, tuple(e.target for e in edges)


@dataclass(frozen=True, eq=False)
class _LevelTable:
    """Transition table for one level: per state, a family and child states."""

    families: tuple[IfsFamily, ...]
    children: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        if len(self.families) != len(self.children):
            raise ValueError("families and children tables disagree")
        for fam, ch in zip(self.families, self.children):
            if fam.size != len(ch):
                raise ValueError(f"family {fam.label!r} has {fam.size} maps but {len(ch)} children")
        d = self.families[0].d
        sizes = np.array([f.size for f in self.families], dtype=np.intp)
        maxb = int(sizes.max())
        n = len(self.families)
        T = np.zeros((n, maxb, d, d))
        a = np.zeros((n, maxb, d))
        child = np.zeros((n, maxb), dtype=np.intp)
        for s, (fam, ch) in enumerate(zip(self.families, self.children)):
            for b, mp in enumerate(fam.maps):
                T[s, b] = mp.T
                a[s, b] = mp.a
                child[s, b] = ch[b]
        for arr in (sizes, T, a, child):
            arr.setflags(write=False)
        object.__setattr__(self, "_sizes", sizes)
        object.__setattr__(self, "_T", T)
        object.__setattr__(self, "_a", a)
        object.__setattr__(self, "_child", child)

    def __eq__(self, other):
        if not isinstance(other, _LevelTable):
            return NotImplemented
        return self.families == other.families and self.children == other.children

    __hash__ = None


@dataclass(frozen=True, eq=False)
class CodeTreeRealization:
    """A code tree realized down to a finite depth.

    ``levels[n]`` resolves the labels of all depth-n nodes; ``necks`` is the
    (possibly thinned) increasing list of realized neck levels.
    """

    d: int
    depth: int
    levels: tuple[_LevelTable, ...]
    root_state: int = 0
    necks: tuple[int, ...] = ()

    def __post_init__(self):
        if self.depth != len(self.levels):
            raise ValueError(f"depth {self.depth} but {len(self.levels)} level tables")
        if self.depth < 1:
            raise ValueError("a realized tree needs depth >= 1")
        if not 0 <= self.root_state < len(self.levels[0].families):
            raise ValueError(f"root state {self.root_state} missing from level 0")
        necks = tuple(int(n) for n in self.necks)
        if any(b <= a for a, b in zip(necks, necks[1:])) or any(
            not 1 <= n <= self.depth for n in necks
        ):
            raise ValueError(f"neck list must be strictly increasing within 1..depth, got {necks}")
        for lev in range(self.depth - 1):
            here, nxt = self.levels[lev], self.levels[lev + 1]
            top = int(np.max(here._child))
            if top >= len(nxt.families):
                raise ValueError(f"level {lev} points at state {top} missing from level {lev + 1}")
        object.__setattr__(self, "necks", necks)

    def __eq__(self, other):
        if not isinstance(other, CodeTreeRealization):
            return NotImplemented
        return (
            self.d == other.d
            and self.depth == other.depth
            and self.root_state == other.root_state
            and self.necks == other.necks
            and self.levels == other.levels
        )

    __hash__ = None

    # -- node access -------------------------------------------------------

    def state_at(self, word: tuple[int, ...]) -> int:
        if len(word) > self.depth:
            raise ValueError(f"word length must lie in 0..{self.depth}, got {len(word)}")
        state = self.root_state
        for lev, letter in enumerate(word):
            tbl = self.levels[lev]
            if not 0 <= letter < int(tbl._sizes[state]):
                raise ValueError(f"invalid word {word}: letter {letter} at level {lev}")
            state = int(tbl._child[state, letter])
        return state

    def family_at(self, word: tuple[int, ...]) -> IfsFamily:
        if len(word) >= self.depth:
            raise ValueError(f"word {word} reaches past realized depth {self.depth}")
        state = self.state_at(word)
        return self.levels[len(word)].families[state]

    def branching(self, word: tuple[int, ...]) -> int:
        return self.family_at(word).size

    def word_count(self, k: int) -> int:
        counts = self._suffix_counts(k)
        return int(counts[0][self.root_state])

    def sigma_max(self) -> float:
        return max(m.sigma_max() for tbl in self.levels for fam in tbl.families for m in fam.maps)

    def sigma_min(self) -> float:
        return min(m.sigma_min() for tbl in self.levels for fam in tbl.families for m in fam.maps)

    def _suffix_counts(self, k: int) -> list[np.ndarray]:
        if not 0 <= k <= self.depth:
            raise ValueError(f"level {k} outside realized depth {self.depth}")
        top = 1
        if k >= 1:
            top = int(np.max(self.levels[k - 1]._child)) + 1
        counts = [None] * (k + 1)
        counts[k] = np.ones(top, dtype=np.int64)
        for lev in range(k - 1, -1, -1):
            tbl = self.levels[lev]
            here = np.zeros(len(tbl.families), dtype=np.int64)
            for s in range(len(tbl.families)):
                b = int(tbl._sizes[s])
                here[s] = counts[lev + 1][tbl._child[s, :b]].sum()
            counts[lev] = here
        return counts


def deterministic_tree(family: IfsFamily, depth: int) -> CodeTreeRealization:
    """The constant code tree, one label everywhere and every level a neck: the
    tree of a one-vertex graph whose one label loops every map back to the root."""
    if depth < 1:
        raise ValueError("depth must be >= 1")
    loop = GraphLabel(family.label, 1.0, tuple(GraphEdge(1, 1, m) for m in family.maps))
    return build_code_tree(GraphSystem(1, 1, (loop,)), np.zeros(depth))


def _require_contractions(maps, what: str) -> None:
    for i, m in enumerate(maps):
        s1 = m.sigma_max()
        if s1 >= 1.0 - 1e-12:
            raise ValueError(
                f"{what}: map {i} has sigma_1 = {s1:.6g}; tree construction needs strict "
                "contractions (sigma_1 < 1)"
            )


def sample_graph_sequence(gs: GraphSystem, seed, length: int) -> np.ndarray:
    """i.i.d. label indices drawn from the system's probability vector."""
    if length < 1:
        raise ValueError("length must be >= 1")
    rng = np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(0,)))
    return rng.choice(len(gs.labels), size=length, p=gs.mu)


def detect_necks(g, gs: GraphSystem, thinning: int = 1) -> tuple[int, ...]:
    """Neck levels of the label sequence ``g``: one past each all-to-root label.

    With ``thinning = t`` only every t-th raw neck is kept.  Exhaustion is not
    an error; the realized prefix is returned.
    """
    if thinning < 1:
        raise ValueError("thinning must be >= 1")
    neck_set = set(gs.neck_label_indices())
    raw = [n + 1 for n, lab in enumerate(np.asarray(g, dtype=int)) if int(lab) in neck_set]
    return tuple(raw[thinning - 1 :: thinning])


def build_code_tree(
    gs: GraphSystem,
    g,
    start_vertex: int | None = None,
    depth: int | None = None,
    thinning: int = 1,
) -> CodeTreeRealization:
    """Realize the code tree of a label sequence, walking from ``start_vertex``.

    Level n of the tree uses the out-families of graph ``g[n]``; the state of
    a node is the vertex its path has walked to.
    """
    g = np.asarray(g, dtype=int)
    if depth is None:
        depth = len(g)
    if depth > len(g):
        raise ValueError(f"requested depth {depth} exceeds sequence length {len(g)}")
    if depth < 1:
        raise ValueError("depth must be >= 1")
    v = gs.v0 if start_vertex is None else int(start_vertex)
    if not 1 <= v <= gs.V:
        raise ValueError(f"start vertex {v} outside 1..{gs.V}")

    tables: dict[int, _LevelTable] = {}
    for li in sorted(set(int(x) for x in g[:depth])):
        fams, childs = [], []
        for vertex in range(1, gs.V + 1):
            fam, targets = gs.out_family(li, vertex)
            _require_contractions(fam.maps, f"label {gs.labels[li].name!r} vertex {vertex}")
            fams.append(fam)
            childs.append(tuple(t - 1 for t in targets))
        tables[li] = _LevelTable(tuple(fams), tuple(childs))

    necks = tuple(n for n in detect_necks(g, gs, thinning) if n <= depth)
    return CodeTreeRealization(
        d=gs.d,
        depth=depth,
        levels=tuple(tables[int(x)] for x in g[:depth]),
        root_state=v - 1,
        necks=necks,
    )


def shift_first_neck(tree: CodeTreeRealization) -> CodeTreeRealization:
    """Reroot at the first realized neck; neck levels shift down accordingly."""
    if len(tree.necks) < 2:
        raise ValueError("need at least two realized necks to shift")
    n1 = tree.necks[0]
    # all nodes alive at a neck share one state; find it and check it is unique
    states = {tree.root_state}
    for lev in range(n1):
        tbl = tree.levels[lev]
        nxt = set()
        for s in states:
            b = int(tbl._sizes[s])
            nxt.update(int(c) for c in tbl._child[s, :b])
        states = nxt
    if len(states) != 1:
        raise ValueError(f"level {n1} is not a neck: reachable states {sorted(states)}")
    return CodeTreeRealization(
        d=tree.d,
        depth=tree.depth - n1,
        levels=tree.levels[n1:],
        root_state=states.pop(),
        necks=tuple(n - n1 for n in tree.necks[1:]),
    )


# ---------------------------------------------------------------------------
# streamed enumeration


def _advance(tbl, states, mats, points, rows, branch):
    """One level step: row ``rows[i]`` moves to child ``branch[i]`` of its state.

    ``points`` may be None when only the linear parts are wanted.
    """
    ps = states[rows]
    if points is not None:
        points = points[rows] + np.einsum("nij,nj->ni", mats[rows], tbl._a[ps, branch])
    mats = np.einsum("nij,njk->nik", mats[rows], tbl._T[ps, branch])
    return tbl._child[ps, branch], mats, points


def _expand_block(tree, level0, state0, mat0, point0, k, want_points):
    """All level-k descendants of one node, in word order, as (mats, points)."""
    states = np.array([state0], dtype=np.intp)
    mats = mat0[None]
    points = point0[None] if want_points else None
    for lev in range(level0, k):
        tbl = tree.levels[lev]
        sz = tbl._sizes[states]
        rows = np.repeat(np.arange(states.shape[0]), sz)
        offs = np.cumsum(sz) - sz
        branch = np.arange(int(sz.sum())) - np.repeat(offs, sz)
        states, mats, points = _advance(tbl, states, mats, points, rows, branch)
    return mats, points


def _blocks(tree, k, limit):
    """Split the level-k word set into lexicographically ordered blocks of at
    most ``limit`` words, each a (level, state, prefix matrix, prefix point)."""
    counts = tree._suffix_counts(k)
    out = []
    stack = [(0, tree.root_state, np.eye(tree.d), np.zeros(tree.d))]
    while stack:
        lev, st, mat, pt = stack.pop()
        if lev == k or counts[lev][st] <= limit:
            out.append((lev, st, mat, pt))
            continue
        tbl = tree.levels[lev]
        b = int(tbl._sizes[st])
        for letter in range(b - 1, -1, -1):  # reversed, so pops run in word order
            child = int(tbl._child[st, letter])
            T = tbl._T[st, letter]
            a = tbl._a[st, letter]
            stack.append((lev + 1, child, mat @ T, pt + mat @ a))
    return out


def _log_spectra(mats, k):
    """Log singular values of level-k products, one descending row each; a zero
    one can only be an underflow (the maps are nonsingular) and is refused."""
    sigma = np.linalg.svd(mats, compute_uv=False)
    if not np.all(sigma[:, -1] > 0.0):
        raise ValueError(f"the linear part of a level-{k} word underflowed to a singular matrix")
    return np.log(sigma)


def _log_sums(log_sigma, s_values):
    """Per s, log sum of phi_s over the rows, one max-shifted log-sum-exp at a time."""
    out = np.empty(len(s_values))
    for i, s in enumerate(s_values):
        log_phi = _log_phi(log_sigma, s)
        top = np.max(log_phi)
        if top == -np.inf:
            raise ValueError(f"log phi_s at s = {s!r} overflows the double range")
        out[i] = top + np.log(np.sum(np.exp(log_phi - top)))
    return out


_fold = functools.partial(functools.reduce, np.logaddexp)  # block log sums, in word order


def _map_words(
    tree, k, reduce, threads=1, want_points=False, want_spectra=True, cap=ENUMERATION_CAP
):
    """``reduce(log_sigma, points)`` of every block of level-k words, in word order.

    ``log_sigma`` is ``_log_spectra`` of the block's composed linear parts (None
    unless ``want_spectra``), ``points`` the words' points f_word(0) (None unless
    ``want_points``).  At most ``threads`` blocks are expanded at a time.
    """
    if not 1 <= k <= tree.depth:
        raise ValueError(f"k must lie in 1..{tree.depth}, got {k}")
    total = tree.word_count(k)
    if total > cap:
        raise EnumerationCapExceeded(
            f"level {k} holds {total} words, above the cap {cap}; "
            "use partition_sum_mc for a Monte Carlo estimate"
        )

    def work(block):
        lev, st, mat, pt = block
        mats, points = _expand_block(tree, lev, st, mat, pt, k, want_points)
        return reduce(_log_spectra(mats, k) if want_spectra else None, points)

    blocks = _blocks(tree, k, _BLOCK_LIMIT)
    if threads <= 1 or len(blocks) <= 1:
        return [work(b) for b in blocks]
    with ThreadPoolExecutor(max_workers=threads) as pool:
        return list(pool.map(work, blocks))


def partition_sums(
    tree: CodeTreeRealization,
    k: int,
    s_values,
    cap: int = ENUMERATION_CAP,
    threads: int = 1,
) -> np.ndarray:
    """log S(k, s) for every s in ``s_values`` in one streamed enumeration.

    S(k, s) is the sum over level-k words of phi_s of the composed linear
    part (1 at the empty level k = 0); its log is finite however small S is.
    """
    s_values = [float(s) for s in s_values]
    if k == 0:
        return np.zeros(len(s_values))
    return _fold(_map_words(tree, k, lambda ls, _: _log_sums(ls, s_values), threads, cap=cap))


def partition_sum_mc(
    tree: CodeTreeRealization,
    k: int,
    s: float,
    samples: int = 10000,
    seed=0,
) -> tuple[float, float]:
    """Unbiased Monte Carlo estimate of S(k, s) with its standard error.

    Paths are drawn uniformly branch by branch and reweighted by the product
    of branching factors.
    """
    if k == 0:
        return 1.0, 0.0
    if not 1 <= k <= tree.depth:
        raise ValueError(f"k must lie in 0..{tree.depth}, got {k}")
    if samples < 2:
        raise ValueError("need at least two samples for a standard error")
    rng = np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(0,)))
    states = np.full(samples, tree.root_state, dtype=np.intp)
    mats = np.broadcast_to(np.eye(tree.d), (samples, tree.d, tree.d)).copy()
    rows = np.arange(samples)
    logw = np.zeros(samples)
    for lev in range(k):
        tbl = tree.levels[lev]
        sz = tbl._sizes[states]
        pick = np.floor(rng.random(samples) * sz).astype(np.intp)
        logw += np.log(sz)
        states, mats, _ = _advance(tbl, states, mats, None, rows, pick)
    vals = np.exp(_log_phi(_log_spectra(mats, k), s)) * np.exp(logw)
    est = float(np.mean(vals))
    err = float(np.std(vals, ddof=1) / math.sqrt(samples))
    return est, err


def enumerate_points(
    tree: CodeTreeRealization,
    k: int,
    s: float = 0.0,
    cap: int = ENUMERATION_CAP,
    threads: int = 1,
) -> tuple[np.ndarray, np.ndarray]:
    """All level-k cylinder points f_word(0) with normalized phi_s weights.

    At s = 0 the weights are uniform (phi_0 is 1) and no spectra are taken.
    Weights are normalized from exp(log phi_s - max), whose largest entry is 1.
    """
    s = float(s)
    uniform = s == 0.0

    def weigh(log_sigma, points):
        return points, np.zeros(len(points)) if uniform else _log_phi(log_sigma, s)

    parts = _map_words(tree, k, weigh, threads, want_points=True, want_spectra=not uniform, cap=cap)
    points = np.concatenate([p for p, _ in parts], axis=0)
    log_w = np.concatenate([w for _, w in parts])
    top = np.max(log_w)
    if not np.isfinite(top):
        raise ValueError(f"log phi_s at s = {s!r} of the level-{k} words is not finite: "
                         "it overflows the double range")
    weights = np.exp(log_w - top)
    return points, weights / np.sum(weights)


def sample_measure_points(
    tree: CodeTreeRealization,
    m: int,
    s: float,
    count: int,
    seed=0,
) -> tuple[np.ndarray, np.ndarray]:
    """Draw ``count`` cylinder representatives at neck level N_m.

    Cylinders at level N_m are drawn i.i.d. with probability proportional to
    phi_s of their composed linear part; each drawn point carries weight
    1/count.
    """
    if m < 1:
        raise ValueError("neck index m is 1-based")
    if len(tree.necks) < m:
        raise ValueError(f"neck N_{m} not realized (only {len(tree.necks)} necks)")
    if count < 1:
        raise ValueError("count must be positive")
    level = tree.necks[m - 1]
    points, weights = enumerate_points(tree, level, s)
    rng = np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(0,)))
    idx = rng.choice(points.shape[0], size=count, p=weights / weights.sum())
    return points[idx], np.full(count, 1.0 / count)


def count_full_blocks(
    tree: CodeTreeRealization,
    s: float,
    c: float,
    n_from: int,
    n_to: int,
    samples: int = 200,
    seed=0,
) -> int:
    """Count neck blocks j in (n_from, n_to] whose first-neck composition
    family is empirically (c, s)-full.

    Block j looks at the tree shifted j-1 times and gathers the compositions
    from its root to its first neck; ``estimate_fullness`` of that family must
    exceed c for the block to count.  The estimate is an upper bound for the
    true constant, so this is empirical evidence, not a certificate.
    """
    if not 0 <= n_from <= n_to:
        raise ValueError(f"need 0 <= n_from <= n_to, got ({n_from}, {n_to})")
    if n_to == n_from:
        return 0
    if len(tree.necks) < n_to:
        raise ValueError(
            f"insufficient realized necks: have {len(tree.necks)}, need {n_to}"
        )
    count = 0
    current = tree
    for j in range(1, n_to + 1):
        if j > n_from:
            n1 = current.necks[0]
            mats, _ = _expand_block(
                current, 0, current.root_state, np.eye(current.d), np.zeros(current.d), n1, False
            )
            fam = LinearFamily(current.d, mats)
            est = estimate_fullness(fam, s, sample_count=samples, seed=(seed, j))
            if est.c_hat > c:
                count += 1
        if j < n_to:
            current = shift_first_neck(current)
    return count
