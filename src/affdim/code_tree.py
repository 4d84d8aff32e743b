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
has the same state, so the same future: the words between two necks are
one table, built from the state their first level shares.

A word is carried as a triple (linear part M, log|det M|, point f_word(0)),
and one rule, ``_compose``, joins a head word to every word of a table:
(M, l, p)·(M', l', p') = (M M', l + l', p + M p').  Every word is enumerated
exactly, and nothing samples words.  Enumeration builds its tables from the
leaves up (``_expand_block``).  A node's subtree depends only on its
(level, state), so at level k each reachable state's table is
the empty word, and one level up each reachable state's table joins, in
branch order, each branch's letter composed with its child's table
(``_join``); each (level, state) table is built once per sweep, and a
level's tables are freed once the level above is built.  Words are so
composed from the right, T_{w_1}(T_{w_2}(...)), and the log|det| is the
letters' log|det T_i| summed from the right.  Tables are entry-major: linear
parts (d, d, n), one row per matrix entry and one column per word, and
points (d, n).  Each letter's linear parts are then one (d, d) @ (d, d·n)
BLAS product and its points one (d, d) @ (d, n), both written in place
into the joined table, with no gather of word rows.  Only the parts a caller
needs are built: points alone need no linear parts below the prefixes.
Full enumeration runs through one block map, ``_map_words``: the
level-k words are split at one level, the first at which no state has
more than ``_BLOCK_LIMIT`` level-k descendants.  Each word to that
level is a prefix, and its block is the prefix followed by every suffix
word below its node, so the blocks run in lexicographic word order.
The prefixes are one table built from the root, and each state met at
the split level, in order of first appearance, has its suffix table
built once; every block at that state is its prefix composed with that
table in one ``_compose``, entry-major again.  The logs of a block's
singular spectra are taken from those entry rows (``_log_spectra``: log|t|
for d = 1, from the summed log|det| where the product underflowed; a
closed-form sigma_1 for d = 2, with sigma_2 from the summed log|det|; one
batched SVD for d >= 4).  A d = 3 block composes no linear parts: its
suffix table's are traded for their Grams once per state (``_gram_table``),
and the block's spectra are taken from those and its prefix word
(``_congruent_spectra``).  Either way the spectra are a (d, n) array, one
row per singular value and one column per word, so phi_s of every word is a
few whole-row adds; a caller's reduction is applied per block.  The log
partition sums log S(k, s) of d >= 2 trees (S sums phi_s of the composed
linear parts over the level-k words), on request with the log of -dS/ds
beside them for the pressure zero-finder's tangents, the weighted cylinder
points and the zero-finder's cache (``_level_sums``) are such reductions,
all in log form over ``singular_values._log_phi``, so values far below the
smallest double stay finite.  The word sums (``_log_sums``) take each
partial spectrum sum a block's s-values need once.  On a piece of
``singular_values._piece`` log phi_s of every word is affine in s, so they
walk each run of s in one piece by a geometric recurrence: the first s is
an anchor, evaluated exactly and exponentiated into one buffer of weights
of the block's length, and on an evenly spaced run whose rate
exp(delta * B) grows no weight each later s multiplies the words' weights
by that one rate, held in a second such buffer, and takes one sum.  Any
other run is anchored at every s, and a step re-anchors where the sum
falls below 2^-900, so the results stay within a few ulps, or the rounding
of s * B itself, of evaluating every s afresh.  The points at s = 0 carry
uniform weights (phi_0 is 1), take no spectra and form no block linear
parts.
Blocks are mapped one after another on the calling thread and their
results folded in word order.

The d = 1 partition sums enumerate no word.  There phi_s(t) = |t|^s is
multiplicative, so S(k, s) is a product of k small per-level transfer
matrices over the (level, state) tables, which ``_transfer_sums`` carries
in log form from the leaves up, like ``_expand_block``'s tables: any k is
taken, with no enumeration cap and no underflow.  Points and their weights
(``enumerate_points``) still enumerate in d = 1.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass, field

import numpy as np

from .singular_values import (
    _GRAM_I,
    _GRAM_J,
    _exponent,
    _log_phi,
    _minor,
    _piece,
    _slope,
    _sum_products,
    _top_eigenvalue,
    singular_values,
)

__all__ = [
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
    "enumerate_points",
]

ENUMERATION_CAP = 10**7
_BLOCK_LIMIT = 1 << 16
# ``_level_sums`` keeps a d >= 2 level's log spectra in memory up to this many
# words; a d = 1 pass is a transfer product, cheaper than the cache
_SPECTRUM_CACHE_WORDS = 10**6


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

    def out_family(self, label_index: int, vertex: int) -> tuple[IfsFamily, tuple[int, ...]]:
        g = self.labels[label_index]
        edges = [e for e in g.edges if e.source == vertex]
        if not edges:
            raise ValueError(f"vertex {vertex} has no outgoing edge under label {g.name!r}")
        fam = IfsFamily(f"{g.name}@v{vertex}", tuple(e.map for e in edges))
        return fam, tuple(e.target for e in edges)


@dataclass(frozen=True, eq=False)
class _LevelTable:
    """Transition table for one level: per state, a family and child states.

    Besides the maps' linear parts and translations it holds each map's
    log|det T|, the sum of the logs of its singular spectrum.
    """

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
        log_det = np.zeros((n, maxb))
        child = np.zeros((n, maxb), dtype=np.intp)
        for s, (fam, ch) in enumerate(zip(self.families, self.children)):
            for b, mp in enumerate(fam.maps):
                T[s, b] = mp.T
                a[s, b] = mp.a
                log_det[s, b] = np.sum(np.log(mp.sigma))
                child[s, b] = ch[b]
        for arr in (sizes, T, a, log_det, child):
            arr.setflags(write=False)
        object.__setattr__(self, "_sizes", sizes)
        object.__setattr__(self, "_T", T)
        object.__setattr__(self, "_a", a)
        object.__setattr__(self, "_log_det", log_det)
        object.__setattr__(self, "_child", child)


@dataclass(frozen=True, eq=False)
class CodeTreeRealization:
    """A code tree realized down to a finite depth.

    ``levels[n]`` resolves the labels of all depth-n nodes, so the depth is
    the number of level tables and ``d`` the dimension of their maps;
    ``necks`` is the (possibly thinned) increasing list of realized neck levels.
    """

    levels: tuple[_LevelTable, ...]
    root_state: int = 0
    necks: tuple[int, ...] = ()

    def __post_init__(self):
        if not self.levels:
            raise ValueError("a realized tree needs depth >= 1")
        if any(tbl._T.shape[-1] != self.d for tbl in self.levels):
            raise ValueError("level tables mix ambient dimensions")
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

    @property
    def d(self) -> int:
        return self.levels[0]._T.shape[-1]

    @property
    def depth(self) -> int:
        return len(self.levels)

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
        # level k's states: level 0 has its own, a deeper level those its parents point at
        top = len(self.levels[0].families) if k == 0 else int(np.max(self.levels[k - 1]._child)) + 1
        # exact Python ints: three maps' 3^40 words already overflow int64
        counts = [None] * (k + 1)
        counts[k] = np.ones(top, dtype=object)
        for lev in range(k - 1, -1, -1):
            tbl = self.levels[lev]
            here = np.zeros(len(tbl.families), dtype=object)
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


def build_code_tree(gs: GraphSystem, g) -> CodeTreeRealization:
    """Realize the code tree of a label sequence, walking from the root vertex.

    Level n of the tree uses the out-families of graph ``g[n]``; the state of
    a node is the vertex its path has walked to, and every neck is kept.
    """
    g = np.asarray(g, dtype=int)
    tables: dict[int, _LevelTable] = {}
    for li in sorted(set(int(x) for x in g)):
        fams, childs = [], []
        for vertex in range(1, gs.V + 1):
            fam, targets = gs.out_family(li, vertex)
            _require_contractions(fam.maps, f"label {gs.labels[li].name!r} vertex {vertex}")
            fams.append(fam)
            childs.append(tuple(t - 1 for t in targets))
        tables[li] = _LevelTable(tuple(fams), tuple(childs))

    return CodeTreeRealization(tuple(tables[int(x)] for x in g), gs.v0 - 1, detect_necks(g, gs))


# ---------------------------------------------------------------------------
# streamed enumeration


def _compose(head, tail, out=(None, None, None)):
    """The words head·tail of one head word, ((d, d), (), (d,)), and every
    word of an entry-major tail table: linear parts M_h M_t, log|det|
    l_h + l_t and points p_h + M_h p_t, each None where either triple's part
    is, and written into ``out``'s parts where those are given.

    The tail's linear parts are (d, d, n), entry (i, j, w) being M_w[i, j],
    and its points (d, n).  The linear parts of the words are the
    (d, d) @ (d, d·n) product, entry-major again, which numpy hands BLAS as
    one (d, d) @ (d, n) product per column j, so that each is written in
    place into ``out`` (a fresh array unless given); their points are one
    (d, d) @ (d, n) product.  d = 1 composes with ``*``: numpy's ``@`` takes a
    (1, 1) @ (1, n) product one column at a time, about 8 times slower at
    n = 65,536, and gives +0 where ``*`` keeps the sign of a zero product."""
    (mats, log_det, points), (tail_mats, tail_log_det, tail_points) = head, tail
    out_mats, out_log_det, out_points = out
    product = None if mats is None else np.multiply if mats.shape[-1] == 1 else np.matmul
    if points is not None and tail_points is not None:
        out_points = product(mats, tail_points, out=out_points)
        out_points += points[:, None]
    if log_det is not None and tail_log_det is not None:
        out_log_det = np.add(log_det, tail_log_det, out=out_log_det)
    if mats is None or tail_mats is None:
        out_mats = None
    else:  # one product per column j, into out[:, j]
        out_mats = np.empty(tail_mats.shape) if out_mats is None else out_mats
        product(mats, tail_mats.swapaxes(0, 1), out=out_mats.swapaxes(0, 1))
    return out_mats, out_log_det, out_points


def _join(tbl, state, below):
    """The table of the node at ``tbl``'s level and ``state``, as a (word,
    states, n) triple like those of ``below``, the next level's tables: each
    branch's letter composed with its child's table, in branch order, each
    written in place into one entry-major (mats, log_det, points) triple with
    the children's parts; the words' level-k states, joined the same way
    (None where the children's are); and the number of words."""
    kids = [below[c] for c in tbl._child[state, :tbl._sizes[state]].tolist()]
    (mats, log_det, points), states, _ = kids[0]
    d, n = tbl._T.shape[-1], sum(size for _, _, size in kids)
    out = (None if mats is None else np.empty((d, d, n)), None if log_det is None else np.empty(n),
           None if points is None else np.empty((d, n)))
    lo = 0
    for b, (word, _, size) in enumerate(kids):
        letter = (tbl._T[state, b], tbl._log_det[state, b], tbl._a[state, b])
        _compose(letter, word,
                 tuple(None if part is None else part[..., lo:lo + size] for part in out))
        lo += size
    return out, None if states is None else np.concatenate([ends for _, ends, _ in kids]), n


def _expand_block(tree, level0, state0, k, *, mats=False, log_det=False, points=False,
                  states=False):
    """All level-k descendants of the node at (``level0``, ``state0``), in word
    order: their level-k states and the entry-major (mats, log_det, points)
    triple of the suffix words from that node, linear parts (d, d, n) and
    points (d, n); each of the four is None unless its flag is set.

    The table is built from the leaves up.  At level k every state reachable
    from the node holds the empty word; for lev = k - 1 down to ``level0``,
    each reachable state's table at lev is ``_join``ed from its letters and its
    children's tables at lev + 1, which are then freed.  So each word is
    composed from the right, T_{w_1}(T_{w_2}(...)), and each reachable (level,
    state) table is built once.
    """
    reach = [[state0]]
    for tbl in tree.levels[level0:k]:
        reach.append(sorted({c for s in reach[-1] for c in tbl._child[s, :tbl._sizes[s]].tolist()}))
    d = tree.d
    empty = (np.eye(d)[..., None] if mats else None, np.zeros(1) if log_det else None,
             np.zeros((d, 1)) if points else None)
    tables = {s: (empty, np.array([s]) if states else None, 1) for s in reach[-1]}
    for lev in range(k - 1, level0 - 1, -1):
        tables = {s: _join(tree.levels[lev], s, tables) for s in reach[lev - level0]}
    word, end_states, _ = tables[state0]
    return end_states, word


# Columns whose two largest Gram eigenvalues nearly meet (1 + r below this in
# ``_top_eigenvalue``) take them from ``np.linalg.eigvalsh``: the closed form
# loses half the digits where the arccos argument r reaches -1.
_CLOSED_FORM_GAP = 1e-3
# d = 3 Grams are taken this many columns at a time, which keeps the closed
# form's temporaries in cache and a block's buffers small
_SPECTRUM_CHUNK = 1 << 13
_LN2 = math.log(2.0)


def _underflow(k):
    return ValueError(f"the linear part of a level-{k} word underflowed to a singular matrix")


def _scaled(x):
    """Columns of ``x`` scaled in place by powers of two (exactly) so that each
    largest |entry| lies in [0.5, 1), and the exponents taken out; 0 for a zero
    column."""
    _, e = np.frexp(np.max(np.abs(x), axis=0))
    np.ldexp(x, -e, out=x)
    return e


def _gram(x, g, tmp):
    """The Gram matrix X Xᵀ of each column of ``x`` (9, n), the row-major
    entries of a 3×3 X, written into ``g`` (6, n) as its entries (i, j), i <= j,
    in the order (0, 0), (1, 1), (2, 2), (0, 1), (0, 2), (1, 2); ``tmp`` is
    (n,) scratch."""
    rows = x[0:3], x[3:6], x[6:9]
    for out, i, j in zip(g, _GRAM_I, _GRAM_J):
        _sum_products(zip(rows[i], rows[j]), out, tmp)
    return g


def _cofactors(x, out, tmp):
    """Cofactor matrices of the 3×3 columns of ``x`` (9, n), row-major, written
    into ``out`` (9, n) with ``tmp`` (n,) as scratch: row i is the cross product
    of the other two rows of X, and its singular values are
    sigma_1 sigma_2 >= sigma_1 sigma_3 >= sigma_2 sigma_3 of X.  The cofactor
    matrix of a product is the product of the cofactor matrices."""
    x0, x1, x2, x3, x4, x5, x6, x7, x8 = x
    for o, args in zip(out, ((x4, x8, x5, x7), (x5, x6, x3, x8), (x3, x7, x4, x6),
                             (x7, x2, x8, x1), (x8, x0, x6, x2), (x6, x1, x7, x0),
                             (x1, x5, x2, x4), (x2, x3, x0, x5), (x0, x4, x1, x3))):
        _minor(*args, o, tmp)
    return out


def _gram_table(mats):
    """The Grams a d = 3 suffix table's blocks take their spectra from
    (``_congruent_spectra``), from its entry-major linear parts ``mats``
    (3, 3, n), which are scaled in place: (grams, exponents), one stack of
    each.  ``grams`` (2, 6, n) holds each word T's Gram G in slot 0 and its
    cofactor matrix's Gram H in slot 1, both in ``_gram``'s layout, and
    ``exponents`` (2, n) their powers of four e and f: T Tᵀ = 4^e G and
    cof(T) cof(T)ᵀ = 4^f H.  Each T is scaled by a power of two, 2^-e, before
    its Gram and its cofactor matrix are taken, and that cofactor matrix by
    another, so every Gram entry is at most 3 and the largest diagonal one at
    least 1/4.  Taken ``_SPECTRUM_CHUNK`` columns at a time."""
    n = mats.shape[-1]
    x = mats.reshape(9, n)
    width = min(n, _SPECTRUM_CHUNK)
    grams, exponents = np.empty((2, 6, n)), np.empty((2, n), dtype=np.intc)
    cof, tmp = np.empty(9 * width), np.empty(width)
    for lo in range(0, n, _SPECTRUM_CHUNK):
        cols = slice(lo, lo + _SPECTRUM_CHUNK)
        m = min(n - lo, _SPECTRUM_CHUNK)
        exponents[0, cols] = _scaled(x[:, cols])
        _gram(x[:, cols], grams[0, :, cols], tmp[:m])
        c = _cofactors(x[:, cols], cof[:9 * m].reshape(9, m), tmp[:m])
        exponents[1, cols] = 2 * exponents[0, cols] + _scaled(c)
        _gram(c, grams[1, :, cols], tmp[:m])
    return grams, exponents


def _congruence(m):
    """The 6×6 matrix of G -> M G Mᵀ on symmetric 3×3 G in ``_gram``'s layout:
    entry ((i, j), (a, b)) is M_ia M_jb + M_ib M_ja, or M_ia M_ja where a = b."""
    mi, mj = m[_GRAM_I], m[_GRAM_J]  # rows i and j of each output entry (i, j)
    cross = mi[:, _GRAM_I] * mj[:, _GRAM_J]
    return np.where(_GRAM_I == _GRAM_J, cross, cross + mi[:, _GRAM_J] * mj[:, _GRAM_I])


def _symmetric(g):
    """The symmetric 3×3 matrices (n, 3, 3) of the columns of ``g`` (6, n)."""
    out = np.empty((g.shape[1], 3, 3))
    out[:, _GRAM_I, _GRAM_J] = g.T
    out[:, _GRAM_J, _GRAM_I] = g.T
    return out


def _congruent_spectra(m, table, log_det, k):
    """Log singular values (3, n) of the words M T of a d = 3 block, one prefix
    word ``m`` (3, 3) followed by every word T of a suffix table, from the
    table's stacked Grams ``table`` (``_gram_table``) and the words' summed
    ``log_det``, with no product M T formed; row i holds log sigma_{i+1}.

    Gram matrices compose by congruence, (M T)(M T)ᵀ = M (T Tᵀ) Mᵀ, and so do
    the cofactor matrices' Grams, since cof(M T) = cof(M) cof(T).  On a Gram's
    6 distinct entries the congruence is a 6×6 matrix (``_congruence``), so
    the block's two Grams travel as one stack, like the table's: each
    ``_SPECTRUM_CHUNK`` columns are one (2, 6, 6) @ (2, 6, chunk) BLAS product
    of the stacked congruences of M and cof(M) with the table's slice, into a
    reused buffer.  M is scaled by a power of two, 2^-a, and its cofactor
    matrix by another; sigma_1² is then the largest eigenvalue of the block's
    Gram, and (sigma_1 sigma_2)² that of its cofactor Gram, both taken by one
    ``_top_eigenvalue`` call on the stack, each times its power of four.
    Columns where either top pair nearly meets take both Grams' eigenvalues
    from one ``np.linalg.eigvalsh`` call.  log sigma_3 is ``log_det`` less
    log sigma_1 sigma_2.  A lost sigma_1 or sigma_1 sigma_2 can only be an
    underflow (the maps are nonsingular) and is refused.

    The block's Gram carries the table Gram's rounding, about eps sigma_1(T)²,
    times sigma_1(M)², so log sigma_1 is known to about eps rho² with
    rho = sigma_1(M) sigma_1(T) / sigma_1(M T), where a composed product M T
    loses about eps rho; log sigma_1 sigma_2 likewise, with the cofactor
    matrices' rho.  rho is 1 where M keeps T's top direction and large where
    M crushes it (900 for diag(0.9, 1e-3, 1e-3) behind a permuted copy,
    about 1e-11 against 1e-13).
    """
    grams, exponents = table
    n = grams.shape[-1]
    x = m.reshape(9, 1).copy()
    a = int(_scaled(x)[0])  # M = 2^a X
    c = _cofactors(x, np.empty((9, 1)), np.empty(1))
    b = 2 * a + int(_scaled(c)[0])  # cof(M) = 2^b C
    congruences = np.stack([_congruence(x.reshape(3, 3)), _congruence(c.reshape(3, 3))])
    width = min(n, _SPECTRUM_CHUNK)
    buffer, tops, gaps = np.empty((2, 6 * width)), np.empty((2, width)), np.empty((2, width))
    work = np.empty((7, 2, width))
    log_sigma = np.empty((3, n))
    for lo in range(0, n, _SPECTRUM_CHUNK):
        cols, w = slice(lo, lo + _SPECTRUM_CHUNK), min(n - lo, _SPECTRUM_CHUNK)
        top, gap = tops[:, :w], gaps[:, :w]
        gram = np.matmul(congruences, grams[:, :, cols], out=buffer[:, :6 * w].reshape(2, 6, w))
        gram = gram.transpose(1, 0, 2)  # (6, 2, w), one row per Gram entry
        _top_eigenvalue(gram, top, gap, work[:, :, :w])
        near = np.flatnonzero(np.any(gap < _CLOSED_FORM_GAP, axis=0))
        if near.size:  # both Grams' near columns in one call, G's then H's
            pairs = np.linalg.eigvalsh(_symmetric(gram[:, :, near].reshape(6, -1)))
            top[:, near] = pairs[:, -1].reshape(2, -1)
        # a lost eigenvalue gives -inf (nan where rounding took it below 0), refused below
        with np.errstate(divide="ignore", invalid="ignore"):
            np.log(top, out=top)
        top *= 0.5
        np.multiply([[a], [b]] + exponents[:, cols], _LN2, out=log_sigma[:2, cols])
        log_sigma[:2, cols] += top
    if not np.all(log_sigma[:2] > -np.inf):
        raise _underflow(k)
    log_sigma[2] = log_det - log_sigma[1]
    log_sigma[1] -= log_sigma[0]
    return log_sigma


def _log_spectra(mats, log_det, k):
    """Log singular values of n level-k products from their entry-major linear
    parts ``mats`` (d, d, n), as a (d, n) array: row i holds every product's
    log sigma_{i+1}, so each column descends.

    d = 1 takes log|t| where the product t is a normal double, and the word's
    summed ``log_det`` where it underflowed, so a d = 1 word is never lost;
    ``mats`` is left as it is.  d = 2 takes sigma_1 = (p + q) / 2 with
    p = |(a + e, c - b)| and q = |(a - e, c + b)| for the product
    [[a, b], [c, e]], each entry one row of ``mats``, and log sigma_2 =
    log|det| - log sigma_1 from the word's summed ``log_det``, which stays
    exact where the product's own sigma_2 or det is lost to cancellation.
    Any other d hands one batched SVD an axis-moved view of ``mats``; its
    (n, d) output is handed out transposed, not copied: sums of 8 or more rows
    of a copy would round differently.  ``_map_words`` sends d >= 4 here: a
    d = 3 block forms no products and takes its spectra from its suffix
    table's Grams (``_congruent_spectra``).  For d >= 2 a zero singular value
    can only be an underflow (the maps are nonsingular) and is refused.
    """
    d = mats.shape[0]
    if d == 1:
        t = np.abs(mats[0])
        with np.errstate(divide="ignore"):  # a t lost to 0 is replaced by its log|det|
            return np.where(t < np.finfo(float).tiny, log_det, np.log(t))
    if d == 2:
        a, b, c, e = mats[0, 0], mats[0, 1], mats[1, 0], mats[1, 1]
        sigma = 0.5 * (np.hypot(a + e, c - b) + np.hypot(a - e, c + b))
    else:
        sigma = np.linalg.svd(np.moveaxis(mats, -1, 0), compute_uv=False).T
    if not np.all(sigma > 0.0):
        raise _underflow(k)
    log_sigma = np.log(sigma)
    return np.stack([log_sigma, log_det - log_sigma]) if d == 2 else log_sigma


# The word sums' recurrence (``_log_sums``): a running sum of weights below
# _SUM_FLOOR is taken afresh, and a run of s steps by one rate only if its
# points lie within _STEP_BUDGET / max|B| of an even progression, so the rate
# moves no log phi_s by more than about _STEP_BUDGET, or within the rounding
# eps * max s of the run's largest s, which moves none by more than the
# rounding of s * B itself.
_SUM_FLOOR = 2.0**-900
_STEP_BUDGET = 2.0**-46
_EPS = float(np.finfo(float).eps)


def _log_sums(log_sigma, s_values, slopes=False):
    """Per s, log sum of phi_s over the words (the columns of ``log_sigma``),
    by a geometric recurrence along each run of s in one piece.

    A negative or nan s is refused first.  The s-values are then taken in
    runs of consecutive values in one piece of ``singular_values._piece``,
    where log phi_s of every word is affine in s with slope row B
    (``_slope``).  The first s of a run is an anchor: ``_log_phi`` gives log
    phi_s (an integer s below d reads its partial sum as it stands, and every
    s shares one dict of the block's partial spectrum sums, each taken once),
    which is shifted by its max, top, and exponentiated into one (n,) buffer
    of weights; the log sum is top + log sum(weights), every bit as a lone s
    gives it.  A run steps when it is evenly spaced, every s within ``_STEP_BUDGET`` / max|B|, or within the
    rounding eps * max s of its largest s, of s_0 + j * delta with delta from
    the run's two ends, and its rate exp(delta * B) grows no weight (s does
    not fall, and no singular value on the row is above 1).  The rate is then
    taken once into a second (n,) buffer, and each later s multiplies the weights
    in place by it and takes one sum: a multiply where an anchor takes a
    subtract and an exp.  Any other run is anchored at every s, and a step
    is an anchor too where the running sum falls below ``_SUM_FLOOR``.  So a
    weight only shrinks between anchors: one that falls below the smallest
    normal double never grows back, and costs at most 2^-1074 against a sum
    of at least 2^-900.  Against evaluating every s afresh, a step's log sum
    then differs by the rounding of the rate, about eps |delta B| per step,
    which over a run is of the order of the rounding of s * B itself, and by
    at most about 2 * max(``_STEP_BUDGET``, eps max|s B|) more for the
    spacing.

    With ``slopes`` the result is (2, len(s_values)): row 0 as above, row 1
    log sum of phi_s * (-d/ds log phi_s), the right derivative, which is
    -log sigma_{m+1} for m <= s < m + 1 <= d and -(1/d) sum log sigma_i for
    s >= d.  It reads the weights the step holds, anchor or not, so row 0
    equals the plain result; it costs one (d, n) @ (n,) product per s, and
    it is -inf where every word's derivative is 0.
    """
    s_values = [_exponent(s) for s in s_values]
    d, n = log_sigma.shape
    out = np.empty((2, len(s_values)) if slopes else len(s_values))
    sums = {}
    weights, rate = np.empty(n), np.empty(n)

    def anchor(s):
        log_phi = _log_phi(log_sigma, s, sums)
        top = np.max(log_phi)
        if top == -np.inf:
            raise ValueError(f"log phi_s at s = {s!r} overflows the double range")
        np.exp(np.subtract(log_phi, top, out=weights), out=weights)
        return top, np.sum(weights)

    def record(i, top, total):
        if not slopes:
            out[i] = top + np.log(total)
            return
        s = s_values[i]
        rows = log_sigma @ weights  # each singular value's weighted log sum
        slope = -(np.sum(rows) / d if s >= d else rows[math.floor(s)])
        with np.errstate(divide="ignore"):
            out[:, i] = top + np.log([total, slope])

    first = 0
    for m, run in itertools.groupby(s_values, functools.partial(_piece, d)):
        run = list(run)
        stepped = False  # whether every s after the run's first steps by ``rate``
        if len(run) > 1:
            row, scale = _slope(log_sigma, m, sums)
            lo, hi = scale * float(np.min(row)), scale * float(np.max(row))
            delta = (run[-1] - run[0]) / (len(run) - 1)
            drift = max(abs(s - (run[0] + j * delta)) for j, s in enumerate(run))
            # evenly spaced, and a rate that grows no weight
            even = drift * max(-lo, hi) <= _STEP_BUDGET or drift <= _EPS * max(run)
            stepped = even and delta * (hi if delta > 0 else lo) <= 0
            if stepped:
                with np.errstate(over="ignore"):  # a vast step: rate 0, then an anchor
                    np.exp(np.multiply(row, delta * scale, out=rate), out=rate)
        for j, s in enumerate(run):
            if j and stepped:
                weights *= rate
                total = np.sum(weights)
                if total < _SUM_FLOOR:
                    top, total = anchor(s)
            else:
                top, total = anchor(s)
            record(first + j, top, total)
        first += len(run)
    return out


_fold = functools.partial(functools.reduce, np.logaddexp)  # block log sums, in word order


def _check_level(tree, k):
    if not 1 <= k <= tree.depth:
        raise ValueError(f"k must lie in 1..{tree.depth}, got {k}")


def _log_sum_branches(terms):
    """log sum exp of (states, branches, s) ``terms`` over the branches, shifted
    by each maximum; a state whose every term is -inf gets log 0 = -inf, which
    warns unless the caller silences division by zero."""
    top = np.max(terms, axis=1)
    shift = np.where(top > -np.inf, top, 0.0)
    return shift + np.log(np.sum(np.exp(terms - shift[:, None]), axis=1))


def _transfer_sums(tree, k, s_values, slopes=False):
    """``partition_sums`` of a d = 1 tree from the level transfer product,
    with no word enumerated.

    phi_s(t) = |t|^s is multiplicative, so S(k, s) = e_rootᵀ M_0(s) ⋯
    M_{k-1}(s) 𝟙, where M_lev(s)[u, v] sums |t|^s over the branches from state
    u at level lev to state v.  The vector is carried in log form from the
    leaves up, in ``_expand_block``'s order: at level k every state holds
    log v = 0, and one level up log v[u] = logsumexp_b (s ℓ[u, b] +
    log v[child[u, b]]), with ℓ = log|t| the letters' ``_log_det``; padded
    branches are -inf.  With ``slopes``, log R, R = -dS/ds, rides beside it:
    log R[u] = logsumexp_b (s ℓ + logaddexp(log R[child], log(-ℓ) + log v[child])),
    whose terms are all nonnegative, so nothing cancels.  Every s is one
    column of a (states, len(s)) array.
    """
    _check_level(tree, k)
    s = np.array(s_values)
    log_v = np.zeros((int(np.max(tree.levels[k - 1]._child)) + 1, len(s)))
    log_r = np.full(log_v.shape, -np.inf)
    # a huge s takes s ℓ, or a sum of them, to -inf, which is refused below;
    # log(-ℓ) of a padded branch is -inf
    with np.errstate(over="ignore", divide="ignore"):
        for tbl in reversed(tree.levels[:k]):
            real = (np.arange(tbl._child.shape[1]) < tbl._sizes[:, None])[..., None]
            scaled = np.full((*tbl._child.shape, len(s)), -np.inf)
            np.multiply(tbl._log_det[..., None], s, out=scaled, where=real)
            below = log_v[tbl._child]
            log_v = _log_sum_branches(scaled + below)
            if slopes:
                log_rate = np.log(-tbl._log_det)[..., None]
                log_r = _log_sum_branches(
                    scaled + np.logaddexp(log_r[tbl._child], log_rate + below))
    log_sum, log_slope = log_v[tree.root_state], log_r[tree.root_state]
    lost = np.flatnonzero(log_sum == -np.inf)
    if lost.size:
        raise ValueError(f"log phi_s at s = {s_values[lost[0]]!r} overflows the double range")
    return np.stack([log_sum, log_slope]) if slopes else log_sum


def _map_words(tree, k, reduce, want_points=False, want_spectra=True):
    """``reduce(log_sigma, points)`` of every block of level-k words, in word order.

    The words are split at one level: the first whose every state has at most
    ``_BLOCK_LIMIT`` level-k descendants (``_suffix_counts``).  A block's words
    are one prefix word to that level followed by every suffix word below the
    prefix's node, and that node's subtree depends on its state alone.  The
    prefixes are one table built from the root (``_expand_block``); then,
    state by state in order of first appearance, the state's suffix table is
    built once, entry-major, and each block at the state is composed from its
    prefix and that table in one ``_compose``.  Only one suffix table is
    alive at a time; a deterministic tree has one state.  ``log_sigma`` is
    the log spectra of the block's words, (d, n) for the block's n words:
    ``_log_spectra`` of the composed linear parts, except for d = 3, where
    each block composes only log|det| (and points) and ``_congruent_spectra``
    takes the spectra from its prefix word and the suffix table's Grams,
    taken once per state (``_gram_table``); with the split at level 0 the
    prefix is the empty word, the identity.  Without ``want_spectra``
    ``log_sigma`` is None and the blocks form neither linear parts nor
    log|det|, and the tables form linear parts only in the prefixes, to map
    the suffixes' points.  ``points`` are the words' points f_word(0),
    entry-major (d, n) (None unless ``want_points``).  Each result is stored
    at its block's index.  A level of more than ``ENUMERATION_CAP`` words is refused, naming the
    largest level within the cap; word counts never decrease with the level,
    since every state has a child.
    """
    _check_level(tree, k)
    counts = tree._suffix_counts(k)
    total = int(counts[0][tree.root_state])
    if total > ENUMERATION_CAP:
        within = next(j for j in range(k) if tree.word_count(j + 1) > ENUMERATION_CAP)
        bits = total.bit_length()  # past 2^64 words a power of two below the count says enough
        raise EnumerationCapExceeded(
            f"level {k} holds {total if bits <= 64 else f'at least 2^{bits - 1}'} words, "
            f"above the cap {ENUMERATION_CAP}; the largest level within the cap is {within}"
        )

    split = next(lev for lev in range(k + 1) if np.max(counts[lev]) <= _BLOCK_LIMIT)
    states, prefixes = _expand_block(tree, 0, tree.root_state, split,
                                     mats=want_spectra or want_points, log_det=want_spectra,
                                     points=want_points, states=True)
    congruent = want_spectra and tree.d == 3

    def work(i, suffix, grams):  # a block's words die with this call, before the next block's
        head = tuple(None if part is None else part[..., i].copy() for part in prefixes)
        mats, log_det, points = _compose(head, suffix)
        if congruent:
            log_sigma = _congruent_spectra(head[0], grams, log_det, k)
        else:
            log_sigma = _log_spectra(mats, log_det, k) if want_spectra else None
        return reduce(log_sigma, points)

    out = [None] * len(states)
    for state in dict.fromkeys(states.tolist()):
        suffix = _expand_block(tree, split, state, k, mats=want_spectra, log_det=want_spectra,
                               points=want_points)[1]
        grams = None
        if congruent:  # the blocks need the table's Grams, not its linear parts
            grams, suffix = _gram_table(suffix[0]), (None, *suffix[1:])
        for i in np.flatnonzero(states == state):
            out[i] = work(i, suffix, grams)
        del suffix, grams  # before the next state's table is built
    return out


def partition_sums(
    tree: CodeTreeRealization,
    k: int,
    s_values,
    slopes: bool = False,
) -> np.ndarray:
    """log S(k, s) for every s in ``s_values`` in one pass.

    S(k, s) is the sum over level-k words of phi_s of the composed linear
    part (1 at the empty level k = 0); its log is finite however small S is.
    With ``slopes`` the result is (2, len(s_values)), and row 1 is the log
    of -dS/ds (the right derivative), the slope sum of ``_log_sums``.  A
    negative or nan s is refused first, then a k outside 0..depth.  A d = 1
    tree takes the level transfer product (``_transfer_sums``), which
    enumerates no word, so ``ENUMERATION_CAP`` does not apply; d >= 2 takes
    one streamed enumeration.
    """
    s_values = [_exponent(s) for s in s_values]
    if k == 0:  # S = 1 and dS/ds = 0
        zeros = np.zeros(len(s_values))
        return np.stack([zeros, zeros - np.inf]) if slopes else zeros
    if tree.d == 1:
        return _transfer_sums(tree, k, s_values, slopes)
    return _fold(_map_words(tree, k, lambda ls, _: _log_sums(ls, s_values, slopes)))


def _level_sums(tree, k):
    """The passes of a search over level k: a function taking s-values to
    ``partition_sums(tree, k, s_values, slopes=True)``, every bit as that.

    A d >= 2 level of at most ``_SPECTRUM_CACHE_WORDS`` words keeps its
    blocks' log spectra, enumerated once here, and each pass folds
    ``_log_sums`` over them; any other level streams every pass through
    ``partition_sums``, looked up at each call, which in d = 1 is the
    transfer product.
    """
    if tree.d > 1 and tree.word_count(k) <= _SPECTRUM_CACHE_WORDS:
        blocks = _map_words(tree, k, lambda log_sigma, _: log_sigma)
        return lambda s_values: _fold([_log_sums(block, s_values, slopes=True) for block in blocks])
    return lambda s_values: partition_sums(tree, k, s_values, slopes=True)


def enumerate_points(
    tree: CodeTreeRealization,
    k: int,
    s: float = 0.0,
) -> tuple[np.ndarray, np.ndarray]:
    """All level-k cylinder points f_word(0) with normalized phi_s weights.

    At s = 0 the weights are uniform (phi_0 is 1) and no spectra are taken.
    Weights are normalized from exp(log phi_s - max), whose largest entry is 1.
    """
    s = _exponent(s)
    uniform = s == 0.0

    def weigh(log_sigma, points):
        return points, np.zeros(points.shape[1]) if uniform else _log_phi(log_sigma, s)

    parts = _map_words(tree, k, weigh, want_points=True, want_spectra=not uniform)
    points = np.concatenate([p.T for p, _ in parts], axis=0)  # word-major, (n, d)
    log_w = np.concatenate([w for _, w in parts])
    top = np.max(log_w)
    if not np.isfinite(top):
        raise ValueError(f"log phi_s at s = {s!r} of the level-{k} words is not finite: "
                         "it overflows the double range")
    weights = np.exp(log_w - top)
    return points, weights / np.sum(weights)
