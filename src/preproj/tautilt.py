"""The ideal semigroup <I_1, ..., I_n> inside Pi, support tau-tilting pairs
(I_w, P_w), left mutation by minimal approximations, the exchange quiver, and the classification
report tying the three together.

``IdealSemigroup`` is the context of the ideal layer, created and owned by
the caller: it holds the ``BlockTable``, the I_w memo and the Nakayama
permutation of one algebra and one Weyl group.  Nothing on the algebra
refers to it, so dropping the context frees its blocks, their modules and
everything memoized on them.

An ideal is the n-tuple of the ids of its blocks e_vI, which
``BlockTable`` interns once per context as echelon rows in e_vPi, so
equality is exact and canonical and every ideal operation works inside one
e_vPi.  I_w is memoized per Weyl element; the recursion follows the
canonical reduced word by left extension (I_w = I_i I_{s_i w}), which
changes block i only, while ``ideal_product`` multiplies block rows and
serves as the independent route for the 0-Hecke consistency checks.

The block e_v I_w depends only on w^-1 omega_v, so a B4 run meets 76
distinct nonzero blocks among its 384 x 4 pairs (w, v).  ``Ideal.block``
builds the module of each block once, so everything memoized on a module
(its presentation, tau, series, indecomposability, locally free rank) and
its display name are computed once per distinct block.  Isomorphic blocks
are the same block, so ``ModuleNamer`` names them by identity and rank
tests, without an isomorphism search.

Left mutation finds the minimal left approximation in one sweep over the
basis maps X -> U_k; the only seeded choices in this module are the edges
sampled by ``mutation_graph`` and the Demazure pairs sampled by
``classification_report``.
"""

from __future__ import annotations

import functools
import random
from dataclasses import dataclass, field as dc_field

from .coxeter import WeylElement, WeylGroup, demazure_product
from .errors import NotDynkin, NotMutable, ReportFailure, VerificationFailed
from .linalg import Subspace
from .pathalg import FiniteDimAlgebra
from .repmod import (
    ModuleRep,
    auslander_reiten_translate,
    direct_sum,
    hom_space,
    in_fac,
    is_indecomposable,
    is_isomorphic,
    locally_free_rank,
    module_from_subspace,
    nakayama,
    quotient_module,
    zero_module,
)

# edges that mutation_graph(validate="sample") checks
EDGE_SAMPLE = 20


class BlockTable:
    """The distinct blocks e_vI of the ideals of one context, and the
    memoized steps between them.

    Block ``b`` is e_vI for v = ``vertex[b]``, stored as the echelon rows
    ``rows[b]`` of e_vI in the coordinates of e_vPi: the basis paths
    ``by_target[v]`` in ascending order.  A two-sided ideal is the direct
    sum of its blocks, and its global echelon form is the disjoint union of
    theirs, so equal blocks get one id and an ideal is the n-tuple of its
    block ids.  Each row lies in one e_vPie_u, which the steps below use."""

    def __init__(self, algebra: FiniteDimAlgebra):
        self.algebra = algebra
        self.vertex = []    # block id -> v
        self.rows = []      # block id -> echelon rows in e_vPi coordinates
        self.vectors = []   # block id -> the rows as sparse algebra coordinates
        self.modules = []   # block id -> ModuleRep, built on first use
        self.left = {}      # (i, block ids at the neighbours of i) -> block id
        self.right = {}     # (block id, i) -> block id
        self._ids = {}      # (v, rows) -> block id
        self._local = {v: {g: k for k, g in enumerate(algebra.by_target[v])}
                       for v in range(1, algebra.n + 1)}

    def local(self, v: int, x: dict):
        """The sparse element ``x`` of e_vPi in the coordinates of e_vPi."""
        vec = [self.algebra.field.zero] * len(self._local[v])
        index = self._local[v]
        for g, c in x.items():
            vec[index[g]] = c
        return vec

    def span(self, v: int, vectors) -> int:
        """The id of the block spanned by sparse elements of e_vPi."""
        sub = Subspace(len(self._local[v]), self.algebra.field)
        for x in vectors:
            if x:
                sub.add(self.local(v, x))
        return self.intern(v, sub)

    def intern(self, v: int, sub: Subspace) -> int:
        rows = tuple(map(tuple, sub.rows))
        b = self._ids.get((v, rows))
        if b is None:
            b = self._ids[v, rows] = len(self.rows)
            cols = self.algebra.by_target[v]
            self.vertex.append(v)
            self.rows.append(rows)
            self.vectors.append([{cols[k]: c for k, c in enumerate(row) if c}
                                 for row in rows])
            self.modules.append(None)
        return b

    def module(self, b: int):
        """The right module of block ``b``, or None when the block is zero."""
        mod = self.modules[b]
        if mod is None and self.rows[b]:
            mod = self.modules[b] = module_from_subspace(self.algebra,
                                                         self.vectors[b])
        return mod


class Ideal:
    """A two-sided ideal of Pi as the n-tuple of the ids of its blocks e_vI
    in a ``BlockTable``: equal ideals have equal tuples."""

    def __init__(self, table: BlockTable, blocks: tuple, word=None):
        self.algebra = table.algebra
        self.table = table
        self.blocks = blocks
        self.word = word

    @property
    def dim(self) -> int:
        return sum(len(self.table.rows[b]) for b in self.blocks)

    def __eq__(self, other):
        return (isinstance(other, Ideal) and self.table is other.table
                and self.blocks == other.blocks)

    def __hash__(self):
        return hash(self.blocks)

    def block(self, v: int):
        """The right module e_v I (None when zero), shared per table: equal
        blocks of different ideals are one ``ModuleRep``."""
        return self.table.module(self.blocks[v - 1])

    def module(self) -> ModuleRep:
        """The ideal as a right module (direct sum of its blocks)."""
        blocks = (self.block(v) for v in range(1, self.algebra.n + 1))
        return direct_sum(self.algebra, [b for b in blocks if b is not None])[0]

    def __repr__(self):
        w = "".join(map(str, self.word)) if self.word is not None else "?"
        return f"Ideal(dim={self.dim}, w={w or 'e'})"


def full_ideal(table: BlockTable) -> Ideal:
    algebra = table.algebra
    one = algebra.field.one
    blocks = tuple(table.span(v, ({g: one} for g in algebra.by_target[v]))
                   for v in range(1, algebra.n + 1))
    return Ideal(table, blocks, word=())


def vertex_ideal(table: BlockTable, vertices) -> Ideal:
    """Pi (1 - sum_{i in S} e_i) Pi: block v is the span of the products
    p q of basis paths with p in e_v Pi e_j and j not in S."""
    S = set(vertices)
    algebra = table.algebra
    blocks = tuple(
        table.span(v, (algebra.mul_basis(p, q)
                       for p in algebra.by_target[v]
                       if algebra.source[p] not in S
                       for q in algebra.by_target[algebra.source[p]]))
        for v in range(1, algebra.n + 1))
    word = (next(iter(S)),) if len(S) == 1 else None
    return Ideal(table, blocks, word=word)


def ideal_product(I: Ideal, J: Ideal) -> Ideal:
    """IJ block by block: e_v(IJ) = (e_vI)J is spanned by the products of
    the rows of e_vI with the rows of J, each row of e_vIe_u meeting only
    the rows of e_uJ."""
    A = I.algebra
    table = I.table
    blocks = []
    for b in I.blocks:
        prods = []
        for x in table.vectors[b]:
            u = A.source[next(iter(x))]
            prods.extend(A.mul_coords(x, y)
                         for y in table.vectors[J.blocks[u - 1]])
        blocks.append(table.span(table.vertex[b], prods))
    word = None
    if I.word is not None and J.word is not None:
        word = I.word + J.word
    return Ideal(table, tuple(blocks), word=word)


def extend_left(i: int, J: Ideal) -> Ideal:
    """I_i J = Pi (1 - e_i) J: block i becomes e_i Pi (1 - e_i) J, and the
    other blocks are those of J.

    A path into i from another vertex is eps_i^k a q with a a non-loop
    arrow into i, and q J lies in e_{s(a)} J, so block i is spanned by the
    eps_i^k a y with y in e_{s(a)} J.  The relations are homogeneous in the
    number of non-loop arrows, so the basis paths p of e_i Pi e_j with one
    non-loop arrow span the eps_i^k a eps_j^m, and block i is the span of
    p x over the neighbours j of i and the rows x of e_j J.  That span is
    already a right module, as e_j J is.  Memoized on i and the blocks of J
    at the neighbours of i."""
    algebra = J.algebra
    table = J.table
    neighbours = algebra.data.cartan.neighbors(i)
    key = (i, tuple(J.blocks[j - 1] for j in neighbours))
    b = table.left.get(key)
    if b is None:
        arrows = algebra.quiver.arrows
        one = algebra.field.one
        prods = []
        for p in algebra.by_target[i]:
            j = algebra.source[p]
            if j != i and sum(not arrows[a].is_loop
                              for a in algebra.basis[p][1]) == 1:
                prods.extend(algebra.mul_coords({p: one}, x)
                             for x in table.vectors[J.blocks[j - 1]])
        b = table.left[key] = table.span(i, prods)
    blocks = J.blocks[:i - 1] + (b,) + J.blocks[i:]
    return Ideal(table, blocks)


def extend_right(J: Ideal, i: int) -> Ideal:
    """J I_i = J (1 - e_i) Pi, block by block: e_v(J I_i) is the right
    closure of the rows of e_v J with source != i, under multiplication by
    arrows inside e_v Pi.  Memoized on (block, i)."""
    table = J.table
    return Ideal(table, tuple(_right_step(table, b, i) for b in J.blocks))


def _right_step(table: BlockTable, b: int, i: int) -> int:
    out = table.right.get((b, i))
    if out is None:
        A = table.algebra
        v = table.vertex[b]
        arrows = A.arrow_coords
        sub = Subspace(len(A.by_target[v]), A.field)
        work = [x for x in table.vectors[b] if A.source[next(iter(x))] != i]
        for x in work:
            sub.add(table.local(v, x))
        while work:
            x = work.pop()
            u = A.source[next(iter(x))]
            for a in A.quiver.arrows:
                if a.target != u:
                    continue
                prod = A.mul_coords(x, arrows[a.index])
                if prod and sub.add(table.local(v, prod)):
                    work.append(prod)
        out = table.right[b, i] = table.intern(v, sub)
    return out


class IdealSemigroup:
    """The ideal layer of one algebra and one Weyl group: the ``BlockTable``,
    I_w memoized per Weyl element, and the Nakayama permutation."""

    def __init__(self, algebra: FiniteDimAlgebra, weyl: WeylGroup):
        self.algebra = algebra
        self.weyl = weyl
        self.table = BlockTable(algebra)
        self._cache = {}

    @functools.cached_property
    def sigma(self):
        """The Nakayama permutation: soc(e_i Pi) = S_{sigma(i)}."""
        return nakayama(self.algebra)

    def generator(self, i: int) -> Ideal:
        return self.of_element(self.weyl.simple(i))

    def of_element(self, w: WeylElement) -> Ideal:
        cached = self._cache.get(w.matrix)
        if cached is not None:
            return cached
        if w.length == 0:
            ideal = full_ideal(self.table)
        else:
            i = w.word[0]
            rest = self.weyl.left_mul(i, w)
            ideal = extend_left(i, self.of_element(rest))
            ideal.word = w.word
        self._cache[w.matrix] = ideal
        return ideal


# ---------------------------------------------------------------------------
# module naming (for graph labels and classification lists)
# ---------------------------------------------------------------------------

class ModuleNamer:
    """Stable display names: e{i}P, E{i}, e{i}I{i}, then e{v}Iw<word>.

    Isomorphic blocks are one object.  Pi is selfinjective, so an
    isomorphism between blocks e_vI_w and e_uI_x (submodules of e_vPi and
    e_uPi) matches their simple socles, which forces u = v, and extends to
    left multiplication by some x in e_vPi e_v.  That maps e_vI_w into
    itself, so e_uI_x lies in e_vI_w, and equal dimensions make the two
    blocks equal.  Hence a block is e{v}P iff it *is* e_vI_e and e{v}I{v} iff
    it *is* e_vI_v (one table per context), and it is E{i} iff its locally
    free rank is delta_i: dimension vector c_i delta_i and eps_i one Jordan
    block, which is E_i up to a change of basis.

    A namer refers to its context but the context never to a namer, so the
    two form no reference cycle; each caller that names blocks makes one."""

    def __init__(self, semigroup: IdealSemigroup):
        self.semigroup = semigroup
        self._names = {}  # block module -> name

    def name_block(self, vertex: int, word, mod: ModuleRep) -> str:
        """Name of the block ``mod = I_w.block(vertex)``, memoized per
        block."""
        name = self._names.get(mod)
        if name is None:
            name = self._names[mod] = self._name(vertex, word, mod)
        return name

    def _name(self, vertex: int, word, mod: ModuleRep) -> str:
        sg = self.semigroup
        if mod is sg.of_element(sg.weyl.identity).block(vertex):
            return f"e{vertex}P"
        rank = locally_free_rank(mod)
        if rank is not None and sum(rank) == 1:
            return f"E{rank.index(1) + 1}"
        if mod is sg.generator(vertex).block(vertex):
            return f"e{vertex}I{vertex}"
        return f"e{vertex}Iw{''.join(map(str, word))}"


# ---------------------------------------------------------------------------
# support tau-tilting pairs
# ---------------------------------------------------------------------------

@dataclass
class SttPair:
    """(M, P): M a direct sum of ideal blocks, P a projective multiplicity-
    free complement with Hom(P, M) = 0 and |M| + |P| = n."""

    algebra: FiniteDimAlgebra
    summands: list                 # indecomposable ModuleReps
    projective_vertices: tuple     # j with e_j Pi a summand of P
    word: tuple = None
    block_vertices: tuple = None   # for ideal pairs: vertex of each summand

    @property
    def module_count(self):
        return len(self.summands)

    def module(self) -> ModuleRep:
        if not self.summands:
            return zero_module(self.algebra)
        total, _ = direct_sum(self.algebra, self.summands)
        return total

    def module_dims(self):
        out = [0] * self.algebra.n
        for s in self.summands:
            out = [a + b for a, b in zip(out, s.dims)]
        return out


def stt_pair(semigroup: IdealSemigroup, w: WeylElement) -> SttPair:
    """(I_w, P_w) with P_w = (+)_{e_i I_w = 0} e_{sigma(i)} Pi."""
    algebra = semigroup.algebra
    if not algebra.dynkin:
        raise NotDynkin("support tau-tilting pairs require Dynkin type")
    ideal = semigroup.of_element(w)
    nak = semigroup.sigma
    summands = []
    verts = []
    proj = []
    for i in range(1, algebra.n + 1):
        blk = ideal.block(i)
        if blk is None:
            proj.append(nak.apply(i))
        else:
            summands.append(blk)
            verts.append(i)
    return SttPair(algebra, summands, tuple(sorted(proj)), word=w.word,
                   block_vertices=tuple(verts))


def verify_stt(pair: SttPair):
    """Checks Hom(M, tau M) = 0, Hom(P, M) = 0, |M| + |P| = n, and
    indecomposability of each summand.  Returns (ok, reasons)."""
    reasons = []
    A = pair.algebra
    if pair.module_count + len(pair.projective_vertices) != A.n:
        reasons.append("|M| + |P| != n")
    dims = pair.module_dims()
    for j in pair.projective_vertices:
        if dims[j - 1]:
            reasons.append(f"Hom(e{j}P, M) != 0")
    taus = [auslander_reiten_translate(s) for s in pair.summands]
    for a, s in enumerate(pair.summands):
        if not is_indecomposable(s):
            reasons.append(f"summand {a} decomposable")
        for b, t in enumerate(taus):
            if hom_space(s, t).dim:
                reasons.append(f"Hom(M_{a}, tau M_{b}) != 0")
    return (not reasons), reasons


def left_mutation(pair: SttPair, vertex_or_index) -> SttPair:
    """Left mutation at one indecomposable summand of M.

    The exchange: take the minimal left add(U)-approximation f : X -> U',
    set Y = coker f; the new pair is (U, P + e_j Pi) when Y = 0 and
    (U + Y, P) otherwise.  In general Y = Y'^m; the package needs m = 1 and
    fails with the dimension vector of Y as witness when Y decomposes."""
    A = pair.algebra
    if pair.block_vertices and vertex_or_index in pair.block_vertices:
        idx = pair.block_vertices.index(vertex_or_index)
    else:
        idx = vertex_or_index
    X = pair.summands[idx]
    others = [s for t, s in enumerate(pair.summands) if t != idx]
    if others:
        U, _ = direct_sum(A, others)
    else:
        U = zero_module(A)
    if in_fac(U, X):
        raise NotMutable("summand lies in Fac of the complement; "
                         "only a right mutation exists here")
    copies = _minimal_approximation(A, X, others)
    new_summands = list(others)
    if not copies:
        Y = zero_module(A)
    else:
        target_mods = [others[k] for k, _ in copies]
        T, offsets = direct_sum(A, target_mods)
        images = {}
        for v in range(1, A.n + 1):
            sub = Subspace(T.dims[v - 1], A.field)
            for col in range(X.dims[v - 1]):
                vec = [A.field.zero] * T.dims[v - 1]
                for (k, h), off in zip(copies, offsets):
                    block_col = h[v].col(col)
                    o = off[v - 1]
                    for r, c in enumerate(block_col):
                        vec[o + r] = c
                sub.add(vec)
            images[v] = sub
        Y = quotient_module(T, images)
    if Y.total_dim == 0:
        udims = [0] * A.n
        for s in others:
            udims = [a + b for a, b in zip(udims, s.dims)]
        candidates = [j for j in range(1, A.n + 1)
                      if j not in pair.projective_vertices and udims[j - 1] == 0]
        if len(candidates) != 1:
            raise VerificationFailed(
                f"completed mutation has {len(candidates)} projective "
                "candidates; expected exactly one")
        proj = tuple(sorted(pair.projective_vertices + (candidates[0],)))
        return SttPair(A, new_summands, proj)
    if not is_indecomposable(Y):
        raise VerificationFailed("mutation cokernel is decomposable",
                                 witness=Y.dims)
    new_summands.append(Y)
    return SttPair(A, new_summands, pair.projective_vertices)


def _minimal_approximation(A, X, others):
    """The maps (k, f : X -> U_k) of a minimal left add(U)-approximation.

    One sweep over the basis maps of each Hom(X, U_k): the map c is dropped
    when it lies in the span of g f_p over the maps p != c still kept and
    every g in Hom(U_{k_p}, U_{k_c}).  Dropping a map only shrinks these
    spans, so a map kept earlier never becomes droppable later."""
    copies = [(k, f) for k, Uk in enumerate(others)
              for f in hom_space(X, Uk).maps]
    homs = {}  # (l, k) -> basis of Hom(U_l, U_k)
    kept = list(range(len(copies)))
    for c, (kc, fc) in enumerate(copies):
        span = Subspace(
            sum(others[kc].dims[v] * X.dims[v] for v in range(A.n)), A.field)
        for p in kept:
            kp, fp = copies[p]
            if p == c:
                continue
            if (kp, kc) not in homs:
                homs[kp, kc] = hom_space(others[kp], others[kc]).maps
            for g in homs[kp, kc]:
                span.add(_flatten_map({v: g[v].mul(fp[v]) for v in g}))
        if span.contains(_flatten_map(fc)):
            kept.remove(c)
    return [copies[c] for c in kept]


def _flatten_map(h):
    """The entries of a per-vertex map, vertex by vertex and row by row."""
    return [c for v in sorted(h) for row in h[v].rows for c in row]


def pairs_isomorphic(p1: SttPair, p2: SttPair) -> bool:
    """Same projective part; summands match bijectively up to isomorphism.

    The summands must be indecomposable, as ``is_isomorphic`` requires."""
    if p1.projective_vertices != p2.projective_vertices:
        return False
    if len(p1.summands) != len(p2.summands):
        return False
    unused = list(range(len(p2.summands)))
    for s in p1.summands:
        hit = None
        for t in unused:
            if is_isomorphic(s, p2.summands[t]):
                hit = t
                break
        if hit is None:
            return False
        unused.remove(hit)
    return True


# ---------------------------------------------------------------------------
# the exchange quiver
# ---------------------------------------------------------------------------

@dataclass
class GraphNode:
    word: tuple
    summands: list       # display names, block-vertex ascending
    dims: list           # per-summand total dimension
    rank_vectors: list   # per-summand locally-free rank or None
    projective: list     # display names of the projective part


@dataclass
class MutationGraph:
    nodes: dict          # word-string -> GraphNode
    edges: list          # (from word-string, to word-string, label i)

    def node_id(self, word_str: str) -> str:
        return "w" + word_str

    def to_dot(self) -> str:
        lines = ["digraph stt {", "  rankdir=LR;"]
        for ws in sorted(self.nodes):
            node = self.nodes[ws]
            label = "+".join(node.summands) if node.summands else "0"
            lines.append(f'  "{self.node_id(ws)}" [label="{label}"];')
        for (src, dst, i) in self.edges:
            lines.append(
                f'  "{self.node_id(src)}" -> "{self.node_id(dst)}" [label="{i}"];')
        lines.append("}")
        return "\n".join(lines)

    def to_json_dict(self) -> dict:
        nodes = []
        for ws in sorted(self.nodes):
            n = self.nodes[ws]
            nodes.append({
                "word": ws,
                "summands": list(n.summands),
                "dims": list(n.dims),
                "rank_vectors": [list(r) if r is not None else None
                                 for r in n.rank_vectors],
                "projective": list(n.projective),
            })
        edges = [{"from": a, "to": b, "label": i} for (a, b, i) in self.edges]
        return {"nodes": nodes, "edges": edges}


def _word_str(word) -> str:
    return "".join(map(str, word))


def mutation_graph(semigroup: IdealSemigroup, validate: str = "none",
                   seed: int = 0) -> MutationGraph:
    """Nodes I_w, edges I_w -> I_{s_i w} for l(s_i w) > l(w), labelled i.

    validate="all" reproduces every edge by an independent
    approximation-theoretic left mutation; validate="sample" checks
    ``EDGE_SAMPLE`` edges drawn with ``seed``."""
    algebra, weyl = semigroup.algebra, semigroup.weyl
    if not algebra.dynkin:
        raise NotDynkin("the exchange quiver requires Dynkin type")
    if not weyl.complete:
        raise NotDynkin("the exchange quiver requires the full Weyl group")
    namer = ModuleNamer(semigroup)
    nak = semigroup.sigma
    nodes = {}
    ascents = []  # (w, s_i w, i) with l(s_i w) > l(w)
    for w in weyl:
        ideal = semigroup.of_element(w)
        names = []
        dims = []
        ranks = []
        for v in range(1, algebra.n + 1):
            blk = ideal.block(v)
            if blk is None:
                continue
            names.append(namer.name_block(v, w.word, blk))
            dims.append(blk.total_dim)
            ranks.append(locally_free_rank(blk))
        proj = [f"e{nak.apply(i)}P" for i in range(1, algebra.n + 1)
                if ideal.block(i) is None]
        nodes[_word_str(w.word)] = GraphNode(w.word, names, dims, ranks,
                                             sorted(proj))
        for i in range(1, algebra.n + 1):
            v = weyl.left_mul(i, w)
            if v.length > w.length:
                ascents.append((w, v, i))
    edges = [(_word_str(w.word), _word_str(v.word), i) for w, v, i in ascents]
    graph = MutationGraph(nodes, edges)
    # regularity: each node meets exactly n edges
    incident = {ws: 0 for ws in nodes}
    for (a, b, _) in edges:
        incident[a] += 1
        incident[b] += 1
    bad = {ws: k for ws, k in incident.items() if k != algebra.n}
    if bad:
        raise VerificationFailed(f"exchange quiver is not {algebra.n}-regular",
                                 witness=bad)
    if validate != "none":
        to_check = ascents
        if validate == "sample" and len(to_check) > EDGE_SAMPLE:
            to_check = random.Random(seed).sample(to_check, EDGE_SAMPLE)
        for w, v, i in to_check:
            _check_edge(semigroup, w, v, i)
    return graph


def _check_edge(semigroup: IdealSemigroup, w: WeylElement, v: WeylElement,
                i: int):
    """Left mutation of (I_w, P_w) at i is (I_v, P_v), for v = s_i w."""
    pair = stt_pair(semigroup, w)
    expected = stt_pair(semigroup, v)
    mutated = left_mutation(pair, i)
    if not pairs_isomorphic(mutated, expected):
        raise VerificationFailed(
            f"left mutation does not reproduce edge {_word_str(w.word)} -> "
            f"{_word_str(v.word)} (label {i})")


# ---------------------------------------------------------------------------
# classification report
# ---------------------------------------------------------------------------

@dataclass
class ClassificationReport:
    group_order: int
    psi_well_defined: bool
    psi_injective: bool
    stt_count: int
    all_pairs_valid: bool
    tau_rigid_modules: list      # (name, total dim, rank vector or None)
    demazure_checked: int
    demazure_consistent: bool
    all_blocks_locally_free: bool  # observed, not asserted
    failures: list = dc_field(default_factory=list)

    @property
    def ok(self):
        return not self.failures


def classification_report(semigroup: IdealSemigroup,
                          seed: int = 0) -> ClassificationReport:
    """(i) psi well-defined over every reduced word, (ii) injective,
    (iii) every (I_w, P_w) a valid pair, (iv) the block list up to iso,
    (v) 0-Hecke consistency of the product.  Raises ``ReportFailure``, with
    the report attached, when any of them fails."""
    algebra, weyl = semigroup.algebra, semigroup.weyl
    if not algebra.dynkin:
        raise NotDynkin("classification requires Dynkin type")
    namer = ModuleNamer(semigroup)
    failures = []
    # (i) every reduced word yields the same ideal: every weak-order ascent
    # u -> u s_i satisfies extend_right(I_u, i) == I_{u s_i}; induction over
    # prefixes then covers every reduced word of every element.
    well_defined = True
    for u in weyl:
        iu = semigroup.of_element(u)
        for i in range(1, algebra.n + 1):
            v = weyl.right_mul(u, i)
            if v.length < u.length:
                continue
            via_product = extend_right(iu, i)
            if via_product != semigroup.of_element(v):
                well_defined = False
                failures.append(
                    f"I_({_word_str(u.word)}) * I_{i} != I_({_word_str(v.word)})")
    # (ii) injectivity
    keys = {semigroup.of_element(w).blocks for w in weyl}
    injective = len(keys) == weyl.order
    if not injective:
        failures.append(f"only {len(keys)} distinct ideals for {weyl.order} elements")
    # (iii) pairs
    pairs_ok = True
    blocks = []
    lf_ok = True
    for w in weyl:
        pair = stt_pair(semigroup, w)
        ok, reasons = verify_stt(pair)
        if not ok:
            pairs_ok = False
            failures.append(f"pair at {_word_str(w.word) or 'e'}: {reasons}")
        for v, s in zip(pair.block_vertices, pair.summands):
            blocks.append((v, w.word, s))
            if locally_free_rank(s) is None:
                lf_ok = False
    # (iv) dedupe blocks by isomorphism through their stable names
    seen = {}
    for v, word, mod in blocks:
        name = namer.name_block(v, word, mod)
        if name not in seen:
            seen[name] = (name, mod.total_dim, locally_free_rank(mod))
    tau_rigid = sorted(seen.values())
    # (v) Demazure consistency
    elements = weyl.sorted_elements()
    if weyl.order <= 12:
        pair_list = [(u, v) for u in elements for v in elements]
    else:
        rng = random.Random(seed)
        pair_list = [(rng.choice(elements), rng.choice(elements))
                     for _ in range(200)]
    demazure_ok = True
    for u, v in pair_list:
        prod = ideal_product(semigroup.of_element(u), semigroup.of_element(v))
        target = semigroup.of_element(demazure_product(weyl, u, v))
        if prod != target:
            demazure_ok = False
            failures.append(
                f"I_{_word_str(u.word)} I_{_word_str(v.word)} != I_(u*v)")
    report = ClassificationReport(
        group_order=weyl.order,
        psi_well_defined=well_defined,
        psi_injective=injective,
        stt_count=len(keys),
        all_pairs_valid=pairs_ok,
        tau_rigid_modules=tau_rigid,
        demazure_checked=len(pair_list),
        demazure_consistent=demazure_ok,
        all_blocks_locally_free=lf_ok,
        failures=failures,
    )
    if failures:
        raise ReportFailure("classification report failed", failures, report)
    return report
