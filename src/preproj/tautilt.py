"""The ideal semigroup <I_1, ..., I_n> inside Pi, support tau-tilting pairs
(I_w, P_w), left mutation by minimal approximations, the exchange quiver, and the classification
report tying the three together.

``IdealSemigroup`` is the context of the ideal layer, created and owned by
the caller: it holds the ``BlockTable``, the I_w memo and the Nakayama
permutation of one algebra and one Weyl group.  Nothing on the algebra
refers to it, so dropping the context frees its blocks, their modules and
everything memoized on them.

An ideal is the n-tuple of the ids of its blocks e_vI, which
``BlockTable`` interns once per context as submodules of e_vPi (one
echelon ``Subspace`` per vertex, shared with the block's module), so
equality is exact and canonical and every ideal operation works inside one
e_vPi.  The left and right steps close a block under one matrix of the
algebra's action tables.  I_w is memoized per Weyl element and built by
the descent rule of ``IdealSemigroup.of_element``, which runs one left
extension per distinct block, while ``ideal_product`` multiplies sparse
block rows and serves as the independent route for the idempotent checks
I_i I_i = I_i of ``classification_report``.

The block e_v I_w depends only on w^-1 omega_v, so a B4 run meets 76
distinct nonzero blocks among its 384 x 4 pairs (w, v).  A pair is read by
block id (``pair_blocks``) and ``ModuleNamer`` displays a block from its
echelon spaces; ``BlockTable.module`` builds a block's module on first use,
for ``stt_pair``, that is for ``verify_stt`` and left mutation.  So
everything memoized on a module (presentation, series, indecomposability,
locally free rank) is computed once per distinct block, and the report
tests Hom(M_a, tau M_b) = 0 once per ordered pair of blocks, on the
presentation of M_b (Adachi-Iyama-Reiten, Prop. 2.4), building no tau.

Left mutation finds the minimal left approximation in one sweep over the
basis maps X -> U_k, compared by their values on the generators of X, and
keeps the vertex of every summand, so a mutated pair can be mutated again.
A summand or a mutation cokernel is indecomposable when its socle is
simple, which is exact on blocks and on tau-rigid modules (see
``repmod.is_indecomposable``).
An edge I_w -> I_{s_i w} changes block i only.  The checked exchange
quiver (``mutation_graph``) walks the ascents once, lazily, checking that
on every edge, and reproduces a sample of the edges by left mutation,
whose check compares the other summands by identity and the exchanged one
by one isomorphism test.  It names no block; the display (``graph_nodes``,
``exchange_graph``) is built only where printed.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

from .coxeter import WeylElement, WeylGroup
from .errors import NotDynkin, NotMutable, ReportFailure, VerificationFailed
from .linalg import Matrix, Subspace
from .pathalg import FiniteDimAlgebra
from .repmod import (
    direct_sum,
    hom_space,
    hom_to_tau_vanishes,
    in_fac,
    is_indecomposable,
    is_isomorphic,
    locally_free_rank,
    minimal_projective_presentation,
    module_from_subspace,
    nakayama,
    quotient_module,
    regular_module,
)

# the most ascents that mutation_graph reproduces by left mutation
EDGE_SAMPLE = 20


class BlockTable:
    """The distinct blocks e_vI of the ideals of one context, and the
    memoized steps between them.

    Block ``b`` is e_vI for v = ``vertex[b]``, a submodule of e_vPi stored
    as one echelon ``Subspace`` per vertex u, ``spaces[b][u]``, in the
    paths of e_vPi e_u; its module ``modules[b]`` is the submodule of e_vPi
    on those spaces.  A two-sided ideal is the direct sum of its blocks and
    a block the sum of its pieces, so the rows are canonical: equal blocks
    get one id and an ideal is the n-tuple of its block ids.  Blocks share
    their interned pieces, so no ``Subspace`` here is ever mutated.
    ``full[v - 1]`` is the block e_vPi, whose module is the regular module,
    acting by ``algebra.right_action[v]``."""

    def __init__(self, algebra: FiniteDimAlgebra):
        self.algebra = algebra
        self.vertex = []    # block id -> v
        self.spaces = []    # block id -> u -> Subspace of e_vI e_u
        self.modules = []   # block id -> ModuleRep; e_vPi at once, the
                            # others on first use
        self.right = {}     # (block id, i) -> block id
        self._ids = {}      # (v, echelon rows) -> block id
        one = algebra.field.one
        self.full = tuple(self.span(v, ({g: one} for g in algebra.by_target[v]))
                          for v in range(1, algebra.n + 1))
        for v, b in enumerate(self.full, 1):
            self.modules[b] = regular_module(algebra, v)

    def span(self, v: int, vectors) -> int:
        """The id of the block spanned by sparse elements of e_vPi, each in
        one e_vPi e_u, written densely in its paths through ``pos``."""
        A = self.algebra
        spaces = {u: Subspace(len(paths), A.field)
                  for u, paths in A.paths[v].items()}
        for x in filter(None, vectors):
            space = spaces[A.source[next(iter(x))]]
            vec = [A.field.zero] * space.ambient
            for g, c in x.items():
                vec[A.pos[g]] = c
            space.add(vec)
        return self.intern(v, spaces)

    def intern(self, v: int, spaces) -> int:
        key = (v, tuple(tuple(map(tuple, s.rows)) for s in spaces.values()))
        b = self._ids.get(key)
        if b is None:
            b = self._ids[key] = len(self.spaces)
            self.vertex.append(v)
            self.spaces.append(spaces)
            self.modules.append(None)
        return b

    def dims(self, b: int) -> list:
        """The dimension vector of block ``b``: dim e_vI e_u for u = 1..n."""
        return [s.dim for s in self.spaces[b].values()]

    def module(self, b: int):
        """The right module of block ``b``, or None when the block is zero."""
        mod = self.modules[b]
        if mod is None and any(self.dims(b)):
            mod = self.modules[b] = module_from_subspace(
                self.modules[self.full[self.vertex[b] - 1]], self.spaces[b])
        return mod

    def sparse_rows(self, b: int):
        """The echelon rows of block ``b`` as sparse algebra coordinates."""
        paths = self.algebra.paths[self.vertex[b]]
        return [{g: c for g, c in zip(paths[u], row) if c}
                for u, s in self.spaces[b].items() for row in s.rows]


class Ideal:
    """A two-sided ideal of Pi as the n-tuple of the ids of its blocks e_vI
    in a ``BlockTable``: equal ideals have equal tuples."""

    def __init__(self, table: BlockTable, blocks: tuple):
        self.algebra = table.algebra
        self.table = table
        self.blocks = blocks

    @property
    def dim(self) -> int:
        return sum(sum(self.table.dims(b)) for b in self.blocks)

    def __eq__(self, other):
        return (isinstance(other, Ideal) and self.table is other.table
                and self.blocks == other.blocks)

    def __hash__(self):
        return hash(self.blocks)

    def block(self, v: int):
        """The right module e_v I (None when zero), shared per table: equal
        blocks of different ideals are one ``ModuleRep``."""
        return self.table.module(self.blocks[v - 1])

    def __repr__(self):
        return f"Ideal(dim={self.dim}, blocks={self.blocks})"


def full_ideal(table: BlockTable) -> Ideal:
    return Ideal(table, table.full)


def ideal_product(I: Ideal, J: Ideal) -> Ideal:
    """IJ block by block: e_v(IJ) = (e_vI)J is spanned by the products of
    the rows of e_vI with the rows of J, each row of e_vIe_u meeting only
    the rows of e_uJ.  Sparse rows multiplied by ``mul_coords``: a route
    independent of the closures of the steps."""
    A = I.algebra
    table = I.table
    blocks = []
    for b in I.blocks:
        prods = []
        for x in table.sparse_rows(b):
            u = A.source[next(iter(x))]
            prods.extend(A.mul_coords(x, y)
                         for y in table.sparse_rows(J.blocks[u - 1]))
        blocks.append(table.span(table.vertex[b], prods))
    return Ideal(table, tuple(blocks))


def _closure(matrix: Matrix, vectors) -> Subspace:
    """The span of the ``vectors``, closed under the square ``matrix``."""
    space = Subspace(matrix.nrows, matrix.field)
    work = [x for x in vectors if space.add(x)]
    while work:
        y = matrix.vec(work.pop())
        if space.add(y):
            work.append(y)
    return space


def extend_left(i: int, J: Ideal) -> Ideal:
    """I_i J = Pi (1 - e_i) J: block i becomes e_i Pi (1 - e_i) J, and the
    other blocks are those of J.

    A path into i from another vertex is eps_i^k a q with a a non-loop
    arrow into i, and q J lies in e_{s(a)} J, so at each vertex u the new
    block i is the left eps_i-closure of the a x, over the non-loop arrows
    a into i and the rows x of e_{s(a)} J e_u: ``left_action[u]`` maps
    e_{s(a)} Pi e_u to e_i Pi e_u, and its loop matrix e_i Pi e_u to
    itself.  That span is already a right module, as e_{s(a)} J is."""
    A = J.algebra
    table = J.table
    loop = A.quiver.loop(i).index
    spaces = {}
    for u, act in A.left_action.items():
        spaces[u] = _closure(act[loop], (
            act[a.index].vec(x) for a in A.quiver.arrows
            if a.target == i and not a.is_loop
            for x in table.spaces[J.blocks[a.source - 1]][u].rows))
    return _with_block(J, i, table.intern(i, spaces))


def _with_block(J: Ideal, i: int, b: int) -> Ideal:
    """J with block i replaced by block ``b``."""
    return Ideal(J.table, J.blocks[:i - 1] + (b,) + J.blocks[i:])


def extend_right(J: Ideal, i: int) -> Ideal:
    """J I_i = J (1 - e_i) Pi, block by block (``_right_step``).  Memoized
    on (block, i)."""
    table = J.table
    return Ideal(table, tuple(_right_step(table, b, i) for b in J.blocks))


def _right_step(table: BlockTable, b: int, i: int) -> int:
    """e_vJ (1 - e_i) Pi for the block b = e_vJ.  Its piece at u != i is
    that of b, as J is a right ideal.  A path out of i to another vertex is
    q a eps_i^k with a a non-loop arrow out of i, and e_vJ q lies in
    e_vJ e_{t(a)}, so the piece at i is the eps_i-closure of the x a, over
    those arrows a and the rows x of the piece at t(a), under
    ``right_action[v]``."""
    out = table.right.get((b, i))
    if out is None:
        A = table.algebra
        v = table.vertex[b]
        act = A.right_action[v]
        spaces = dict(table.spaces[b])
        spaces[i] = _closure(act[A.quiver.loop(i).index], (
            act[a.index].vec(x) for a in A.quiver.arrows
            if a.source == i and not a.is_loop
            for x in spaces[a.target].rows))
        out = table.right[b, i] = table.intern(v, spaces)
    return out


class IdealSemigroup:
    """The ideal layer of one algebra and one Weyl group: the ``BlockTable``,
    I_w memoized per Weyl element, the projectives e_v Pi and the Nakayama
    permutation."""

    def __init__(self, algebra: FiniteDimAlgebra, weyl: WeylGroup):
        self.algebra = algebra
        self.weyl = weyl
        self.table = BlockTable(algebra)
        self._cache = {}

    @functools.cached_property
    def projectives(self):
        """e_v Pi for v = 1..n, the blocks of the full ideal: one module per
        vertex, shared by sigma, the namer and the caller."""
        return [self.table.module(b) for b in self.table.full]

    @functools.cached_property
    def sigma(self):
        """The Nakayama permutation: soc(e_i Pi) = S_{sigma[i - 1]}."""
        return nakayama(self.projectives)

    def generator(self, i: int) -> Ideal:
        return self.of_element(self.weyl.simple(i))

    def of_element(self, w: WeylElement) -> Ideal:
        """I_w = I_i I_{s_i w} for the smallest left descent i of w differs
        from I_{s_i w} in block i only.  At a second left descent j,
        I_w = I_j I_{s_j w} keeps block i of I_{s_j w}, so ``extend_left``
        runs only where i is the one left descent.  Check (i) of
        ``classification_report`` proves I_w = I_{i_1} ... I_{i_k} along
        every reduced word whatever route filled the memo: its induction
        needs only I_e = Pi and the ascents I_u I_i = I_{u s_i}."""
        ideal = self._cache.get(w.index)
        if ideal is not None:
            return ideal
        if w.length == 0:
            ideal = full_ideal(self.table)
        else:
            i, *others = [j for j, x in enumerate(w.weight, 1) if x < 0]
            rest = self.of_element(self.weyl.left_mul(i, w))
            if not others:
                ideal = extend_left(i, rest)
            else:
                other = self.of_element(self.weyl.left_mul(others[0], w))
                ideal = _with_block(rest, i, other.blocks[i - 1])
        self._cache[w.index] = ideal
        return ideal


# ---------------------------------------------------------------------------
# module naming (for graph labels and classification lists)
# ---------------------------------------------------------------------------

class ModuleNamer:
    """Stable display names: e{i}P, E{i}, e{i}I{i}, then e{v}Iw<word>, with
    the dimension and the rank of each block, read off its echelon spaces.

    Isomorphic blocks are one block.  Pi is selfinjective, so an
    isomorphism between blocks e_vI_w and e_uI_x (submodules of e_vPi and
    e_uPi) matches their simple socles, which forces u = v, and extends to
    left multiplication by some x in e_vPi e_v.  That maps e_vI_w into
    itself, so e_uI_x lies in e_vI_w, and equal dimensions make the two
    blocks equal.  Hence a block is e{v}P iff it *is* e_vI_e and e{v}I{v} iff
    it *is* e_vI_v (one table per context), and it is E{j} iff its
    dimension vector is c_j delta_j: its socle is simple, so eps_j acts as
    one Jordan block, which is E_j up to a change of basis.  The rank is
    dims / c, the locally free rank of a locally free block, which
    ``classification_report`` checks on the block modules it builds.

    A namer refers to its context but the context never to a namer, so the
    two form no reference cycle; each caller that names blocks makes one."""

    def __init__(self, semigroup: IdealSemigroup):
        self.semigroup = semigroup
        self._blocks = {}  # block id -> (name, dim, rank)

    def describe(self, vertex: int, w: WeylElement, b: int) -> tuple:
        """(name, dimension, rank) of the nonzero block
        ``b = I_w.blocks[vertex - 1]``, memoized per block."""
        entry = self._blocks.get(b)
        if entry is None:
            dims = self.semigroup.table.dims(b)
            c = self.semigroup.algebra.quiver.symmetrizer
            rank, rest = zip(*(divmod(d, c[u]) for u, d in enumerate(dims, 1)))
            name = self._name(vertex, w, b, dims, c)
            if any(rest):
                raise VerificationFailed(f"block {name} has dimension vector "
                                         f"{dims}, not a multiple of c")
            entry = self._blocks[b] = (name, sum(dims), rank)
        return entry

    def name_block(self, vertex: int, w: WeylElement, b: int) -> str:
        """The name that ``describe`` gives the block."""
        return self.describe(vertex, w, b)[0]

    def rank(self, b: int) -> tuple:
        """The rank of a block already described."""
        return self._blocks[b][2]

    def _name(self, vertex: int, w: WeylElement, b: int, dims, c) -> str:
        sg = self.semigroup
        if b == sg.table.full[vertex - 1]:
            return f"e{vertex}P"
        j = next(u for u, d in enumerate(dims, 1) if d)
        if sum(dims) == dims[j - 1] == c[j]:
            return f"E{j}"
        if b == sg.generator(vertex).blocks[vertex - 1]:
            return f"e{vertex}I{vertex}"
        return f"e{vertex}Iw{sg.weyl.word_str(w)}"


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
    block_vertices: tuple          # the vertex v of each summand e_vI


def pair_blocks(semigroup: IdealSemigroup, w: WeylElement):
    """(I_w, P_w) by block id: {v: id of e_vI_w} over the nonzero blocks,
    and the vertices of P_w = (+)_{e_i I_w = 0} e_{sigma(i)} Pi."""
    if not semigroup.algebra.dynkin:
        raise NotDynkin("support tau-tilting pairs require Dynkin type")
    blocks = {v: b for v, b in enumerate(semigroup.of_element(w).blocks, 1)
              if any(semigroup.table.dims(b))}
    return blocks, tuple(sorted(j for v, j in enumerate(semigroup.sigma, 1)
                                if v not in blocks))


def stt_pair(semigroup: IdealSemigroup, w: WeylElement) -> SttPair:
    """(I_w, P_w) on the modules of the blocks of ``pair_blocks``."""
    blocks, proj = pair_blocks(semigroup, w)
    return SttPair(semigroup.algebra,
                   [semigroup.table.module(b) for b in blocks.values()], proj,
                   block_vertices=tuple(blocks))


def verify_stt(pair: SttPair, rigid=None):
    """Checks Hom(M, tau M) = 0, Hom(P, M) = 0, |M| + |P| = n, and that
    each summand is indecomposable: a block, it has a simple socle.
    Returns the failed checks.  ``rigid`` memoizes ``hom_to_tau_vanishes``
    (no tau is built) by (M_a, M_b)."""
    reasons = []
    A = pair.algebra
    if len(pair.summands) + len(pair.projective_vertices) != A.n:
        reasons.append("|M| + |P| != n")
    for j in pair.projective_vertices:
        if any(s.dims[j - 1] for s in pair.summands):
            reasons.append(f"Hom(e{j}P, M) != 0")
    rigid = {} if rigid is None else rigid
    for a, s in enumerate(pair.summands):
        if not is_indecomposable(s):
            reasons.append(f"summand {a} has no simple socle")
        for b, t in enumerate(pair.summands):
            if (s, t) not in rigid:
                rigid[s, t] = hom_to_tau_vanishes(s, t)
            if not rigid[s, t]:
                reasons.append(f"Hom(M_{a}, tau M_{b}) != 0")
    return reasons


def left_mutation(pair: SttPair, vertex: int) -> SttPair:
    """Left mutation of an ideal pair at its summand e_vertex I.

    The exchange: take the minimal left add(U)-approximation f : X -> U',
    set Y = coker f; the new pair is (U, P + e_j Pi) when Y = 0 and
    (U + Y, P) otherwise.  In general Y = Y'^m; the package needs m = 1,
    that is a simple socle, and fails with the dimension vector of Y as
    witness otherwise.
    The new pair keeps ``block_vertices``: Y sits at ``vertex``, and when
    Y = 0 the vertex is dropped.  Raises ``ValueError`` when no summand of
    the pair sits at ``vertex``."""
    A = pair.algebra
    verts = pair.block_vertices
    if vertex not in verts:
        raise ValueError(f"vertex {vertex} carries no summand of the pair; "
                         f"summand vertices: {verts}")
    idx = verts.index(vertex)
    X = pair.summands[idx]
    others = pair.summands[:idx] + pair.summands[idx + 1:]
    if in_fac(others, X):
        raise NotMutable("summand lies in Fac of the complement; "
                         "only a right mutation exists here")
    # Y = coker f for f = (f_k): X -> U' = (+)_k U_k, whose column at v is
    # the columns of the f_k stacked in the order of the copies
    copies = _minimal_approximation(A, X, others)
    T = direct_sum(A, [others[k] for k, _ in copies])
    Y = quotient_module(T, {v: Subspace.span(
        ([c for _, f in copies for c in f[v].col(col)]
         for col in range(X.dims[v - 1])), T.dims[v - 1], A.field)
        for v in range(1, A.n + 1)})
    if Y.total_dim == 0:
        candidates = [j for j in range(1, A.n + 1)
                      if j not in pair.projective_vertices
                      and not any(s.dims[j - 1] for s in others)]
        if len(candidates) != 1:
            raise VerificationFailed(
                f"completed mutation has {len(candidates)} projective "
                "candidates; expected exactly one")
        proj = tuple(sorted(pair.projective_vertices + (candidates[0],)))
        return SttPair(A, others, proj, verts[:idx] + verts[idx + 1:])
    if not is_indecomposable(Y):
        raise VerificationFailed("mutation cokernel has no simple socle",
                                 witness=Y.dims)
    return SttPair(A, others[:idx] + [Y] + others[idx:],
                   pair.projective_vertices, verts)


def _minimal_approximation(A, X, others):
    """The maps (k, f : X -> U_k) of a minimal left add(U)-approximation.

    One sweep over the basis maps of each Hom(X, U_k): the map c is dropped
    when it lies in the span of g f_p over the maps p != c still kept and
    every g in Hom(U_{k_p}, U_{k_c}).  Dropping a map only shrinks these
    spans, so a map kept earlier never becomes droppable later.  A map out
    of X is fixed by its values on the generators (u, c) of X, so maps are
    compared there: f on (u, c) is column c of f_u, and g f_p is g_u of it."""
    gens = minimal_projective_presentation(X).generators
    copies = [(k, f) for k, Uk in enumerate(others)
              for f in hom_space(X, Uk)]
    images = [[f[u].col(c) for u, c in gens] for _, f in copies]
    homs = {}   # (l, k) -> basis of Hom(U_l, U_k)
    prods = {}  # (p, k) -> the g f_p for g in Hom(U_{k_p}, U_k), on gens
    kept = list(range(len(copies)))
    for c, (kc, _) in enumerate(copies):
        span = Subspace(sum(others[kc].dims[u - 1] for u, _ in gens), A.field)
        for p in kept:
            if p == c:
                continue
            if (p, kc) not in prods:
                kp = copies[p][0]
                if (kp, kc) not in homs:
                    homs[kp, kc] = hom_space(others[kp], others[kc])
                prods[p, kc] = [[x for (u, _), y in zip(gens, images[p])
                                 for x in g[u].vec(y)] for g in homs[kp, kc]]
            for vec in prods[p, kc]:
                span.add(vec)
        if span.contains([x for y in images[c] for x in y]):
            kept.remove(c)
    return [copies[c] for c in kept]


# ---------------------------------------------------------------------------
# the exchange quiver
# ---------------------------------------------------------------------------

@dataclass
class GraphNode:
    summands: list       # display names, block-vertex ascending
    dims: list           # per-summand total dimension
    rank_vectors: list   # per-summand rank, dims / c
    projective: list     # display names of the projective part


@dataclass
class MutationGraph:
    nodes: dict          # word-string -> GraphNode
    edges: list          # (from word-string, to word-string, label i)

    def to_dot(self) -> str:
        lines = ["digraph stt {", "  rankdir=LR;"]
        for ws in sorted(self.nodes):
            node = self.nodes[ws]
            label = "+".join(node.summands) if node.summands else "0"
            lines.append(f'  "w{ws}" [label="{label}"];')
        for (src, dst, i) in self.edges:
            lines.append(f'  "w{src}" -> "w{dst}" [label="{i}"];')
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
                "rank_vectors": [list(r) for r in n.rank_vectors],
                "projective": list(n.projective),
            })
        edges = [{"from": a, "to": b, "label": i} for (a, b, i) in self.edges]
        return {"nodes": nodes, "edges": edges}


def _ascents(weyl: WeylGroup):
    """The ascents (w, s_i w, i) with l(s_i w) > l(w), the edges
    I_w -> I_{s_i w} of the exchange quiver, in enumeration order."""
    for w in weyl:
        for i in range(1, weyl.n + 1):
            v = weyl.left_mul(i, w)
            if v.length > w.length:
                yield w, v, i


def mutation_graph(semigroup: IdealSemigroup) -> None:
    """Checks the exchange quiver, walking its ascents once.

    On every ascent w -> s_i w the ideals I_w and I_{s_i w} have the same
    blocks at every vertex other than i.  Every ceil(E / ``EDGE_SAMPLE``)-th
    of the E = n |W| / 2 ascents is reproduced by left mutation: at most
    ``EDGE_SAMPLE``, spread over all lengths, and every one when
    E <= ``EDGE_SAMPLE``."""
    algebra, weyl = semigroup.algebra, semigroup.weyl
    if not algebra.dynkin:
        raise NotDynkin("the exchange quiver requires Dynkin type")
    if not weyl.complete:
        raise NotDynkin("the exchange quiver requires the full Weyl group")
    stride = -(-(algebra.n * weyl.order // 2) // EDGE_SAMPLE)
    for e, (w, v, i) in enumerate(_ascents(weyl)):
        before = semigroup.of_element(w).blocks
        after = semigroup.of_element(v).blocks
        if before[:i - 1] + before[i:] != after[:i - 1] + after[i:]:
            raise VerificationFailed(
                f"exchange edge {weyl.word_str(w)} -> {weyl.word_str(v)} "
                f"(label {i}) changes a block other than {i}")
        if e % stride == 0:
            _check_edge(semigroup, w, v, i)


def graph_nodes(semigroup: IdealSemigroup):
    """The ``GraphNode`` of each (I_w, P_w), in enumeration order, read by
    block id."""
    namer = ModuleNamer(semigroup)
    for w in semigroup.weyl:
        blocks, proj = pair_blocks(semigroup, w)
        rows = [namer.describe(v, w, b) for v, b in blocks.items()]
        yield GraphNode([r[0] for r in rows], [r[1] for r in rows],
                        [r[2] for r in rows], sorted(f"e{j}P" for j in proj))


def exchange_graph(semigroup: IdealSemigroup) -> MutationGraph:
    """The checked exchange quiver and its display, keyed by words."""
    mutation_graph(semigroup)
    words = semigroup.weyl.word_strings()
    return MutationGraph(
        dict(zip(words, graph_nodes(semigroup))),
        [(words[w.index], words[v.index], i)
         for w, v, i in _ascents(semigroup.weyl)])


def _check_edge(semigroup: IdealSemigroup, w: WeylElement, v: WeylElement,
                i: int):
    """Left mutation of (I_w, P_w) at i is (I_v, P_v), for v = s_i w.

    The step changes block i only, and blocks are interned per context, so
    every summand at a vertex u != i must *be* the expected one, which is
    exact and stronger than isomorphism.  The exchanged summand takes one
    isomorphism test, the shared block first so that its memoized
    presentation is used."""
    mutated = left_mutation(stt_pair(semigroup, w), i)
    expected = stt_pair(semigroup, v)
    verts = expected.block_vertices
    if not (mutated.block_vertices == verts
            and mutated.projective_vertices == expected.projective_vertices
            and all(got is want if u != i else is_isomorphic(want, got)
                    for u, got, want in zip(verts, mutated.summands,
                                            expected.summands))):
        weyl = semigroup.weyl
        raise VerificationFailed(
            f"left mutation does not reproduce edge {weyl.word_str(w)} -> "
            f"{weyl.word_str(v)} (label {i})")


# ---------------------------------------------------------------------------
# classification report
# ---------------------------------------------------------------------------

@dataclass
class ClassificationReport:
    stt_count: int
    tau_rigid_modules: list      # (name, total dim, rank vector)


def classification_report(semigroup: IdealSemigroup) -> ClassificationReport:
    """(i) psi well-defined over every reduced word, (ii) injective,
    (iii) every (I_w, P_w) a valid pair, (iv) the block list up to iso,
    (v) 0-Hecke consistency of the product.  Raises ``ReportFailure``, with
    every failed check, when any of them fails."""
    algebra, weyl = semigroup.algebra, semigroup.weyl
    if not algebra.dynkin:
        raise NotDynkin("classification requires Dynkin type")
    if not weyl.complete:
        raise NotDynkin("classification requires the full Weyl group")
    namer = ModuleNamer(semigroup)
    failures = []
    # (i) every reduced word yields the same ideal: every weak-order ascent
    # u -> u s_i satisfies extend_right(I_u, i) == I_{u s_i}; induction over
    # prefixes then covers every reduced word of every element.
    for u in weyl:
        iu = semigroup.of_element(u)
        for i in range(1, algebra.n + 1):
            v = weyl.right_mul(u, i)
            if v.length < u.length:
                continue
            via_product = extend_right(iu, i)
            if via_product != semigroup.of_element(v):
                failures.append(f"I_({weyl.word_str(u)}) * I_{i} != "
                                f"I_({weyl.word_str(v)})")
    # (ii) injectivity
    keys = {semigroup.of_element(w).blocks for w in weyl}
    if len(keys) != weyl.order:
        failures.append(f"only {len(keys)} distinct ideals for {weyl.order} elements")
    # (iii) pairs, and (iv) their blocks up to isomorphism, through their
    # stable names, each locally free of the rank dims / c it displays
    rigid = {}  # one verdict per ordered pair of blocks, for this call only
    seen = {}
    for w in weyl:
        pair = stt_pair(semigroup, w)
        reasons = verify_stt(pair, rigid)
        if reasons:
            failures.append(f"pair at {weyl.word_str(w) or 'e'}: {reasons}")
        blocks = semigroup.of_element(w).blocks
        for v, s in zip(pair.block_vertices, pair.summands):
            name = namer.name_block(v, w, blocks[v - 1])
            if name not in seen:
                seen[name] = (name, s.total_dim, namer.rank(blocks[v - 1]))
                if locally_free_rank(s) != seen[name][2]:
                    failures.append(f"{name} is not locally free of rank "
                                    f"{seen[name][2]}")
    tau_rigid = sorted(seen.values())
    # (v) 0-Hecke consistency, I_u I_v = I_(u*v) for every pair, from the n
    # idempotents I_i I_i = I_i.  Check (i) gives I_x I_i = I_(x s_i) at
    # every ascent x < x s_i.  At a descent x = y s_i,
    # I_x I_i = I_y I_i I_i = I_y I_i = I_x.  So I_x I_i = I_(x*s_i) for
    # all x and i, and induction on a reduced word of v gives the law.
    for i in range(1, algebra.n + 1):
        gen = semigroup.generator(i)
        if ideal_product(gen, gen) != gen:
            failures.append(f"I_{i} I_{i} != I_{i}")
    if failures:
        raise ReportFailure("classification report failed", failures)
    return ClassificationReport(len(keys), tau_rigid)
