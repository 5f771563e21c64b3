"""Finite-dimensional right modules over the preprojective quotient and the
homological toolkit: Hom, radical layers, minimal projective presentations,
the Auslander-Reiten translate, the Nakayama permutation and functor,
locally-free ranks, Hom(Y, tau X) = 0, Fac membership, isomorphism and
indecomposability tests.  Every test is deterministic: the isomorphism test
compares ``dims`` and then looks for an invertible map among the basis maps
of Hom(M, N), which is exact when one of the two modules is indecomposable,
and the indecomposability test asks for a simple socle, which is exact on
every module the package passes to it (see ``is_indecomposable``).

A module stores one space per vertex (M_v = M e_v, coordinates of elements
whose paths start at v) and one matrix per arrow.  Right multiplication by
the arrow a extends paths at their source, so it maps M_{target(a)} to
M_{source(a)}; the matrix ``act[a]`` realizes that map in column convention.
Hom computations run through minimal presentations (Hom out of projectives
is free), which keeps every linear solve small.

A right-closed span of paths (a block e_vI, a projective e_vPi) is a
``GradedSpan``: sparse elements of a free module (+)_k e_{u_k}Pi,
echelonized once, one ``Subspace`` per vertex; its keys are the one layout
of that free module.  A presentation lays P0 out as a span over all
generator copies whose space at v is the cover's kernel, and keeps only its
keys (``p0_keys``) and the x_kl read off that kernel.  One builder makes
every module on per-vertex echelon spaces (``module_from_subspace``,
``submodule``, with one arrow-stability error) and the quotient, zero and
generalized simple modules, so a block and its module share one echelon
form.

Presentations and ``hom_space`` multiply only by ``Matrix.mul``.  They act
by every path of e_u Pi through one walk of the basis tree (``_path_walk``),
one product per path and none under a zero product, on a matrix: a
generator's unit column, or the generator images of every basis map at
once.  A basis map at v is then one product with the presentation's
section.  The walk results live only for the call.

tau and nu come from one map.  For the minimal presentation P1 -> P0 -> M,
psi*: nu P1 -> nu P0 is the dual of Hom(P0, Pi) -> Hom(P1, Pi),
g -> (g x_kl)_l.  Then nu M = D Hom(M, Pi) = coker psi* and
tau M = D Tr M = ker psi*, built by ``quotient_module`` and ``submodule``.
tau-rigidity builds no tau: Hom(Y, tau X) = 0 iff Hom(P0, Y) -> Hom(P1, Y)
is onto for the presentation of X (Adachi-Iyama-Reiten (AIR), "tau-tilting
theory", Compos. Math. 150 (2014), Prop. 2.4).  A map out of M is fixed by
its values on the generators of P0, the unit vectors of the top columns
(``Presentation.generators``).

The relation check runs where untrusted data enters: the public
``ModuleRep(...)`` constructor checks that every relation of Pi acts by
zero.  The constructors that build a module from already-checked algebra
data (``module_from_subspace``, ``generalized_simple``, ``direct_sum``,
``quotient_module``, ``submodule``, tau and nu) skip it; the tests call
``_validate`` on their output as an oracle.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

from .errors import NotDynkin, SocleNotSimple, VerificationFailed
from .linalg import Matrix, Subspace, mat_rank, nullspace, solve_matrix
from .pathalg import FiniteDimAlgebra, mon_source, mon_target


class ModuleRep:
    """A right module: per-vertex dimensions plus arrow action matrices.

    ``validate=True`` (the default, for actions from outside the package)
    checks the matrix shapes and that every relation of Pi acts by zero;
    the package's own constructors pass ``validate=False``.  Hom spaces are
    built in one pass per call (see ``hom_space``).

    A module is never mutated after construction: ``dims``, ``act`` and the
    action matrices stay as the constructor left them.  Values that depend
    only on the module (presentation, tau, series, indecomposability,
    locally free rank) are therefore memoized in ``_cache``."""

    def __init__(self, algebra: FiniteDimAlgebra, dims, act, validate=True):
        self.algebra = algebra
        self.dims = list(dims)
        self.act = act  # arrow index -> Matrix(dims[s(a)-1] x dims[t(a)-1])
        self.total_dim = sum(self.dims)
        self._cache = {}
        if validate:
            self._validate()

    def _validate(self):
        q = self.algebra.quiver
        for a in q.arrows:
            m = self.act[a.index]
            want = (self.dims[a.source - 1], self.dims[a.target - 1])
            if (m.nrows, m.ncols) != want:
                raise VerificationFailed(
                    f"action matrix for {a.name} has shape "
                    f"{(m.nrows, m.ncols)}, expected {want}")
        for rel in self.algebra.relations.all_nonzero():
            first = next(iter(rel))
            total = self.act_sum(((mon[1], c) for mon, c in rel.items()),
                                 mon_source(first), mon_target(q, first))
            if not total.is_zero():
                raise VerificationFailed("relation does not annihilate module")

    def act_word(self, word) -> Matrix:
        """Right action of a path: M_{target(word)} -> M_{source(word)}."""
        if not word:
            raise ValueError("act_word needs a nonempty word")
        m = self.act[word[0]]
        for a in word[1:]:
            m = self.act[a].mul(m)
        return m

    def act_sum(self, terms, source: int, target: int) -> Matrix:
        """Right action of sum c * word over the (word, c) of ``terms``,
        nonempty paths from ``source`` to ``target``: M_target -> M_source."""
        field = self.algebra.field
        nrows, ncols = self.dims[source - 1], self.dims[target - 1]
        rows = [[field.zero] * ncols for _ in range(nrows)]
        for word, c in terms:
            rows = [[a + c * b for a, b in zip(row, r)]
                    for row, r in zip(rows, self.act_word(word).rows)]
        p = field.characteristic
        if p:
            rows = [[a % p for a in row] for row in rows]
        return Matrix(rows, nrows, ncols, field)

    def __repr__(self):
        return f"Module(dims={tuple(self.dims)})"


def _path_walk(mod: ModuleRep, u: int, x: Matrix):
    """{g: x g} for every basis path g = h a of e_u Pi, h its prefix (an
    earlier basis path): x g = ``mod.act[a].mul(x h)``, for a matrix x
    whose columns lie in M_u (one column for a single vector).

    A zero x h gives x h a = 0, so the walk computes the zero at each
    vertex once and gives it to every path under a zero product."""
    A = mod.algebra
    out = {}
    zeros = {}  # vertex -> the zero value there, shared by its zero paths
    for g in A.by_target[u]:
        pre = A.prefixes[g]
        v = A.source[g]
        if pre is None:
            out[g] = x
        elif v in zeros and out[pre[0]] is zeros.get(A.source[pre[0]]):
            out[g] = zeros[v]
        else:
            y = out[g] = mod.act[pre[1]].mul(out[pre[0]])
            if y.is_zero():
                out[g] = zeros.setdefault(v, y)
    return out


def _memoized(key):
    """Memoize a function of one module in ``M._cache[key]``."""
    def decorate(fn):
        @functools.wraps(fn)
        def wrapper(M):
            try:
                return M._cache[key]
            except KeyError:
                value = M._cache[key] = fn(M)
                return value
        return wrapper
    return decorate


# ---------------------------------------------------------------------------
# constructors
# ---------------------------------------------------------------------------

def _module(algebra: FiniteDimAlgebra, dims, columns) -> ModuleRep:
    """The module with ``dims`` on which the arrow a acts by the matrix
    whose columns are the list ``columns(a)``, one per basis vector at
    t(a)."""
    return ModuleRep(algebra, dims, {
        a.index: Matrix.from_cols(columns(a), dims[a.source - 1],
                                  algebra.field)
        for a in algebra.quiver.arrows}, validate=False)


def _on_echelon_spaces(algebra: FiniteDimAlgebra, spaces, images) -> ModuleRep:
    """The module on the per-vertex echelon ``spaces``: the arrow a sends
    echelon row j at t(a) to the coordinates, over the echelon rows at
    s(a), of the j-th vector of ``images(a)``."""
    def columns(a):
        cols = list(map(spaces[a.source].express, images(a)))
        if None in cols:
            raise VerificationFailed("subspaces are not arrow-stable")
        return cols
    return _module(algebra, [spaces[v].dim for v in range(1, algebra.n + 1)],
                   columns)


def zero_module(algebra: FiniteDimAlgebra) -> ModuleRep:
    return _module(algebra, [0] * algebra.n, lambda a: [])


class GradedSpan:
    """A graded span in a free module (+)_k e_{u_k}Pi, ``copies`` = {k: u_k},
    as one echelon ``Subspace`` per source vertex.

    The key k * dim Pi + g stands for the basis path g in copy k; a span
    inside e_vPi is the one copy {0: v}, keyed by the path.  At vertex v the
    coordinates are the paths of e_{u_k}Pi e_v in key order, ``keys[v]``.
    The echelon form of a graded span is the union of those of its pieces,
    so ``rows()`` is canonical."""

    def __init__(self, algebra: FiniteDimAlgebra, copies, vectors=()):
        self.algebra = algebra
        dim = algebra.dim
        self.keys = {v: [] for v in range(1, algebra.n + 1)}
        for k in sorted(copies):
            for g in algebra.by_target[copies[k]]:
                self.keys[algebra.source[g]].append(k * dim + g)
        self.index = {v: {key: i for i, key in enumerate(keys)}
                       for v, keys in self.keys.items()}
        self.spaces = {v: Subspace(len(keys), algebra.field)
                       for v, keys in self.keys.items()}
        for x in vectors:
            self.add(x)

    def add(self, x) -> bool:
        """Add the sparse element ``x``, whose paths share one source v;
        True if the span grew."""
        if not x:
            return False
        A = self.algebra
        v = A.source[next(iter(x)) % A.dim]
        index = self.index[v]
        vec = [A.field.zero] * len(index)
        for key, c in x.items():
            vec[index[key]] = c
        return self.spaces[v].add(vec)

    def rows(self):
        """The echelon rows vertex by vertex, as nested tuples: equal spans
        give equal values."""
        return tuple(tuple(map(tuple, s.rows)) for s in self.spaces.values())

    def vectors(self):
        """The echelon rows as sparse elements, vertex by vertex."""
        return [{key: c for key, c in zip(self.keys[v], row) if c}
                for v, s in self.spaces.items() for row in s.rows]

    def arrow_images(self, a):
        """x a for each echelon row x at t(a), dense in the coordinates at
        s(a)."""
        A = self.algebra
        dim = A.dim
        keys, index = self.keys[a.target], self.index[a.source]
        arrow = A.arrow_coords[a.index]
        for row in self.spaces[a.target].rows:
            copies = {}  # k -> the copy-k part of the row, as algebra coords
            for key, c in zip(keys, row):
                if c:
                    k, g = divmod(key, dim)
                    copies.setdefault(k, {})[g] = c
            image = [A.field.zero] * len(index)
            for k, x in copies.items():
                for g, c in A.mul_coords(x, arrow).items():
                    image[index[k * dim + g]] = c
            yield image


def module_from_subspace(algebra: FiniteDimAlgebra,
                         span: GradedSpan) -> ModuleRep:
    """Module structure on a right-closed ``GradedSpan``: the space at v is
    ``span.spaces[v]``, and the arrow a sends each echelon row x at t(a) to
    x a, read off ``span.arrow_images(a)``."""
    return _on_echelon_spaces(algebra, span.spaces, span.arrow_images)


def generalized_simple(algebra: FiniteDimAlgebra, i: int) -> ModuleRep:
    """E_i: vertex-i space of dimension c_i, the loop acting as one nilpotent
    Jordan block, every other arrow acting by zero."""
    one, zero = algebra.field.one, algebra.field.zero
    dims = [algebra.quiver.symmetrizer[i] if v == i else 0
            for v in range(1, algebra.n + 1)]
    # the loop at i sends unit vector t to unit vector t + 1; every other
    # arrow meets vertex i at one end only and acts by zero
    return _module(algebra, dims, lambda a: [
        [one if a.is_loop and r == t + 1 else zero
         for r in range(dims[a.source - 1])]
        for t in range(dims[a.target - 1])])


def direct_sum(algebra: FiniteDimAlgebra, mods: list) -> ModuleRep:
    """Block-diagonal sum, the summands in the order of ``mods``."""
    field = algebra.field
    dims = [sum(m.dims[v] for m in mods) for v in range(algebra.n)]
    act = {}
    for a in algebra.quiver.arrows:
        out = Matrix.zeros(dims[a.source - 1], dims[a.target - 1], field)
        r0 = c0 = 0
        for m in mods:
            for r, row in enumerate(m.act[a.index].rows):
                out.rows[r0 + r][c0:c0 + len(row)] = row
            r0 += m.dims[a.source - 1]
            c0 += m.dims[a.target - 1]
        act[a.index] = out
    return ModuleRep(algebra, dims, act, validate=False)


def quotient_module(parent: ModuleRep, sub_spaces) -> ModuleRep:
    """Quotient by per-vertex subspaces of an action-stable submodule."""
    field = parent.algebra.field
    projs, dims, lifts = {}, [], {}
    for v, d in enumerate(parent.dims, 1):
        sub = sub_spaces.get(v) or Subspace(d, field)
        projs[v], dim, lifts[v] = sub.quotient()
        dims.append(dim)
    return _module(parent.algebra, dims, lambda a: [
        projs[a.source](parent.act[a.index].vec(lift))
        for lift in lifts[a.target]])


def submodule(parent: ModuleRep, spaces) -> ModuleRep:
    """The submodule on the per-vertex subspaces ``spaces[v]``, in their
    echelon bases; the counterpart of ``quotient_module``."""
    return _on_echelon_spaces(parent.algebra, spaces, lambda a: map(
        parent.act[a.index].vec, spaces[a.target].rows))


# ---------------------------------------------------------------------------
# radical / socle / series
# ---------------------------------------------------------------------------

def radical_subspaces(mod: ModuleRep):
    """rad M = M J as per-vertex subspaces: the span of the columns of the
    arrow matrices, the images of a basis."""
    return _arrow_images(mod.algebra, mod.dims,
                         lambda a: zip(*mod.act[a.index].rows))


def _arrow_images(algebra: FiniteDimAlgebra, dims, images):
    """The per-vertex subspaces of the spaces of dimensions ``dims`` spanned
    at s(a) by the vectors ``images(a)``, over the arrows a."""
    field = algebra.field
    out = {v: Subspace(d, field) for v, d in enumerate(dims, 1)}
    for a in algebra.quiver.arrows:
        for x in images(a):
            out[a.source].add(x)
    return out


def socle_subspaces(mod: ModuleRep):
    """soc M = annihilator of the arrow ideal, per vertex."""
    field = mod.algebra.field
    out = {}
    for v, d in enumerate(mod.dims, 1):
        stacked = Matrix.from_rows(
            [row for a in mod.algebra.quiver.arrows if a.target == v
             for row in mod.act[a.index].rows], d, field)
        out[v] = Subspace.span(nullspace(stacked), d, field)
    return out


@_memoized("series")
def structure_series(mod: ModuleRep) -> list:
    """The radical filtration: the per-vertex multiplicities of each layer
    rad^k M / rad^{k+1} M, as tuples, top first."""
    layers = []
    prev = tuple(mod.dims)
    current = radical_subspaces(mod)
    while any(prev):
        dims = tuple(s.dim for s in current.values())
        layers.append(tuple(p - d for p, d in zip(prev, dims)))
        if len(layers) > mod.total_dim + 1:
            raise VerificationFailed("radical series does not terminate")
        prev = dims
        rows = {v: s.rows for v, s in current.items()}  # rad^k M
        current = _arrow_images(mod.algebra, mod.dims, lambda a: map(
            mod.act[a.index].vec, rows[a.target]))
    return layers


# ---------------------------------------------------------------------------
# minimal projective presentations
# ---------------------------------------------------------------------------

@dataclass
class Presentation:
    """P1 --X--> P0 --> M -> 0 with both covers minimal.

    Cached on M, so it holds no reference back to M: the pair then frees
    by reference counting alone."""

    p0: list                 # vertices u_k
    generators: list         # (u_k, c_k): generator k maps to the unit
                             # vector of the top column c_k of M e_{u_k}
    p0_keys: dict            # vertex v -> the P0 coordinates k * dim Pi + g
                             # at v, the ``GradedSpan`` keys of P0
    section: dict            # vertex v -> Matrix (dim P0_v x dim M_v)
    p1: list                 # vertices v_l
    x_elems: list            # [k][l] algebra coords in e_{u_k} Pi e_{v_l}


@_memoized("presentation")
def minimal_projective_presentation(mod: ModuleRep) -> Presentation:
    """Projective cover P0 -> M and a cover P1 of its kernel.

    Generator k of P0 = (+)_k e_{u_k} Pi maps to the unit vector of the top
    column c_k of M e_{u_k}, and the P0 coordinate (k, g) to that vector
    acted on by g.  P0 is laid out as one ``GradedSpan`` over every copy,
    whose space at v is the kernel of the cover there, so the span is
    K = ker(P0 -> M), not kept: the generators of P1 are its echelon rows
    whose pivots are not pivots of K J, the span of its ``arrow_images``.
    (Reading K-coordinates at K's pivot columns preserves order, so these
    are the top rows of K.)"""
    A = mod.algebra
    field = A.field
    rad = radical_subspaces(mod)
    generators = []
    for v in range(1, A.n + 1):
        pivots = set(rad[v].pivots)
        generators.extend((v, c) for c in range(mod.dims[v - 1])
                          if c not in pivots)
    p0 = [v for v, _ in generators]
    images = [_path_walk(mod, u, Matrix(
        [[field.one if r == c else field.zero] for r in range(mod.dims[u - 1])],
        mod.dims[u - 1], 1, field)) for u, c in generators]
    section = {}
    kernel = GradedSpan(A, dict(enumerate(p0)))
    for v, keys in kernel.keys.items():
        cols = [images[k][g].col(0)
                for k, g in (divmod(key, A.dim) for key in keys)]
        cover = Matrix.from_cols(cols, mod.dims[v - 1], field)
        s = solve_matrix(cover, Matrix.identity(mod.dims[v - 1], field))
        if s is None:
            raise VerificationFailed("projective cover is not surjective")
        section[v] = s
        for vec in nullspace(cover):
            kernel.spaces[v].add(vec)
    kj = _arrow_images(A, [len(keys) for keys in kernel.keys.values()],
                       kernel.arrow_images)
    p1 = []
    x_elems = []  # [l][k]
    for v, space in kernel.spaces.items():
        pivots = set(kj[v].pivots)
        for row, pivot in zip(space.rows, space.pivots):
            if pivot in pivots:
                continue
            p1.append(v)
            col = [{} for _ in p0]
            for key, x in zip(kernel.keys[v], row):
                if x:
                    k, g = divmod(key, A.dim)
                    col[k][g] = x
            x_elems.append(col)
    # transpose: x_elems[k][l]
    x_matrix = [[x_elems[l][k] for l in range(len(p1))]
                for k in range(len(p0))]
    return Presentation(p0, generators, kernel.keys, section, p1, x_matrix)


# ---------------------------------------------------------------------------
# Hom
# ---------------------------------------------------------------------------

def _approximation_matrix(pres: Presentation, N: ModuleRep) -> Matrix:
    """The map (+)_k N e_{u_k} -> (+)_l N e_{v_l}, (n_k) -> (sum_k n_k x_{kl})."""
    basis = N.algebra.basis
    rows = []
    for l, v in enumerate(pres.p1):
        # x_kl lies in rad P0 (the cover is minimal): no trivial path
        blocks = [N.act_sum(((basis[g][1], c) for g, c in xk[l].items()),
                            v, u).rows
                  for u, xk in zip(pres.p0, pres.x_elems)]
        rows.extend([c for blk in blocks for c in blk[r]]
                    for r in range(N.dims[v - 1]))
    return Matrix(rows, len(rows), sum(N.dims[u - 1] for u in pres.p0),
                  N.algebra.field)


def hom_space(M: ModuleRep, N: ModuleRep) -> list:
    """A basis of Hom(M, N), computed through the minimal presentation of
    M: a list of maps, each a dict vertex v -> Matrix (dim N_v x dim M_v).

    A kernel vector of the approximation matrix gives the images n_k in
    N e_{u_k} of the generators of P0, and its map h sends the P0
    coordinate (k, g) at vertex v to n_k g.  One walk of the basis tree of
    e_{u_k} Pi, started at the matrix whose columns are the n_k of every
    kernel vector, gives the images of every coordinate (k, g) under every
    map, one product per path.  Then h at v is one product: the images of
    the P0 coordinates at v under h, times the section P0_v <- M_v."""
    if M.total_dim == 0 or N.total_dim == 0:
        return []
    pres = minimal_projective_presentation(M)
    kernel = nullspace(_approximation_matrix(pres, N))
    if not kernel:
        return []
    A = N.algebra
    field = A.field
    walks = []  # generator k -> path g -> the n_k g of all kernel vectors
    pos = 0
    for u in pres.p0:
        d = N.dims[u - 1]
        nk = Matrix([[vec[pos + r] for vec in kernel] for r in range(d)],
                    d, len(kernel), field)
        walks.append(_path_walk(N, u, nk))
        pos += d
    maps = [{} for _ in kernel]
    for v, keys in pres.p0_keys.items():
        # P0 coordinate (k, g) at v -> the rows of its dim N_v x e images
        cols = [walks[k][g].rows
                for k, g in (divmod(key, A.dim) for key in keys)]
        d = N.dims[v - 1]
        for e, h in enumerate(maps):
            images = [[rows[r][e] for rows in cols] for r in range(d)]
            h[v] = Matrix(images, d, len(cols), field).mul(pres.section[v])
    return maps


# ---------------------------------------------------------------------------
# Auslander-Reiten translate and Nakayama functor
# ---------------------------------------------------------------------------

def _dual_layout(A: FiniteDimAlgebra, vertices):
    """The paths (k, g) of (+)_k Pi e_{u_k}, u_k = ``vertices[k]``, grouped
    by the target of g: the coordinates of the dual module at each vertex."""
    layout = {v: [] for v in range(1, A.n + 1)}
    for k, u in enumerate(vertices):
        for g in A.by_source[u]:
            layout[A.target[g]].append((k, g))
    return layout


def _dual_free(A: FiniteDimAlgebra, layout) -> ModuleRep:
    """The right module D((+)_k Pi e_{u_k}) on the dual basis of ``layout``.

    Left multiplication by the arrow a maps the vertex-s(a) paths of the
    left module to its vertex-t(a) paths; a acts on the dual by the
    transpose, from vertex t(a) to vertex s(a)."""
    field = A.field
    dims = [len(layout[v]) for v in range(1, A.n + 1)]
    act = {}
    for a in A.quiver.arrows:
        pos = {pair: i for i, pair in enumerate(layout[a.target])}
        out = Matrix.zeros(dims[a.source - 1], dims[a.target - 1], field)
        for r, (k, g) in enumerate(layout[a.source]):
            prod = A.mul_coords(A.arrow_coords[a.index], {g: field.one})
            for g2, c in prod.items():
                out.rows[r][pos[(k, g2)]] = c
        act[a.index] = out
    return ModuleRep(A, dims, act, validate=False)


def _dual_map(M: ModuleRep):
    """psi*: nu P1 -> nu P0 for the minimal presentation P1 -> P0 -> M, the
    dual of Hom(P0, Pi) -> Hom(P1, Pi), g -> (g x_kl)_l, where
    Hom(P0, Pi) = (+)_k Pi e_{u_k}.  Returns the layouts of nu P0 and
    nu P1 and, per vertex v, the matrix of psi*_v: nu P1_v -> nu P0_v."""
    A = M.algebra
    field = A.field
    pres = minimal_projective_presentation(M)
    layout0 = _dual_layout(A, pres.p0)
    layout1 = _dual_layout(A, pres.p1)
    psi = {}
    for v in range(1, A.n + 1):
        pos = {pair: i for i, pair in enumerate(layout1[v])}
        out = Matrix.zeros(len(layout0[v]), len(layout1[v]), field)
        for r, (k, g) in enumerate(layout0[v]):
            for l, x in enumerate(pres.x_elems[k]):
                if x:
                    for g2, c in A.mul_coords({g: field.one}, x).items():
                        out.rows[r][pos[(l, g2)]] = c
        psi[v] = out
    return layout0, layout1, psi


@_memoized("tau")
def auslander_reiten_translate(M: ModuleRep) -> ModuleRep:
    """tau M = D Tr M = ker psi*, a submodule of nu P1; zero iff M is
    projective."""
    A = M.algebra
    if not A.dynkin:
        raise NotDynkin("tau requires the finite-dimensional selfinjective case")
    if M.total_dim == 0 or not minimal_projective_presentation(M).p1:
        return zero_module(A)
    _, layout1, psi = _dual_map(M)
    kernels = {v: Subspace.span(nullspace(m), m.ncols, A.field)
               for v, m in psi.items()}
    return submodule(_dual_free(A, layout1), kernels)


def nakayama_nu(M: ModuleRep) -> ModuleRep:
    """nu M = D Hom(M, Pi) = coker psi*, a quotient of nu P0."""
    A = M.algebra
    if not A.dynkin:
        raise NotDynkin("nu requires the finite-dimensional selfinjective case")
    if M.total_dim == 0:
        return zero_module(A)
    layout0, _, psi = _dual_map(M)
    images = {v: Subspace.span((m.col(j) for j in range(m.ncols)), m.nrows,
                               A.field)
              for v, m in psi.items()}
    return quotient_module(_dual_free(A, layout0), images)


def nakayama(projectives) -> tuple:
    """The permutation sigma with soc(e_i Pi) = S_{sigma[i - 1]}, read from
    the modules ``projectives[i - 1] = e_i Pi``."""
    algebra = projectives[0].algebra
    if not algebra.dynkin:
        raise NotDynkin("Nakayama data requires Dynkin type")
    sigma = []
    for i, P in enumerate(projectives, 1):
        soc = socle_subspaces(P)
        dims = [(v, soc[v].dim) for v in range(1, algebra.n + 1)]
        nonzero = [(v, d) for v, d in dims if d]
        if len(nonzero) != 1 or nonzero[0][1] != 1:
            raise SocleNotSimple(f"soc(e_{i} Pi) has dimensions {dims}")
        sigma.append(nonzero[0][0])
    if sorted(sigma) != list(range(1, algebra.n + 1)):
        raise SocleNotSimple(f"socle assignment {sigma} is not a permutation")
    return tuple(sigma)


# ---------------------------------------------------------------------------
# predicates
# ---------------------------------------------------------------------------

@_memoized("locally_free_rank")
def locally_free_rank(M: ModuleRep):
    """(r_1, ..., r_n) if each M e_i is free over K[eps_i]/(eps_i^{c_i}),
    else None.  Checked by the Jordan-rank profile of the loop action."""
    A = M.algebra
    ranks = []
    for i in range(1, A.n + 1):
        d = M.dims[i - 1]
        c = A.quiver.symmetrizer[i]
        if d == 0:
            ranks.append(0)
            continue
        if d % c:
            return None
        r = d // c
        eps = M.act[A.quiver.loop(i).index]
        power = eps
        for k in range(1, c):
            if mat_rank(power) != (c - k) * r:
                return None
            power = eps.mul(power)
        if not power.is_zero():
            return None
        ranks.append(r)
    return tuple(ranks)


def hom_to_tau_vanishes(Y: ModuleRep, X: ModuleRep) -> bool:
    """Hom(Y, tau X) = 0, without building tau X (AIR Prop. 2.4): the
    approximation matrix of X's presentation on Y has full row rank."""
    if Y.total_dim == 0 or X.total_dim == 0:
        return True
    if not X.algebra.dynkin:
        raise NotDynkin("tau requires the finite-dimensional case")
    phi = _approximation_matrix(minimal_projective_presentation(X), Y)
    return mat_rank(phi) == phi.nrows


def in_fac(summands, X: ModuleRep) -> bool:
    """X in Fac T for T the direct sum of ``summands`` (T = 0 when there
    are none), decided by the trace of T in X: the sum of the images of
    Hom(T_k, X) over the summands."""
    if X.total_dim == 0:
        return True
    maps = [h for T in summands for h in hom_space(T, X)]
    field = X.algebra.field
    for v in range(1, X.algebra.n + 1):
        sub = Subspace(X.dims[v - 1], field)
        for h in maps:
            m = h[v]
            for j in range(m.ncols):
                sub.add(m.col(j))
        if sub.dim != X.dims[v - 1]:
            return False
    return True


def is_isomorphic(M: ModuleRep, N: ModuleRep) -> bool:
    """Equal ``dims``, then a basis map of Hom(M, N) of full rank at every
    vertex.

    Precondition: M or N is indecomposable.  Then End(M) is local when
    M ~ N, so the non-isomorphisms in Hom(M, N) = phi End(M) form a proper
    subspace, which no basis lies inside: some basis map is invertible.
    The argument holds over any field."""
    if M.dims != N.dims:
        return False
    n = M.algebra.n
    return M.total_dim == 0 or any(
        all(mat_rank(h[v]) == M.dims[v - 1] for v in range(1, n + 1))
        for h in hom_space(M, N))


@_memoized("indecomposable")
def is_indecomposable(M: ModuleRep) -> bool:
    """M has a simple socle.

    A simple socle makes M indecomposable, as a decomposition splits the
    socle; the converse fails in general, so the test decides only modules
    whose indecomposable summands have simple socles.  Every module the
    package passes here is one: the summands of an ideal pair are blocks
    e_vI_w, nonzero submodules of e_vPi, whose socle is simple as Pi is
    selfinjective; and a mutation cokernel Y = Y'^m has a tau-rigid
    indecomposable Y', which is isomorphic to a block, since in the Dynkin
    case every indecomposable tau-rigid module is one."""
    return sum(s.dim for s in socle_subspaces(M).values()) == 1
