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

The arrows act on Pi through the algebra's two tables: e_vPi is the
regular module acting by ``right_action[v]`` (``regular_module``), and
D(Pi e_u) acts by the transpose of ``left_action[u]``.  A free module
(+)_k e_{u_k}Pi has the coordinates (k, g) at v, g over the paths of
e_{u_k}Pi e_v (``_layout``), and x a is one ``Matrix.mul`` per copy.
``module_from_subspace`` is the one builder of submodules, on per-vertex
echelon spaces (a block e_vI in e_vPi, tau M in nu P1), so a block and its
module share one echelon form.  A presentation keeps only its P0 layout
and the x_kl read off the kernel of its cover.

Presentations and ``hom_space`` multiply only by ``Matrix.mul``.  They act
by every path of e_u Pi through one walk of the basis tree (``_path_walk``),
one product per path and none under a zero product, on a matrix: a
generator's unit column, or the generator images of every basis map at
once.  A basis map at v is then one product with the presentation's
section.  The walk results live only for the call.

tau and nu come from one map.  For the minimal presentation P1 -> P0 -> M,
psi*: nu P1 -> nu P0 is the dual of Hom(P0, Pi) -> Hom(P1, Pi),
g -> (g x_kl)_l.  Then nu M = D Hom(M, Pi) = coker psi* and
tau M = D Tr M = ker psi*, built by ``quotient_module`` and
``module_from_subspace``; psi at v is the approximation matrix of the
presentation on e_vPi.
tau-rigidity builds no tau: Hom(Y, tau X) = 0 iff Hom(P0, Y) -> Hom(P1, Y)
is onto for the presentation of X (Adachi-Iyama-Reiten (AIR), "tau-tilting
theory", Compos. Math. 150 (2014), Prop. 2.4).  A map out of M is fixed by
its values on the generators of P0, the unit vectors of the top columns
(``Presentation.generators``).

The relation check runs where untrusted data enters: the public
``ModuleRep(...)`` constructor checks that every relation of Pi acts by
zero.  The constructors that build a module from already-checked algebra
data (``module_from_subspace``, ``generalized_simple``, ``direct_sum``,
``quotient_module``, ``regular_module``, tau and nu) skip it; the tests call
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


def regular_module(algebra: FiniteDimAlgebra, v: int) -> ModuleRep:
    """e_v Pi on its paths, acting by ``algebra.right_action[v]``."""
    return ModuleRep(algebra, [len(p) for p in algebra.paths[v].values()],
                     algebra.right_action[v], validate=False)


def zero_module(algebra: FiniteDimAlgebra) -> ModuleRep:
    return _module(algebra, [0] * algebra.n, lambda a: [])


def module_from_subspace(parent: ModuleRep, spaces) -> ModuleRep:
    """The submodule of ``parent`` on the per-vertex echelon subspaces
    ``spaces[v]``, in their echelon bases: the arrow a sends echelon row j
    at t(a) to the coordinates, over the echelon rows at s(a), of its
    image under ``parent.act[a]``.  The one builder of submodules: a block
    e_vI in e_vPi, tau M in nu P1."""
    def columns(a):
        act = parent.act[a.index]
        cols = [spaces[a.source].express(act.vec(x))
                for x in spaces[a.target].rows]
        if None in cols:
            raise VerificationFailed("subspaces are not arrow-stable")
        return cols
    algebra = parent.algebra
    return _module(algebra, [spaces[v].dim for v in range(1, algebra.n + 1)],
                   columns)


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

def _layout(A: FiniteDimAlgebra, vertices):
    """The coordinates (k, g) at each vertex v of the free module
    (+)_k e_{u_k}Pi, u_k = ``vertices[k]``: g over the paths of
    e_{u_k}Pi e_v, copy by copy."""
    return {v: [(k, g) for k, u in enumerate(vertices) for g in A.paths[u][v]]
            for v in range(1, A.n + 1)}


def _times_arrow(A: FiniteDimAlgebra, vertices, a, rows):
    """x a for the vectors x of ``rows`` in (+)_k e_{u_k}Pi e_{t(a)},
    u_k = ``vertices[k]``: copy k of the images is one ``Matrix.mul`` of
    ``A.right_action[u_k][a]`` with the copy-k segments of the rows."""
    images, start = [], 0
    for u in vertices:
        d = len(A.paths[u][a.target])
        segment = Matrix.from_cols([x[start:start + d] for x in rows], d,
                                   A.field)
        images.extend(A.right_action[u][a.index].mul(segment).rows)
        start += d
    return zip(*images)


@dataclass
class Presentation:
    """P1 --X--> P0 --> M -> 0 with both covers minimal.

    Cached on M, so it holds no reference back to M: the pair then frees
    by reference counting alone."""

    p0: list                 # vertices u_k
    generators: list         # (u_k, c_k): generator k maps to the unit
                             # vector of the top column c_k of M e_{u_k}
    p0_layout: dict          # vertex v -> the P0 coordinates (k, g) at v,
                             # g a path of e_{u_k} Pi e_v
    section: dict            # vertex v -> Matrix (dim P0_v x dim M_v)
    p1: list                 # vertices v_l
    x_elems: list            # [k][l] algebra coords in e_{u_k} Pi e_{v_l}


@_memoized("presentation")
def minimal_projective_presentation(mod: ModuleRep) -> Presentation:
    """Projective cover P0 -> M and a cover P1 of its kernel.

    Generator k of P0 = (+)_k e_{u_k} Pi maps to the unit vector of the top
    column c_k of M e_{u_k}, and the P0 coordinate (k, g) to that vector
    acted on by g.  Its echelon spaces K_v = ker(P0_v -> M_v) make up the
    syzygy K, not kept: the generators of P1 are the echelon rows of K
    whose pivots are not pivots of K J, the span of the x a (one
    ``Matrix.mul`` per arrow and copy).  (Reading K-coordinates at K's
    pivot columns preserves order, so these are the top rows of K.)"""
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
    layout = _layout(A, p0)
    section, kernel = {}, {}
    for v, coords in layout.items():
        cover = Matrix.from_cols([images[k][g].col(0) for k, g in coords],
                                 mod.dims[v - 1], field)
        s = solve_matrix(cover, Matrix.identity(mod.dims[v - 1], field))
        if s is None:
            raise VerificationFailed("projective cover is not surjective")
        section[v] = s
        kernel[v] = Subspace.span(nullspace(cover), len(coords), field)
    kj = _arrow_images(A, [len(coords) for coords in layout.values()],
                       lambda a: _times_arrow(A, p0, a, kernel[a.target].rows))
    p1 = []
    x_elems = []  # [l][k]
    for v, space in kernel.items():
        pivots = set(kj[v].pivots)
        for row, pivot in zip(space.rows, space.pivots):
            if pivot in pivots:
                continue
            p1.append(v)
            col = [{} for _ in p0]
            for (k, g), x in zip(layout[v], row):
                if x:
                    col[k][g] = x
            x_elems.append(col)
    # transpose: x_elems[k][l]
    x_matrix = [[x_elems[l][k] for l in range(len(p1))]
                for k in range(len(p0))]
    return Presentation(p0, generators, layout, section, p1, x_matrix)


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
    field = N.algebra.field
    walks = []  # generator k -> path g -> the n_k g of all kernel vectors
    pos = 0
    for u in pres.p0:
        d = N.dims[u - 1]
        nk = Matrix([[vec[pos + r] for vec in kernel] for r in range(d)],
                    d, len(kernel), field)
        walks.append(_path_walk(N, u, nk))
        pos += d
    maps = [{} for _ in kernel]
    for v, coords in pres.p0_layout.items():
        # P0 coordinate (k, g) at v -> the rows of its dim N_v x e images
        cols = [walks[k][g].rows for k, g in coords]
        d = N.dims[v - 1]
        for e, h in enumerate(maps):
            images = [[rows[r][e] for rows in cols] for r in range(d)]
            h[v] = Matrix(images, d, len(cols), field).mul(pres.section[v])
    return maps


# ---------------------------------------------------------------------------
# Auslander-Reiten translate and Nakayama functor
# ---------------------------------------------------------------------------

def _dual_free(A: FiniteDimAlgebra, vertices) -> ModuleRep:
    """The right module D((+)_k Pi e_{u_k}), u_k = ``vertices[k]``: the
    direct sum of the D(Pi e_u), on which the arrow a acts by the
    transpose of ``A.left_action[u][a]``, from vertex t(a) to vertex s(a).
    At v its coordinates are the paths of e_v Pi e_{u_k}, copy by copy."""
    return direct_sum(A, [
        _module(A, [len(A.paths[v][u]) for v in range(1, A.n + 1)],
                lambda a: A.left_action[u][a.index].rows)
        for u in vertices])


def _dual_map(A: FiniteDimAlgebra, pres: Presentation):
    """psi: Hom(P0, Pi) -> Hom(P1, Pi), g -> (g x_kl)_l, for the minimal
    presentation P1 -> P0 -> M: at vertex v the approximation matrix of
    the presentation on e_v Pi, as Hom(P0, e_v Pi) = (+)_k e_v Pi e_{u_k}.
    Its transpose is psi*_v: nu P1_v -> nu P0_v in the coordinates of
    ``_dual_free``."""
    return {v: _approximation_matrix(pres, regular_module(A, v))
            for v in range(1, A.n + 1)}


@_memoized("tau")
def auslander_reiten_translate(M: ModuleRep) -> ModuleRep:
    """tau M = D Tr M = ker psi*, a submodule of nu P1; zero iff M is
    projective."""
    A = M.algebra
    if not A.dynkin:
        raise NotDynkin("tau requires the finite-dimensional selfinjective case")
    if M.total_dim == 0 or not minimal_projective_presentation(M).p1:
        return zero_module(A)
    pres = minimal_projective_presentation(M)
    kernels = {v: Subspace.span(nullspace(Matrix.from_cols(
        m.rows, m.ncols, A.field)), m.nrows, A.field)
        for v, m in _dual_map(A, pres).items()}
    return module_from_subspace(_dual_free(A, pres.p1), kernels)


def nakayama_nu(M: ModuleRep) -> ModuleRep:
    """nu M = D Hom(M, Pi) = coker psi*, a quotient of nu P0."""
    A = M.algebra
    if not A.dynkin:
        raise NotDynkin("nu requires the finite-dimensional selfinjective case")
    if M.total_dim == 0:
        return zero_module(A)
    pres = minimal_projective_presentation(M)
    images = {v: Subspace.span(m.rows, m.ncols, A.field)
              for v, m in _dual_map(A, pres).items()}
    return quotient_module(_dual_free(A, pres.p0), images)


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
