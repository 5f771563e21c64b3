"""Finite-dimensional right modules over the preprojective quotient and the
homological toolkit: Hom/Ext^1, radical and socle series, minimal projective
presentations, the Auslander-Reiten translate, the Nakayama permutation and
functor, locally-free ranks, tau-rigidity, Fac membership, isomorphism and
indecomposability tests.  Every test is deterministic: the isomorphism test
looks for an invertible map among the basis maps of Hom(M, N), which is
exact when one of the two modules is indecomposable.

A module stores one space per vertex (M_v = M e_v, coordinates of elements
whose paths start at v) and one matrix per arrow.  Right multiplication by
the arrow a extends paths at their source, so it maps M_{target(a)} to
M_{source(a)}; the matrix ``act[a]`` realizes that map in column convention.
Hom computations run through minimal presentations (Hom out of projectives
is free), which keeps every linear solve small.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

from .errors import NotDynkin, RadicalUnavailable, SocleNotSimple, VerificationFailed
from .linalg import Matrix, Subspace, mat_rank, nullspace, solve_matrix
from .pathalg import FiniteDimAlgebra


class ModuleRep:
    """A right module: per-vertex dimensions plus arrow action matrices.

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
            mat = self._eval_relation(rel)
            if mat is not None and not mat.is_zero():
                raise VerificationFailed("relation does not annihilate module")

    def _eval_relation(self, rel):
        q = self.algebra.quiver
        first = next(iter(rel))
        from .pathalg import mon_source, mon_target
        u, w = mon_source(first), mon_target(q, first)
        total = Matrix.zeros(self.dims[u - 1], self.dims[w - 1],
                             self.algebra.field)
        for mon, coeff in rel.items():
            total = total.add(self.act_word(mon[1]).scale(coeff))
        return total

    def act_word(self, word) -> Matrix:
        """Right action of a path: M_{target(word)} -> M_{source(word)}."""
        if not word:
            raise ValueError("act_word needs a nonempty word")
        m = self.act[word[0]]
        for a in word[1:]:
            m = self.act[a].mul(m)
        return m

    def act_elem(self, coords: dict, from_vertex: int, to_vertex: int) -> Matrix:
        """Right action of an algebra element in e_u Pi e_v: M_u -> M_v."""
        A = self.algebra
        total = Matrix.zeros(self.dims[to_vertex - 1],
                             self.dims[from_vertex - 1], A.field)
        for idx, coeff in coords.items():
            mon = A.basis[idx]
            if not mon[1]:
                if mon[0] == from_vertex == to_vertex:
                    total = total.add(
                        Matrix.identity(self.dims[from_vertex - 1],
                                        A.field).scale(coeff))
                continue
            total = total.add(self.act_word(mon[1]).scale(coeff))
        return total

    @property
    def is_zero(self) -> bool:
        return self.total_dim == 0

    def __repr__(self):
        return f"Module(dims={tuple(self.dims)})"


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

def zero_module(algebra: FiniteDimAlgebra) -> ModuleRep:
    dims = [0] * algebra.n
    act = {a.index: Matrix.zeros(0, 0, algebra.field)
           for a in algebra.quiver.arrows}
    return ModuleRep(algebra, dims, act, validate=False)


def projective_module(algebra: FiniteDimAlgebra, v: int) -> ModuleRep:
    """e_v Pi on its monomial basis (paths with target v)."""
    return module_from_subspace(
        algebra, [{i: algebra.field.one} for i in algebra.by_target[v]])


def module_from_subspace(algebra: FiniteDimAlgebra, vectors) -> ModuleRep:
    """Module structure on a right-submodule-closed span inside Pi.

    ``vectors`` are sparse algebra coordinates; the per-vertex spaces are the
    source-graded pieces and the arrow actions are right multiplications
    expressed in the echelonized bases."""
    field = algebra.field
    local = {}
    spaces = {}
    for v in range(1, algebra.n + 1):
        cols = algebra.by_source[v]
        local[v] = {g: i for i, g in enumerate(cols)}
        sub = Subspace(len(cols), field)
        for vec in vectors:
            proj = [field.zero] * len(cols)
            touched = False
            for g, c in vec.items():
                li = local[v].get(g)
                if li is not None:
                    proj[li] = c
                    touched = True
            if touched:
                sub.add(proj)
        spaces[v] = sub
    dims = [spaces[v].dim for v in range(1, algebra.n + 1)]
    arrows = algebra.arrow_coords
    act = {}
    for a in algebra.quiver.arrows:
        src_rows = spaces[a.target].rows  # input side: M_{t(a)}
        out = Matrix.zeros(dims[a.source - 1], dims[a.target - 1], field)
        for col, row in enumerate(src_rows):
            x = {algebra.by_source[a.target][i]: c
                 for i, c in enumerate(row) if c}
            prod = algebra.mul_coords(x, arrows[a.index])
            proj = [field.zero] * len(algebra.by_source[a.source])
            for g, c in prod.items():
                proj[local[a.source][g]] = c
            coeffs = spaces[a.source].express(proj)
            if coeffs is None:
                raise VerificationFailed(
                    "span is not right-multiplication closed")
            for r, c in enumerate(coeffs):
                out.rows[r][col] = c
        act[a.index] = out
    mod = ModuleRep(algebra, dims, act)
    mod._embedding = {v: spaces[v] for v in spaces}
    return mod


def generalized_simple(algebra: FiniteDimAlgebra, i: int) -> ModuleRep:
    """E_i: vertex-i space of dimension c_i, the loop acting as one nilpotent
    Jordan block, every other arrow acting by zero."""
    return uniserial_module(algebra, i, algebra.quiver.symmetrizer[i])


def uniserial_module(algebra: FiniteDimAlgebra, i: int, d: int) -> ModuleRep:
    """The uniserial module with d composition factors S_i (d <= c_i)."""
    c_i = algebra.quiver.symmetrizer[i]
    assert 1 <= d <= c_i
    field = algebra.field
    dims = [0] * algebra.n
    dims[i - 1] = d
    act = {}
    for a in algebra.quiver.arrows:
        m = Matrix.zeros(dims[a.source - 1], dims[a.target - 1], field)
        if a.is_loop and a.i == i:
            for t in range(d - 1):
                m.rows[t + 1][t] = field.one
        act[a.index] = m
    return ModuleRep(algebra, dims, act)


def simple_module(algebra: FiniteDimAlgebra, i: int) -> ModuleRep:
    return uniserial_module(algebra, i, 1)


def direct_sum(algebra: FiniteDimAlgebra, mods):
    """Block-diagonal sum.  Returns (module, per-vertex offsets per summand)."""
    mods = list(mods)
    field = algebra.field
    dims = [sum(m.dims[v] for m in mods) for v in range(algebra.n)]
    offsets = []
    running = [0] * algebra.n
    for m in mods:
        offsets.append(list(running))
        running = [r + d for r, d in zip(running, m.dims)]
    act = {}
    for a in algebra.quiver.arrows:
        out = Matrix.zeros(dims[a.source - 1], dims[a.target - 1], field)
        for m, off in zip(mods, offsets):
            blk = m.act[a.index]
            r0 = off[a.source - 1]
            c0 = off[a.target - 1]
            for r in range(blk.nrows):
                for c in range(blk.ncols):
                    out.rows[r0 + r][c0 + c] = blk.rows[r][c]
        act[a.index] = out
    return ModuleRep(algebra, dims, act, validate=False), offsets


def submodule(parent: ModuleRep, vectors_by_vertex) -> ModuleRep:
    """Submodule spanned by per-vertex vectors (must be action-closed)."""
    field = parent.algebra.field
    spaces = {}
    for v in range(1, parent.algebra.n + 1):
        sub = Subspace(parent.dims[v - 1], field)
        for vec in vectors_by_vertex.get(v, []):
            sub.add(vec)
        spaces[v] = sub
    dims = [spaces[v].dim for v in range(1, parent.algebra.n + 1)]
    act = {}
    for a in parent.algebra.quiver.arrows:
        out = Matrix.zeros(dims[a.source - 1], dims[a.target - 1], field)
        for col, row in enumerate(spaces[a.target].rows):
            img = parent.act[a.index].vec(row)
            coeffs = spaces[a.source].express(img)
            if coeffs is None:
                raise VerificationFailed("vectors are not action-closed")
            for r, c in enumerate(coeffs):
                out.rows[r][col] = c
        act[a.index] = out
    mod = ModuleRep(parent.algebra, dims, act, validate=False)
    mod._embedding = spaces
    return mod


def quotient_module(parent: ModuleRep, sub_spaces) -> ModuleRep:
    """Quotient by per-vertex subspaces of an action-stable submodule."""
    field = parent.algebra.field
    projs = {}
    lifts = {}
    dims = []
    for v in range(1, parent.algebra.n + 1):
        sub = sub_spaces.get(v) or Subspace(parent.dims[v - 1], field)
        proj, dim, lift = sub.quotient()
        projs[v] = proj
        lifts[v] = lift
        dims.append(dim)
    act = {}
    for a in parent.algebra.quiver.arrows:
        out = Matrix.zeros(dims[a.source - 1], dims[a.target - 1], field)
        for col, lift in enumerate(lifts[a.target]):
            img = projs[a.source](parent.act[a.index].vec(lift))
            for r, c in enumerate(img):
                out.rows[r][col] = c
        act[a.index] = out
    return ModuleRep(parent.algebra, dims, act, validate=False)


# ---------------------------------------------------------------------------
# radical / socle / series
# ---------------------------------------------------------------------------

def radical_subspaces(mod: ModuleRep):
    """rad M = M J as per-vertex subspaces (sum of arrow images)."""
    field = mod.algebra.field
    out = {v: Subspace(mod.dims[v - 1], field)
           for v in range(1, mod.algebra.n + 1)}
    for a in mod.algebra.quiver.arrows:
        m = mod.act[a.index]
        for j in range(m.ncols):
            out[a.source].add(m.col(j))
    return out


def socle_subspaces(mod: ModuleRep):
    """soc M = annihilator of the arrow ideal, per vertex."""
    field = mod.algebra.field
    out = {}
    for v in range(1, mod.algebra.n + 1):
        rows = []
        for a in mod.algebra.quiver.arrows:
            if a.target == v:
                rows.extend(mod.act[a.index].rows)
        if rows:
            stacked = Matrix.from_rows(rows, mod.dims[v - 1], field)
            out[v] = Subspace.span(nullspace(stacked), mod.dims[v - 1], field)
        else:
            out[v] = Subspace.span(
                Matrix.identity(mod.dims[v - 1], field).rows,
                mod.dims[v - 1], field)
    return out


@dataclass
class SeriesReport:
    radical_layers: list   # list of per-vertex multiplicity tuples, top first
    socle_layers: list     # socle first
    top: tuple
    loewy_length: int


@_memoized("series")
def structure_series(mod: ModuleRep) -> SeriesReport:
    """Radical filtration, socle series, and the top with multiplicities."""
    field = mod.algebra.field
    n = mod.algebra.n
    # radical series
    current = {v: Subspace.span(Matrix.identity(mod.dims[v - 1], field).rows,
                                mod.dims[v - 1], field)
               for v in range(1, n + 1)}
    rad_layers = []
    prev_dims = tuple(current[v].dim for v in range(1, n + 1))
    while any(prev_dims):
        nxt = {v: Subspace(mod.dims[v - 1], field) for v in range(1, n + 1)}
        for a in mod.algebra.quiver.arrows:
            for row in current[a.target].rows:
                nxt[a.source].add(mod.act[a.index].vec(row))
        cur_dims = tuple(nxt[v].dim for v in range(1, n + 1))
        rad_layers.append(tuple(p - c for p, c in zip(prev_dims, cur_dims)))
        current = nxt
        prev_dims = cur_dims
        if len(rad_layers) > mod.total_dim + 1:
            raise VerificationFailed("radical series does not terminate")
    # socle series
    soc_layers = []
    soc = {v: Subspace(mod.dims[v - 1], field) for v in range(1, n + 1)}
    prev = tuple(0 for _ in range(n))
    while True:
        new_soc = {}
        for v in range(1, n + 1):
            # x is in the next socle iff act[a] x lies in the current socle
            # at the source vertex, for every arrow a into v
            rows = []
            for a in mod.algebra.quiver.arrows:
                if a.target != v:
                    continue
                proj, _, _ = soc[a.source].quotient()
                m = mod.act[a.index]
                reduced = [proj(m.col(j)) for j in range(m.ncols)]
                qdim = len(reduced[0]) if reduced else 0
                for qi in range(qdim):
                    rows.append([reduced[j][qi] for j in range(m.ncols)])
            if rows:
                stacked = Matrix.from_rows(rows, mod.dims[v - 1], field)
                new_soc[v] = Subspace.span(nullspace(stacked),
                                           mod.dims[v - 1], field)
            else:
                new_soc[v] = Subspace.span(
                    Matrix.identity(mod.dims[v - 1], field).rows,
                    mod.dims[v - 1], field)
        cur = tuple(new_soc[v].dim for v in range(1, n + 1))
        soc_layers.append(tuple(c - p for c, p in zip(cur, prev)))
        soc = new_soc
        if cur == tuple(mod.dims):
            break
        if prev == cur:
            raise VerificationFailed("socle series does not exhaust module")
        prev = cur
    if mod.total_dim == 0:
        rad_layers = []
        soc_layers = []
    top = rad_layers[0] if rad_layers else tuple(0 for _ in range(n))
    return SeriesReport(rad_layers, soc_layers, top, len(rad_layers))


# ---------------------------------------------------------------------------
# minimal projective presentations
# ---------------------------------------------------------------------------

@dataclass
class Presentation:
    """P1 --X--> P0 --cover--> M -> 0 with both covers minimal.

    Cached on M, so it holds no reference back to M: the pair then frees
    by reference counting alone."""

    p0: list                 # vertices u_k
    p0_layout: dict          # vertex v -> list of (k, global basis index)
    cover: dict              # vertex v -> Matrix (dim M_v x dim P0_v)
    section: dict            # vertex v -> Matrix (dim P0_v x dim M_v)
    syzygy: ModuleRep        # K = ker(P0 -> M), a submodule of P0
    p1: list                 # vertices v_l
    x_elems: list            # [k][l] algebra coords in e_{u_k} Pi e_{v_l}


def _top_lifts(mod: ModuleRep):
    """Per vertex, coordinate vectors lifting a basis of M_v / (rad M)_v."""
    rad = radical_subspaces(mod)
    field = mod.algebra.field
    lifts = {}
    for v in range(1, mod.algebra.n + 1):
        pivset = set(rad[v].pivots)
        free = [c for c in range(mod.dims[v - 1]) if c not in pivset]
        vecs = []
        for c in free:
            vec = [field.zero] * mod.dims[v - 1]
            vec[c] = field.one
            vecs.append(vec)
        lifts[v] = vecs
    return lifts


@_memoized("presentation")
def minimal_projective_presentation(mod: ModuleRep) -> Presentation:
    """Projective cover P0 -> M and a cover P1 of its kernel."""
    A = mod.algebra
    field = A.field
    lifts = _top_lifts(mod)
    p0 = []
    gens = []  # (vertex u_k, lift vector)
    for v in range(1, A.n + 1):
        for vec in lifts[v]:
            p0.append(v)
            gens.append((v, vec))
    # layout of P0's vertex-v coordinates: (generator k, basis monomial of
    # e_{u_k} Pi with source v), ordered by k then monomial
    p0_layout = {v: [] for v in range(1, A.n + 1)}
    for k, u in enumerate(p0):
        for g in A.by_target[u]:
            p0_layout[A.source[g]].append((k, g))
    cover = {}
    for v in range(1, A.n + 1):
        cols = []
        for (k, g) in p0_layout[v]:
            u, m_k = gens[k]
            mon = A.basis[g]
            if not mon[1]:
                cols.append(list(m_k))
            else:
                cols.append(mod.act_word(mon[1]).vec(m_k))
        cover[v] = Matrix.from_cols(cols, mod.dims[v - 1], field)
    section = {}
    kvecs = {}
    for v in range(1, A.n + 1):
        ident = Matrix.identity(mod.dims[v - 1], field)
        s = solve_matrix(cover[v], ident)
        if s is None:
            raise VerificationFailed("projective cover is not surjective")
        section[v] = s
        kvecs[v] = nullspace(cover[v])
    # K as a submodule of P0 (built per vertex on the kernel vectors)
    p0_mod = _p0_module(A, p0, p0_layout)
    syz = submodule(p0_mod, kvecs)
    syz_lifts = _top_lifts(syz)
    p = field.characteristic
    p1 = []
    x_elems = []
    for v in range(1, A.n + 1):
        for vec in syz_lifts[v]:
            # vec is in K-coordinates at vertex v; map to P0 coordinates
            p0vec = [field.zero] * len(p0_layout[v])
            for i, c in enumerate(vec):
                if c:
                    row = syz._embedding[v].rows[i]
                    for pos, rc in enumerate(row):
                        if rc:
                            p0vec[pos] = p0vec[pos] + c * rc
            if p:
                p0vec = [a % p for a in p0vec]
            p1.append(v)
            col = []
            for k in range(len(p0)):
                coords = {}
                for pos, (kk, g) in enumerate(p0_layout[v]):
                    if kk == k and p0vec[pos]:
                        coords[g] = p0vec[pos]
                col.append(coords)
            x_elems.append(col)
    # transpose: x_elems[k][l]
    x_matrix = [[x_elems[l][k] for l in range(len(p1))]
                for k in range(len(p0))]
    return Presentation(p0, p0_layout, cover, section, syz, p1, x_matrix)


def _p0_module(A: FiniteDimAlgebra, p0, p0_layout) -> ModuleRep:
    """Direct sum of e_{u_k} Pi realized on the p0_layout coordinates."""
    field = A.field
    dims = [len(p0_layout[v]) for v in range(1, A.n + 1)]
    pos_index = {v: {pair: i for i, pair in enumerate(p0_layout[v])}
                 for v in p0_layout}
    act = {}
    for a in A.quiver.arrows:
        out = Matrix.zeros(dims[a.source - 1], dims[a.target - 1], field)
        for col, (k, g) in enumerate(p0_layout[a.target]):
            prod = A.mul_coords({g: field.one}, A.arrow_coords[a.index])
            for g2, c in prod.items():
                out.rows[pos_index[a.source][(k, g2)]][col] = c
        act[a.index] = out
    return ModuleRep(A, dims, act, validate=False)


# ---------------------------------------------------------------------------
# Hom and Ext^1
# ---------------------------------------------------------------------------

@dataclass
class HomBasis:
    dim: int
    maps: list    # each map: dict vertex -> Matrix (dim N_v x dim M_v)
    source: ModuleRep
    target: ModuleRep


def _approximation_matrix(pres: Presentation, N: ModuleRep):
    """The map (+)_k N e_{u_k} -> (+)_l N e_{v_l}, (n_k) -> (sum_k n_k x_{kl})."""
    A = N.algebra
    field = A.field
    src_dims = [N.dims[u - 1] for u in pres.p0]
    tgt_dims = [N.dims[v - 1] for v in pres.p1]
    total_src = sum(src_dims)
    total_tgt = sum(tgt_dims)
    phi = Matrix.zeros(total_tgt, total_src, field)
    r0 = 0
    for l, v in enumerate(pres.p1):
        c0 = 0
        for k, u in enumerate(pres.p0):
            x = pres.x_elems[k][l]
            if x:
                blk = N.act_elem(x, u, v)
                for r in range(blk.nrows):
                    for c in range(blk.ncols):
                        phi.rows[r0 + r][c0 + c] = blk.rows[r][c]
            c0 += src_dims[k]
        r0 += tgt_dims[l]
    return phi, src_dims


def hom_space(M: ModuleRep, N: ModuleRep) -> HomBasis:
    """Basis of Hom(M, N) computed through the minimal presentation of M."""
    if M.total_dim == 0 or N.total_dim == 0:
        return HomBasis(0, [], M, N)
    pres = minimal_projective_presentation(M)
    phi, src_dims = _approximation_matrix(pres, N)
    kernel = nullspace(phi)
    maps = [_materialize_hom(pres, N, vec, src_dims) for vec in kernel]
    return HomBasis(len(kernel), maps, M, N)


def _materialize_hom(pres: Presentation, N: ModuleRep, vec, src_dims):
    """Per-vertex matrices of the hom M -> N with generator images ``vec``."""
    A = N.algebra
    field = A.field
    splits = []
    pos = 0
    for d in src_dims:
        splits.append(vec[pos:pos + d])
        pos += d
    out = {}
    for v in range(1, A.n + 1):
        cols_fp = []
        for (k, g) in pres.p0_layout[v]:
            mon = A.basis[g]
            nk = splits[k]
            if not mon[1]:
                cols_fp.append(list(nk))
            else:
                cols_fp.append(N.act_word(mon[1]).vec(nk))
        fpi = Matrix.from_cols(cols_fp, N.dims[v - 1], field)
        out[v] = fpi.mul(pres.section[v])
    return out


def ext1_dim(M: ModuleRep, N: ModuleRep) -> int:
    """dim Ext^1(M, N) = dim Hom(K, N) - rank(Hom(P0,N) -> Hom(K,N))."""
    if M.total_dim == 0 or N.total_dim == 0:
        return 0
    pres = minimal_projective_presentation(M)
    if not pres.p1:
        return 0
    hk = hom_space(pres.syzygy, N)
    phi, _ = _approximation_matrix(pres, N)
    return hk.dim - mat_rank(phi)


# ---------------------------------------------------------------------------
# Auslander-Reiten translate and Nakayama functor
# ---------------------------------------------------------------------------

def _left_module_data(A: FiniteDimAlgebra, pres: Presentation):
    """Hom(P0,Pi) -> Hom(P1,Pi) as left modules (+)_k Pi e_{u_k} etc.

    Left modules are graded by TARGET vertex; left multiplication by the
    arrow a maps the vertex-s(a) piece to the vertex-t(a) piece."""
    field = A.field
    l0_layout = {v: [] for v in range(1, A.n + 1)}
    for k, u in enumerate(pres.p0):
        for g in A.by_source[u]:
            l0_layout[A.target[g]].append((k, g))
    l1_layout = {v: [] for v in range(1, A.n + 1)}
    for l, u in enumerate(pres.p1):
        for g in A.by_source[u]:
            l1_layout[A.target[g]].append((l, g))
    # the map: (g_k)_k -> (sum_k g_k x_{kl})_l, per target vertex
    psi = {}
    for v in range(1, A.n + 1):
        out = Matrix.zeros(len(l1_layout[v]), len(l0_layout[v]), field)
        pos1 = {pair: i for i, pair in enumerate(l1_layout[v])}
        for col, (k, g) in enumerate(l0_layout[v]):
            for l in range(len(pres.p1)):
                x = pres.x_elems[k][l]
                if not x:
                    continue
                prod = A.mul_coords({g: field.one}, x)
                for g2, c in prod.items():
                    out.rows[pos1[(l, g2)]][col] = c
        psi[v] = out
    return l0_layout, l1_layout, psi


def _left_action(A, layout, v_from, v_to, arrow_idx):
    """Left multiplication by an arrow on a (+)_k Pi e_{u_k} layout."""
    field = A.field
    arrows = A.arrow_coords
    out = Matrix.zeros(len(layout[v_to]), len(layout[v_from]), field)
    pos = {pair: i for i, pair in enumerate(layout[v_to])}
    for col, (k, g) in enumerate(layout[v_from]):
        prod = A.mul_coords(arrows[arrow_idx], {g: field.one})
        for g2, c in prod.items():
            out.rows[pos[(k, g2)]][col] = c
    return out


@_memoized("tau")
def auslander_reiten_translate(M: ModuleRep) -> ModuleRep:
    """tau M = D coker(Hom(P0, Pi) -> Hom(P1, Pi)); zero iff M projective."""
    A = M.algebra
    if not A.dynkin:
        raise NotDynkin("tau requires the finite-dimensional selfinjective case")
    field = A.field
    if M.total_dim == 0:
        return zero_module(A)
    pres = minimal_projective_presentation(M)
    if not pres.p1:
        return zero_module(A)
    _, l1_layout, psi = _left_module_data(A, pres)
    images = {}
    for v in range(1, A.n + 1):
        sub = Subspace(len(l1_layout[v]), field)
        for j in range(psi[v].ncols):
            sub.add(psi[v].col(j))
        images[v] = sub
    projs = {}
    lifts = {}
    dims = []
    for v in range(1, A.n + 1):
        proj, dim, lift = images[v].quotient()
        projs[v] = proj
        lifts[v] = lift
        dims.append(dim)
    act = {}
    for a in A.quiver.arrows:
        # left action on the cokernel: vertex s(a) -> vertex t(a); the dual
        # (a right module) uses the transpose, vertex t(a) -> vertex s(a)
        lm = _left_action(A, l1_layout, a.source, a.target, a.index)
        out = Matrix.zeros(dims[a.target - 1], dims[a.source - 1], field)
        for col, lift in enumerate(lifts[a.source]):
            img = projs[a.target](lm.vec(lift))
            for r, c in enumerate(img):
                out.rows[r][col] = c
        act[a.index] = out.transpose()
    return ModuleRep(A, dims, act)


def nakayama_nu(M: ModuleRep) -> ModuleRep:
    """nu M = D Hom(M, Pi), computed from the presentation of M."""
    A = M.algebra
    if not A.dynkin:
        raise NotDynkin("nu requires the finite-dimensional selfinjective case")
    field = A.field
    if M.total_dim == 0:
        return zero_module(A)
    pres = minimal_projective_presentation(M)
    l0_layout, _, psi = _left_module_data(A, pres)
    kernels = {}
    for v in range(1, A.n + 1):
        if pres.p1:
            vecs = nullspace(psi[v])
        else:
            vecs = Matrix.identity(len(l0_layout[v]), field).rows
        kernels[v] = Subspace.span(vecs, len(l0_layout[v]), field)
    dims = [kernels[v].dim for v in range(1, A.n + 1)]
    act = {}
    for a in A.quiver.arrows:
        lm = _left_action(A, l0_layout, a.source, a.target, a.index)
        out = Matrix.zeros(dims[a.target - 1], dims[a.source - 1], field)
        for col, row in enumerate(kernels[a.source].rows):
            img = lm.vec(row)
            coeffs = kernels[a.target].express(img)
            if coeffs is None:
                raise VerificationFailed("Hom(M, Pi) not closed under action")
            for r, c in enumerate(coeffs):
                out.rows[r][col] = c
        act[a.index] = out.transpose()
    return ModuleRep(A, dims, act)


@dataclass
class Nakayama:
    sigma: tuple      # sigma[i-1] = sigma(i), from soc(e_i Pi) = S_{sigma(i)}
    algebra: FiniteDimAlgebra

    def apply(self, i: int) -> int:
        return self.sigma[i - 1]


def nakayama(algebra: FiniteDimAlgebra) -> Nakayama:
    """The permutation with soc(e_i Pi) = S_{sigma(i)}."""
    if not algebra.dynkin:
        raise NotDynkin("Nakayama data requires Dynkin type")
    sigma = []
    for i in range(1, algebra.n + 1):
        soc = socle_subspaces(projective_module(algebra, i))
        dims = [(v, soc[v].dim) for v in range(1, algebra.n + 1)]
        nonzero = [(v, d) for v, d in dims if d]
        if len(nonzero) != 1 or nonzero[0][1] != 1:
            raise SocleNotSimple(f"soc(e_{i} Pi) has dimensions {dims}")
        sigma.append(nonzero[0][0])
    if sorted(sigma) != list(range(1, algebra.n + 1)):
        raise SocleNotSimple(f"socle assignment {sigma} is not a permutation")
    return Nakayama(tuple(sigma), algebra)


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


def is_tau_rigid(M: ModuleRep) -> bool:
    """Hom(M, tau M) = 0."""
    if M.total_dim == 0:
        return True
    tau = auslander_reiten_translate(M)
    return hom_space(M, tau).dim == 0


def in_fac(T: ModuleRep, X: ModuleRep) -> bool:
    """X in Fac T, decided by the trace of T in X."""
    if X.total_dim == 0:
        return True
    if T.total_dim == 0:
        return False
    homs = hom_space(T, X)
    field = X.algebra.field
    for v in range(1, X.algebra.n + 1):
        sub = Subspace(X.dims[v - 1], field)
        for h in homs.maps:
            m = h[v]
            for j in range(m.ncols):
                sub.add(m.col(j))
        if sub.dim != X.dims[v - 1]:
            return False
    return True


def _screen_invariants(M: ModuleRep, N: ModuleRep) -> bool:
    if M.dims != N.dims:
        return False
    sm = structure_series(M)
    sn = structure_series(N)
    return (sm.radical_layers == sn.radical_layers
            and sm.socle_layers == sn.socle_layers)


def is_isomorphic(M: ModuleRep, N: ModuleRep) -> bool:
    """Invariant screening, then a basis map of Hom(M, N) of full rank at
    every vertex.

    Precondition: M or N is indecomposable.  Then End(M) is local when
    M ~ N, so the non-isomorphisms in Hom(M, N) = phi End(M) form a proper
    subspace, which no basis lies inside: some basis map is invertible.
    The argument holds over any field."""
    if not _screen_invariants(M, N):
        return False
    n = M.algebra.n
    return M.total_dim == 0 or any(
        all(mat_rank(h[v]) == M.dims[v - 1] for v in range(1, n + 1))
        for h in hom_space(M, N).maps)


@_memoized("indecomposable")
def is_indecomposable(M: ModuleRep) -> bool:
    """End(M) local, via the trace-form radical; simple socle fast path.

    Over F_p the radical of the trace form is rad End(M) only when no
    nonzero idempotent has trace (its rank, at most dim M) divisible by p,
    so the test refuses when p <= dim M."""
    if M.total_dim == 0:
        return False
    soc = socle_subspaces(M)
    if sum(soc[v].dim for v in soc) == 1:
        return True
    field = M.algebra.field
    p = field.characteristic
    if p and p <= M.total_dim:
        raise RadicalUnavailable(
            f"p = {p} <= dim M = {M.total_dim}; rerun over the rationals")
    ends = hom_space(M, M)
    e = ends.dim
    gram = Matrix.zeros(e, e, field)
    for a in range(e):
        for b in range(a, e):
            tr = field.zero
            for v in range(1, M.algebra.n + 1):
                prod = ends.maps[a][v].mul(ends.maps[b][v])
                for i in range(prod.nrows):
                    tr = tr + prod.rows[i][i]
            if p:
                tr %= p
            gram.rows[a][b] = tr
            gram.rows[b][a] = tr
    rad_dim = e - mat_rank(gram)
    return e - rad_dim == 1
