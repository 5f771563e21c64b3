"""Second routes the tests compare the package against.

No command runs them, so they live here rather than in ``preproj``: the
package keeps one route per computation.  Each is either independent of
the route it checks or a plainer form of it."""

from preproj.linalg import Matrix, Subspace, mat_rank
from preproj.repmod import (
    _approximation_matrix,
    _module,
    direct_sum,
    hom_space,
    locally_free_rank,
    minimal_projective_presentation,
    module_from_subspace,
)
from preproj.tautilt import Ideal


# ---------------------------------------------------------------------------
# Weyl group
# ---------------------------------------------------------------------------

def all_reduced_words(group, w, _memo=None):
    """Every reduced expression, via words(w) = U_i {i . words(s_i w)}."""
    if _memo is None:
        _memo = {}
    if w.length == 0:
        return {()}
    if w.index in _memo:
        return _memo[w.index]
    words = set()
    for i in range(1, group.n + 1):
        v = group.left_mul(i, w)
        if v.length < w.length:
            for tail in all_reduced_words(group, v, _memo):
                words.add((i,) + tail)
    _memo[w.index] = words
    return words


def demazure_product(group, u, v):
    """0-Hecke product: fold u * s_i = u s_i if the length grows, else u."""
    cur = u
    for i in group.word(v):
        cand = group.right_mul(cur, i)
        if cand.length > cur.length:
            cur = cand
    return cur


def from_word(group, word):
    """s_{i_1} ... s_{i_k} for any sequence (i_1, ..., i_k)."""
    w = group.identity
    for i in reversed(word):
        w = group.left_mul(i, w)
    return w


def weight_rank(cartan, word, v):
    """The rank vector w^-1 omega_v + omega_sigma(v) of e_vI_w in
    simple-root coordinates, for w = s_{i_1} ... s_{i_k} and ``word`` =
    (i_1, ..., i_k), with ``cartan`` the rows of C, in integer steps only.
    On weights in fundamental-weight coordinates s_j lam = lam - lam_j
    alpha_j, alpha_j being column j of C.  The letters applied to omega_v,
    first letter first, give w^-1 omega_v; then s_j at any lam_j > 0 steps
    down to the antidominant weight w_0 omega_v = -omega_sigma(v), and the
    lam_j alpha_j subtracted on the way add up to the rank."""
    n = len(cartan)
    lam = [int(k == v) for k in range(1, n + 1)]

    def step(j):
        lj = lam[j - 1]
        for k in range(n):
            lam[k] -= lj * cartan[k][j - 1]
        return lj

    for i in word:
        step(i)
    rank = [0] * n
    while any(x > 0 for x in lam):
        j = next(j for j, x in enumerate(lam, 1) if x > 0)
        rank[j - 1] += step(j)
    return tuple(rank)


def _mat_mul(a, b):
    n = len(a)
    return tuple(
        tuple(sum(a[i][k] * b[k][j] for k in range(n)) for j in range(n))
        for i in range(n))


def _identity(n):
    return tuple(tuple(1 if i == j else 0 for j in range(n)) for i in range(n))


def simple_reflection_matrix(c, i):
    """Matrix of sigma_i* : alpha_i* -> alpha_i* - sum_j c_ji alpha_j*."""
    n = c.n
    assert 1 <= i <= n
    cols = []
    for l in range(1, n + 1):
        if l != i:
            cols.append(tuple(1 if r == l else 0 for r in range(1, n + 1)))
        else:
            cols.append(tuple((1 if r == i else 0) - c[r, i]
                              for r in range(1, n + 1)))
    # stored row-major
    return tuple(tuple(cols[j][r] for j in range(n)) for r in range(n))


def weyl_matrix(group, w):
    """The contragredient matrix of w, the product of its sigma_i*."""
    m = _identity(group.n)
    for i in group.word(w):
        m = _mat_mul(m, simple_reflection_matrix(group.cartan, i))
    return m


# ---------------------------------------------------------------------------
# modules
# ---------------------------------------------------------------------------

def projective_module(algebra, v):
    """e_v Pi on its monomial basis (paths with target v): the arrow a
    sends the path g at t(a) to the coordinates of g a from
    ``mul_coords``, read off by path rather than through the action
    tables."""
    field = algebra.field
    paths = algebra.paths[v]

    def columns(a):
        arrow = algebra.arrow_coords[a.index]
        return [[prod.get(h, field.zero) for h in paths[a.source]]
                for prod in (algebra.mul_coords({g: field.one}, arrow)
                             for g in paths[a.target])]
    return _module(algebra, [len(paths[u]) for u in paths], columns)


def uniserial_module(algebra, i, d):
    """The uniserial module with d composition factors S_i, d <= c_i: the
    loop at i sends unit vector t to unit vector t + 1."""
    assert 1 <= d <= algebra.quiver.symmetrizer[i]
    one, zero = algebra.field.one, algebra.field.zero
    dims = [d if v == i else 0 for v in range(1, algebra.n + 1)]
    return _module(algebra, dims, lambda a: [
        [one if a.is_loop and r == t + 1 else zero
         for r in range(dims[a.source - 1])]
        for t in range(dims[a.target - 1])])


def simple_module(algebra, i):
    return uniserial_module(algebra, i, 1)


def syzygy(M):
    """K = ker(P0 -> M), rebuilt as the image of P1 -> P0: the submodule of
    P0 = (+)_k e_{u_k}Pi spanned by the x_l g, x_l = (x_kl)_k, over the
    basis paths g of e_{v_l}Pi; P0 at w has the coordinates (k, h), h a
    path of e_{u_k}Pi e_w, copy by copy."""
    A = M.algebra
    field = A.field
    pres = minimal_projective_presentation(M)
    P0 = direct_sum(A, [projective_module(A, u) for u in pres.p0])
    coords = {w: [(k, h) for k, u in enumerate(pres.p0)
                  for h in A.paths[u][w]] for w in range(1, A.n + 1)}
    spaces = {w: Subspace(len(c), field) for w, c in coords.items()}
    for l, v in enumerate(pres.p1):
        for g in A.by_target[v]:
            w = A.source[g]
            image = {(k, h): c for k, xk in enumerate(pres.x_elems)
                     for h, c in A.mul_coords(xk[l], {g: field.one}).items()}
            spaces[w].add([image.get(pair, field.zero) for pair in coords[w]])
    return module_from_subspace(P0, spaces)


def ext1_dim(M, N):
    """dim Ext^1(M, N) = dim Hom(K, N) - rank(Hom(P0,N) -> Hom(K,N)), for
    K the ``syzygy`` of M."""
    if M.total_dim == 0 or N.total_dim == 0:
        return 0
    hk = hom_space(syzygy(M), N)
    phi = _approximation_matrix(minimal_projective_presentation(M), N)
    return len(hk) - mat_rank(phi)


class RadicalUnavailable(Exception):
    """The trace form is unreliable over this field; rerun over the
    rationals."""


def trace_form_indecomposable(M):
    """End(M) local, read off the trace form (f, g) -> tr(fg) on End(M):
    rank 1 exactly when End(M) / rad End(M) = K, whatever the socle.

    Over F_p the radical of the trace form is rad End(M) only when no
    nonzero idempotent has trace (its rank, at most dim M) divisible by p,
    so the test refuses when p <= dim M."""
    if M.total_dim == 0:
        return False
    field = M.algebra.field
    p = field.characteristic
    if p and p <= M.total_dim:
        raise RadicalUnavailable(
            f"p = {p} <= dim M = {M.total_dim}; rerun over the rationals")
    ends = hom_space(M, M)
    e = len(ends)
    gram = Matrix.zeros(e, e, field)
    for a in range(e):
        for b in range(a, e):
            tr = field.zero
            for v in range(1, M.algebra.n + 1):
                prod = ends[a][v].mul(ends[b][v])
                for i in range(prod.nrows):
                    tr = tr + prod.rows[i][i]
            if p:
                tr %= p
            gram.rows[a][b] = tr
            gram.rows[b][a] = tr
    return mat_rank(gram) == 1


# ---------------------------------------------------------------------------
# ideals
# ---------------------------------------------------------------------------

def vertex_ideal(table, vertices):
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
    return Ideal(table, blocks)


def generic_right_step(table, b, i):
    """e_vJ (1 - e_i) Pi for the block b = e_vJ: the rows of b at the
    vertices other than i, closed under right multiplication by every
    arrow, on sparse coordinates."""
    A = table.algebra
    v = table.vertex[b]
    spaces = {u: Subspace(len(paths), A.field)
              for u, paths in A.paths[v].items()}

    def add(x):
        u = A.source[next(iter(x))]
        return spaces[u].add([x.get(g, A.field.zero) for g in A.paths[v][u]])

    work = [x for x in table.sparse_rows(b)
            if A.source[next(iter(x))] != i and add(x)]
    while work:
        x = work.pop()
        for a in A.quiver.arrows:
            if a.target == A.source[next(iter(x))]:
                prod = A.mul_coords(x, A.arrow_coords[a.index])
                if prod and add(prod):
                    work.append(prod)
    return table.intern(v, spaces)


def path_extend_left(i, J):
    """I_i J with block i the span of the p x over the basis paths p of
    e_i Pi e_j, j != i, with one non-loop arrow and the rows x of e_j J:
    the relations are homogeneous in the number of non-loop arrows, so
    these p span the eps_i^k a eps_j^m."""
    A = J.algebra
    table = J.table
    arrows = A.quiver.arrows
    prods = []
    for p in A.by_target[i]:
        j = A.source[p]
        if j != i and sum(not arrows[a].is_loop for a in A.basis[p][1]) == 1:
            prods.extend(A.mul_coords({p: A.field.one}, x)
                         for x in table.sparse_rows(J.blocks[j - 1]))
    return Ideal(table, J.blocks[:i - 1] + (table.span(i, prods),)
                 + J.blocks[i:])


class ModuleKeyedNamer:
    """Display names keyed by block module: e{v}P when the module is the
    projective, E{j} when its locally free rank is delta_j, e{v}I{v} when
    it is the block of I_v, else e{v}Iw<word> for the first w it is named
    at.  It takes the rank of every block it meets."""

    def __init__(self, semigroup):
        self.semigroup = semigroup
        self._names = {}  # block module -> name

    def name_block(self, vertex, w, mod):
        name = self._names.get(mod)
        if name is None:
            name = self._names[mod] = self._name(vertex, w, mod)
        return name

    def _name(self, vertex, w, mod):
        sg = self.semigroup
        if mod is sg.projectives[vertex - 1]:
            return f"e{vertex}P"
        rank = locally_free_rank(mod)
        if rank is not None and sum(rank) == 1:
            return f"E{rank.index(1) + 1}"
        if mod is sg.generator(vertex).block(vertex):
            return f"e{vertex}I{vertex}"
        return f"e{vertex}Iw{sg.weyl.word_str(w)}"
