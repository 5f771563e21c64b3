"""Path algebra of the doubled quiver, the relations (P1)-(P3), and the
finite-dimensional quotient computed through a two-sided Groebner basis.

Monomials are paths, stored as ``(source_vertex, arrows)`` where ``arrows``
is a tuple of arrow indices in product order.  Products compose like
functions: x*y applies y first, so x*y != 0 requires source(x) = target(y)
and tuple concatenation realizes the product.  The monomial order is
length-first, then lexicographic in the fixed arrow order (loops first);
relations are not length-homogeneous, so a degree-compatible order plus
full overlap completion is required.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

from .cartan import CartanData, DoubledQuiver
from .errors import CapExceeded, VerificationFailed
from .fields import QQ
from .linalg import Matrix

Mon = tuple  # (source_vertex, tuple_of_arrow_indices)


def trivial_mon(v: int) -> Mon:
    return (v, ())


def mon_source(m: Mon) -> int:
    return m[0]


def mon_target(quiver: DoubledQuiver, m: Mon) -> int:
    return quiver.arrows[m[1][0]].target if m[1] else m[0]


def mon_key(m: Mon):
    return (len(m[1]), m[1], m[0])


def mon_mul(quiver: DoubledQuiver, m1: Mon, m2: Mon):
    """m1 * m2, or None when the sources/targets do not match."""
    if m1[0] != mon_target(quiver, m2):
        return None
    return (m2[0], m1[1] + m2[1])


def mon_str(quiver: DoubledQuiver, m: Mon) -> str:
    if not m[1]:
        return f"e{m[0]}"
    return "*".join(quiver.arrows[a].name for a in m[1])


def arrow_mon(quiver: DoubledQuiver, idx: int) -> Mon:
    return (quiver.arrows[idx].source, (idx,))


def loop_power(quiver: DoubledQuiver, v: int, k: int) -> Mon:
    return (v, (quiver.loop(v).index,) * k)


# ---------------------------------------------------------------------------
# free elements: dict Mon -> scalar
# ---------------------------------------------------------------------------

def el_add_term(elem: dict, m: Mon, c, p: int):
    """elem[m] += c; ``p`` is the field characteristic (0 for QQ)."""
    cur = elem.get(m)
    new = c if cur is None else cur + c
    if p:
        new %= p
    if new:
        elem[m] = new
    elif cur is not None:
        del elem[m]


def el_scale(elem: dict, c, p: int) -> dict:
    if p:
        return {m: c * a % p for m, a in elem.items()}
    return {m: c * a for m, a in elem.items()}


def el_leading(elem: dict):
    m = max(elem, key=mon_key)
    return m, elem[m]


def el_str(quiver: DoubledQuiver, elem: dict) -> str:
    if not elem:
        return "0"
    parts = []
    for m in sorted(elem, key=mon_key, reverse=True):
        parts.append(f"({elem[m]})*{mon_str(quiver, m)}")
    return " + ".join(parts)


# ---------------------------------------------------------------------------
# preprojective relations
# ---------------------------------------------------------------------------

@dataclass
class RelationSet:
    """Generators of the two-sided ideal: nilpotency, commutativity, mesh."""

    nilpotency: list        # one per vertex
    commutativity: list     # one per (i, j) in doubled orientation and g
    mesh: list              # one per vertex (zero element at isolated vertices)

    def all_nonzero(self):
        for group in (self.nilpotency, self.commutativity, self.mesh):
            for rel in group:
                if rel:
                    yield rel


def preprojective_relations(quiver: DoubledQuiver, field=QQ) -> RelationSet:
    """(P1) eps_i^{c_i}; (P2) eps_i^{f_ji} a_ij = a_ij eps_j^{f_ij};
    (P3) the mesh sum at every vertex."""
    one = field.one
    minus_one = field.from_int(-1)
    p = field.characteristic
    d = quiver.symmetrizer
    nil = []
    for v in range(1, quiver.n + 1):
        nil.append({loop_power(quiver, v, d[v]): one})
    comm = []
    for (i, j) in sorted(quiver.gij):
        fij = quiver.fij[(i, j)]
        fji = quiver.fij[(j, i)]
        for a in quiver.arrow_family(i, j):
            am = arrow_mon(quiver, a.index)
            lhs = mon_mul(quiver, loop_power(quiver, i, fji), am)
            rhs = mon_mul(quiver, am, loop_power(quiver, j, fij))
            rel = {}
            el_add_term(rel, lhs, one, p)
            el_add_term(rel, rhs, minus_one, p)
            comm.append(rel)
    mesh = []
    for i in range(1, quiver.n + 1):
        rel = {}
        for j in sorted(quiver.cartan.neighbors(i)):
            sgn = one if quiver.orientation.sgn(i, j) == 1 else minus_one
            fji = quiver.fij[(j, i)]
            fam_ij = quiver.arrow_family(i, j)
            fam_ji = quiver.arrow_family(j, i)
            for a_ij, a_ji in zip(fam_ij, fam_ji):
                two = mon_mul(quiver, arrow_mon(quiver, a_ij.index),
                              arrow_mon(quiver, a_ji.index))
                for f in range(fji):
                    m = mon_mul(quiver, loop_power(quiver, i, f), two)
                    m = mon_mul(quiver, m, loop_power(quiver, i, fji - 1 - f))
                    el_add_term(rel, m, sgn, p)
        mesh.append(rel)
    return RelationSet(nil, comm, mesh)


# ---------------------------------------------------------------------------
# two-sided Groebner completion (Bergman/Mora overlap closure)
# ---------------------------------------------------------------------------

class _Completion:
    def __init__(self, quiver, field, max_degree, max_basis):
        self.quiver = quiver
        self.field = field
        self.p = field.characteristic
        self.max_degree = max_degree
        self.max_basis = max_basis
        self.gb = []            # list of monic elements
        self.leads = []         # lead word (arrow tuple) per gb element
        self.lead_map = {}      # word -> gb index
        self.lead_lengths = set()

    def find_occurrence(self, word):
        for ell in sorted(self.lead_lengths):
            if ell > len(word):
                break
            for pos in range(len(word) - ell + 1):
                g = self.lead_map.get(word[pos:pos + ell])
                if g is not None:
                    return pos, ell, g
        return None

    def normal_form(self, elem: dict) -> dict:
        p = self.p
        work = dict(elem)
        out = {}
        while work:
            m = max(work, key=mon_key)
            c = work.pop(m)
            if not c:
                continue
            occ = self.find_occurrence(m[1])
            if occ is None:
                el_add_term(out, m, c, p)
                continue
            pos, ell, gi = occ
            g = self.gb[gi]
            lead = self.leads[gi]
            pre = m[1][:pos]
            q = m[1][pos + ell:]
            for tm, tc in g.items():
                if tm[1] == lead:
                    continue
                word = pre + tm[1] + q
                el_add_term(work, (m[0], word), -(c * tc), p)
        return out

    def add_element(self, elem: dict):
        m, c = el_leading(elem)
        if len(m[1]) > self.max_degree:
            raise CapExceeded(
                f"Groebner lead degree exceeds {self.max_degree}; "
                "algebra not finite-dimensional within caps")
        if len(self.gb) > self.max_basis:
            raise CapExceeded(
                f"Groebner basis exceeds {self.max_basis} elements")
        if c != self.field.one:
            elem = el_scale(elem, self.field.inv(c), self.p)
        gi = len(self.gb)
        self.gb.append(elem)
        self.leads.append(m[1])
        self.lead_map[m[1]] = gi
        self.lead_lengths.add(len(m[1]))
        return gi

    def spolys(self, gi: int, gj: int):
        """Overlap and inclusion ambiguities between leads i and j."""
        u = self.leads[gi]
        w = self.leads[gj]
        p = self.p
        out = []
        # proper overlaps: a suffix of u equals a prefix of w
        for o in range(1, min(len(u), len(w))):
            if u[-o:] == w[:o]:
                q = w[o:]
                pre = u[:-o]
                left = {}
                for tm, tc in self.gb[gi].items():
                    el_add_term(left, (self._ext_source(q, tm), tm[1] + q), tc, p)
                for tm, tc in self.gb[gj].items():
                    el_add_term(left, (tm[0], pre + tm[1]), -tc, p)
                out.append(left)
        # inclusion: w a proper subword of u
        if len(w) < len(u) and gi != gj:
            for pos in range(len(u) - len(w) + 1):
                if u[pos:pos + len(w)] == w:
                    pre = u[:pos]
                    q = u[pos + len(w):]
                    s = dict(self.gb[gi])
                    for tm, tc in self.gb[gj].items():
                        word = pre + tm[1] + q
                        el_add_term(s, (self._ext_source(q, tm), word), -tc, p)
                    out.append(s)
        return out

    def _ext_source(self, q, tm):
        # source of (term-word + q): when q is nonempty it ends the word
        if q:
            return self.quiver.arrows[q[-1]].source
        return tm[0]

    def complete(self, relations):
        for rel in relations:
            h = self.normal_form(rel)
            if h:
                self.add_element(h)
        pending = [(i, j) for i in range(len(self.gb))
                   for j in range(len(self.gb))]
        while pending:
            gi, gj = pending.pop()
            for s in self.spolys(gi, gj):
                h = self.normal_form(s)
                if h:
                    k = self.add_element(h)
                    pending.extend((k, t) for t in range(len(self.gb)))
                    pending.extend((t, k) for t in range(len(self.gb) - 1))

    def reduced_basis(self):
        """Minimal then tail-reduced: the unique reduced monic GB."""
        keep = []
        for gi, lead in enumerate(self.leads):
            minimal = True
            for gj, other in enumerate(self.leads):
                if gj == gi or len(other) > len(lead):
                    continue
                if len(other) == len(lead) and other != lead:
                    continue
                if other == lead and gj < gi:
                    minimal = False
                    break
                if len(other) < len(lead):
                    if any(lead[p:p + len(other)] == other
                           for p in range(len(lead) - len(other) + 1)):
                        minimal = False
                        break
            if minimal:
                keep.append(gi)
        final = _Completion(self.quiver, self.field, self.max_degree,
                            self.max_basis)
        for gi in sorted(keep, key=lambda t: (len(self.leads[t]), self.leads[t])):
            elem = self.gb[gi]
            lead_mon = max(elem, key=mon_key)
            tail = {m: c for m, c in elem.items() if m != lead_mon}
            red = final.normal_form(tail)
            red[lead_mon] = self.field.one
            final.add_element(red)
        return final


# ---------------------------------------------------------------------------
# the finite-dimensional quotient
# ---------------------------------------------------------------------------

class FiniteDimAlgebra:
    """Pi(C, D) on its normal-monomial basis, with table multiplication.

    The algebra holds only its own data: the basis, the arrows as
    coordinates and the memoized products of basis paths.  Modules, ideals
    and the Nakayama permutation point back at it, so nothing here refers to
    them; their memos belong to the caller (``tautilt.IdealSemigroup``)."""

    def __init__(self, cartan_data: CartanData, field, completion: _Completion,
                 basis, relations: RelationSet):
        self.data = cartan_data
        self.quiver = cartan_data.quiver
        self.field = field
        self.n = cartan_data.n
        self._completion = completion
        self.basis = basis  # list of Mon, sorted by mon_key
        self.index = {m: i for i, m in enumerate(basis)}
        self.dim = len(basis)
        self.source = [mon_source(m) for m in basis]
        self.target = [mon_target(self.quiver, m) for m in basis]
        self.e_index = [self.index[trivial_mon(v)] for v in range(1, self.n + 1)]
        self.by_target = {v: [i for i in range(self.dim) if self.target[i] == v]
                          for v in range(1, self.n + 1)}
        self.by_source = {v: [i for i in range(self.dim) if self.source[i] == v]
                          for v in range(1, self.n + 1)}
        # paths[u][v]: the basis of e_u Pi e_v in basis order; pos[g]: the
        # place of path g in its piece
        self.paths = {u: {v: [] for v in range(1, self.n + 1)}
                      for u in range(1, self.n + 1)}
        self.pos = []
        for g in range(self.dim):
            piece = self.paths[self.target[g]][self.source[g]]
            self.pos.append(len(piece))
            piece.append(g)
        self._mul_table = {}
        self.dynkin = cartan_data.dynkin
        self.relations = relations
        # arrow index -> the arrow as sparse coordinates
        self.arrow_coords = tuple(
            self.coords({arrow_mon(self.quiver, a.index): field.one})
            for a in self.quiver.arrows)

    @functools.cached_property
    def prefixes(self):
        """Basis index -> (index of its prefix, its last arrow), None for a
        trivial path.  Normal words are closed under prefixes."""
        arrows = self.quiver.arrows
        return [(self.index[(arrows[w[-1]].target, w[:-1])], w[-1]) if w
                else None for _, w in self.basis]

    @functools.cached_property
    def right_action(self):
        """u -> arrow index -> the Matrix of x -> x a on e_u Pi, from the
        paths of e_u Pi e_{t(a)} to those of e_u Pi e_{s(a)}: the action
        of the regular module e_u Pi."""
        return self._arrow_tables(left=False)

    @functools.cached_property
    def left_action(self):
        """u -> arrow index -> the Matrix of x -> a x on Pi e_u, from the
        paths of e_{s(a)} Pi e_u to those of e_{t(a)} Pi e_u."""
        return self._arrow_tables(left=True)

    def _arrow_tables(self, left):
        """u -> arrow index -> the Matrix whose column j is the product,
        from ``mul_coords``, of the arrow with the j-th path it acts on."""
        one, zero = self.field.one, self.field.zero
        tables = {u: {} for u in range(1, self.n + 1)}
        for u, table in tables.items():
            for a in self.quiver.arrows:
                x = self.arrow_coords[a.index]
                if left:
                    start, end = self.paths[a.source][u], self.paths[a.target][u]
                else:
                    start, end = self.paths[u][a.target], self.paths[u][a.source]
                cols = [[zero] * len(end) for _ in start]
                for g, col in zip(start, cols):
                    prod = (self.mul_coords(x, {g: one}) if left
                            else self.mul_coords({g: one}, x))
                    for h, c in prod.items():
                        col[self.pos[h]] = c
                table[a.index] = Matrix.from_cols(cols, len(end), self.field)
        return tables

    # -- element plumbing ---------------------------------------------------

    def groebner_words(self):
        return [tuple(sorted(((m[1], m[0]) for m in g), reverse=True))
                for g in self._completion.gb]

    def nf_free(self, elem: dict) -> dict:
        """Normal form of a free element; idempotent."""
        return self._completion.normal_form(elem)

    def coords(self, elem: dict) -> dict:
        """Free element -> sparse coordinates {basis index: scalar}."""
        nf = self.nf_free(elem)
        return {self.index[m]: c for m, c in nf.items()}

    def unit_coords(self) -> dict:
        return {self.e_index[v - 1]: self.field.one for v in range(1, self.n + 1)}

    def mul_basis(self, i: int, j: int) -> dict:
        key = (i, j)
        cached = self._mul_table.get(key)
        if cached is None:
            m = mon_mul(self.quiver, self.basis[i], self.basis[j])
            if m is None:
                cached = {}
            else:
                nf = self.nf_free({m: self.field.one})
                cached = {self.index[t]: c for t, c in nf.items()}
            self._mul_table[key] = cached
        return cached

    def mul_coords(self, x: dict, y: dict) -> dict:
        out = {}
        p = self.field.characteristic
        if p:
            for i, a in x.items():
                for j, b in y.items():
                    prod = self.mul_basis(i, j)
                    if prod:
                        ab = a * b
                        for k, c in prod.items():
                            new = (out.get(k, 0) + ab * c) % p
                            if new:
                                out[k] = new
                            else:
                                out.pop(k, None)
            return out
        for i, a in x.items():
            for j, b in y.items():
                prod = self.mul_basis(i, j)
                if prod:
                    ab = a * b
                    for k, c in prod.items():
                        cur = out.get(k)
                        new = ab * c if cur is None else cur + ab * c
                        if new:
                            out[k] = new
                        elif cur is not None:
                            del out[k]
        return out

    def dims_matrix(self):
        """dim e_i Pi e_j = # basis paths with target i, source j."""
        return [[len(p) for p in row.values()] for row in self.paths.values()]

    def vertex_dims(self):
        """dim e_i Pi for each i."""
        return [sum(map(len, row.values())) for row in self.paths.values()]

    def __repr__(self):
        return f"Pi(dim={self.dim}, n={self.n}, field={self.field!r})"


def _enumerate_normal_monomials(quiver, completion, max_degree, max_basis):
    leads = set(completion.lead_map)
    lead_lengths = sorted({len(w) for w in leads})
    basis = [trivial_mon(v) for v in range(1, quiver.n + 1)]
    frontier = list(basis)
    by_source = {v: [] for v in range(1, quiver.n + 1)}
    for a in quiver.arrows:
        by_source[a.target].append(a.index)  # arrows appendable to source(m)=target(a)
    length = 0
    while frontier:
        length += 1
        if length > max_degree:
            raise CapExceeded(
                f"normal monomials of degree > {max_degree}; "
                "algebra not finite-dimensional within caps")
        new = []
        for m in frontier:
            src = m[0]
            for aidx in by_source[src]:
                word = m[1] + (aidx,)
                ok = True
                for ell in lead_lengths:
                    if ell > len(word):
                        break
                    if word[-ell:] in leads:
                        ok = False
                        break
                if ok:
                    new.append((quiver.arrows[aidx].source, word))
        basis.extend(new)
        if len(basis) > max_basis:
            raise CapExceeded(
                f"normal monomial count exceeds {max_basis}; "
                "algebra not finite-dimensional within caps")
        frontier = new
    basis.sort(key=mon_key)
    return basis


def build_algebra(data: CartanData, field=QQ, max_degree: int = 64,
                  max_basis: int = 20000) -> FiniteDimAlgebra:
    """Pi(C, D): complete the relations (P1)-(P3) to a reduced Groebner
    basis and build the quotient on its normal monomials.  Succeeds iff
    that set is finite within the caps; raises CapExceeded otherwise."""
    quiver = data.quiver
    relations = preprojective_relations(quiver, field)
    comp = _Completion(quiver, field, max_degree, max_basis)
    comp.complete(list(relations.all_nonzero()))
    comp = comp.reduced_basis()
    basis = _enumerate_normal_monomials(quiver, comp, max_degree, max_basis)
    return FiniteDimAlgebra(data, field, comp, basis, relations)


# ---------------------------------------------------------------------------
# verification
# ---------------------------------------------------------------------------

def verify_algebra(algebra: FiniteDimAlgebra) -> None:
    """Relations reduce to zero, identity decomposition, associativity
    (complete, through the triples path x path x arrow).  Raises
    ``VerificationFailed`` with a witness when a check fails."""
    field = algebra.field
    for rel in algebra.relations.all_nonzero():
        if algebra.nf_free(rel):
            raise VerificationFailed("relation does not reduce to zero",
                                     witness=el_str(algebra.quiver, rel))
    one = algebra.unit_coords()
    for i in range(algebra.dim):
        x = {i: field.one}
        if algebra.mul_coords(one, x) != x or algebra.mul_coords(x, one) != x:
            raise VerificationFailed("identity decomposition fails",
                                     witness=algebra.basis[i])
    # (xy)a = x(ya) for basis paths x, y and arrows a is complete: every
    # basis path z != e_v is z'a with z' a basis path (normal words are
    # closed under prefixes), so by induction on |z|, from the identity
    # check at |z| = 0,
    # (xy)z = ((xy)z')a = (x(yz'))a = x((yz')a) = x(y(z'a)) = x(yz),
    # each step a checked triple extended by linearity.
    for a in algebra.quiver.arrows:
        arrow = algebra.arrow_coords[a.index]
        if not arrow:
            continue
        for j in algebra.by_source[a.target]:
            ja = algebra.mul_coords({j: field.one}, arrow)
            for i in algebra.by_source[algebra.target[j]]:
                left = algebra.mul_coords(algebra.mul_basis(i, j), arrow)
                right = algebra.mul_coords({i: field.one}, ja)
                if left != right:
                    raise VerificationFailed(
                        "associativity fails",
                        witness=(algebra.basis[i], algebra.basis[j],
                                 arrow_mon(algebra.quiver, a.index)))
