import pytest
from oracles import projective_module

from preproj.cartan import cartan_data
from preproj.errors import CapExceeded, VerificationFailed
from preproj.fields import QQ, PrimeField
from preproj.linalg import rref
from preproj.pathalg import (
    arrow_mon,
    build_algebra,
    loop_power,
    mon_mul,
    mon_str,
    preprojective_relations,
    verify_algebra,
)
from preproj.repmod import structure_series
from preproj.tautilt import IdealSemigroup

EG1 = cartan_data([[2, -1], [-1, 2]], (2, 2))
EG2 = cartan_data([[2, -1], [-2, 2]], (2, 1))
G2 = cartan_data([[2, -1], [-3, 2]], (3, 1))
B4 = cartan_data([[2, -1, 0, 0], [-1, 2, -1, 0], [0, -1, 2, -1],
                  [0, 0, -2, 2]], "minimal")
F4 = cartan_data([[2, -1, 0, 0], [-1, 2, -2, 0], [0, -1, 2, -1],
                  [0, 0, -1, 2]], "minimal")


def _mon(q, *arrow_names):
    """Build a path monomial from arrow names (product order)."""
    by_name = {a.name: a.index for a in q.arrows}
    word = tuple(by_name[n] for n in arrow_names)
    src = q.arrows[word[-1]].source
    return (src, word)


def test_relations_eg1():
    rels = preprojective_relations(EG1.quiver, QQ)
    q = EG1.quiver
    one = QQ.one
    assert rels.nilpotency[0] == {_mon(q, "eps1", "eps1"): one}
    assert rels.nilpotency[1] == {_mon(q, "eps2", "eps2"): one}
    assert rels.commutativity[0] == {
        _mon(q, "eps1", "a12"): one, _mon(q, "a12", "eps2"): -one}
    assert rels.commutativity[1] == {
        _mon(q, "eps2", "a21"): one, _mon(q, "a21", "eps1"): -one}
    assert rels.mesh[0] == {_mon(q, "a12", "a21"): one}
    assert rels.mesh[1] == {_mon(q, "a21", "a12"): -one}


def test_relations_eg2_mesh():
    rels = preprojective_relations(EG2.quiver, QQ)
    q = EG2.quiver
    one = QQ.one
    # mesh at vertex 1: a12 a21 eps1 + eps1 a12 a21
    assert rels.mesh[0] == {
        _mon(q, "a12", "a21", "eps1"): one,
        _mon(q, "eps1", "a12", "a21"): one,
    }
    # commutativity uses f_21 = 2: eps1^2 a12 = a12 eps2
    assert rels.commutativity[0] == {
        _mon(q, "eps1", "eps1", "a12"): one,
        _mon(q, "a12", "eps2"): -one,
    }


def test_relations_g2_mesh():
    rels = preprojective_relations(G2.quiver, QQ)
    q = G2.quiver
    one = QQ.one
    assert rels.mesh[0] == {
        _mon(q, "a12", "a21", "eps1", "eps1"): one,
        _mon(q, "eps1", "a12", "a21", "eps1"): one,
        _mon(q, "eps1", "eps1", "a12", "a21"): one,
    }


def test_quotient_dimensions():
    a1 = build_algebra(EG1)
    assert a1.dim == 8
    assert a1.vertex_dims() == [4, 4]
    a2 = build_algebra(EG2)
    assert a2.dim == 10
    assert a2.vertex_dims() == [6, 4]
    for d in (1, 2, 5):
        r = build_algebra(cartan_data([[2]], (d,)))
        assert r.dim == d
        assert [mon_str(r.quiver, m) for m in r.basis][:2] == \
            (["e1"] if d == 1 else ["e1", "eps1"])


def test_normal_form_examples():
    a2 = build_algebra(EG2)
    q = a2.quiver
    one = QQ.one
    # a12 a21 eps1 -> -eps1 a12 a21 by the mesh relation
    nf = a2.nf_free({_mon(q, "a12", "a21", "eps1"): one})
    assert nf == {_mon(q, "eps1", "a12", "a21"): -one}
    # eps_i^{c_i} -> 0
    for alg in (build_algebra(EG1), a2):
        for v in range(1, 3):
            c = alg.quiver.symmetrizer[v]
            assert alg.nf_free({loop_power(alg.quiver, v, c): one}) == {}
    # eg1: eps1 a12 and a12 eps2 have identical normal forms
    a1 = build_algebra(EG1)
    q1 = a1.quiver
    lhs = a1.nf_free({_mon(q1, "eps1", "a12"): one})
    rhs = a1.nf_free({_mon(q1, "a12", "eps2"): one})
    assert lhs == rhs != {}


def test_normal_form_idempotent():
    alg = build_algebra(EG2)
    q = alg.quiver
    x = {_mon(q, "a12", "a21", "eps1"): QQ.one,
         _mon(q, "eps1", "eps1"): QQ.from_int(3),
         (1, ()): QQ.one}
    once = alg.nf_free(x)
    assert alg.nf_free(once) == once


def test_mul_matches_free_reduction():
    alg = build_algebra(EG2)
    q = alg.quiver
    a12 = arrow_mon(q, 2)
    a21 = arrow_mon(q, 3)
    assert q.arrows[2].name == "a12" and q.arrows[3].name == "a21"
    x = alg.coords({a12: QQ.one})
    y = alg.coords({a21: QQ.one})
    prod = alg.mul_coords(x, y)
    direct = alg.coords({mon_mul(q, a12, a21): QQ.one})
    assert prod == direct


def _radical_layers(A, v):
    return structure_series(projective_module(A, v))


def _layer_sizes(A, v):
    return [sum(layer) for layer in _radical_layers(A, v)]


def test_verify_reports_layers():
    """``verify_algebra`` passes (it raises otherwise) and the radical
    layers of each e_v Pi come from the module layer."""
    A1 = build_algebra(EG1)
    assert verify_algebra(A1) is None
    assert _layer_sizes(A1, 1) == [1, 2, 1]
    assert _layer_sizes(A1, 2) == [1, 2, 1]
    A2 = build_algebra(EG2)
    verify_algebra(A2)
    assert _layer_sizes(A2, 1) == [1, 2, 2, 1]
    assert _layer_sizes(A2, 2) == [1, 1, 1, 1]
    # socle rows: e1Pi of eg1 ends in S_2
    assert _radical_layers(A1, 1)[-1] == (0, 1)
    A3 = build_algebra(cartan_data([[2]], (3,)))
    verify_algebra(A3)
    assert _layer_sizes(A3, 1) == [1, 1, 1]


def test_verify_algebra_finds_one_corrupted_product():
    """A wrong memoized product p * a with |p| >= 2 fails the associativity
    check, which names a triple (x, y, a) with p in the support of xy.
    B4 has dim 84; a sample of triples would likely miss the one entry."""
    A = build_algebra(B4)
    assert A.dim == 84
    q = A.quiver
    p, a, j = next((i, a.index, j) for i, m in enumerate(A.basis)
                   if len(m[1]) >= 2 for a in q.arrows
                   for j in A.arrow_coords[a.index] if A.mul_basis(i, j))
    A._mul_table[p, j] = {k: 2 * c for k, c in A._mul_table[p, j].items()}
    with pytest.raises(VerificationFailed, match="associativity fails") as err:
        verify_algebra(A)
    x, y, arrow = err.value.witness
    assert arrow == arrow_mon(q, a)
    assert p in A.mul_basis(A.index[x], A.index[y])


def test_groebner_determinism():
    a = build_algebra(EG2)
    b = build_algebra(cartan_data([[2, -1], [-2, 2]], (2, 1)))
    assert list(a.basis) == list(b.basis)
    assert a.groebner_words() == b.groebner_words()
    # golden ordered basis for eg1
    eg1 = build_algebra(EG1)
    assert [mon_str(eg1.quiver, m) for m in eg1.basis] == [
        "e1", "e2", "eps1", "eps2", "a12", "a21", "eps1*a12", "eps2*a21"]


def test_orientation_independence():
    for data in (EG1, EG2):
        flipped = cartan_data(
            [list(r) for r in data.cartan.entries],
            tuple(data.symmetrizer.c),
            [(j, i) for (i, j) in data.orientation.pairs])
        a = build_algebra(data)
        b = build_algebra(flipped)
        assert a.dim == b.dim
        assert a.dims_matrix() == b.dims_matrix()


def test_prime_field_agreement():
    for data in (EG1, EG2, G2):
        base = build_algebra(data)
        for p in (101, 32003):
            modp = build_algebra(data, field=PrimeField(p))
            assert modp.dim == base.dim
            assert modp.vertex_dims() == base.vertex_dims()
            assert modp.dims_matrix() == base.dims_matrix()


def test_truncated_loop_subalgebra_embeds():
    # the classes of e_i, eps_i, ..., eps_i^{c_i - 1} stay independent
    for data in (EG1, EG2, G2):
        alg = build_algebra(data)
        for v in range(1, alg.n + 1):
            c = alg.quiver.symmetrizer[v]
            seen = set()
            for k in range(c):
                coords = alg.coords({loop_power(alg.quiver, v, k): QQ.one})
                assert len(coords) == 1
                seen.add(next(iter(coords)))
            assert len(seen) == c


def test_affine_cap_exceeded():
    aff = cartan_data([[2, -2], [-2, 2]])
    with pytest.raises(CapExceeded):
        build_algebra(aff, max_degree=8, max_basis=500)


def test_multi_arrow_quotient_runs():
    with pytest.raises(CapExceeded):
        build_algebra(cartan_data([[2, -2], [-2, 2]]), QQ, max_degree=6,
                      max_basis=100)


@pytest.mark.parametrize("data", [
    B4, F4, cartan_data([[2, -1], [-3, 2]], (6, 2)),
    cartan_data([[2, -1], [-2, 2]], (4, 2))],
    ids=["b4", "f4", "g2-62", "b2-42"])
def test_basis_paths_are_closed_under_prefixes(data):
    """The prefix of every nonempty basis path (the path without its last
    arrow) is an earlier basis path with the same target, and the prefix
    table, built on first use and not with the algebra, agrees with
    ``index``."""
    A = build_algebra(data)
    assert "prefixes" not in vars(A)
    arrows = A.quiver.arrows
    for g, (_, word) in enumerate(A.basis):
        if not word:
            assert A.prefixes[g] is None
            continue
        h = A.index[(arrows[word[-1]].target, word[:-1])]
        assert h < g and A.target[h] == A.target[g]
        assert A.prefixes[g] == (h, word[-1])


@pytest.mark.parametrize("data, field", [
    (EG1, QQ), (EG2, QQ), (G2, QQ), (B4, QQ), (G2, PrimeField(5))],
    ids=["eg1", "eg2", "g2", "b4", "g2-f5"])
def test_action_tables_match_mul_coords(data, field):
    """For every basis path g and every arrow a, the column of g in
    ``right_action`` is g a and in ``left_action`` a g, as ``mul_coords``
    gives them, read by path; a product the tables omit is zero."""
    A = build_algebra(data, field=field)
    one, zero = field.one, field.zero
    for g in range(A.dim):
        u, v = A.target[g], A.source[g]
        for a in A.quiver.arrows:
            arrow = A.arrow_coords[a.index]
            right = A.mul_coords({g: one}, arrow)
            if a.target == v:
                assert A.right_action[u][a.index].col(A.pos[g]) == \
                    [right.get(h, zero) for h in A.paths[u][a.source]]
            else:
                assert right == {}
            left = A.mul_coords(arrow, {g: one})
            if a.source == u:
                assert A.left_action[v][a.index].col(A.pos[g]) == \
                    [left.get(h, zero) for h in A.paths[a.target][v]]
            else:
                assert left == {}
    for u in range(1, A.n + 1):
        for a in A.quiver.arrows:
            m = A.right_action[u][a.index]
            assert (m.nrows, m.ncols) == (len(A.paths[u][a.source]),
                                          len(A.paths[u][a.target]))
            m = A.left_action[u][a.index]
            assert (m.nrows, m.ncols) == (len(A.paths[a.target][u]),
                                          len(A.paths[a.source][u]))


_CLOSED_FORM_SPECS = {
    "b4": (B4.cartan.entries, "minimal"),
    "c4": ([[2, -1, 0, 0], [-1, 2, -1, 0], [0, -1, 2, -2], [0, 0, -1, 2]],
           "minimal"),
    "d5": ([[2, -1, 0, 0, 0], [-1, 2, -1, 0, 0], [0, -1, 2, -1, -1],
            [0, 0, -1, 2, 0], [0, 0, -1, 0, 2]], "minimal"),
    "g2-31": ([[2, -1], [-3, 2]], (3, 1)),
    "g2-62": ([[2, -1], [-3, 2]], (6, 2)),
    "b2-42": ([[2, -1], [-2, 2]], (4, 2)),
    "a2-22": ([[2, -1], [-1, 2]], (2, 2)),
}


@pytest.mark.parametrize("field", [QQ, PrimeField(101)], ids=["qq", "f101"])
@pytest.mark.parametrize("name", sorted(_CLOSED_FORM_SPECS))
def test_piece_dims_have_a_closed_form(name, field):
    """dim e_vPi e_u = d_u ((C^-1)_uv + (C^-1)_{u sigma(v)}), with sigma the
    Nakayama permutation and C^-1 over the rationals, whatever the field
    of Pi."""
    entries, sym = _CLOSED_FORM_SPECS[name]
    A = build_algebra(cartan_data(entries, sym), field=field)
    n = A.n
    rows, _ = rref([list(r) + [int(i == j) for j in range(n)]
                    for i, r in enumerate(entries)], 2 * n, QQ)
    inv = [r[n:] for r in rows]
    sigma = IdealSemigroup(A, None).sigma
    d = A.quiver.symmetrizer
    for v in range(1, n + 1):
        for u in range(1, n + 1):
            want = d[u] * (inv[u - 1][v - 1] + inv[u - 1][sigma[v - 1] - 1])
            assert len(A.paths[v][u]) == want, (v, u)
