import dataclasses
import inspect

import pytest

from conftest import brute_hom_dim
from oracles import (
    RadicalUnavailable,
    ext1_dim,
    from_word,
    projective_module,
    simple_module,
    syzygy,
    trace_form_indecomposable,
    uniserial_module,
    vertex_ideal,
)
from preproj.cartan import cartan_data
from preproj.coxeter import enumerate_weyl
from preproj.errors import VerificationFailed
from preproj.fields import QQ, PrimeField
from preproj.linalg import Matrix, Subspace, nullspace, solve_matrix
from preproj.pathalg import build_algebra
from preproj.repmod import (
    ModuleRep,
    _approximation_matrix,
    _path_walk,
    auslander_reiten_translate,
    direct_sum,
    generalized_simple,
    hom_space,
    hom_to_tau_vanishes,
    in_fac,
    is_indecomposable,
    is_isomorphic,
    locally_free_rank,
    minimal_projective_presentation,
    module_from_subspace,
    nakayama,
    nakayama_nu,
    quotient_module,
    radical_subspaces,
    socle_subspaces,
    structure_series,
    zero_module,
)
from preproj.tautilt import (
    IdealSemigroup,
    _ascents,
    left_mutation,
    stt_pair,
)


def test_generalized_simple_shapes(algebras):
    eg1, eg2 = algebras["eg1"], algebras["eg2"]
    E1 = generalized_simple(eg1, 1)
    assert E1.dims == [2, 0]
    E2 = generalized_simple(eg2, 2)
    assert E2.dims == [0, 1]
    # c_i = 1 makes E_i the ordinary simple
    assert is_isomorphic(E2, simple_module(eg2, 2))
    assert uniserial_module(eg1, 1, 1).dims == [1, 0]


def test_hom_dims_with_oracle(algebras):
    eg1 = algebras["eg1"]
    E1 = generalized_simple(eg1, 1)
    P1 = projective_module(eg1, 1)
    P2 = projective_module(eg1, 2)
    assert len(hom_space(P1, E1)) == 2 == brute_hom_dim(P1, E1)
    assert len(hom_space(P2, E1)) == 0 == brute_hom_dim(P2, E1)
    assert len(hom_space(P1, zero_module(eg1))) == 0
    # materialized maps really intertwine: check one against the oracle count
    hb = hom_space(P1, P1)
    assert len(hb) == brute_hom_dim(P1, P1)


def test_materialized_homs_intertwine(algebras, semigroups):
    from preproj.linalg import Matrix, Subspace
    for name in ("eg1", "eg2"):
        A = algebras[name]
        pairs = [
            (projective_module(A, 1), generalized_simple(A, 1)),
            (projective_module(A, 2), projective_module(A, 2)),
            (generalized_simple(A, 1), projective_module(A, 1)),
            (vertex_ideal(semigroups[name].table, {1}).block(1),
             generalized_simple(A, 2)),
        ]
        for M, N in pairs:
            hb = hom_space(M, N)
            assert len(hb) == brute_hom_dim(M, N)
            flat = Subspace(
                sum(N.dims[v] * M.dims[v] for v in range(A.n)), A.field)
            for f in hb:
                for a in A.quiver.arrows:
                    left = f[a.source].mul(M.act[a.index])
                    right = N.act[a.index].mul(f[a.target])
                    assert left.rows == right.rows
                vec = []
                for v in range(1, A.n + 1):
                    for row in f[v].rows:
                        vec.extend(row)
                assert flat.add(vec)  # linearly independent family
            assert flat.dim == len(hb)


def test_yoneda(algebras):
    for name in ("eg1", "eg2", "g2"):
        A = algebras[name]
        mods = [projective_module(A, v) for v in range(1, A.n + 1)]
        mods += [generalized_simple(A, v) for v in range(1, A.n + 1)]
        for M in mods:
            for j in range(1, A.n + 1):
                assert len(hom_space(projective_module(A, j), M)) == \
                    M.dims[j - 1]


def test_structure_series(algebras):
    eg1, eg2 = algebras["eg1"], algebras["eg2"]
    layers = structure_series(projective_module(eg2, 1))
    assert [sum(l) for l in layers] == [1, 2, 2, 1]
    assert layers == [(1, 0), (1, 1), (1, 1), (1, 0)]
    assert structure_series(simple_module(eg1, 1)) == [(1, 0)]


def test_presentations(algebras):
    eg1, eg2 = algebras["eg1"], algebras["eg2"]
    for v in (1, 2):
        pres = minimal_projective_presentation(projective_module(eg1, v))
        assert pres.p0 == [v] and pres.p1 == []
    pres = minimal_projective_presentation(generalized_simple(eg1, 1))
    assert pres.p0 == [1] and pres.p1 == [2]
    pres2 = minimal_projective_presentation(generalized_simple(eg2, 1))
    assert pres2.p0 == [1] and pres2.p1 == [2, 2]


def test_presentations_keep_no_syzygy(algebras):
    """The memoized presentation holds the x_kl, not the syzygy K: no
    field is a module or a subspace, or a dict of them."""
    M = generalized_simple(algebras["eg2"], 1)
    pres = minimal_projective_presentation(M)
    assert pres.p1 and syzygy(M).total_dim
    values = [getattr(pres, f.name) for f in dataclasses.fields(pres)]
    values += [x for value in values if isinstance(value, dict)
               for x in value.values()]
    assert not any(isinstance(x, (ModuleRep, Subspace)) for x in values)


def test_tau_basics(algebras):
    for name in ("eg1", "eg2"):
        A = algebras[name]
        for v in range(1, A.n + 1):
            assert auslander_reiten_translate(projective_module(A, v)).total_dim == 0
    eg1 = algebras["eg1"]
    tE1 = auslander_reiten_translate(generalized_simple(eg1, 1))
    assert tE1.total_dim == 2


def test_tau_of_ideal_blocks(algebras, semigroups):
    # tau(e_i I_i) is the generalized simple E_i
    for name in ("eg1", "eg2", "g2"):
        A = algebras[name]
        for i in range(1, A.n + 1):
            blk = vertex_ideal(semigroups[name].table, {i}).block(i)
            if blk is None:
                continue
            t = auslander_reiten_translate(blk)
            Ei = generalized_simple(A, i)
            assert is_isomorphic(t, Ei)
            # cross-check through the independent intertwiner count
            assert brute_hom_dim(t, Ei) == brute_hom_dim(Ei, Ei)


def _projectives(A):
    return [projective_module(A, v) for v in range(1, A.n + 1)]


def test_nakayama(algebras, semigroups):
    assert nakayama(_projectives(algebras["eg1"])) == (2, 1)
    assert nakayama(_projectives(algebras["eg2"])) == (1, 2)
    for name in ("eg1", "eg2", "g2", "a3", "b3"):
        A = algebras[name]
        sigma = nakayama(_projectives(A))
        assert semigroups[name].sigma == sigma
        for i in range(1, A.n + 1):
            si = sigma[i - 1]
            assert A.quiver.symmetrizer[i] == A.quiver.symmetrizer[si]
            nu = nakayama_nu(generalized_simple(A, si))
            assert is_isomorphic(nu, generalized_simple(A, i))
            # nu(e_{sigma(i)} Pi) recovers e_i Pi
            nup = nakayama_nu(projective_module(A, si))
            assert is_isomorphic(nup, projective_module(A, i))


def test_ext1(algebras):
    eg1 = algebras["eg1"]
    E1 = generalized_simple(eg1, 1)
    E2 = generalized_simple(eg1, 2)
    P1 = projective_module(eg1, 1)
    assert ext1_dim(P1, E1) == 0
    assert ext1_dim(E1, E2) == ext1_dim(E2, E1)
    pi = direct_sum(eg1, [P1, projective_module(eg1, 2)])
    assert ext1_dim(pi, pi) == 0


def test_ext1_symmetry_on_locally_free(algebras, semigroups):
    for name in ("eg1", "eg2"):
        A = algebras[name]
        mods = []
        for i in range(1, A.n + 1):
            mods.append(generalized_simple(A, i))
            mods.append(projective_module(A, i))
            blk = vertex_ideal(semigroups[name].table, {i}).block(i)
            if blk is not None:
                mods.append(blk)
        for M in mods:
            for N in mods:
                assert ext1_dim(M, N) == ext1_dim(N, M)


def test_locally_free_rank(algebras):
    eg1 = algebras["eg1"]
    for i in (1, 2):
        alpha = tuple(1 if j == i else 0 for j in range(1, 3))
        assert locally_free_rank(generalized_simple(eg1, i)) == alpha
    assert locally_free_rank(projective_module(eg1, 1)) == (1, 1)
    assert locally_free_rank(simple_module(eg1, 1)) is None
    assert locally_free_rank(zero_module(eg1)) == (0, 0)


def test_rank_additivity(algebras, semigroups):
    # 0 -> e_i I_i -> e_i Pi -> E_i -> 0 has additive rank vectors
    for name in ("eg1", "eg2", "g2", "a3", "b3"):
        A = algebras[name]
        for i in range(1, A.n + 1):
            blk = vertex_ideal(semigroups[name].table, {i}).block(i)
            if blk is None:
                continue
            r_sub = locally_free_rank(blk)
            r_mid = locally_free_rank(projective_module(A, i))
            r_quot = locally_free_rank(generalized_simple(A, i))
            assert r_sub is not None and r_mid is not None
            assert tuple(a + b for a, b in zip(r_sub, r_quot)) == r_mid


def test_dimension_identity(algebras):
    # dim E_i + dim E_{sigma(i)} + sum_j |c_ji| dim e_j Pi = 2 dim e_i Pi
    for name in ("eg1", "eg2", "g2", "a3", "b3"):
        A = algebras[name]
        sigma = nakayama(_projectives(A))
        pdims = [projective_module(A, j).total_dim for j in range(1, A.n + 1)]
        for i in range(1, A.n + 1):
            lhs = (generalized_simple(A, i).total_dim
                   + generalized_simple(A, sigma[i - 1]).total_dim
                   + sum(abs(A.data.cartan[j, i]) * pdims[j - 1]
                         for j in range(1, A.n + 1) if j != i))
            assert lhs == 2 * pdims[i - 1]


def test_tau_rigidity(algebras):
    eg1 = algebras["eg1"]
    for i in (1, 2):
        Ei, Pi = generalized_simple(eg1, i), projective_module(eg1, i)
        assert hom_to_tau_vanishes(Ei, Ei)
        assert hom_to_tau_vanishes(Pi, Pi)
    both = direct_sum(eg1, [generalized_simple(eg1, 1),
                            generalized_simple(eg1, 2)])
    assert not hom_to_tau_vanishes(both, both)
    # oracle: Hom(E_1, tau E_2) is nonzero by direct intertwiner count
    tE2 = auslander_reiten_translate(generalized_simple(eg1, 2))
    assert brute_hom_dim(generalized_simple(eg1, 1), tE2) > 0


def _hom_to_tau_is_zero(Y, X):
    """Oracle for ``hom_to_tau_vanishes``: Hom(Y, tau X) = 0 through the
    module tau X."""
    return len(hom_space(Y, auslander_reiten_translate(X))) == 0


@pytest.mark.parametrize("entries, sym, field", [
    ([[2, -1, 0], [-1, 2, -1], [0, -2, 2]], "minimal", QQ),
    ([[2, -1, 0], [-1, 2, -1], [0, -2, 2]], "minimal", PrimeField(101)),
    ([[2, -1], [-3, 2]], (3, 1), QQ),
    ([[2, -1], [-2, 2]], (4, 2), QQ)],
    ids=["b3-qq", "b3-f101", "g2-31", "b2-42"])
def test_hom_to_tau_from_the_presentation_matches_the_tau_route(
        entries, sym, field):
    """Adachi-Iyama-Reiten Prop. 2.4 on every ordered pair of distinct
    blocks: Hom(Y, tau X) = 0 iff the presentation of X gives an onto
    Hom(P0, Y) -> Hom(P1, Y), whichever way the verdict falls."""
    A = build_algebra(cartan_data(entries, sym), field=field)
    blocks = _distinct_blocks(IdealSemigroup(A, enumerate_weyl(A.data.cartan)))
    verdicts = set()
    for Y in blocks:
        for X in blocks:
            got = hom_to_tau_vanishes(Y, X)
            assert got == _hom_to_tau_is_zero(Y, X)
            verdicts.add(got)
    assert verdicts == {True, False}


def test_hom_to_tau_on_the_modules_of_eg1(algebras):
    """The same equivalence on E_1, E_2, e_1 Pi, e_2 Pi, the non-rigid
    E_1 + E_2, the uniserial S_1 and the zero module of example 1."""
    eg1 = algebras["eg1"]
    E1, E2 = generalized_simple(eg1, 1), generalized_simple(eg1, 2)
    mods = [E1, E2, projective_module(eg1, 1), projective_module(eg1, 2),
            direct_sum(eg1, [E1, E2]), simple_module(eg1, 1),
            zero_module(eg1)]
    for Y in mods:
        for X in mods:
            assert hom_to_tau_vanishes(Y, X) == _hom_to_tau_is_zero(Y, X)
    assert not hom_to_tau_vanishes(mods[4], mods[4])
    assert not _hom_to_tau_is_zero(mods[4], mods[4])


def test_in_fac(algebras):
    eg1 = algebras["eg1"]
    P1 = projective_module(eg1, 1)
    E2 = generalized_simple(eg1, 2)
    assert in_fac([P1], P1)
    assert in_fac([P1], zero_module(eg1))
    # E_2 is not a quotient of copies of e_1 Pi (no homs land in it)
    assert not in_fac([P1], E2)
    assert brute_hom_dim(P1, E2) == 0


def test_isomorphism(algebras, semigroups):
    eg1 = algebras["eg1"]
    blk = vertex_ideal(semigroups["eg1"].table, {1}).block(1)
    assert is_isomorphic(blk, generalized_simple(eg1, 2))
    assert not is_isomorphic(projective_module(eg1, 1),
                             projective_module(eg1, 2))
    e2I2 = vertex_ideal(semigroups["eg2"].table, {2}).block(2)
    assert is_indecomposable(e2I2)
    assert e2I2.total_dim == 3


def _distinct_blocks(ctx):
    blocks = {}
    for w in ctx.weyl:
        ideal = ctx.of_element(w)
        for v in range(1, ctx.algebra.n + 1):
            blk = ideal.block(v)
            if blk is not None:
                blocks.setdefault(id(blk), blk)
    return list(blocks.values())


def _conjugate(M, offset=0):
    """M in another basis: act[a] -> P_s act[a] P_t^-1, where each P_v is a
    unit lower times a unit upper triangular matrix (invertible over any
    field) with entries fixed by the vertex, the position and ``offset``."""
    A = M.algebra
    field = A.field
    P, P_inv = {}, {}
    for v in range(1, A.n + 1):
        d = M.dims[v - 1]
        lower = Matrix.identity(d, field)
        upper = Matrix.identity(d, field)
        for r in range(d):
            for c in range(d):
                if r > c:
                    lower.rows[r][c] = field.from_int(r + 2 * c + v + offset)
                elif r < c:
                    upper.rows[r][c] = field.from_int(
                        2 * r + c + v + 1 + offset)
        P[v] = lower.mul(upper)
        P_inv[v] = solve_matrix(P[v], Matrix.identity(d, field))
    act = {a.index: P[a.source].mul(M.act[a.index]).mul(P_inv[a.target])
           for a in A.quiver.arrows}
    return ModuleRep(A, M.dims, act)


@pytest.mark.parametrize("entries, sym", [
    ([[2, -1, 0], [-1, 2, -1], [0, -2, 2]], "minimal"),
    ([[2, -1], [-3, 2]], (3, 1))], ids=["b3", "g2"])
@pytest.mark.parametrize("field", [QQ, PrimeField(3)], ids=["qq", "f3"])
def test_isomorphism_is_deterministic_on_blocks(entries, sym, field):
    """Every distinct block is isomorphic to a copy in another basis, and
    distinct blocks are pairwise non-isomorphic; no seed is involved."""
    assert "seed" not in inspect.signature(is_isomorphic).parameters
    A = build_algebra(cartan_data(entries, sym), field=field)
    blocks = _distinct_blocks(IdealSemigroup(A, enumerate_weyl(A.data.cartan)))
    largest_hom = 0
    for blk in blocks:
        copy = _conjugate(blk)
        assert is_isomorphic(blk, copy) and is_isomorphic(copy, blk)
        largest_hom = max(largest_hom, len(hom_space(blk, copy)))
    # the check reaches Hom spaces of dimension > 4
    assert largest_hom > 4
    same_dims = 0
    for a, M in enumerate(blocks):
        for N in blocks[a + 1:]:
            assert not is_isomorphic(M, N)
            same_dims += M.dims == N.dims
    # some non-isomorphic pair is told apart by the Hom test alone
    assert same_dims > 0


def test_isomorphism_computes_no_series(semigroups):
    """Deciding M ~ N reads no radical layers of either module."""
    blk = vertex_ideal(semigroups["b3"].table, {2}).block(2)
    M = ModuleRep(blk.algebra, blk.dims, blk.act)  # an empty cache
    N = _conjugate(M)
    assert is_isomorphic(M, N)
    assert "series" not in M._cache and "series" not in N._cache


def test_indecomposability(algebras):
    eg1 = algebras["eg1"]
    assert is_indecomposable(generalized_simple(eg1, 1))
    two = direct_sum(eg1, [simple_module(eg1, 1), simple_module(eg1, 1)])
    assert not is_indecomposable(two)
    assert not is_indecomposable(zero_module(eg1))


def test_indecomposable_reduces_the_trace_mod_p():
    """Over F_7 the trace form of End(M) for M = S_2 + e_1Pi + e_2Pi, in a
    conjugated basis, has entries that are multiples of 7 before the
    reduction; unreduced, the rank computation of the trace-form oracle
    divides by one of them.  Its socle is not simple either."""
    A = build_algebra(cartan_data([[2, -1], [-1, 2]], "minimal"),
                      field=PrimeField(7))
    M = direct_sum(A, [simple_module(A, 2), projective_module(A, 1),
                       projective_module(A, 2)])
    M = _conjugate(M, offset=1)
    assert M.dims == [2, 3]
    assert trace_form_indecomposable(M) is False
    assert is_indecomposable(M) is False


def test_radical_unavailable_small_prime():
    data = cartan_data([[2, -1], [-1, 2]], (2, 2))
    A = build_algebra(data, field=PrimeField(2))
    M = direct_sum(A, [simple_module(A, 1), simple_module(A, 1)])
    with pytest.raises(RadicalUnavailable):
        trace_form_indecomposable(M)


def _projective_over_block(ctx, w, v):
    """e_v Pi / e_v I_w as a quotient of the projective e_v Pi on its
    paths, the coordinates of the block's spaces."""
    P = projective_module(ctx.algebra, v)
    return quotient_module(P, ctx.table.spaces[ctx.of_element(w).blocks[v - 1]])


def test_indecomposable_over_prime_field_agrees_or_refuses():
    """The trace-form oracle answers over a prime field as over QQ, or
    refuses: the trace of an idempotent is its rank, which vanishes mod p
    once p <= dim M."""
    entries = [[2, -1, 0], [-1, 2, -1], [0, -1, 2]]
    answers = {}
    for field in (QQ, PrimeField(3), PrimeField(5)):
        A = build_algebra(cartan_data(entries, "minimal"), field=field)
        W = enumerate_weyl(A.data.cartan)
        ctx = IdealSemigroup(A, W)
        for w in W:
            for v in range(1, A.n + 1):
                Q = _projective_over_block(ctx, w, v)
                if Q.total_dim == 0:
                    continue
                try:
                    got = trace_form_indecomposable(Q)
                except RadicalUnavailable:
                    assert 0 < field.characteristic <= Q.total_dim
                    got = "refused"
                answers.setdefault((W.word(w), v), {})[field.characteristic] = got
    for (word, v), got in answers.items():
        assert got[5] == got[0], (word, v)
        assert got[3] in (got[0], "refused"), (word, v)
    # the witness: dim 3, a two-dimensional socle, End = K
    assert answers[((2, 1, 3), 2)] == {0: True, 3: "refused", 5: True}


def test_the_socle_test_needs_a_simple_socle():
    """The documented precondition of ``is_indecomposable``: an
    indecomposable module with a socle that is not simple is reported
    decomposable.  The witness is the A3 quotient e_2Pi / e_2I_w at
    w = s_2 s_1 s_3, of dimension 3, with a two-dimensional socle and
    End = K; it is no block, and the package never tests it."""
    A = build_algebra(cartan_data([[2, -1, 0], [-1, 2, -1], [0, -1, 2]]))
    W = enumerate_weyl(A.data.cartan)
    Q = _projective_over_block(IdealSemigroup(A, W), from_word(W, (2, 1, 3)),
                               2)
    assert Q.total_dim == 3
    assert sum(s.dim for s in socle_subspaces(Q).values()) == 2
    assert len(hom_space(Q, Q)) == 1
    assert trace_form_indecomposable(Q) is True
    assert is_indecomposable(Q) is False


@pytest.mark.parametrize("entries, sym", [
    ([[2, -1, 0], [-1, 2, -1], [0, -2, 2]], "minimal"),
    ([[2, -1], [-3, 2]], (3, 1)),
    ([[2, -1], [-2, 2]], (4, 2))], ids=["b3", "g2-31", "b2-42"])
def test_socle_test_agrees_with_the_trace_form(entries, sym):
    """On every block and every mutation cokernel, the simple-socle test
    gives the verdict of the trace-form oracle.  Over QQ the oracle always
    answers; over F_5 it refuses from dimension 5 on, so there the socle
    test must also give the verdict of the same module over QQ, keyed by
    (w, v) for a block and by the ascent (w, i) for a cokernel."""
    verdicts = {}  # key -> {characteristic: (socle, trace form)}
    for field in (QQ, PrimeField(5)):
        A = build_algebra(cartan_data(entries, sym), field=field)
        W = enumerate_weyl(A.data.cartan)
        ctx = IdealSemigroup(A, W)
        mods = {}
        for w in W:
            pair = stt_pair(ctx, w)
            for v, blk in zip(pair.block_vertices, pair.summands):
                mods["block", w.index, v] = blk
        for w, v, i in _ascents(W):
            mutated = left_mutation(stt_pair(ctx, w), i)
            if i in mutated.block_vertices:
                Y = mutated.summands[mutated.block_vertices.index(i)]
                mods["cokernel", w.index, i] = Y
        for key, M in mods.items():
            try:
                trace = trace_form_indecomposable(M)
            except RadicalUnavailable:
                trace = "refused"
            verdicts.setdefault(key, {})[field.characteristic] = (
                is_indecomposable(M), trace)
    kinds = {key[0] for key in verdicts}
    assert kinds == {"block", "cokernel"}
    answered = 0
    for key, got in verdicts.items():
        assert got[0] == (True, True), key
        assert got[5][0] is True and got[5][1] in (True, "refused"), key
        answered += got[5][1] is True
    assert answered > 0


def test_memoized_values_match_a_fresh_module(algebras, weyl_groups,
                                              semigroups):
    """tau, indecomposability, series and locally free rank read from a
    shared block's cache equal the values of an uncached copy."""
    A, W = algebras["b3"], weyl_groups["b3"]
    blocks = {}
    for w in W:
        ideal = semigroups["b3"].of_element(w)
        for v in range(1, A.n + 1):
            blk = ideal.block(v)
            if blk is not None:
                blocks[id(blk)] = blk
                auslander_reiten_translate(blk)
                is_indecomposable(blk)
                structure_series(blk)
                locally_free_rank(blk)
    assert len(blocks) == 23
    for blk in blocks.values():
        act = {a: Matrix.from_rows(m.rows, m.ncols, A.field)
               for a, m in blk.act.items()}
        fresh = ModuleRep(A, list(blk.dims), act)
        tau = auslander_reiten_translate(blk)
        fresh_tau = auslander_reiten_translate(fresh)
        assert auslander_reiten_translate(blk) is tau
        assert tau.dims == fresh_tau.dims
        assert all(tau.act[a].rows == fresh_tau.act[a].rows for a in tau.act)
        assert is_indecomposable(blk) is is_indecomposable(fresh) is True
        assert structure_series(blk) == structure_series(fresh)
        assert locally_free_rank(blk) == locally_free_rank(fresh)


def test_submodule_roundtrip(algebras):
    """rad e_1 Pi, the span of the nontrivial paths into 1."""
    eg1 = algebras["eg1"]
    P1 = projective_module(eg1, 1)
    one, zero = eg1.field.one, eg1.field.zero
    R = module_from_subspace(P1, {u: Subspace.span(
        ([one if h == g else zero for h in paths]
         for g in paths if eg1.basis[g][1]), len(paths), eg1.field)
        for u, paths in eg1.paths[1].items()})
    assert R.total_dim == P1.total_dim - 1
    assert [sum(l) for l in structure_series(R)] == [2, 1]


def test_submodule_needs_arrow_stable_spaces(algebras):
    """rad e_1 Pi is a submodule; M e_1 alone is not, since the arrows
    map it to M e_2."""
    eg1 = algebras["eg1"]
    P1 = projective_module(eg1, 1)
    R = module_from_subspace(P1, radical_subspaces(P1))
    assert R.dims == [P1.dims[0] - 1, P1.dims[1]]
    R._validate()
    spaces = {1: Subspace.span(Matrix.identity(P1.dims[0], eg1.field).rows,
                               P1.dims[0], eg1.field),
              2: Subspace(P1.dims[1], eg1.field)}
    with pytest.raises(VerificationFailed, match="not arrow-stable"):
        module_from_subspace(P1, spaces)


def _a2_action(A, nonloop, eps1_rows=1):
    """Action matrices on dims [1, 1]: the loops by 0 (eps_1 with
    ``eps1_rows`` rows) and both non-loop arrows by ``nonloop``."""
    act = {}
    for a in A.quiver.arrows:
        if a.is_loop:
            rows = eps1_rows if a.index == 0 else 1
            act[a.index] = Matrix.zeros(rows, 1, A.field)
        else:
            act[a.index] = Matrix.from_rows([[nonloop]], 1, A.field)
    return act


def test_module_rep_rejects_a_misshapen_action(algebras):
    A = algebras["a2min"]
    assert ModuleRep(A, [1, 1], _a2_action(A, 0)).total_dim == 2
    with pytest.raises(VerificationFailed, match="action matrix .* has shape"):
        ModuleRep(A, [1, 1], _a2_action(A, 0, eps1_rows=2))


def test_module_rep_rejects_an_action_violating_a_relation(algebras):
    A = algebras["a2min"]
    with pytest.raises(VerificationFailed,
                       match="relation does not annihilate module"):
        ModuleRep(A, [1, 1], _a2_action(A, 1))


def _per_vector_homs(M, N):
    """Oracle for the one-pass build in ``hom_space``: the basis maps of
    Hom(M, N) built one kernel vector at a time, each path acting on N
    once per map."""
    A = N.algebra
    pres = minimal_projective_presentation(M)
    phi = _approximation_matrix(pres, N)
    src_dims = [N.dims[u - 1] for u in pres.p0]
    maps = []
    for vec in nullspace(phi):
        splits = []
        pos = 0
        for d in src_dims:
            splits.append(vec[pos:pos + d])
            pos += d
        out = {}
        for v in range(1, A.n + 1):
            cols = []
            for k, g in pres.p0_layout[v]:
                word = A.basis[g][1]
                nk = splits[k]
                cols.append(N.act_word(word).vec(nk) if word else list(nk))
            fpi = Matrix.from_cols(cols, N.dims[v - 1], A.field)
            out[v] = fpi.mul(pres.section[v])
        maps.append(out)
    return maps


def _blocks_and_taus(ctx):
    blocks = _distinct_blocks(ctx)
    taus = [auslander_reiten_translate(b) for b in blocks]
    return blocks + [t for t in taus if t.total_dim]


@pytest.mark.parametrize("entries, sym, field", [
    ([[2, -1, 0], [-1, 2, -1], [0, -2, 2]], "minimal", QQ),
    ([[2, -1, 0], [-1, 2, -1], [0, -2, 2]], "minimal", PrimeField(101)),
    ([[2, -1], [-3, 2]], (3, 1), QQ)], ids=["b3-qq", "b3-f101", "g2-qq"])
def test_one_pass_hom_maps_match_the_per_vector_route(entries, sym, field):
    """For every ordered pair of distinct blocks and tau blocks, the maps
    of ``hom_space`` equal the per-vector oracle entry for entry, and each
    map intertwines every arrow action."""
    A = build_algebra(cartan_data(entries, sym), field=field)
    mods = _blocks_and_taus(IdealSemigroup(A, enumerate_weyl(A.data.cartan)))
    largest = 0
    for M in mods:
        for N in mods:
            hb = hom_space(M, N)
            want = _per_vector_homs(M, N)
            assert len(hb) == len(want)
            for h, w in zip(hb, want):
                assert all(h[v].rows == w[v].rows for v in w)
                for a in A.quiver.arrows:
                    assert (h[a.source].mul(M.act[a.index]).rows
                            == N.act[a.index].mul(h[a.target]).rows)
            largest = max(largest, len(hb))
    assert largest > 2


@pytest.mark.parametrize("entries, sym", [
    ([[2, -1, 0], [-1, 2, -1], [0, -2, 2]], "minimal"),
    ([[2, -1], [-3, 2]], (3, 1)),
    ([[2, -1], [-2, 2]], (4, 2))], ids=["b3", "g2-31", "b2-42"])
@pytest.mark.parametrize("field", [QQ, PrimeField(101)], ids=["qq", "f101"])
def test_p0_is_one_graded_span_and_echelon_modules_share_one_check(
        entries, sym, field):
    """The P0 coordinates of every presentation at v are the pairs (k, g)
    over the generator copies k and the paths g of e_{u_k}Pi e_v, and
    ``module_from_subspace`` rejects the span of e_v, which is not
    arrow-stable, with the same error in the context's e_vPi and in the
    oracle's."""
    A = build_algebra(cartan_data(entries, sym), field=field)
    ctx = IdealSemigroup(A, enumerate_weyl(A.data.cartan))
    for M in _blocks_and_taus(ctx):
        pres = minimal_projective_presentation(M)
        assert all(pres.p0_layout[v] == [
            (k, g) for k, u in enumerate(pres.p0) for g in A.by_target[u]
            if A.source[g] == v] for v in range(1, A.n + 1))
    one, zero = A.field.one, A.field.zero
    for v in range(1, A.n + 1):
        e_v = next(g for g in A.by_target[v] if not A.basis[g][1])
        spaces = {u: Subspace(len(paths), A.field)
                  for u, paths in A.paths[v].items()}
        spaces[v].add([one if g == e_v else zero for g in A.paths[v][v]])
        errors = []
        for build in (
                lambda: module_from_subspace(ctx.projectives[v - 1], spaces),
                lambda: module_from_subspace(projective_module(A, v), spaces)):
            with pytest.raises(VerificationFailed, match="not arrow-stable") \
                    as err:
                build()
            errors.append(str(err.value))
        assert errors[0] == errors[1]


def _dense_p0_module(A, p0, layout):
    """P0 = (+)_k e_{u_k} Pi with dense action matrices on the coordinates
    (k, g) of ``layout``, the oracle's own layout of P0."""
    dims = [len(layout[v]) for v in range(1, A.n + 1)]
    pos = {v: {pair: i for i, pair in enumerate(layout[v])}
           for v in layout}
    act = {}
    for a in A.quiver.arrows:
        out = Matrix.zeros(dims[a.source - 1], dims[a.target - 1], A.field)
        for col, (k, g) in enumerate(layout[a.target]):
            prod = A.mul_coords({g: A.field.one}, A.arrow_coords[a.index])
            for g2, c in prod.items():
                out.rows[pos[a.source][(k, g2)]][col] = c
        act[a.index] = out
    return ModuleRep(A, dims, act, validate=False)


def _dense_submodule(parent, vectors_by_vertex):
    """The submodule spanned by per-vertex vectors of ``parent``, each
    arrow acting by a dense matrix-vector product; returns the module and
    its echelon bases."""
    A = parent.algebra
    spaces = {v: Subspace.span(vectors_by_vertex[v], parent.dims[v - 1],
                               A.field)
              for v in range(1, A.n + 1)}
    return module_from_subspace(parent, spaces), spaces


def _top(mod):
    rad = radical_subspaces(mod)
    return {v: [c for c in range(mod.dims[v - 1]) if c not in rad[v].pivots]
            for v in range(1, mod.algebra.n + 1)}


def _dense_presentation(M):
    """Oracle for the syzygy of ``minimal_projective_presentation``: K as a
    submodule of the dense module P0, and the generators of P1 read from
    the top of K.  Returns (p0, p1, x_elems, K)."""
    A = M.algebra
    top = _top(M)
    p0 = [v for v in range(1, A.n + 1) for _ in top[v]]
    gens = [c for v in range(1, A.n + 1) for c in top[v]]
    layout = {v: [(k, g) for k, u in enumerate(p0) for g in A.by_target[u]
                  if A.source[g] == v] for v in range(1, A.n + 1)}
    kvecs = {}
    for v in range(1, A.n + 1):
        cols = []
        for (k, g) in layout[v]:
            unit = [int(r == gens[k]) for r in range(M.dims[p0[k] - 1])]
            word = A.basis[g][1]
            cols.append(M.act_word(word).vec(unit) if word else unit)
        kvecs[v] = nullspace(Matrix.from_cols(cols, M.dims[v - 1], A.field))
    K, spaces = _dense_submodule(_dense_p0_module(A, p0, layout), kvecs)
    p1, x_cols = [], []
    for v, cs in _top(K).items():
        for c in cs:
            p1.append(v)
            row = spaces[v].rows[c]
            x_cols.append([{g: x for (kk, g), x in zip(layout[v], row)
                            if kk == k and x} for k in range(len(p0))])
    x_elems = [[col[k] for col in x_cols] for k in range(len(p0))]
    return p0, p1, x_elems, K


@pytest.mark.parametrize("entries, sym, field", [
    ([[2, -1, 0], [-1, 2, -1], [0, -2, 2]], "minimal", QQ),
    ([[2, -1, 0], [-1, 2, -1], [0, -2, 2]], "minimal", PrimeField(101)),
    ([[2, -1], [-3, 2]], (3, 1), QQ),
    ([[2, -1], [-2, 2]], (4, 2), QQ),
    ([[2, -1], [-3, 2]], (6, 2), QQ)],
    ids=["b3-qq", "b3-f101", "g2-qq", "b2-42", "g2-62"])
def test_syzygies_match_the_dense_p0_route(entries, sym, field):
    """For every block and nonzero tau block, the presentation built on
    sparse elements of P0 equals the dense oracle: the same P0 and P1, the
    same x_{kl}, and the module built on the ``syzygy`` rebuilt from the
    x_{kl} is the oracle's syzygy, dimensions and action matrices."""
    A = build_algebra(cartan_data(entries, sym), field=field)
    mods = _blocks_and_taus(IdealSemigroup(A, enumerate_weyl(A.data.cartan)))
    copies = 0
    for M in mods:
        pres = minimal_projective_presentation(M)
        p0, p1, x_elems, K = _dense_presentation(M)
        assert (pres.p0, pres.p1, pres.x_elems) == (p0, p1, x_elems)
        rebuilt = syzygy(M)
        assert rebuilt.dims == K.dims
        assert all(rebuilt.act[a].rows == K.act[a].rows for a in K.act)
        copies = max(copies, len(p0))
    assert copies > 1


def _left_module_data(A, pres):
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
    out = Matrix.zeros(len(layout[v_to]), len(layout[v_from]), field)
    pos = {pair: i for i, pair in enumerate(layout[v_to])}
    for col, (k, g) in enumerate(layout[v_from]):
        prod = A.mul_coords(A.arrow_coords[arrow_idx], {g: field.one})
        for g2, c in prod.items():
            out.rows[pos[(k, g2)]][col] = c
    return out


def _left_tau(M):
    """Oracle for tau: D of the cokernel of the left-module map, each
    arrow acting by the transpose of its action on the cokernel."""
    A = M.algebra
    field = A.field
    pres = minimal_projective_presentation(M)
    if not pres.p1:
        return zero_module(A)
    _, l1_layout, psi = _left_module_data(A, pres)
    projs, lifts, dims = {}, {}, []
    for v in range(1, A.n + 1):
        image = Subspace.span((psi[v].col(j) for j in range(psi[v].ncols)),
                              len(l1_layout[v]), field)
        projs[v], dim, lifts[v] = image.quotient()
        dims.append(dim)
    act = {}
    for a in A.quiver.arrows:
        lm = _left_action(A, l1_layout, a.source, a.target, a.index)
        # the transpose of the action on the cokernel
        out = Matrix.zeros(dims[a.source - 1], dims[a.target - 1], field)
        for col, lift in enumerate(lifts[a.source]):
            for r, c in enumerate(projs[a.target](lm.vec(lift))):
                out.rows[col][r] = c
        act[a.index] = out
    return ModuleRep(A, dims, act, validate=False)


def _left_nu(M):
    """Oracle for nu: D of the kernel of the left-module map, each arrow
    acting by the transpose of its action on the kernel."""
    A = M.algebra
    field = A.field
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
        # the transpose of the action on the kernel
        out = Matrix.zeros(dims[a.source - 1], dims[a.target - 1], field)
        for col, row in enumerate(kernels[a.source].rows):
            for r, c in enumerate(kernels[a.target].express(lm.vec(row))):
                out.rows[col][r] = c
        act[a.index] = out
    return ModuleRep(A, dims, act, validate=False)


@pytest.mark.parametrize("entries, sym, field", [
    ([[2, -1, 0], [-1, 2, -1], [0, -2, 2]], "minimal", QQ),
    ([[2, -1, 0], [-1, 2, -1], [0, -2, 2]], "minimal", PrimeField(101)),
    ([[2, -1], [-3, 2]], (3, 1), QQ)], ids=["b3-qq", "b3-f101", "g2-qq"])
def test_tau_and_nu_match_the_left_module_route(entries, sym, field):
    """tau as ker psi* and nu as coker psi* agree with the route through
    the left modules Hom(P, Pi): tau of every distinct block, and nu of
    every E_i and e_i Pi, have the same dims and are isomorphic."""
    A = build_algebra(cartan_data(entries, sym), field=field)
    blocks = _distinct_blocks(IdealSemigroup(A, enumerate_weyl(A.data.cartan)))
    pairs = [(auslander_reiten_translate(b), _left_tau(b)) for b in blocks]
    for i in range(1, A.n + 1):
        for M in (generalized_simple(A, i), projective_module(A, i)):
            pairs.append((nakayama_nu(M), _left_nu(M)))
    nonzero = 0
    for got, want in pairs:
        assert got.dims == want.dims
        assert is_isomorphic(got, want)
        nonzero += got.total_dim > 0
    assert nonzero > len(blocks)


@pytest.mark.parametrize("entries, sym", [
    ([[2, -1, 0], [-1, 2, -1], [0, -1, 2]], "minimal"),
    ([[2, -1, 0], [-1, 2, -1], [0, -2, 2]], "minimal"),
    ([[2, -1], [-3, 2]], (3, 1))], ids=["a3", "b3", "g2"])
@pytest.mark.parametrize("field", [QQ, PrimeField(3)], ids=["qq", "f3"])
def test_modules_built_without_the_relation_check_satisfy_the_relations(
        entries, sym, field):
    """The constructors that skip the relation check (blocks, tau, nu,
    syzygies and the uniserial modules) build modules that pass it."""
    A = build_algebra(cartan_data(entries, sym), field=field)
    mods = _blocks_and_taus(IdealSemigroup(A, enumerate_weyl(A.data.cartan)))
    for i in range(1, A.n + 1):
        mods.append(nakayama_nu(generalized_simple(A, i)))
        mods.extend(uniserial_module(A, i, d)
                    for d in range(1, A.quiver.symmetrizer[i] + 1))
    mods.extend([syzygy(M) for M in mods])
    for M in mods:
        M._validate()


_B3 = [[2, -1, 0], [-1, 2, -1], [0, -2, 2]]


@pytest.mark.parametrize("entries, sym, field", [
    (_B3, "minimal", QQ),
    (_B3, "minimal", PrimeField(101)),
    ([[2, -1], [-3, 2]], (6, 2), QQ),
    ([[2, -1], [-2, 2]], (4, 2), QQ)],
    ids=["b3-qq", "b3-f101", "g2-62", "b2-42"])
def test_path_walk_matches_act_word(entries, sym, field):
    """On every block, projective and nonzero tau block, the walk of the
    basis tree of each e_u Pi gives, for every basis path g, what
    ``act_word(g)`` gives on the same start: the identity of M_u, and a
    fixed vector of M_u as a one-column matrix."""
    A = build_algebra(cartan_data(entries, sym), field=field)
    mods = _blocks_and_taus(IdealSemigroup(A, enumerate_weyl(A.data.cartan)))
    mods.extend(projective_module(A, v) for v in range(1, A.n + 1))
    paths = 0
    for M in mods:
        for u in range(1, A.n + 1):
            d = M.dims[u - 1]
            start = Matrix.identity(d, field)
            x = [(3 * r + 1) % 5 for r in range(d)]
            by_matrix = _path_walk(M, u, start)
            by_vector = _path_walk(M, u, Matrix.from_cols([x], d, field))
            assert list(by_matrix) == list(by_vector) == A.by_target[u]
            for g in A.by_target[u]:
                word = A.basis[g][1]
                if not word:
                    assert by_matrix[g] is start
                    assert by_vector[g].col(0) == x
                    continue
                act = M.act_word(word)
                assert by_matrix[g].rows == act.mul(start).rows
                assert by_vector[g].col(0) == act.vec(x)
                paths += 1
    assert paths > len(mods) * A.n


def test_presentations_and_homs_act_by_the_walk(monkeypatch):
    """Presentations and Hom maps read every P0 coordinate from one walk
    of the basis tree.  With ``act_word`` raising everywhere but inside
    ``act_sum`` (which evaluates the x_kl of the approximation matrix),
    both still run on every block of B3."""
    A = build_algebra(cartan_data(_B3, "minimal"))
    blocks = _distinct_blocks(IdealSemigroup(A, enumerate_weyl(A.data.cartan)))
    act_word, act_sum = ModuleRep.act_word, ModuleRep.act_sum
    inside = []

    def guarded_word(self, word):
        if not inside:
            raise AssertionError("a path acts by act_word outside act_sum")
        return act_word(self, word)

    def flagged_sum(self, *args):
        inside.append(True)
        try:
            return act_sum(self, *args)
        finally:
            inside.pop()

    monkeypatch.setattr(ModuleRep, "act_word", guarded_word)
    monkeypatch.setattr(ModuleRep, "act_sum", flagged_sum)
    homs = 0
    for M in blocks:
        assert minimal_projective_presentation(M).p0
        for N in blocks:
            homs += len(hom_space(M, N))
    assert homs > len(blocks)


_G2 = [[2, -1], [-3, 2]]
_B2 = [[2, -1], [-2, 2]]


@pytest.mark.parametrize("entries, sym, field", [
    (_B3, "minimal", QQ), (_B3, "minimal", PrimeField(101)),
    (_G2, (3, 1), QQ), (_B2, (4, 2), QQ)],
    ids=["b3-qq", "b3-f101", "g2-31", "b2-42"])
def test_presentations_build_no_module(entries, sym, field, monkeypatch):
    """The kernel of a presentation stays a span: with every block built
    first, presenting each of them constructs no ``ModuleRep``."""
    A = build_algebra(cartan_data(entries, sym), field=field)
    blocks = _distinct_blocks(IdealSemigroup(A, enumerate_weyl(A.data.cartan)))

    def refuse(self, *args, **kwargs):
        raise AssertionError("a presentation built a module")

    monkeypatch.setattr(ModuleRep, "__init__", refuse)
    relations = 0
    for M in blocks:
        M._cache.pop("presentation", None)
        relations += len(minimal_projective_presentation(M).p1)
    assert relations > 0


@pytest.mark.parametrize("entries, sym", [
    (_B3, "minimal"), (_G2, (3, 1)), (_B2, (4, 2))],
    ids=["b3", "g2-31", "b2-42"])
def test_ext1_vanishes_where_hom_to_tau_does(entries, sym):
    """Ext^1(M, N) = D Hom-bar(N, tau M) (Auslander-Reiten): on every
    ordered pair of blocks, Hom(N, tau M) = 0 forces ``ext1_dim(M, N)``,
    computed on the syzygy module built from the kernel span, to vanish;
    both Ext^1 = 0 and Ext^1 > 0 occur."""
    A = build_algebra(cartan_data(entries, sym))
    blocks = _distinct_blocks(IdealSemigroup(A, enumerate_weyl(A.data.cartan)))
    seen = set()
    for M in blocks:
        for N in blocks:
            ext = ext1_dim(M, N)
            if hom_to_tau_vanishes(N, M):
                assert ext == 0
            seen.add(ext > 0)
    assert seen == {False, True}
