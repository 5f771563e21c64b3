"""Acceptance suite: one test per criterion, exact arithmetic throughout.

Each test prints a single PASS line on success (run with ``pytest -s``);
a pytest failure marks the criterion failed.
"""

import random

from oracles import (
    all_reduced_words,
    demazure_product,
    ext1_dim,
    projective_module,
    vertex_ideal,
)
from preproj.cartan import cartan_data
from preproj.coxeter import coxeter_order, enumerate_weyl, sigma_order
from preproj.pathalg import build_algebra, verify_algebra
from preproj.repmod import (
    auslander_reiten_translate,
    generalized_simple,
    hom_space,
    is_isomorphic,
    nakayama_nu,
    structure_series,
)
from preproj.tautilt import (
    IdealSemigroup,
    _ascents,
    classification_report,
    exchange_graph,
    full_ideal,
    ideal_product,
    left_mutation,
    mutation_graph,
    stt_pair,
    verify_stt,
)

from conftest import (
    WEYL_ORDERS,
    check_every_edge,
    ideal_module,
    pairs_isomorphic,
)

CRITERION4 = ("a2min", "eg2", "g2", "a3", "b3")


def _layer_sizes(A, v):
    """Radical layer sizes of e_v Pi, read from the module layer."""
    return [sum(layer) for layer in structure_series(projective_module(A, v))]


def test_criterion_1_eg1_dimensions(algebras):
    A = algebras["eg1"]
    verify_algebra(A)
    assert A.dim == 8
    assert A.vertex_dims() == [4, 4]
    assert _layer_sizes(A, 1) == [1, 2, 1]
    assert _layer_sizes(A, 2) == [1, 2, 1]
    for i in (1, 2):
        assert generalized_simple(A, i).total_dim == 2
    print("PASS criterion 1: eg1 dims 8 = 4 + 4, layers [1,2,1], dim E_i = 2")


def test_criterion_2_eg2_dimensions(algebras, semigroups):
    A = algebras["eg2"]
    verify_algebra(A)
    assert A.dim == 10
    assert A.vertex_dims() == [6, 4]
    assert _layer_sizes(A, 1) == [1, 2, 2, 1]
    assert _layer_sizes(A, 2) == [1, 1, 1, 1]
    assert vertex_ideal(semigroups["eg2"].table, {2}).block(2).total_dim == 3
    assert generalized_simple(A, 1).total_dim == 2
    assert generalized_simple(A, 2).total_dim == 1
    e1I1 = vertex_ideal(semigroups["eg2"].table, {1}).block(1)
    # derived from 0 -> e_1 I_1 -> e_1 Pi -> E_1 -> 0: 6 - 2 = 4
    assert e1I1.total_dim == A.vertex_dims()[0] - 2 == 4
    print("PASS criterion 2: eg2 dims 10 = 6 + 4, layers, "
          "dim e2I2 = 3, dim e1I1 = 4")


def test_criterion_3_rank2_zero_products():
    cases = [
        ("A2", [[2, -1], [-1, 2]], [(d, d) for d in (1, 2, 3)], 3),
        ("B2", [[2, -1], [-2, 2]], [(2 * d, d) for d in (1, 2)], 4),
        ("G2", [[2, -1], [-3, 2]], [(3, 1)], 6),
    ]
    for label, entries, symmetrizers, m in cases:
        for sym in symmetrizers:
            A = build_algebra(cartan_data(entries, sym))
            table = IdealSemigroup(A, enumerate_weyl(A.data.cartan)).table
            I = [None, vertex_ideal(table, {1}), vertex_ideal(table, {2})]
            for first, second in ((1, 2), (2, 1)):
                prod = full_ideal(table)
                for k in range(m):
                    prod = ideal_product(prod, I[(first, second)[k % 2]])
                assert prod.dim == 0, (label, sym, first)
    print("PASS criterion 3: alternating products vanish for "
          "A2 (d,d) d=1..3, B2 (2d,d) d=1..2, G2 (3,1)")


def test_criterion_4_bijection(algebras, weyl_groups, semigroups):
    for name in CRITERION4:
        A, W = algebras[name], weyl_groups[name]
        assert W.order == WEYL_ORDERS[name]
        ctx = semigroups[name]
        gens = {i: vertex_ideal(ctx.table, {i}) for i in range(1, A.n + 1)}
        cache = {(): full_ideal(ctx.table)}

        def fold(word):
            got = cache.get(word)
            if got is None:
                got = ideal_product(fold(word[:-1]), gens[word[-1]])
                cache[word] = got
            return got

        memo = {}
        keys = set()
        for w in W:
            expected = ctx.of_element(w)
            keys.add(expected.blocks)
            for word in all_reduced_words(W, w, memo):
                assert fold(word).blocks == expected.blocks, \
                    (name, W.word(w), word)
        assert len(keys) == W.order, name
    print("PASS criterion 4: psi well-defined and injective; "
          "|W| = 6, 8, 12, 24, 48")


def test_criterion_5_classification(semigroups):
    for name in CRITERION4:
        rep = classification_report(semigroups[name])
        assert rep.stt_count == WEYL_ORDERS[name]
    rep1 = classification_report(semigroups["eg1"])
    assert sorted(t[0] for t in rep1.tau_rigid_modules) == \
        ["E1", "E2", "e1P", "e2P"]
    rep2 = classification_report(semigroups["eg2"])
    assert sorted(t[0] for t in rep2.tau_rigid_modules) == \
        ["E1", "E2", "e1I1", "e1P", "e2I2", "e2P"]
    print("PASS criterion 5: all (I_w, P_w) valid; counts = |W|; "
          "tau-rigid sets match for eg1 and eg2")


EG1_GRAPH = {
    "nodes": {
        "": {"e1P", "e2P"}, "1": {"E2", "e2P"}, "2": {"E1", "e1P"},
        "12": {"E1"}, "21": {"E2"}, "121": {"0"},
    },
    "edges": {("", "1", 1), ("", "2", 2), ("1", "21", 2),
              ("2", "12", 1), ("21", "121", 1), ("12", "121", 2)},
}

EG2_GRAPH = {
    "nodes": {
        "": {"e1P", "e2P"}, "1": {"e1I1", "e2P"}, "2": {"e2I2", "e1P"},
        "21": {"e1I1", "E2"}, "12": {"e2I2", "E1"},
        "121": {"E2"}, "212": {"E1"}, "1212": {"0"},
    },
    "edges": {("", "1", 1), ("", "2", 2), ("1", "21", 2), ("2", "12", 1),
              ("21", "121", 1), ("12", "212", 2), ("121", "1212", 2),
              ("212", "1212", 1)},
}


def test_criterion_6_mutation_graphs(weyl_groups, semigroups):
    # the two displayed exchange graphs, as labelled digraphs
    for name, expected in (("eg1", EG1_GRAPH), ("eg2", EG2_GRAPH)):
        check_every_edge(semigroups[name])
        g = exchange_graph(semigroups[name])
        got_nodes = {ws: set(n.summands) or {"0"} for ws, n in g.nodes.items()}
        assert got_nodes == expected["nodes"], name
        assert set(g.edges) == expected["edges"], name
    # rank 2: every edge independently reproduced by a minimal left approximation
    check_every_edge(semigroups["a2min"])
    check_every_edge(semigroups["g2"])
    # A3: at least 20 sampled edges reproduced
    W, ctx = weyl_groups["a3"], semigroups["a3"]
    rng = random.Random(0)
    mutation_graph(ctx)
    sample = rng.sample(list(_ascents(W)), 20)
    for (w, v, i) in sample:
        pair = stt_pair(ctx, w)
        want = stt_pair(ctx, v)
        assert pairs_isomorphic(left_mutation(pair, i), want), \
            (W.word(w), W.word(v), i)
    print("PASS criterion 6: eg1 and eg2 graphs match the figures; "
          "all rank-2 edges and 20 A3 edges reproduced by left mutation")


def test_criterion_7_homological_identities(algebras, semigroups):
    for name in CRITERION4:
        A = algebras[name]
        sigma = semigroups[name].sigma
        pdims = [projective_module(A, j).total_dim for j in range(1, A.n + 1)]
        for i in range(1, A.n + 1):
            Ei = generalized_simple(A, i)
            si = sigma[i - 1]
            # dimension identity from the four-term resolution
            lhs = (Ei.total_dim + generalized_simple(A, si).total_dim
                   + sum(abs(A.data.cartan[j, i]) * pdims[j - 1]
                         for j in range(1, A.n + 1) if j != i))
            assert lhs == 2 * pdims[i - 1], (name, i)
            # Nakayama consistency
            assert A.quiver.symmetrizer[i] == A.quiver.symmetrizer[si]
            assert is_isomorphic(nakayama_nu(generalized_simple(A, si)), Ei)
            # Hom(e_j Pi, E_i) = c_i delta_ij
            for j in range(1, A.n + 1):
                want = A.quiver.symmetrizer[i] if j == i else 0
                assert len(hom_space(projective_module(A, j), Ei)) == want
            # Hom(I_i, E_i) = 0 and tau(e_i I_i) = E_i
            Ii = vertex_ideal(semigroups[name].table, {i})
            assert len(hom_space(ideal_module(Ii), Ei)) == 0
            blk = Ii.block(i)
            assert blk is not None
            assert is_isomorphic(auslander_reiten_translate(blk), Ei)
            # Ext^1 symmetry on {E_i, e_i I_i, e_i Pi}
        mods = []
        for i in range(1, A.n + 1):
            mods.append(generalized_simple(A, i))
            mods.append(projective_module(A, i))
            blk = vertex_ideal(semigroups[name].table, {i}).block(i)
            if blk is not None:
                mods.append(blk)
        for M in mods:
            for N in mods:
                assert ext1_dim(M, N) == ext1_dim(N, M), name
    print("PASS criterion 7: resolution dimension identity, Nakayama "
          "consistency, Hom and tau identities, Ext^1 symmetry")


def test_criterion_8_geometric_representation(algebras):
    for name in ("a2min", "eg1", "eg2", "g2", "a3", "b3"):
        c = algebras[name].data.cartan
        for i in range(1, c.n + 1):
            for j in range(1, c.n + 1):
                if i == j:
                    continue
                assert sigma_order(c, i, j) == coxeter_order(c, i, j), (
                    name, i, j)
    affine = cartan_data([[2, -2], [-2, 2]])
    ball = enumerate_weyl(affine.cartan, max_length=8)
    assert ball.order == 17
    lengths = sorted(w.length for w in ball)
    assert lengths == [0] + [l for l in range(1, 9) for _ in range(2)]
    print("PASS criterion 8: exact Coxeter orders on all types; "
          "affine ball of radius 8 has 17 elements")


def test_criterion_9_demazure_consistency(weyl_groups, semigroups):
    for name in ("a2min", "eg2", "g2", "a3"):
        W, ctx = weyl_groups[name], semigroups[name]
        for u in W:
            iu = ctx.of_element(u)
            for v in W:
                lhs = ideal_product(iu, ctx.of_element(v))
                rhs = ctx.of_element(demazure_product(W, u, v))
                assert lhs.blocks == rhs.blocks, (name, W.word(u),
                                                  W.word(v))
    print("PASS criterion 9: ideal products agree with the 0-Hecke "
          "product on every pair in rank 2 and on all 576 A3 pairs")
