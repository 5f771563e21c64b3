import gc
import inspect
import json
import weakref
from collections import Counter
from fractions import Fraction

import pytest
from conftest import (
    ALGEBRA_SPECS,
    check_every_edge,
    ideal_module,
    pairs_isomorphic,
    weyl_orbit_sizes,
)
from oracles import (
    ModuleKeyedNamer,
    demazure_product,
    from_word,
    generic_right_step,
    path_extend_left,
    projective_module,
    vertex_ideal,
    weight_rank,
)

from preproj.cartan import cartan_data
from preproj.coxeter import enumerate_weyl
from preproj.errors import (
    NotDynkin,
    NotMutable,
    ReportFailure,
    VerificationFailed,
)
from preproj.fields import QQ, PrimeField
from preproj.linalg import Subspace
from preproj.pathalg import build_algebra
from preproj.repmod import (
    auslander_reiten_translate,
    direct_sum,
    generalized_simple,
    hom_space,
    in_fac,
    is_isomorphic,
    locally_free_rank,
    minimal_projective_presentation,
)
import preproj.repmod as repmod
import preproj.tautilt as tautilt
from preproj.tautilt import (
    IdealSemigroup,
    ModuleNamer,
    SttPair,
    _minimal_approximation,
    classification_report,
    exchange_graph,
    extend_left,
    extend_right,
    full_ideal,
    graph_nodes,
    ideal_product,
    left_mutation,
    mutation_graph,
    pair_blocks,
    stt_pair,
    verify_stt,
)


def test_vertex_ideal_shapes(algebras, semigroups):
    eg1 = algebras["eg1"]
    I1 = vertex_ideal(semigroups["eg1"].table, {1})
    assert I1.dim == 6
    assert I1.block(1).total_dim == 2  # e_1 I_1, isomorphic to E_2
    assert I1.block(2).total_dim == 4  # e_2 I_1 = e_2 Pi
    assert vertex_ideal(semigroups["eg1"].table, set()).dim == eg1.dim
    assert vertex_ideal(semigroups["eg1"].table, {1, 2}).dim == 0
    # general S: the two-vertex cut in A3 leaves only the middle idempotent
    a3 = algebras["a3"]
    I13 = vertex_ideal(semigroups["a3"].table, {1, 3})
    assert I13.dim < a3.dim


_ROUTE_SPECS = {
    "b3": ([[2, -1, 0], [-1, 2, -1], [0, -2, 2]], "minimal"),
    "c3": ([[2, -1, 0], [-1, 2, -2], [0, -1, 2]], "minimal"),
    "d4": ([[2, -1, 0, 0], [-1, 2, -1, -1], [0, -1, 2, 0], [0, -1, 0, 2]],
           "minimal"),
    "g2-62": ([[2, -1], [-3, 2]], (6, 2)),
    "b2-42": ([[2, -1], [-2, 2]], (4, 2)),
}


@pytest.mark.parametrize("field", [QQ, PrimeField(101)], ids=["qq", "f101"])
@pytest.mark.parametrize("name", sorted(_ROUTE_SPECS))
def test_vertex_ideal_oracle_matches_the_left_step(name, field):
    """The products p q of ``vertex_ideal`` and the engine's left step
    I_i Pi give the same I_i, which is ``generator(i)``; with S empty the
    oracle gives Pi.  Its e_vPi are the context's projectives, read off
    ``projective_module`` by dims and action matrices."""
    A = build_algebra(cartan_data(*_ROUTE_SPECS[name]), field=field)
    ctx = IdealSemigroup(A, enumerate_weyl(A.data.cartan))
    full = full_ideal(ctx.table)
    assert vertex_ideal(ctx.table, ()) == full
    for i in range(1, A.n + 1):
        assert (vertex_ideal(ctx.table, {i}) == extend_left(i, full)
                == ctx.generator(i))
    for v, P in enumerate(ctx.projectives, 1):
        oracle = projective_module(A, v)
        assert oracle.dims == P.dims
        assert all(oracle.act[a.index].rows == P.act[a.index].rows
                   for a in A.quiver.arrows)


def test_ideal_idempotent_and_braid(algebras, semigroups):
    for name in ("a2min", "eg1", "eg2", "g2"):
        A = algebras[name]
        gens = [vertex_ideal(semigroups[name].table, {i})
                for i in range(1, A.n + 1)]
        for I in gens:
            assert ideal_product(I, I).blocks == I.blocks
        from preproj.coxeter import coxeter_order
        for i in range(1, A.n + 1):
            for j in range(1, A.n + 1):
                if i == j:
                    continue
                m = coxeter_order(A.data.cartan, i, j)
                left = full_ideal(semigroups[name].table)
                right = full_ideal(semigroups[name].table)
                for k in range(m):
                    left = ideal_product(left, gens[(i, j)[k % 2] - 1])
                    right = ideal_product(right, gens[(j, i)[k % 2] - 1])
                assert left.blocks == right.blocks


def test_rank2_zero_products():
    # alternating products of length = coxeter order vanish, and stay zero
    # after scaling the symmetrizer
    cases = [
        ([[2, -1], [-1, 2]], [(d, d) for d in (1, 2, 3)], 3),
        ([[2, -1], [-2, 2]], [(2 * d, d) for d in (1, 2)], 4),
        ([[2, -1], [-3, 2]], [(3, 1)], 6),
    ]
    for entries, symmetrizers, m in cases:
        for sym in symmetrizers:
            A = build_algebra(cartan_data(entries, sym))
            table = IdealSemigroup(A, enumerate_weyl(A.data.cartan)).table
            I1 = vertex_ideal(table, {1})
            I2 = vertex_ideal(table, {2})
            for start in (I1, I2):
                other = I2 if start is I1 else I1
                prod = start
                seq = [start, other]
                for k in range(1, m):
                    prod = ideal_product(prod, seq[k % 2])
                assert prod.dim == 0, (entries, sym)


def test_ideal_of_word_examples(algebras, weyl_groups, semigroups):
    eg1, W1 = algebras["eg1"], weyl_groups["eg1"]
    assert semigroups["eg1"].of_element(W1.identity).dim == eg1.dim
    assert semigroups["eg1"].of_element(W1.longest()).dim == 0
    eg2, W2 = algebras["eg2"], weyl_groups["eg2"]
    I_s1 = semigroups["eg2"].of_element(W2.simple(1))
    assert I_s1.block(1).total_dim == 4
    assert is_isomorphic(I_s1.block(2), projective_module(eg2, 2))


def test_stt_pairs_eg1(weyl_groups, semigroups):
    W = weyl_groups["eg1"]
    ctx = semigroups["eg1"]
    namer = ModuleNamer(ctx)
    got = {}
    for w in W:
        blocks, proj = pair_blocks(ctx, w)
        names = tuple(namer.name_block(v, w, b) for v, b in blocks.items())
        got["".join(map(str, W.word(w)))] = (names, proj)
        pair = stt_pair(ctx, w)
        assert pair.block_vertices == tuple(blocks)
        assert pair.projective_vertices == proj
        assert all(s is ctx.table.module(b)
                   for s, b in zip(pair.summands, blocks.values()))
    assert got == {
        "": (("e1P", "e2P"), ()),
        "1": (("E2", "e2P"), ()),
        "2": (("e1P", "E1"), ()),
        "12": (("E1",), (2,)),
        "21": (("E2",), (1,)),
        "121": ((), (1, 2)),
    }


def test_verify_stt(algebras, weyl_groups, semigroups):
    eg1, W = algebras["eg1"], weyl_groups["eg1"]
    assert verify_stt(stt_pair(semigroups["eg1"], W.identity)) == []
    assert verify_stt(stt_pair(semigroups["eg1"], W.longest())) == []
    bad = SttPair(eg1, [generalized_simple(eg1, 1),
                        generalized_simple(eg1, 2)], (), (1, 2))
    assert any("tau" in r for r in verify_stt(bad))
    # E_1 + E_2 as one summand: a socle of dimension 2
    lumped = SttPair(eg1, [direct_sum(eg1, bad.summands)], (2,), (1,))
    assert "summand 0 has no simple socle" in verify_stt(lumped)


def test_left_mutation_names_a_cokernel_without_simple_socle(
        weyl_groups, semigroups, monkeypatch):
    """A cokernel that fails the socle test stops the mutation with its
    dimension vector as witness."""
    W, ctx = weyl_groups["eg1"], semigroups["eg1"]
    monkeypatch.setattr(tautilt, "is_indecomposable", lambda M: False)
    with pytest.raises(VerificationFailed,
                       match="^mutation cokernel has no simple socle$") as err:
        left_mutation(stt_pair(ctx, W.identity), 1)
    assert err.value.witness == [0, 2]


def test_left_mutation_examples(weyl_groups, semigroups):
    W1, sg1 = weyl_groups["eg1"], semigroups["eg1"]
    # mu at e_1 Pi of (Pi, 0) gives I_1 = E_2 + e_2 Pi
    start = stt_pair(sg1, W1.identity)
    got = left_mutation(start, 1)
    want = stt_pair(sg1, W1.simple(1))
    assert pairs_isomorphic(got, want)
    # eg2: mu at e_1 Pi of (Pi, 0) gives e_1 I_1 + e_2 Pi
    W2, sg2 = weyl_groups["eg2"], semigroups["eg2"]
    got2 = left_mutation(stt_pair(sg2, W2.identity), 1)
    assert pairs_isomorphic(got2, stt_pair(sg2, W2.simple(1)))
    # eg1: mu at E_2 of (E_2, e_1 Pi) completes to (0, Pi)
    w21 = from_word(W1, (2, 1))
    pair21 = stt_pair(sg1, w21)
    done = left_mutation(pair21, pair21.block_vertices[0])
    assert done.summands == []
    assert done.projective_vertices == (1, 2)
    assert done.block_vertices == ()


def test_mutated_pair_can_be_mutated_again(weyl_groups, semigroups):
    """``left_mutation`` keeps the vertex of every summand, the new one at
    the mutated vertex, so mu_2 mu_1 (Pi, 0) is (I_{s2 s1}, 0)."""
    W, ctx = weyl_groups["a3"], semigroups["a3"]
    twice = left_mutation(left_mutation(stt_pair(ctx, W.identity), 1), 2)
    assert twice.block_vertices == (1, 2, 3)
    assert pairs_isomorphic(twice, stt_pair(ctx, from_word(W, (2, 1))))


def test_check_edge_rejects_wrong_targets(weyl_groups, semigroups):
    """Wrong A3 targets fail; s1 -> s1 differs from the true target only
    in the exchanged summand, and s1 -> s1s2s1 only in an unchanged one."""
    W, ctx = weyl_groups["a3"], semigroups["a3"]
    s1 = W.simple(1)
    for w, v, i in ((W.identity, W.simple(2), 1),
                    (s1, from_word(W, (1, 2)), 2),
                    (s1, from_word(W, (3, 1)), 2),
                    (s1, s1, 2),
                    (s1, from_word(W, (1, 2, 1)), 2)):
        with pytest.raises(VerificationFailed, match="left mutation"):
            tautilt._check_edge(ctx, w, v, i)
    tautilt._check_edge(ctx, s1, from_word(W, (2, 1)), 2)


def test_check_edge_tests_only_the_exchanged_summand(weyl_groups, semigroups,
                                                     monkeypatch):
    """Every A3 edge runs one isomorphism test, with the expected block at
    i first, and none when the target has no block at i: the other
    summands are compared by identity."""
    W, ctx = weyl_groups["a3"], semigroups["a3"]
    real = tautilt.is_isomorphic
    firsts = []

    def recording(M, N):
        firsts.append(M)
        return real(M, N)

    monkeypatch.setattr(tautilt, "is_isomorphic", recording)
    for w in W:
        for i in range(1, 4):
            v = W.left_mul(i, w)
            if v.length > w.length:
                firsts.clear()
                tautilt._check_edge(ctx, w, v, i)
                want = ctx.of_element(v).block(i)
                assert [id(M) for M in firsts] == \
                    ([id(want)] if want is not None else []), (W.word(w), i)


def test_left_mutation_refuses_fac_direction(weyl_groups, semigroups):
    W = weyl_groups["eg1"]
    pair = stt_pair(semigroups["eg1"], W.simple(1))
    # the block e_1 I_1 (iso to E_2) is a quotient of e_2 Pi, so only a
    # right mutation exists at it
    with pytest.raises(NotMutable):
        left_mutation(pair, 1)


def test_left_mutation_rejects_a_vertex_without_summand(weyl_groups,
                                                         semigroups):
    """A vertex that carries no summand is refused, not read as the index
    of a summand."""
    W = weyl_groups["a3"]
    pair = stt_pair(semigroups["a3"], from_word(W, (1, 2, 3)))
    assert pair.block_vertices == (2, 3)
    with pytest.raises(ValueError, match="vertex 1"):
        left_mutation(pair, 1)


def test_mutation_graph_eg1(semigroups):
    assert check_every_edge(semigroups["eg1"]) == 6
    g = exchange_graph(semigroups["eg1"])
    labels = {ws: set(node.summands) or {"0"} for ws, node in g.nodes.items()}
    assert labels == {
        "": {"e1P", "e2P"},
        "1": {"E2", "e2P"},
        "2": {"E1", "e1P"},
        "12": {"E1"},
        "21": {"E2"},
        "121": {"0"},
    }
    assert sorted(g.edges) == [
        ("", "1", 1), ("", "2", 2), ("1", "21", 2),
        ("12", "121", 2), ("2", "12", 1), ("21", "121", 1),
    ]


def test_mutation_graph_eg2(semigroups):
    assert check_every_edge(semigroups["eg2"]) == 8
    g = exchange_graph(semigroups["eg2"])
    labels = {ws: set(n.summands) or {"0"} for ws, n in g.nodes.items()}
    assert labels == {
        "": {"e1P", "e2P"},
        "1": {"e1I1", "e2P"},
        "2": {"e1P", "e2I2"},
        "12": {"E1", "e2I2"},
        "21": {"e1I1", "E2"},
        "121": {"E2"},
        "212": {"E1"},
        "1212": {"0"},
    }
    assert len(g.edges) == 8
    # projective parts along the lower-right rim
    assert g.nodes["121"].projective == ["e1P"]
    assert g.nodes["212"].projective == ["e2P"]
    assert g.nodes["1212"].projective == ["e1P", "e2P"]


def test_rank1_graph():
    A = build_algebra(cartan_data([[2]], (3,)))
    W = enumerate_weyl(A.data.cartan)
    ctx = IdealSemigroup(A, W)
    assert check_every_edge(ctx) == 1
    g = exchange_graph(ctx)
    assert len(g.nodes) == 2
    assert len(g.edges) == 1


def test_graph_connected(semigroups):
    for name in ("eg1", "eg2", "g2", "a3"):
        g = exchange_graph(semigroups[name])
        adj = {ws: set() for ws in g.nodes}
        for a, b, _ in g.edges:
            adj[a].add(b)
            adj[b].add(a)
        seen = set()
        stack = [""]
        while stack:
            x = stack.pop()
            if x in seen:
                continue
            seen.add(x)
            stack.extend(adj[x] - seen)
        assert seen == set(g.nodes)


def test_fac_strictly_decreases(semigroups):
    for name in ("eg1", "eg2"):
        ctx, A = semigroups[name], semigroups[name].algebra
        mutation_graph(ctx)
        for w, v, _ in tautilt._ascents(ctx.weyl):
            old = stt_pair(ctx, w)
            new = stt_pair(ctx, v)
            assert in_fac(old.summands, direct_sum(A, new.summands))
            assert not in_fac(new.summands, direct_sum(A, old.summands))


def test_hom_Ii_Ei_and_local_freeness(algebras, semigroups):
    for name in ("a2min", "eg1", "eg2", "g2", "a3", "b3"):
        A = algebras[name]
        for i in range(1, A.n + 1):
            Ii = vertex_ideal(semigroups[name].table, {i})
            Ei = generalized_simple(A, i)
            assert len(hom_space(ideal_module(Ii), Ei)) == 0
            assert locally_free_rank(ideal_module(Ii)) is not None
            blk = Ii.block(i)
            if blk is not None:
                assert locally_free_rank(blk) is not None


def test_classification_eg1(semigroups):
    rep = classification_report(semigroups["eg1"])
    assert rep.stt_count == 6
    assert sorted(t[0] for t in rep.tau_rigid_modules) == \
        ["E1", "E2", "e1P", "e2P"]


def test_classification_eg2(semigroups):
    rep = classification_report(semigroups["eg2"])
    assert rep.stt_count == 8
    assert sorted(t[0] for t in rep.tau_rigid_modules) == \
        ["E1", "E2", "e1I1", "e1P", "e2I2", "e2P"]


def test_classification_report_takes_no_seed():
    params = inspect.signature(classification_report).parameters
    assert list(params) == ["semigroup"]


def test_mutation_graph_takes_no_seed():
    assert list(inspect.signature(mutation_graph).parameters) == ["semigroup"]


def test_mutation_graph_builds_no_display(semigroups, monkeypatch):
    """The checked exchange quiver names no block, builds no
    ``GraphNode`` and returns nothing; B3 has 3 * 48 / 2 ascents."""
    display = []
    monkeypatch.setattr(ModuleNamer, "name_block",
                        lambda *args: display.append(args))
    monkeypatch.setattr(tautilt, "GraphNode",
                        lambda *args: display.append(args))
    assert mutation_graph(semigroups["b3"]) is None
    assert display == []
    assert len(list(tautilt._ascents(semigroups["b3"].weyl))) == 3 * 48 // 2


@pytest.mark.parametrize("name, length", [("a2min", 2), ("a3", 3)])
def test_classification_report_refuses_a_ball(algebras, name, length):
    """On a ``max_length`` ball the report refuses, as the exchange quiver
    does, instead of stepping out of the ball."""
    A = algebras[name]
    ball = enumerate_weyl(A.data.cartan, max_length=length)
    assert not ball.complete
    ctx = IdealSemigroup(A, ball)
    with pytest.raises(NotDynkin, match="full Weyl group"):
        classification_report(ctx)
    with pytest.raises(NotDynkin, match="full Weyl group"):
        mutation_graph(ctx)


def test_classification_report_checks_each_idempotent(semigroups,
                                                      monkeypatch):
    """The 0-Hecke check is the n products I_i I_i = I_i: breaking the
    product of one generator with itself fails the report."""
    ctx = semigroups["eg2"]
    gen = ctx.generator(2)
    real = tautilt.ideal_product

    def broken(I, J):
        if I is gen and J is gen:
            return full_ideal(ctx.table)
        return real(I, J)

    monkeypatch.setattr(tautilt, "ideal_product", broken)
    with pytest.raises(ReportFailure) as err:
        classification_report(ctx)
    assert err.value.failures == ["I_2 I_2 != I_2"]


def test_demazure_route_matches_product(weyl_groups, semigroups):
    W = weyl_groups["a2min"]
    ctx = semigroups["a2min"]
    for u in W:
        for v in W:
            lhs = ideal_product(ctx.of_element(u), ctx.of_element(v))
            rhs = ctx.of_element(demazure_product(W, u, v))
            assert lhs.blocks == rhs.blocks


def test_extend_right_matches_product(weyl_groups, semigroups):
    W = weyl_groups["eg2"]
    ctx = semigroups["eg2"]
    for w in W:
        iw = ctx.of_element(w)
        for i in (1, 2):
            via_closure = extend_right(iw, i)
            via_product = ideal_product(iw, vertex_ideal(ctx.table, {i}))
            assert via_closure.blocks == via_product.blocks


def test_classification_agrees_over_prime_field(weyl_groups):
    # recorded observation: the counts and the named tau-rigid lists match
    # between the rationals and a large prime field
    from preproj.fields import PrimeField
    for name, entries, sym in (
            ("eg2", [[2, -1], [-2, 2]], (2, 1)),
            ("g2", [[2, -1], [-3, 2]], (3, 1))):
        A = build_algebra(cartan_data(entries, sym), field=PrimeField(101))
        W = weyl_groups[name]
        rep = classification_report(IdealSemigroup(A, W))
        assert rep.stt_count == W.order
        base = build_algebra(cartan_data(entries, sym))
        base_rep = classification_report(IdealSemigroup(base, W))
        assert sorted(t[0] for t in rep.tau_rigid_modules) == \
            sorted(t[0] for t in base_rep.tau_rigid_modules)
        assert sorted(t[1] for t in rep.tau_rigid_modules) == \
            sorted(t[1] for t in base_rep.tau_rigid_modules)


def test_emitters(semigroups):
    g = exchange_graph(semigroups["eg1"])
    dot = g.to_dot()
    assert dot.startswith("digraph")
    assert '"w121" [label="0"];' in dot
    assert '"w" -> "w1" [label="1"];' in dot
    payload = g.to_json_dict()
    assert json.loads(json.dumps(payload)) == payload
    assert len(payload["nodes"]) == 6
    assert {"from": "", "to": "1", "label": 1} in payload["edges"]


def test_b3_qq_scalars_are_exact(algebras, weyl_groups, semigroups):
    """No float anywhere on the rational path: Groebner basis, structure
    constants, one I_w and its block action matrices."""
    def exact(values):
        return all(type(x) in (int, Fraction) for x in values)

    A = algebras["b3"]
    for g in A._completion.gb:
        assert exact(g.values())
    for i in range(A.dim):
        for j in range(A.dim):
            assert exact(A.mul_basis(i, j).values())
    W = weyl_groups["b3"]
    w = next(e for e in W if e.length == 4)
    ideal = semigroups["b3"].of_element(w)
    assert 0 < ideal.dim < A.dim
    assert exact(x for b in ideal.blocks
                 for piece in ideal.table.spaces[b].values()
                 for row in piece.rows for x in row)
    for v in range(1, A.n + 1):
        blk = ideal.block(v)
        if blk is not None:
            for m in blk.act.values():
                assert exact(x for row in m.rows for x in row)


def test_b3_fp_scalars_are_reduced_ints(weyl_groups):
    """Over F_101 every scalar is an int in range(101): Groebner basis,
    structure constants, a product, one I_w, its block matrices, one
    presentation and one tau."""
    def reduced(values):
        return all(type(x) is int and 0 <= x < 101 for x in values)

    A = build_algebra(cartan_data(*ALGEBRA_SPECS["b3"]), field=PrimeField(101))
    for g in A._completion.gb:
        assert reduced(g.values())
    assert any(100 in g.values() for g in A._completion.gb)  # -1 mod 101
    for i in range(A.dim):
        for j in range(A.dim):
            assert reduced(A.mul_basis(i, j).values())
    minus_one = {i: 100 for i in range(A.dim)}
    square = A.mul_coords(minus_one, minus_one)
    assert square and reduced(square.values())
    W = weyl_groups["b3"]
    w = next(e for e in W if e.length == 4)
    ideal = IdealSemigroup(A, W).of_element(w)
    assert 0 < ideal.dim < A.dim
    assert reduced(x for b in ideal.blocks
                   for piece in ideal.table.spaces[b].values()
                   for row in piece.rows for x in row)
    blocks = [ideal.block(v) for v in range(1, A.n + 1)]
    blocks = [b for b in blocks if b is not None]
    assert blocks
    for blk in blocks:
        for m in blk.act.values():
            assert reduced(x for row in m.rows for x in row)
    pres = minimal_projective_presentation(blocks[0])
    assert pres.p1
    assert reduced(c for col in pres.x_elems for x in col for c in x.values())
    tau = auslander_reiten_translate(blocks[0])
    assert tau.total_dim > 0
    for m in tau.act.values():
        assert reduced(x for row in m.rows for x in row)


B4 = [[2, -1, 0, 0], [-1, 2, -1, 0], [0, -1, 2, -1], [0, 0, -2, 2]]


@pytest.mark.parametrize("name, expected", [
    ("g2", 10), ("a3", 11), ("b3", 23), ("b4", 76)])
def test_blocks_shared_across_weyl_elements(name, expected, algebras,
                                            weyl_groups, semigroups):
    """e_v I_w depends only on w^-1 omega_v, so there are
    sum_i (|W omega_i| - 1) distinct nonzero blocks, and equal blocks of
    different ideals are one module object."""
    if name == "b4":
        A = build_algebra(cartan_data(B4, "minimal"))
        W = enumerate_weyl(A.data.cartan)
        ctx = IdealSemigroup(A, W)
    else:
        A, W, ctx = algebras[name], weyl_groups[name], semigroups[name]
    entries = [list(r) for r in A.data.cartan.entries]
    assert sum(s - 1 for s in weyl_orbit_sizes(entries)) == expected
    by_rows = {}
    distinct = {}
    for w in W:
        ideal = ctx.of_element(w)
        for v in range(1, A.n + 1):
            b = ideal.blocks[v - 1]
            rows = _rows(ideal.table, b)
            blk = ideal.block(v)
            if not ideal.table.sparse_rows(b):
                assert blk is None
                continue
            # the graded echelon rows are the echelon rows in e_vPi
            dense = [tuple(x.get(g, A.field.zero) for g in A.by_target[v])
                     for x in ideal.table.sparse_rows(b)]
            echelon = Subspace.span(dense, len(A.by_target[v]), A.field)
            assert sorted(map(tuple, echelon.rows)) == sorted(dense)
            assert by_rows.setdefault((v, rows), blk) is blk
            distinct[id(blk)] = blk
    assert len(distinct) == len(by_rows) == expected


def _rows(table, b):
    """The echelon rows of block ``b``, vertex by vertex, as nested
    tuples."""
    return tuple(tuple(map(tuple, s.rows)) for s in table.spaces[b].values())


@pytest.mark.parametrize("name", ["a3", "b3", "eg2"])
def test_block_module_shares_the_table_span(name, algebras, weyl_groups,
                                            semigroups):
    """Each block is echelonized once: its module is the submodule of
    e_vPi on the table's per-vertex echelon bases, and the span of
    reordered or redundant generators gets the same block id."""
    A, W, ctx = algebras[name], weyl_groups[name], semigroups[name]
    table = ctx.table
    two = A.field.from_int(2)
    for w in W:
        ideal = ctx.of_element(w)
        for v in range(1, A.n + 1):
            b = ideal.blocks[v - 1]
            blk = ideal.block(v)
            if blk is not None:
                spaces = table.spaces[b]
                assert blk.dims == [s.dim for s in spaces.values()]
                for a in A.quiver.arrows:
                    act = A.right_action[v][a.index]
                    express = spaces[a.source].express
                    assert [express(act.vec(x))
                            for x in spaces[a.target].rows] == \
                        [blk.act[a.index].col(j)
                         for j in range(blk.dims[a.target - 1])]
            gens = table.sparse_rows(b)
            redundant = ([{g: two * c for g, c in x.items()}
                          for x in reversed(gens)] + gens
                         + [A.mul_coords(x, y) for x in gens for y in gens])
            assert table.span(v, redundant) == b
            assert table.span(v, gens[1:] + gens[:1]) == b
    assert len(table.spaces) == len(table._ids)


A3 = [[2, -1, 0], [-1, 2, -1], [0, -1, 2]]
B3 = [[2, -1, 0], [-1, 2, -1], [0, -2, 2]]
G2 = [[2, -1], [-3, 2]]
B2 = [[2, -1], [-2, 2]]


@pytest.mark.parametrize("entries, sym", [
    (A3, "minimal"), (B3, "minimal"), (G2, (3, 1)), (B2, (4, 2))],
    ids=["a3", "b3", "g2", "b2-42"])
def test_minimal_approximation_counts_match_cartan(entries, sym):
    """On the edge I_w -> I_{s_i w}, the minimal left approximation of
    e_i I_w keeps |c_ji| maps into the complement block at vertex j, and
    none into a block at a non-neighbour of i."""
    A = build_algebra(cartan_data(entries, sym))
    W = enumerate_weyl(A.data.cartan)
    ctx = IdealSemigroup(A, W)
    check_every_edge(ctx)
    mutation_graph(ctx)
    for w, _, i in tautilt._ascents(W):
        pair = stt_pair(ctx, w)
        idx = pair.block_vertices.index(i)
        others = pair.summands[:idx] + pair.summands[idx + 1:]
        verts = pair.block_vertices[:idx] + pair.block_vertices[idx + 1:]
        kept = _minimal_approximation(A, pair.summands[idx], others)
        want = {j: abs(A.data.cartan[j, i]) for j in verts
                if A.data.cartan[j, i]}
        assert Counter(verts[k] for k, _ in kept) == want, (src, i)


def _flattened_approximation(A, X, others):
    """Oracle for ``_minimal_approximation``: the same sweep, comparing
    whole maps, every entry of g f_p at every vertex."""
    def flat(h):
        return [c for v in sorted(h) for row in h[v].rows for c in row]

    copies = [(k, f) for k, Uk in enumerate(others)
              for f in hom_space(X, Uk)]
    kept = list(range(len(copies)))
    for c, (kc, fc) in enumerate(copies):
        span = Subspace(
            sum(others[kc].dims[v] * X.dims[v] for v in range(A.n)), A.field)
        for p in kept:
            if p != c:
                kp, fp = copies[p]
                for g in hom_space(others[kp], others[kc]):
                    span.add(flat({v: g[v].mul(fp[v]) for v in g}))
        if span.contains(flat(fc)):
            kept.remove(c)
    return [copies[c] for c in kept]


@pytest.mark.parametrize("entries, sym", [
    (B3, "minimal"), (G2, (3, 1)), (B2, (4, 2))], ids=["b3", "g2", "b2-42"])
def test_approximation_on_generators_matches_whole_maps(entries, sym):
    """On every edge, comparing maps by their values on the generators of
    X keeps exactly the copies that comparing whole maps keeps."""
    A = build_algebra(cartan_data(entries, sym))
    W = enumerate_weyl(A.data.cartan)
    ctx = IdealSemigroup(A, W)
    dropped = 0
    mutation_graph(ctx)
    for w, _, i in tautilt._ascents(W):
        pair = stt_pair(ctx, w)
        idx = pair.block_vertices.index(i)
        X = pair.summands[idx]
        others = pair.summands[:idx] + pair.summands[idx + 1:]
        got = _minimal_approximation(A, X, others)
        want = _flattened_approximation(A, X, others)
        assert ([(k, {v: m.rows for v, m in f.items()}) for k, f in got]
                == [(k, {v: m.rows for v, m in f.items()}) for k, f in want])
        dropped += sum(len(hom_space(X, U)) for U in others) - len(got)
    assert dropped > 0


@pytest.mark.parametrize("entries, sym", [
    (G2, (3, 1)), (A3, "minimal"), (B3, "minimal"), (B2, (4, 2)),
    ([[2, 0, -2], [0, 2, -1], [-1, -1, 2]], "minimal"),
    ([[2, -1], [-1, 2]], (2, 2))],
    ids=["g2", "a3", "b3", "b2-42", "b3-relabelled", "a2-22"])
def test_block_names_match_first_isomorphic_candidate(entries, sym):
    """The direct naming rule gives every distinct block the name of the
    first candidate it is isomorphic to (e{i}P, then E{i}, then e{i}I{i}),
    with ``is_isomorphic`` as the oracle.  In A2 with D = (2, 2),
    e_1I_1 ~ E_2 is named E2, which pins the priority of E over I."""
    A = build_algebra(cartan_data(entries, sym))
    W = enumerate_weyl(A.data.cartan)
    ctx = IdealSemigroup(A, W)
    namer = ModuleNamer(ctx)
    vertices = range(1, A.n + 1)
    candidates = ([(f"e{i}P", projective_module(A, i)) for i in vertices]
                  + [(f"E{i}", generalized_simple(A, i)) for i in vertices]
                  + [(f"e{i}I{i}", vertex_ideal(ctx.table, {i}).block(i))
                     for i in vertices
                     if vertex_ideal(ctx.table, {i}).block(i) is not None])
    seen = set()
    for w in W:
        for v, b in enumerate(ctx.of_element(w).blocks, 1):
            blk = ctx.table.module(b)
            if blk is None or b in seen:
                continue
            seen.add(b)
            want = next((name for name, cand in candidates
                         if is_isomorphic(blk, cand)),
                        f"e{v}Iw{''.join(map(str, W.word(w)))}")
            assert namer.name_block(v, w, b) == want
    assert len(seen) == sum(s - 1 for s in weyl_orbit_sizes(entries))


_NAMER_SPECS = {**_ROUTE_SPECS, "a2-22": ([[2, -1], [-1, 2]], (2, 2))}


@pytest.mark.parametrize("field", [QQ, PrimeField(101)], ids=["qq", "f101"])
@pytest.mark.parametrize("name", sorted(_NAMER_SPECS))
def test_block_names_match_the_module_namer(name, field):
    """``ModuleNamer`` reads block ids and builds no module, naming E{j}
    every block of dimension vector c_j delta_j; at every (w, v), in
    enumeration order, it gives the name of ``ModuleKeyedNamer``, which
    keys by block module and still takes the locally free rank of every
    block, naming E{j} a rank delta_j."""
    A = build_algebra(cartan_data(*_NAMER_SPECS[name]), field=field)
    W = enumerate_weyl(A.data.cartan)
    ctx = IdealSemigroup(A, W)
    namer, oracle = ModuleNamer(ctx), ModuleKeyedNamer(ctx)
    named = 0
    for w in W:
        ideal = ctx.of_element(w)
        for v, b in enumerate(ideal.blocks, 1):
            blk = ideal.block(v)
            if blk is not None:
                assert (namer.name_block(v, w, b)
                        == oracle.name_block(v, w, blk)), (name, v, w)
                named += 1
    assert named == sum(len(pair_blocks(ctx, w)[0]) for w in W)


@pytest.mark.parametrize("field", [QQ, PrimeField(101)], ids=["qq", "f101"])
@pytest.mark.parametrize("name", sorted(_NAMER_SPECS))
def test_block_ranks_match_the_weight_and_the_module(name, field):
    """At every (w, v) with e_vI_w nonzero, the rank dims / c that
    ``ModuleNamer`` keeps is the closed form w^-1 omega_v + omega_sigma(v)
    of ``weight_rank`` and the locally free rank of the block module."""
    entries = _NAMER_SPECS[name][0]
    A = build_algebra(cartan_data(*_NAMER_SPECS[name]), field=field)
    W = enumerate_weyl(A.data.cartan)
    ctx = IdealSemigroup(A, W)
    namer = ModuleNamer(ctx)
    for w in W:
        for v, b in pair_blocks(ctx, w)[0].items():
            namer.describe(v, w, b)
            assert (namer.rank(b) == weight_rank(entries, W.word(w), v)
                    == locally_free_rank(ctx.table.module(b))), (name, v, w)


def test_describe_refuses_a_rank_that_is_not_whole(monkeypatch):
    """A block whose dimension vector is not a multiple of c has no rank
    dims / c: ``describe`` raises naming the block instead of flooring."""
    A = build_algebra(cartan_data(B2, (4, 2)))
    ctx = IdealSemigroup(A, enumerate_weyl(A.data.cartan))
    w = ctx.weyl.simple(1)
    b = ctx.of_element(w).blocks[1]
    monkeypatch.setattr(ctx.table, "dims", lambda b: [1, 2])
    with pytest.raises(VerificationFailed,
                       match=r"block e2P has dimension vector \[1, 2\]"):
        ModuleNamer(ctx).describe(2, w, b)


def test_classification_report_checks_local_freeness(monkeypatch, capsys):
    """With ``locally_free_rank`` finding one block E1 not locally free, the
    report fails naming that block, and A2 ``verify`` prints the FAIL
    line and exits 1."""
    from preproj.cli import main
    real = tautilt.locally_free_rank
    monkeypatch.setattr(tautilt, "locally_free_rank", lambda M: (
        None if M.dims == [1, 0] else real(M)))
    A = build_algebra(cartan_data([[2, -1], [-1, 2]], "minimal"))
    with pytest.raises(ReportFailure) as err:
        classification_report(IdealSemigroup(A, enumerate_weyl(A.data.cartan)))
    assert err.value.failures == ["E1 is not locally free of rank (1, 0)"]
    assert main(["verify", "--config", '{"cartan": [[2, -1], [-1, 2]]}']) == 1
    assert ("FAIL classification report (ReportFailure: classification "
            "report failed; failures: E1 is not locally free of rank (1, 0))"
            in capsys.readouterr().out.splitlines())


def test_graph_nodes_build_no_module_after_mutation_graph(monkeypatch):
    """``mutation_graph`` builds the modules of the pairs on its sampled
    edges; the display ``graph_nodes`` then builds none."""
    A = build_algebra(cartan_data(B3, "minimal"))
    ctx = IdealSemigroup(A, enumerate_weyl(A.data.cartan))
    real = tautilt.module_from_subspace
    calls = []

    def counting(*args):
        calls.append(1)
        return real(*args)

    monkeypatch.setattr(tautilt, "module_from_subspace", counting)
    mutation_graph(ctx)
    assert calls
    calls.clear()
    assert len(list(graph_nodes(ctx))) == 48
    assert calls == []


@pytest.mark.parametrize("p", [2, 3, 5])
@pytest.mark.parametrize("entries, sym", [
    ([[2, -1], [-1, 2]], (2, 2)), (G2, (3, 1)), (B2, (4, 2))],
    ids=["a2-22", "g2", "b2-42"])
def test_mutation_graph_validates_over_small_primes(entries, sym, p):
    A = build_algebra(cartan_data(entries, sym), field=PrimeField(p))
    W = enumerate_weyl(A.data.cartan)
    assert check_every_edge(IdealSemigroup(A, W)) == A.n * W.order // 2


def test_dropping_the_context_frees_its_blocks(algebras, weyl_groups):
    """The caller owns the ideal layer: building and using a context adds
    no attribute to the algebra, and a dropped context frees its block
    modules by reference counting alone."""
    A, W = algebras["b3"], weyl_groups["b3"]
    keys = set(vars(A))
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        ctx = IdealSemigroup(A, W)
        classification_report(ctx)
        mutation_graph(ctx)
        ref = weakref.ref(ctx.of_element(W.simple(1)).block(1))
        assert ref() is not None
        assert set(vars(A)) == keys
        del ctx
        assert ref() is None
    finally:
        if was_enabled:
            gc.enable()


def test_tau_pairs_are_solved_once_per_block_pair(algebras, weyl_groups,
                                                  monkeypatch):
    """``classification_report`` decides Hom(M_a, tau M_b) = 0 once per
    ordered pair of blocks that occur together in some (I_w, P_w), each
    verdict agrees with the route through tau M_b, and the memo keeps no
    reference cycle: the dropped context frees its blocks."""
    A, W = algebras["b3"], weyl_groups["b3"]
    real = tautilt.hom_to_tau_vanishes
    calls = []

    def counting(Y, X):
        calls.append((Y, X))
        return real(Y, X)

    was_enabled = gc.isenabled()
    gc.disable()
    try:
        ctx = IdealSemigroup(A, W)
        monkeypatch.setattr(tautilt, "hom_to_tau_vanishes", counting)
        classification_report(ctx)
        monkeypatch.undo()
        together = {(s, t) for w in W for pair in [stt_pair(ctx, w)]
                    for s in pair.summands for t in pair.summands}
        assert len(calls) == len(set(calls))
        assert set(calls) == together
        assert len(together) < sum(len(stt_pair(ctx, w).summands) ** 2
                                   for w in W)
        for Y, X in calls:
            assert len(hom_space(Y, auslander_reiten_translate(X))) == 0
        refs = [weakref.ref(Y) for Y, _ in calls]
        del ctx, calls, together, Y, X
        assert all(r() is None for r in refs)
    finally:
        if was_enabled:
            gc.enable()


def test_classification_builds_no_tau(semigroups, monkeypatch):
    """The report decides tau-rigidity on presentations: with tau and the
    dual map it is built from raising, the report still passes."""
    def no_tau(*args):
        raise AssertionError("classification_report built a tau module")

    for target, name in ((repmod, "auslander_reiten_translate"),
                         (tautilt, "auslander_reiten_translate"),
                         (repmod, "_dual_map")):
        monkeypatch.setattr(target, name, no_tau, raising=False)
    for name in ("eg1", "g2", "b3"):
        classification_report(semigroups[name])


def _counting(monkeypatch, name):
    """Patch ``tautilt.<name>`` to record each call; returns the record."""
    real, calls = getattr(tautilt, name), []

    def counting(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(tautilt, name, counting)
    return calls


def test_semigroup_memos_are_bounded(monkeypatch):
    """A B4 ``stt`` builds every I_w by right steps from its right parent:
    no left extension and exactly 131 closures, one per distinct
    (block, i) it meets (304 under the left descent rule); the ascent check
    I_u I_i = I_{u s_i} memoizes at most one right step per (block, i)."""
    A = build_algebra(cartan_data(B4, "minimal"))
    W = enumerate_weyl(A.data.cartan)
    ctx = IdealSemigroup(A, W)
    lefts = _counting(monkeypatch, "extend_left")
    closures = _counting(monkeypatch, "_closure")
    assert len(list(graph_nodes(ctx))) == W.order
    monkeypatch.undo()
    table = ctx.table
    assert lefts == []
    assert len(closures) == len(table.right) == 131
    for u in W:
        for i in range(1, A.n + 1):
            v = W.right_mul(u, i)
            if v.length > u.length:
                assert extend_right(ctx.of_element(u), i) == \
                    ctx.of_element(v)
    assert 0 < len(table.right) <= len(table.spaces) * A.n


def test_stt_walk_builds_no_left_action():
    """The pairs of a B4 ``stt`` need only the right action tables of the
    algebra: the left ones are never built."""
    A = build_algebra(cartan_data(B4, "minimal"))
    assert len(list(graph_nodes(
        IdealSemigroup(A, enumerate_weyl(A.data.cartan))))) == 384
    assert "left_action" not in A.__dict__


def test_ascent_check_catches_a_wrong_memo_entry(algebras, weyl_groups):
    """Check (i) of ``classification_report`` tests every ascent
    I_u I_i = I_{u s_i}, whatever route filled the memo: with block 1 of
    I_(121) swapped for e_1 Pi on B3, both ascents into 121 fail."""
    A, W = algebras["b3"], weyl_groups["b3"]
    ctx = IdealSemigroup(A, W)
    for w in W:
        ctx.of_element(w)
    x = next(w for w in W if W.word_str(w) == "121")
    ideal = ctx.of_element(x)
    ctx._cache[x.index] = tautilt.Ideal(
        ctx.table, (ctx.table.full[0],) + ideal.blocks[1:])
    with pytest.raises(ReportFailure) as err:
        classification_report(ctx)
    assert {"I_(12) * I_1 != I_(121)",
            "I_(21) * I_2 != I_(121)"} <= set(err.value.failures)


D4 = [[2, -1, 0, 0], [-1, 2, -1, -1], [0, -1, 2, 0], [0, -1, 0, 2]]
A4 = [[2, -1, 0, 0], [-1, 2, -1, 0], [0, -1, 2, -1], [0, 0, -1, 2]]


@pytest.mark.parametrize("entries, sym, field, expected", [
    (A3, "minimal", QQ, 11), (B3, "minimal", QQ, 23), (G2, (3, 1), QQ, 10),
    (G2, (6, 2), QQ, 10), (B2, (4, 2), QQ, 6), (B4, "minimal", QQ, 76),
    (D4, "minimal", QQ, 44), (A4, "minimal", QQ, 26),
    (B3, "minimal", PrimeField(101), 23)],
    ids=["a3", "b3", "g2", "g2-62", "b2-42", "b4", "d4", "a4", "b3-fp101"])
def test_descent_rule_matches_plain_left_extension(entries, sym, field,
                                                   expected, monkeypatch):
    """``of_element`` gives, for every w, the ideal of the plain route
    I_w = extend_left(i, I_{s_i w}) for i = W.word(w)[0], with no reuse of
    blocks, on the same ``BlockTable``.  It builds them by right steps
    alone, calling no ``extend_left``, and meets one block per w^-1 omega_v
    other than the zero block's: sum_v (|W omega_v| - 1) nonzero blocks."""
    A = build_algebra(cartan_data(entries, sym), field=field)
    W = enumerate_weyl(A.data.cartan)
    ctx = IdealSemigroup(A, W)
    real = tautilt.extend_left
    calls = _counting(monkeypatch, "extend_left")
    got = {w.index: ctx.of_element(w).blocks for w in W}
    monkeypatch.undo()
    assert calls == []
    nonzero = len(ctx.table.spaces) - len(ctx.table.zero)
    assert nonzero == expected
    assert sum(s - 1 for s in weyl_orbit_sizes(entries)) == expected
    plain = {}
    for w in W:  # by length, so s_i w comes first
        if w.length == 0:
            plain[w.index] = full_ideal(ctx.table)
        else:
            i = W.word(w)[0]
            plain[w.index] = real(i, plain[W.left_mul(i, w).index])
        assert plain[w.index].blocks == got[w.index], w


def test_ideals_on_a_ball_match_the_full_group(algebras, semigroups):
    """``of_element`` on a ``max_length`` ball reaches the outer layer's
    descents, and every ideal on the ball is the ideal of the element with
    the same weight in the full group."""
    A, full = algebras["b3"], semigroups["b3"]
    ball = enumerate_weyl(A.data.cartan, max_length=3)
    assert ball.order == 16 and not ball.complete
    ctx = IdealSemigroup(A, ball)

    def spans(sg, w):
        return [_rows(sg.table, b) for b in sg.of_element(w).blocks]

    for w in ball:
        assert spans(ctx, w) == spans(full, full.weyl.elements[w.weight]), \
            ball.word(w)


def _rank_vector(entries, word, i):
    """sum over k with i_k = i of s_{i_l} ... s_{i_{k+1}}(alpha_i) for
    word = (i_1, ..., i_l), with s_j(x) = x - (sum_k c_jk x_k) alpha_j."""
    n = len(entries)
    total = [0] * n
    for k, ik in enumerate(word):
        if ik != i:
            continue
        x = [int(t == i - 1) for t in range(n)]
        for j in word[k + 1:]:
            x[j - 1] -= sum(entries[j - 1][t] * x[t] for t in range(n))
        total = [a + b for a, b in zip(total, x)]
    return total


C3 = [[2, -1, 0], [-1, 2, -2], [0, -1, 2]]
D4 = [[2, -1, 0, 0], [-1, 2, -1, -1], [0, -1, 2, 0], [0, -1, 0, 2]]
A4 = [[2, -1, 0, 0], [-1, 2, -1, 0], [0, -1, 2, -1], [0, 0, -1, 2]]
C4 = [[2, -1, 0, 0], [-1, 2, -1, 0], [0, -1, 2, -2], [0, 0, -1, 2]]


@pytest.mark.parametrize("entries, sym, p", [
    (G2, (3, 1), 0), (G2, (6, 2), 0), (B2, (4, 2), 0),
    ([[2, -1], [-1, 2]], (2, 2), 0), (B3, "minimal", 0), (C3, "minimal", 3),
    (D4, "minimal", 0), (A4, "minimal", 0), (C4, "minimal", 0)],
    ids=["g2", "g2-62", "b2-42", "a2-22", "b3", "c3-f3", "d4", "a4", "c4"])
def test_block_dims_match_root_formula(entries, sym, p):
    """dim e_i(Pi/I_w)e_j = d_j r_j for every block of every I_w, where r is
    the closed-form rank vector of e_i(Pi/I_w) from root combinatorics."""
    A = build_algebra(cartan_data(entries, sym),
                      field=PrimeField(p) if p else QQ)
    W = enumerate_weyl(A.data.cartan)
    d = A.quiver.symmetrizer
    full = A.dims_matrix()
    ctx = IdealSemigroup(A, W)
    for w in W:
        ideal = ctx.of_element(w)
        for i in range(1, A.n + 1):
            blk = ideal.block(i)
            sub = blk.dims if blk is not None else [0] * A.n
            r = _rank_vector(entries, W.word(w), i)
            assert [full[i - 1][j] - sub[j] for j in range(A.n)] == \
                [d[j + 1] * r[j] for j in range(A.n)], (W.word(w), i)


def test_edge_sample_is_every_ceil_e_over_20th_ascent(semigroups,
                                                      monkeypatch):
    """``mutation_graph`` checks every ceil(E/20)-th of the E ascents in
    enumeration order: all 6 edges of A2, and the ascents [::20] of D4's
    384.  Two calls check the same edges."""
    checked = []
    monkeypatch.setattr(tautilt, "_check_edge",
                        lambda ctx, w, v, i: checked.append((w, v, i)))
    mutation_graph(semigroups["a2min"])
    ascents = list(tautilt._ascents(semigroups["a2min"].weyl))
    assert checked == ascents and len(checked) == 6
    A = build_algebra(cartan_data(D4, "minimal"))
    ctx = IdealSemigroup(A, enumerate_weyl(A.data.cartan))
    runs = []
    for _ in range(2):
        checked.clear()
        mutation_graph(ctx)
        runs.append(list(checked))
    ascents = list(tautilt._ascents(ctx.weyl))
    assert len(ascents) == 384
    assert runs[0] == runs[1] == ascents[::20]


def test_mutation_graph_checks_every_edge_off_the_sample(algebras,
                                                         weyl_groups):
    """Every ascent w -> s_i w keeps the blocks of I_w at the vertices
    other than i.  A memoized I_x broken at vertex 1, none of whose edges
    is sampled for left mutation, fails the walk."""
    A, W = algebras["b3"], weyl_groups["b3"]
    ctx = IdealSemigroup(A, W)
    ascents = [(w, W.left_mul(i, w)) for w in W for i in range(1, A.n + 1)
               if W.left_mul(i, w).length > w.length]
    sampled = {x.index for edge in ascents[::-(-len(ascents) // 20)]
               for x in edge}
    x = next(w for w in W if w.index not in sampled)
    for w in W:
        ctx.of_element(w)
    ideal = ctx.of_element(x)
    other = next(b for b in range(len(ctx.table.spaces))
                 if b != ideal.blocks[0])
    ctx._cache[x.index] = tautilt.Ideal(ctx.table,
                                        (other,) + ideal.blocks[1:])
    with pytest.raises(VerificationFailed,
                       match="changes a block other than"):
        mutation_graph(ctx)


@pytest.mark.parametrize("entries, sym", [
    (B3, "minimal"), (C3, "minimal"), (D4, "minimal"), (G2, (6, 2)),
    (B2, (4, 2))], ids=["b3", "c3", "d4", "g2-62", "b2-42"])
@pytest.mark.parametrize("field", [QQ, PrimeField(101)], ids=["qq", "f101"])
def test_steps_match_the_generic_closures(entries, sym, field):
    """The left step at every i of every I_w gives the ideal of the route
    through the basis paths with one non-loop arrow, and the right step at
    every i of every block gives the block of the closure under every
    arrow: the eps_i-closures of the steps span the same spaces."""
    A = build_algebra(cartan_data(entries, sym), field=field)
    ctx = IdealSemigroup(A, enumerate_weyl(A.data.cartan))
    table = ctx.table
    for w in ctx.weyl:
        ideal = ctx.of_element(w)
        for i in range(1, A.n + 1):
            assert extend_left(i, ideal) == path_extend_left(i, ideal)
    blocks = len(table.spaces)
    assert blocks > A.n
    for b in range(blocks):
        for i in range(1, A.n + 1):
            assert (tautilt._right_step(table, b, i)
                    == generic_right_step(table, b, i)), (b, i)
