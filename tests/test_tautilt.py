import gc
import json
import weakref
from collections import Counter
from fractions import Fraction

import pytest
from conftest import ALGEBRA_SPECS, weyl_orbit_sizes

from preproj.cartan import cartan_data
from preproj.coxeter import demazure_product, enumerate_weyl
from preproj.errors import NotMutable
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
    projective_module,
)
from preproj.tautilt import (
    IdealSemigroup,
    ModuleNamer,
    SttPair,
    _minimal_approximation,
    classification_report,
    extend_right,
    full_ideal,
    ideal_product,
    left_mutation,
    mutation_graph,
    pairs_isomorphic,
    stt_pair,
    verify_stt,
    vertex_ideal,
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
        pair = stt_pair(ctx, w)
        names = tuple(namer.name_block(v, w.word, s)
                      for v, s in zip(pair.block_vertices, pair.summands))
        got["".join(map(str, w.word))] = (names, pair.projective_vertices)
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
    ok, reasons = verify_stt(stt_pair(semigroups["eg1"], W.identity))
    assert ok, reasons
    ok, reasons = verify_stt(stt_pair(semigroups["eg1"], W.longest()))
    assert ok, reasons
    bad = SttPair(eg1, [generalized_simple(eg1, 1),
                        generalized_simple(eg1, 2)], ())
    ok, reasons = verify_stt(bad)
    assert not ok
    assert any("tau" in r for r in reasons)


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
    w21 = W1.from_word((2, 1))
    pair21 = stt_pair(sg1, w21)
    done = left_mutation(pair21, pair21.block_vertices[0])
    assert done.summands == []
    assert done.projective_vertices == (1, 2)


def test_left_mutation_refuses_fac_direction(weyl_groups, semigroups):
    W = weyl_groups["eg1"]
    pair = stt_pair(semigroups["eg1"], W.simple(1))
    # the block e_1 I_1 (iso to E_2) is a quotient of e_2 Pi, so only a
    # right mutation exists at it
    with pytest.raises(NotMutable):
        left_mutation(pair, 1)


def test_mutation_graph_eg1(semigroups):
    g = mutation_graph(semigroups["eg1"], validate="all")
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
    g = mutation_graph(semigroups["eg2"], validate="all")
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
    g = mutation_graph(IdealSemigroup(A, W), validate="all")
    assert len(g.nodes) == 2
    assert len(g.edges) == 1


def test_graph_connected(semigroups):
    for name in ("eg1", "eg2", "g2", "a3"):
        g = mutation_graph(semigroups[name])
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


def test_fac_strictly_decreases(weyl_groups, semigroups):
    for name in ("eg1", "eg2"):
        W, ctx = weyl_groups[name], semigroups[name]
        g = mutation_graph(ctx)
        for (src, dst, i) in g.edges:
            old = stt_pair(ctx, W.from_word(tuple(map(int, src)))).module()
            new = stt_pair(ctx, W.from_word(tuple(map(int, dst)))).module()
            assert in_fac(old, new)
            assert not in_fac(new, old)


def test_hom_Ii_Ei_and_local_freeness(algebras, semigroups):
    for name in ("a2min", "eg1", "eg2", "g2", "a3", "b3"):
        A = algebras[name]
        for i in range(1, A.n + 1):
            Ii = vertex_ideal(semigroups[name].table, {i})
            Ei = generalized_simple(A, i)
            assert hom_space(Ii.module(), Ei).dim == 0
            assert locally_free_rank(Ii.module()) is not None
            blk = Ii.block(i)
            if blk is not None:
                assert locally_free_rank(blk) is not None


def test_classification_eg1(semigroups):
    rep = classification_report(semigroups["eg1"])
    assert rep.ok
    assert rep.stt_count == 6
    assert sorted(t[0] for t in rep.tau_rigid_modules) == \
        ["E1", "E2", "e1P", "e2P"]


def test_classification_eg2(semigroups):
    rep = classification_report(semigroups["eg2"])
    assert rep.ok
    assert rep.stt_count == 8
    assert sorted(t[0] for t in rep.tau_rigid_modules) == \
        ["E1", "E2", "e1I1", "e1P", "e2I2", "e2P"]


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
        assert rep.ok
        assert rep.stt_count == W.order
        base = build_algebra(cartan_data(entries, sym))
        base_rep = classification_report(IdealSemigroup(base, W))
        assert sorted(t[0] for t in rep.tau_rigid_modules) == \
            sorted(t[0] for t in base_rep.tau_rigid_modules)
        assert sorted(t[1] for t in rep.tau_rigid_modules) == \
            sorted(t[1] for t in base_rep.tau_rigid_modules)


def test_emitters(semigroups):
    g = mutation_graph(semigroups["eg1"])
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
    w = next(e for e in W.sorted_elements() if e.length == 4)
    ideal = semigroups["b3"].of_element(w)
    assert 0 < ideal.dim < A.dim
    assert exact(x for b in ideal.blocks for row in ideal.table.rows[b]
                 for x in row)
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
    w = next(e for e in W.sorted_elements() if e.length == 4)
    ideal = IdealSemigroup(A, W).of_element(w)
    assert 0 < ideal.dim < A.dim
    assert reduced(x for b in ideal.blocks for row in ideal.table.rows[b]
                   for x in row)
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
            rows = ideal.table.rows[ideal.blocks[v - 1]]
            blk = ideal.block(v)
            if not rows:
                assert blk is None
                continue
            assert Subspace.span(rows, len(A.by_target[v]), A.field).key() \
                == rows
            assert by_rows.setdefault((v, rows), blk) is blk
            distinct[id(blk)] = blk
    assert len(distinct) == len(by_rows) == expected


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
    graph = mutation_graph(ctx, validate="all")
    for src, _, i in graph.edges:
        pair = stt_pair(ctx, W.from_word(tuple(int(c) for c in src)))
        idx = pair.block_vertices.index(i)
        others = pair.summands[:idx] + pair.summands[idx + 1:]
        verts = pair.block_vertices[:idx] + pair.block_vertices[idx + 1:]
        kept = _minimal_approximation(A, pair.summands[idx], others)
        want = {j: abs(A.data.cartan[j, i]) for j in verts
                if A.data.cartan[j, i]}
        assert Counter(verts[k] for k, _ in kept) == want, (src, i)


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
        ideal = ctx.of_element(w)
        for v in vertices:
            blk = ideal.block(v)
            if blk is None or id(blk) in seen:
                continue
            seen.add(id(blk))
            want = next((name for name, cand in candidates
                         if is_isomorphic(blk, cand)),
                        f"e{v}Iw{''.join(map(str, w.word))}")
            assert namer.name_block(v, w.word, blk) == want
    assert len(seen) == sum(s - 1 for s in weyl_orbit_sizes(entries))


@pytest.mark.parametrize("p", [2, 3, 5])
@pytest.mark.parametrize("entries, sym", [
    ([[2, -1], [-1, 2]], (2, 2)), (G2, (3, 1)), (B2, (4, 2))],
    ids=["a2-22", "g2", "b2-42"])
def test_mutation_graph_validates_over_small_primes(entries, sym, p):
    A = build_algebra(cartan_data(entries, sym), field=PrimeField(p))
    W = enumerate_weyl(A.data.cartan)
    graph = mutation_graph(IdealSemigroup(A, W), validate="all")
    assert len(graph.nodes) == W.order


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


def test_semigroup_memos_are_bounded():
    """A B4 ``stt`` computes at most 151 left steps for its 383 extensions,
    one per distinct (i, blocks at the neighbours of i); the ascent check
    I_u I_i = I_{u s_i} memoizes at most one right step per (block, i)."""
    A = build_algebra(cartan_data(B4, "minimal"))
    W = enumerate_weyl(A.data.cartan)
    ctx = IdealSemigroup(A, W)
    mutation_graph(ctx, validate="none")
    table = ctx.table
    assert 0 < len(table.left) <= 151
    for u in W:
        for i in range(1, A.n + 1):
            v = W.right_mul(u, i)
            if v.length > u.length:
                assert extend_right(ctx.of_element(u), i) == \
                    ctx.of_element(v)
    assert 0 < len(table.right) <= len(table.rows) * A.n


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
            r = _rank_vector(entries, w.word, i)
            assert [full[i - 1][j] - sub[j] for j in range(A.n)] == \
                [d[j + 1] * r[j] for j in range(A.n)], (w.word, i)
