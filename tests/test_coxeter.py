import itertools
import math
import random

import pytest
from oracles import (
    _identity,
    _mat_mul,
    all_reduced_words,
    demazure_product,
    from_word,
    simple_reflection_matrix,
    weyl_matrix,
)

from preproj.cartan import validate_cartan
from preproj.coxeter import (coxeter_order, enumerate_weyl, sigma_order,
                             weyl_order)
from preproj.errors import CapExceeded

A2 = validate_cartan([[2, -1], [-1, 2]])
B2 = validate_cartan([[2, -1], [-2, 2]])
G2 = validate_cartan([[2, -1], [-3, 2]])
AFF = validate_cartan([[2, -2], [-2, 2]])
A3 = validate_cartan([[2, -1, 0], [-1, 2, -1], [0, -1, 2]])
B3 = validate_cartan([[2, -1, 0], [-1, 2, -1], [0, -2, 2]])
B4 = validate_cartan([[2, -1, 0, 0], [-1, 2, -1, 0], [0, -1, 2, -1],
                      [0, 0, -2, 2]])
D4 = validate_cartan([[2, -1, 0, 0], [-1, 2, -1, -1], [0, -1, 2, 0],
                      [0, -1, 0, 2]])
F4 = validate_cartan([[2, -1, 0, 0], [-1, 2, -2, 0], [0, -1, 2, -1],
                      [0, 0, -1, 2]])


def _type_e(n):
    """E_n in Bourbaki's labelling: the path 1-3-4-...-n, and 2-4."""
    edges = [(1, 3), (2, 4)] + [(k, k + 1) for k in range(3, n)]
    rows = [[2 if i == j else 0 for j in range(n)] for i in range(n)]
    for i, j in edges:
        rows[i - 1][j - 1] = rows[j - 1][i - 1] = -1
    return validate_cartan(rows)


E6, E7, E8 = _type_e(6), _type_e(7), _type_e(8)


def test_simple_reflection_examples():
    # alpha_1* -> -alpha_1* + alpha_2*, alpha_2* fixed
    assert simple_reflection_matrix(A2, 1) == ((-1, 0), (1, 1))
    # B2, i=2: alpha_2* -> alpha_1* - alpha_2*, alpha_1* fixed
    assert simple_reflection_matrix(B2, 2) == ((1, 1), (0, -1))


def test_reflections_are_involutions():
    for c in (A2, B2, G2, AFF, A3, B3):
        for i in range(1, c.n + 1):
            m = simple_reflection_matrix(c, i)
            assert _mat_mul(m, m) == _identity(c.n)


def test_coxeter_orders():
    assert coxeter_order(A2, 1, 2) == 3
    assert coxeter_order(B2, 1, 2) == 4
    assert coxeter_order(G2, 1, 2) == 6
    assert coxeter_order(AFF, 1, 2) == math.inf
    assert coxeter_order(A3, 1, 3) == 2


def test_orders_are_exact_on_matrices():
    # (sigma_i sigma_j)^m = 1 with m minimal
    for c in (A2, B2, G2, A3, B3, AFF):
        for i in range(1, c.n + 1):
            for j in range(1, c.n + 1):
                if i == j:
                    continue
                m = coxeter_order(c, i, j)
                assert sigma_order(c, i, j) == (None if m is math.inf else m)


C2_AFFINE = validate_cartan([[2, -1, 0], [-2, 2, -2], [0, -1, 2]])


def _matrix_order(m, bound=12):
    """The least k <= bound with m^k = 1, else None."""
    one, power = _identity(len(m)), m
    for k in range(1, bound + 1):
        if power == one:
            return k
        power = _mat_mul(power, m)
    return None


@pytest.mark.parametrize("c", [F4, E6, C2_AFFINE,
                               validate_cartan([[2, -3], [-3, 2]]),
                               validate_cartan([[2, -4], [-1, 2]])],
                         ids=["f4", "e6", "c2-affine", "hyperbolic-33",
                              "affine-41"])
def test_sigma_order_matches_the_matrix_oracle(c):
    """``sigma_order``, which steps rho, is the order of the matrix
    sigma_i* sigma_j* on every ordered pair; None where that order is
    infinite (c_ij c_ji >= 4: affine or hyperbolic rank 2)."""
    for i, j in itertools.permutations(range(1, c.n + 1), 2):
        prod = _mat_mul(simple_reflection_matrix(c, i),
                        simple_reflection_matrix(c, j))
        want = _matrix_order(prod)
        assert sigma_order(c, i, j) == want
        assert (want is None) == (c[i, j] * c[j, i] >= 4)


def test_enumeration_counts():
    assert enumerate_weyl(A2).order == 6      # symmetric group S_3
    assert enumerate_weyl(B2).order == 8      # dihedral of order 8
    assert enumerate_weyl(G2).order == 12     # dihedral of order 12
    assert enumerate_weyl(A3).order == 24     # symmetric group S_4
    assert enumerate_weyl(B3).order == 48     # hyperoctahedral 2^3 * 3!


def test_affine_cap_and_ball():
    with pytest.raises(CapExceeded) as exc:
        enumerate_weyl(AFF, cap=100)
    assert exc.value.partial is not None
    assert not exc.value.partial.complete
    ball = enumerate_weyl(AFF, max_length=8)
    assert ball.order == 17  # identity plus two elements per length 1..8
    assert not ball.complete
    by_len = {}
    for w in ball:
        by_len[w.length] = by_len.get(w.length, 0) + 1
    assert by_len == {0: 1, **{l: 2 for l in range(1, 9)}}


def test_canonical_words_are_lex_least():
    for c in (A2, B2, G2, A3):
        group = enumerate_weyl(c)
        for w in group:
            words = all_reduced_words(group, w)
            assert group.word(w) == min(words)
            assert all(len(word) == w.length for word in words)


def test_all_reduced_words_examples():
    g = enumerate_weyl(A2)
    assert all_reduced_words(g, g.identity) == {()}
    assert all_reduced_words(g, g.longest()) == {(1, 2, 1), (2, 1, 2)}
    g2 = enumerate_weyl(B2)
    assert all_reduced_words(g2, g2.longest()) == {(1, 2, 1, 2), (2, 1, 2, 1)}


def test_injectivity_of_representation():
    for c in (A2, B2, G2, A3, B3):
        group = enumerate_weyl(c)
        matrices = {weyl_matrix(group, w) for w in group}
        weights = {w.weight for w in group}
        words = {group.word(w) for w in group}
        assert len(matrices) == len(weights) == len(words) == group.order


def test_iteration_order_is_stable():
    """Iteration is the enumeration itself, which is already by length,
    then lex-least word."""
    for c in (B3, F4, E6):
        group = enumerate_weyl(c)
        first = list(group)
        assert list(group) == first
        assert [w.index for w in first] == list(range(group.order))
        keys = [(w.length, group.word(w)) for w in first]
        assert keys == sorted(keys)


@pytest.mark.parametrize("c", [B3, G2], ids=["b3", "g2"])
def test_from_word_finds_the_element_of_every_reduced_word(c):
    group = enumerate_weyl(c)
    for w in group:
        for word in all_reduced_words(group, w):
            assert from_word(group, word) is w


def test_weights_read_left_descents():
    """lam_i < 0 for lam = w(rho) exactly when l(s_i w) < l(w)."""
    for c in (B3, G2, D4):
        group = enumerate_weyl(c)
        for w in group:
            for i in range(1, c.n + 1):
                shorter = group.left_mul(i, w).length < w.length
                assert (w.weight[i - 1] < 0) == shorter


@pytest.mark.parametrize("c, order", [
    (A2, 6), (B4, 384), (F4, 1152), (E6, 51_840), (E7, 2_903_040),
    (E8, 696_729_600)], ids=["a2", "b4", "f4", "e6", "e7", "e8"])
def test_weyl_order_by_orbit_recursion(c, order):
    assert weyl_order(c) == order
    if order <= 1152:
        assert enumerate_weyl(c).order == order


def test_cap_message_names_the_order_of_a_finite_group():
    with pytest.raises(CapExceeded) as exc:
        enumerate_weyl(E7, cap=1000)
    assert str(exc.value) == "Weyl group of order 2903040 exceeds cap 1000"
    assert exc.value.partial.order <= 1000
    with pytest.raises(CapExceeded, match="; C is likely non-Dynkin$"):
        enumerate_weyl(AFF, cap=100)


def test_words_reduce_to_canonical_rank2():
    # every word of length <= 6 multiplies out to an enumerated element of
    # no greater length; words achieving the length are reduced expressions
    for c in (A2, B2):
        group = enumerate_weyl(c)
        for k in range(7):
            for word in itertools.product((1, 2), repeat=k):
                w = from_word(group, word)
                assert w.length <= len(word)
                if w.length == len(word):
                    assert word in all_reduced_words(group, w)


def test_demazure_idempotent_and_absorbing():
    for c in (A2, B2):
        group = enumerate_weyl(c)
        for i in range(1, 3):
            s = group.simple(i)
            assert demazure_product(group, s, s) == s
        w0 = group.longest()
        for v in group:
            assert demazure_product(group, w0, v) == w0
            assert demazure_product(group, v, w0) == w0


def test_demazure_length_increase():
    group = enumerate_weyl(A2)
    s1s2 = from_word(group, (1, 2))
    got = demazure_product(group, s1s2, group.simple(1))
    assert got == from_word(group, (1, 2, 1))


def test_demazure_associative():
    for c in (A2, B2, G2):
        group = enumerate_weyl(c)
        els = list(group)
        for u in els:
            for v in els:
                uv = demazure_product(group, u, v)
                for w in els:
                    left = demazure_product(group, uv, w)
                    right = demazure_product(group, u,
                                             demazure_product(group, v, w))
                    assert left == right
    rng = random.Random(0)
    for c in (A3, B3):
        group = enumerate_weyl(c)
        els = list(group)
        for _ in range(200):
            u, v, w = (rng.choice(els) for _ in range(3))
            left = demazure_product(group, demazure_product(group, u, v), w)
            right = demazure_product(group, u, demazure_product(group, v, w))
            assert left == right


@pytest.mark.parametrize("c, bounds, order", [
    (G2, {}, 12), (B4, {}, 384), (D4, {}, 192), (F4, {}, 1152),
    (AFF, {"max_length": 6}, 13), (F4, {"max_length": 6}, 139),
    (B3, {"cap": 40}, 39)],
    ids=["g2", "b4", "d4", "f4", "affine-ball", "f4-ball", "b3-capped"])
def test_row_and_column_updates_match_matrix_products(c, bounds, order):
    """s_i w by ``left_mul`` and w s_i by ``right_mul``, both table
    lookups, have the matrices sigma_i* w and w sigma_i*, for every element
    w and generator i.  On a ball, bounded by length or cut by the cap, a
    product outside the ball is None, also on the outer layer."""
    try:
        group = enumerate_weyl(c, **bounds)
    except CapExceeded as exc:
        group = exc.partial
    assert group.order == order
    assert group.complete == (not bounds)
    matrices = [weyl_matrix(group, w) for w in group]
    by_matrix = dict(zip(matrices, group))
    for w in group:
        for i in range(1, c.n + 1):
            s = simple_reflection_matrix(c, i)
            left = _mat_mul(s, matrices[w.index])
            right = _mat_mul(matrices[w.index], s)
            assert group.left_mul(i, w) is by_matrix.get(left)
            assert group.right_mul(w, i) is by_matrix.get(right)
