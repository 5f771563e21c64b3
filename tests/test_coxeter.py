import itertools
import math
import random

import pytest

from preproj.cartan import validate_cartan
from preproj.coxeter import (
    _identity,
    _mat_mul,
    _reflect_cols,
    _reflect_rows,
    all_reduced_words,
    coxeter_order,
    demazure_product,
    enumerate_weyl,
    simple_reflection_matrix,
)
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
                prod = _mat_mul(simple_reflection_matrix(c, i),
                                simple_reflection_matrix(c, j))
                power = prod
                first = None
                for k in range(1, 7):
                    if power == _identity(c.n):
                        first = k
                        break
                    power = _mat_mul(power, prod)
                if m is math.inf:
                    assert first is None
                else:
                    assert first == m


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
            assert w.word == min(words)
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
        matrices = {w.matrix for w in group}
        words = {w.word for w in group}
        assert len(matrices) == len(words) == group.order


def test_words_reduce_to_canonical_rank2():
    # every word of length <= 6 multiplies out to an enumerated element of
    # no greater length; words achieving the length are reduced expressions
    for c in (A2, B2):
        group = enumerate_weyl(c)
        for k in range(7):
            for word in itertools.product((1, 2), repeat=k):
                w = group.from_word(word)
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
    s1s2 = group.from_word((1, 2))
    got = demazure_product(group, s1s2, group.simple(1))
    assert got == group.from_word((1, 2, 1))


def test_demazure_associative():
    for c in (A2, B2, G2):
        group = enumerate_weyl(c)
        els = group.sorted_elements()
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
        els = group.sorted_elements()
        for _ in range(200):
            u, v, w = (rng.choice(els) for _ in range(3))
            left = demazure_product(group, demazure_product(group, u, v), w)
            right = demazure_product(group, u, demazure_product(group, v, w))
            assert left == right


@pytest.mark.parametrize("c, order", [(G2, 12), (B4, 384), (D4, 192),
                                      (AFF, None)],
                         ids=["g2", "b4", "d4", "affine-ball"])
def test_row_and_column_updates_match_matrix_products(c, order):
    """sigma_i* w and w sigma_i* by one row or column update equal the
    full matrix products, for every element w and generator i."""
    group = enumerate_weyl(c, max_length=None if order else 6)
    assert group.order == (order or 13)
    for w in group:
        for i in range(1, c.n + 1):
            s = simple_reflection_matrix(c, i)
            col = tuple(c[r, i] for r in range(1, c.n + 1))
            left = _mat_mul(s, w.matrix)
            right = _mat_mul(w.matrix, s)
            assert _reflect_rows(w.matrix, col, i - 1) == left
            assert _reflect_cols(w.matrix, col, i - 1) == right
            if order:
                assert group.left_mul(i, w).matrix == left
                assert group.right_mul(w, i).matrix == right
