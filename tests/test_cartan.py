import random

import pytest

from conftest import brute_minimal_symmetrizer
from preproj.cartan import (
    cartan_data,
    default_orientation,
    double_quiver,
    dynkin_components,
    find_symmetrizer,
    gram_matrix,
    is_dynkin,
    validate_cartan,
    validate_orientation,
)
from preproj.errors import (
    AsymmetricZeroPattern,
    DiagonalNotTwo,
    NoSymmetrizer,
    NotASymmetrizer,
    OrientationError,
    PositivityViolation,
)


def test_validate_examples():
    assert validate_cartan([[2, -1], [-1, 2]]).n == 2
    assert validate_cartan([[2, -1], [-2, 2]]).n == 2
    with pytest.raises(AsymmetricZeroPattern):
        validate_cartan([[2, -1], [0, 2]])


def test_validate_error_classes():
    with pytest.raises(DiagonalNotTwo):
        validate_cartan([[1, -1], [-1, 2]])
    with pytest.raises(PositivityViolation):
        validate_cartan([[2, 1], [1, 2]])


@pytest.mark.parametrize("entries", [None, [2], "A2", 5, [[2, -1], 3]])
def test_validate_needs_a_list_of_rows(entries):
    with pytest.raises(ValueError, match="must be a list of integer rows"):
        validate_cartan(entries)


def test_orientation_pair_on_one_vertex_is_named():
    with pytest.raises(OrientationError, match=r"\[1, 1\]"):
        cartan_data([[2, -1], [-1, 2]], orientation=[[1, 2], [1, 1]])


def test_no_symmetrizer_on_inconsistent_cycle():
    # ratio product around the triangle is 1/8, not 1
    entries = [[2, -1, -2], [-2, 2, -1], [-1, -2, 2]]
    with pytest.raises(NoSymmetrizer):
        validate_cartan(entries)


def test_minimal_symmetrizer_values():
    c = validate_cartan([[2, -1], [-1, 2]])
    assert find_symmetrizer(c).c == (1, 1)
    b2 = validate_cartan([[2, -1], [-2, 2]])
    assert find_symmetrizer(b2).c == (2, 1)
    g2 = validate_cartan([[2, -1], [-3, 2]])
    # oracle: exhaustive search for the componentwise-smallest solution
    assert brute_minimal_symmetrizer([[2, -1], [-3, 2]]) == (3, 1)
    assert find_symmetrizer(g2).c == (3, 1)


def test_minimal_matches_brute_oracle_random():
    rng = random.Random(7)
    for _ in range(25):
        n = rng.randint(1, 4)
        entries = _random_valid_cartan(rng, n)
        got = find_symmetrizer(validate_cartan(entries)).c
        assert got == brute_minimal_symmetrizer(entries, bound=9)


def test_given_symmetrizer_mode():
    c = validate_cartan([[2, -1], [-1, 2]])
    s = find_symmetrizer(c, (2, 2))
    assert s.c == (2, 2) and not s.minimal
    with pytest.raises(NotASymmetrizer):
        find_symmetrizer(c, (1, 2))
    with pytest.raises(NotASymmetrizer):
        find_symmetrizer(c, (0, 1))


def _random_valid_cartan(rng, n):
    # choose the symmetrizer first, then entries c_ij = -d_j r_ij
    d = [rng.randint(1, 3) for _ in range(n)]
    entries = [[2 if i == j else 0 for j in range(n)] for i in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            if rng.random() < 0.6:
                r = rng.randint(1, 2)
                entries[i][j] = -d[j] * r
                entries[j][i] = -d[i] * r
    return entries


def test_minimal_divides_componentwise():
    rng = random.Random(11)
    for _ in range(50):
        n = rng.randint(1, 6)
        entries = _random_valid_cartan(rng, n)
        c = validate_cartan(entries)
        minimal = find_symmetrizer(c).c
        # the generating vector d is itself a symmetrizer
        d = None
        for scale in range(1, 5):
            cand = tuple(m * scale for m in minimal)
            try:
                find_symmetrizer(c, cand)
                d = cand
                break
            except NotASymmetrizer:
                continue
        assert d is not None
        assert all(x % m == 0 for x, m in zip(d, minimal))


def test_default_orientation_examples():
    a2 = validate_cartan([[2, -1], [-1, 2]])
    assert default_orientation(a2).pairs == frozenset({(1, 2)})
    r1 = validate_cartan([[2]])
    assert default_orientation(r1).pairs == frozenset()
    a3 = validate_cartan([[2, -1, 0], [-1, 2, -1], [0, -1, 2]])
    assert default_orientation(a3).pairs == frozenset({(1, 2), (2, 3)})


def test_default_orientation_axioms_random():
    rng = random.Random(3)
    for _ in range(50):
        n = rng.randint(1, 6)
        c = validate_cartan(_random_valid_cartan(rng, n))
        validate_orientation(c, default_orientation(c))


def test_double_quiver_shapes():
    eg1 = cartan_data([[2, -1], [-1, 2]], (2, 2))
    names = [a.name for a in eg1.quiver.arrows]
    assert names == ["eps1", "eps2", "a12", "a21"]
    a12 = eg1.quiver.arrows[2]
    assert (a12.source, a12.target) == (2, 1)

    eg2 = cartan_data([[2, -1], [-2, 2]], (2, 1))
    assert eg2.quiver.fij[(1, 2)] == 1
    assert eg2.quiver.fij[(2, 1)] == 2

    multi = cartan_data([[2, -2], [-2, 2]], (1, 1))
    assert multi.quiver.gij[(1, 2)] == 2
    assert len(multi.quiver.arrow_family(1, 2)) == 2
    assert len(multi.quiver.arrow_family(2, 1)) == 2


def test_gf_product_identity():
    rng = random.Random(5)
    for _ in range(30):
        n = rng.randint(2, 5)
        entries = _random_valid_cartan(rng, n)
        c = validate_cartan(entries)
        d = find_symmetrizer(c)
        q = double_quiver(c, d, default_orientation(c))
        for (i, j), g in q.gij.items():
            assert g * q.fij[(i, j)] == abs(c[i, j])
            assert g * q.fij[(j, i)] == abs(c[j, i])


def test_gram_symmetric():
    rng = random.Random(13)
    for _ in range(30):
        entries = _random_valid_cartan(rng, rng.randint(1, 5))
        c = validate_cartan(entries)
        d = find_symmetrizer(c)
        g = gram_matrix(c, d)
        assert all(g[i][j] == g[j][i] for i in range(c.n) for j in range(c.n))


def test_is_dynkin():
    a2 = validate_cartan([[2, -1], [-1, 2]])
    assert is_dynkin(a2, find_symmetrizer(a2, (2, 2)))
    aff = validate_cartan([[2, -2], [-2, 2]])
    assert not is_dynkin(aff, find_symmetrizer(aff))
    g2 = validate_cartan([[2, -1], [-3, 2]])
    d = find_symmetrizer(g2)
    # oracle: the two leading principal minors of DC = [[6,-3],[-3,2]]
    assert gram_matrix(g2, d) == ((6, -3), (-3, 2))
    assert 6 > 0 and 6 * 2 - 9 > 0
    assert is_dynkin(g2, d)


def test_dynkin_components_mixed():
    # one A2 component and one affine component
    entries = [[2, -1, 0, 0], [-1, 2, 0, 0], [0, 0, 2, -2], [0, 0, -2, 2]]
    c = validate_cartan(entries)
    d = find_symmetrizer(c)
    verdicts = dict((tuple(comp), ok) for comp, ok in dynkin_components(c, d))
    assert verdicts == {(1, 2): True, (3, 4): False}
    assert not is_dynkin(c, d)
