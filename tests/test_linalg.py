from fractions import Fraction

from preproj.fields import QQ, PrimeField
from preproj.linalg import Subspace, rref


def _assert_exact(row):
    for x in row:
        assert type(x) in (int, Fraction), (x, type(x))


def test_rref_non_unit_pivot_is_exact():
    rows, pivots = rref([[2, 1]], 2, QQ)
    assert pivots == [0]
    assert rows == [[1, Fraction(1, 2)]]
    _assert_exact(rows[0])
    assert type(rows[0][1]) is Fraction


def test_subspace_add_non_unit_pivot_is_exact():
    s = Subspace(2, QQ)
    assert s.add([2, 1])
    assert s.rows == [[1, Fraction(1, 2)]]
    _assert_exact(s.rows[0])
    assert type(s.rows[0][1]) is Fraction
    assert s.contains([4, 2]) and not s.contains([1, 1])


def test_unit_pivots_keep_int_rows():
    rows, _ = rref([[-1, 3, 0], [0, 1, -2]], 3, QQ)
    assert rows == [[1, 0, -6], [0, 1, -2]]
    assert all(type(x) is int for r in rows for x in r)


def test_rref_over_prime_field_scales_by_inverse():
    F = PrimeField(7)
    rows, _ = rref([[F.from_int(3), F.from_int(1)]], 2, F)
    assert rows == [[F.one, F.from_int(5)]]  # 3^{-1} = 5 mod 7
