from fractions import Fraction

import pytest

from preproj.errors import FieldDegenerate, ValidationError
from preproj.fields import QQ, FpElement, PrimeField, field_from_spec


def test_rationals():
    total = QQ.from_int(3) * QQ.inv(QQ.from_int(2)) + QQ.one
    assert type(total) is Fraction and total == Fraction(5, 2)
    assert not QQ.zero
    assert QQ.one


def test_rational_scalars_stay_int_until_a_non_unit_division():
    assert type(QQ.zero) is int and type(QQ.one) is int
    assert type(QQ.from_int(-4)) is int
    for unit in (1, -1):
        inv = QQ.inv(QQ.from_int(unit))
        assert type(inv) is int and inv == unit
    assert QQ.inv(Fraction(2, 3)) == Fraction(3, 2)
    with pytest.raises(TypeError):
        QQ.from_int(2.5)
    with pytest.raises(FieldDegenerate):
        QQ.inv(QQ.zero)


def test_fp_arithmetic():
    F = PrimeField(7)
    a = F.from_int(3)
    b = F.from_int(5)
    assert a + b == F.from_int(1)
    assert a * b == F.from_int(1)
    assert -a == F.from_int(4)
    assert a / b == a * F.from_int(3)  # 5^{-1} = 3 mod 7
    assert (a - a) == F.zero
    assert hash(a) == hash(F.from_int(10))


def test_fp_division_by_zero():
    F = PrimeField(101)
    with pytest.raises(FieldDegenerate):
        F.one / F.zero


def test_fp_inv():
    F = PrimeField(7)
    assert F.inv(F.from_int(5)) == F.from_int(3)
    with pytest.raises(FieldDegenerate):
        F.inv(F.zero)


def test_prime_validation():
    with pytest.raises(ValidationError):
        PrimeField(6)
    with pytest.raises(ValidationError):
        PrimeField(1)


def test_field_from_spec():
    assert field_from_spec(None) is not None
    assert field_from_spec("rational").kind == "rational"
    assert field_from_spec("fp:101").p == 101
    assert field_from_spec({"type": "prime", "p": 13}).p == 13
    for bad in ("fp:abc", "float", {"type": "prime"}, {"type": "real"}, 5):
        with pytest.raises(ValidationError):
            field_from_spec(bad)


def test_fp_element_int_compare():
    F = PrimeField(5)
    assert F.from_int(7) == 2
    assert FpElement(4, 5) != FpElement(4, 7)
