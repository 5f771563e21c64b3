import time
from fractions import Fraction

import pytest

from preproj.errors import FieldDegenerate, ValidationError
from preproj.fields import QQ, PrimeField, field_from_spec


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
    """F_p scalars are plain ints in range(p); from_int reduces."""
    F = PrimeField(7)
    assert type(F.zero) is int and type(F.one) is int
    assert (F.zero, F.one) == (0, 1)
    assert F.characteristic == 7 and QQ.characteristic == 0
    for k in range(-20, 21):
        r = F.from_int(k)
        assert type(r) is int and r in range(7) and (r - k) % 7 == 0
    assert F.from_int(-3) == 4
    assert F.from_int(10) == F.from_int(3) == 3
    assert F.inv(5) == 3  # 5 * 3 = 15 = 1 mod 7
    assert all(a * F.inv(a) % 7 == 1 for a in range(1, 7))


def test_fp_division_by_zero():
    F = PrimeField(7)
    for zero in (F.zero, 7, -14):
        with pytest.raises(FieldDegenerate):
            F.inv(zero)


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
    for bad in (7.0, "7", True, [7]):
        with pytest.raises(ValidationError):
            PrimeField(bad)


def test_large_primes_are_decided_at_once():
    """Miller-Rabin decides a 61-bit prime and a product of two 30-bit
    primes at once, and a p past its exact range is refused."""
    start = time.perf_counter()
    for p in (2 ** 61 - 1, 10 ** 18 + 3):
        assert PrimeField(p).characteristic == p
    with pytest.raises(ValidationError, match="not prime"):
        PrimeField(1000000007 * 998244353)
    # the smallest composite that passes every prime base up to 37
    with pytest.raises(ValidationError, match="not prime"):
        PrimeField(318665857834031151167461)
    assert time.perf_counter() - start < 0.5
    # 2^89 - 1 is prime, and past the bound 3.3 * 10^24
    with pytest.raises(ValidationError, match="must be below"):
        PrimeField(2 ** 89 - 1)


def test_field_from_spec():
    assert field_from_spec(None) is not None
    assert field_from_spec("rational").kind == "rational"
    assert field_from_spec("fp:101").p == 101
    assert field_from_spec({"type": "prime", "p": 13}).p == 13
    for bad in ("fp:abc", "float", {"type": "prime"}, {"type": "real"}, 5,
                {"type": "prime", "p": 2.5}, {"type": "prime", "p": "7"}):
        with pytest.raises(ValidationError):
            field_from_spec(bad)


@pytest.mark.parametrize("spec, message", [
    ("fp:6", "6 is not prime"), ("fp:x", "bad field spec 'fp:x'")])
def test_field_spec_says_why_p_is_refused(spec, message):
    """Only a p that is not an integer is a bad spec; an integer that is
    not a usable prime gets ``PrimeField``'s own reason."""
    with pytest.raises(ValidationError) as err:
        field_from_spec(spec)
    assert str(err.value) == message


def test_fp_element_int_compare():
    """from_int takes integers only, like QQ.from_int."""
    F = PrimeField(5)
    assert F.from_int(7) == 2
    assert F.from_int(True) == 1
    for bad in (2.5, "3", None):
        with pytest.raises(TypeError):
            F.from_int(bad)
    assert PrimeField(5) == F and PrimeField(7) != F
