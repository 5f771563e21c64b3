import itertools
import random
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from preproj.fields import QQ, PrimeField
from preproj.linalg import Matrix, Subspace, nullspace, rref


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


@st.composite
def small_fp_matrices(draw):
    p = draw(st.sampled_from([5, 7]))
    nrows = draw(st.integers(0, 4))
    ncols = draw(st.integers(1, 4))
    rows = draw(st.lists(st.lists(st.integers(0, p - 1), min_size=ncols,
                                  max_size=ncols),
                         min_size=nrows, max_size=nrows))
    return p, rows, ncols


@given(small_fp_matrices())
def test_rref_over_small_prime_fields(case):
    """rref over F_p: reduced int rows, monic pivots, cleared pivot columns,
    every input row in the span, rank equal to log_p |row span|, nullspace
    vectors annihilated; ``Subspace`` echelonizes to the same rows and
    expresses each input row by reduced coefficients; mul, add and scale
    agree with sums taken mod p."""
    p, rows, ncols = case
    F = PrimeField(p)
    out, pivots = rref(rows, ncols, F)
    assert len(out) == len(pivots)
    assert pivots == sorted(set(pivots))
    for row, pc in zip(out, pivots):
        assert all(type(x) is int and 0 <= x < p for x in row)
        assert row[pc] == 1 and not any(row[:pc])
    for pc_i, (_, pc) in enumerate(zip(out, pivots)):
        assert [r[pc] for r in out] == [int(k == pc_i) for k in range(len(out))]
    for vec in rows:
        residue = list(vec)
        for row, pc in zip(out, pivots):
            c = residue[pc]
            residue = [(a - c * b) % p for a, b in zip(residue, row)]
        assert not any(residue)
    space = Subspace.span(rows, ncols, F)
    assert space.rows == out and space.pivots == pivots
    for vec in rows:
        coeffs = space.express(vec)
        assert all(type(c) is int and 0 <= c < p for c in coeffs)
        assert [sum(c * r[j] for c, r in zip(coeffs, out)) % p
                for j in range(ncols)] == vec
    span = {tuple(sum(c * r[j] for c, r in zip(coeffs, rows)) % p
                  for j in range(ncols))
            for coeffs in itertools.product(range(p), repeat=len(rows))}
    assert len(span) == p ** len(pivots)
    m = Matrix.from_rows(rows, ncols, F)
    gram = m.mul(Matrix.from_cols(m.rows, m.ncols, F))
    assert gram.rows == [[sum(a * b for a, b in zip(r1, r2)) % p for r2 in rows]
                         for r1 in rows]
    kernel = nullspace(m)
    assert len(kernel) == ncols - len(pivots)
    for v in kernel:
        assert all(type(x) is int and 0 <= x < p for x in v)
        assert not any(m.vec(v))


@pytest.mark.parametrize("field", [QQ, PrimeField(2), PrimeField(3),
                                   PrimeField(101)],
                         ids=["qq", "f2", "f3", "f101"])
def test_express_recombines_the_rows(field):
    """``express`` gives coefficients that recombine the echelon rows into
    a vector of the span, and None for a vector off it.  Over QQ the
    spanning rows have non-unit pivots, so the echelon rows carry
    ``Fraction`` entries."""
    p = field.characteristic
    rng = random.Random(p)
    rows = [[2, 1, 0, 1, 3], [0, 3, 1, 5, 0], [1, 0, 0, 2, 1]]
    if p:
        rows = [[x % p for x in r] for r in rows]
    space = Subspace.span(rows, 5, field)
    assert space.dim == 3
    if not p:
        assert any(type(x) is Fraction for r in space.rows for x in r)
    for _ in range(20):
        mix = [rng.randint(-5, 5) for _ in space.rows]
        vec = [sum(c * r[j] for c, r in zip(mix, space.rows))
               for j in range(5)]
        if p:
            vec = [x % p for x in vec]
        coeffs = space.express(vec)
        assert coeffs is not None and len(coeffs) == space.dim
        again = [sum(c * r[j] for c, r in zip(coeffs, space.rows))
                 for j in range(5)]
        assert ([x % p for x in again] if p else again) == vec
        off = list(vec)
        free = next(j for j in range(5) if j not in space.pivots)
        off[free] = (off[free] + 1) % p if p else off[free] + 1
        assert space.express(off) is None


def _row_sum_vec(m, v):
    """Oracle for ``Matrix.vec``: every row summed over every entry of v."""
    p = m.field.characteristic
    out = [sum((r[j] * v[j] for j in range(m.ncols)), m.field.zero)
           for r in m.rows]
    return [x % p for x in out] if p else out


@pytest.mark.parametrize("field", [QQ, PrimeField(7)], ids=["qq", "f7"])
def test_sparse_vec_matches_the_row_sum(field):
    """``vec`` sums over the nonzero entries of v only, and equals the
    full row sum: over QQ with ``Fraction`` entries, over F_p reduced into
    range(p); for an all-zero v and for empty shapes too."""
    p = field.characteristic
    rng = random.Random(0)

    def scalar(density):
        if rng.random() >= density:
            return field.zero
        if p:
            return rng.randrange(p)
        return Fraction(rng.randint(-4, 4), rng.randint(1, 3))

    for nrows, ncols in [(0, 0), (0, 3), (3, 0), (1, 1), (4, 5), (7, 7)]:
        for density in (0.0, 0.1, 0.5, 1.0):
            m = Matrix([[scalar(0.6) for _ in range(ncols)]
                        for _ in range(nrows)], nrows, ncols, field)
            v = [scalar(density) for _ in range(ncols)]
            got = m.vec(v)
            assert got == _row_sum_vec(m, v)
            assert len(got) == nrows
            if p:
                assert all(type(x) is int and 0 <= x < p for x in got)
            else:
                _assert_exact(got)
            if not any(v):
                assert not any(got)
