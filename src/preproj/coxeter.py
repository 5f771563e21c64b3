"""The Weyl group W(C) through its contragredient integer representation.

Elements are keyed by the matrix of their action on V* in the basis
alpha_1*, ..., alpha_n*; by injectivity of the geometric representation
this is a faithful canonical key.  Words are tuples of generator indices
(1-based), read left to right: (i, j) means s_i s_j.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .cartan import CartanMatrix
from .errors import CapExceeded


def _mat_mul(a, b):
    n = len(a)
    return tuple(
        tuple(sum(a[i][k] * b[k][j] for k in range(n)) for j in range(n))
        for i in range(n))


def _identity(n):
    return tuple(tuple(1 if i == j else 0 for j in range(n)) for i in range(n))


def _reflect_rows(m, col, i):
    """sigma_i* m, for ``col`` column i of C (0-based i): row r != i becomes
    row r - c_ri row i, and row i becomes -row i."""
    pivot = m[i]
    return tuple(
        tuple(-x for x in pivot) if r == i
        else tuple(x - c * y for x, y in zip(row, pivot)) if c else row
        for r, (row, c) in enumerate(zip(m, col)))


def _reflect_cols(m, col, i):
    """m sigma_i*, for ``col`` column i of C (0-based i): column i becomes
    col_i - sum_l c_li col_l, and the other columns stay."""
    return tuple(
        row[:i] + (row[i] - sum(c * x for c, x in zip(col, row)),)
        + row[i + 1:]
        for row in m)


def _cartan_columns(c: CartanMatrix):
    return [tuple(c[r, i] for r in range(1, c.n + 1))
            for i in range(1, c.n + 1)]


def simple_reflection_matrix(c: CartanMatrix, i: int):
    """Matrix of sigma_i* : alpha_i* -> alpha_i* - sum_j c_ji alpha_j*."""
    n = c.n
    assert 1 <= i <= n
    cols = []
    for l in range(1, n + 1):
        if l != i:
            cols.append(tuple(1 if r == l else 0 for r in range(1, n + 1)))
        else:
            cols.append(tuple((1 if r == i else 0) - c[r, i]
                              for r in range(1, n + 1)))
    # stored row-major
    return tuple(tuple(cols[j][r] for j in range(n)) for r in range(n))


def coxeter_order(c: CartanMatrix, i: int, j: int):
    """Order of s_i s_j: 2, 3, 4, 6 for c_ij c_ji = 0, 1, 2, 3; inf beyond."""
    assert i != j
    prod = c[i, j] * c[j, i]
    return {0: 2, 1: 3, 2: 4, 3: 6}.get(prod, math.inf)


@dataclass(frozen=True)
class WeylElement:
    matrix: tuple
    length: int
    word: tuple  # lexicographically least reduced word

    def __repr__(self):
        w = "".join(str(i) for i in self.word) or "e"
        return f"w{w}"


class WeylGroup:
    """BFS-enumerated group (complete, or a ball when capped)."""

    def __init__(self, cartan: CartanMatrix, elements, generators, complete):
        self.cartan = cartan
        self.n = cartan.n
        self.elements = elements  # dict matrix -> WeylElement
        self.generators = generators  # list of n matrices
        self.complete = complete
        self._columns = _cartan_columns(cartan)

    @property
    def order(self) -> int:
        return len(self.elements)

    @property
    def identity(self) -> WeylElement:
        return self.elements[_identity(self.n)]

    def simple(self, i: int) -> WeylElement:
        return self.elements[self.generators[i - 1]]

    def left_mul(self, i: int, w: WeylElement) -> WeylElement:
        m = _reflect_rows(w.matrix, self._columns[i - 1], i - 1)
        return self.elements[m]

    def right_mul(self, w: WeylElement, i: int) -> WeylElement:
        m = _reflect_cols(w.matrix, self._columns[i - 1], i - 1)
        return self.elements[m]

    def from_word(self, word) -> WeylElement:
        m = _identity(self.n)
        for i in word:
            m = _reflect_cols(m, self._columns[i - 1], i - 1)
        return self.elements[m]

    def longest(self) -> WeylElement:
        return max(self.elements.values(), key=lambda w: (w.length, w.word))

    def sorted_elements(self):
        return sorted(self.elements.values(), key=lambda w: (w.length, w.word))

    def __iter__(self):
        return iter(self.sorted_elements())

    def __len__(self):
        return len(self.elements)


def enumerate_weyl(c: CartanMatrix, cap: int = 1_000_000,
                   max_length=None) -> WeylGroup:
    """BFS from the identity over left multiplication by the s_i.

    Raises CapExceeded (with the partial ball attached) once more than
    ``cap`` elements appear, unless ``max_length`` bounds the radius, in
    which case the truncated ball is returned with ``complete=False``.
    """
    n = c.n
    gens = [simple_reflection_matrix(c, i) for i in range(1, n + 1)]
    cols = _cartan_columns(c)
    ide = _identity(n)
    elements = {ide: WeylElement(ide, 0, ())}
    frontier = [elements[ide]]
    depth = 0
    truncated = False
    while frontier:
        if max_length is not None and depth >= max_length:
            truncated = True
            break
        new = {}
        # generator loop outermost: the first discovery of an element uses the
        # smallest left descent, which yields the lex-least reduced word
        for i in range(1, n + 1):
            for w in frontier:
                m = _reflect_rows(w.matrix, cols[i - 1], i - 1)
                if m in elements or m in new:
                    continue
                new[m] = WeylElement(m, depth + 1, (i,) + w.word)
        if len(elements) + len(new) > cap:
            partial = WeylGroup(c, elements, gens, False)
            raise CapExceeded(
                f"Weyl group exceeds cap {cap}; C is likely non-Dynkin",
                partial=partial)
        elements.update(new)
        frontier = [new[m] for m in new]
        depth += 1
    return WeylGroup(c, elements, gens, not truncated)


def all_reduced_words(group: WeylGroup, w: WeylElement, _memo=None):
    """Every reduced expression, via words(w) = U_i {i . words(s_i w)}."""
    if _memo is None:
        _memo = {}
    if w.length == 0:
        return {()}
    if w.matrix in _memo:
        return _memo[w.matrix]
    words = set()
    for i in range(1, group.n + 1):
        v = group.left_mul(i, w)
        if v.length < w.length:
            for tail in all_reduced_words(group, v, _memo):
                words.add((i,) + tail)
    _memo[w.matrix] = words
    return words


def demazure_product(group: WeylGroup, u: WeylElement, v: WeylElement) -> WeylElement:
    """0-Hecke product: fold u * s_i = u s_i if the length grows, else u."""
    cur = u
    for i in v.word:
        cand = group.right_mul(cur, i)
        if cand.length > cur.length:
            cur = cand
    return cur
