"""The Weyl group W(C) as the orbit of rho = (1, ..., 1).

An element is its weight w(rho) in fundamental-weight coordinates, faithful
as rho is regular; lam_i < 0 exactly when i is a left descent.  The
generator sigma_i* acts on a weight by ``_step``, lam -> lam - lam_i alpha_i,
and the layer builds no matrices: ``sigma_order`` too steps rho.  The BFS
records every s_i w, so ``left_mul`` is a lookup and ``right_mul`` reads a
table filled from these steps.  ``word`` reads the lex-least reduced word off
the weight, a smallest left descent at a time: a tuple of generator indices
(1-based), read left to right, (i, j) meaning s_i s_j.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field

from .cartan import CartanMatrix, find_symmetrizer, is_dynkin
from .errors import CapExceeded


def _step(lam, col, i):
    """s_i lam = lam - lam_i alpha_i, for ``col`` = alpha_i = column i of C."""
    li = lam[i]
    return tuple([x - li * c for x, c in zip(lam, col)])


def _cartan_columns(c: CartanMatrix):
    return [tuple(c[r, i] for r in range(1, c.n + 1))
            for i in range(1, c.n + 1)]


def coxeter_order(c: CartanMatrix, i: int, j: int):
    """Order of s_i s_j: 2, 3, 4, 6 for c_ij c_ji = 0, 1, 2, 3; inf beyond."""
    assert i != j
    prod = c[i, j] * c[j, i]
    return {0: 2, 1: 3, 2: 4, 3: 6}.get(prod, math.inf)


def sigma_order(c: CartanMatrix, i: int, j: int):
    """The least m <= 6 with (sigma_i* sigma_j*)^m = 1, else None: 6 is the
    largest finite m_ij.  W acts freely on the orbit of the regular weight
    rho, so the order of sigma_i* sigma_j* is its order on rho."""
    cols = _cartan_columns(c)
    rho = lam = (1,) * c.n
    for m in range(1, 7):
        lam = _step(_step(lam, cols[j - 1], j - 1), cols[i - 1], i - 1)
        if lam == rho:
            return m
    return None


def weyl_order(c: CartanMatrix) -> int:
    """|W(C)| for C of finite type (elsewhere the orbits are infinite):
    W(C') fixes omega_n, C' dropping vertex n, so |W(C)| = |W(C) omega_n|
    |W(C')|."""
    cols = _cartan_columns(c)
    order = 1
    for n in range(c.n, 0, -1):
        orbit = {(0,) * (n - 1) + (1,)}
        work = list(orbit)
        while work:
            lam = work.pop()
            for i in range(n):
                mu = _step(lam, cols[i][:n], i)
                if mu not in orbit:
                    orbit.add(mu)
                    work.append(mu)
        order *= len(orbit)
    return order


@dataclass(frozen=True, slots=True)
class WeylElement:
    weight: tuple  # w(rho) in fundamental-weight coordinates
    length: int
    index: int = field(compare=False)  # position in the enumeration


def _descent(weight) -> int:
    """The smallest left descent, 0-based: the first lam_i < 0."""
    return next(i for i, x in enumerate(weight) if x < 0)


class WeylGroup:
    """BFS-enumerated group: complete, or a ball when capped or bounded by
    length, whose steps out of the outer layer are None.  Iteration follows
    the enumeration, which is by length, then lex-least word."""

    def __init__(self, cartan: CartanMatrix, elements, left, complete):
        self.cartan = cartan
        self.n = cartan.n
        self.elements = elements  # dict w(rho) -> WeylElement, by index
        self.identity = elements[(1,) * self.n]
        self.complete = complete
        self.sep = "." if self.n >= 10 else ""  # in strings: s_1 s_12 = 1.12
        self._left = left  # s_i w at n * w.index + i - 1
        self._right = None  # w s_i likewise, filled on first use

    @property
    def order(self) -> int:
        return len(self.elements)

    def simple(self, i: int) -> WeylElement:
        return self.left_mul(i, self.identity)

    def left_mul(self, i: int, w: WeylElement) -> WeylElement:
        return self._left[self.n * w.index + i - 1]

    def right_mul(self, w: WeylElement, i: int) -> WeylElement:
        """A lookup in a table filled on first use: e s_j = s_j, and
        x s_j = s_k (p s_j) for x != e with smallest left descent k and
        p = s_k x, which precedes x in the enumeration."""
        n, left, right = self.n, self._left, self._right
        if right is None:
            right = self._right = left[:n]
            for x in itertools.islice(self.elements.values(), 1, None):
                k = _descent(x.weight)
                p = left[n * x.index + k].index
                right.extend(None if y is None else left[n * y.index + k]
                             for y in right[n * p:n * p + n])
        return right[n * w.index + i - 1]

    def word(self, w: WeylElement) -> tuple:
        """The lex-least reduced word: the smallest left descent i of w,
        then the word of s_i w."""
        word = []
        while w.length:
            i = _descent(w.weight)
            word.append(i + 1)
            w = self._left[self.n * w.index + i]
        return tuple(word)

    def word_str(self, w: WeylElement) -> str:
        return self.sep.join(map(str, self.word(w)))

    def word_strings(self) -> list:
        """Every ``word_str``, by index, from the string of s_i w as in
        ``word``: one concatenation per element."""
        strings = [""]
        for w in itertools.islice(self.elements.values(), 1, None):
            i = _descent(w.weight)
            rest = strings[self._left[self.n * w.index + i].index]
            strings.append(f"{i + 1}{self.sep}{rest}" if rest else str(i + 1))
        return strings

    def longest(self) -> WeylElement:
        """The last element, w_0 when the group is complete."""
        return next(reversed(self.elements.values()))

    def __iter__(self):
        return iter(self.elements.values())


def enumerate_weyl(c: CartanMatrix, cap: int = 1_000_000,
                   max_length=None) -> WeylGroup:
    """BFS from the identity over left multiplication by the s_i.

    Raises CapExceeded (with the partial ball attached) once more than
    ``cap`` elements appear, unless ``max_length`` bounds the radius, in
    which case the truncated ball is returned with ``complete=False``.
    """
    n = c.n
    cols = _cartan_columns(c)
    e = WeylElement((1,) * n, 0, 0)
    elements = {e.weight: e}
    left = []
    frontier = [e]
    while frontier:
        outer = max_length is not None and frontier[0].length >= max_length
        new = {}
        steps = [None] * (n * len(frontier))
        # generator loop outermost: the first discovery of an element uses its
        # smallest left descent, so each layer comes in lex-least word order
        for i in range(n):
            for k, w in enumerate(frontier):
                mu = _step(w.weight, cols[i], i)
                v = elements.get(mu) or new.get(mu)
                if v is None and not outer:
                    v = new[mu] = WeylElement(mu, w.length + 1,
                                              len(elements) + len(new))
                steps[n * k + i] = v
        if len(elements) + len(new) > cap:
            message = (f"Weyl group of order {weyl_order(c)} exceeds cap {cap}"
                       if is_dynkin(c, find_symmetrizer(c)) else
                       f"Weyl group exceeds cap {cap}; C is likely non-Dynkin")
            # the partial ball keeps the frontier's steps into the ball only
            left.extend(v if v.index < len(elements) else None for v in steps)
            raise CapExceeded(message,
                              partial=WeylGroup(c, elements, left, False))
        left.extend(steps)
        if outer:
            return WeylGroup(c, elements, left, False)
        elements.update(new)
        frontier = list(new.values())
    return WeylGroup(c, elements, left, True)

