"""Symmetrizable Cartan matrices, symmetrizers, orientations, doubled quivers.

Vertices are labelled 1..n throughout, matching the usual notation for
Cartan data; internal arrays index by ``v - 1``.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd, lcm

from .errors import (
    AsymmetricZeroPattern,
    DiagonalNotTwo,
    NoSymmetrizer,
    NotASymmetrizer,
    OrientationError,
    PositivityViolation,
)


@dataclass(frozen=True)
class CartanMatrix:
    """A validated symmetrizable generalized Cartan matrix."""

    n: int
    entries: tuple  # tuple of tuples of int

    def __getitem__(self, ij):
        i, j = ij
        return self.entries[i - 1][j - 1]

    def neighbors(self, i: int):
        return [j for j in range(1, self.n + 1) if j != i and self[i, j] != 0]

    def components(self):
        """Connected components of the underlying graph, as sorted vertex lists."""
        seen = set()
        comps = []
        for start in range(1, self.n + 1):
            if start in seen:
                continue
            comp = []
            stack = [start]
            seen.add(start)
            while stack:
                v = stack.pop()
                comp.append(v)
                for w in self.neighbors(v):
                    if w not in seen:
                        seen.add(w)
                        stack.append(w)
            comps.append(sorted(comp))
        return comps


@dataclass(frozen=True)
class Symmetrizer:
    """Positive integer diagonal D = diag(c) with D C symmetric."""

    c: tuple  # tuple of int
    minimal: bool = False

    def __getitem__(self, i: int) -> int:
        return self.c[i - 1]


@dataclass(frozen=True)
class Orientation:
    """A subset of ordered pairs satisfying axioms (A1) and (A2)."""

    pairs: frozenset

    def sgn(self, i: int, j: int) -> int:
        if (i, j) in self.pairs:
            return 1
        return -1


@dataclass(frozen=True)
class Arrow:
    index: int
    source: int
    target: int
    is_loop: bool
    i: int  # for a^{(g)}_{ij}: the target family label; for loops, the vertex
    j: int
    g: int
    name: str


@dataclass(frozen=True)
class DoubledQuiver:
    """Loops eps_v plus g_ij arrows j->i for every (i,j) with c_ij < 0."""

    n: int
    arrows: tuple  # tuple of Arrow, in the fixed monomial-order position
    gij: dict  # (i, j) -> g_ij for c_ij < 0
    fij: dict  # (i, j) -> f_ij
    cartan: CartanMatrix
    symmetrizer: Symmetrizer
    orientation: Orientation

    def loop(self, v: int) -> Arrow:
        return self.arrows[v - 1]

    def arrow_family(self, i: int, j: int):
        """The arrows a^{(g)}_{ij} (all with source j, target i), g ascending."""
        return [a for a in self.arrows
                if not a.is_loop and a.i == i and a.j == j]

    def nonloop_arrows(self):
        return [a for a in self.arrows if not a.is_loop]


def validate_cartan(entries) -> CartanMatrix:
    """Check (C1)-(C4) and return the validated matrix.

    (C4) is decided by propagating the ratio c_ij / c_ji along a spanning
    tree of each component and checking consistency on the remaining edges.
    """
    if not (isinstance(entries, (list, tuple))
            and all(isinstance(row, (list, tuple)) for row in entries)):
        raise ValueError("Cartan matrix must be a list of integer rows")
    n = len(entries)
    if n == 0:
        raise ValueError("Cartan matrix must be nonempty")
    for row in entries:
        if len(row) != n:
            raise ValueError("Cartan matrix must be square")
        for a in row:
            if type(a) is not int:
                raise ValueError("Cartan entries must be integers")
    for i in range(n):
        if entries[i][i] != 2:
            raise DiagonalNotTwo(f"c_{i+1}{i+1} = {entries[i][i]} != 2")
    for i in range(n):
        for j in range(n):
            if i != j and entries[i][j] > 0:
                raise PositivityViolation(
                    f"c_{i+1}{j+1} = {entries[i][j]} > 0")
    for i in range(n):
        for j in range(n):
            if i != j and (entries[i][j] == 0) != (entries[j][i] == 0):
                raise AsymmetricZeroPattern(
                    f"c_{i+1}{j+1} = 0 but c_{j+1}{i+1} != 0")
    c = CartanMatrix(n, tuple(tuple(row) for row in entries))
    _symmetrizer_ratios(c)  # raises NoSymmetrizer on inconsistent cycles
    return c


def _symmetrizer_ratios(c: CartanMatrix):
    """Rational d with d_i c_ij = d_j c_ji, one positive solution per component."""
    d = [None] * (c.n + 1)
    for comp in c.components():
        root = comp[0]
        d[root] = Fraction(1)
        stack = [root]
        while stack:
            v = stack.pop()
            for w in c.neighbors(v):
                want = d[v] * Fraction(c[v, w], c[w, v])
                if d[w] is None:
                    d[w] = want
                    stack.append(w)
                elif d[w] != want:
                    raise NoSymmetrizer(
                        f"inconsistent ratio product on a cycle through {v},{w}")
    return d[1:]


def find_symmetrizer(c: CartanMatrix, request="minimal") -> Symmetrizer:
    """Minimal symmetrizer, or verification of a user-supplied one."""
    if request == "minimal":
        ratios = _symmetrizer_ratios(c)
        out = [0] * c.n
        for comp in c.components():
            vals = [ratios[v - 1] for v in comp]
            mult = lcm(*(f.denominator for f in vals))
            ints = [int(f * mult) for f in vals]
            g = gcd(*ints)
            for v, k in zip(comp, ints):
                out[v - 1] = k // g
        return Symmetrizer(tuple(out), minimal=True)
    if not isinstance(request, (list, tuple)) or not all(
            isinstance(x, int) and not isinstance(x, bool) for x in request):
        raise NotASymmetrizer(
            f"expected a list of integers or 'minimal', got {request!r}")
    vec = tuple(request)
    if len(vec) != c.n:
        raise NotASymmetrizer(f"expected {c.n} entries, got {len(vec)}")
    if any(x < 1 for x in vec):
        raise NotASymmetrizer("symmetrizer entries must be positive")
    for i in range(1, c.n + 1):
        for j in range(1, c.n + 1):
            if vec[i - 1] * c[i, j] != vec[j - 1] * c[j, i]:
                raise NotASymmetrizer(
                    f"d_{i} c_{i}{j} != d_{j} c_{j}{i} for d = {vec}")
    minimal = find_symmetrizer(c, "minimal").c == vec
    return Symmetrizer(vec, minimal=minimal)


def default_orientation(c: CartanMatrix) -> Orientation:
    """Ω = {(i,j) : c_ij < 0 and i < j}; always satisfies (A1) and (A2)."""
    return Orientation(frozenset((i, j) for i in range(1, c.n + 1)
                                 for j in range(i + 1, c.n + 1) if c[i, j] < 0))


def orientation_from_pairs(c: CartanMatrix, pairs) -> Orientation:
    """An ``Orientation`` from a list of [i, j] pairs of vertices 1..n."""
    if not isinstance(pairs, (list, tuple, set, frozenset)):
        raise OrientationError(f"expected a list of [i, j] pairs, got {pairs!r}")
    for p in pairs:
        if not (isinstance(p, (list, tuple)) and len(p) == 2
                and all(type(v) is int and 1 <= v <= c.n for v in p)):
            raise OrientationError(
                f"expected a pair [i, j] of vertices 1..{c.n}, got {p!r}")
        if p[0] == p[1]:
            raise OrientationError(
                f"orientation pair {list(p)} joins a vertex to itself")
    return Orientation(frozenset(tuple(p) for p in pairs))


def validate_orientation(c: CartanMatrix, omega: Orientation):
    """Axioms: (A1) exactly one of (i,j),(j,i) per edge; (A2) acyclic."""
    for i in range(1, c.n + 1):
        for j in range(i + 1, c.n + 1):
            have = ((i, j) in omega.pairs) + ((j, i) in omega.pairs)
            if c[i, j] < 0 and have != 1:
                raise OrientationError(
                    f"(A1) fails on edge {{{i},{j}}}: {have} of 2 pairs present")
            if c[i, j] == 0 and have != 0:
                raise OrientationError(
                    f"orientation pair on a non-edge {{{i},{j}}}")
    # (A2): no directed cycle in the non-loop quiver
    succ = {v: [] for v in range(1, c.n + 1)}
    for (i, j) in omega.pairs:
        succ[j].append(i)  # arrows a_ij run j -> i
    state = {v: 0 for v in succ}

    def dfs(v):
        state[v] = 1
        for w in succ[v]:
            if state[w] == 1:
                raise OrientationError("(A2) fails: oriented cycle")
            if state[w] == 0:
                dfs(w)
        state[v] = 2

    for v in succ:
        if state[v] == 0:
            dfs(v)
    return omega


def double_quiver(c: CartanMatrix, d: Symmetrizer, omega: Orientation) -> DoubledQuiver:
    """The doubled quiver with its fixed arrow order.

    Order: loops eps_1..eps_n first, then the families a^{(g)}_{ij} sorted
    by (min(i,j), max(i,j), direction, g) where the Ω-oriented family comes
    before its reverse.  This order fixes monomial orders downstream.
    Ω is validated here, and only here, raising ``OrientationError``.
    """
    validate_orientation(c, omega)
    arrows = []
    for v in range(1, c.n + 1):
        arrows.append(Arrow(v - 1, v, v, True, v, v, 0, f"eps{v}"))
    gij = {}
    fij = {}
    families = []
    for i in range(1, c.n + 1):
        for j in range(1, c.n + 1):
            if i != j and c[i, j] < 0:
                g = abs(gcd(c[i, j], c[j, i]))
                gij[(i, j)] = g
                fij[(i, j)] = abs(c[i, j]) // g
    for (i, j) in sorted(gij):
        direction = 0 if (i, j) in omega.pairs else 1
        families.append((min(i, j), max(i, j), direction, i, j))
    families.sort()
    idx = c.n
    for (_, _, _, i, j) in families:
        g = gij[(i, j)]
        for k in range(1, g + 1):
            name = f"a{i}{j}" if g == 1 else f"a{i}{j}_{k}"
            arrows.append(Arrow(idx, j, i, False, i, j, k, name))
            idx += 1
    return DoubledQuiver(c.n, tuple(arrows), gij, fij, c, d, omega)


def gram_matrix(c: CartanMatrix, d: Symmetrizer):
    """The symmetric integer matrix D C (twice the quadratic form q_C)."""
    return tuple(tuple(d[i] * c[i, j] for j in range(1, c.n + 1))
                 for i in range(1, c.n + 1))


def _det_int(rows) -> int:
    """Bareiss fraction-free determinant of an integer matrix."""
    n = len(rows)
    if n == 0:
        return 1
    m = [list(r) for r in rows]
    sign = 1
    prev = 1
    for k in range(n - 1):
        if m[k][k] == 0:
            swap = next((i for i in range(k + 1, n) if m[i][k] != 0), None)
            if swap is None:
                return 0
            m[k], m[swap] = m[swap], m[k]
            sign = -sign
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                m[i][j] = (m[i][j] * m[k][k] - m[i][k] * m[k][j]) // prev
        prev = m[k][k]
    return sign * m[n - 1][n - 1]


def is_dynkin(c: CartanMatrix, d: Symmetrizer) -> bool:
    """True iff q_C is positive definite, i.e. on every component."""
    return all(ok for _, ok in dynkin_components(c, d))


def dynkin_components(c: CartanMatrix, d: Symmetrizer):
    """Per-component Dynkin verdicts: list of (component, bool), by the
    leading principal minors of DC in the component's vertex order."""
    gram = gram_matrix(c, d)
    out = []
    for comp in c.components():
        idx = [v - 1 for v in comp]
        ok = True
        for k in range(1, len(idx) + 1):
            sub = [[gram[a][b] for b in idx[:k]] for a in idx[:k]]
            if _det_int(sub) <= 0:
                ok = False
                break
        out.append((comp, ok))
    return out


@dataclass(frozen=True)
class CartanData:
    """Validated bundle (C, D, Ω) with the doubled quiver."""

    cartan: CartanMatrix
    symmetrizer: Symmetrizer
    orientation: Orientation
    quiver: DoubledQuiver

    @property
    def n(self) -> int:
        return self.cartan.n

    @property
    def dynkin(self) -> bool:
        return is_dynkin(self.cartan, self.symmetrizer)


def cartan_data(entries, symmetrizer="minimal", orientation=None) -> CartanData:
    """One-stop constructor from raw input."""
    c = validate_cartan(entries)
    d = find_symmetrizer(c, symmetrizer)
    if orientation is None:
        omega = default_orientation(c)
    else:
        omega = orientation_from_pairs(c, orientation)
    q = double_quiver(c, d, omega)
    return CartanData(c, d, omega, q)
