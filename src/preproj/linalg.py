"""Dense exact linear algebra over an abstract field.

Matrices carry their shape explicitly so zero-dimensional vertex spaces
(which occur constantly in module computations) never get ambiguous.
Subspaces are kept in reduced row echelon form, which makes membership,
equality and canonical keys exact.

Scalars are ``int`` (``Fraction`` after a non-unit QQ pivot).  Over F_p
every kernel reads ``p = field.characteristic`` once and reduces what it
returns or stores ``% p``; the QQ loops (``p == 0``) do no reduction.
"""

from __future__ import annotations


class Matrix:
    """An immutable-by-convention nrows x ncols matrix over a field."""

    __slots__ = ("rows", "nrows", "ncols", "field")

    def __init__(self, rows, nrows, ncols, field):
        self.rows = rows
        self.nrows = nrows
        self.ncols = ncols
        self.field = field

    @staticmethod
    def zeros(nrows, ncols, field):
        z = field.zero
        return Matrix([[z] * ncols for _ in range(nrows)], nrows, ncols, field)

    @staticmethod
    def identity(n, field):
        m = Matrix.zeros(n, n, field)
        for i in range(n):
            m.rows[i][i] = field.one
        return m

    @staticmethod
    def from_rows(rows, ncols, field):
        return Matrix([list(r) for r in rows], len(rows), ncols, field)

    @staticmethod
    def from_cols(cols, nrows, field):
        m = Matrix.zeros(nrows, len(cols), field)
        for j, col in enumerate(cols):
            for i in range(nrows):
                m.rows[i][j] = col[i]
        return m

    def col(self, j):
        return [self.rows[i][j] for i in range(self.nrows)]

    def mul(self, other: "Matrix") -> "Matrix":
        assert self.ncols == other.nrows, (self.ncols, other.nrows)
        p = self.field.characteristic
        out = Matrix.zeros(self.nrows, other.ncols, self.field)
        for i in range(self.nrows):
            ri = self.rows[i]
            oi = out.rows[i]
            for k in range(self.ncols):
                a = ri[k]
                if not a:
                    continue
                rk = other.rows[k]
                for j in range(other.ncols):
                    b = rk[j]
                    if b:
                        oi[j] = oi[j] + a * b
        if p:
            out.rows = [[x % p for x in r] for r in out.rows]
        return out

    def vec(self, v):
        """Matrix-vector product (column convention)."""
        assert len(v) == self.ncols, (len(v), self.ncols)
        z = self.field.zero
        out = [z] * self.nrows
        for i in range(self.nrows):
            ri = self.rows[i]
            acc = z
            for j, x in enumerate(v):
                if x:
                    acc = acc + ri[j] * x
            out[i] = acc
        p = self.field.characteristic
        if p:
            return [x % p for x in out]
        return out

    def transpose(self) -> "Matrix":
        out = Matrix.zeros(self.ncols, self.nrows, self.field)
        for i in range(self.nrows):
            for j in range(self.ncols):
                out.rows[j][i] = self.rows[i][j]
        return out

    def add(self, other: "Matrix") -> "Matrix":
        assert self.nrows == other.nrows and self.ncols == other.ncols
        p = self.field.characteristic
        if p:
            rows = [[(a + b) % p for a, b in zip(r1, r2)]
                    for r1, r2 in zip(self.rows, other.rows)]
        else:
            rows = [[a + b for a, b in zip(r1, r2)]
                    for r1, r2 in zip(self.rows, other.rows)]
        return Matrix(rows, self.nrows, self.ncols, self.field)

    def scale(self, c) -> "Matrix":
        p = self.field.characteristic
        if p:
            rows = [[c * a % p for a in r] for r in self.rows]
        else:
            rows = [[c * a for a in r] for r in self.rows]
        return Matrix(rows, self.nrows, self.ncols, self.field)

    def is_zero(self) -> bool:
        return all(not a for r in self.rows for a in r)

    def __repr__(self):
        return f"Matrix({self.nrows}x{self.ncols})"


def rref(rows, ncols, field):
    """Reduced row echelon form.  Returns (rows, pivot_columns).

    Zero rows are dropped; pivots are monic and their columns cleared,
    so the output is the canonical basis of the row span."""
    p = field.characteristic
    work = [list(r) for r in rows if any(r)]
    pivots = []
    r = 0
    for c in range(ncols):
        piv = None
        for i in range(r, len(work)):
            if work[i][c]:
                piv = i
                break
        if piv is None:
            continue
        work[r], work[piv] = work[piv], work[r]
        lead = work[r][c]
        if lead != field.one:
            inv = field.inv(lead)
            if p:
                work[r] = [inv * a % p for a in work[r]]
            else:
                work[r] = [inv * a for a in work[r]]
        for i in range(len(work)):
            if i != r and work[i][c]:
                f = work[i][c]
                wr = work[r]
                if p:
                    work[i] = [(a - f * b) % p for a, b in zip(work[i], wr)]
                else:
                    work[i] = [a - f * b for a, b in zip(work[i], wr)]
        pivots.append(c)
        r += 1
        if r == len(work):
            break
    out = [work[i] for i in range(r)]
    return out, pivots


def mat_rank(m: Matrix) -> int:
    _, pivots = rref(m.rows, m.ncols, m.field)
    return len(pivots)


def nullspace(m: Matrix):
    """Basis of {v : m @ v = 0}, as a list of length-ncols vectors."""
    rows, pivots = rref(m.rows, m.ncols, m.field)
    field = m.field
    p = field.characteristic
    pivset = set(pivots)
    free = [c for c in range(m.ncols) if c not in pivset]
    basis = []
    for fc in free:
        v = [field.zero] * m.ncols
        v[fc] = field.one
        for r, pc in zip(rows, pivots):
            v[pc] = -r[fc] % p if p else -r[fc]
        basis.append(v)
    return basis


def solve_matrix(a: Matrix, b: Matrix):
    """One solution X of a @ X = b, or None if inconsistent."""
    n = a.ncols
    k = b.ncols
    aug = [list(ar) + list(br) for ar, br in zip(a.rows, b.rows)]
    rows, pivots = rref(aug, n + k, a.field)
    for r, pc in zip(rows, pivots):
        if pc >= n:
            return None
    x = Matrix.zeros(n, k, a.field)
    for r, pc in zip(rows, pivots):
        for j in range(k):
            x.rows[pc][j] = r[n + j]
    return x


class Subspace:
    """A subspace of field^ambient maintained in reduced row echelon form."""

    __slots__ = ("ambient", "field", "rows", "pivots")

    def __init__(self, ambient: int, field):
        self.ambient = ambient
        self.field = field
        self.rows = []
        self.pivots = []

    @staticmethod
    def span(vectors, ambient, field) -> "Subspace":
        s = Subspace(ambient, field)
        for v in vectors:
            s.add(v)
        return s

    @property
    def dim(self) -> int:
        return len(self.rows)

    def reduce(self, vec):
        """Residue of vec modulo the subspace (pivot coordinates cleared)."""
        v = list(vec)
        for row, pc in zip(self.rows, self.pivots):
            c = v[pc]  # no other echelon row touches column pc
            if c:
                v = [a - c * b for a, b in zip(v, row)]
        p = self.field.characteristic
        if p:
            return [a % p for a in v]
        return v

    def contains(self, vec) -> bool:
        return not any(self.reduce(vec))

    def add(self, vec) -> bool:
        """Insert vec; returns True if the dimension grew."""
        v = self.reduce(vec)
        lead = None
        for c, a in enumerate(v):
            if a:
                lead = c
                break
        if lead is None:
            return False
        la = v[lead]
        p = self.field.characteristic
        if la != self.field.one:
            inv = self.field.inv(la)
            v = [inv * a % p for a in v] if p else [inv * a for a in v]
        # clear the new pivot column in the existing rows
        for i, row in enumerate(self.rows):
            c = row[lead]
            if c:
                if p:
                    self.rows[i] = [(a - c * b) % p for a, b in zip(row, v)]
                else:
                    self.rows[i] = [a - c * b for a, b in zip(row, v)]
        pos = 0
        while pos < len(self.pivots) and self.pivots[pos] < lead:
            pos += 1
        self.rows.insert(pos, v)
        self.pivots.insert(pos, lead)
        return True

    def express(self, vec):
        """Coefficients of vec over the echelon rows, or None."""
        v = list(vec)
        coeffs = []
        for row, pc in zip(self.rows, self.pivots):
            c = v[pc]
            coeffs.append(c)
            if c:
                v = [a - c * b for a, b in zip(v, row)]
        p = self.field.characteristic
        if any(a % p for a in v) if p else any(v):
            return None
        return coeffs

    def key(self):
        return tuple(tuple(r) for r in self.rows)

    def __eq__(self, other):
        return (isinstance(other, Subspace) and self.ambient == other.ambient
                and self.rows == other.rows)

    def __hash__(self):
        return hash(self.key())

    def quotient(self):
        """Projection onto a complement: (proj(vec)->coords, dim, lifts)."""
        pivset = set(self.pivots)
        free = [c for c in range(self.ambient) if c not in pivset]

        def proj(vec):
            r = self.reduce(vec)
            return [r[c] for c in free]

        lifts = []
        for c in free:
            v = [self.field.zero] * self.ambient
            v[c] = self.field.one
            lifts.append(v)
        return proj, len(free), lifts

    def __repr__(self):
        return f"Subspace(dim={self.dim}, ambient={self.ambient})"
