"""Shared fixtures: the acceptance algebras and independent brute oracles."""

import pytest
from hypothesis import settings

from preproj.cartan import cartan_data
from preproj.coxeter import enumerate_weyl
from preproj.linalg import Matrix, nullspace
from preproj.pathalg import build_algebra
from preproj.tautilt import IdealSemigroup

# Property tests draw the same examples on every run and never time out,
# so their outcome and the test count do not depend on luck or host load.
settings.register_profile("deterministic", derandomize=True, deadline=None,
                          database=None)
settings.load_profile("deterministic")

ALGEBRA_SPECS = {
    # criterion-4 family (minimal symmetrizers) plus the two worked examples
    "a2min": ([[2, -1], [-1, 2]], "minimal"),
    "eg1": ([[2, -1], [-1, 2]], (2, 2)),
    "eg2": ([[2, -1], [-2, 2]], (2, 1)),  # equals minimal B2
    "g2": ([[2, -1], [-3, 2]], (3, 1)),
    "a3": ([[2, -1, 0], [-1, 2, -1], [0, -1, 2]], "minimal"),
    "b3": ([[2, -1, 0], [-1, 2, -1], [0, -2, 2]], "minimal"),
}

WEYL_ORDERS = {"a2min": 6, "eg1": 6, "eg2": 8, "g2": 12, "a3": 24, "b3": 48}


@pytest.fixture(scope="session")
def algebras():
    return {name: build_algebra(cartan_data(*spec))
            for name, spec in ALGEBRA_SPECS.items()}


@pytest.fixture(scope="session")
def weyl_groups(algebras):
    return {name: enumerate_weyl(A.data.cartan)
            for name, A in algebras.items()}


@pytest.fixture(scope="session")
def semigroups(algebras, weyl_groups):
    """One ideal-layer context per acceptance algebra, shared by the tests
    so that each I_w and each block module is built once per session."""
    return {name: IdealSemigroup(A, weyl_groups[name])
            for name, A in algebras.items()}


def brute_hom_dim(M, N):
    """Oracle: dim Hom(M, N) by solving the intertwining system directly.

    Independent of the presentation-based route in the package: unknowns are
    the entries of one matrix per vertex, one linear equation block per arrow.
    """
    A = M.algebra
    field = A.field
    offsets = {}
    total = 0
    for v in range(1, A.n + 1):
        offsets[v] = total
        total += N.dims[v - 1] * M.dims[v - 1]
    if total == 0:
        return 0
    rows = []
    for a in A.quiver.arrows:
        s, t = a.source, a.target
        Ma = M.act[a.index]
        Na = N.act[a.index]
        for r in range(N.dims[s - 1]):
            for c in range(M.dims[t - 1]):
                row = [field.zero] * total
                for k in range(M.dims[s - 1]):
                    idx = offsets[s] + r * M.dims[s - 1] + k
                    row[idx] = row[idx] + Ma.rows[k][c]
                for k in range(N.dims[t - 1]):
                    idx = offsets[t] + k * M.dims[t - 1] + c
                    row[idx] = row[idx] - Na.rows[r][k]
                rows.append(row)
    if not rows:
        return total
    return len(nullspace(Matrix.from_rows(rows, total, field)))


def brute_minimal_symmetrizer(entries, bound=8):
    """Oracle: smallest positive integer diagonal making DC symmetric,
    found by exhaustive search over vectors with entries up to ``bound``."""
    import itertools
    n = len(entries)
    best = None
    for vec in itertools.product(range(1, bound + 1), repeat=n):
        ok = all(vec[i] * entries[i][j] == vec[j] * entries[j][i]
                 for i in range(n) for j in range(n))
        if ok and (best is None or sum(vec) < sum(best)):
            best = vec
    return best


def weyl_orbit_sizes(entries):
    """Oracle: |W . omega_i| for each fundamental weight of a finite type.

    Enumerates the orbit in integer weight coordinates from the Cartan matrix
    alone: s_j(lambda) = lambda - lambda_j alpha_j, where alpha_j is column j
    of the Cartan matrix.  Independent of ``preproj.coxeter``."""
    n = len(entries)
    sizes = []
    for i in range(n):
        start = tuple(int(k == i) for k in range(n))
        orbit = {start}
        work = [start]
        while work:
            lam = work.pop()
            for j in range(n):
                if lam[j]:
                    mu = tuple(lam[k] - lam[j] * entries[k][j]
                               for k in range(n))
                    if mu not in orbit:
                        orbit.add(mu)
                        work.append(mu)
        sizes.append(len(orbit))
    return sizes
