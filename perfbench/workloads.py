"""Seeded workload generator: the inputs `preproj` receives, as CLI argv lists.

A seed fixes, for every Cartan type of a workload, a vertex relabelling
(the symmetrizer permuted to match), an orientation of the Dynkin tree and
the config's own ``"seed"`` (which picks the sampled mutation edges and the
Demazure pairs).  ``DEFAULT_SEED`` keeps the identity relabelling and the
default orientation, so its outputs can be compared byte for byte with the
recorded ones.  ``HELDOUT_SEED`` is for confirming a claimed gain on a seed
the change was not developed on.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass

DEFAULT_SEED = 0
HELDOUT_SEED = 7919

# Cartan matrices in the package's convention: row i, column j is c_ij and
# the symmetrizer D satisfies d_i c_ij = d_j c_ji.
CARTAN = {
    "A2": [[2, -1], [-1, 2]],
    "B2": [[2, -1], [-2, 2]],
    "G2": [[2, -1], [-3, 2]],
    "B3": [[2, -1, 0], [-1, 2, -1], [0, -2, 2]],
    "C3": [[2, -1, 0], [-1, 2, -2], [0, -1, 2]],
    "A4": [[2, -1, 0, 0], [-1, 2, -1, 0], [0, -1, 2, -1], [0, 0, -1, 2]],
    "D4": [[2, -1, 0, 0], [-1, 2, -1, -1], [0, -1, 2, 0], [0, -1, 0, 2]],
    "B4": [[2, -1, 0, 0], [-1, 2, -1, 0], [0, -1, 2, -1], [0, 0, -2, 2]],
}


@dataclass(frozen=True)
class Workload:
    name: str
    command: str            # preproj CLI command
    field: str | None       # value of --field, or None for the default (QQ)
    items: tuple            # (type name, symmetrizer list or None = minimal)


# Each workload loads one layer heavily and another lightly; the reasons are
# in README.md and BENCHMARK.json.
WORKLOADS = {
    w.name: w for w in (
        Workload("verify-rank2-qq", "verify", None,
                 (("G2", (3, 1)), ("B2", (4, 2)), ("A2", (2, 2)))),
        Workload("stt-b4-qq", "stt", None, (("B4", None),)),
        Workload("verify-rank34-fp101", "verify", "fp:101",
                 (("B3", None), ("C3", None), ("A4", None), ("D4", None))),
    )
}


@dataclass(frozen=True)
class Config:
    """One CLI call: ``preproj <argv...>``."""

    type_name: str          # e.g. "G2"
    argv: tuple

    @property
    def raw(self) -> dict:
        return json.loads(self.argv[self.argv.index("--config") + 1])


# Vertex labellings the package cannot build the algebra for, as the new
# labels of the original vertices 1..n.  For these three B4 labellings the
# Groebner completion in ``preproj.pathalg`` grows lead words past the degree
# cap (64, and also 128 and 256) whatever the orientation, so ``stt`` exits 2
# on a valid Dynkin config.  This is a defect of the package, recorded in
# README.md; ``relabel`` draws again when it meets one, and
# ``test_perfbench.py`` keeps an expected failure on it.
UNBUILDABLE_LABELLINGS = {
    "B4": {(2, 3, 1, 4), (3, 1, 2, 4), (3, 2, 1, 4)},
}


def _edges(cartan):
    n = len(cartan)
    return [(i, j) for i in range(1, n + 1) for j in range(i + 1, n + 1)
            if cartan[i - 1][j - 1] < 0]


def relabel(type_name, symmetrizer, rng):
    """Raw config for a random relabelling and orientation of one type."""
    c = CARTAN[type_name]
    n = len(c)
    bad = UNBUILDABLE_LABELLINGS.get(type_name, set())
    perm = rng.sample(range(n), n)          # old vertex k -> new vertex perm[k]
    while tuple(p + 1 for p in perm) in bad:
        perm = rng.sample(range(n), n)
    new = [[0] * n for _ in range(n)]
    for i in range(n):
        for j in range(n):
            new[perm[i]][perm[j]] = c[i][j]
    raw = {"cartan": new}
    if symmetrizer is not None:
        sym = [0] * n
        for i in range(n):
            sym[perm[i]] = symmetrizer[i]
        raw["symmetrizer"] = sym
    raw["orientation"] = [list(e) if rng.random() < 0.5 else [e[1], e[0]]
                          for e in _edges(new)]
    return raw


def make_configs(workload: str, seed: int):
    """The workload's configs for ``seed``; the same seed gives the same list."""
    w = WORKLOADS[workload]
    out = []
    for type_name, symmetrizer in w.items:
        if seed == DEFAULT_SEED:
            raw = {"cartan": CARTAN[type_name]}
            if symmetrizer is not None:
                raw["symmetrizer"] = list(symmetrizer)
            raw["seed"] = 0
        else:
            rng = random.Random(f"{workload}/{type_name}/{seed}")
            raw = relabel(type_name, symmetrizer, rng)
            raw["seed"] = rng.randrange(1_000_000)
        argv = [w.command, "--config", json.dumps(raw, sort_keys=True)]
        if w.field is not None:
            argv += ["--field", w.field]
        out.append(Config(type_name, tuple(argv)))
    return out
