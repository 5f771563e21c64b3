"""Correctness oracle that does not import ``preproj``.

Closed forms from root combinatorics:

* |W| by type: A_n (n+1)!, B_n and C_n 2^n n!, D_n 2^(n-1) n!, G_2 12.
* The support tau-tilting count equals |W|.
* The number of tau-rigid indecomposables equals sum_i (|W . omega_i| - 1),
  with |W . omega_i| = |W| / |W_{I minus i}| found by enumerating the orbit
  of the fundamental weight in integer coordinates.

On the default seed the output must also be byte-identical to the output
recorded in ``golden.json`` (sha256 per workload and type).
"""

from __future__ import annotations

import hashlib
import json
import math
import re
from pathlib import Path

GOLDEN = Path(__file__).resolve().parent / "golden.json"

VERIFY_CHECKS = (
    "weyl enumeration",
    "coxeter orders of sigma_i*",
    "algebra construction and verification",
    "homological identities",
    "classification report",
    "mutation graph with left-mutation cross-check",
)


def weyl_order(type_name: str) -> int:
    letter, n = type_name[0], int(type_name[1:])
    if letter == "A":
        return math.factorial(n + 1)
    if letter in "BC":
        return 2 ** n * math.factorial(n)
    if letter == "D":
        return 2 ** (n - 1) * math.factorial(n)
    if type_name == "G2":
        return 12
    raise ValueError(f"no closed form for type {type_name}")


def orbit_size(cartan, i: int) -> int:
    """|W . omega_i|: s_j lambda = lambda - lambda_j alpha_j, with alpha_j
    the j-th column of the Cartan matrix in fundamental-weight coordinates."""
    n = len(cartan)
    start = tuple(1 if k == i else 0 for k in range(n))
    seen = {start}
    frontier = [start]
    while frontier:
        nxt = []
        for lam in frontier:
            for j in range(n):
                if lam[j]:
                    mu = tuple(lam[k] - lam[j] * cartan[k][j] for k in range(n))
                    if mu not in seen:
                        seen.add(mu)
                        nxt.append(mu)
        frontier = nxt
    return len(seen)


def tau_rigid_count(cartan) -> int:
    return sum(orbit_size(cartan, i) - 1 for i in range(len(cartan)))


def sha256(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def load_golden():
    return json.loads(GOLDEN.read_text())


def _check_verify(lines, order, rigid):
    failures = []
    want = [f"PASS {name}" for name in VERIFY_CHECKS]
    if lines[:len(want)] != want:
        failures.append(f"PASS lines differ: {lines[:len(want)]}")
    rest = lines[len(want):]
    m = re.fullmatch(r"(\d+) support tau-tilting modules = \|W\| = (\d+)",
                     rest[0] if rest else "")
    if not m:
        failures.append("missing the support tau-tilting count line")
    else:
        if int(m.group(1)) != order:
            failures.append(f"support tau-tilting count {m.group(1)} != {order}")
        if int(m.group(2)) != order:
            failures.append(f"|W| = {m.group(2)} != {order}")
    prefix = "tau-rigid indecomposables: "
    if len(rest) < 2 or not rest[1].startswith(prefix):
        failures.append("missing the tau-rigid list")
    else:
        names = set(rest[1][len(prefix):].split(", "))
        if len(names) != rigid:
            failures.append(f"{len(names)} tau-rigid indecomposables != {rigid}")
    if len(rest) != 2:
        failures.append(f"{len(lines)} output lines, expected {len(want) + 2}")
    return failures


def _check_stt(lines, order, rigid, n):
    failures = []
    m = re.fullmatch(r"(\d+) support tau-tilting pairs", lines[0] if lines else "")
    if not m or int(m.group(1)) != order:
        failures.append(f"header {lines[:1]} does not count |W| = {order} pairs")
    pair_re = re.compile(r"  w=(\w+): M = ([\w+]+), P = ([\w+]+)")
    words = set()
    names = set()
    for line in lines[1:]:
        pm = pair_re.fullmatch(line)
        if not pm:
            failures.append(f"unparsed pair line {line!r}")
            continue
        words.add(pm.group(1))
        summands = [s for s in pm.group(2).split("+") if s != "0"]
        projective = [s for s in pm.group(3).split("+") if s != "0"]
        names.update(summands)
        if len(summands) + len(projective) != n:
            failures.append(f"pair {pm.group(1)} has |M| + |P| != {n}")
    if len(words) != order or len(lines) - 1 != order:
        failures.append(f"{len(words)} distinct pairs listed, expected {order}")
    if len(names) != rigid:
        failures.append(f"{len(names)} tau-rigid summand names != {rigid}")
    return failures


def check_output(config, code: int, stdout: str, golden_hash=None):
    """Failures of one CLI call's result (empty when correct).

    ``config`` is a workloads.Config; ``golden_hash`` the recorded sha256 of
    its stdout, or None when the seed has no recorded output."""
    raw = config.raw
    cartan = raw["cartan"]
    order = weyl_order(config.type_name)
    rigid = tau_rigid_count(cartan)
    failures = []
    if code != 0:
        failures.append(f"exit code {code}")
    lines = stdout.splitlines()
    if config.argv[0] == "verify":
        failures += _check_verify(lines, order, rigid)
    else:
        failures += _check_stt(lines, order, rigid, len(cartan))
    if golden_hash is not None and sha256(stdout) != golden_hash:
        failures.append("stdout differs from the recorded output")
    return failures
