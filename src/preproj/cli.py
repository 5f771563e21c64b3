"""Command-line interface: config loading, dispatch, reports.

Commands: check, algebra, weyl, stt, mutation-graph, verify.  Every
``verify`` check fails by raising, so ``python -O`` keeps them all.
Exit codes: 0 success, 1 verification failure, 2 input error.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from dataclasses import dataclass
from itertools import islice, permutations

from .cartan import CartanData, cartan_data, dynkin_components
from .coxeter import coxeter_order, enumerate_weyl, sigma_order
from .errors import (
    CapExceeded,
    CartanError,
    NotASymmetrizer,
    NotDynkin,
    OrientationError,
    ParseError,
    PreprojectiveError,
    ReportFailure,
    ValidationError,
    VerificationFailed,
)
from .fields import QQ, field_from_spec
from .pathalg import build_algebra, mon_str, verify_algebra
from .repmod import (
    auslander_reiten_translate,
    generalized_simple,
    hom_space,
    is_isomorphic,
    locally_free_rank,
    nakayama_nu,
    regular_module,
    structure_series,
)
from .tautilt import (
    IdealSemigroup,
    classification_report,
    exchange_graph,
    extend_left,
    full_ideal,
    graph_nodes,
    mutation_graph,
)

@dataclass
class RunConfig:
    data: CartanData
    field: object = QQ
    weyl_cap: int = 1_000_000
    max_degree: int = 64
    max_basis: int = 20000
    seed: int = 0  # accepted and validated for old configs; selects nothing
    json_out: bool = False
    dot: bool = False
    show_basis: bool = False


def _known_keys(prefix: str, raw: dict, allowed) -> None:
    for key in raw:
        if key not in allowed:
            raise ValidationError(f"{prefix}{key}: unknown key")


def _field(spec):
    """``field_from_spec`` with its failures named ``field``."""
    try:
        return field_from_spec(spec)
    except ValidationError as exc:
        raise ValidationError(f"field: {exc}") from exc


def _int_key(key: str, value) -> int:
    if isinstance(value, bool) or not isinstance(value, int):
        raise ValidationError(f"{key}: must be an integer, got {value!r}")
    return value


def config_from_dict(raw: dict) -> RunConfig:
    """Validate a JSON config; defaults: minimal symmetrizer, rationals."""
    if not isinstance(raw, dict):
        raise ValidationError("config must be a JSON object")
    _known_keys("", raw, ("cartan", "symmetrizer", "orientation", "field",
                          "caps", "weyl_cap", "seed"))
    if "cartan" not in raw:
        raise ValidationError("cartan: missing")
    try:
        data = cartan_data(
            raw["cartan"],
            raw.get("symmetrizer", "minimal"),
            raw.get("orientation"),
        )
    except CartanError as exc:
        if isinstance(exc, NotASymmetrizer):
            key = "symmetrizer"
        elif isinstance(exc, OrientationError):
            key = "orientation"
        else:
            key = "cartan"
        raise ValidationError(f"{key}: {exc}") from exc
    except (TypeError, ValueError) as exc:
        raise ValidationError(f"cartan: {exc}") from exc
    spec = raw.get("field")
    if isinstance(spec, dict):
        allowed = {"prime": ("type", "p"), "rational": ("type",)}
        if spec.get("type") in allowed:
            _known_keys("field.", spec, allowed[spec["type"]])
        if "p" in spec:
            _int_key("field.p", spec["p"])
    fld = _field(spec)
    caps = raw.get("caps", {})
    if not isinstance(caps, dict):
        raise ValidationError(f"caps: must be an object, got {caps!r}")
    _known_keys("caps.", caps, ("weyl", "max_degree", "max_basis"))
    limits = {"caps.weyl" if "weyl" in caps else "weyl_cap":
              caps.get("weyl", raw.get("weyl_cap", RunConfig.weyl_cap)),
              "caps.max_degree": caps.get("max_degree", RunConfig.max_degree),
              "caps.max_basis": caps.get("max_basis", RunConfig.max_basis)}
    for key, value in limits.items():
        if _int_key(key, value) <= 0:
            raise ValidationError(f"{key}: must be positive")
    weyl_cap, max_degree, max_basis = limits.values()
    return RunConfig(data=data, field=fld, weyl_cap=weyl_cap,
                     max_degree=max_degree, max_basis=max_basis,
                     seed=_int_key("seed", raw.get("seed", 0)))


def load_config(source: str) -> RunConfig:
    """Load from a file path, or parse inline JSON (leading '{')."""
    text = source
    if not source.lstrip().startswith("{"):
        try:
            with open(source) as fh:
                text = fh.read()
        except OSError as exc:
            raise ParseError(f"cannot read config {source!r}: {exc}") from exc
    try:
        raw = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError(f"config is not valid JSON: {exc}") from exc
    return config_from_dict(raw)


# ---------------------------------------------------------------------------
# commands
# ---------------------------------------------------------------------------

def _emit(cfg, payload: dict, text_lines):
    """The payload under ``--json``, for ``main`` to write; else the text."""
    if cfg.json_out:
        return payload
    return "\n".join(text_lines)


def cmd_check(cfg: RunConfig):
    d = cfg.data
    comps = dynkin_components(d.cartan, d.symmetrizer)
    payload = {
        "n": d.n,
        "cartan": [list(r) for r in d.cartan.entries],
        "symmetrizer": list(d.symmetrizer.c),
        "minimal": d.symmetrizer.minimal,
        "orientation": sorted(list(p) for p in d.orientation.pairs),
        "dynkin": d.dynkin,
        "components": [{"vertices": comp, "dynkin": ok} for comp, ok in comps],
        "arrows": [{"name": a.name, "source": a.source, "target": a.target}
                   for a in d.quiver.arrows],
    }
    lines = [
        f"cartan: valid, n = {d.n}",
        f"symmetrizer: {tuple(d.symmetrizer.c)}"
        + (" (minimal)" if d.symmetrizer.minimal else ""),
        f"orientation: {sorted(d.orientation.pairs)}",
        f"dynkin: {d.dynkin}",
    ]
    for comp, ok in comps:
        lines.append(f"  component {comp}: dynkin = {ok}")
    lines.append(f"quiver: {d.n} loops, "
                 f"{len(d.quiver.nonloop_arrows())} non-loop arrows")
    return 0, _emit(cfg, payload, lines)


def cmd_algebra(cfg: RunConfig):
    algebra = build_algebra(cfg.data, cfg.field, cfg.max_degree, cfg.max_basis)
    verify_algebra(algebra)
    vertex_dims = algebra.vertex_dims()
    layers = {v: structure_series(regular_module(algebra, v))
              for v in range(1, algebra.n + 1)}
    payload = {
        "dim": algebra.dim,
        "vertex_dims": vertex_dims,
        "dims_matrix": algebra.dims_matrix(),
        "radical_layers": {str(v): [list(l) for l in layers[v]]
                           for v in layers},
        "field": repr(algebra.field),
    }
    lines = [f"dim Pi = {algebra.dim}",
             f"per-vertex dims (e_i Pi): {vertex_dims}"]
    for v in range(1, algebra.n + 1):
        lines.append(f"  e{v}Pi radical layers: {[sum(l) for l in layers[v]]}")
    if cfg.show_basis:
        basis = [mon_str(algebra.quiver, m) for m in algebra.basis]
        payload["basis"] = basis
        lines.append("basis: " + ", ".join(basis))
    return 0, _emit(cfg, payload, lines)


def cmd_weyl(cfg: RunConfig):
    try:
        group = enumerate_weyl(cfg.data.cartan, cap=cfg.weyl_cap)
    except CapExceeded as exc:
        group = exc.partial
    # the words are built only where they are printed
    elements = ([{"word": ws, "length": w.length}
                 for ws, w in zip(group.word_strings(), group)]
                if cfg.json_out or group.order <= 64 else [])
    payload = {
        "order": group.order,
        "complete": group.complete,
        "longest_length": group.longest().length,
        "elements": elements,
    }
    if not group.complete:
        lines = [f"weyl group exceeds cap {cfg.weyl_cap}: "
                 f"truncated ball with {group.order} elements"]
    else:
        lines = [f"|W| = {group.order}",
                 f"longest length = {payload['longest_length']}"]
    if group.order <= 64:
        for e in elements:
            lines.append(f"  {e['word'] or 'e'} (length {e['length']})")
    return 0, _emit(cfg, payload, lines)


def _dynkin_semigroup(cfg: RunConfig) -> IdealSemigroup:
    if not cfg.data.dynkin:
        raise NotDynkin(
            "support tau-tilting classification requires Dynkin type: "
            "Pi(C, D) must be finite-dimensional selfinjective")
    algebra = build_algebra(cfg.data, cfg.field, cfg.max_degree, cfg.max_basis)
    group = enumerate_weyl(cfg.data.cartan, cap=cfg.weyl_cap)
    return IdealSemigroup(algebra, group)


def cmd_stt(cfg: RunConfig):
    semigroup = _dynkin_semigroup(cfg)
    pairs = [{"word": ws, "summands": node.summands, "dims": node.dims,
              "projective": node.projective}
             for ws, node in zip(semigroup.weyl.word_strings(),
                                 graph_nodes(semigroup))]
    del semigroup  # the ideal layer is freed before any output
    if cfg.json_out:
        return 0, {"count": len(pairs), "pairs": pairs}
    lines = [f"{len(pairs)} support tau-tilting pairs"]
    for p in pairs:
        m = "+".join(p["summands"]) or "0"
        pp = "+".join(p["projective"]) or "0"
        lines.append(f"  w={p['word'] or 'e'}: M = {m}, P = {pp}")
    return 0, "\n".join(lines)


def cmd_mutation_graph(cfg: RunConfig):
    graph = exchange_graph(_dynkin_semigroup(cfg))
    if cfg.dot:
        return 0, graph.to_dot()
    if cfg.json_out:
        return 0, graph.to_json_dict()
    lines = [f"{len(graph.nodes)} nodes, {len(graph.edges)} edges"]
    for (a, b, i) in graph.edges:
        la = "+".join(graph.nodes[a].summands) or "0"
        lb = "+".join(graph.nodes[b].summands) or "0"
        lines.append(f"  {la} -> {lb}  [{i}]")
    return 0, "\n".join(lines)


def _failure_text(exc: Exception) -> str:
    """The exception, then the witness or failure list it carries."""
    text = f"{type(exc).__name__}: {exc}"
    if isinstance(exc, VerificationFailed) and exc.witness is not None:
        text += f"; witness: {exc.witness!r}"
    if isinstance(exc, ReportFailure) and exc.failures:
        text += "; failures: " + "; ".join(map(str, exc.failures))
    return text


def _sigma_orders(cartan):
    """sigma_i* sigma_j* has the order m_ij of s_i s_j (None when infinite)."""
    for i, j in permutations(range(1, cartan.n + 1), 2):
        m = coxeter_order(cartan, i, j)
        found = sigma_order(cartan, i, j)
        if found != (None if m == math.inf else m):
            raise VerificationFailed(f"pair ({i}, {j}): sigma_i* sigma_j* has "
                                     f"order {found}, s_i s_j has order {m}")


def _homological_identities(ctx):
    """At each vertex i: E_i = nu(E_sigma(i)), dim E_i + dim E_sigma(i) +
    sum_j |c_ji| dim e_j Pi = 2 dim e_i Pi, dim Hom(e_j Pi, E_i) = delta_ij
    c_i; on each block of I_i, Hom(e_v I_i, E_i) = 0 and e_v I_i locally
    free; tau(e_i I_i) = E_i.  I_i = Pi (1 - e_i) Pi is the left step
    ``extend_left(i, Pi)``, so its blocks are those of ``ctx.generator(i)``
    and no Weyl group is needed."""
    A, projectives = ctx.algebra, ctx.projectives
    full = full_ideal(ctx.table)
    c, d = A.data.cartan, A.quiver.symmetrizer
    dims = [P.total_dim for P in projectives]
    for i in range(1, A.n + 1):
        # E_i first: its memoized presentation serves both iso tests
        Ei = generalized_simple(A, i)
        si = ctx.sigma[i - 1]
        Esi = generalized_simple(A, si)
        if d[i] != d[si] or not is_isomorphic(Ei, nakayama_nu(Esi)):
            raise VerificationFailed(f"vertex {i}: E_{i} is not nu(E_{si})")
        lhs = Ei.total_dim + Esi.total_dim + sum(
            abs(c[j, i]) * dims[j - 1] for j in range(1, A.n + 1) if j != i)
        if lhs != 2 * dims[i - 1]:
            raise VerificationFailed(f"vertex {i}: dim E_i + dim E_sigma(i) "
                                     "+ sum_j |c_ji| dim e_jPi != 2 dim e_iPi")
        for j, P in enumerate(projectives, 1):
            found, want = len(hom_space(P, Ei)), d[i] if i == j else 0
            if found != want:
                raise VerificationFailed(f"pair ({i}, {j}): dim Hom(e_{j}Pi, "
                                         f"E_{i}) = {found}, not {want}")
        Ii = extend_left(i, full)
        for v in range(1, A.n + 1):
            blk = Ii.block(v)
            if blk is None:
                continue
            if hom_space(blk, Ei):
                raise VerificationFailed(
                    f"pair ({i}, {v}): Hom(e_{v}I_{i}, E_{i}) != 0")
            if locally_free_rank(blk) is None:
                raise VerificationFailed(
                    f"pair ({i}, {v}): e_{v}I_{i} is not locally free")
            if v == i and not is_isomorphic(Ei, auslander_reiten_translate(blk)):
                raise VerificationFailed(f"vertex {i}: tau(e_iI_i) is not E_i")


def cmd_verify(cfg: RunConfig):
    """One PASS or FAIL line per check, exit code 1 if any fails; a check
    whose inputs were not built prints why it was skipped."""
    d = cfg.data
    lines = [] if d.dynkin else [
        "algebra-level checks skipped: C is not of Dynkin type "
        "(finite-dimensional selfinjective case required)"]
    built = {}
    skips = {"ctx": "algebra construction failed",
             "W": "Weyl enumeration failed"}

    def run(name, key, fn, *needs):
        """Run ``fn`` if every result it needs was built; keep its result."""
        missing = [skips[need] for need in needs if need not in built]
        if missing:
            lines.append(f"FAIL {name} (skipped: {missing[0]})")
            return
        try:
            result = fn()
        except Exception as exc:  # noqa: BLE001 - report, do not crash
            lines.append(f"FAIL {name} ({_failure_text(exc)})")
            return
        lines.append(f"PASS {name}")
        if key is not None:
            built[key] = result

    def build():
        A = build_algebra(d, cfg.field, cfg.max_degree, cfg.max_basis)
        # stored first: the later checks run even when verification fails
        built["ctx"] = IdealSemigroup(A, built.get("W"))
        verify_algebra(A)
        for P in built["ctx"].projectives:
            structure_series(P)  # the radical filtration of e_v Pi terminates

    run("weyl enumeration", "W", lambda: enumerate_weyl(
        d.cartan, cap=cfg.weyl_cap, max_length=None if d.dynkin else 8))
    run("coxeter orders of sigma_i*", None, lambda: _sigma_orders(d.cartan))
    if d.dynkin:
        run("algebra construction and verification", None, build)
        run("homological identities", None,
            lambda: _homological_identities(built["ctx"]), "ctx")
        run("classification report", "report",
            lambda: classification_report(built["ctx"]), "ctx", "W")
        run("mutation graph with left-mutation cross-check", None,
            lambda: mutation_graph(built["ctx"]), "ctx", "W")
    code = int(any(line.startswith("FAIL") for line in lines))
    if "report" in built:
        lines += [f"{built['report'].stt_count} support tau-tilting modules = "
                  f"|W| = {built['W'].order}", "tau-rigid indecomposables: "
                  + ", ".join(t[0] for t in built["report"].tau_rigid_modules)]
    return code, "\n".join(lines)


COMMANDS = {"check": cmd_check, "algebra": cmd_algebra, "weyl": cmd_weyl,
            "stt": cmd_stt, "mutation-graph": cmd_mutation_graph,
            "verify": cmd_verify}
# output flag -> (what it selects, the commands that read it)
OUTPUT_FLAGS = {"json": ("JSON", set(COMMANDS) - {"verify"}),
                "dot": ("DOT", {"mutation-graph"}),
                "basis": ("basis", {"algebra"})}


def run_command(cfg: RunConfig, command: str):
    """Dispatch; returns (exit_code, output): text, or under ``--json`` the
    payload dict of a command that has one."""
    if command not in COMMANDS:
        raise ValidationError(f"unknown command {command!r}")
    return COMMANDS[command](cfg)


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="preproj",
        description="Generalized preprojective algebras: Weyl groups, "
                    "tilting ideals, support tau-tilting modules.")
    p.add_argument("command", choices=COMMANDS)
    p.add_argument("--config", required=True,
                   help="path to a JSON config, or inline JSON")
    p.add_argument("--json", action="store_true", help="machine-readable output")
    p.add_argument("--dot", action="store_true", help="Graphviz DOT output")
    p.add_argument("--basis", action="store_true", help="list the monomial basis")
    p.add_argument("--seed", type=int, default=None,
                   help="accepted for old configs; selects nothing")
    p.add_argument("--field", default=None, help="rational | fp:<prime>")
    p.add_argument("--cap", type=int, default=None, help="Weyl enumeration cap")
    return p


def _write_json(payload: dict) -> None:
    """``json.dumps(payload, indent=2, sort_keys=True)`` and a newline, to
    the ``sys.stdout`` of the moment, written in batches of encoder chunks
    so the whole document is never one string."""
    out = sys.stdout
    chunks = json.JSONEncoder(indent=2, sort_keys=True).iterencode(payload)
    for batch in iter(lambda: "".join(islice(chunks, 1 << 16)), ""):
        out.write(batch)
    out.write("\n")


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        for flag, (kind, readers) in OUTPUT_FLAGS.items():
            if getattr(args, flag) and args.command not in readers:
                raise ValidationError(
                    f"--{flag}: {args.command} has no {kind} output")
        cfg = load_config(args.config)
        if args.field is not None:
            cfg.field = _field(args.field)
        if args.seed is not None:
            cfg.seed = args.seed
        if args.cap is not None:
            if args.cap <= 0:
                raise ValidationError("cap: must be positive")
            cfg.weyl_cap = args.cap
        cfg.json_out = args.json
        cfg.dot = args.dot
        cfg.show_basis = args.basis
        code, output = run_command(cfg, args.command)
    except PreprojectiveError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2 if isinstance(exc, (ParseError, ValidationError, CartanError,
                                     NotDynkin)) else 1
    if isinstance(output, dict):
        _write_json(output)
    else:
        print(output)
    return code


if __name__ == "__main__":
    sys.exit(main())
