"""Command-line interface: config loading, dispatch, reports.

Commands: check, algebra, weyl, stt, mutation-graph, verify.
Exit codes: 0 success, 1 verification failure, 2 input error.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from dataclasses import dataclass

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
    projective_module,
    structure_series,
)
from .tautilt import (
    IdealSemigroup,
    classification_report,
    exchange_graph,
    graph_nodes,
    mutation_graph,
    vertex_ideal,
)

COMMANDS = ("check", "algebra", "weyl", "stt", "mutation-graph", "verify")


@dataclass
class RunConfig:
    data: CartanData
    field: object = None
    weyl_cap: int = 1_000_000
    max_degree: int = 64
    max_basis: int = 20000
    seed: int = 0  # accepted and validated for old configs; selects nothing
    json_out: bool = False
    dot: bool = False
    show_basis: bool = False

    def __post_init__(self):
        if self.field is None:
            self.field = QQ


def _int_key(key: str, value) -> int:
    if isinstance(value, bool) or not isinstance(value, int):
        raise ValidationError(f"{key}: must be an integer, got {value!r}")
    return value


def config_from_dict(raw: dict) -> RunConfig:
    """Validate a JSON config; defaults: minimal symmetrizer, rationals."""
    if not isinstance(raw, dict):
        raise ValidationError("config must be a JSON object")
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
    if isinstance(spec, dict) and "p" in spec:
        _int_key("field.p", spec["p"])
    try:
        fld = field_from_spec(spec)
    except ValidationError as exc:
        raise ValidationError(f"field: {exc}") from exc
    caps = raw.get("caps", {})
    if not isinstance(caps, dict):
        raise ValidationError(f"caps: must be an object, got {caps!r}")
    for key in caps:
        if key not in ("weyl", "max_degree", "max_basis"):
            raise ValidationError(f"caps.{key}: unknown key")
    limits = {"caps.weyl" if "weyl" in caps else "weyl_cap":
              caps.get("weyl", raw.get("weyl_cap", 1_000_000)),
              "caps.max_degree": caps.get("max_degree", 64),
              "caps.max_basis": caps.get("max_basis", 20000)}
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

def _emit(cfg, payload: dict, text_lines) -> str:
    if cfg.json_out:
        return json.dumps(payload, indent=2, sort_keys=True)
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
    layers = {v: structure_series(projective_module(algebra, v))
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


def _stt_rows(cfg: RunConfig) -> list:
    """The pairs; the ideal layer is freed on return, before any output."""
    semigroup = _dynkin_semigroup(cfg)
    return [{"word": ws, "summands": node.summands, "dims": node.dims,
             "projective": node.projective}
            for ws, node in zip(semigroup.weyl.word_strings(),
                                graph_nodes(semigroup))]


def cmd_stt(cfg: RunConfig):
    pairs = _stt_rows(cfg)
    payload = {"count": len(pairs), "pairs": pairs}
    if cfg.json_out:
        return 0, _emit(cfg, payload, ())
    lines = [f"{len(pairs)} support tau-tilting pairs"]
    for p in pairs:
        m = "+".join(p["summands"]) or "0"
        pp = "+".join(p["projective"]) or "0"
        lines.append(f"  w={p['word'] or 'e'}: M = {m}, P = {pp}")
    return 0, _emit(cfg, payload, lines)


def cmd_mutation_graph(cfg: RunConfig):
    graph = exchange_graph(_dynkin_semigroup(cfg))
    if cfg.dot:
        return 0, graph.to_dot()
    payload = graph.to_json_dict()
    if cfg.json_out:
        return 0, json.dumps(payload, indent=2, sort_keys=True)
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


def _verdict(checks, head=(), tail=()):
    """The exit code, and one PASS or FAIL line per check between the
    ``head`` and ``tail`` lines."""
    lines = [*head, *(f"{'PASS' if good else 'FAIL'} {name}"
                      + (f" ({msg})" if msg else "")
                      for name, good, msg in checks), *tail]
    return (0 if all(good for _, good, _ in checks) else 1), "\n".join(lines)


def cmd_verify(cfg: RunConfig):
    """Aggregated verification; one pass/fail line per check."""
    checks = []

    def record(name, fn):
        try:
            fn()
            checks.append((name, True, ""))
        except Exception as exc:  # noqa: BLE001 - report, do not crash
            checks.append((name, False, _failure_text(exc)))

    d = cfg.data
    group_box = {}

    def check_weyl():
        group_box["W"] = enumerate_weyl(d.cartan, cap=cfg.weyl_cap,
                                        max_length=None if d.dynkin else 8)

    record("weyl enumeration", check_weyl)

    def check_orders():
        c = d.cartan
        for i in range(1, d.n + 1):
            for j in range(1, d.n + 1):
                if i != j:
                    m = coxeter_order(c, i, j)
                    found = sigma_order(c, i, j)
                    assert found == (None if m == math.inf else m), (
                        i, j, found, m)

    record("coxeter orders of sigma_i*", check_orders)

    if not d.dynkin:
        return _verdict(checks, ["algebra-level checks skipped: C is not of "
                                 "Dynkin type (finite-dimensional "
                                 "selfinjective case required)"])

    box = {}

    def check_build():
        A = build_algebra(cfg.data, cfg.field, cfg.max_degree, cfg.max_basis)
        box["ctx"] = IdealSemigroup(A, group_box.get("W"))
        verify_algebra(A)
        for P in box["ctx"].projectives:
            structure_series(P)  # the radical filtration of e_v Pi terminates

    def check_homological():
        ctx = box["ctx"]
        A = ctx.algebra
        projectives = ctx.projectives
        dims = [P.total_dim for P in projectives]
        for i in range(1, A.n + 1):
            # E_i first: its memoized presentation serves both iso tests
            Ei = generalized_simple(A, i)
            si = ctx.sigma[i - 1]
            Esi = generalized_simple(A, si)
            assert A.quiver.symmetrizer[i] == A.quiver.symmetrizer[si]
            assert is_isomorphic(Ei, nakayama_nu(Esi))
            lhs = Ei.total_dim + Esi.total_dim + sum(
                abs(A.data.cartan[j, i]) * dims[j - 1]
                for j in range(1, A.n + 1) if j != i and A.data.cartan[j, i])
            assert lhs == 2 * dims[i - 1], (i, lhs)
            for j, P in enumerate(projectives, 1):
                want = A.quiver.symmetrizer[i] if i == j else 0
                assert len(hom_space(P, Ei)) == want
            # Hom(I_i, E_i) = 0, I_i locally free, tau(e_i I_i) = E_i
            Ii = vertex_ideal(ctx.table, {i})
            for v in range(1, A.n + 1):
                blk = Ii.block(v)
                if blk is not None:
                    assert not hom_space(blk, Ei)
                    assert locally_free_rank(blk) is not None
                    if v == i:
                        assert is_isomorphic(Ei, auslander_reiten_translate(blk))

    def check_classification():
        box["report"] = classification_report(box["ctx"])

    def check_graph():
        mutation_graph(box["ctx"])

    record("algebra construction and verification", check_build)
    for name, fn, needs_weyl in (
            ("homological identities", check_homological, False),
            ("classification report", check_classification, True),
            ("mutation graph with left-mutation cross-check", check_graph,
             True)):
        if "ctx" not in box:
            checks.append((name, False,
                           "skipped: algebra construction failed"))
        elif needs_weyl and "W" not in group_box:
            checks.append((name, False, "skipped: Weyl enumeration failed"))
        else:
            record(name, fn)

    tail = []
    if "report" in box:
        rep = box["report"]
        tail = [f"{rep.stt_count} support tau-tilting modules = |W| = "
                f"{group_box['W'].order}",
                "tau-rigid indecomposables: "
                + ", ".join(t[0] for t in rep.tau_rigid_modules)]
    return _verdict(checks, tail=tail)


def run_command(cfg: RunConfig, command: str):
    """Dispatch; returns (exit_code, output)."""
    table = {
        "check": cmd_check,
        "algebra": cmd_algebra,
        "weyl": cmd_weyl,
        "stt": cmd_stt,
        "mutation-graph": cmd_mutation_graph,
        "verify": cmd_verify,
    }
    if command not in table:
        raise ValidationError(f"unknown command {command!r}")
    return table[command](cfg)


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


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        cfg = load_config(args.config)
        if args.field is not None:
            cfg.field = field_from_spec(args.field)
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
    except (ParseError, ValidationError, CartanError, NotDynkin) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except ReportFailure as exc:
        print(f"verification failure: {exc}", file=sys.stderr)
        for f in exc.failures:
            print(f"  {f}", file=sys.stderr)
        return 1
    except PreprojectiveError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    print(output)
    return code


if __name__ == "__main__":
    sys.exit(main())
