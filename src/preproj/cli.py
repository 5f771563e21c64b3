"""Command-line interface: config loading, dispatch, reports.

Commands: check, algebra, weyl, stt, mutation-graph, verify.
Exit codes: 0 success, 1 verification failure, 2 input error.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import dataclass

from .cartan import CartanData, cartan_data, dynkin_components
from .coxeter import coxeter_order, enumerate_weyl, simple_reflection_matrix
from .errors import (
    CapExceeded,
    CartanError,
    NotDynkin,
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
)
from .tautilt import (
    IdealSemigroup,
    classification_report,
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
    seed: int = 0
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
        from .errors import NotASymmetrizer, OrientationError
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
    cfg = RunConfig(
        data=data,
        field=fld,
        weyl_cap=(_int_key("caps.weyl", caps["weyl"]) if "weyl" in caps
                  else _int_key("weyl_cap", raw.get("weyl_cap", 1_000_000))),
        max_degree=_int_key("caps.max_degree", caps.get("max_degree", 64)),
        max_basis=_int_key("caps.max_basis", caps.get("max_basis", 20000)),
        seed=_int_key("seed", raw.get("seed", 0)),
    )
    if cfg.weyl_cap <= 0 or cfg.max_degree <= 0 or cfg.max_basis <= 0:
        raise ValidationError("caps: must be positive")
    return cfg


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
    report = verify_algebra(algebra)
    payload = {
        "dim": report.dim,
        "vertex_dims": report.vertex_dims,
        "dims_matrix": report.dims_matrix,
        "radical_layers": {str(v): [list(l) for l in report.radical_layers[v]]
                           for v in report.radical_layers},
        "field": repr(algebra.field),
    }
    lines = [f"dim Pi = {report.dim}",
             f"per-vertex dims (e_i Pi): {report.vertex_dims}"]
    for v in range(1, algebra.n + 1):
        lines.append(f"  e{v}Pi radical layers: {report.layer_sizes(v)}")
    if cfg.show_basis:
        basis = [mon_str(algebra.quiver, m) for m in algebra.basis]
        payload["basis"] = basis
        lines.append("basis: " + ", ".join(basis))
    return 0, _emit(cfg, payload, lines)


def cmd_weyl(cfg: RunConfig):
    try:
        group = enumerate_weyl(cfg.data.cartan, cap=cfg.weyl_cap)
        truncated = False
    except CapExceeded as exc:
        group = exc.partial
        truncated = True
    elements = [{"word": "".join(map(str, w.word)), "length": w.length}
                for w in group.sorted_elements()]
    payload = {
        "order": group.order,
        "complete": group.complete,
        "longest_length": max(w.length for w in group.sorted_elements()),
        "elements": elements,
    }
    if truncated:
        lines = [f"weyl group exceeds cap {cfg.weyl_cap}: "
                 f"truncated ball with {group.order} elements"]
    else:
        lines = [f"|W| = {group.order}",
                 f"longest length = {payload['longest_length']}"]
    if len(elements) <= 64:
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
    graph = mutation_graph(_dynkin_semigroup(cfg), validate="none")
    pairs = []
    for ws in sorted(graph.nodes, key=lambda s: (len(s), s)):
        node = graph.nodes[ws]
        pairs.append({
            "word": ws,
            "summands": node.summands,
            "dims": node.dims,
            "projective": node.projective,
        })
    payload = {"count": len(pairs), "pairs": pairs}
    lines = [f"{len(pairs)} support tau-tilting pairs"]
    for p in pairs:
        m = "+".join(p["summands"]) or "0"
        pp = "+".join(p["projective"]) or "0"
        lines.append(f"  w={p['word'] or 'e'}: M = {m}, P = {pp}")
    return 0, _emit(cfg, payload, lines)


def cmd_mutation_graph(cfg: RunConfig):
    validate = "all" if cfg.data.n <= 2 else "sample"
    graph = mutation_graph(_dynkin_semigroup(cfg), validate=validate,
                           seed=cfg.seed)
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
                if i == j:
                    continue
                m = coxeter_order(c, i, j)
                si = simple_reflection_matrix(c, i)
                sj = simple_reflection_matrix(c, j)
                from .coxeter import _identity, _mat_mul
                prod = _mat_mul(si, sj)
                power = prod
                k = 1
                while k <= 6:
                    if power == _identity(d.n):
                        break
                    power = _mat_mul(power, prod)
                    k += 1
                found = k if k <= 6 else None
                if m == float("inf"):
                    assert found is None, (i, j)
                else:
                    assert found == m, (i, j, found, m)

    record("coxeter orders of sigma_i*", check_orders)

    if not d.dynkin:
        lines = ["algebra-level checks skipped: C is not of Dynkin type "
                 "(finite-dimensional selfinjective case required)"]
        ok = all(c[1] for c in checks)
        for name, good, msg in checks:
            lines.append(f"{'PASS' if good else 'FAIL'} {name}"
                         + (f" ({msg})" if msg else ""))
        return (0 if ok else 1), "\n".join(lines)

    box = {}

    def check_build():
        A = build_algebra(cfg.data, cfg.field, cfg.max_degree, cfg.max_basis)
        box["ctx"] = IdealSemigroup(A, group_box.get("W"))
        verify_algebra(A)

    def check_homological():
        ctx = box["ctx"]
        A = ctx.algebra
        projectives = [projective_module(A, j) for j in range(1, A.n + 1)]
        dims = [P.total_dim for P in projectives]
        for i in range(1, A.n + 1):
            Ei = generalized_simple(A, i)
            si = ctx.sigma.apply(i)
            assert A.quiver.symmetrizer[i] == A.quiver.symmetrizer[si]
            assert is_isomorphic(nakayama_nu(generalized_simple(A, si)), Ei)
            lhs = Ei.total_dim + generalized_simple(A, si).total_dim + sum(
                abs(A.data.cartan[j, i]) * dims[j - 1]
                for j in range(1, A.n + 1) if j != i and A.data.cartan[j, i])
            assert lhs == 2 * dims[i - 1], (i, lhs)
            for j, P in enumerate(projectives, 1):
                want = A.quiver.symmetrizer[i] if i == j else 0
                assert hom_space(P, Ei).dim == want
            Ii = vertex_ideal(ctx.table, {i})
            assert hom_space(Ii.module(), Ei).dim == 0
            assert locally_free_rank(Ii.module()) is not None
            blk = Ii.block(i)
            if blk is not None:
                assert is_isomorphic(auslander_reiten_translate(blk), Ei)

    def check_classification():
        box["report"] = classification_report(box["ctx"], seed=cfg.seed)

    def check_graph():
        validate = "all" if d.n <= 2 else "sample"
        mutation_graph(box["ctx"], validate=validate, seed=cfg.seed)

    record("algebra construction and verification", check_build)
    record("homological identities", check_homological)
    record("classification report", check_classification)
    record("mutation graph with left-mutation cross-check", check_graph)

    ok = all(c[1] for c in checks)
    lines = []
    for name, good, msg in checks:
        lines.append(f"{'PASS' if good else 'FAIL'} {name}"
                     + (f" ({msg})" if msg else ""))
    if "report" in box:
        rep = box["report"]
        lines.append(f"{rep.stt_count} support tau-tilting modules = |W| = "
                     f"{group_box['W'].order}")
        lines.append("tau-rigid indecomposables: "
                     + ", ".join(t[0] for t in rep.tau_rigid_modules))
    return (0 if ok else 1), "\n".join(lines)


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
    p.add_argument("--seed", type=int, default=None)
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
