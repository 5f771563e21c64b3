import contextlib
import gc
import hashlib
import io
import json
import os
import subprocess
import sys
import weakref
from pathlib import Path

import pytest
from conftest import weyl_orbit_sizes
from oracles import vertex_ideal

import preproj
import preproj.cli as cli
from preproj.cli import (
    COMMANDS,
    config_from_dict,
    load_config,
    main,
    run_command,
)
from preproj.errors import NotDynkin, ParseError, ValidationError
from preproj.fields import PrimeField

EG1 = {"cartan": [[2, -1], [-1, 2]], "symmetrizer": [2, 2]}
EG2 = {"cartan": [[2, -1], [-2, 2]], "symmetrizer": [2, 1]}
AFFINE = {"cartan": [[2, -2], [-2, 2]]}


def test_load_config_inline_and_file(tmp_path):
    cfg = load_config(json.dumps(EG1))
    assert cfg.data.symmetrizer.c == (2, 2)
    assert cfg.field.kind == "rational"
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(EG2))
    cfg2 = load_config(str(path))
    assert cfg2.data.symmetrizer.c == (2, 1)


def test_load_config_defaults():
    cfg = config_from_dict({"cartan": [[2]]})
    assert cfg.data.symmetrizer.c == (1,)
    assert cfg.weyl_cap == 1_000_000
    assert cfg.seed == 0


def test_bad_configs():
    with pytest.raises(ValidationError):
        config_from_dict({"cartan": [[2, -1], [-1, 2]], "symmetrizer": [1, 2]})
    with pytest.raises(ValidationError):
        config_from_dict({"cartan": [[2, -1], [0, 2]]})
    with pytest.raises(ValidationError):
        config_from_dict({})
    with pytest.raises(ParseError):
        load_config("{not json")
    with pytest.raises(ParseError):
        load_config("/nonexistent/path.json")
    with pytest.raises(ValidationError):
        config_from_dict({"cartan": [[2]], "field": {"type": "prime", "p": 4}})


def test_field_spec():
    cfg = config_from_dict({"cartan": [[2]],
                            "field": {"type": "prime", "p": 101}})
    assert isinstance(cfg.field, PrimeField)
    assert cfg.field.p == 101


def test_cmd_check():
    code, out = run_command(load_config(json.dumps(EG1)), "check")
    assert code == 0
    assert "dynkin: True" in out


def test_cmd_algebra_json():
    cfg = load_config(json.dumps(EG2))
    cfg.json_out = True
    cfg.show_basis = True
    code, payload = run_command(cfg, "algebra")
    assert code == 0
    assert payload["dim"] == 10
    assert payload["vertex_dims"] == [6, 4]
    assert len(payload["basis"]) == 10
    # round trip
    assert json.loads(json.dumps(payload)) == payload


def test_cmd_weyl():
    cfg = load_config(json.dumps(EG1))
    cfg.json_out = True
    code, payload = run_command(cfg, "weyl")
    assert code == 0
    assert payload["order"] == 6
    assert payload["longest_length"] == 3
    assert {"word": "121", "length": 3} in payload["elements"]


def test_cmd_weyl_affine_truncates():
    cfg = load_config(json.dumps(AFFINE))
    cfg.weyl_cap = 50
    code, out = run_command(cfg, "weyl")
    assert code == 0
    assert "truncated" in out


def test_cmd_stt():
    cfg = load_config(json.dumps(EG1))
    code, out = run_command(cfg, "stt")
    assert code == 0
    assert "6 support tau-tilting pairs" in out
    assert "w=121: M = 0, P = e1P+e2P" in out


def test_cmd_stt_not_dynkin():
    cfg = load_config(json.dumps(AFFINE))
    with pytest.raises(NotDynkin):
        run_command(cfg, "stt")
    assert main(["stt", "--config", json.dumps(AFFINE)]) == 2


def test_stt_builds_no_edge_list(monkeypatch, capsys):
    """``stt`` prints the pairs only: it lists no ascent of the exchange
    quiver and checks no edge by left mutation."""
    import preproj.tautilt as tautilt

    def refuse(*args, **kwargs):
        raise AssertionError("stt walked the exchange quiver")

    for target, name in ((cli, "mutation_graph"),
                         (tautilt, "mutation_graph"),
                         (tautilt, "_check_edge")):
        monkeypatch.setattr(target, name, refuse)
    assert main(["stt", "--config", json.dumps(EG2)]) == 0
    assert "8 support tau-tilting pairs" in capsys.readouterr().out


def test_words_stay_distinct_from_rank_ten_on(capsys):
    """From n = 10 on the labels of a word are joined by "." (s_1 s_12 is
    "1.12", s_12 is "12"), so twelve disjoint A1 give 4,096 distinct words,
    and ``stt``, ``mutation-graph`` and ``verify`` see a 12-regular
    exchange quiver."""
    raw = json.dumps({"cartan": [[2 * (i == j) for j in range(12)]
                                 for i in range(12)]})
    assert main(["weyl", "--config", raw, "--json"]) == 0
    elements = json.loads(capsys.readouterr().out)["elements"]
    words = [e["word"] for e in elements]
    assert len(set(words)) == len(words) == 4096
    assert {"12", "1.12", "2.11", "1.2.3.4.5.6.7.8.9.10.11.12"} <= set(words)
    assert main(["stt", "--config", raw, "--json"]) == 0
    pairs = json.loads(capsys.readouterr().out)["pairs"]
    assert [p["word"] for p in pairs] == words
    assert main(["mutation-graph", "--config", raw, "--json"]) == 0
    graph = json.loads(capsys.readouterr().out)
    assert len(graph["nodes"]) == 4096 and len(graph["edges"]) == 6 * 4096
    assert main(["verify", "--config", raw]) == 0
    out = capsys.readouterr().out
    assert "FAIL" not in out
    assert "4096 support tau-tilting modules = |W| = 4096" in out


def test_cmd_mutation_graph_outputs():
    cfg = load_config(json.dumps(EG2))
    cfg.dot = True
    code, out = run_command(cfg, "mutation-graph")
    assert code == 0
    assert out.startswith("digraph")
    assert out.count("->") == 8
    cfg.dot = False
    cfg.json_out = True
    code, payload = run_command(cfg, "mutation-graph")
    assert code == 0
    assert len(payload["nodes"]) == 8
    assert len(payload["edges"]) == 8
    assert json.loads(json.dumps(payload)) == payload


def test_json_is_written_in_batches_to_the_current_stdout():
    """``main`` writes a ``--json`` payload to the ``sys.stdout`` of the
    moment, as ``json.dumps(indent=2, sort_keys=True)`` plus a newline,
    in more than one write once it outgrows a batch of encoder chunks."""
    payload = {"b": list(range(70_000)), "a": {"y": None, "x": "z"}}
    writes = []

    class Recorder(io.StringIO):
        def write(self, text):
            writes.append(text)
            return super().write(text)

    buf = Recorder()
    with contextlib.redirect_stdout(buf):
        cli._write_json(payload)
    assert buf.getvalue() == json.dumps(payload, indent=2,
                                        sort_keys=True) + "\n"
    assert len(writes) > 2


def test_cmd_verify_eg1(capsys):
    assert main(["verify", "--config", json.dumps(EG1)]) == 0
    out = capsys.readouterr().out
    assert "6 support tau-tilting modules = |W| = 6" in out
    assert "FAIL" not in out


def test_verify_stdout_does_not_depend_on_seed(capsys):
    g2 = json.dumps({"cartan": [[2, -1], [-3, 2]], "symmetrizer": [3, 1]})
    outs = []
    for seed in ("0", "12345"):
        assert main(["verify", "--config", g2, "--seed", seed]) == 0
        outs.append(capsys.readouterr().out)
    assert outs[0] == outs[1]
    assert "FAIL" not in outs[0]


def test_cmd_verify_prints_failure_witnesses(monkeypatch, capsys):
    """A FAIL line carries the witness or failure list of its exception;
    the PASS lines stay as they were."""
    import preproj.cli as cli
    from preproj.errors import ReportFailure, VerificationFailed

    def failing_report(*args, **kwargs):
        raise ReportFailure("classification report failed",
                            ["pair at 12: ['|M| + |P| != n']", "I_1 I_2 != I_(u*v)"])

    def failing_graph(*args, **kwargs):
        raise VerificationFailed("exchange quiver is not 2-regular",
                                 witness={"12": 3})

    monkeypatch.setattr(cli, "classification_report", failing_report)
    monkeypatch.setattr(cli, "mutation_graph", failing_graph)
    assert main(["verify", "--config", json.dumps(EG1)]) == 1
    lines = capsys.readouterr().out.splitlines()
    assert lines[:4] == [
        "PASS weyl enumeration",
        "PASS coxeter orders of sigma_i*",
        "PASS algebra construction and verification",
        "PASS homological identities",
    ]
    assert lines[4] == (
        "FAIL classification report (ReportFailure: classification report "
        "failed; failures: pair at 12: ['|M| + |P| != n']; I_1 I_2 != I_(u*v))")
    assert lines[5] == (
        "FAIL mutation graph with left-mutation cross-check "
        "(VerificationFailed: exchange quiver is not 2-regular; "
        "witness: {'12': 3})")
    assert len(lines) == 6


def test_verify_skips_the_checks_that_need_the_weyl_group(capsys):
    """When the Weyl enumeration fails, the classification and graph lines
    say they were skipped instead of reporting an error about the missing
    group; the exit code stays 1.  A2 is Dynkin, so the failure names the
    order of W and the cap, not a non-Dynkin suspicion."""
    assert main(["verify", "--config", json.dumps(EG1), "--cap", "3"]) == 1
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == ("FAIL weyl enumeration (CapExceeded: "
                        "Weyl group of order 6 exceeds cap 3)")
    assert lines[1:] == [
        "PASS coxeter orders of sigma_i*",
        "PASS algebra construction and verification",
        "PASS homological identities",
        "FAIL classification report (skipped: Weyl enumeration failed)",
        "FAIL mutation graph with left-mutation cross-check "
        "(skipped: Weyl enumeration failed)",
    ]


def test_verify_skips_the_checks_that_need_the_algebra(capsys):
    """When the algebra cannot be built (a degree cap below the Groebner
    completion), the checks that need it say they were skipped; the exit
    code stays 1."""
    raw = {"cartan": [[2, -1], [-1, 2]], "symmetrizer": [2, 2],
           "caps": {"max_degree": 2}}
    assert main(["verify", "--config", json.dumps(raw)]) == 1
    lines = capsys.readouterr().out.splitlines()
    assert lines[:2] == ["PASS weyl enumeration",
                         "PASS coxeter orders of sigma_i*"]
    assert lines[2].startswith(
        "FAIL algebra construction and verification (CapExceeded: ")
    assert lines[3:] == [
        f"FAIL {name} (skipped: algebra construction failed)"
        for name in ("homological identities", "classification report",
                     "mutation graph with left-mutation cross-check")]


def test_cmd_verify_affine(capsys):
    assert main(["verify", "--config", json.dumps(AFFINE)]) == 0
    out = capsys.readouterr().out
    assert "skipped" in out


def test_main_check(capsys):
    assert main(["check", "--config", json.dumps(EG2)]) == 0
    out = capsys.readouterr().out
    assert "symmetrizer: (2, 1)" in out


def test_main_bad_input(capsys):
    assert main(["check", "--config", '{"cartan": [[2,-1],[0,2]]}']) == 2
    assert "error" in capsys.readouterr().err


def test_large_prime_field_loads_at_once(capsys):
    """A 60-bit prime passes the config check at once; a p past the range
    where primality is decided exactly is an input error."""
    a2 = {"cartan": [[2, -1], [-1, 2]]}
    big = {**a2, "field": {"type": "prime", "p": 10 ** 18 + 3}}
    assert main(["check", "--config", json.dumps(big)]) == 0
    capsys.readouterr()
    assert main(["check", "--config", json.dumps(a2),
                 "--field", f"fp:{2 ** 89 - 1}"]) == 2
    assert capsys.readouterr().err.startswith("error: field: p must be below")


@pytest.mark.parametrize("p, line", [
    (6, "error: field: 6 is not prime"),
    ("x", "error: field: bad field spec 'fp:x'"),
])
def test_field_flag_and_config_give_one_error(p, line, capsys):
    """``--field fp:<p>`` and the same p in a config exit 2 with the same
    line, which says why p is refused."""
    a2 = {"cartan": [[2, -1], [-1, 2]]}
    assert main(["check", "--config", json.dumps(a2),
                 "--field", f"fp:{p}"]) == 2
    flag = capsys.readouterr().err
    assert flag.startswith(line), flag
    spec = {"type": "prime", "p": p} if isinstance(p, int) else f"fp:{p}"
    assert main(["check", "--config",
                 json.dumps({**a2, "field": spec})]) == 2
    assert capsys.readouterr().err == flag


def test_main_field_flag(capsys):
    code = main(["algebra", "--config", json.dumps(EG1),
                 "--field", "fp:101", "--json"])
    assert code == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["dim"] == 8
    assert payload["field"] == "F_101"


@pytest.mark.parametrize("command", ["algebra", "stt", "mutation-graph",
                                     "verify"])
def test_main_clears_and_frees_algebra(command, monkeypatch, capsys):
    """After main returns nothing cyclic holds the algebra, so it is freed
    without the cycle collector."""
    import preproj.cli as cli
    built = []
    cli_build = cli.build_algebra

    def recording_build(*args, **kwargs):
        built.append(cli_build(*args, **kwargs))
        return built[-1]

    monkeypatch.setattr(cli, "build_algebra", recording_build)
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        assert main([command, "--config", json.dumps(EG1)]) == 0
        (algebra,) = built
        ref = weakref.ref(algebra)
        del algebra
        built.clear()
        assert ref() is None
    finally:
        if was_enabled:
            gc.enable()


def test_homological_identities_run_on_the_blocks_of_I_i(monkeypatch,
                                                         capsys):
    """``verify`` tests Hom(I_i, E_i) = 0 on each nonzero block of I_i, the
    interned block modules of the context, and builds each E_i and
    E_sigma(i) once per i."""
    contexts, homs, simples = [], [], []
    real_ctx, real_hom, real_simple = (cli.IdealSemigroup, cli.hom_space,
                                       cli.generalized_simple)

    def recording_ctx(*args):
        contexts.append(real_ctx(*args))
        return contexts[-1]

    def recording_hom(M, N):
        homs.append((M, N))
        return real_hom(M, N)

    def recording_simple(A, i):
        simples.append(real_simple(A, i))
        return simples[-1]

    monkeypatch.setattr(cli, "IdealSemigroup", recording_ctx)
    monkeypatch.setattr(cli, "hom_space", recording_hom)
    monkeypatch.setattr(cli, "generalized_simple", recording_simple)
    b3 = {"cartan": [[2, -1, 0], [-1, 2, -1], [0, -2, 2]]}
    assert main(["verify", "--config", json.dumps(b3)]) == 0
    assert "PASS homological identities" in capsys.readouterr().out
    (ctx,) = contexts
    assert len(simples) == 2 * 3
    for i in range(1, 4):
        Ei = simples[2 * (i - 1)]
        Ii = vertex_ideal(ctx.table, {i})
        blocks = [Ii.block(v) for v in range(1, 4)]
        assert [any(M is blk and N is Ei for M, N in homs)
                for blk in blocks if blk is not None] == [True] * 3


def test_homological_identities_cross_check_the_steps(monkeypatch, capsys):
    """``verify`` checks that the left step I_i Pi has the blocks of the
    right step Pi I_i: a left step that returns Pi itself prints the FAIL
    line naming vertex 1."""
    monkeypatch.setattr(cli, "extend_left", lambda i, J: J)
    assert main(["verify", "--config", json.dumps(EG1)]) == 1
    assert ("FAIL homological identities (VerificationFailed: vertex 1: "
            "I_1 Pi != Pi I_1)" in capsys.readouterr().out.splitlines())


def _module_builds(monkeypatch, command):
    """The ``module_from_subspace`` calls of one B3 ``command``."""
    import preproj.repmod as repmod
    import preproj.tautilt as tautilt
    calls = []
    build = repmod.module_from_subspace

    def counting(*args, **kwargs):
        calls.append(1)
        return build(*args, **kwargs)

    monkeypatch.setattr(repmod, "module_from_subspace", counting)
    monkeypatch.setattr(tautilt, "module_from_subspace", counting)
    assert main([command, "--config", json.dumps(_B3)]) == 0
    return len(calls)


def test_stt_builds_each_block_once(monkeypatch, capsys):
    """B3 ``stt`` reads its pairs by block id and names, sizes and ranks
    each block off its echelon spaces: it builds no block module."""
    calls = _module_builds(monkeypatch, "stt")
    assert "48 support tau-tilting pairs" in capsys.readouterr().out
    assert calls == 0


@pytest.mark.parametrize("command, line", [
    ("mutation-graph", "48 nodes, 72 edges"),
    ("verify", "48 support tau-tilting modules = |W| = 48")])
def test_block_modules_are_built_once(monkeypatch, capsys, command, line):
    """B3 ``mutation-graph`` and ``verify`` build at most one module per
    distinct nonzero block, sum_i (|W omega_i| - 1) of them, plus the n
    projectives."""
    calls = _module_builds(monkeypatch, command)
    assert line in capsys.readouterr().out
    b3 = _B3["cartan"]
    bound = sum(s - 1 for s in weyl_orbit_sizes(b3)) + len(b3)
    assert bound == 26
    assert 0 < calls <= bound


@pytest.mark.parametrize("flags", [[], ["--dot"]], ids=["text", "dot"])
def test_text_mutation_graph_builds_no_json(monkeypatch, capsys, flags):
    """Only ``--json`` output reads ``MutationGraph.to_json_dict``."""
    import preproj.tautilt as tautilt

    def refuse(self):
        raise AssertionError("JSON payload built")

    monkeypatch.setattr(tautilt.MutationGraph, "to_json_dict", refuse)
    assert main(["mutation-graph", "--config", json.dumps(_B3), *flags]) == 0
    assert capsys.readouterr().out


def test_verify_builds_each_projective_once(monkeypatch, capsys):
    """B3 ``verify`` builds each e_vPi once, as the regular module acting by
    the algebra's own ``right_action[v]``: the Nakayama permutation, the
    homological identities and the block names all read the projectives
    of the one context, and no ``module_from_subspace`` call rebuilds a
    full block."""
    import preproj.cli as cli
    import preproj.repmod as repmod
    import preproj.tautilt as tautilt
    b3 = [[2, -1, 0], [-1, 2, -1], [0, -2, 2]]
    contexts, full_builds = [], []
    build = repmod.module_from_subspace
    make_context = cli.IdealSemigroup

    def recording_context(*args):
        contexts.append(make_context(*args))
        return contexts[-1]

    def counting(parent, spaces):
        if [s.dim for s in spaces.values()] == parent.dims:  # all of parent
            full_builds.append(parent)
        return build(parent, spaces)

    monkeypatch.setattr(cli, "IdealSemigroup", recording_context)
    monkeypatch.setattr(repmod, "module_from_subspace", counting)
    monkeypatch.setattr(tautilt, "module_from_subspace", counting)
    assert main(["verify", "--config", json.dumps({"cartan": b3})]) == 0
    assert "48 support tau-tilting modules" in capsys.readouterr().out
    (ctx,) = contexts
    A = ctx.algebra
    assert all(ctx.projectives[v - 1].act is A.right_action[v]
               for v in range(1, A.n + 1))
    assert not any(parent is P for parent in full_builds
                   for P in ctx.projectives)


@pytest.mark.parametrize("name, value, line", [
    ("hom_space", "[]", "FAIL homological identities (VerificationFailed: "
     "pair (1, 1): dim Hom(e_1Pi, E_1) = 0, not 1)"),
    ("sigma_order", "None", "FAIL coxeter orders of sigma_i* "
     "(VerificationFailed: pair (1, 2): sigma_i* sigma_j* has order None, "
     "s_i s_j has order 3)"),
], ids=["hom_space", "sigma_order"])
def test_verify_checks_hold_under_python_O(name, value, line):
    """With ``cli.hom_space`` returning no maps, or ``cli.sigma_order`` no
    order, A2 ``verify`` under ``python -O`` prints the FAIL line naming
    the pair and exits 1: its checks raise instead of asserting."""
    env = {**os.environ,
           "PYTHONPATH": str(Path(preproj.__file__).resolve().parents[1])}
    code = ("import sys\nimport preproj.cli as cli\n"
            f"cli.{name} = lambda *args: {value}\n"
            "sys.exit(cli.main(sys.argv[1:]))")
    done = subprocess.run(
        [sys.executable, "-O", "-c", code, "verify", "--config",
         json.dumps({"cartan": [[2, -1], [-1, 2]]})],
        capture_output=True, text=True, env=env, timeout=120, check=False)
    assert done.returncode == 1, done.stdout + done.stderr
    assert line in done.stdout.splitlines()


@pytest.mark.parametrize("extra, key", [
    ({"seed": "abc"}, "seed"),
    ({"seed": 1.5}, "seed"),
    ({"caps": 5}, "caps"),
    ({"caps": {"max_degree": "64"}}, "caps.max_degree"),
    ({"weyl_cap": "many"}, "weyl_cap"),
    ({"symmetrizer": [2.5, 2.5]}, "symmetrizer"),
    ({"symmetrizer": 2}, "symmetrizer"),
    ({"field": {"type": "prime", "p": "x"}}, "field.p"),
    ({"field": {"type": "prime", "p": [7]}}, "field.p"),
    ({"field": {"type": "prime", "p": 2.5}}, "field.p"),
    ({"field": {"type": "prime", "p": "7"}}, "field.p"),
    ({"field": {"type": "prime", "p": True}}, "field.p"),
    ({"orientation": [[1, 2], [5, 7]]}, "orientation"),
    ({"orientation": [[1, 2], [1, 2, 9]]}, "orientation"),
    ({"orientation": [[True, 2]]}, "orientation"),
    ({"orientation": [[1.0, 2]]}, "orientation"),
    ({"orientation": "x"}, "orientation"),
    ({"cartan": []}, "cartan"),
    ({"cartan": [[2, False], [False, 2]]}, "cartan"),
    ({"caps": {"max_degre": 8}}, "caps.max_degre"),
    ({"caps": {"weyl": 0}}, "caps.weyl"),
    ({"caps": {"max_degree": -1}}, "caps.max_degree"),
    ({"caps": {"max_basis": 0}}, "caps.max_basis"),
    ({"weyl_cap": 0}, "weyl_cap"),
    ({"cartan": None}, "cartan"),
    ({"cartan": [2]}, "cartan"),
    ({"cartan": "A2"}, "cartan"),
    ({"orientation": [[1, 2], [1, 1]]}, "orientation"),
    ({"symetrizer": [2, 2]}, "symetrizer"),
    ({"field": {"type": "rational", "p": 5}}, "field.p"),
])
def test_main_bad_config_key_exits_2(extra, key, capsys):
    raw = {"cartan": [[2, -1], [-1, 2]], **extra}
    assert main(["check", "--config", json.dumps(raw)]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: {key}:"), err


@pytest.mark.parametrize("flag, kind, readers", [
    ("--json", "JSON", {"check", "algebra", "weyl", "stt", "mutation-graph"}),
    ("--dot", "DOT", {"mutation-graph"}),
    ("--basis", "basis", {"algebra"})])
def test_output_flag_a_command_ignores_exits_2(flag, kind, readers, capsys):
    """A command refuses an output flag it does not read, with exit 2 and
    nothing on stdout; the commands that read the flag accept it."""
    for command in COMMANDS:
        code = main([command, "--config", json.dumps(EG1), flag])
        out, err = capsys.readouterr()
        if command in readers:
            assert (code, err) == (0, ""), command
            assert out
        else:
            assert (code, out) == (2, ""), command
            assert err == f"error: {flag}: {command} has no {kind} output\n"


# Outputs recorded from the package before ideals were stored as blocks;
# a refactor of the ideal layer must leave them byte for byte unchanged.
_G2 = {"cartan": [[2, -1], [-3, 2]]}
_B2_42 = {"cartan": [[2, -1], [-2, 2]], "symmetrizer": [4, 2]}
_B3 = {"cartan": [[2, -1, 0], [-1, 2, -1], [0, -2, 2]]}
_C3 = {"cartan": [[2, -1, 0], [-1, 2, -2], [0, -1, 2]]}
_D4 = {"cartan": [[2, -1, 0, 0], [-1, 2, -1, -1], [0, -1, 2, 0],
                  [0, -1, 0, 2]]}
_B4 = {"cartan": [[2, -1, 0, 0], [-1, 2, -1, 0], [0, -1, 2, -1],
                  [0, 0, -2, 2]]}
# the B4 exchange quiver with its rank vectors is the same over QQ, F_2 and
# F_3: at p = 2 the signs of the mesh relations collapse
_B4_GRAPH = "3a2433f737b832b57fc74d20cb9511543550e51d1aee3400d2064371e7f9e00c"
# `weyl` outputs recorded while every element stored its word; at --cap 40
# the B3, F4 and affine A1 groups are truncated balls
_F4 = {"cartan": [[2, -1, 0, 0], [-1, 2, -2, 0], [0, -1, 2, -1],
                  [0, 0, -1, 2]]}
_AFF = {"cartan": [[2, -2], [-2, 2]]}
# E6 in Bourbaki's labelling: the path 1-3-4-5-6, and 2-4
_E6 = {"cartan": [[2, 0, -1, 0, 0, 0], [0, 2, 0, -1, 0, 0],
                  [-1, 0, 2, -1, 0, 0], [0, -1, -1, 2, -1, 0],
                  [0, 0, 0, -1, 2, -1], [0, 0, 0, 0, -1, 2]]}


@pytest.mark.parametrize("command, raw, flags, digest", [
    ("stt", _G2, ["--json"],
     "674a1b398e11c5b05a8fecfde0af22f35ea46a3dbeca408431ec5b1126328506"),
    ("stt", _B2_42, ["--json"],
     "9d6cfdef04733e7ef6e706ea485dc53ed51a105220de2278a986180f466a52c3"),
    ("stt", _B3, ["--json"],
     "00132ddd7d674079946f672c8540f22253bc9cca0217f9f395e7d961b83f0633"),
    ("stt", _C3, ["--json"],
     "bc972706b609528d2d76e440790489f1c1ef937b021cd23e517fd3e24d7d8ec6"),
    ("stt", _D4, ["--json"],
     "5c058064867e1a85d4666d2997af5b3f30d4aa5dc814439e96d18535386555b2"),
    ("mutation-graph", _G2, ["--json"],
     "879004047a5f22091c0c41dd94253ddbf14d5c62c89977dd5822380f1b25c0f1"),
    ("mutation-graph", _B2_42, ["--json"],
     "d02486cd7d2b7ba94cfb8fb87cd0b01801b045585dee935845db0e4293c82523"),
    ("mutation-graph", _B4, ["--json"], _B4_GRAPH),
    ("mutation-graph", _B4, ["--json", "--field", "fp:2"], _B4_GRAPH),
    ("mutation-graph", _B4, ["--json", "--field", "fp:3"], _B4_GRAPH),
    ("verify", _G2, [],
     "48cbb1dd4dbbf2cdb35de559f46669f851f33f7d647065c7eff61846a3309821"),
    ("verify", _B3, ["--field", "fp:101"],
     "dd563e4b212b749e968795b63ad1d39c0e5fc69481eef2afca4b445c0327f134"),
    ("verify", _F4, [],
     "63fc812eb0d41647af82aa4be2fe3965d574da9fa0712ac605d0f172784b93cf"),
    ("stt", _E6, ["--json"],
     "bed32e0cdb1ba36f0502a53a39123b483cb7695fafc1ede5a2409ca568743796"),
    ("weyl", _G2, ["--cap", "40"],
     "2c9aeab79b4c25d792b7b7d61add759227683a977fd3a4021b3d03827d79d577"),
    ("weyl", _G2, ["--cap", "40", "--json"],
     "42d76aa4d9cff16882012d3c3af60c9b75ab3a3be2145776f3c870643e206385"),
    ("weyl", _B3, ["--cap", "40"],
     "2183f6c75a290a504e23480e6e9dfabbd330cff0d90b6fbecdf6d9901fbd834a"),
    ("weyl", _B3, ["--cap", "40", "--json"],
     "38bafa04966bfd572381b8ee5efab44e63ed71a449739c01b34ccb1f067828b9"),
    ("weyl", _F4, ["--cap", "40"],
     "d001a163b41f76108d928360136371be2885c463b5319405826a13bcc0754b16"),
    ("weyl", _F4, ["--cap", "40", "--json"],
     "79a7a35a7950c8a9ef9f3ae490617b93865baacb322b438617836338b9fbc04e"),
    ("weyl", _AFF, ["--cap", "40"],
     "e810c166e0a3738062e87355a645755845166e4710479467e9dffe04e8d19a36"),
    ("weyl", _AFF, ["--cap", "40", "--json"],
     "743c419207e688688305cfa16aa31d7b8235eb4ea6acc8699ddc2f6aa8f8765a"),
], ids=["stt-g2", "stt-b2-42", "stt-b3", "stt-c3", "stt-d4", "graph-g2",
        "graph-b2-42", "graph-b4-json", "graph-b4-json-fp2",
        "graph-b4-json-fp3", "verify-g2", "verify-b3-fp101", "verify-f4",
        "stt-e6-json", "weyl-g2",
        "weyl-g2-json", "weyl-b3", "weyl-b3-json", "weyl-f4", "weyl-f4-json",
        "weyl-affine", "weyl-affine-json"])
def test_golden_stdout(command, raw, flags, digest, capsys):
    assert main([command, "--config", json.dumps(raw), *flags]) == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == digest


# `algebra` outputs recorded while the radical layers were computed on dense
# vectors of Pi; reading them from the module layer must leave them byte for
# byte unchanged.  The text outputs do not name the field, so QQ and F_101
# share their digests.
_ALGEBRA_GOLDEN = {
    "g2": (_G2, {
        "text": "7041948ab27a61284821af4aaff3f23e13500e20a4e1a00856ec6de4e3d32c49",
        "json": "a14b7bca427d1e67e8951fa0e1cd3b29ab2f281c532c3d7b3cc184013d7a0cee",
        "json-fp101": "a23325b9a5f618e0d48bfbf72702d518609714214be6ca6ebdd421abd1a55451",
        "basis": "9cf95637fedf5abecfa2181a2a0c1dbb3ae0760be84f3104d8d0aa22c2efddc2",
    }),
    "b2-42": (_B2_42, {
        "text": "b7711a2ae68dab7bf493f9867ae045041eb9d2d169f0b4df87d32e3daaba372a",
        "json": "efe474a4c926314eed87dfbed5f7df118f67e9fc76c93f3ebc3b1dbe8cdb252d",
        "json-fp101": "ba11b03b084418bf3dcc15788934506a0e71baa2727f47651eaf57bce889cebc",
        "basis": "2024947073896eac78e0fa97dc60574706d3f02cf380e4afd9397fc4387893ff",
    }),
    "b3": (_B3, {
        "text": "7e56470fe2710ed3e304af1271da7d6857bd091a6b8ce61feea46c7a2935c12e",
        "json": "7862625b3710633ad745535fc81b6c9a395d4eb939d4788591c25a647d1ee646",
        "json-fp101": "2109fb235caf0de836f68bb49e58043a348ea45e7f08a5213196e5ab3681c3ae",
        "basis": "77141e0d0d0b229281c90fdec255548512f3cd1a418c3b367cc08bd61f602292",
    }),
    "d4": (_D4, {
        "text": "ed6ddb89aaefc240fb4dbaf28626577a0606361c69140215c13b818f9767ec6d",
        "json": "957d67ad85a1aa511fa7d1ee956b8c850ecb0b3f22aed75a9e5f58cb4853a6a5",
        "json-fp101": "632e2da0f65b9ca5d0940a4b0e84ee1d15be0dc798af7618359eebe29c91e383",
        "basis": "2fbe5d94ffc5b08e68ea053894f414f0023e39e62b139efba78a4797884a878f",
    }),
}
_ALGEBRA_FLAGS = {
    "text": ([], "text"),
    "json": (["--json"], "json"),
    "basis": (["--basis"], "basis"),
    "text-fp101": (["--field", "fp:101"], "text"),
    "json-fp101": (["--json", "--field", "fp:101"], "json-fp101"),
    "basis-fp101": (["--basis", "--field", "fp:101"], "basis"),
}


@pytest.mark.parametrize("variant", sorted(_ALGEBRA_FLAGS))
@pytest.mark.parametrize("name", sorted(_ALGEBRA_GOLDEN))
def test_algebra_golden_stdout(name, variant, capsys):
    raw, digests = _ALGEBRA_GOLDEN[name]
    flags, key = _ALGEBRA_FLAGS[variant]
    assert main(["algebra", "--config", json.dumps(raw), *flags]) == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == digests[key]


def test_python_m_preproj_runs_the_cli(capsys):
    """``python -m preproj`` runs ``main`` with the command-line arguments:
    the same stdout and exit code as in process, and exit 2 on a bad
    config key."""
    env = {**os.environ,
           "PYTHONPATH": str(Path(preproj.__file__).resolve().parents[1])}

    def run(*argv):
        return subprocess.run([sys.executable, "-m", "preproj", *argv],
                              capture_output=True, text=True, env=env,
                              timeout=120, check=False)

    done = run("check", "--config", json.dumps(EG1))
    assert main(["check", "--config", json.dumps(EG1)]) == 0
    assert (done.returncode, done.stdout) == (0, capsys.readouterr().out)
    bad = run("check", "--config",
              json.dumps({**EG1, "caps": {"max_degre": 8}}))
    assert bad.returncode == 2
    assert bad.stderr.startswith("error: caps.max_degre: unknown key")
