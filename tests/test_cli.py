import gc
import hashlib
import json
import weakref

import pytest
from conftest import weyl_orbit_sizes

from preproj.cli import config_from_dict, load_config, main, run_command
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
    code, out = run_command(cfg, "algebra")
    assert code == 0
    payload = json.loads(out)
    assert payload["dim"] == 10
    assert payload["vertex_dims"] == [6, 4]
    assert len(payload["basis"]) == 10
    # round trip
    assert json.loads(json.dumps(payload)) == payload


def test_cmd_weyl():
    cfg = load_config(json.dumps(EG1))
    cfg.json_out = True
    code, out = run_command(cfg, "weyl")
    assert code == 0
    payload = json.loads(out)
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


def test_cmd_mutation_graph_outputs():
    cfg = load_config(json.dumps(EG2))
    cfg.dot = True
    code, out = run_command(cfg, "mutation-graph")
    assert code == 0
    assert out.startswith("digraph")
    assert out.count("->") == 8
    cfg.dot = False
    cfg.json_out = True
    code, out = run_command(cfg, "mutation-graph")
    payload = json.loads(out)
    assert len(payload["nodes"]) == 8
    assert len(payload["edges"]) == 8
    assert json.loads(json.dumps(payload)) == payload


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


def test_stt_builds_each_block_once(monkeypatch, capsys):
    """B3 ``stt`` builds at most one module per distinct nonzero block,
    sum_i (|W omega_i| - 1) of them, plus the n projectives."""
    import preproj.repmod as repmod
    import preproj.tautilt as tautilt
    b3 = [[2, -1, 0], [-1, 2, -1], [0, -2, 2]]
    calls = []
    build = repmod.module_from_subspace

    def counting(*args, **kwargs):
        calls.append(1)
        return build(*args, **kwargs)

    monkeypatch.setattr(repmod, "module_from_subspace", counting)
    monkeypatch.setattr(tautilt, "module_from_subspace", counting)
    assert main(["stt", "--config", json.dumps({"cartan": b3})]) == 0
    assert "48 support tau-tilting pairs" in capsys.readouterr().out
    bound = sum(s - 1 for s in weyl_orbit_sizes(b3)) + len(b3)
    assert bound == 26
    assert 0 < len(calls) <= bound


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
])
def test_main_bad_config_key_exits_2(extra, key, capsys):
    raw = {"cartan": [[2, -1], [-1, 2]], **extra}
    assert main(["check", "--config", json.dumps(raw)]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: {key}:"), err


# Outputs recorded from the package before ideals were stored as blocks;
# a refactor of the ideal layer must leave them byte for byte unchanged.
_G2 = {"cartan": [[2, -1], [-3, 2]]}
_B2_42 = {"cartan": [[2, -1], [-2, 2]], "symmetrizer": [4, 2]}
_B3 = {"cartan": [[2, -1, 0], [-1, 2, -1], [0, -2, 2]]}
_C3 = {"cartan": [[2, -1, 0], [-1, 2, -2], [0, -1, 2]]}
_D4 = {"cartan": [[2, -1, 0, 0], [-1, 2, -1, -1], [0, -1, 2, 0],
                  [0, -1, 0, 2]]}


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
    ("verify", _G2, [],
     "48cbb1dd4dbbf2cdb35de559f46669f851f33f7d647065c7eff61846a3309821"),
    ("verify", _B3, ["--field", "fp:101"],
     "dd563e4b212b749e968795b63ad1d39c0e5fc69481eef2afca4b445c0327f134"),
], ids=["stt-g2", "stt-b2-42", "stt-b3", "stt-c3", "stt-d4", "graph-g2",
        "graph-b2-42", "verify-g2", "verify-b3-fp101"])
def test_golden_stdout(command, raw, flags, digest, capsys):
    assert main([command, "--config", json.dumps(raw), *flags]) == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == digest
