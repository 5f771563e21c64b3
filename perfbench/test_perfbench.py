"""Self-tests of the benchmark: python3 -m pytest perfbench -q"""

import contextlib
import io
import itertools
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(ROOT / "src"))

import oracle  # noqa: E402
import tracing  # noqa: E402
from workloads import (CARTAN, DEFAULT_SEED, HELDOUT_SEED,  # noqa: E402
                       UNBUILDABLE_LABELLINGS, WORKLOADS, Config, make_configs)
from preproj.errors import CapExceeded  # noqa: E402


def _call(argv):
    from preproj.cli import main
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = main(list(argv))
    return code, buf.getvalue()


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_generator_is_deterministic(workload):
    for seed in (DEFAULT_SEED, HELDOUT_SEED, 1, 2):
        assert make_configs(workload, seed) == make_configs(workload, seed)
    assert make_configs(workload, 1) != make_configs(workload, 2)


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_generated_configs_are_valid_relabellings(workload):
    from preproj.cli import load_config
    for seed in (DEFAULT_SEED, HELDOUT_SEED, 3):
        for cfg in make_configs(workload, seed):
            raw = cfg.raw
            loaded = load_config(json.dumps(raw))
            c = CARTAN[cfg.type_name]
            assert sorted(map(sorted, raw["cartan"])) == sorted(map(sorted, c))
            assert oracle.tau_rigid_count(raw["cartan"]) == oracle.tau_rigid_count(c)
            assert loaded.seed == raw["seed"]
            if seed == DEFAULT_SEED:
                assert "orientation" not in raw


def _labelling(cfg_raw, type_name):
    """New labels of the original vertices, read back from a relabelled matrix."""
    c, new = CARTAN[type_name], cfg_raw["cartan"]
    n = len(c)
    for perm in itertools.permutations(range(n)):
        if all(new[perm[i]][perm[j]] == c[i][j] for i in range(n) for j in range(n)):
            yield tuple(p + 1 for p in perm)


def test_generator_skips_unbuildable_labellings():
    for seed in range(1, 200):
        for cfg in make_configs("stt-b4-qq", seed):
            bad = UNBUILDABLE_LABELLINGS["B4"]
            assert not bad.intersection(_labelling(cfg.raw, "B4")), seed


@pytest.mark.xfail(strict=True, raises=CapExceeded,
                   reason="known defect: the Groebner completion of "
                          "preproj.pathalg diverges for these B4 labellings")
def test_unbuildable_labellings_still_fail_to_build():
    """Once the package builds all of them this passes, which strict xfail
    reports as a failure; then UNBUILDABLE_LABELLINGS can go."""
    from preproj.cli import config_from_dict
    from preproj.pathalg import build_algebra
    c = CARTAN["B4"]
    for chain in sorted(UNBUILDABLE_LABELLINGS["B4"]):
        new = [[0] * 4 for _ in range(4)]
        for i in range(4):
            for j in range(4):
                new[chain[i] - 1][chain[j] - 1] = c[i][j]
        cfg = config_from_dict({"cartan": new})
        build_algebra(cfg.data, cfg.field, cfg.max_degree, cfg.max_basis)


def test_closed_forms():
    orders = {"A2": 6, "B2": 8, "G2": 12, "B3": 48, "C3": 48, "A4": 120,
              "D4": 192, "B4": 384}
    rigid = {"A2": 4, "B2": 6, "G2": 10, "B3": 23, "C3": 23, "A4": 26,
             "D4": 44, "B4": 76}
    for name, c in CARTAN.items():
        assert oracle.weyl_order(name) == orders[name]
        assert oracle.tau_rigid_count(c) == rigid[name]


A2 = Config("A2", ("verify", "--config", json.dumps({"cartan": CARTAN["A2"]})))
A2_STT = Config("A2", ("stt", "--config", json.dumps({"cartan": CARTAN["A2"]})))


@pytest.mark.parametrize("cfg", [A2, A2_STT])
def test_oracle_accepts_and_rejects_tampered_counts(cfg):
    code, out = _call(cfg.argv)
    assert oracle.check_output(cfg, code, out, oracle.sha256(out)) == []
    if cfg.argv[0] == "verify":
        tampered = [out.replace("6 support tau-tilting modules",
                                "7 support tau-tilting modules"),
                    out.replace("E1, ", ""),
                    out.replace("PASS homological", "FAIL homological")]
    else:
        tampered = [out.replace("6 support tau-tilting pairs",
                                "7 support tau-tilting pairs"),
                    "\n".join(out.splitlines()[:-1]) + "\n",
                    out.replace("E1", "E9", 1)]
    for bad in tampered:
        assert bad != out
        assert oracle.check_output(cfg, code, bad) != []
    assert oracle.check_output(cfg, 1, out) != []
    assert oracle.check_output(cfg, code, out, oracle.sha256(out + " ")) != []


def test_every_wrapper_records_calls():
    """Catches a missed by-name binding: an unwrapped alias records nothing."""
    tracer = tracing.Tracer()
    tracer.install()
    try:
        for cfg in (A2, A2_STT):
            tracer.request = cfg.argv[0]
            code, _ = _call(cfg.argv)
            assert code == 0
    finally:
        tracer.uninstall()
    for name, calls in ((n, t[0]) for n, t in tracer.totals.items()):
        assert calls > 0, name
    metrics = tracer.metrics()
    assert metrics["pathalg.dim"] == 2 * 4
    assert metrics["coxeter.order"] == 2 * 6
    assert len(tracer.spans) > 0
    assert all(s[2] >= s[1] for s in tracer.spans)
    from preproj import cli, repmod
    assert not hasattr(cli.main, "__wrapped__")
    assert not hasattr(repmod.hom_space, "__wrapped__")


def test_self_time_excludes_children():
    tracer = tracing.Tracer()
    tracer.install()
    try:
        _call(A2.argv)
    finally:
        tracer.uninstall()
    calls, total, self_s = tracer.totals["cli.main"]
    assert calls == 1 and 0 < self_s < total


def test_metric_list_matches_benchmark_json():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == list(tracing.METRICS)
    import run
    assert ([(m["name"], m["unit"]) for m in spec["end_to_end"]]
            == list(run.END_TO_END_UNITS.items()))
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)


def test_run_refuses_a_tree_without_the_package(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "stt-b4-qq",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert done.returncode != 0
    assert done.stdout == ""
