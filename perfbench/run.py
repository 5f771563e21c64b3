"""Run one workload of the preproj benchmark and print its metrics.

    python3 perfbench/run.py --workload stt-b4-qq --seed 0 --seconds 30 --trace 0

The load is one closed-loop caller in one thread: each config of the
workload goes to ``preproj.cli.main`` only after the previous call returned,
and each call builds its own algebra, as a CLI user's call does.  A pass is
one call per config.  Passes repeat while another one fits in ``--seconds``
(at least one runs).  Every output is checked by ``oracle.py``.

``--trace 0`` reports the end-to-end metrics: the medians over passes of
``run_s`` (wall) and ``run_cpu_s`` (process CPU), ``setup_s`` (median of
several cold set-ups, each in a fresh process) and ``peak_rss_mb``.
``--trace 1`` alternates untraced and traced passes and reports the
per-layer metrics of ``tracing.py`` (medians over traced passes) plus
``trace_overhead_s``; the spans go to ``.perfbench-out/`` at the root.

The last stdout line is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.  Exit code 0 when every output
passes the oracle, 1 when one fails, 2 when the tree holds no package.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import resource
import statistics
import subprocess
import sys
import traceback
from pathlib import Path
from time import perf_counter, process_time

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench-out"

sys.path.insert(0, str(HERE))
from oracle import GOLDEN, check_output, load_golden, sha256  # noqa: E402
from tracing import METRICS, Tracer, median_metrics  # noqa: E402
from workloads import DEFAULT_SEED, WORKLOADS, make_configs  # noqa: E402

SETUP_PROBES = 7     # cold set-ups per run; the median is reported
END_TO_END_UNITS = {"run_s": "s", "run_cpu_s": "s", "setup_s": "s",
                    "peak_rss_mb": "MB"}


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, default=DEFAULT_SEED)
    p.add_argument("--seconds", type=float, default=30.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--record-golden", action="store_true",
                   help="store the sha256 of this workload's default-seed "
                        "outputs in golden.json")
    return p.parse_args(argv)


def measure_setup(configs):
    """Median cold set-up time; the first probe also compiles bytecode."""
    payload = json.dumps([list(c.argv) for c in configs])
    times = []
    for _ in range(SETUP_PROBES + 1):
        done = subprocess.run(
            [sys.executable, str(HERE / "setup_probe.py"), str(SRC), payload],
            capture_output=True, text=True, check=True, timeout=150)
        times.append(float(done.stdout))
    return statistics.median(times[1:])


def run_pass(cli, configs, tracer=None):
    """One call per config; returns (wall s, CPU s, [(exit code, stdout)])."""
    results = []
    wall0, cpu0 = perf_counter(), process_time()
    for cfg in configs:
        if tracer is not None:
            tracer.request = cfg.type_name
        buf = io.StringIO()
        try:
            with contextlib.redirect_stdout(buf):
                code = cli.main(list(cfg.argv))
        except Exception:  # a crash is a failed check, not a dead benchmark
            traceback.print_exc()
            code = None
        results.append((code, buf.getvalue()))
    return perf_counter() - wall0, process_time() - cpu0, results


class Checker:
    """Runs the oracle on every call and keeps the counts."""

    def __init__(self, workload, configs, golden):
        self.workload = workload
        self.configs = configs
        self.golden = golden
        self.attempted = 0
        self.failed = 0

    def __call__(self, results):
        for cfg, (code, out) in zip(self.configs, results):
            self.attempted += 1
            key = f"{self.workload}/{cfg.type_name}"
            problems = check_output(cfg, code, out, self.golden.get(key))
            if problems:
                self.failed += 1
                print(f"FAIL {key}: " + "; ".join(problems), file=sys.stderr)


def record_golden(workload, results, configs):
    golden = load_golden() if GOLDEN.exists() else {}
    for cfg, (_, out) in zip(configs, results):
        golden[f"{workload}/{cfg.type_name}"] = sha256(out)
    GOLDEN.write_text(json.dumps(golden, indent=2, sort_keys=True) + "\n")


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "preproj" / "__init__.py").is_file():
        print(f"error: no preproj package at {SRC / 'preproj'}", file=sys.stderr)
        return 2
    if args.record_golden and args.seed != DEFAULT_SEED:
        print("error: --record-golden needs the default seed", file=sys.stderr)
        return 2
    configs = make_configs(args.workload, args.seed)
    golden = {}
    if args.seed == DEFAULT_SEED and not args.record_golden:
        golden = load_golden()
    check = Checker(args.workload, configs, golden)

    setup_s = None if args.trace else measure_setup(configs)
    sys.path.insert(0, str(SRC))
    import preproj.cli as cli

    walls, cpus, traced_walls, layers, tracers = [], [], [], [], []
    start = perf_counter()
    while True:
        wall, cpu, results = run_pass(cli, configs)
        check(results)
        walls.append(wall)
        cpus.append(cpu)
        if args.record_golden:
            record_golden(args.workload, results, configs)
            break
        if args.trace:
            tracer = Tracer()
            tracer.install()
            origin = perf_counter()
            try:
                twall, _, results = run_pass(cli, configs, tracer)
            finally:
                tracer.uninstall()
            check(results)
            traced_walls.append(twall)
            layers.append(tracer.metrics())
            tracers.append((tracer, origin))
        elapsed = perf_counter() - start
        if elapsed + elapsed / len(walls) > args.seconds:
            break

    if args.trace:
        per_layer = median_metrics(layers)
        per_layer["trace_overhead_s"] = (statistics.median(traced_walls)
                                         - statistics.median(walls))
        metrics = {name: {"value": per_layer[name], "unit": unit}
                   for name, unit in METRICS}
        OUT.mkdir(exist_ok=True)
        for k, (tracer, origin) in enumerate(tracers):
            tracer.write(OUT / f"spans-{args.workload}-seed{args.seed}-pass{k}.jsonl",
                         origin)
    else:
        values = {
            "run_s": statistics.median(walls),
            "run_cpu_s": statistics.median(cpus),
            "setup_s": setup_s,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        }
        metrics = {name: {"value": v, "unit": END_TO_END_UNITS[name]}
                   for name, v in values.items()}

    print(f"{args.workload} seed {args.seed}: {len(walls)} passes, "
          f"{check.failed} of {check.attempted} calls failed "
          f"(fail_frac {check.failed / check.attempted:g})")
    for name, m in metrics.items():
        print(f"  {name:50s} {m['value']:.6g} {m['unit']}")
    print(json.dumps({"correct": check.failed == 0, "attempted": check.attempted,
                      "failed": check.failed, "metrics": metrics}))
    return 0 if check.failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
