"""Run every workload several times and summarise the runs.

    python3 perfbench/report.py                      # one run per workload
    python3 perfbench/report.py --runs 10 --trace --out perfbench/BASELINE.json

Each run is a fresh ``run.py`` process with BENCHMARK.json's
``run_seconds``.  The runs use the default seed, the held-out seed, then
1, 2, ... in turn.  For every end-to-end metric the report gives the
median, the quartiles (``statistics.quantiles(n=4)``), the sample count and
the quartile spread as a share of the median next to the metric's bound in
BENCHMARK.json; ``fail_frac`` is failed calls over attempted calls.
``--trace`` adds one traced run per workload on the default seed.  Exit
code 1 if any run failed a correctness check or did not finish.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
from workloads import DEFAULT_SEED, HELDOUT_SEED, WORKLOADS  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def default_seeds(runs):
    extra = (s for s in range(1, runs + 2) if s not in (DEFAULT_SEED, HELDOUT_SEED))
    return ([DEFAULT_SEED, HELDOUT_SEED] + list(extra))[:runs]


def run_once(workload, seed, seconds, trace):
    """One run.py process; returns its result object, or None if it broke."""
    done = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=900)
    sys.stderr.write(done.stderr)
    lines = done.stdout.splitlines()
    if not lines:
        return None
    try:
        return json.loads(lines[-1])
    except json.JSONDecodeError:
        return None


def summarise(values):
    q1, med, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else values * 3
    return {"median": med, "q1": q1, "q3": q3, "n": len(values),
            "spread": (q3 - q1) / med if med else 0.0}


def git_commit():
    try:
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True, timeout=10)
    except OSError:
        return "unknown"
    return done.stdout.strip() or "unknown"


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--runs", type=int, default=1)
    p.add_argument("--trace", action="store_true")
    p.add_argument("--out", type=Path, help="write the summary as JSON here")
    args = p.parse_args(argv)
    seeds = default_seeds(args.runs)
    seconds = SPEC["run_seconds"]
    bounds = {m["name"]: m["bound"] for m in SPEC["end_to_end"]}

    results = {w: [] for w in WORKLOADS}
    broken = 0
    for seed in seeds:                       # interleave workloads per seed
        for w in WORKLOADS:
            res = run_once(w, seed, seconds, 0)
            if res is None:
                broken += 1
                print(f"{w} seed {seed}: no result", file=sys.stderr)
            else:
                results[w].append((seed, res))
    layers = {}
    if args.trace:
        for w in WORKLOADS:
            res = run_once(w, DEFAULT_SEED, seconds, 1)
            if res is None:
                broken += 1
            else:
                layers[w] = res

    summary = {}
    failed_any = broken > 0
    for w, runs in results.items():
        attempted = sum(r["attempted"] for _, r in runs)
        failed = sum(r["failed"] for _, r in runs)
        failed_any |= failed > 0 or any(not r["correct"] for _, r in runs)
        entry = {"seeds": [s for s, _ in runs],
                 "fail_frac": failed / attempted if attempted else 1.0,
                 "attempted": attempted, "failed": failed, "metrics": {}}
        print(f"{w}: {len(runs)} runs, fail_frac {entry['fail_frac']:g} "
              f"({failed} of {attempted} calls)")
        for m in SPEC["end_to_end"]:
            vals = [r["metrics"][m["name"]]["value"] for _, r in runs]
            if not vals:
                continue
            s = summarise(vals)
            s["unit"] = m["unit"]
            s["values"] = vals
            entry["metrics"][m["name"]] = s
            print(f"  {m['name']:12s} median {s['median']:.4g} {m['unit']:3s} "
                  f"q1 {s['q1']:.4g} q3 {s['q3']:.4g} n {s['n']}  "
                  f"spread {s['spread']:.3f} (bound {bounds[m['name']]})")
        if w in layers:
            entry["per_layer_default_seed"] = layers[w]["metrics"]
            for k, v in layers[w]["metrics"].items():
                print(f"    {k:50s} {v['value']:.6g} {v['unit']}")
        summary[w] = entry

    if args.out:
        doc = {
            "commit": git_commit(),
            "python": platform.python_version(),
            "machine": platform.machine(),
            "nproc": os.cpu_count(),
            "run_seconds": seconds,
            "runs_per_workload": len(seeds),
            "default_seed": DEFAULT_SEED,
            "heldout_seed": HELDOUT_SEED,
            "workloads": summary,
        }
        args.out.write_text(json.dumps(doc, indent=2) + "\n")
    return 1 if failed_any else 0


if __name__ == "__main__":
    sys.exit(main())
