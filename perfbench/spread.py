#!/usr/bin/env python3
"""Run-to-run spread of the end-to-end metrics.

    python3 perfbench/spread.py --workload coarse-serial --runs 10 [--seconds 30] [--first-seed 1]

Runs ``perfbench/run.py`` once per seed (``first-seed``, ``first-seed+1``,
...) and prints, per end-to-end metric, the median, the inter-quartile
distance as a share of the median (``statistics.quantiles(values, n=4)``)
and that spread against the metric's bound in BENCHMARK.json. A spread
above a third of the bound means the benchmark is not steady enough.
"""

import argparse
import json
import subprocess
import sys
from pathlib import Path

sys.dont_write_bytecode = True
sys.path.insert(0, str(Path(__file__).resolve().parent))
import stats  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--seconds", type=float)
    ap.add_argument("--first-seed", type=int, default=1)
    args = ap.parse_args()
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = args.seconds or bench["run_seconds"]
    values = {m["name"]: [] for m in bench["end_to_end"]}
    for i in range(args.runs):
        seed = args.first_seed + i
        done = subprocess.run(
            [sys.executable, "perfbench/run.py", "--workload", args.workload, "--seed", str(seed),
             "--seconds", str(seconds), "--trace", "0"],
            cwd=ROOT, capture_output=True, text=True, check=True)
        result = json.loads(done.stdout.strip().splitlines()[-1])
        if not result["correct"] or result["failed"]:
            sys.exit(f"seed {seed}: run not correct: {result}")
        row = {k: v["value"] for k, v in result["metrics"].items()}
        print(f"seed {seed}: " + " ".join(f"{k}={v:.4g}" for k, v in row.items()), flush=True)
        for k, v in row.items():
            values[k].append(v)
    steady = True
    for m in bench["end_to_end"]:
        vs = values[m["name"]]
        spread = stats.quartile_spread(vs)
        ok = spread < m["bound"] / 3
        steady &= ok
        print(f"{m['name']:<16} median {stats.median(vs):<12.5g} spread {spread:7.2%} "
              f"bound {m['bound']:.0%} {'ok' if ok else 'TOO WIDE'}")
    sys.exit(0 if steady else 1)


if __name__ == "__main__":
    main()
