#!/usr/bin/env python3
"""Run every workload once and print each metric by name, value and unit.

    python3 perfbench/report.py [--seconds 30] [--seed 1] [--trace]

Also prints whether the outputs were correct, and flags any metric that
BENCHMARK.json lists but a run did not report, or the reverse. With --trace
it adds the traced run of each workload and its per-layer metrics.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seconds", type=int, default=None,
                        help="measuring time per run (default: run_seconds of BENCHMARK.json)")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--trace", action="store_true", help="also run and print the traced runs")
    args = parser.parse_args()

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = args.seconds or spec["run_seconds"]
    expected = {0: [m["name"] for m in spec["end_to_end"]], 1: [m["name"] for m in spec["per_layer"]]}
    ok = True
    for workload in spec["workloads"]:
        for trace in ((0, 1) if args.trace else (0,)):
            cmd = spec["command"] + ["--workload", workload["name"], "--seed", str(args.seed),
                                     "--seconds", str(seconds), "--trace", str(trace)]
            proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=900)
            if proc.returncode != 0:
                print(f"{workload['name']} trace={trace}: exit {proc.returncode}\n{proc.stderr}")
                ok = False
                continue
            result = json.loads(proc.stdout.splitlines()[-1])
            metrics = result["metrics"]
            missing = sorted(set(expected[trace]) - set(metrics))
            extra = sorted(set(metrics) - set(expected[trace]))
            good = result["correct"] and not missing and not extra
            ok = ok and good
            print(f"{workload['name']} trace={trace}: correct={result['correct']} "
                  f"attempted={result['attempted']} failed={result['failed']}")
            for name in expected[trace]:
                if name in metrics:
                    print(f"  {name:<48} {metrics[name]['value']:>16.6g} {metrics[name]['unit']}")
            if missing or extra:
                print(f"  missing {missing}; not in BENCHMARK.json {extra}")
            if not result["correct"]:
                print(f"  {proc.stdout.splitlines()[-2]}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
