"""Run the benchmark several times on fresh seeds and report each
end-to-end metric's spread against its bound in BENCHMARK.json.

    python3 perfbench/steadiness.py --workload corner-memory --runs 10

The spread is the interquartile distance of the runs' values as a share
of their median, as statistics.quantiles(values, n=4) gives the
quartiles. A benchmark is steady when every spread except setup_s stays
well under its metric's bound.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
import time
from pathlib import Path

import stats

ROOT = Path(__file__).resolve().parent.parent


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", action="append", required=True)
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=spec["run_seconds"])
    args = parser.parse_args(argv)
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    steady = True
    for workload in args.workload:
        values: dict[str, list[float]] = {name: [] for name in bounds}
        walls = []
        for k in range(args.runs):
            seed = args.first_seed + k
            start = time.perf_counter()
            proc = subprocess.run(
                spec["command"] + ["--workload", workload, "--seed", str(seed),
                                   "--seconds", str(args.seconds), "--trace", "0"],
                cwd=ROOT, capture_output=True, text=True, timeout=600)
            walls.append(time.perf_counter() - start)
            if proc.returncode != 0:
                print(proc.stderr, file=sys.stderr)
                return 1
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            if not result["correct"]:
                print(f"{workload} seed {seed}: outputs incorrect", file=sys.stderr)
                steady = False
            for name in bounds:
                values[name].append(result["metrics"][name]["value"])
        print(f"{workload}: {args.runs} runs, wall {min(walls):.1f}-{max(walls):.1f} s")
        for name, bound in bounds.items():
            share = stats.spread(values[name])
            ok = name == "setup_s" or share < bound / 3
            steady &= ok
            print(f"  {name:14s} median {stats.median(values[name]):12.4f}  "
                  f"spread {share:6.3f}  bound {bound:.2f}  {'ok' if ok else 'WIDE'}")
    return 0 if steady else 2


if __name__ == "__main__":
    sys.exit(main())
