#!/usr/bin/env python3
"""Run-to-run spread of the benchmark's end-to-end metrics.

Runs one workload once per seed (untraced) and prints, for every
end-to-end metric, the median of the runs and the distance between the
first and third quartiles as a share of that median, next to the bound
BENCHMARK.json fixes for the metric.

    python3 e2ebench/spread.py train-tiramisu-1r 1 2 3 4 5 6 7 8 9 10

Run it from the repository root after building the benchmark once.
"""

import json
import statistics
import subprocess
import sys


def main() -> int:
    if len(sys.argv) < 3:
        print(__doc__)
        return 2
    workload, seeds = sys.argv[1], sys.argv[2:]
    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    values = {name: [] for name in bounds}
    for seed in seeds:
        cmd = bench["command"] + [
            "--workload", workload, "--seed", seed,
            "--seconds", str(bench["run_seconds"]), "--trace", "0",
        ]
        run = subprocess.run(cmd, capture_output=True, text=True)
        result = json.loads(run.stdout.strip().splitlines()[-1])
        if run.returncode != 0 or not result["correct"]:
            print(f"seed {seed}: run failed (exit {run.returncode})", file=sys.stderr)
            return 1
        for name in bounds:
            values[name].append(result["metrics"][name]["value"])
        print(f"seed {seed}: " + ", ".join(f"{n}={values[n][-1]:.4g}" for n in bounds), flush=True)
    ok = True
    for name, v in values.items():
        med = statistics.median(v)
        q1, _, q3 = statistics.quantiles(v, n=4)
        spread = (q3 - q1) / med
        mark = "ok" if spread <= bounds[name] / 3 else ("WIDE" if spread <= bounds[name] else "OVER")
        ok &= name == "setup_s" or spread <= bounds[name]
        print(f"{workload} {name:<18} median {med:12.4f}  spread {spread:6.3f}  bound {bounds[name]:.2f}  {mark}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
