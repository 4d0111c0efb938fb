#!/usr/bin/env python3
"""Reproduces the driver's steadiness check: runs BENCHMARK.json's command ten
times on each workload, each time with another seed, and prints for every
end-to-end metric the distance between the first and third quartile of its ten
values as a share of their median, next to the metric's bound.

Run from the repository root:  python3 benchmark/spread.py [first_seed]
It takes about 20 minutes; run nothing else on the box meanwhile."""
import json
import statistics
import subprocess
import sys

RUNS = 10


def main():
    first_seed = int(sys.argv[1]) if len(sys.argv) > 1 else 1
    spec = json.load(open("BENCHMARK.json"))
    over = []
    for workload in (w["name"] for w in spec["workloads"]):
        values = {m["name"]: [] for m in spec["end_to_end"]}
        for i in range(RUNS):
            cmd = spec["command"] + ["--workload", workload, "--seed", str(first_seed + i),
                                     "--seconds", str(spec["run_seconds"]), "--trace", "0"]
            out = subprocess.run(cmd, check=True, capture_output=True, text=True).stdout
            result = json.loads(out.strip().splitlines()[-1])
            if not result["correct"] or result["failed"]:
                sys.exit(f"{workload} seed {first_seed + i}: {result['failed']} of {result['attempted']} failed")
            for name, v in result["metrics"].items():
                values[name].append(v["value"])
        print(workload)
        for m in spec["end_to_end"]:
            q1, q2, q3 = statistics.quantiles(values[m["name"]], n=4)
            spread = (q3 - q1) / q2
            mark = ""
            if m["name"] != "setup_s" and spread > m["bound"]:
                mark = "  OVER THE BOUND"
                over.append(f"{workload}/{m['name']}")
            elif spread > m["bound"] / 3:
                mark = "  over a third of the bound"
            print(f"  {m['name']:22s} median {q2:14.6g} {m['unit']:6s} spread {spread:8.3%}  bound {m['bound']:6.1%}{mark}")
    if over:
        sys.exit("spread over the bound: " + ", ".join(over))


if __name__ == "__main__":
    main()
