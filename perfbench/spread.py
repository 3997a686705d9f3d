#!/usr/bin/env python3
"""Runs the benchmark once per seed and reports each metric's spread.

    python3 perfbench/spread.py --workload fig7 --seeds 1-10

Run from the repository root. For each metric it prints the median of
the runs and the distance between their first and third quartiles as a
share of that median (statistics.quantiles(values, n=4)), next to the
metric's bound in BENCHMARK.json. Every run's result line is appended to
.bench_build/perfbench/spread-<workload>.jsonl.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys


def seeds(spec):
    out = []
    for part in spec.split(","):
        lo, _, hi = part.partition("-")
        out.extend(range(int(lo), int(hi or lo) + 1))
    return out


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seeds", default="1-10")
    ap.add_argument("--seconds", type=float)
    args = ap.parse_args()
    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    seconds = args.seconds or bench["run_seconds"]
    bounds = {m["name"]: m.get("bound") for m in bench["end_to_end"]}
    out_dir = os.path.join(os.environ.get("CARGO_TARGET_DIR", ".bench_build"), "perfbench")
    os.makedirs(out_dir, exist_ok=True)
    log = os.path.join(out_dir, "spread-%s.jsonl" % args.workload)
    values = {}
    ok = True
    for seed in seeds(args.seeds):
        cmd = bench["command"] + ["--workload", args.workload, "--seed", str(seed),
                                  "--seconds", str(seconds), "--trace", "0"]
        proc = subprocess.run(cmd, capture_output=True, text=True)
        if proc.returncode != 0:
            sys.stderr.write(proc.stdout + proc.stderr)
            sys.exit("seed %d: exit %d" % (seed, proc.returncode))
        lines = proc.stdout.strip().splitlines()
        res = json.loads(lines[-1])
        ok = ok and res["correct"]
        steal = next((l.rsplit("host steal ", 1)[1] for l in lines if "host steal " in l), "?")
        with open(log, "a") as f:
            f.write(json.dumps({"seed": seed, "steal": steal, "result": res}) + "\n")
        for name, m in res["metrics"].items():
            values.setdefault(name, []).append(m["value"])
        print("seed %d: correct=%s failed=%d steal=%s %s" % (seed, res["correct"], res["failed"], steal,
              " ".join("%s=%.6g" % (k, v["value"]) for k, v in sorted(res["metrics"].items())
                       if k in bounds)), flush=True)
    print("metric                     median      spread  bound")
    for name, vs in sorted(values.items()):
        med = statistics.median(vs)
        spread = float("nan")
        if len(vs) >= 2 and med != 0:
            q = statistics.quantiles(vs, n=4)
            spread = (q[2] - q[0]) / abs(med)
        print("%-24s %12.6g %10.4f  %s" % (name, med, spread, bounds.get(name, "")))
    if not ok:
        sys.exit("some runs were not correct")


if __name__ == "__main__":
    main()
