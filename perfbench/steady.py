#!/usr/bin/env python3
"""Steadiness report: repeats workloads over seeds and prints, per metric,
the median, the quartiles and the spread (Q3 - Q1) / median against the
metric's bound in BENCHMARK.json.

    python3 perfbench/steady.py --workloads serve_encode --runs 10
    python3 perfbench/steady.py --runs 5 --first-seed 100 --json out.json

Quartiles are Python's statistics.quantiles(values, n=4). A metric is
flagged when its spread exceeds its bound; the target is a third of it.
setup_s is reported but only its median is gated. Exits 1 when a run
fails or a metric other than setup_s spreads beyond its bound.
"""
import argparse
import json
import pathlib
import statistics
import subprocess
import sys

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent


def run_once(workload, seed, seconds, trace):
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace",
           str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
    last = proc.stdout.rstrip("\n").split("\n")[-1]
    try:
        result = json.loads(last)
    except ValueError:
        result = None
    if proc.returncode != 0 or result is None or not result["correct"]:
        sys.stderr.write(proc.stderr[-2000:])
        return None
    return {k: v["value"] for k, v in result["metrics"].items()}


def main():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workloads", nargs="*",
                    default=[w["name"] for w in spec["workloads"]])
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--first-seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=spec["run_seconds"])
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--json", help="also write every value here")
    args = ap.parse_args()

    metrics = spec["per_layer" if args.trace else "end_to_end"]
    ok = True
    everything = {}
    for workload in args.workloads:
        values = {m["name"]: [] for m in metrics}
        for i in range(args.runs):
            seed = args.first_seed + i
            got = run_once(workload, seed, args.seconds, args.trace)
            if got is None:
                print(f"{workload} seed {seed}: FAILED", flush=True)
                ok = False
                continue
            for name in values:
                values[name].append(got[name])
            print(f"{workload} seed {seed}: " + " ".join(
                f"{n}={got[n]:.4g}" for n in values), flush=True)
        everything[workload] = values
        print(f"\n{workload}: {args.runs} runs")
        print(f"  {'metric':26} {'median':>12} {'q1':>12} {'q3':>12} "
              f"{'spread':>8} {'bound':>6}")
        for m in metrics:
            v = values[m["name"]]
            if len(v) < 2:
                continue
            q1, _, q3 = statistics.quantiles(v, n=4)
            med = statistics.median(v)
            spread = (q3 - q1) / med if med else float("inf")
            bound = m.get("bound")
            flag = ""
            if bound is not None:
                if spread > bound and m["name"] != "setup_s":
                    flag = "  OVER BOUND"
                    ok = False
                elif spread > bound / 3:
                    flag = "  above a third of bound"
            print(f"  {m['name']:26} {med:12.5g} {q1:12.5g} {q3:12.5g} "
                  f"{spread:8.3f} {bound if bound is not None else '-':>6}"
                  f"{flag}")
        print(flush=True)
    if args.json:
        pathlib.Path(args.json).write_text(json.dumps(everything, indent=1))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
