"""Repeat the benchmark over seeds and summarise each metric's spread.

    python3 perfbench/baseline.py --seeds 1-10 --sets 2 --out perfbench/baseline/seed-commit.json

For every workload, runs run.py once per seed with tracing off, the
whole set of seeds --sets times over, then twice with tracing on for
the first seed. Writes every run's result and, per set and end-to-end
metric, the median, the quartiles (statistics.quantiles(values, n=4))
and the spread (Q3 - Q1) / median, and per metric how much worse a
later set's median reads than the first set's (median_shift).
"""

from __future__ import annotations

import argparse
import json
import os
import statistics

import run

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def _seeds(text):
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def spread(values):
    q1, q2, q3 = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    return {"median": med, "q1": q1, "q3": q3, "spread": (q3 - q1) / med if med else None}


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seeds", default="1-10")
    ap.add_argument("--seconds", type=float, default=None, help="default: BENCHMARK.json run_seconds")
    ap.add_argument("--sets", type=int, default=2, help="times the seeds are run over")
    ap.add_argument("--workloads", default=None, help="comma list (default: every workload)")
    ap.add_argument("--no-trace", action="store_true")
    ap.add_argument("--out", default=None)
    args = ap.parse_args()
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    seconds = args.seconds or bench["run_seconds"]
    names = args.workloads.split(",") if args.workloads else [w["name"] for w in bench["workloads"]]
    seeds = _seeds(args.seeds)
    report = {"seconds": seconds, "seeds": seeds, "sets": args.sets, "workloads": {}}
    for name in names:
        entry = {"sets": []}
        for k in range(args.sets):
            runs = []
            for seed in seeds:
                runs.append(run.invoke(name, seed, seconds, 0))
                print(name, f"set {k + 1}", seed,
                      json.dumps({m: round(v["value"], 4)
                                  for m, v in runs[-1]["result"]["metrics"].items()}), flush=True)
            stats = {}
            for metric in bench["end_to_end"]:
                vals = [r["result"]["metrics"][metric["name"]]["value"] for r in runs]
                stats[metric["name"]] = {**spread(vals), "bound": metric["bound"]}
                print(f"  {metric['name']:12s} " + json.dumps(stats[metric["name"]]), flush=True)
            entry["sets"].append({"runs": runs, "end_to_end": stats})
        # how much worse the later sets' medians read than the first's
        entry["median_shift"] = {
            m: max(s["end_to_end"][m]["median"] / entry["sets"][0]["end_to_end"][m]["median"] - 1.0
                   for s in entry["sets"])
            for m in entry["sets"][0]["end_to_end"]}
        print("  median_shift " + json.dumps(entry["median_shift"]), flush=True)
        if not args.no_trace:
            entry["traced"] = [run.invoke(name, seeds[0], seconds, 1) for _ in range(2)]
        report["workloads"][name] = entry
    if args.out:
        os.makedirs(os.path.dirname(os.path.abspath(args.out)), exist_ok=True)
        with open(args.out, "w") as fh:
            fh.write(json.dumps(report, indent=1, sort_keys=True) + "\n")


if __name__ == "__main__":
    main()
