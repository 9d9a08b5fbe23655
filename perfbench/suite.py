"""Run every workload over several seeds and summarize, in one command.

    python3 perfbench/suite.py [--runs 10] [--seed0 1] [--workloads A,B]
                               [--no-trace] [--out FILE]

Runs are interleaved (seed i of every workload before seed i + 1) so a
slow spell on the machine spreads over all workloads. For each workload
and end-to-end metric it prints the median, the quartiles, the spread
(q3 - q1) / median against a third of the metric's bound, and the sample
count, plus failed_frac. Unless --no-trace is given, one traced run per
workload (seed0) follows: its program counts and output digests must
equal the untraced run of the same seed bit for bit, and the gap between
traced and untraced wall_s is reported as the tracing overhead. --out
writes every record and the summary as JSON.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402
from workloads import WORKLOADS  # noqa: E402


def spread(values):
    """(median, q1, q3, (q3 - q1) / median) as statistics.quantiles gives
    them; one sample has no spread."""
    median = statistics.median(values)
    if len(values) < 2:
        return median, median, median, 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    return median, q1, q3, (q3 - q1) / median


def summarize(records, spec):
    bounds = {m["name"]: m for m in spec["end_to_end"]}
    out = {}
    for workload in sorted({r["workload"] for r in records}):
        runs = [r for r in records if r["workload"] == workload
                and not r["trace"]]
        ok = [r for r in runs if r["correct"]]
        entry = {"attempted": len(runs), "failed": len(runs) - len(ok),
                 "failed_frac": (len(runs) - len(ok)) / len(runs),
                 "seeds": [r["seed"] for r in runs], "metrics": {}}
        for name, m in bounds.items():
            values = [r["metrics"][name]["value"] for r in ok]
            if not values:
                continue
            median, q1, q3, rel = spread(values)
            entry["metrics"][name] = {
                "unit": m["unit"], "median": median, "q1": q1, "q3": q3,
                "spread": rel, "bound": m["bound"], "n": len(values),
                "steady": name == "setup_s" or rel < m["bound"] / 3.0}
        out[workload] = entry
    return out


def trace_check(untraced, traced, wall_median):
    """Bitwise agreement of a traced run with the untraced run of the same
    seed, and the tracing overhead: traced wall_s against the median
    untraced wall_s of the workload."""
    same = (traced["correct"] and untraced["correct"]
            and traced["counts"] == untraced["counts"]
            and traced["outputs"] == untraced["outputs"])
    overhead = (traced["per_layer"]["traced_wall_s"] / wall_median - 1.0
                if wall_median and traced["correct"] else None)
    return {"seed": traced["seed"], "counts_and_outputs_equal": same,
            "tracing_overhead": overhead,
            "per_layer": traced.get("per_layer"),
            "span_table": traced.get("span_table"),
            "spans": traced.get("spans")}


def print_summary(summary, traces):
    for workload, entry in summary.items():
        print(f"\n{workload}: {entry['attempted']} runs, "
              f"failed_frac {entry['failed_frac']:.3f}")
        for name, m in entry["metrics"].items():
            flag = "" if m["steady"] else "   <-- spread above bound/3"
            print(f"  {name:15s} {m['median']:12.6g} {m['unit']:4s} "
                  f"q1 {m['q1']:.6g} q3 {m['q3']:.6g} "
                  f"spread {m['spread']:.4f} (bound {m['bound']}) "
                  f"n={m['n']}{flag}")
        check = traces.get(workload)
        if check:
            overhead = check["tracing_overhead"]
            print(f"  traced run: counts and outputs equal untraced: "
                  f"{check['counts_and_outputs_equal']}; tracing overhead "
                  + ("n/a" if overhead is None else f"{overhead:+.3%}"))


def print_layers(traces, spec):
    """Per-layer metrics of the traced runs, one column per workload."""
    if not traces:
        return
    workloads = list(traces)
    print("\n| per-layer metric | unit | " + " | ".join(workloads) + " |")
    print("| --- | --- |" + " --- |" * len(workloads))
    for m in spec["per_layer"]:
        cells = []
        for workload in workloads:
            value = (traces[workload]["per_layer"] or {}).get(m["name"])
            cells.append("n/a" if value is None else f"{value:.6g}")
        print(f"| {m['name']} | {m['unit']} | " + " | ".join(cells) + " |")


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--seed0", type=int, default=1)
    parser.add_argument("--workloads", default=",".join(WORKLOADS))
    parser.add_argument("--no-trace", action="store_true")
    parser.add_argument("--out", default=None)
    args = parser.parse_args(argv)
    workloads = args.workloads.split(",")
    for name in workloads:
        if name not in WORKLOADS:
            parser.error(f"unknown workload {name}")
    spec = run.load_spec()
    records = []
    for i in range(args.runs):
        for workload in workloads:
            record = run.measure(workload, args.seed0 + i, 0)
            records.append(record)
            wall = record.get("metrics", {}).get("wall_s", {}).get("value")
            print(f"{workload} seed {record['seed']}: correct "
                  f"{record['correct']} wall_s {wall}", flush=True)
    summary = summarize(records, spec)
    traces = {}
    if not args.no_trace:
        for workload in workloads:
            traced = run.measure(workload, args.seed0, 1)
            records.append(traced)
            base = next(r for r in records if r["workload"] == workload
                        and r["seed"] == args.seed0 and not r["trace"])
            wall = summary[workload]["metrics"].get("wall_s", {})
            traces[workload] = trace_check(base, traced, wall.get("median"))
    print_summary(summary, traces)
    print_layers(traces, spec)
    if args.out:
        slim = [{k: v for k, v in r.items() if k != "span_table"}
                for r in records]
        with open(args.out, "w") as fh:
            json.dump({"summary": summary, "traced": traces, "runs": slim},
                      fh, indent=1, sort_keys=True)
    steady = all(m["steady"] for e in summary.values()
                 for m in e["metrics"].values())
    failed = any(e["failed"] for e in summary.values())
    agree = all(t["counts_and_outputs_equal"] for t in traces.values())
    return 0 if steady and agree and not failed else 1


if __name__ == "__main__":
    sys.exit(main())
