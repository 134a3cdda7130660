#!/usr/bin/env python3
"""Collects benchmark runs and compares two sets of them.

Run from the repository root.

    # Run every workload for seeds 1..10 and append one JSON line per run.
    python3 perfbench/compare.py collect --out runs.jsonl --seeds 1-10 \\
        [--workloads warm_mix,cold_stream] [--trace 0]

    # Median, quartiles and spread (IQR / median) per workload x metric,
    # checked against each end-to-end metric's bound.
    python3 perfbench/compare.py spread runs.jsonl

    # Parent vs change: each side's median and quartiles, pairs won (runs
    # are paired by workload and seed), the ratio with its base, and a
    # verdict: improved, unchanged, regressed or unresolved.
    python3 perfbench/compare.py diff parent.jsonl change.jsonl

Run length, bounds and metric directions come from BENCHMARK.json. Runs
that are not correct (a wrong answer, or a run without a result) are left
out of the medians and counted per side; failed operations are summed per
side. The verdict rules:
  * unresolved: the parent's own spread (IQR / median) exceeds the bound,
    unless every change run is better than every parent run;
  * regressed: the change's median is worse than the parent's by more than
    the bound;
  * improved: the change wins at least nine tenths of the pairs (ties count
    for neither), the medians differ by more than the parent's IQR, and the
    change has no more failed operations and no more incorrect runs than
    the parent on that workload (otherwise the gain does not count and the
    verdict is "unchanged, more failures");
  * unchanged: otherwise.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys


def load_benchmark():
    with open("BENCHMARK.json") as f:
        return json.load(f)


def metric_specs(bench):
    specs = {}
    for m in bench["end_to_end"] + bench["per_layer"]:
        specs[m["name"]] = m
    return specs


def parse_seeds(text):
    seeds = []
    for part in text.split(","):
        if "-" in part:
            lo, hi = part.split("-")
            seeds.extend(range(int(lo), int(hi) + 1))
        else:
            seeds.append(int(part))
    return seeds


def collect(args):
    bench = load_benchmark()
    workloads = (args.workloads.split(",") if args.workloads
                 else [w["name"] for w in bench["workloads"]])
    seconds = bench["run_seconds"]
    with open(args.out, "a") as out:
        for workload in workloads:
            for seed in parse_seeds(args.seeds):
                cmd = bench["command"] + [
                    "--workload", workload, "--seed", str(seed),
                    "--seconds", str(seconds), "--trace", str(args.trace)]
                done = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
                lines = done.stdout.strip().splitlines()
                row = {"workload": workload, "seed": seed, "trace": args.trace,
                       "exit": done.returncode}
                try:
                    row["result"] = json.loads(lines[-1])
                    row["record"] = json.loads(lines[-2])["record"]
                except (IndexError, ValueError, KeyError):
                    row["result"] = None
                out.write(json.dumps(row) + "\n")
                out.flush()
                status = "ok" if row["result"] and row["result"]["correct"] else "FAILED"
                print("%s seed=%d %s" % (workload, seed, status), file=sys.stderr)


class Runs:
    """One side's runs: the correct ones by workload and seed, and per
    workload the number of incorrect runs and of failed operations."""

    def __init__(self, path):
        self.correct = {}
        self.incorrect = {}
        self.failed = {}
        with open(path) as f:
            for line in f:
                if not line.strip():
                    continue
                row = json.loads(line)
                workload, result = row["workload"], row.get("result")
                self.failed.setdefault(workload, 0)
                self.incorrect.setdefault(workload, 0)
                if result:
                    self.failed[workload] += result["failed"]
                if not result or not result["correct"]:
                    self.incorrect[workload] += 1
                    continue
                self.correct.setdefault(workload, {})[row["seed"]] = result


def quartiles(values):
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def values_of(by_seed, metric):
    return [r["metrics"][metric]["value"] for r in by_seed.values()
            if metric in r["metrics"]]


def spread(args):
    specs = metric_specs(load_benchmark())
    runs = Runs(args.runs)
    print("%-14s %-28s %12s %12s %12s %8s %6s  %s" % (
        "workload", "metric", "q1", "median", "q3", "spread", "bound", "n"))
    for workload in sorted(runs.failed):
        by_seed = runs.correct.get(workload, {})
        metrics = sorted({m for r in by_seed.values() for m in r["metrics"]})
        for metric in metrics:
            values = values_of(by_seed, metric)
            q1, med, q3 = quartiles(values)
            rel = (q3 - q1) / med if med else 0.0
            bound = specs.get(metric, {}).get("bound")
            flag = ""
            if bound is not None and metric != "setup_s":
                flag = "ok" if rel <= bound / 3 else ("within" if rel <= bound else "WIDE")
            print("%-14s %-28s %12.6g %12.6g %12.6g %8.4f %6s  %d %s" % (
                workload, metric, q1, med, q3, rel,
                "" if bound is None else bound, len(values), flag))
        print("%-14s failed operations: %d, incorrect runs: %d" % (
            workload, runs.failed[workload], runs.incorrect[workload]))


def better(spec, a, b):
    """True when value a is better than value b for this metric."""
    return a < b if spec["better"] == "lower" else a > b


def diff(args):
    specs = metric_specs(load_benchmark())
    parent = Runs(args.parent)
    change = Runs(args.change)
    for workload in sorted(set(parent.failed) & set(change.failed)):
        p_runs = parent.correct.get(workload, {})
        c_runs = change.correct.get(workload, {})
        seeds = sorted(set(p_runs) & set(c_runs))
        more_failures = (change.failed[workload] > parent.failed[workload] or
                         change.incorrect[workload] > parent.incorrect[workload])
        print("== %s (%d paired seeds)" % (workload, len(seeds)))
        print("  failed operations: parent %d, change %d; incorrect runs "
              "(left out): parent %d, change %d%s" % (
                  parent.failed[workload], change.failed[workload],
                  parent.incorrect[workload], change.incorrect[workload],
                  "  MORE FAILURES: no gain counts" if more_failures else ""))
        metrics = sorted({m for r in p_runs.values() for m in r["metrics"]})
        for metric in metrics:
            spec = specs.get(metric)
            if spec is None:
                continue
            pv, cv = values_of(p_runs, metric), values_of(c_runs, metric)
            if not pv or not cv:
                continue
            pq1, pmed, pq3 = quartiles(pv)
            cq1, cmed, cq3 = quartiles(cv)
            unit = spec["unit"]
            won = lost = 0
            for s in seeds:
                a = p_runs[s]["metrics"][metric]["value"]
                b = c_runs[s]["metrics"][metric]["value"]
                if better(spec, b, a):
                    won += 1
                elif better(spec, a, b):
                    lost += 1
            ratio = cmed / pmed if pmed else float("nan")
            verdict = "unchanged"
            if "bound" in spec:
                bound = spec["bound"]
                p_spread = (pq3 - pq1) / pmed if pmed else 0.0
                all_better = all(better(spec, c, p) for c in cv for p in pv)
                worse_by = (cmed - pmed) / pmed if spec["better"] == "lower" \
                    else (pmed - cmed) / pmed
                if p_spread > bound and not all_better:
                    verdict = "unresolved"
                elif worse_by > bound:
                    verdict = "regressed"
                elif (seeds and won >= 0.9 * len(seeds)
                      and abs(cmed - pmed) > (pq3 - pq1)):
                    verdict = ("unchanged, more failures" if more_failures
                               else "improved")
            print("  %-26s parent %s  change %s  won %d/%d lost %d  "
                  "ratio %.4f (base: parent median %.6g %s)  %s" % (
                      metric,
                      "%.6g [%.6g, %.6g]" % (pmed, pq1, pq3),
                      "%.6g [%.6g, %.6g]" % (cmed, cq1, cq3),
                      won, len(seeds), lost, ratio, pmed, unit, verdict))


def main():
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = parser.add_subparsers(dest="cmd", required=True)
    p = sub.add_parser("collect")
    p.add_argument("--out", required=True)
    p.add_argument("--seeds", default="1-10")
    p.add_argument("--workloads", default="")
    p.add_argument("--trace", type=int, default=0)
    p = sub.add_parser("spread")
    p.add_argument("runs")
    p = sub.add_parser("diff")
    p.add_argument("parent")
    p.add_argument("change")
    args = parser.parse_args()
    if not os.path.exists("BENCHMARK.json"):
        sys.exit("run from the repository root (BENCHMARK.json not found)")
    {"collect": collect, "spread": spread, "diff": diff}[args.cmd](args)


if __name__ == "__main__":
    main()
