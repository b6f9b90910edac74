#!/usr/bin/env python3
"""Collect, check and compare result sets of the Fed-SC round benchmark.

Run from the repository root:

    python3 roundbench/tools.py collect --out a.jsonl [--workloads w1,w2] \
        [--seeds 1-10] [--seconds 20] [--trace 0|1|both]
    python3 roundbench/tools.py spread a.jsonl
    python3 roundbench/tools.py compare a.jsonl b.jsonl

A result set is a JSON-lines file; each line holds one benchmark run:
{"workload": ..., "seed": ..., "trace": 0|1, "result": <the run's last line>}.

`spread` prints, per workload and end-to-end metric, the median and the
quartiles over the set's runs and the interquartile range as a share of
the median, against a third of the metric's bound in BENCHMARK.json.

`compare` prints, per workload, each end-to-end metric's median and
quartiles on both sides with the metric's bound, and marks it better,
worse, unchanged (within the bound) or unresolved (a side's spread is wider
than the bound and the runs overlap). It then prints the per-layer medians
of the traced runs on both sides and their delta.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
SPEC_PATH = os.path.join(os.path.dirname(HERE), "BENCHMARK.json")


def load_spec():
    with open(SPEC_PATH) as f:
        return json.load(f)


def parse_seeds(text):
    seeds = []
    for part in text.split(","):
        if "-" in part:
            lo, hi = part.split("-")
            seeds.extend(range(int(lo), int(hi) + 1))
        else:
            seeds.append(int(part))
    return seeds


def run_once(spec, workload, seed, seconds, trace):
    """Runs the benchmark command once; returns its parsed last line."""
    cmd = spec["command"] + [
        "--workload", workload, "--seed", str(seed),
        "--seconds", str(seconds), "--trace", str(trace),
    ]
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, check=False)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"{' '.join(cmd)} exited {proc.returncode}")
    return json.loads(lines[-1])


def cmd_collect(args):
    spec = load_spec()
    workloads = (args.workloads.split(",") if args.workloads
                 else [w["name"] for w in spec["workloads"]])
    seconds = args.seconds or spec["run_seconds"]
    traces = [0, 1] if args.trace == "both" else [int(args.trace)]
    with open(args.out, "a") as out:
        for workload in workloads:
            for seed in parse_seeds(args.seeds):
                for trace in traces:
                    result = run_once(spec, workload, seed, seconds, trace)
                    row = {"workload": workload, "seed": seed,
                           "trace": trace, "result": result}
                    out.write(json.dumps(row) + "\n")
                    out.flush()
                    print(f"{workload} seed {seed} trace {trace}: "
                          f"correct={result['correct']} "
                          f"attempted={result['attempted']} "
                          f"failed={result['failed']}", file=sys.stderr)


def load_set(path):
    rows = []
    with open(path) as f:
        for line in f:
            if line.strip():
                rows.append(json.loads(line))
    return rows


def values(rows, workload, trace, metric):
    return [r["result"]["metrics"][metric]["value"] for r in rows
            if r["workload"] == workload and r["trace"] == trace
            and metric in r["result"]["metrics"]]


def quartiles(vals):
    """(q1, median, q3) as statistics.quantiles(n=4) gives them."""
    if len(vals) == 1:
        return vals[0], vals[0], vals[0]
    q1, med, q3 = statistics.quantiles(vals, n=4)
    return q1, med, q3


def rel_spread(vals):
    q1, med, q3 = quartiles(vals)
    return (q3 - q1) / abs(med) if med else float("inf")


def workloads_of(rows):
    seen = []
    for r in rows:
        if r["workload"] not in seen:
            seen.append(r["workload"])
    return seen


def cmd_spread(args):
    spec = load_spec()
    rows = load_set(args.set)
    bad = [r for r in rows if not r["result"]["correct"]]
    ok = not bad
    for r in bad:
        print(f"INCORRECT: {r['workload']} seed {r['seed']} trace {r['trace']}")
    for workload in workloads_of(rows):
        print(f"== {workload}")
        for m in spec["end_to_end"]:
            vals = values(rows, workload, 0, m["name"])
            if not vals:
                print(f"  {m['name']:16} MISSING")
                ok = False
                continue
            q1, med, q3 = quartiles(vals)
            spread = rel_spread(vals)
            target = m["bound"] / 3
            flag = "ok" if spread <= target or m["name"] == "setup_s" else "WIDE"
            if flag != "ok":
                ok = False
            print(f"  {m['name']:16} n={len(vals):2} median {med:<14.6g} "
                  f"q1 {q1:<12.6g} q3 {q3:<12.6g} spread {spread:.4f} "
                  f"(bound {m['bound']}, target {target:.4f}) {flag}")
    return 0 if ok else 1


def verdict(a, b, metric):
    """Marks side b against side a for one end-to-end metric."""
    _, ma, _ = quartiles(a)
    _, mb, _ = quartiles(b)
    bound = metric["bound"]
    sign = 1.0 if metric["better"] == "lower" else -1.0
    change = sign * (mb - ma) / abs(ma) if ma else 0.0  # > 0 means worse
    b_wins_all = all(sign * y < sign * x for x in a for y in b)
    b_loses_all = all(sign * y > sign * x for x in a for y in b)
    if max(rel_spread(a), rel_spread(b)) > bound:
        if b_wins_all:
            return change, "better"
        if b_loses_all:
            return change, "worse"
        return change, "unresolved"
    if change > bound:
        return change, "worse"
    if change < -rel_spread(a) and change < 0 and b_wins_all:
        return change, "better"
    return change, "unchanged"


def cmd_compare(args):
    spec = load_spec()
    a_rows, b_rows = load_set(args.a), load_set(args.b)
    for workload in workloads_of(a_rows):
        print(f"== {workload}")
        print(f"  {'metric':26} {'A median [q1, q3]':40} "
              f"{'B median [q1, q3]':40} {'bound':>6} {'change':>8}  verdict")
        for m in spec["end_to_end"]:
            a = values(a_rows, workload, 0, m["name"])
            b = values(b_rows, workload, 0, m["name"])
            if not a or not b:
                print(f"  {m['name']:26} missing on one side")
                continue
            qa, qb = quartiles(a), quartiles(b)
            change, mark = verdict(a, b, m)
            fa = f"{qa[1]:.6g} [{qa[0]:.6g}, {qa[2]:.6g}]"
            fb = f"{qb[1]:.6g} [{qb[0]:.6g}, {qb[2]:.6g}]"
            print(f"  {m['name']:26} {fa:40} {fb:40} {m['bound']:>6} "
                  f"{change:+8.2%}  {mark}")
        print(f"  {'per-layer (traced runs)':26} {'A median':>14} "
              f"{'B median':>14} {'delta':>14}")
        for m in spec["per_layer"]:
            a = values(a_rows, workload, 1, m["name"])
            b = values(b_rows, workload, 1, m["name"])
            if not a or not b:
                continue
            ma, mb = statistics.median(a), statistics.median(b)
            print(f"  {m['name']:26} {ma:14.6g} {mb:14.6g} {mb - ma:+14.6g} "
                  f"{m['unit']}")
    return 0


def main():
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    sub = p.add_subparsers(dest="cmd", required=True)
    c = sub.add_parser("collect", help="run the benchmark into a result set")
    c.add_argument("--out", required=True)
    c.add_argument("--workloads")
    c.add_argument("--seeds", default="1-10")
    c.add_argument("--seconds", type=int)
    c.add_argument("--trace", default="0", choices=["0", "1", "both"])
    s = sub.add_parser("spread", help="quartile spread of one result set")
    s.add_argument("set")
    k = sub.add_parser("compare", help="compare two result sets")
    k.add_argument("a")
    k.add_argument("b")
    args = p.parse_args()
    if args.cmd == "collect":
        return cmd_collect(args) or 0
    if args.cmd == "spread":
        return cmd_spread(args)
    return cmd_compare(args)


if __name__ == "__main__":
    sys.exit(main())
