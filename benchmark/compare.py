#!/usr/bin/env python3
"""Collect, summarise and compare pdl_bench result sets (stdlib only).

A result set is a JSON-lines file; each line is one run:
    {"workload": ..., "seed": ..., "seconds": ..., "result": {<the run's JSON>}}

Subcommands:
  collect  run the benchmark of one checkout over consecutive seeds
  ab       run a parent and a change checkout in alternating pairs
  spread   per (workload, metric): median, quartiles and spread vs bound;
           --write-baseline stores them as a host baseline
  compare  apply the regression and gain rules to a parent and a change set

Rules (benchmark/README.md):
  * regression: the change's median is worse than the parent's by more
    than the metric's bound in BENCHMARK.json.  When the parent's own
    spread (interquartile range over median) is wider than the bound, the
    pair is "unresolved" unless every change run beats every parent run.
  * gain: at least 10 pairs (same workload and seed on both sides), the
    change wins at least 9 in 10 of them (ties count for neither), and
    the medians differ by more than the parent's interquartile range.
"""

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
REPO = os.path.dirname(HERE)


def load_spec(checkout=REPO):
    with open(os.path.join(checkout, "BENCHMARK.json")) as f:
        spec = json.load(f)
    metrics = {m["name"]: m for m in spec["end_to_end"] + spec["per_layer"]}
    return spec, metrics


def run_once(checkout, workload, seed, seconds, trace):
    cmd = ["bash", os.path.join(checkout, "benchmark", "run.sh"),
           "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "1" if trace else "0"]
    proc = subprocess.run(cmd, cwd=checkout, stdout=subprocess.PIPE,
                          stderr=subprocess.DEVNULL, text=True, check=False)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.exit(f"compare.py: {' '.join(cmd)} exited {proc.returncode}")
    result = json.loads(lines[-1])
    return {"workload": workload, "seed": seed, "seconds": seconds,
            "trace": trace, "result": result}


def append(path, record):
    with open(path, "a") as f:
        f.write(json.dumps(record) + "\n")


def read_set(path):
    with open(path) as f:
        return [json.loads(line) for line in f if line.strip()]


def values_by_key(records):
    """{(workload, metric): {seed: value}}"""
    out = {}
    for r in records:
        for name, m in r["result"]["metrics"].items():
            out.setdefault((r["workload"], name), {})[r["seed"]] = m["value"]
    return out


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def spread(values):
    q1, q2, q3 = quartiles(values)
    return (q3 - q1) / q2 if q2 else float("inf")


def worse_by(metric, parent, change):
    """Share by which `change` is worse than `parent` (negative: better)."""
    if parent == 0:
        return 0.0
    delta = (change - parent) / abs(parent)
    return delta if metric.get("better") == "lower" else -delta


# ---------------------------------------------------------------- commands

def cmd_collect(args):
    spec, _ = load_spec(args.checkout)
    workloads = args.workload or [w["name"] for w in spec["workloads"]]
    seconds = args.seconds or spec["run_seconds"]
    for w in workloads:
        for i in range(args.runs):
            record = run_once(args.checkout, w, args.seed0 + i, seconds,
                              args.trace)
            append(args.out, record)
            print(f"{w} seed {args.seed0 + i}: "
                  f"correct={record['result']['correct']}", flush=True)


def cmd_ab(args):
    spec, _ = load_spec(args.change)
    workloads = args.workload or [w["name"] for w in spec["workloads"]]
    seconds = args.seconds or spec["run_seconds"]
    for w in workloads:
        for i in range(args.pairs):
            seed = args.seed0 + i
            sides = [(args.parent, args.parent_out), (args.change, args.change_out)]
            if i % 2:
                sides.reverse()  # alternate which side runs first
            for checkout, out in sides:
                append(out, run_once(checkout, w, seed, seconds, False))
            print(f"{w} pair {i + 1}/{args.pairs} done", flush=True)
    args.parent, args.change = args.parent_out, args.change_out
    return cmd_compare(args)


def cmd_spread(args):
    spec, metrics = load_spec()
    records = read_set(args.results)
    table = values_by_key(records)
    rows, wide = [], 0
    print(f"{'workload':<16} {'metric':<38} {'n':>3} {'median':>14} "
          f"{'spread':>8} {'bound':>6}  verdict")
    for (workload, name), by_seed in sorted(table.items()):
        values = list(by_seed.values())
        q1, q2, q3 = quartiles(values)
        s = spread(values)
        bound = metrics.get(name, {}).get("bound")
        verdict = ""
        if bound is not None and name != "setup_s":
            verdict = "ok" if s <= bound / 3 else (
                "within bound" if s <= bound else "WIDER THAN BOUND")
            wide += s > bound
        print(f"{workload:<16} {name:<38} {len(values):>3} {q2:>14.4f} "
              f"{s:>8.4f} {bound if bound is not None else '':>6}  {verdict}")
        rows.append({"workload": workload, "metric": name,
                     "unit": metrics.get(name, {}).get("unit", ""),
                     "runs": len(values), "median": q2, "q1": q1, "q3": q3,
                     "spread": s, "values": values})
    if args.write_baseline:
        baseline = {
            "host": args.host or platform.node(),
            "nproc": os.cpu_count(),
            "filesystem": args.filesystem,
            "cpu": cpu_model(),
            "run_seconds": spec["run_seconds"],
            "seeds": sorted({r["seed"] for r in records}),
            "metrics": rows,
        }
        rows = baseline.pop("metrics")
        with open(args.write_baseline, "w") as f:  # one metric row per line
            f.write(json.dumps(baseline)[:-1] + ', "metrics": [\n')
            f.write(",\n".join(json.dumps(row) for row in rows))
            f.write("\n]}\n")
        print(f"wrote {args.write_baseline}")
    return 1 if wide else 0


def cmd_compare(args):
    _, metrics = load_spec()
    parent = values_by_key(read_set(args.parent))
    change = values_by_key(read_set(args.change))
    status = 0
    print(f"{'workload':<16} {'metric':<38} {'parent':>14} {'change':>14} "
          f"{'worse':>8} {'bound':>6}  verdict")
    for key in sorted(set(parent) & set(change)):
        workload, name = key
        metric = metrics.get(name, {})
        p, c = parent[key], change[key]
        pv, cv = list(p.values()), list(c.values())
        pq1, pmed, pq3 = quartiles(pv)
        cmed = statistics.median(cv)
        worse = worse_by(metric, pmed, cmed)
        bound = metric.get("bound")
        pairs = [(p[s], c[s]) for s in p if s in c]
        wins = sum(worse_by(metric, a, b) < 0 for a, b in pairs)
        losses = sum(worse_by(metric, a, b) > 0 for a, b in pairs)
        all_better = all(worse_by(metric, a, b) < 0 for a in pv for b in cv)

        if bound is None:
            verdict = "diagnostic"
        elif spread(pv) > bound and not all_better:
            verdict = "unresolved"
        elif worse > bound:
            verdict = "REGRESSION"
            status = 1
        else:
            verdict = "no regression"
        if (len(pairs) >= 10 and wins >= 0.9 * len(pairs)
                and abs(cmed - pmed) > pq3 - pq1):
            verdict += ", gain"
        print(f"{workload:<16} {name:<38} {pmed:>14.4f} {cmed:>14.4f} "
              f"{worse:>+8.3f} {bound if bound is not None else '':>6}  "
              f"{verdict} ({wins}W/{losses}L of {len(pairs)} pairs)")
    return status


def cpu_model():
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor()


def main():
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = ap.add_subparsers(dest="command", required=True)

    c = sub.add_parser("collect", help="run one checkout over N seeds")
    c.add_argument("--checkout", default=REPO)
    c.add_argument("--workload", action="append")
    c.add_argument("--runs", type=int, default=10)
    c.add_argument("--seed0", type=int, default=1)
    c.add_argument("--seconds", type=int)
    c.add_argument("--trace", action="store_true")
    c.add_argument("--out", required=True)
    c.set_defaults(fn=cmd_collect)

    a = sub.add_parser("ab", help="alternating parent/change pairs, then compare")
    a.add_argument("--parent", required=True, help="parent checkout")
    a.add_argument("--change", required=True, help="change checkout")
    a.add_argument("--parent-out", required=True)
    a.add_argument("--change-out", required=True)
    a.add_argument("--workload", action="append")
    a.add_argument("--pairs", type=int, default=10)
    a.add_argument("--seed0", type=int, default=1)
    a.add_argument("--seconds", type=int)
    a.set_defaults(fn=cmd_ab)

    s = sub.add_parser("spread", help="median and spread per metric")
    s.add_argument("results")
    s.add_argument("--write-baseline", metavar="PATH")
    s.add_argument("--host", help="host tag for the baseline")
    s.add_argument("--filesystem", default="", help="filesystem of --dir")
    s.set_defaults(fn=cmd_spread)

    p = sub.add_parser("compare", help="regression and gain verdicts")
    p.add_argument("parent")
    p.add_argument("change")
    p.set_defaults(fn=cmd_compare)

    args = ap.parse_args()
    sys.exit(args.fn(args) or 0)


if __name__ == "__main__":
    main()
