#!/usr/bin/env python3
"""Steadiness report for sets of hmptbench runs.

Run one workload on several seeds and report, for every metric, the
median, the first and third quartiles and the spread (their distance as
a share of the median). A metric whose spread exceeds its bound in
BENCHMARK.json is flagged; so is one above a third of it, the margin a
steady benchmark keeps.

    python3 hmptbench/steady.py run --workload serve-miss --runs 5 --out a.json
    python3 hmptbench/steady.py report a.json [b.json]

With two result files, report also compares the medians: a metric whose
second median is worse than the first by more than its bound is flagged.
Run from the root of the checkout.
"""
import argparse
import json
import statistics
import subprocess
import sys


def load_spec():
    with open("BENCHMARK.json") as f:
        return json.load(f)


def bounds(spec):
    out = {}
    for m in spec["end_to_end"]:
        out[m["name"]] = (m.get("bound"), m["better"])
    for m in spec["per_layer"]:
        out[m["name"]] = (None, m["better"])
    return out


def run(args):
    spec = load_spec()
    results = []
    for i in range(args.runs):
        seed = args.first_seed + i
        cmd = spec["command"] + ["--workload", args.workload, "--seed", str(seed),
                                 "--seconds", str(args.seconds or spec["run_seconds"]),
                                 "--trace", str(args.trace)]
        p = subprocess.run(cmd, capture_output=True, text=True, timeout=900)
        if p.returncode != 0:
            sys.exit("run %d failed (%d): %s" % (seed, p.returncode, p.stderr[-2000:]))
        res = json.loads(p.stdout.strip().splitlines()[-1])
        res["seed"] = seed
        results.append(res)
        vals = " ".join("%s=%.6g" % (k, v["value"]) for k, v in sorted(res["metrics"].items()))
        print("seed %d correct=%s %s" % (seed, res["correct"], vals), flush=True)
    doc = {"workload": args.workload, "trace": args.trace, "results": results}
    if args.out:
        with open(args.out, "w") as f:
            json.dump(doc, f, indent=1)
    report([doc], spec)


def summarise(doc):
    per = {}
    for r in doc["results"]:
        for k, v in r["metrics"].items():
            per.setdefault(k, []).append(v["value"])
    out = {}
    for k, vals in per.items():
        med = statistics.median(vals)
        if len(vals) >= 2:
            q1, _, q3 = statistics.quantiles(vals, n=4)
        else:
            q1 = q3 = med
        spread = (q3 - q1) / abs(med) if med else 0.0
        out[k] = (med, q1, q3, spread, len(vals))
    return out


def report(docs, spec):
    b = bounds(spec)
    sums = [summarise(d) for d in docs]
    bad = False
    for d, s in zip(docs, sums):
        print("\n%s trace=%s, %d runs, every run correct: %s" % (
            d["workload"], d["trace"], len(d["results"]), all(r["correct"] for r in d["results"])))
        print("%-28s %12s %12s %12s %8s %6s  %s" % ("metric", "median", "q1", "q3", "spread", "bound", "flag"))
        for k in sorted(s):
            med, q1, q3, spread, _ = s[k]
            bound = b.get(k, (None, None))[0]
            flag = ""
            if bound is not None and k != "setup_s":
                if spread > bound:
                    flag, bad = "SPREAD>BOUND", True
                elif spread > bound / 3:
                    flag = "spread>bound/3"
            print("%-28s %12.6g %12.6g %12.6g %8.4f %6s  %s" % (k, med, q1, q3, spread, bound if bound is not None else "-", flag))
    if len(sums) == 2:
        print("\nmedian drift, second set against the first")
        for k in sorted(sums[0]):
            if k not in sums[1]:
                continue
            bound, better = b.get(k, (None, None))
            m1, m2 = sums[0][k][0], sums[1][k][0]
            worse = (m2 - m1) / abs(m1) if m1 else 0.0
            if better == "higher":
                worse = -worse
            flag = ""
            if bound is not None and worse > bound:
                flag, bad = "WORSE>BOUND", True
            print("%-28s %12.6g %12.6g %+8.4f %6s  %s" % (k, m1, m2, worse, bound if bound is not None else "-", flag))
    return bad


def main():
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = ap.add_subparsers(dest="cmd", required=True)
    r = sub.add_parser("run")
    r.add_argument("--workload", required=True)
    r.add_argument("--runs", type=int, default=10)
    r.add_argument("--first-seed", type=int, default=1)
    r.add_argument("--seconds", type=int, default=0, help="0 = BENCHMARK.json run_seconds")
    r.add_argument("--trace", type=int, default=0)
    r.add_argument("--out")
    rep = sub.add_parser("report")
    rep.add_argument("files", nargs="+")
    args = ap.parse_args()
    if args.cmd == "run":
        run(args)
        return
    docs = []
    for path in args.files[:2]:
        with open(path) as f:
            docs.append(json.load(f))
    sys.exit(1 if report(docs, load_spec()) else 0)


if __name__ == "__main__":
    main()
