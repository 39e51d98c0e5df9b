#!/usr/bin/env python3
"""Steadiness check and bound self-test for the benchmark.

    python3 perfbench/check.py spread --workload exact_long --runs 10
    python3 perfbench/check.py selftest --runs 5

`spread` runs one workload on `--runs` seeds and prints, per end-to-end
metric, the median and the quartile spread (q3 - q1) / median, against the
metric's bound in BENCHMARK.json; WIDE marks a spread above a third of it.

`selftest` checks whether the bounds catch a small regression. It reads
`core.score_us.p50` from one traced `exact_long` run; 10% of it is the
synthetic cost, a busy spin added to every model score call
(`--inject-score-us`). Then, per seed, it makes three normal `exact_long`
runs: unmodified, with the cost, and unmodified again. Each set's median
of every end-to-end metric is compared with the first set's, as
BENCHMARK.json's bounds judge a change. The self-test passes when the cost
is flagged as a `p50_ms` regression and the second unmodified set is
flagged on nothing.

Run from the repository root.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def run(workload, seed, seconds, trace=0, extra=()):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace), *extra]
    out = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
    if out.returncode != 0:
        sys.exit(f"run failed: {' '.join(cmd)}\n{out.stderr}")
    res = json.loads(out.stdout.strip().splitlines()[-1])
    if not res["correct"]:
        sys.exit(f"answer check failed: {' '.join(cmd)}")
    return {k: v["value"] for k, v in res["metrics"].items()}


def spread(values):
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / q2 if q2 else float("inf")


def cmd_spread(a):
    s = spec()
    seeds = range(a.first, a.first + a.runs)
    runs = [run(a.workload, seed, a.seconds or s["run_seconds"]) for seed in seeds]
    for m in s["end_to_end"]:
        vals = [r[m["name"]] for r in runs]
        sp = spread(vals)
        flag = "ok" if sp < m["bound"] / 3 else "WIDE"
        print(f"{m['name']:<16} median {statistics.median(vals):>12.4f} {m['unit']:<6} "
              f"spread {sp:.4f}  bound {m['bound']}  {flag}  "
              f"[{' '.join(f'{v:.4g}' for v in vals)}]")


def worse(base, other, m):
    """How much worse `other`'s median is than `base`'s, as a share of it."""
    b, o = statistics.median(base), statistics.median(other)
    change = (o - b) / b
    return change if m["better"] == "lower" else -change


def cmd_selftest(a):
    s = spec()
    secs = s["run_seconds"]
    score_us = run("exact_long", 1, secs, trace=1)["core.score_us.p50"]
    inject = 0.1 * score_us
    print(f"core.score_us.p50 = {score_us:.1f} us; injecting {inject:.1f} us per score call",
          flush=True)
    # The three sets take turns per seed, so slow and fast spells of the
    # host fall on all of them alike.
    sets = {"base": [], "injected": [], "again": []}
    for seed in range(1, a.runs + 1):
        for label, cost in (("base", 0.0), ("injected", inject), ("again", 0.0)):
            r = run("exact_long", seed, secs, extra=("--inject-score-us", f"{cost:.3f}"))
            sets[label].append(r)
            print(f"seed {seed} {label:<8} p50_ms {r['p50_ms']:.4f}", flush=True)
    flagged = {}
    for label in ("again", "injected"):
        flagged[label] = []
        for m in s["end_to_end"]:
            w = worse([r[m["name"]] for r in sets["base"]],
                      [r[m["name"]] for r in sets[label]], m)
            if w > m["bound"]:
                flagged[label].append(m["name"])
            print(f"{label:<8} {m['name']:<16} worse by {w:+.4f} (bound {m['bound']})"
                  f"{'  REGRESSION' if w > m['bound'] else ''}")
    caught = "p50_ms" in flagged["injected"]
    clean = not flagged["again"]
    print(f"injected cost flagged on p50_ms: {'yes' if caught else 'NO'}; "
          f"unmodified flagged on: {', '.join(flagged['again']) or 'nothing'}")
    print("self-test", "PASSED" if caught and clean else "FAILED")
    sys.exit(0 if caught and clean else 1)


def main():
    p = argparse.ArgumentParser(description=__doc__,
                                formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = p.add_subparsers(dest="cmd", required=True)
    sp = sub.add_parser("spread")
    sp.add_argument("--workload", required=True)
    sp.add_argument("--runs", type=int, default=10)
    sp.add_argument("--first", type=int, default=1, help="first seed")
    sp.add_argument("--seconds", type=int, default=0)
    st = sub.add_parser("selftest")
    st.add_argument("--runs", type=int, default=5)
    a = p.parse_args()
    {"spread": cmd_spread, "selftest": cmd_selftest}[a.cmd](a)


if __name__ == "__main__":
    main()
