#!/usr/bin/env python3
"""Pack perfbench results into a BENCH_<n>.json, or check them against one.

    python3 bench/bench_json.py pack <results-dir> <out.json>
    python3 bench/bench_json.py check <results-dir>

<results-dir> is where perfbench/run.py writes its result records
(`$CARGO_TARGET_DIR/perfbench/results`); see README.md "Benchmark results".
"""
import glob
import json
import math
import os
import re
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.dont_write_bytecode = True  # leave no __pycache__ inside perfbench/
sys.path.insert(0, os.path.join(ROOT, "perfbench"))
import compare  # noqa: E402


def records(results_dir):
    groups = compare.load(results_dir)
    return [r for key in sorted(groups) if key[1] == 0 for r in groups[key]]


def change(base, new):
    if base:
        return (new - base) / abs(base)
    return 0.0 if new == base else math.copysign(math.inf, new - base)


def pack(results_dir, out_path):
    results = records(results_dir)
    commits = {r["fingerprint"]["commit"] for r in results}
    hosts = compare.host(results)
    failed = [r["workload"] for r in results if not r["correct"] or r["failed"]]
    if len(commits) != 1 or len(hosts) != 1 or failed:
        print("bench_json: refusing to pack %d commit(s), %d host(s), failed "
              "checks in %s" % (len(commits), len(hosts), failed or "none"))
        return 1
    with open(out_path, "w") as f:
        json.dump({"results": results}, f, indent=1, sort_keys=True)
    return 0


def check(results_dir):
    now = records(results_dir)
    paths = glob.glob(os.path.join(ROOT, "BENCH_*[0-9].json"))
    for path in sorted(paths, reverse=True,
                       key=lambda p: int(re.search(r"(\d+)\.json$", p)[1])):
        with open(path) as f:
            base = [r for r in json.load(f).get("results", [])
                    if r["trace"] == 0]
        if base and compare.host(base) == compare.host(now):
            break
    else:
        print("no comparable baseline for host %s" % sorted(compare.host(now)))
        return 0
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    for workload in (w["name"] for w in spec["workloads"]):
        b = [r for r in base if r["workload"] == workload]
        n = [r for r in now if r["workload"] == workload]
        if not b or not n:
            print("== %s: not measured on both sides" % workload)
            continue
        print("== %s: %d run(s) in %s, calibration %.0f ns -> %d run(s), %.0f ns"
              % (workload, len(b), os.path.basename(path),
                 compare.calibration(b), len(n), compare.calibration(n)))
        for m in spec["end_to_end"]:
            mb, mn = (compare.summary(rs, m["name"])[0] for rs in (b, n))
            if mb is None or mn is None:
                continue
            moved = change(mb, mn)
            worse = moved if m["better"] == "lower" else -moved
            print("%s%s %-23s %12.6g -> %12.6g %-5s %+7.1f%% (bound %.0f%%)"
                  % ("::warning title=perf regression::"
                     if worse > m["bound"] else "   ", workload, m["name"],
                     mb, mn, m["unit"], 100 * moved, 100 * m["bound"]))
    return 0


if __name__ == "__main__":
    commands = {("pack", 4): pack, ("check", 3): check}
    command = commands.get(((sys.argv[1:2] or [""])[0], len(sys.argv)))
    if command is None:
        sys.exit(print(__doc__, file=sys.stderr) or 2)
    sys.exit(command(*sys.argv[2:]))
