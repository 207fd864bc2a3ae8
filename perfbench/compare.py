#!/usr/bin/env python3
"""Compare benchmark result files of two commits, workload by workload.

Usage:

    python3 perfbench/compare.py <base-results-dir> <new-results-dir>

Each directory holds the `results/*.json` files perfbench/run.py writes. For
every (workload, trace) pair present on both sides, the script prints each
metric's median on both sides, its quartile spread, and the change against
the base median. Results whose host fingerprints differ (CPU model, nproc,
compiler, build type), or whose calibration loops differ by more than 10%,
are flagged NOT COMPARABLE: the numbers came from different or differently
loaded hosts. The commit is part of the fingerprint but is expected to
differ between the two sides.
"""
import glob
import json
import os
import statistics
import sys

HOST_KEYS = ("cpu_model", "nproc", "compiler", "build_type")


def load(directory):
    groups = {}
    for path in sorted(glob.glob(os.path.join(directory, "*.json"))):
        with open(path) as f:
            r = json.load(f)
        groups.setdefault((r["workload"], r["trace"]), []).append(r)
    return groups


def host(results):
    return {tuple(r["fingerprint"][k] for k in HOST_KEYS) for r in results}


def calibration(results):
    return statistics.median(r["fingerprint"]["calibration_ns"]
                             for r in results)


def summary(results, name):
    values = [r["metrics"][name]["value"] for r in results
              if name in r["metrics"]]
    if len(values) < 2:
        return (values[0], 0.0) if values else (None, None)
    q = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    return med, ((q[2] - q[0]) / med if med else 0.0)


def main():
    if len(sys.argv) != 3:
        print(__doc__, file=sys.stderr)
        return 2
    base, new = load(sys.argv[1]), load(sys.argv[2])
    comparable = True
    for key in sorted(set(base) & set(new)):
        b, n = base[key], new[key]
        print("== %s (trace %d): %d base run(s), %d new run(s)"
              % (key[0], key[1], len(b), len(n)))
        hosts = host(b) | host(n)
        cal_b, cal_n = calibration(b), calibration(n)
        if len(hosts) > 1 or abs(cal_n - cal_b) > 0.10 * cal_b:
            comparable = False
            print("   NOT COMPARABLE: hosts %s, calibration %.0f vs %.0f ns"
                  % (sorted(hosts), cal_b, cal_n))
        for name in sorted(b[0]["metrics"]):
            mb, sb = summary(b, name)
            mn, sn = summary(n, name)
            if mb is None or mn is None:
                continue
            change = (mn - mb) / mb if mb else 0.0
            print("   %-38s %14.6g (±%.3f) -> %14.6g (±%.3f)  %+.2f%%"
                  % (name, mb, sb, mn, sn, 100 * change))
    return 0 if comparable else 1


if __name__ == "__main__":
    sys.exit(main())
