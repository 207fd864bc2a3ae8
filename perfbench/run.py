#!/usr/bin/env python3
"""Run one workload of the repository's benchmark.

Usage, from the root of the repository:

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

The script builds the `perfbench` binary from source (CMake, Release) into
`$CARGO_TARGET_DIR/perfbench` (default `.bench_build/perfbench`), runs the
workload for the given time, and prints a host-fingerprint line followed by
one JSON line: {"correct", "attempted", "failed", "metrics"}. With
`--trace 0` the metrics are the end-to-end metrics of BENCHMARK.json, with
`--trace 1` its per-layer metrics. The full result (fingerprint, sample
counts, digests, check failures) is written to `<build>/results/`, and the
traced run's spans to `<build>/traces/`. See perfbench/README.md.
"""
import argparse
import hashlib
import json
import os
import shutil
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BINARY_TIMEOUT_S = 170


def fail(msg):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(1)


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    if not os.path.isabs(base):
        base = os.path.join(ROOT, base)
    return os.path.join(base, "perfbench")


def build(out_dir):
    """Configure once, then build the binary; the build log goes to stderr."""
    jobs = str(max(1, min(2, os.cpu_count() or 1)))
    if not os.path.exists(os.path.join(out_dir, "CMakeCache.txt")):
        subprocess.run(["cmake", "-S", HERE, "-B", out_dir,
                        "-DCMAKE_BUILD_TYPE=Release"],
                       check=True, stdout=sys.stderr, stderr=sys.stderr)
    subprocess.run(["cmake", "--build", out_dir, "-j", jobs,
                    "--target", "perfbench"],
                   check=True, stdout=sys.stderr, stderr=sys.stderr)
    return os.path.join(out_dir, "perfbench")


def cpu_model():
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return "unknown"


def commit_id():
    """The git commit when run from a clone, else a digest of the sources."""
    try:
        out = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=10)
        if out.returncode == 0 and out.stdout.strip():
            return out.stdout.strip()
    except (OSError, subprocess.SubprocessError):
        pass
    h = hashlib.sha256()
    for top in ("src", "perfbench"):
        for dirpath, dirnames, filenames in os.walk(os.path.join(ROOT, top)):
            dirnames.sort()
            for name in sorted(filenames):
                path = os.path.join(dirpath, name)
                h.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as f:
                    h.update(f.read())
    return "tree-" + h.hexdigest()[:16]


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = ap.parse_args()

    if not os.path.exists(os.path.join(ROOT, "src", "sim", "engine.hpp")):
        fail("the simulator sources (src/) are missing; run from a checkout "
             "of the repository")
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    if args.workload not in [w["name"] for w in spec["workloads"]]:
        fail("unknown workload '%s'" % args.workload)
    if args.seed < 0 or args.seconds <= 0:
        fail("--seed must be >= 0 and --seconds > 0")
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]
    units = {m["name"]: m["unit"] for m in wanted}

    out_dir = build_dir()
    try:
        binary = build(out_dir)
    except (OSError, subprocess.CalledProcessError) as e:
        fail("build failed: %s" % e)

    tag = "%s-seed%d-trace%d" % (args.workload, args.seed, args.trace)
    work = os.path.join(out_dir, "work", tag)
    shutil.rmtree(work, ignore_errors=True)
    trace_path = os.path.join(out_dir, "traces", tag + ".json")
    os.makedirs(os.path.dirname(trace_path), exist_ok=True)
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds), "--trace", str(args.trace),
           "--work-dir", work,
           "--digests", os.path.join(HERE, "digests.txt"),
           "--trace-out", trace_path]
    started = time.time()
    try:
        proc = subprocess.run(cmd, capture_output=True, text=True,
                              timeout=BINARY_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail("workload did not finish within %d s" % BINARY_TIMEOUT_S)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    sys.stderr.write(proc.stderr)
    if proc.returncode != 0 or not proc.stdout.strip():
        fail("workload exited with code %d" % proc.returncode)
    raw = json.loads(proc.stdout.strip().splitlines()[-1])

    got = set(raw["metrics"])
    if got != set(units):
        fail("metric set differs from BENCHMARK.json: missing %s, extra %s"
             % (sorted(set(units) - got), sorted(got - set(units))))
    metrics = {name: {"value": raw["metrics"][name], "unit": units[name]}
               for name in units}

    fingerprint = {
        "cpu_model": cpu_model(),
        "nproc": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
        else os.cpu_count(),
        "compiler": raw["fingerprint"]["compiler"],
        "build_type": raw["fingerprint"]["build_type"],
        "commit": commit_id(),
        "calibration_ns": raw["fingerprint"]["calibration_ns"],
    }
    full = {
        "workload": args.workload, "seed": args.seed,
        "seconds": args.seconds, "trace": args.trace,
        "wall_s": time.time() - started,
        "fingerprint": fingerprint,
        "correct": raw["correct"], "attempted": raw["attempted"],
        "failed": raw["failed"], "checks": raw["checks"],
        "failures": raw["failures"], "digest": raw["digest"],
        "golden_digest": raw["golden_digest"],
        "metrics": metrics, "info": raw["info"],
        "trace_file": trace_path if args.trace else None,
    }
    results = os.path.join(out_dir, "results")
    os.makedirs(results, exist_ok=True)
    with open(os.path.join(results, tag + ".json"), "w") as f:
        json.dump(full, f, indent=1, sort_keys=True)

    for msg in raw["failures"]:
        print("perfbench: check failed: " + msg, file=sys.stderr)
    print("# host " + json.dumps(fingerprint, sort_keys=True))
    print(json.dumps({"correct": raw["correct"], "attempted": raw["attempted"],
                      "failed": raw["failed"], "metrics": metrics}))


if __name__ == "__main__":
    main()
