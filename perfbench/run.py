#!/usr/bin/env python3
"""Repository benchmark: build perfbench from source, run one workload, gate it.

    python3 perfbench/run.py --workload pipeline|serve_hot|storage_churn \
        --seed N --seconds S --trace 0|1

Run from the root of a checkout.  The first call configures and builds the
benchmark (and the library it links) under .bench_build/; later calls only
re-run the incremental build.  The binary measures the workload, checks every
iteration's outputs against the first iteration, and reports its work
counters and output digests; this script diffs those exactly against the
values recorded in perfbench/expected.json for the seed's input variant and
names every counter or digest that changed.  The last line of stdout is one
JSON object: {"correct", "attempted", "failed", "metrics"}.  With --trace 0
the metrics are BENCHMARK.json's end_to_end list, with --trace 1 its
per_layer list (a layer the workload never enters reports 0).

    python3 perfbench/run.py --record

re-records perfbench/expected.json (every workload, every variant).  Do that
only when a change to the library is meant to change the recorded work.
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
BINARY = os.path.join(BUILD, "perfbench")
EXPECTED = os.path.join(HERE, "expected.json")
WORKLOADS = ("pipeline", "serve_hot", "storage_churn")
VARIANTS = 16  # must match kVariants in bench.hpp
RUN_TIMEOUT_S = 170


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def build():
    """Configure once, then build incrementally; build output goes to stderr."""
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    generated = ("Makefile", "build.ninja")  # written only by a good configure
    if not any(os.path.exists(os.path.join(BUILD, g)) for g in generated):
        subprocess.run(["cmake", "-S", HERE, "-B", BUILD,
                        "-DCMAKE_BUILD_TYPE=Release"],
                       check=True, stdout=sys.stderr, stderr=sys.stderr)
    subprocess.run(["cmake", "--build", BUILD, "-j", jobs],
                   check=True, stdout=sys.stderr, stderr=sys.stderr)


def run_binary(workload, seed, seconds, trace):
    trace_dir = os.path.join(ROOT, ".bench_build", "traces")
    os.makedirs(trace_dir, exist_ok=True)
    cmd = [BINARY, "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "1" if trace else "0",
           "--trace-out", os.path.join(trace_dir, workload + ".json")]
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=sys.stderr,
                          text=True, timeout=RUN_TIMEOUT_S)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"perfbench exited with {proc.returncode}")
    for line in lines[:-1]:
        log(line)
    return json.loads(lines[-1])


def diff_recorded(workload, variant, out):
    """Names of every recorded counter or digest this run did not reproduce."""
    with open(EXPECTED) as f:
        recorded = json.load(f).get(workload, {}).get(str(variant))
    if recorded is None:
        return [f"no recorded values for {workload} variant {variant}"]
    problems = []
    for kind in ("counters", "digests"):
        want, got = recorded[kind], out[kind]
        for name in sorted(set(want) | set(got)):
            if want.get(name) != got.get(name):
                problems.append(f"{kind[:-1]} {name}: recorded "
                                f"{want.get(name)}, measured {got.get(name)}")
    return problems


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record", action="store_true")
    args = parser.parse_args()
    if args.seed < 0 or args.seconds < 1:
        parser.error("--seed must be >= 0 and --seconds >= 1")

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    build()

    if args.record:
        recorded = {}
        for workload in WORKLOADS:
            recorded[workload] = {}
            for variant in range(VARIANTS):
                out = run_binary(workload, variant, 1, False)
                if out["failed"]:
                    log(f"{workload} variant {variant}: checks failed")
                    return 1
                recorded[workload][str(variant)] = {
                    "counters": out["counters"], "digests": out["digests"]}
        with open(EXPECTED, "w") as f:
            json.dump(recorded, f, indent=1, sort_keys=True)
            f.write("\n")
        log(f"wrote {EXPECTED}")
        return 0

    if args.workload is None:
        parser.error("--workload is required")
    out = run_binary(args.workload, args.seed, args.seconds, args.trace)
    attempted, failed = int(out["attempted"]), int(out["failed"])
    problems = diff_recorded(args.workload, args.seed % VARIANTS, out)
    for p in problems:
        log(f"counter gate: {p}")
    if problems:
        failed = attempted  # every iteration disagrees with the record

    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]
    measured = out["metrics"]
    metrics = {}
    for m in wanted:
        name = m["name"]
        if name in measured:
            metrics[name] = {"value": measured[name]["value"], "unit": m["unit"]}
        elif args.trace:
            metrics[name] = {"value": 0.0, "unit": m["unit"]}
        else:
            log(f"end-to-end metric {name} was not measured")
            return 1
    log(f"failed_frac = {failed}/{attempted} = {failed / max(attempted, 1):.6f}")
    print(json.dumps({"correct": failed == 0 and not problems,
                      "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except (OSError, subprocess.SubprocessError, RuntimeError,
            ValueError, KeyError) as e:
        log(f"run.py: {e}")
        sys.exit(1)
