#!/usr/bin/env python3
"""Read, extend and compare the committed perf record, BENCH_perf.json.

Each row of the record holds one commit's perfbench results: the result line
of `perfbench/run.py` for every workload at a fixed seed, once with
`--trace 0` (the end-to-end metrics) and once with `--trace 1` (the
per-layer metrics).

    python3 tools/perf_compare.py A B
        Print, per workload and metric, A's value, B's value and the change
        from A to B.  A and B are commit prefixes, or `#N` for the row at
        index N (`#-1` is the last row).  A commit with several rows stands
        for the median of each metric over them, and n says how many.  An
        end-to-end change is "better" or "worse" only past that metric's
        BENCHMARK.json bound, and "within bound" otherwise; per-layer
        metrics have no bound and get no verdict.  Exits 1 if any row is
        not `correct: true`, or if the rows were not all measured with the
        same run length and seeds.

    python3 tools/perf_compare.py --check [BENCH_perf.json]
        Check every row's schema and that every result is `correct: true`.
        Timings are not gated.

    python3 tools/perf_compare.py --record NOTE [--root DIR]
        Run perfbench for SECONDS in the checkout at DIR (default: this one)
        for every workload with --trace 0 and --trace 1, and append a row
        for DIR's HEAD commit to this checkout's BENCH_perf.json.
"""

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
RECORD = os.path.join(ROOT, "BENCH_perf.json")
WORKLOADS = ("pipeline", "serve_hot", "storage_churn")
SEED = 7  # every workload, every row
SECONDS = 10  # perfbench run length of every result in a row
MODES = ("trace0", "trace1")


def load_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    return {"trace0": spec["end_to_end"], "trace1": spec["per_layer"]}


def check_result(where, result, wanted):
    """Problems with one run.py result line, as strings."""
    if not isinstance(result, dict):
        return [f"{where}: not an object"]
    problems = []
    if result.get("correct") is not True:
        problems.append(f"{where}: correct is {result.get('correct')!r}")
    for key in ("attempted", "failed"):
        if not isinstance(result.get(key), int):
            problems.append(f"{where}: {key} is not an integer")
    metrics = result.get("metrics")
    if not isinstance(metrics, dict):
        return problems + [f"{where}: metrics is not an object"]
    for m in wanted:
        got = metrics.get(m["name"])
        value = got.get("value") if isinstance(got, dict) else None
        if isinstance(value, bool) or not isinstance(value, (int, float)):
            problems.append(f"{where}: metric {m['name']} missing")
        elif got.get("unit") != m["unit"]:
            problems.append(f"{where}: metric {m['name']} unit "
                            f"{got.get('unit')!r}, expected {m['unit']!r}")
    return problems


def check_row(index, row, spec):
    where = f"row {index}"
    if not isinstance(row, dict):
        return [f"{where}: not an object"]
    problems = []
    commit = row.get("commit")
    if not (isinstance(commit, str) and len(commit) >= 7 and
            all(c in "0123456789abcdef" for c in commit)):
        problems.append(f"{where}: commit {commit!r} is not a hex id")
    if not isinstance(row.get("seconds"), int):
        problems.append(f"{where}: seconds is not an integer")
    results = row.get("results")
    if not isinstance(results, dict):
        return problems + [f"{where}: results is not an object"]
    for workload in WORKLOADS:
        entry = results.get(workload)
        if not isinstance(entry, dict):
            problems.append(f"{where}: no {workload} results")
            continue
        if not isinstance(entry.get("seed"), int):
            problems.append(f"{where} {workload}: seed is not an integer")
        for mode in MODES:
            problems += check_result(f"{where} {workload} {mode}",
                                     entry.get(mode), spec[mode])
    return problems


def load_rows(path):
    with open(path) as f:
        record = json.load(f)
    rows = record.get("rows") if isinstance(record, dict) else None
    if not isinstance(rows, list):
        raise ValueError(f"{path}: no rows list")
    return record, rows


def find_rows(rows, key):
    """The rows `key` names: `#N` one row, a commit prefix all its rows."""
    if key.startswith("#"):
        try:
            return [rows[int(key[1:])]]
        except (ValueError, IndexError):
            raise ValueError(f"{key!r} is not a row index") from None
    matches = [r for r in rows if str(r.get("commit", "")).startswith(key)]
    commits = {r["commit"] for r in matches}
    if len(commits) != 1:
        raise ValueError(f"{key!r} matches {len(commits)} commits")
    return matches


def median_metric(rows, workload, mode, name):
    """The median of one metric over rows, or None if a row lacks it."""
    values = []
    for row in rows:
        got = row["results"][workload][mode]["metrics"].get(name)
        if got is None:
            return None
        values.append(got["value"])
    return statistics.median(values)


def change_label(metric, va, vb):
    """How B's value differs from A's, judged against the metric's bound."""
    if metric["unit"] == "count":
        return "same" if va == vb else f"changed by {vb - va:+g}"
    if va == 0:
        return "new"
    rel = (vb - va) / abs(va)
    if rel == 0:
        return "same"
    if "bound" not in metric:
        return f"{rel:+.1%}"
    if abs(rel) <= metric["bound"]:
        return f"{rel:+.1%} (within bound)"
    better = rel > 0 if metric["better"] == "higher" else rel < 0
    return f"{rel:+.1%} ({'better' if better else 'worse'})"


def compare(rows, a_key, b_key, spec):
    a, b = find_rows(rows, a_key), find_rows(rows, b_key)
    status = 0
    for name, group in ((a_key, a), (b_key, b)):
        for row in group:
            for problem in check_row(name, row, spec):
                print(f"not correct: {problem}", file=sys.stderr)
                status = 1
    first = a[0]
    method = [row.get("seconds") == first.get("seconds") and
              all(row["results"][w]["seed"] == first["results"][w]["seed"]
                  for w in WORKLOADS) for row in a + b]
    if not all(method):
        print("not comparable: the rows differ in run length or seeds",
              file=sys.stderr)
        return 1
    for label, group in (("A", a), ("B", b)):
        print(f"{label} = {group[0]['commit']} (n={len(group)})  "
              f"{group[-1].get('note', '')}")
    for workload in WORKLOADS:
        for mode in MODES:
            print(f"\n{workload} --trace {mode[-1]}")
            for m in spec[mode]:
                va = median_metric(a, workload, mode, m["name"])
                vb = median_metric(b, workload, mode, m["name"])
                if va is None or vb is None or va == vb == 0:
                    continue
                print(f"  {m['name']:<24} {va:>14.6g} {vb:>14.6g}  "
                      f"{change_label(m, va, vb)}")
    return status


def run_perfbench(root, workload, trace):
    cmd = [sys.executable, os.path.join(root, "perfbench", "run.py"),
           "--workload", workload, "--seed", str(SEED),
           "--seconds", str(SECONDS), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=root, stdout=subprocess.PIPE, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"{' '.join(cmd)} exited with {proc.returncode}")
    return json.loads(lines[-1])


def host_description():
    cpu = platform.processor() or platform.machine()
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return f"{cpu}, {os.cpu_count()} logical CPUs, {platform.system()}"


def record(note, root):
    commit = subprocess.run(["git", "-C", root, "rev-parse", "--short=7",
                             "HEAD"], stdout=subprocess.PIPE, text=True,
                            check=True).stdout.strip()
    row = {"commit": commit, "note": note, "host": host_description(),
           "seconds": SECONDS, "results": {}}
    for workload in WORKLOADS:
        entry = {"seed": SEED}
        for trace in (0, 1):
            entry[f"trace{trace}"] = run_perfbench(root, workload, trace)
        row["results"][workload] = entry
    problems = check_row(commit, row, load_spec())
    if problems:
        raise RuntimeError("not appended: " + "; ".join(problems))
    data = load_rows(RECORD)[0] if os.path.exists(RECORD) else {"rows": []}
    data["rows"].append(row)
    with open(RECORD, "w") as f:
        json.dump(data, f, indent=1)
        f.write("\n")
    print(f"appended {commit} to {RECORD}")


def main():
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawTextHelpFormatter)
    parser.add_argument("rows", nargs="*", help="two rows to compare: A B")
    parser.add_argument("--check", nargs="?", const=RECORD, metavar="FILE")
    parser.add_argument("--record", metavar="NOTE")
    parser.add_argument("--root", default=ROOT)
    args = parser.parse_args()
    spec = load_spec()

    if args.check is not None:
        _, rows = load_rows(args.check)
        problems = [p for i, r in enumerate(rows)
                    for p in check_row(i, r, spec)]
        for p in problems:
            print(p, file=sys.stderr)
        if not rows:
            print(f"{args.check}: no rows", file=sys.stderr)
            return 1
        print(f"{args.check}: {len(rows)} rows, "
              f"{'ok' if not problems else f'{len(problems)} problems'}")
        return 1 if problems else 0
    if args.record is not None:
        record(args.record, os.path.abspath(args.root))
        return 0
    if len(args.rows) != 2:
        parser.error("give two rows to compare, --check or --record")
    _, rows = load_rows(RECORD)
    return compare(rows, args.rows[0], args.rows[1], spec)


if __name__ == "__main__":
    try:
        sys.exit(main())
    except (OSError, ValueError, KeyError, RuntimeError,
            subprocess.SubprocessError) as e:
        print(f"perf_compare.py: {e}", file=sys.stderr)
        sys.exit(1)
