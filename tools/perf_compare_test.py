#!/usr/bin/env python3
"""Tests of tools/perf_compare.py's row comparison on synthetic records.

    python3 tools/perf_compare_test.py
"""

import contextlib
import copy
import io
import os
import sys
import unittest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import perf_compare  # noqa: E402

SPEC = perf_compare.load_spec()
BASE = {"setup_s": 1.0, "work_per_s": 100.0, "call_p50_ms": 10.0,
        "peak_rss_mb": 50.0}


def make_row(commit, end_to_end, seed=7):
    """A correct row whose trace0 metrics are `end_to_end` on every
    workload; every per-layer metric is 1."""
    def result(mode, values):
        metrics = {m["name"]: {"value": values.get(m["name"], 1),
                               "unit": m["unit"]} for m in SPEC[mode]}
        return {"correct": True, "attempted": 10, "failed": 0,
                "metrics": metrics}
    results = {w: {"seed": seed, "trace0": result("trace0", end_to_end),
                   "trace1": result("trace1", {})}
               for w in perf_compare.WORKLOADS}
    return {"commit": commit, "note": "synthetic", "host": "test",
            "seconds": perf_compare.SECONDS, "results": results}


def run_compare(rows, a, b):
    out = io.StringIO()
    with contextlib.redirect_stdout(out), \
            contextlib.redirect_stderr(io.StringIO()):
        status = perf_compare.compare(rows, a, b, SPEC)
    return status, out.getvalue()


def label(output, workload, metric):
    """The change column of `metric` in `workload`'s --trace 0 block."""
    block = output.split(f"{workload} --trace 0\n", 1)[1]
    for line in block.splitlines():
        if line.split() and line.split()[0] == metric:
            return line.split(None, 3)[3]
    raise AssertionError(f"{metric} not printed for {workload}")


class CompareLabels(unittest.TestCase):
    def test_only_changes_past_the_bound_are_judged(self):
        changed = dict(BASE, work_per_s=110.0,    # +10%, bound 24%
                       call_p50_ms=7.0,           # -30%, bound 24%
                       peak_rss_mb=60.0)          # +20%, bound 15%
        rows = [make_row("aaaaaaa", BASE), make_row("bbbbbbb", changed)]
        status, out = run_compare(rows, "aaaaaaa", "bbbbbbb")
        self.assertEqual(status, 0)
        self.assertEqual(label(out, "serve_hot", "work_per_s"),
                         "+10.0% (within bound)")
        self.assertEqual(label(out, "serve_hot", "call_p50_ms"),
                         "-30.0% (better)")
        self.assertEqual(label(out, "serve_hot", "peak_rss_mb"),
                         "+20.0% (worse)")
        self.assertEqual(label(out, "serve_hot", "setup_s"), "same")

    def test_several_rows_of_a_commit_compare_by_median(self):
        rows = [make_row("aaaaaaa", dict(BASE, work_per_s=v))
                for v in (90.0, 100.0, 500.0)]
        rows.append(make_row("bbbbbbb", dict(BASE, work_per_s=150.0)))
        status, out = run_compare(rows, "aaaaaaa", "#-1")
        self.assertEqual(status, 0)
        self.assertIn("A = aaaaaaa (n=3)", out)
        self.assertIn("B = bbbbbbb (n=1)", out)
        self.assertEqual(label(out, "pipeline", "work_per_s"),
                         "+50.0% (better)")

    def test_rows_with_other_seeds_are_not_comparable(self):
        rows = [make_row("aaaaaaa", BASE), make_row("bbbbbbb", BASE, seed=8)]
        status, _ = run_compare(rows, "aaaaaaa", "bbbbbbb")
        self.assertEqual(status, 1)


if __name__ == "__main__":
    unittest.main()
