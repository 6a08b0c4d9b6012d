#!/usr/bin/env python3
"""Self-test of the IMP benchmark in its tiny-size smoke mode.

Usage (from the repository root): python3 perfbench/selftest.py

For every workload in BENCHMARK.json it checks that
  * an untraced run exits 0 and its result line has correct=true and every
    end_to_end metric, with the declared unit and a finite non-zero value;
  * a traced run exits 0 and its result line has every per_layer metric
    with the declared unit, and the per-layer self times add up to the
    request's span: for every request kind with at least 10 requests, the
    median excess of the clamped self-time sum over the span stays within
    the reported tracing overhead (or 10%, whichever is larger);
  * a run whose gate compares a deliberately corrupted answer (--corrupt)
    exits non-zero with correct=false.
Exits 0 when every check passes.
"""

import json
import math
import os
import re
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def run(workload, trace, *extra):
    cmd = [sys.executable, os.path.join(ROOT, "perfbench", "run.py"),
           "--workload", workload, "--seed", "7", "--seconds", "1",
           "--trace", str(trace), "--smoke"] + list(extra)
    p = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                       stderr=subprocess.DEVNULL, text=True, timeout=600)
    lines = p.stdout.strip().splitlines()
    return p.returncode, lines, json.loads(lines[-1]) if lines else None


def check_metrics(result, declared, errors, where):
    metrics = result["metrics"]
    names = [m["name"] for m in declared]
    if sorted(metrics) != sorted(names):
        errors.append("%s: metric names differ: extra %s missing %s" % (
            where, sorted(set(metrics) - set(names)), sorted(set(names) - set(metrics))))
    for m in declared:
        got = metrics.get(m["name"])
        if got is None:
            continue
        if got.get("unit") != m["unit"]:
            errors.append("%s: %s has unit %r, declared %r" % (
                where, m["name"], got.get("unit"), m["unit"]))
        if not isinstance(got.get("value"), (int, float)) or not math.isfinite(got["value"]):
            errors.append("%s: %s value %r" % (where, m["name"], got.get("value")))


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    errors = []
    for workload in [w["name"] for w in spec["workloads"]]:
        code, _, result = run(workload, 0)
        where = "%s trace 0" % workload
        if code != 0 or not result or result["correct"] is not True:
            errors.append("%s: exit %d result %s" % (where, code, result))
        else:
            check_metrics(result, spec["end_to_end"], errors, where)
            zero = [k for k, v in result["metrics"].items() if v["value"] == 0]
            if zero:
                errors.append("%s: zero-valued end-to-end metrics %s" % (where, zero))

        code, lines, result = run(workload, 1)
        where = "%s trace 1" % workload
        if code != 0 or not result or result["correct"] is not True:
            errors.append("%s: exit %d result %s" % (where, code, result))
        else:
            check_metrics(result, spec["per_layer"], errors, where)
            overhead = abs(result["metrics"]["env.trace_overhead_share"]["value"])
            decompositions = [l for l in lines if l.startswith("# decomposition ")]
            if not decompositions:
                errors.append("%s: no request decomposition printed" % where)
            for line in decompositions:
                if int(re.search(r" n=(\d+)", line).group(1)) < 10:
                    continue
                excess = float(re.search(r"median_excess=(\S+)", line).group(1))
                if excess > max(overhead, 0.10):
                    errors.append("%s: self times exceed the span: %s" % (where, line))

        code, _, result = run(workload, 0, "--corrupt")
        where = "%s --corrupt" % workload
        if code == 0 or not result or result["correct"] is not False:
            errors.append("%s: corrupted answer not rejected (exit %d, %s)" % (
                where, code, result and result["correct"]))
        print("%-12s checked" % workload, flush=True)
    for e in errors:
        print("FAIL", e)
    print("selftest", "FAILED" if errors else "passed")
    return 1 if errors else 0


if __name__ == "__main__":
    sys.exit(main())
