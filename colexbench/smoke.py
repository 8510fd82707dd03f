#!/usr/bin/env python3
"""Smoke test of the colex benchmark.

Runs every workload named in BENCHMARK.json for one second with tracing off
and on, and checks that each run exits 0, that its last line is the result
object with exactly the keys correct, attempted, failed and metrics, that
every election checked out, and that it prints exactly the declared
end-to-end (trace off) or per-layer (trace on) metrics, each a finite number
with its declared unit.

    python3 colexbench/smoke.py          # from the root of the checkout

Exit code 0 when every run passes, 1 otherwise.
"""

import json
import math
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def check_run(workload, trace, declared):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload",
           workload, "--seed", "1", "--seconds", "1", "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True)
    problems = []
    if proc.returncode != 0:
        problems.append("exit code %d" % proc.returncode)
    lines = proc.stdout.strip().splitlines()
    if not lines:
        return problems + ["no output"]
    try:
        result = json.loads(lines[-1])
    except ValueError:
        return problems + ["last line is not JSON"]
    keys = sorted(result)
    if keys != ["attempted", "correct", "failed", "metrics"]:
        problems.append("result keys %s" % keys)
    if result.get("correct") is not True or result.get("failed") != 0:
        problems.append("correct=%s failed=%s" %
                        (result.get("correct"), result.get("failed")))
    if not isinstance(result.get("attempted"), int) or result["attempted"] < 1:
        problems.append("attempted=%s" % result.get("attempted"))
    metrics = result.get("metrics", {})
    missing = [m for m in declared if m not in metrics]
    extra = [m for m in metrics if m not in declared]
    if missing:
        problems.append("missing metrics %s" % missing)
    if extra:
        problems.append("undeclared metrics %s" % extra)
    for name, unit in declared.items():
        m = metrics.get(name)
        if m is None:
            continue
        value = m.get("value")
        if not isinstance(value, (int, float)) or not math.isfinite(value):
            problems.append("%s value %r" % (name, value))
        if m.get("unit") != unit:
            problems.append("%s unit %r, declared %r" %
                            (name, m.get("unit"), unit))
    return problems


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    declared = {
        0: {m["name"]: m["unit"] for m in bench["end_to_end"]},
        1: {m["name"]: m["unit"] for m in bench["per_layer"]},
    }
    failures = 0
    for w in bench["workloads"]:
        for trace in (0, 1):
            problems = check_run(w["name"], trace, declared[trace])
            status = "ok" if not problems else "FAIL: " + "; ".join(problems)
            print("%-12s trace=%d  %s" % (w["name"], trace, status), flush=True)
            failures += bool(problems)
    print("smoke: %d of %d runs failed" %
          (failures, 2 * len(bench["workloads"])))
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
