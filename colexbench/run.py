#!/usr/bin/env python3
"""Run one colex benchmark workload and print its result.

Usage, from the root of a checkout:

    python3 colexbench/run.py --workload sim-ring --seed 1 --seconds 10 --trace 0

On first use this configures and builds the benchmark package
(colexbench/CMakeLists.txt, which compiles ../src) in .bench_build/colexbench
as a Release build; later runs only let the build tool check it is current.
Build output goes to stderr.

Standard output ends with two lines:
  * a stamp: git sha, compiler, build type, sanitizers, nproc, CPU model,
    TCP TIME_WAIT sockets before and after the run, plus the run's own facts
    (sample counts, failed_share);
  * the result: {"correct", "attempted", "failed", "metrics"} with every
    end-to-end metric (--trace 0) or every per-layer metric (--trace 1)
    that BENCHMARK.json declares, each as {"value", "unit"}. A per-layer
    metric of a layer the workload does not run reads 0.

Exit codes: 0 every election checked out; 1 some election failed its check;
2 usage, missing sources or build failure; 3 the run timed out, crashed or
printed metrics BENCHMARK.json does not declare.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "colexbench")
BINARY = os.path.join(BUILD, "colexbench")
WORKLOADS = ("sim-ring", "coro-ring", "socket-ring", "soak-churn")
RUN_TIMEOUT_S = 170


def log(msg):
    print("colexbench: " + msg, file=sys.stderr, flush=True)


def build():
    """Configure once, then build; every child's output goes to stderr."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        log("colex sources not found at " + os.path.join(ROOT, "src"))
        return False
    jobs = str(os.cpu_count() or 1)
    # Keep the compiler's temporary files inside the checkout as well.
    tmp = os.path.join(ROOT, ".bench_build", "tmp")
    os.makedirs(tmp, exist_ok=True)
    env = dict(os.environ, TMPDIR=tmp)
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        cmd = ["cmake", "-S", HERE, "-B", BUILD, "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        if subprocess.call(cmd, stdout=sys.stderr, stderr=sys.stderr,
                           env=env) != 0:
            shutil.rmtree(BUILD, ignore_errors=True)
            return False
    cmd = ["cmake", "--build", BUILD, "-j", jobs]
    return subprocess.call(cmd, stdout=sys.stderr, stderr=sys.stderr,
                           env=env) == 0


def git_sha():
    """The checkout's commit, read from .git without leaving the checkout."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD")) as f:
            head = f.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        path = os.path.join(git, ref)
        if os.path.isfile(path):
            with open(path) as f:
                return f.read().strip()
        with open(os.path.join(git, "packed-refs")) as f:
            for line in f:
                parts = line.split()
                if len(parts) == 2 and parts[1] == ref:
                    return parts[0]
    except OSError:
        pass
    return "unknown"


def cpu_model():
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return "unknown"


def time_wait():
    """TCP sockets in TIME_WAIT, from /proc/net/sockstat (-1 if unknown)."""
    try:
        with open("/proc/net/sockstat") as f:
            for line in f:
                if line.startswith("TCP:"):
                    fields = line.split()
                    return int(fields[fields.index("tw") + 1])
    except (OSError, ValueError, IndexError):
        pass
    return -1


def declared_metrics(trace, measured):
    """`measured` in BENCHMARK.json's order, or None if it names a metric
    BENCHMARK.json does not declare, or with another unit. A traced run
    reports a declared per-layer metric of a layer its workload does not
    run as 0; an untraced run must measure every end-to-end metric."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        declared = json.load(f)["per_layer" if trace else "end_to_end"]
    units = {m["name"]: m["unit"] for m in declared}
    for name, m in measured.items():
        if units.get(name) != m["unit"]:
            log("metric %s (%s) is not declared in BENCHMARK.json"
                % (name, m["unit"]))
            return None
    out = {}
    for name, unit in units.items():
        if name not in measured and not trace:
            log("end-to-end metric %s was not measured" % name)
            return None
        out[name] = measured.get(name, {"value": 0, "unit": unit})
    return out


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = ap.parse_args()
    if args.seed < 0 or args.seconds <= 0:
        log("--seed must be >= 0 and --seconds > 0")
        return 2

    if not build():
        log("build failed")
        return 2

    tw_start = time_wait()
    cmd = [BINARY, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds), "--trace", str(args.trace)]
    t0 = time.monotonic()
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        log("run exceeded %d s and was killed" % RUN_TIMEOUT_S)
        return 3
    wall = time.monotonic() - t0
    tw_end = time_wait()

    lines = proc.stdout.strip().splitlines()
    if proc.returncode not in (0, 1) or not lines:
        log("benchmark binary exited with %d" % proc.returncode)
        return 3
    out = json.loads(lines[-1])
    metrics = declared_metrics(args.trace, out["metrics"])
    if metrics is None:
        return 3
    stamp = {
        "git_sha": git_sha(),
        "nproc": os.cpu_count(),
        "cpu_model": cpu_model(),
        "tcp_time_wait_start": tw_start,
        "tcp_time_wait_end": tw_end,
        "run_wall_s": wall,
    }
    stamp.update(out["info"])
    print(json.dumps({"stamp": stamp}))
    result = {k: out[k] for k in ("correct", "attempted", "failed")}
    result["metrics"] = metrics
    print(json.dumps(result), flush=True)
    return 0 if result["correct"] and result["failed"] == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
