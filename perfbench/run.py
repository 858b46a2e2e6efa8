#!/usr/bin/env python3
"""End-to-end benchmark of the epidemic replicated database.

Builds the daemon and the driver from this checkout (perfbench/CMakeLists.txt)
and runs one workload against a forked 3-node `epidemicd` cluster:

    python3 perfbench/run.py --workload zipf-steady --seed 1 --seconds 10 --trace 0

Workloads: zipf-steady, bulk-catchup, quiescent (see perfbench/README.md).
The build goes to $CARGO_TARGET_DIR if set, else .bench_build, both relative
to the checkout root. The last line of standard output is the JSON result;
the line before it is a JSON report of the run. Exits non-zero, without a
result, when the build fails or a correctness check fails.
"""

import argparse
import os
import re
import shutil
import signal
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
WORKLOADS = ("zipf-steady", "bulk-catchup", "quiescent")
RUN_TIMEOUT_S = 170


def build_dir():
    return os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR") or ".bench_build")


def build(out_dir, env):
    """Configures (once) and builds; returns the cmake binary dir or None."""
    cmake_dir = os.path.join(out_dir, "cmake")
    steps = []
    if not os.path.exists(os.path.join(cmake_dir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", os.path.join(ROOT, "perfbench"), "-B", cmake_dir,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", cmake_dir, "-j", str(os.cpu_count() or 2)])
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr, env=env).returncode != 0:
            return None
    return cmake_dir


def flush_policy():
    """The journal's durability policy as the source states it."""
    try:
        with open(os.path.join(ROOT, "src", "core", "journal.cc")) as f:
            code = f.read()
    except OSError:
        return "unknown (no src/core/journal.cc)"
    syncs = sorted(set(re.findall(r"\b(fsync|fdatasync|sync_file_range)\s*\(", code)))
    flushes = len(re.findall(r"\bfflush\s*\(", code))
    if syncs:
        return "journal calls %s (and fflush at %d sites)" % ("/".join(syncs), flushes)
    return "journal fflush per record at %d sites, never fsync" % flushes


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    for needed in ("src/server/replica_server.cc", "tools/epidemicd.cc"):
        if not os.path.exists(os.path.join(ROOT, needed)):
            print("perfbench: %s missing; run from an epidemic checkout" % needed,
                  file=sys.stderr)
            return 2

    out_dir = build_dir()
    # Compiler and driver temporaries stay inside the checkout too.
    env = dict(os.environ, TMPDIR=os.path.join(out_dir, "tmp"))
    os.makedirs(env["TMPDIR"], exist_ok=True)
    cmake_dir = build(out_dir, env)
    if cmake_dir is None:
        print("perfbench: build failed", file=sys.stderr)
        return 1

    workdir = os.path.join(out_dir, "run-%d" % os.getpid())
    cmd = [os.path.join(cmake_dir, "perfbench_driver"),
           "--workload=" + args.workload,
           "--seed=%d" % args.seed,
           "--seconds=%d" % args.seconds,
           "--trace=%d" % args.trace,
           "--daemon=" + os.path.join(cmake_dir, "perfbench_epidemicd"),
           "--workdir=" + workdir,
           # Spans of the latest traced run of each workload.
           "--tracefile=" + os.path.join(out_dir, "traces", args.workload + ".jsonl"),
           "--flush-policy=" + flush_policy()]
    sys.stdout.flush()
    proc = subprocess.Popen(cmd, env=env)
    try:
        return proc.wait(timeout=RUN_TIMEOUT_S)
    except (subprocess.TimeoutExpired, KeyboardInterrupt):
        # The daemons die with the driver (PR_SET_PDEATHSIG).
        proc.send_signal(signal.SIGKILL)
        proc.wait()
        print("perfbench: run did not finish in %d s" % RUN_TIMEOUT_S, file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
