#!/usr/bin/env python3
"""Builds and runs the sbsched benchmark.

    python3 perfbench/run.py --workload <month-deep|fed-ops|serve-open>
                             --seed <n> --seconds <s> --trace <0|1>
    python3 perfbench/run.py --selftest

Run from the repository root. The first call configures and builds the
program and the benchmark from source (Release) under $CARGO_TARGET_DIR,
or .bench_build when that is unset; later calls rebuild incrementally.
The last line of standard output is the JSON result. Scratch files
(generated traces, telemetry, checkpoints, spans of a traced run) go to
<build dir>/work.
"""

import argparse
import hashlib
import os
import shutil
import subprocess
import sys

WORKLOADS = ("month-deep", "fed-ops", "serve-open")


def fail(msg):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(1)


def source_id(root):
    """The git commit when the tree is a checkout, else a digest of the sources."""
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root,
                             capture_output=True, text=True, timeout=10)
        if out.returncode == 0 and out.stdout.strip():
            return out.stdout.strip()
    except (OSError, subprocess.SubprocessError):
        pass
    h = hashlib.sha256()
    for top in ("CMakeLists.txt", "src", "tools", "perfbench"):
        path = os.path.join(root, top)
        files = [path] if os.path.isfile(path) else sorted(
            os.path.join(d, f) for d, _, fs in os.walk(path) for f in fs)
        for f in files:
            h.update(os.path.relpath(f, root).encode())
            with open(f, "rb") as fh:
                h.update(fh.read())
    return "tree-sha256:" + h.hexdigest()[:16]


def build(root, build_dir):
    for needed in ("CMakeLists.txt", "src", "tools"):
        if not os.path.exists(os.path.join(root, needed)):
            fail("no %s in %s: run from the root of an sbsched source tree"
                 % (needed, root))
    os.makedirs(build_dir, exist_ok=True)
    log_path = os.path.join(build_dir, "build.log")
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", os.path.join(root, "perfbench"), "-B",
                      build_dir, "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", build_dir, "-j", jobs, "--target",
                  "perfbench", "perfbench_selftest"])
    with open(log_path, "w") as log:
        for cmd in steps:
            r = subprocess.run(cmd, stdout=log, stderr=subprocess.STDOUT)
            if r.returncode != 0:
                log.flush()
                with open(log_path) as fh:
                    sys.stderr.write(fh.read()[-4000:])
                fail("build failed (%s); full log in %s" % (cmd[1], log_path))


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--selftest", action="store_true",
                    help="run the benchmark's own tests and exit")
    args = ap.parse_args()
    if not args.selftest and args.workload is None:
        ap.error("--workload is required")

    root = os.getcwd()
    build_dir = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    build_dir = os.path.relpath(os.path.abspath(build_dir), root)
    build(root, build_dir)

    if args.selftest:
        r = subprocess.run([os.path.join(build_dir, "perfbench_selftest"),
                            os.path.join(root, "BENCHMARK.json")])
        sys.exit(r.returncode)

    # Relative paths keep the server's socket path short.
    work = os.path.join(build_dir, "work")
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(work)
    cmd = [os.path.join(build_dir, "perfbench"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds), "--trace", str(args.trace),
           "--work-dir", work, "--commit", source_id(root)]
    try:
        r = subprocess.run(cmd, timeout=175)
    except subprocess.TimeoutExpired:
        fail("benchmark timed out")
    if r.returncode != 0:
        fail("benchmark exited with code %d" % r.returncode)


if __name__ == "__main__":
    main()
