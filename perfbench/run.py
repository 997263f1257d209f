#!/usr/bin/env python3
"""Builds the program from source and runs one benchmark workload.

    python3 perfbench/run.py --workload explore|run|serve|overload \
        --seed N --seconds S --trace 0|1

The build goes to .bench_build/ at the repository root (CMake, the
standalone project in perfbench/CMakeLists.txt); reports and the Chrome
trace of a traced run go to .bench_build/perfbench-out/. Build output goes
to stderr, so the last line on stdout is the benchmark's JSON result. The
script checks that result against BENCHMARK.json and exits non-zero when
the build fails, a check fails, or the result does not match.
"""

import argparse
import hashlib
import json
import os
import signal
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build")
OUT = os.path.join(BUILD, "perfbench-out")
BINARY = os.path.join(BUILD, "s2fa_perfbench")


def fail(message, code=2):
    print("perfbench: " + message, file=sys.stderr)
    sys.exit(code)


def run_quiet(cmd):
    """Runs a build step with its output on stderr; fails on error."""
    result = subprocess.run(cmd, cwd=ROOT, stdout=sys.stderr, stderr=sys.stderr)
    if result.returncode != 0:
        fail("build step failed: " + " ".join(cmd))


def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail("no program sources next to perfbench/ (expected src/)")
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        run_quiet(["cmake", "-S", HERE, "-B", BUILD,
                   "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    jobs = str(min(4, os.cpu_count() or 1))
    run_quiet(["cmake", "--build", BUILD, "--target", "s2fa_perfbench",
               "-j", jobs])


def source_id():
    """The git revision, or a hash of the sources outside a git checkout."""
    if os.path.isdir(os.path.join(ROOT, ".git")):
        result = subprocess.run(["git", "rev-parse", "--short=12", "HEAD"],
                                cwd=ROOT, capture_output=True, text=True)
        if result.returncode == 0:
            return "git-" + result.stdout.strip()
    digest = hashlib.sha1()
    for top in ("src", "perfbench"):
        for dirpath, dirnames, filenames in os.walk(os.path.join(ROOT, top)):
            dirnames.sort()
            for name in sorted(filenames):
                path = os.path.join(dirpath, name)
                digest.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as f:
                    digest.update(f.read())
    return "src-" + digest.hexdigest()[:12]


def expected_metrics(trace):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    key = "per_layer" if trace else "end_to_end"
    return {m["name"]: m["unit"] for m in spec[key]}


def check_result(line, trace):
    try:
        result = json.loads(line)
    except ValueError:
        fail("the last output line is not a JSON result", 1)
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        fail("the result line has unexpected keys", 1)
    got = {name: m.get("unit") for name, m in result["metrics"].items()}
    if got != expected_metrics(trace):
        fail("the result's metrics do not match BENCHMARK.json", 1)


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=["explore", "run", "serve", "overload"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], required=True)
    args = parser.parse_args()
    if args.seed < 0 or args.seconds < 1:
        fail("--seed must be >= 0 and --seconds >= 1")

    build()
    os.makedirs(OUT, exist_ok=True)
    cmd = [BINARY, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--out-dir", OUT, "--source", source_id()]
    child = subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True)

    def stop(signum, frame):
        child.terminate()
        child.wait()
        sys.exit(128 + signum)

    signal.signal(signal.SIGTERM, stop)
    signal.signal(signal.SIGINT, stop)
    lines = []
    for line in child.stdout:
        lines.append(line.rstrip("\n"))
        if len(lines) > 1:
            print(lines[-2], flush=True)
    code = child.wait()
    if not lines:
        fail("the benchmark printed nothing (exit %d)" % code, 1)
    check_result(lines[-1], args.trace == 1)
    print(lines[-1], flush=True)
    sys.exit(code)


if __name__ == "__main__":
    main()
