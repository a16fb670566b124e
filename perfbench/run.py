#!/usr/bin/env python3
"""Build and run the repo benchmark.

    python3 perfbench/run.py --workload <sim_grid|campaign|arccd|scrub> \
        --seed <n> --seconds <n> --trace <0|1>

Run from the repository root.  Configures and builds perfbench/ (which
compiles the library under src/ from source) into .bench_build/perfbench,
then runs one workload.  The program's human-readable lines and, last,
its one-line JSON result go to stdout; build output goes to stderr.  The
result line is printed only when its metric names match BENCHMARK.json.
Exits nonzero, without a result line, when the build fails, the run
fails or times out, or the metric names disagree.
"""

import json
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BUILD = os.path.join(".bench_build", "perfbench")
RUN_TIMEOUT_S = 175


def build():
    jobs = str(min(4, os.cpu_count() or 1))
    steps = [
        ["cmake", "-S", "perfbench", "-B", BUILD,
         "-DCMAKE_BUILD_TYPE=Release"],
        ["cmake", "--build", BUILD, "-j", jobs, "--target", "perfbench"],
    ]
    for cmd in steps:
        done = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr)
        if done.returncode != 0:
            sys.stderr.write("perfbench: build step failed: %s\n"
                             % " ".join(cmd))
            return False
    return True


def expected_metrics(trace):
    try:
        with open("BENCHMARK.json") as f:
            spec = json.load(f)
    except (OSError, ValueError):
        return None
    key = "per_layer" if trace else "end_to_end"
    return [m["name"] for m in spec[key]]


def main(argv):
    os.chdir(ROOT)
    # Compiler and program temporaries stay inside the checkout.
    tmp = os.path.abspath(os.path.join(".bench_build", "tmp"))
    os.makedirs(tmp, exist_ok=True)
    os.environ["TMPDIR"] = tmp
    if not build():
        return 2
    binary = os.path.join(BUILD, "perfbench")
    try:
        done = subprocess.run([binary] + argv, stdout=subprocess.PIPE,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        sys.stderr.write("perfbench: run exceeded %d s\n" % RUN_TIMEOUT_S)
        return 4
    lines = done.stdout.decode("utf-8", "replace").splitlines()
    body, last = lines[:-1], lines[-1] if lines else ""
    for line in body:
        print(line)
    try:
        result = json.loads(last)
    except ValueError:
        print(last)
        sys.stderr.write("perfbench: no JSON result line\n")
        return done.returncode or 3

    trace = "--trace" in argv and argv[argv.index("--trace") + 1] == "1"
    want = expected_metrics(trace)
    got = list(result.get("metrics", {}))
    if want is not None and got != want:
        sys.stderr.write("perfbench: metrics %s do not match "
                         "BENCHMARK.json %s\n" % (got, want))
        return 3
    print(last)
    sys.stdout.flush()
    return done.returncode


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
