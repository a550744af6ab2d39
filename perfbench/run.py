#!/usr/bin/env python3
"""Build and run the HILP benchmark for one workload.

    python3 perfbench/run.py --workload explore --seed 1 --seconds 30 --trace 0

Run from the repository root. Every run configures and builds the
benchmark program (perfbench/CMakeLists.txt) into .bench_build, which
after the first run only checks that the build is current. The last
line of standard output is one JSON object with the keys correct,
attempted, failed and metrics.
The line before it records the host (nproc, CPU model, 1-minute load
average before and after), which tells a burst from another tenant
apart from a regression; every run is also appended, host and metrics
together, to .bench_build/perfbench_runs.jsonl.

Exits non-zero without printing a result when the build or the
benchmark program fails.
"""

import argparse
import hashlib
import json
import os
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build")
PROGRAM = os.path.join(BUILD, "hilp_perfbench")
TRACE_CHECK = os.path.join(BUILD, "trace_check")
WORKLOADS = ("explore", "packing", "deep")
# A run must end within 180 s, or 900 s when it compiles the program;
# the program gets what is left of that after the build, less a margin.
RUN_LIMIT_S = 180
FIRST_RUN_LIMIT_S = 900
MARGIN_S = 5


def log(message):
    print("perfbench: " + message, file=sys.stderr, flush=True)


def build():
    """Configure, then bring the program and trace_check up to date."""
    jobs = str(min(4, os.cpu_count() or 1))
    commands = [["cmake", "-S", HERE, "-B", BUILD,
                 "-DCMAKE_BUILD_TYPE=Release"],
                ["cmake", "--build", BUILD, "-j", jobs, "--target",
                 "hilp_perfbench", "trace_check"]]
    for command in commands:
        result = subprocess.run(command, cwd=ROOT, stdout=sys.stderr,
                                stderr=sys.stderr)
        if result.returncode != 0:
            log("build failed: " + " ".join(command))
            return False
    return True


def host_snapshot():
    model = "unknown"
    try:
        with open("/proc/cpuinfo") as cpuinfo:
            for line in cpuinfo:
                if line.startswith("model name"):
                    model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {"nproc": os.cpu_count(), "cpu_model": model,
            "load1": os.getloadavg()[0]}


def program_key():
    """A digest of the sources the benchmark program is built from.

    Evaluations repeat exactly only within one program: a change to the
    solver may move node counts, gaps and makespans on purpose.
    """
    digest = hashlib.sha256()
    for top in (os.path.join(ROOT, "src"), os.path.join(HERE, "src"),
                os.path.join(HERE, "CMakeLists.txt")):
        paths = [top]
        if os.path.isdir(top):
            paths = sorted(os.path.join(d, f) for d, _, files in os.walk(top)
                           for f in files)
        for path in paths:
            digest.update(os.path.relpath(path, ROOT).encode() + b"\0")
            with open(path, "rb") as source:
                digest.update(source.read())
    return digest.hexdigest()[:16]


def check_digests(workload, seed, digests, program):
    """Compare per-evaluation digests with an earlier run of this program.

    Returns the number of evaluations whose node count, solve count,
    gap or makespan changed since the first run of the same program at
    this seed, which records the digests.
    """
    directory = os.path.join(BUILD, "perfbench_digests")
    os.makedirs(directory, exist_ok=True)
    path = os.path.join(directory, "%s-%s-%d.json" % (program, workload, seed))
    if not os.path.exists(path):
        with open(path, "w") as out:
            json.dump(digests, out)
        return 0
    with open(path) as stored:
        expected = json.load(stored)
    if len(expected) != len(digests):
        return max(len(expected), len(digests))
    return sum(a != b for a, b in zip(expected, digests))


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    started = time.monotonic()
    built_at = os.path.getmtime(PROGRAM) if os.path.exists(PROGRAM) else None
    if not build():
        return 1
    compiled = built_at != os.path.getmtime(PROGRAM)
    limit = FIRST_RUN_LIMIT_S if compiled else RUN_LIMIT_S
    timeout = limit - MARGIN_S - (time.monotonic() - started)

    before = host_snapshot()
    command = [PROGRAM, "--workload", args.workload,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
    if args.workload != "deep":
        command += ["--reference",
                    os.path.join(HERE, "reference", args.workload + ".json")]
    trace_path = os.path.join(BUILD, "perfbench_trace_%s.json" % args.workload)
    if args.trace:
        command += ["--trace-out", trace_path]
    env = dict(os.environ, HILP_LOG_LEVEL="warn")
    try:
        result = subprocess.run(command, cwd=ROOT, env=env,
                                stdout=subprocess.PIPE, stderr=sys.stderr,
                                text=True, timeout=timeout)
    except subprocess.TimeoutExpired:
        log("benchmark program ran out of its %.0f s" % timeout)
        return 1
    lines = result.stdout.strip().splitlines()
    if result.returncode != 0 or not lines:
        log("benchmark program failed with exit code %d" % result.returncode)
        return 1
    report = json.loads(lines[-1])

    correct = report["correct"]
    attempted = report["attempted"]
    failed = report["failed"]
    changed = check_digests(args.workload, args.seed, report["digests"],
                            program_key())
    if changed:
        log("%d evaluation(s) differ from an earlier run at seed %d"
            % (changed, args.seed))
        correct = False
        failed += changed
    metrics = report["metrics"]
    if args.trace:
        valid = subprocess.run([TRACE_CHECK, trace_path], cwd=ROOT,
                               stdout=sys.stderr, stderr=sys.stderr)
        if valid.returncode != 0:
            correct = False
            failed += 1
    else:
        # The share of evaluations that came back ok, passed every
        # check and repeated exactly; a share that is never 0, unlike
        # the failed share it complements.
        metrics["ok_frac"] = {"value": 1.0 - failed / attempted,
                              "unit": "ratio"}

    host = {"before": before, "after": host_snapshot()}
    print("host: " + json.dumps(host))
    with open(os.path.join(BUILD, "perfbench_runs.jsonl"), "a") as runs:
        runs.write(json.dumps({
            "time": time.time(), "workload": args.workload,
            "seed": args.seed, "trace": args.trace, "host": host,
            "setup_samples_s": report["setup_samples_s"],
            "pass_wall_s": report["pass_wall_s"], "metrics": metrics}) + "\n")
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
