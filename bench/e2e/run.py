#!/usr/bin/env python3
"""Builds and runs the hetsort end-to-end benchmark.

Run from the root of a source checkout:

    python3 bench/e2e/run.py --workload inmem-f64-uniform --seed 1 \
        --seconds 15 --trace 0

The first call configures and builds the library and the benchmark from
source into the build directory ($CARGO_TARGET_DIR, else .bench_build);
later calls only rebuild what changed. Build output goes to stderr, so the
last line of stdout is the benchmark's JSON result.

    --workload all          runs every workload, each in its own process
    --runs N                repeats each workload with seeds seed..seed+N-1
    --results FILE          appends one JSON line per run (workload, seed,
                            exit code, environment header, result or null)
                            for compare.py
    --git-sha SHA           recorded in the environment header
                            (default: $BENCH_GIT_SHA)
    --trace-out FILE        Chrome trace of a --trace 1 run
    --smoke                 checks that the program's workload and metric
                            names are BENCHMARK.json's, then runs every
                            workload traced and untraced at tiny sizes
    --binary PATH           runs an already built hetsort_e2e instead of
                            building one

The workload list is BENCHMARK.json's. Exits non-zero when the build fails,
a run fails verification, or a run reports correct=false.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
BENCHMARK = os.path.join(HERE, "..", "..", "BENCHMARK.json")
BUILD_TIMEOUT_S = 850
RUN_TIMEOUT_S = 175


def build(build_dir):
    """Configures (once) and builds the benchmark; returns the binary path."""
    jobs = str(max(1, os.cpu_count() or 1))
    if not any(os.path.exists(os.path.join(build_dir, f))
               for f in ("build.ninja", "Makefile")):
        cmd = ["cmake", "-S", HERE, "-B", build_dir,
               "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        subprocess.run(cmd, check=True, stdout=sys.stderr,
                       timeout=BUILD_TIMEOUT_S)
    subprocess.run(["cmake", "--build", build_dir, "--target", "hetsort_e2e",
                    "-j", jobs], check=True, stdout=sys.stderr,
                   timeout=BUILD_TIMEOUT_S)
    return os.path.join(build_dir, "hetsort_e2e")


def name_mismatches(binary, bench):
    """Differences between the program's names and units and BENCHMARK.json's."""
    out = subprocess.run([binary, "--list"], stdout=subprocess.PIPE, text=True,
                         check=True, timeout=RUN_TIMEOUT_S).stdout
    have = json.loads(out.strip().splitlines()[-1])
    problems = []
    want_workloads = [w["name"] for w in bench["workloads"]]
    if have["workloads"] != want_workloads:
        problems.append(f"workloads: program {have['workloads']}, "
                        f"BENCHMARK.json {want_workloads}")
    for key in ("end_to_end", "per_layer"):
        want = {m["name"]: m["unit"] for m in bench[key]}
        for name in sorted(set(want) | set(have[key])):
            if want.get(name) != have[key].get(name):
                problems.append(f"{key} {name}: program unit "
                                f"{have[key].get(name)}, BENCHMARK.json unit "
                                f"{want.get(name)}")
    return problems


def run_once(binary, args, workload, seed, scratch):
    """Runs one workload in its own process; returns (exit code, lines)."""
    cmd = [binary, "--workload", workload, "--seed", str(seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--scratch-dir", scratch]
    if args.git_sha:
        cmd += ["--git-sha", args.git_sha]
    if args.trace_out:
        cmd += ["--trace-out", args.trace_out]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        return 1, []
    sys.stdout.write(proc.stdout)
    sys.stdout.flush()
    return proc.returncode, proc.stdout.strip().splitlines()


def parse_json(line):
    try:
        return json.loads(line)
    except ValueError:
        return None


def main():
    with open(BENCHMARK) as f:
        bench = json.load(f)
    workload_names = [w["name"] for w in bench["workloads"]]

    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", default="all",
                    choices=workload_names + ["all"])
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=bench["run_seconds"])
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument("--runs", type=int, default=1)
    ap.add_argument("--results")
    ap.add_argument("--git-sha", default=os.environ.get("BENCH_GIT_SHA", ""))
    ap.add_argument("--trace-out")
    ap.add_argument("--smoke", action="store_true")
    ap.add_argument("--binary")
    args = ap.parse_args()

    binary = args.binary
    if binary is None:
        build_dir = os.path.abspath(os.environ.get("CARGO_TARGET_DIR",
                                                   ".bench_build"))
        try:
            binary = build(build_dir)
        except (subprocess.CalledProcessError,
                subprocess.TimeoutExpired) as e:
            print(f"build failed: {e}", file=sys.stderr)
            return 1
    scratch = os.path.join(os.path.dirname(os.path.abspath(binary)), "scratch")

    if args.smoke:
        problems = name_mismatches(binary, bench)
        for p in problems:
            print(f"name check: {p}", file=sys.stderr)
        code = subprocess.run([binary, "--smoke", "--scratch-dir", scratch],
                              timeout=RUN_TIMEOUT_S).returncode
        shutil.rmtree(scratch, ignore_errors=True)
        return 1 if problems else code

    workloads = workload_names if args.workload == "all" else [args.workload]
    status = 0
    for i in range(args.runs):
        for workload in workloads:
            seed = args.seed + i
            code, lines = run_once(binary, args, workload, seed, scratch)
            shutil.rmtree(scratch, ignore_errors=True)
            if code != 0:
                print(f"{workload} seed {seed}: exit {code}", file=sys.stderr)
                status = 1
            if args.results:
                env = next(((parse_json(l) or {}).get("env") for l in lines
                            if l.startswith('{"env"')), {})
                result = parse_json(lines[-1]) if lines else None
                if not isinstance(result, dict) or "metrics" not in result:
                    result = None
                with open(args.results, "a") as f:
                    f.write(json.dumps({
                        "workload": workload, "seed": seed,
                        "trace": args.trace, "exit": code, "env": env,
                        "result": result}) + "\n")
    return status


if __name__ == "__main__":
    sys.exit(main())
