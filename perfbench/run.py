#!/usr/bin/env python3
"""End-to-end benchmark of slpspan: build, run one workload, check, report.

Usage (from the repository root):

    python3 perfbench/run.py --workload ingest|cold|serve|restart|all \
        --seed N --seconds S --trace 0|1

The script configures and builds perfbench/CMakeLists.txt (the slpspan
library plus the benchmark binary, Release) into $CARGO_TARGET_DIR, default
.bench_build, then runs the binary once per workload, each in its own
process. The binary prints a human report and, as its last line, one JSON
object {"correct", "attempted", "failed", "metrics"} with metric values by
name. BENCHMARK.json is the only list of metric names and units: this script
rejects a name it does not declare, attaches the units, reports a declared
per-layer metric the workload did not set (a layer it bypasses) as 0, and
prints the result as its own last line. With
--workload all it runs every workload and ends with one JSON object keyed by
workload name.

Exit status: 0 when every answer was correct; 1 on a wrong answer; 2 when
the sources are missing or the build fails; 3 when the binary crashed, timed
out or printed a malformed result.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("ingest", "cold", "serve", "restart")
# A run measures for --seconds and sets up before that; a run that takes
# longer than this has hung.
def run_timeout_s(seconds):
    return 60 + 3 * seconds


def die(code, message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(code)


def build_dir():
    path = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    return path if os.path.isabs(path) else os.path.join(ROOT, path)


def build(out):
    """Configures (once) and builds the binary; returns its path."""
    for needed in ("CMakeLists.txt", "src", "include", "BENCHMARK.json"):
        if not os.path.exists(os.path.join(ROOT, needed)):
            die(2, f"slpspan sources not found: {os.path.join(ROOT, needed)} is missing")
    if shutil.which("cmake") is None:
        die(2, "cmake not found")
    cache = os.path.join(out, "CMakeCache.txt")
    if os.path.exists(cache):
        with open(cache, encoding="utf-8", errors="replace") as f:
            if f"CMAKE_HOME_DIRECTORY:INTERNAL={HERE}\n" not in f.read():
                shutil.rmtree(out)  # configured for another checkout
    os.makedirs(out, exist_ok=True)
    log_path = os.path.join(out, "build.log")
    with open(log_path, "w", encoding="utf-8") as log:
        steps = []
        if not os.path.exists(cache):
            steps.append(["cmake", "-S", HERE, "-B", out, "-DCMAKE_BUILD_TYPE=Release"])
        steps.append(["cmake", "--build", out, "--target", "perfbench",
                      "-j", str(os.cpu_count() or 1)])
        for cmd in steps:
            if subprocess.run(cmd, stdout=log, stderr=subprocess.STDOUT).returncode != 0:
                with open(log_path, encoding="utf-8", errors="replace") as f:
                    sys.stderr.write(f.read()[-4000:])
                die(2, f"build failed (see {log_path})")
    return os.path.join(out, "perfbench")


def declared_metrics():
    """(end-to-end, per-layer) metric name -> unit maps from BENCHMARK.json."""
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as f:
        spec = json.load(f)
    return tuple({m["name"]: m["unit"] for m in spec[key]}
                 for key in ("end_to_end", "per_layer"))


def with_units(workload, values, trace):
    """The binary's name -> value map as the result's metrics, or None."""
    end_to_end, per_layer = declared_metrics()
    undeclared = sorted(set(values) - set(end_to_end) - set(per_layer))
    want = per_layer if trace else end_to_end
    missing = [] if trace else sorted(set(want) - set(values))
    if undeclared or missing:
        print(f"perfbench: {workload} metrics differ from BENCHMARK.json: "
              f"undeclared {undeclared}, missing {missing}", file=sys.stderr)
        return None
    return {name: {"value": values.get(name, 0), "unit": unit}
            for name, unit in want.items()}


def run_one(binary, out, workload, seed, seconds, trace):
    """Runs one workload in its own process; returns (exit code, result)."""
    workdir = os.path.join(out, "run", workload)
    shutil.rmtree(workdir, ignore_errors=True)
    cmd = [binary, "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace), "--workdir", workdir]
    timeout = run_timeout_s(seconds)
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=timeout)
    except subprocess.TimeoutExpired as e:
        partial = e.stdout or ""
        if isinstance(partial, bytes):
            partial = partial.decode(errors="replace")
        sys.stdout.write(partial)
        print(f"perfbench: {workload} did not finish within {timeout:.0f} s",
              file=sys.stderr)
        return 3, None
    lines = proc.stdout.rstrip("\n").split("\n")
    sys.stdout.write("\n".join(lines[:-1]) + "\n")
    try:
        result = json.loads(lines[-1])
    except (json.JSONDecodeError, IndexError):
        print(f"perfbench: {workload} printed no result (exit {proc.returncode})",
              file=sys.stderr)
        return 3, None
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        print(f"perfbench: malformed result from {workload}", file=sys.stderr)
        return 3, None
    result["metrics"] = with_units(workload, result["metrics"], trace)
    if result["metrics"] is None:
        return 3, None
    if proc.returncode == 0 and not result["correct"]:
        return 1, result
    return proc.returncode, result


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.seconds <= 0:
        die(2, "--seconds must be positive")

    out = build_dir()
    binary = build(out)
    if args.workload != "all":
        code, result = run_one(binary, out, args.workload, args.seed, args.seconds,
                               args.trace)
        if result is not None:
            print(json.dumps(result))
        return code

    worst, results = 0, {}
    for workload in WORKLOADS:
        code, result = run_one(binary, out, workload, args.seed, args.seconds, args.trace)
        print(f"# {workload}: exit {code}")
        worst = max(worst, code)
        results[workload] = result
    print(json.dumps(results))
    return worst


if __name__ == "__main__":
    sys.exit(main())
