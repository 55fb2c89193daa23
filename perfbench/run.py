#!/usr/bin/env python3
"""Build the simulator benchmark and run one workload.

Usage (from the repository root):

    python3 perfbench/run.py --workload hh_harvest --seed 1 --seconds 30 \
        --trace 0

The first call configures and builds perfbench/ (CMake, Release) into
$CARGO_TARGET_DIR/perfbench, or .bench_build/perfbench when the
variable is unset; later calls only re-check the build. The benchmark
binary does the measuring and the correctness checks; this script
stamps the manifest, relays the binary's output, prints each metric
with its unit, and makes sure the last line of stdout is the binary's
JSON result. See perfbench/README.md for the workloads and metrics.
"""

import argparse
import hashlib
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("hh_harvest", "sw_sweep", "fleet_graph")
# A run is meant to end within 180 s; stop a stuck binary before then.
RUN_TIMEOUT_S = 170
RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}


def die(msg, code=2):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(code)


def build_root():
    base = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    return base if os.path.isabs(base) else os.path.join(ROOT, base)


def run_quiet(cmd):
    """Run a build step with its output on stderr; die on failure."""
    proc = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                          check=False)
    if proc.returncode != 0:
        die("build step failed: " + " ".join(cmd), 1)


def build(bdir):
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        die("simulator sources not found: expected src/CMakeLists.txt "
            "beside perfbench/")
    if shutil.which("cmake") is None:
        die("cmake not found")
    if not os.path.isfile(os.path.join(bdir, "CMakeCache.txt")):
        gen = ["-G", "Ninja"] if shutil.which("ninja") else []
        run_quiet(["cmake", "-S", HERE, "-B", bdir,
                   "-DCMAKE_BUILD_TYPE=Release"] + gen)
    run_quiet(["cmake", "--build", bdir, "-j", str(os.cpu_count() or 1)])
    binary = os.path.join(bdir, "hh_perfbench")
    if not os.access(binary, os.X_OK):
        die("benchmark binary missing after build", 1)
    return binary


def source_digest():
    """SHA-256 over src/ and perfbench/ (path + bytes), sorted."""
    h = hashlib.sha256()
    for top in ("src", "perfbench"):
        for dirpath, dirnames, filenames in os.walk(os.path.join(ROOT, top)):
            dirnames.sort()
            for name in sorted(filenames):
                if name.endswith(".pyc"):
                    continue
                path = os.path.join(dirpath, name)
                h.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as f:
                    h.update(f.read())
    return h.hexdigest()[:16]


def git_rev():
    if shutil.which("git") is None or not os.path.isdir(
            os.path.join(ROOT, ".git")):
        return "unknown"
    proc = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                          capture_output=True, text=True, check=False)
    return proc.stdout.strip() if proc.returncode == 0 else "unknown"


def expected_metrics(trace):
    """Metric name -> unit that BENCHMARK.json promises for this run."""
    path = os.path.join(ROOT, "BENCHMARK.json")
    if not os.path.isfile(path):
        return None
    with open(path) as f:
        cfg = json.load(f)
    return {m["name"]: m["unit"]
            for m in cfg["per_layer" if trace else "end_to_end"]}


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=float)
    ap.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = ap.parse_args()
    if args.seed < 0 or args.seconds <= 0:
        die("--seed must be >= 0 and --seconds > 0")

    bdir = os.path.join(build_root(), "perfbench")
    binary = build(bdir)
    out_dir = os.path.join(build_root(), "perfbench-out")
    stamp = json.dumps({"git_rev": git_rev(), "src_digest": source_digest()},
                       separators=(",", ":"))
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds), "--trace", str(args.trace),
           "--out", out_dir, "--stamp", stamp]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=sys.stderr,
                              text=True, timeout=RUN_TIMEOUT_S, check=False)
    except subprocess.TimeoutExpired:
        die("benchmark binary exceeded %d s" % RUN_TIMEOUT_S, 1)
    lines = proc.stdout.splitlines()
    if proc.returncode != 0 or not lines:
        die("benchmark binary failed with exit code %d" % proc.returncode, 1)
    try:
        result = json.loads(lines[-1])
    except json.JSONDecodeError:
        die("benchmark binary's last line is not JSON", 1)
    if set(result) != RESULT_KEYS:
        die("result keys %s" % sorted(result), 1)
    want = expected_metrics(args.trace == 1)
    got = {k: v["unit"] for k, v in result["metrics"].items()}
    if want is not None and got != want:
        die("metrics differ from BENCHMARK.json: %s" %
            sorted(set(got.items()) ^ set(want.items())), 1)

    for line in lines[:-1]:
        print(line)
    for name, m in result["metrics"].items():
        print("%-28s %16.6g %s" % (name, m["value"], m["unit"]))
    print("correct=%s attempted=%d failed=%d" %
          (result["correct"], result["attempted"], result["failed"]))
    print(json.dumps(result, separators=(",", ":")))
    sys.stdout.flush()


if __name__ == "__main__":
    main()
