#!/usr/bin/env python3
"""Repository benchmark: runs one named workload and prints its result.

    python3 perfbench/run.py --workload isp_stream --seed 1 --seconds 10 --trace 0

Run it from the root of a checkout. It builds perfbench/ (a CMake project
that compiles the hipacc libraries from ../src) into .bench_build/perfbench,
or into $CARGO_TARGET_DIR/perfbench when that is set, then runs the workload
in a child process with the JIT toolchain and the persistent cache off.

The last line of standard output is one JSON object:
{"correct", "attempted", "failed", "metrics"}. With --trace 0 the metrics
are BENCHMARK.json's end_to_end metrics, with --trace 1 its per_layer ones.
Everything else the run measured (the workload's own metric names, exact
modelled values, provenance) goes into the record file it writes under
<build>/results and into the report printed above that line.

Exit status: 0 when every checked operation was correct, 1 when a check
failed or the run could not finish, 2 on a usage error or when the hipacc
sources are missing.
"""

import argparse
import ctypes
import datetime
import hashlib
import json
import os
import platform
import shutil
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
# The run must end within 180 s of the build; leave room to report.
RUN_TIMEOUT_S = 170
BUILD_TIMEOUT_S = 850
MAX_THREADS = 4


def fail(code, message):
    print("error: " + message, file=sys.stderr)
    sys.exit(code)


def load_benchmark():
    path = os.path.join(ROOT, "BENCHMARK.json")
    try:
        with open(path) as f:
            return json.load(f)
    except (OSError, ValueError) as e:
        fail(2, "cannot read %s: %s" % (path, e))


def build_dir():
    target = os.environ.get("CARGO_TARGET_DIR")
    base = target if target else os.path.join(ROOT, ".bench_build")
    return os.path.join(os.path.abspath(base), "perfbench")


def build(out):
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail(2, "hipacc sources not found under %s/src" % ROOT)
    if shutil.which("cmake") is None:
        fail(2, "cmake not found")
    jobs = str(max(1, min(MAX_THREADS, os.cpu_count() or 1)))
    steps = []
    if not os.path.isfile(os.path.join(out, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", out,
                      "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    steps.append(["cmake", "--build", out, "-j", jobs, "--target", "perfbench"])
    deadline = time.monotonic() + BUILD_TIMEOUT_S
    for cmd in steps:
        try:
            done = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                                  timeout=max(1, deadline - time.monotonic()))
        except subprocess.TimeoutExpired:
            fail(1, "build timed out: " + " ".join(cmd))
        if done.returncode != 0:
            fail(1, "build failed: " + " ".join(cmd))
    return os.path.join(out, "perfbench")


def cache_value(out, key):
    try:
        with open(os.path.join(out, "CMakeCache.txt")) as f:
            for line in f:
                if line.startswith(key + ":"):
                    return line.split("=", 1)[1].strip()
    except OSError:
        pass
    return None


def source_digest():
    """sha256 over the files the benchmark builds and reads, so results from
    a checkout without git history still name the code they measured."""
    digest = hashlib.sha256()
    for top in ("src", "perfbench", os.path.join("examples", "kernels")):
        base = os.path.join(ROOT, top)
        for dirpath, dirnames, filenames in os.walk(base):
            dirnames[:] = sorted(d for d in dirnames if d != "__pycache__")
            for name in sorted(filenames):
                path = os.path.join(dirpath, name)
                digest.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as f:
                    digest.update(hashlib.sha256(f.read()).digest())
    return digest.hexdigest()


def git_commit():
    if not os.path.isdir(os.path.join(ROOT, ".git")) or not shutil.which("git"):
        return None
    done = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                          capture_output=True, text=True)
    return done.stdout.strip() if done.returncode == 0 else None


def cpu_model():
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or None


ADDR_NO_RANDOMIZE = 0x0040000


def child_setup():
    """Child pre-exec hook: run on at most MAX_THREADS of the allowed CPUs,
    with address-space randomisation off so every run gets the same memory
    layout and layout luck does not add to the run-to-run spread."""
    allowed = sorted(os.sched_getaffinity(0))
    os.sched_setaffinity(0, allowed[:MAX_THREADS])
    libc = ctypes.CDLL(None, use_errno=True)
    current = libc.personality(0xFFFFFFFF)
    if current != -1:
        libc.personality(current | ADDR_NO_RANDOMIZE)


def provenance(out, args):
    return {
        "commit": git_commit(),
        "source_digest": source_digest(),
        "cpu": cpu_model(),
        "nproc": len(os.sched_getaffinity(0)),
        "cpus_used": min(MAX_THREADS, len(os.sched_getaffinity(0))),
        "build_type": cache_value(out, "CMAKE_BUILD_TYPE"),
        "compiler": cache_value(out, "CMAKE_CXX_COMPILER"),
        "date": datetime.datetime.now(datetime.timezone.utc).isoformat(),
        "seed": args.seed,
    }


def result_line(bench, record, trace):
    """The result line: exactly BENCHMARK.json's metric set."""
    wanted = bench["per_layer"] if trace else bench["end_to_end"]
    measured = dict(record["wall"])
    measured.update(record["exact"])
    metrics = {}
    for spec in wanted:
        entry = measured.get(spec["name"])
        if entry is None:
            fail(1, "run did not report metric " + spec["name"])
        if entry["unit"] != spec["unit"]:
            fail(1, "metric %s reported in %s, BENCHMARK.json says %s"
                 % (spec["name"], entry["unit"], spec["unit"]))
        metrics[spec["name"]] = {"value": entry["value"], "unit": entry["unit"]}
    return {"correct": bool(record["correct"]),
            "attempted": int(record["attempted"]),
            "failed": int(record["failed"]),
            "metrics": metrics}


def main():
    bench = load_benchmark()
    workloads = [w["name"] for w in bench["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=int)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    parser.add_argument("--results-dir",
                        help="where the record and trace files go "
                             "(default: <build>/results)")
    parser.add_argument("--corrupt-reference", action="store_true",
                        help="self-test: perturb one reference value; the "
                             "run must then fail")
    args = parser.parse_args()
    if args.seed < 0 or args.seconds < 1:
        fail(2, "--seed must be >= 0 and --seconds >= 1")

    out = build_dir()
    binary = build(out)
    results = os.path.abspath(args.results_dir or os.path.join(out, "results"))
    os.makedirs(results, exist_ok=True)
    stem = os.path.join(results, "%s-seed%d-trace%d"
                        % (args.workload, args.seed, args.trace))
    record_path = stem + ".json"
    if os.path.exists(record_path):
        os.remove(record_path)

    env = dict(os.environ)
    env["HIPACC_JIT_DISABLE"] = "1"
    env["HIPACC_CACHE_DIR"] = os.path.join(out, "disk-cache-unused")
    cmd = [binary, "--workload=" + args.workload, "--seed=%d" % args.seed,
           "--seconds=%d" % args.seconds, "--trace=%d" % args.trace,
           "--record-out=" + record_path, "--repo-root=" + ROOT,
           "--out-dir=" + results]
    if args.corrupt_reference:
        cmd.append("--corrupt-reference")
    try:
        child = subprocess.run(cmd, stdout=subprocess.PIPE, env=env, cwd=ROOT,
                               preexec_fn=child_setup, text=True,
                               timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(1, "workload did not finish within %d s" % RUN_TIMEOUT_S)
    sys.stdout.write(child.stdout)
    if child.returncode == 2 or not os.path.isfile(record_path):
        fail(child.returncode or 1, "workload produced no record")

    with open(record_path) as f:
        record = json.load(f)
    record["provenance"] = provenance(out, args)
    with open(record_path, "w") as f:
        json.dump(record, f, indent=1)
        f.write("\n")
    line = result_line(bench, record, args.trace)
    print("record: " + record_path)
    print(json.dumps(line))
    sys.exit(0 if line["correct"] and child.returncode == 0 else 1)


if __name__ == "__main__":
    main()
