#!/usr/bin/env python3
"""perfbench: the repository benchmark of the HCMPI runtime.

Run from the root of a checkout:

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>
    python3 perfbench/run.py compare <report-a.json> <report-b.json>

The first form builds the library from the checkout's src/ together with the
benchmark binary (perfbench/src, CMake, Release) into .bench_build/perfbench
(or $CARGO_TARGET_DIR/perfbench), runs one workload for --seconds of measured
work and prints, as its last line, the result object
{"correct", "attempted", "failed", "metrics"}. Every workload runs in one
process with 2 ranks; each rank has one computation worker and its
communication worker.

Workloads:
  hcmpi_comm_thread  windowed isend/irecv stream, send/recv ping-pong and
                     allreduce through hcmpi::Context on the thread wire
  hcmpi_comm_socket  the same over the socket wire (loopback, real sockets)
  uts_hcmpi          distributed UTS (T1 shape) with two-level stealing and
                     Safra termination, node count checked each solve
  sw_dddf            tiled Smith-Waterman over DDDFs, score checked each solve

End-to-end metrics (--trace 0):
  setup_s         median World + Context (+ Space) construction up to the
                  barrier after it, over 120 set-ups spread through the run
  peak_rss_mb     peak resident memory of the run
  items_per_s     verified work per second: the work of one unit over the
                  median unit time, where a unit is a stream window of 64
                  messages, first isend to ack (comm), or one solve of a
                  tree of nodes (uts) or of a matrix of cells (sw)
  latency_p50_us  median latency of the workload's unit of interaction:
                  ping-pong round trip (comm), time to solution of one solve
                  (uts, sw); the sample count is latency.samples in the
                  traced run
  latency_p90_us  90th percentile of the same samples
  The run is split into 60 jobs, each with fresh ranks and threads.
  items_per_s and both percentiles are taken per job and reported as the
  median over the jobs. While it measures, one
  lowest-priority thread per CPU keeps the CPUs from halting (KeepAwake in
  perfbench/src/harness.h), so wake-ups do not wait on the host's other
  tenants.
Failed operations (request errors, verification mismatches, broken counter
invariants) are the result's "failed" out of "attempted"; any failure makes
"correct" false and the exit code 1.

Per-layer metrics (--trace 1): half the time untraced, half traced with the
library's trace and telemetry on and spans recorded around the benchmark's
calls into each layer; see perfbench/src/main.cc for the list. Ratios come
with their base counts, trace_overhead.* is traced / untraced. Reports (with
run metadata), spans and the library trace land in
.bench_build/perfbench/reports.

The compare form prints the per-metric ratio b / a of two reports and
refuses (exit 2) when their host or build metadata differ.
"""
import argparse
import fcntl
import hashlib
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("hcmpi_comm_thread", "hcmpi_comm_socket", "uts_hcmpi", "sw_dddf")
RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}
# Metadata that must agree for two reports to be comparable.
COMPARABLE = ("workload", "nproc", "machine", "kernel", "compiler",
              "build_type", "ranks", "workers_per_rank", "transport")
# The run's one deadline: a hung rank is killed with the child.
RUN_TIMEOUT_S = 175


def fail(msg, code=2):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(code)


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    if not os.path.isabs(base):
        base = os.path.join(ROOT, base)
    return os.path.join(base, "perfbench")


def source_id():
    """The git commit when there is one, else a hash of the sources built."""
    if os.path.isdir(os.path.join(ROOT, ".git")):
        r = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                           capture_output=True, text=True)
        if r.returncode == 0:
            return r.stdout.strip()
    h = hashlib.sha256()
    for top in ("src", "perfbench"):
        for dirpath, dirnames, files in sorted(os.walk(os.path.join(ROOT, top))):
            dirnames.sort()
            for f in sorted(files):
                p = os.path.join(dirpath, f)
                h.update(os.path.relpath(p, ROOT).encode())
                with open(p, "rb") as fh:
                    h.update(fh.read())
    return "tree-" + h.hexdigest()[:16]


def build(out):
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail(f"library sources not found under {ROOT}/src")
    if shutil.which("cmake") is None:
        fail("cmake not found")
    os.makedirs(out, exist_ok=True)
    # One build at a time per checkout; later runs find it up to date.
    with open(os.path.join(out, ".lock"), "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        cmd = ["cmake", "-S", HERE, "-B", out, "-DCMAKE_BUILD_TYPE=Release"]
        if not os.path.isfile(os.path.join(out, "CMakeCache.txt")) and shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        jobs = str(min(4, os.cpu_count() or 1))
        for step in (cmd, ["cmake", "--build", out, "-j", jobs]):
            r = subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr)
            if r.returncode != 0:
                fail("build failed: " + " ".join(step))
    return os.path.join(out, "perfbench")


def run(args):
    out = build_dir()
    binary = build(out)
    reports = os.path.join(out, "reports")
    os.makedirs(reports, exist_ok=True)
    env = dict(os.environ)
    # Socket-wire rendezvous files and any temporary files stay inside the
    # checkout. The session path is relative to the checkout root (the
    # child's working directory) to keep it short enough for a Unix socket.
    session = os.path.join(out, f"sess-{os.getpid()}")
    os.makedirs(session, exist_ok=True)
    env["HCMPI_SESSION"] = os.path.relpath(session, ROOT)
    env["TMPDIR"] = session
    env.pop("HCMPI_FAULT", None)  # no injected wire faults
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--out-dir", reports, "--source-id", source_id()]
    try:
        r = subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True,
                           text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"no result within {RUN_TIMEOUT_S} s")
    finally:
        shutil.rmtree(session, ignore_errors=True)
    sys.stderr.write(r.stderr)
    lines = r.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, ValueError):
        fail(f"benchmark exited {r.returncode} without a result")
    if set(result) != RESULT_KEYS:
        fail("malformed result line")
    print("\n".join(lines))
    sys.stdout.flush()
    sys.exit(r.returncode)


def compare(a_path, b_path):
    with open(a_path) as f:
        a = json.load(f)
    with open(b_path) as f:
        b = json.load(f)
    diff = [k for k in COMPARABLE if a["meta"].get(k) != b["meta"].get(k)]
    if diff:
        for k in diff:
            print(f"  {k}: {a['meta'].get(k)!r} vs {b['meta'].get(k)!r}", file=sys.stderr)
        fail("reports come from different hosts, builds or workloads; not comparing")
    ma, mb = a["result"]["metrics"], b["result"]["metrics"]
    print(f"{'metric':40} {'a':>16} {'b':>16} {'b/a':>8}")
    for k in sorted(set(ma) & set(mb)):
        va, vb = ma[k]["value"], mb[k]["value"]
        ratio = f"{vb / va:8.3f}" if va else "       -"
        print(f"{k:40} {va:16.6g} {vb:16.6g} {ratio}  {ma[k]['unit']}")


def main():
    if len(sys.argv) > 1 and sys.argv[1] == "compare":
        p = argparse.ArgumentParser(prog="run.py compare")
        p.add_argument("a")
        p.add_argument("b")
        args = p.parse_args(sys.argv[2:])
        compare(args.a, args.b)
        return
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    run(p.parse_args())


if __name__ == "__main__":
    main()
