#!/usr/bin/env python3
"""Acheron benchmark: build the engine and the perfbench binary from source,
run one workload, check its results, and print its metrics.

    python3 perfbench/run.py --workload delete_mix --seed 1 --seconds 10 --trace 0

Run it from the repository root. The build and every file a run writes go
under $CARGO_TARGET_DIR (default .bench_build):

    perfbench/build/           the CMake build of perfbench/CMakeLists.txt
    perfbench/db-<workload>/   the DB directory, removed when the run ends
    perfbench/results/         one self-describing JSON record per run, and
                               for --trace 1 the Chrome trace-event file and
                               per-layer self-time summary

stdout ends with one JSON line: {"correct", "attempted", "failed",
"metrics"}. With --trace 0 the metrics are END_TO_END, from an untraced
pass; with --trace 1 they are PER_LAYER, from a traced pass (which also runs
an untraced pass, to report the tracing overhead, and for delete_mix and
kv_sep the wrapper self-test). The lines before it are a readable report of
every metric with its unit and sample count. See perfbench/NOTES.md.
"""

import argparse
import hashlib
import json
import os
import platform
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("fill", "read", "delete_mix", "kv_sep")
RUN_LIMIT_S = 170  # the whole run, build included, ends within this
FIRST_BUILD_LIMIT_S = 840
# Engine test hooks that override an option a workload declares
# (ACHERON_BACKGROUND_COMPACTIONS overrides Options::background_compactions);
# removed from the benchmark binary's environment, and recorded as removed.
PINNED_ENV = ("ACHERON_BACKGROUND_COMPACTIONS",)

# Printed on the result line with --trace 0: the end-to-end metrics that
# every workload in BENCHMARK.json produces as a non-zero number steady
# enough to gate on (see NOTES.md for the ones only in the report).
END_TO_END = [
    "setup_s", "cpu_us_per_op", "get_p50_us", "write_amp", "space_amp",
    "peak_rss_mb",
]

# Printed on the result line with --trace 1.
PER_LAYER = [
    "lsm.write.stall_us", "lsm.write.stall_frac", "lsm.write.memtable_waits",
    "lsm.write.slowdowns", "lsm.write.stops", "env.bg.busy_us",
    "env.bg.queue_wait_us", "env.sleep_us", "lsm.compaction.count",
    "lsm.compaction.bytes_read", "lsm.compaction.bytes_written",
    "lsm.compaction.trivial_moves", "lsm.flush.count", "lsm.flush.bytes",
    "env.wal.append_calls", "env.wal.append_bytes", "env.wal.append_us",
    "env.wal.sync_calls", "env.wal.sync_us", "lsm.write.grouped_ratio",
    "wal.bytes_written", "memtable.swaps",
    "table.cache.lookups", "table.cache.hits", "table.cache.hit_ratio",
    "table.cache.inserts", "table.cache.evictions", "table.cache.lookup_us",
    "table.filter.probes", "table.filter.negatives",
    "table.filter.useful_ratio", "table.filter.probe_us",
    "table.filter.builds", "memtable.get_served_ratio",
    "env.table.read_calls", "env.table.read_bytes", "env.table.read_us",
    "env.submit_reads.calls", "env.submit_reads.reqs", "env.submit_reads.us",
    "lsm.iter.new_us", "lsm.iter.seek_us", "lsm.iter.next_us",
    "lsm.iter.tombstones_skipped_per_scan", "core.range_deletes_live",
    "core.tombstones_written", "core.tombstones_persisted",
    "core.persist_p50_ops", "core.persist_max_ops",
    "core.range_persist_max_ops", "core.oldest_tombstone_age_ops",
    "core.ttl_compactions", "core.dth_at_risk",
    "lsm.compaction.by_reason.l0_file_count",
    "lsm.compaction.by_reason.level_size",
    "lsm.compaction.by_reason.ttl_expiry", "lsm.write_amp_engine",
    "vlog.bytes_written", "vlog.values_written", "vlog.segments_created",
    "vlog.gc_runs", "vlog.gc_bytes_relocated", "vlog.reads",
    "vlog.value_purge_max_ops", "vlog.value_purge_backlog",
    "env.vlog.write_bytes", "env.vlog.read_calls", "env.vlog.read_us",
    "lsm.mutex_acquisitions_per_op",
    "trace.throughput_untraced_ops_s", "trace.throughput_traced_ops_s",
    "trace.overhead_ops_s", "trace.overhead_frac", "trace.spans",
    "trace.self_us.engine", "trace.self_us.env", "trace.self_us.table_cache",
    "trace.self_us.table_filter",
]

# The report's end-to-end rows, in order: all fifteen, with the set-up's
# wall time beside its CPU time (setup_s) and the CPU cost per op beside
# throughput, then the two percentiles over all ops.
REPORT = [
    "setup_s", "setup_wall_s", "throughput_ops_s", "cpu_us_per_op",
    "write_p50_us", "write_p99_us",
    "get_p50_us", "get_p99_us", "mget_p50_us", "mget_p99_us", "scan_p50_us",
    "scan_p99_us", "write_amp", "space_amp", "dth_used", "error_rate",
    "peak_rss_mb", "op_p50_us", "op_p99_us",
]


def log(msg):
    print("perfbench: " + msg, file=sys.stderr, flush=True)


def run_logged(cmd, timeout):
    """Runs cmd with its output on stderr; True on exit code 0."""
    try:
        return subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                              timeout=timeout).returncode == 0
    except subprocess.TimeoutExpired:
        log("timed out: " + " ".join(cmd))
        return False


def build(build_dir, deadline):
    binary = os.path.join(build_dir, "perfbench")
    first = not os.path.exists(binary)
    limit = FIRST_BUILD_LIMIT_S if first else deadline - time.monotonic()
    start = time.monotonic()
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        if not run_logged(["cmake", "-S", HERE, "-B", build_dir], limit):
            return None, first
    jobs = str(max(1, min(os.cpu_count() or 1, 4)))
    left = limit - (time.monotonic() - start)
    if not run_logged(["cmake", "--build", build_dir, "-j", jobs], left):
        return None, first
    return binary, first


def read_first_line(path, prefix):
    try:
        with open(path) as f:
            for line in f:
                if line.startswith(prefix):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return None


def filesystem_of(path):
    """Type and mount point of the filesystem holding path."""
    path = os.path.realpath(path)
    best = ("unknown", "")
    try:
        with open("/proc/mounts") as f:
            for line in f:
                parts = line.split()
                if len(parts) < 3:
                    continue
                mount = parts[1].replace("\\040", " ")
                inside = path == mount or path.startswith(
                    mount.rstrip("/") + "/")
                if inside and len(mount) >= len(best[1]):
                    best = (parts[2], mount)
    except OSError:
        pass
    return {"type": best[0], "mount": best[1]}


def git_commit():
    """HEAD of the repository this file sits in; None outside a git checkout
    (never the commit of some enclosing repository)."""
    if not os.path.exists(os.path.join(ROOT, ".git")):
        return None
    try:
        out = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=10)
        return out.stdout.strip() if out.returncode == 0 else None
    except (OSError, subprocess.TimeoutExpired):
        return None


def source_digest():
    """sha256 over the engine and benchmark sources, so a record names the
    code it measured even in a checkout that is not a git repository."""
    h = hashlib.sha256()
    for top in ("src", "perfbench"):
        base = os.path.join(ROOT, top)
        for dirpath, dirnames, filenames in os.walk(base):
            dirnames.sort()
            for name in sorted(filenames):
                if not name.endswith((".cc", ".h", ".txt", ".py")):
                    continue
                path = os.path.join(dirpath, name)
                h.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as f:
                    h.update(f.read())
    return h.hexdigest()


def fingerprint(db_parent, io_uring_probe_ok):
    disabled = os.environ.get("ACHERON_NO_IO_URING") is not None
    return {
        "nproc": os.cpu_count(),
        "cpu_model": read_first_line("/proc/cpuinfo", "model name"),
        "kernel": platform.release(),
        "io_uring": {
            "probe_ok": io_uring_probe_ok,
            "disabled_by_ACHERON_NO_IO_URING": disabled,
            "in_use": bool(io_uring_probe_ok and not disabled),
        },
        "db_filesystem": filesystem_of(db_parent),
        "env_removed": {k: os.environ[k] for k in PINNED_ENV
                        if k in os.environ},
        "git_commit": git_commit(),
        "source_sha256": source_digest(),
    }


def fmt(value):
    if value is None:
        return "n/a"
    if isinstance(value, float):
        return "%.6g" % value
    return str(value)


def report(out, trace):
    p = out["untraced_pass"]
    setups = p["setup_wall_s"]
    print("workload %s seed %s: %d ops attempted, %s errors, %s wrong; "
          "%d set-ups of %s-%s s wall; first failure: %s; first wrong: %s" % (
              out["workload"], out["seed"], out["attempted"], out["errors"],
              out["wrong"], len(setups), fmt(min(setups)), fmt(max(setups)),
              p["first_failure"] or "none", p["first_wrong"] or "none"))
    print("end to end (untraced pass):")
    e2e = out["end_to_end"]
    for name in REPORT:
        m = e2e[name]
        samples = m.get("samples")
        print("  %-18s %14s %-6s %s" % (
            name, fmt(m["value"]), m["unit"],
            "" if samples is None else "samples=%d" % samples))
    if trace:
        print("per layer (traced pass, timed phase):")
        for name in PER_LAYER:
            m = out["layers"][name]
            print("  %-42s %16s %s" % (name, fmt(m["value"]), m["unit"]))
        if "self_test" in out:
            print("self-test: " + json.dumps(out["self_test"]))


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=float)
    ap.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = ap.parse_args()

    start = time.monotonic()
    target = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    work = os.path.join(os.path.abspath(target), "perfbench")
    results = os.path.join(work, "results")
    db_dir = os.path.join(work, "db-" + args.workload)
    os.makedirs(results, exist_ok=True)

    binary, first_build = build(os.path.join(work, "build"),
                                start + RUN_LIMIT_S)
    if binary is None:
        log("build failed")
        return 1
    deadline = (time.monotonic() + RUN_LIMIT_S if first_build
                else start + RUN_LIMIT_S)
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds), "--trace", str(args.trace),
           "--dir", db_dir, "--out", results]
    env = {k: v for k, v in os.environ.items() if k not in PINNED_ENV}
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=sys.stderr,
                              text=True, env=env,
                              timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        log("run timed out")
        return 1
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        log("perfbench exited with %d" % proc.returncode)
        return 1
    out = json.loads(lines[-1])

    record = {
        "command": " ".join(sys.argv),
        "machine": fingerprint(work, out["io_uring_probe_ok"]),
        "result": out,
    }
    record_path = os.path.join(results, "%s-seed%d-trace%d.json" % (
        args.workload, args.seed, args.trace))
    with open(record_path, "w") as f:
        json.dump(record, f, indent=1)
        f.write("\n")

    report(out, args.trace)
    print("record: " + record_path)
    source = out["layers"] if args.trace else out["end_to_end"]
    names = PER_LAYER if args.trace else END_TO_END
    metrics = {n: {"value": source[n]["value"], "unit": source[n]["unit"]}
               for n in names}
    print(json.dumps({
        "correct": out["errors"] + out["wrong"] == 0,
        "attempted": out["attempted"],
        "failed": out["errors"] + out["wrong"],
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
