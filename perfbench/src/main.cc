// perfbench: runs one named workload against the Acheron engine and prints
// one JSON object (the last line of stdout) with the end-to-end metrics of an
// untraced pass and, with --trace 1, the per-layer metrics of a traced pass,
// the tracing overhead and the wrapper self-test. perfbench/run.py builds
// this binary and turns its output into the benchmark's result line.
//
//   perfbench --workload delete_mix --seed 1 --seconds 10 --trace 0
//             --dir <db dir> --out <output dir>
#include <sys/syscall.h>
#include <time.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <map>
#include <memory>
#include <string>
#include <vector>

#if __has_include(<linux/io_uring.h>)
#include <linux/io_uring.h>
#endif

#include "src/env/env.h"
#include "src/lsm/db.h"
#include "src/lsm/version_set.h"
#include "src/table/cache.h"
#include "src/util/bloom.h"
#include "trace.h"
#include "workloads.h"
#include "wrappers.h"

namespace perfbench {
namespace {

using acheron::DB;
using acheron::DeleteStats;
using acheron::InternalStats;
using acheron::Status;

// The option set every workload shares (the delete persistence threshold,
// the value separation threshold and the compaction mode come from the
// workload): small buffers and files so the tree reaches four or more
// levels within seconds, the WAL on and every write unsynced
// (WriteOptions::sync = false: an acknowledged write is in the OS page
// cache, not necessarily on the device).
constexpr size_t kBlockCacheBytes = 3 << 20;
constexpr int kBloomBitsPerKey = 10;
constexpr uint64_t kSelfTestOps = 5000;
// An untraced pass sets up at least kSetupReps times and until it has spent
// kMinSetupSeconds of wall time in set-up, so setup_s is a median over
// several set-ups (delete_mix: 3 of ~4.5 s; read: ~10 of ~0.3 s; fill's
// empty-DB open: 200 of ~1 ms) instead of one.
constexpr int kSetupReps = 3;
constexpr double kMinSetupSeconds = 3.0;
constexpr int kMaxSetupReps = 200;

acheron::Options SharedOptions() {
  acheron::Options o;
  o.write_buffer_size = 64 << 10;
  o.max_file_size = 128 << 10;
  o.size_ratio = 4;
  o.num_levels = 5;
  o.level0_compaction_trigger = 4;
  o.disable_wal = false;
  o.sync_writes = false;
  o.filter_bits_per_key = kBloomBitsPerKey;
  return o;
}

// How the engine's injectable layers are supplied in a pass.
enum class Wrapping {
  kBare,      // DefaultEnv, the LRU cache and the Bloom policy themselves
  kCounting,  // Env wrapper only: counts appended bytes for write_amp
  kTraced,    // Env, Cache and FilterPolicy wrappers, spans recorded
};

struct PassResult {
  std::vector<double> setup_wall_s;  // wall time of each set-up
  std::vector<double> setup_cpu_s;   // process CPU time of each set-up
  ClientResult load;    // set-up writes of the pass's final DB
  ClientResult client;  // timed phase and post-run verification
  double seconds = 0;
  double cpu_seconds = 0;  // process CPU time of the timed phase
  uint64_t dth = 0;
  InternalStats stats_timed_begin, stats_timed_end, stats_final;
  DeleteStats deletes;
  CounterSnapshot counters_open, counters_timed_begin, counters_timed_end,
      counters_final;
  uint64_t mutex_timed = 0;  // DB mutex acquisitions in the timed phase
  uint64_t dir_bytes = 0;
  uint64_t live_bytes = 0;
  std::string levels;
  std::string open_error;
};

uint64_t PropertyU64(DB* db, const char* name) {
  std::string v;
  return db->GetProperty(name, &v) ? std::strtoull(v.c_str(), nullptr, 10)
                                   : 0;
}

uint64_t DirBytes(const std::string& dir) {
  uint64_t total = 0;
  std::error_code ec;
  for (const auto& e : std::filesystem::directory_iterator(dir, ec)) {
    if (e.is_regular_file(ec)) total += e.file_size(ec);
  }
  return total;
}

double Seconds(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

// CPU time of every thread of the process, user and system, in seconds.
// Unlike wall time it leaves out the time spent waiting for the device
// (fdatasync) and the time the host gives the vCPU to other guests.
double ProcessCpuSeconds() {
  timespec ts;
  ::clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return ts.tv_sec + ts.tv_nsec * 1e-9;
}

// One pass: |setup_reps| or more set-ups (each a fresh DB; the last one is
// kept), then the timed phase, a settle, and verification.
PassResult RunPass(const std::string& name, uint64_t seed, Wrapping wrapping,
                   double seconds, uint64_t max_ops, int setup_reps,
                   const std::string& dir) {
  PassResult out;
  LayerCounters counters;
  std::unique_ptr<acheron::Env> env;
  std::unique_ptr<acheron::Cache> cache;
  std::unique_ptr<const acheron::FilterPolicy> bloom(
      acheron::NewBloomFilterPolicy(kBloomBitsPerKey));
  std::unique_ptr<acheron::FilterPolicy> filter;

  acheron::Options options = SharedOptions();
  options.env = acheron::DefaultEnv();
  options.filter_policy = bloom.get();
  cache.reset(acheron::NewLRUCache(kBlockCacheBytes));
  if (wrapping != Wrapping::kBare) {
    env = std::make_unique<CountingEnv>(acheron::DefaultEnv(), &counters);
    options.env = env.get();
  }
  if (wrapping == Wrapping::kTraced) {
    cache = std::make_unique<CountingCache>(std::move(cache), &counters);
    filter = std::make_unique<CountingFilterPolicy>(bloom.get(), &counters);
    options.filter_policy = filter.get();
  }
  options.block_cache = cache.get();

  std::unique_ptr<Workload> wl;
  std::unique_ptr<DB> db;
  double setup_total = 0;
  for (int rep = 0; rep < setup_reps ||
                    (setup_reps > 1 && setup_total < kMinSetupSeconds &&
                     rep < kMaxSetupReps);
       rep++) {
    db.reset();
    cache->Prune();  // drop the previous set-up's blocks
    std::filesystem::remove_all(dir);
    wl = MakeWorkload(name, seed);
    options.delete_persistence_threshold = wl->delete_persistence_threshold();
    options.value_separation_threshold = wl->value_separation_threshold();
    options.background_compactions = wl->background_compactions();
    out.dth = options.delete_persistence_threshold;
    out.load = ClientResult();
    out.counters_open = counters.Snapshot();
    const auto start = Clock::now();
    const double cpu_start = ProcessCpuSeconds();
    DB* raw = nullptr;
    Status s = DB::Open(options, dir, &raw);
    if (!s.ok()) {
      out.open_error = s.ToString();
      return out;
    }
    db.reset(raw);
    Status load = wl->Load(db.get(), &out.load);
    if (!load.ok() && out.load.first_failure.empty()) {
      out.load.Fail(kWriteOp, 0, "set-up: " + load.ToString(), false);
    }
    out.setup_wall_s.push_back(Seconds(start, Clock::now()));
    out.setup_cpu_s.push_back(ProcessCpuSeconds() - cpu_start);
    setup_total += out.setup_wall_s.back();
  }

  out.stats_timed_begin = db->GetStats();
  out.counters_timed_begin = counters.Snapshot();
  const uint64_t mutex_begin =
      PropertyU64(db.get(), "acheron.mutex-acquisitions");
  if (wrapping == Wrapping::kTraced) {
    Tracer::Reset();
    Tracer::SetEnabled(true);
  }
  const auto start = Clock::now();
  const double cpu_start = ProcessCpuSeconds();
  const auto deadline =
      start + std::chrono::duration_cast<Clock::duration>(
                  std::chrono::duration<double>(seconds));
  wl->Run(db.get(), deadline, max_ops, &out.client);
  out.seconds = Seconds(start, Clock::now());
  out.cpu_seconds = ProcessCpuSeconds() - cpu_start;
  Tracer::SetEnabled(false);
  // The property read below takes the mutex once itself.
  out.mutex_timed =
      PropertyU64(db.get(), "acheron.mutex-acquisitions") - mutex_begin - 1;
  out.stats_timed_end = db->GetStats();
  out.counters_timed_end = counters.Snapshot();

  Status settle = db->WaitForCompactions();
  if (!settle.ok()) {
    out.client.Fail(kWriteOp, out.client.attempted,
                    "WaitForCompactions: " + settle.ToString(), false);
  }
  out.stats_final = db->GetStats();
  out.deletes = db->GetDeleteStats();
  out.counters_final = counters.Snapshot();
  out.dir_bytes = DirBytes(dir);
  out.live_bytes = wl->LiveUserBytes();
  db->GetProperty("acheron.level-summary", &out.levels);
  wl->Verify(db.get(), &out.client);
  db.reset();
  std::filesystem::remove_all(dir);
  return out;
}

// ---- small JSON writer ----

std::string Num(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

std::string Str(const std::string& s) {
  std::string o = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') {
      o += '\\';
      o += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      char buf[8];
      std::snprintf(buf, sizeof(buf), "\\u%04x", c);
      o += buf;
    } else {
      o += c;
    }
  }
  return o + "\"";
}

class Object {
 public:
  Object& Add(const std::string& k, const std::string& raw_json) {
    body_ += (body_.empty() ? "" : ",") + Str(k) + ":" + raw_json;
    return *this;
  }
  Object& Metric(const std::string& k, double v, const char* unit,
                 int64_t samples = -1) {
    std::string m = "{\"value\":" + Num(v) + ",\"unit\":" + Str(unit);
    if (samples >= 0) m += ",\"samples\":" + std::to_string(samples);
    return Add(k, m + "}");
  }
  std::string Json() const { return "{" + body_ + "}"; }

 private:
  std::string body_;
};

double Median(std::vector<double> v) {
  if (v.empty()) return NAN;
  std::sort(v.begin(), v.end());
  const size_t n = v.size();
  return n % 2 ? v[n / 2] : (v[n / 2 - 1] + v[n / 2]) / 2;
}

double PeakRssMb() {
  std::ifstream f("/proc/self/status");
  std::string line;
  while (std::getline(f, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;
    }
  }
  return NAN;
}

double Ratio(double num, double den) { return den == 0 ? 0 : num / den; }

uint64_t Succeeded(const ClientResult& c) {
  return c.attempted - std::min(c.attempted, c.failed());
}

// Ops of the timed phase that succeeded and verified, per second.
double Throughput(const PassResult& p) {
  return Succeeded(p.client) / p.seconds;
}

// End-to-end metrics of one untraced pass. A per-op-class percentile is
// null when the workload issues no op of that class.
std::string EndToEnd(const PassResult& p) {
  const ClientResult& c = p.client;
  Object o;
  // Set-up and per-op cost in process CPU time: on a shared virtual disk
  // the wall time of these fsync-bound phases follows the host's I/O load
  // (see NOTES.md), so the wall-clock figures are reported beside them.
  o.Metric("setup_s", Median(p.setup_cpu_s), "s", p.setup_cpu_s.size());
  o.Metric("setup_wall_s", Median(p.setup_wall_s), "s", p.setup_wall_s.size());
  o.Metric("throughput_ops_s", Throughput(p), "1/s", c.attempted);
  o.Metric("cpu_us_per_op",
           Succeeded(c) == 0 ? NAN : p.cpu_seconds * 1e6 / Succeeded(c), "us",
           Succeeded(c));
  Latency all;
  static const char* kClassNames[kNumOpClasses] = {"write", "get", "mget",
                                                   "scan"};
  for (int k = 0; k < kNumOpClasses; k++) {
    const Latency& h = c.latency[k];
    all.Merge(h);
    const std::string n = kClassNames[k];
    o.Metric(n + "_p50_us", h.PercentileUs(50), "us", h.samples());
    o.Metric(n + "_p99_us", h.PercentileUs(99), "us", h.samples());
  }
  o.Metric("op_p50_us", all.PercentileUs(50), "us", all.samples());
  o.Metric("op_p99_us", all.PercentileUs(99), "us", all.samples());
  // Bytes appended in the timed phase per user byte it submitted, so the
  // ratio does not depend on how many ops a run gets through; a workload
  // that writes only in set-up (read) reports its set-up's.
  auto appended = [](const CounterSnapshot& from, const CounterSnapshot& to) {
    const CounterSnapshot d = Minus(to, from);
    uint64_t bytes = 0;
    for (int k = 0; k < kNumFileKinds; k++) {
      bytes += d[FileCounter(static_cast<FileKind>(k), kAppendBytes)];
    }
    return static_cast<double>(bytes);
  };
  const bool timed_writes = c.user_bytes > 0;
  const double bytes =
      timed_writes ? appended(p.counters_timed_begin, p.counters_timed_end)
                   : appended(p.counters_open, p.counters_timed_begin);
  const uint64_t user = timed_writes ? c.user_bytes : p.load.user_bytes;
  o.Metric("write_amp", Ratio(bytes, user), "ratio", user);
  o.Metric("space_amp", Ratio(p.dir_bytes, p.live_bytes), "ratio",
           p.live_bytes);
  const DeleteStats& d = p.deletes;
  const double worst = std::max({d.persistence_latency_max,
                                 d.range_persistence_latency_max,
                                 d.value_purge_latency_max});
  const uint64_t persisted =
      d.tombstones_persisted + d.range_deletes_persisted + d.values_purged;
  o.Metric("dth_used", p.dth == 0 ? NAN : worst / p.dth, "ratio", persisted);
  o.Metric("error_rate", Ratio(c.failed(), c.attempted), "ratio", c.attempted);
  o.Metric("peak_rss_mb", PeakRssMb(), "MB");
  return o.Json();
}

// Per-layer metrics of one traced pass, over its timed phase unless noted.
std::string Layers(const PassResult& p, const TraceSummary& t,
                   double untraced_throughput) {
  const InternalStats& a = p.stats_timed_begin;
  const InternalStats& b = p.stats_timed_end;
  const CounterSnapshot w = Minus(p.counters_timed_end, p.counters_timed_begin);
  const ClientResult& c = p.client;
  const double writes = c.latency[kWriteOp].samples();
  auto us = [&](SpanKind k) { return t.Kind(k).total_ns / 1e3; };
  auto reason = [&](acheron::CompactionReason r) {
    const auto i = static_cast<size_t>(r);
    return static_cast<double>(b.compactions_by_reason[i] -
                               a.compactions_by_reason[i]);
  };
  Object o;
  // Write path: stalls and background work.
  o.Metric("lsm.write.stall_us", b.stall_micros - a.stall_micros, "us");
  o.Metric("lsm.write.stall_frac",
           Ratio(b.stall_micros - a.stall_micros, p.seconds * 1e6), "ratio");
  o.Metric("lsm.write.memtable_waits",
           b.stall_memtable_waits - a.stall_memtable_waits, "count");
  o.Metric("lsm.write.slowdowns",
           b.stall_slowdown_writes - a.stall_slowdown_writes, "count");
  o.Metric("lsm.write.stops", b.stall_stop_writes - a.stall_stop_writes,
           "count");
  o.Metric("env.bg.busy_us", w[kBgBusyNs] / 1e3, "us");
  o.Metric("env.bg.queue_wait_us", w[kBgQueueWaitNs] / 1e3, "us");
  o.Metric("env.sleep_us", w[kSleepUs], "us");
  o.Metric("lsm.compaction.count", b.compaction_count - a.compaction_count,
           "count");
  o.Metric("lsm.compaction.bytes_read",
           b.compaction_bytes_read - a.compaction_bytes_read, "bytes");
  o.Metric("lsm.compaction.bytes_written",
           b.compaction_bytes_written - a.compaction_bytes_written, "bytes");
  o.Metric("lsm.compaction.trivial_moves",
           b.trivial_move_count - a.trivial_move_count, "count");
  o.Metric("lsm.flush.count", b.flush_count - a.flush_count, "count");
  o.Metric("lsm.flush.bytes", b.flush_bytes_written - a.flush_bytes_written,
           "bytes");
  // WAL and group commit.
  auto file = [&](FileKind k, FileOp op) {
    return static_cast<double>(w[FileCounter(k, op)]);
  };
  o.Metric("env.wal.append_calls", file(kWal, kAppendCalls), "count");
  o.Metric("env.wal.append_bytes", file(kWal, kAppendBytes), "bytes");
  o.Metric("env.wal.append_us", us(kWalAppend), "us");
  o.Metric("env.wal.sync_calls", file(kWal, kSyncCalls), "count");
  o.Metric("env.wal.sync_us", us(kWalSync), "us");
  o.Metric("lsm.write.grouped_ratio",
           Ratio(b.writes_grouped - a.writes_grouped, writes), "ratio");
  o.Metric("wal.bytes_written", b.wal_bytes_written - a.wal_bytes_written,
           "bytes");
  o.Metric("memtable.swaps", b.memtable_swaps - a.memtable_swaps, "count");
  // Table read path.
  o.Metric("table.cache.lookups", w[kCacheLookups], "count");
  o.Metric("table.cache.hits", w[kCacheHits], "count");
  o.Metric("table.cache.hit_ratio", Ratio(w[kCacheHits], w[kCacheLookups]),
           "ratio");
  o.Metric("table.cache.inserts", w[kCacheInserts], "count");
  o.Metric("table.cache.evictions", w[kCacheEvictions], "count");
  o.Metric("table.cache.lookup_us", us(kCacheLookup), "us");
  o.Metric("table.filter.probes", w[kFilterProbes], "count");
  o.Metric("table.filter.negatives", w[kFilterNegatives], "count");
  o.Metric("table.filter.useful_ratio",
           Ratio(w[kFilterNegatives], w[kFilterProbes]), "ratio");
  o.Metric("table.filter.probe_us", us(kFilterProbe), "us");
  o.Metric("table.filter.builds", w[kFilterBuilds], "count");
  o.Metric("memtable.get_served_ratio", Ratio(t.gets_memtable_only, t.gets),
           "ratio");
  o.Metric("env.table.read_calls", file(kTable, kReadCalls), "count");
  o.Metric("env.table.read_bytes", file(kTable, kReadBytes), "bytes");
  o.Metric("env.table.read_us", us(kTableRead), "us");
  o.Metric("env.submit_reads.calls", w[kSubmitReadsCalls], "count");
  o.Metric("env.submit_reads.reqs", w[kSubmitReadsReqs], "count");
  o.Metric("env.submit_reads.us", us(kSubmitReads), "us");
  // Scans.
  o.Metric("lsm.iter.new_us", us(kDbNewIterator), "us");
  o.Metric("lsm.iter.seek_us", us(kDbSeek), "us");
  o.Metric("lsm.iter.next_us", us(kDbNext), "us");
  o.Metric("lsm.iter.tombstones_skipped_per_scan",
           Ratio(b.iter_tombstones_skipped - a.iter_tombstones_skipped,
                 c.scans),
           "count");
  // Delete persistence (journaled state after the final settle).
  const DeleteStats& d = p.deletes;
  o.Metric("core.range_deletes_live", d.range_deletes_live, "count");
  o.Metric("core.tombstones_written", d.tombstones_written, "count");
  o.Metric("core.tombstones_persisted", d.tombstones_persisted, "count");
  o.Metric("core.persist_p50_ops", d.persistence_latency_p50, "ops");
  o.Metric("core.persist_max_ops", d.persistence_latency_max, "ops");
  o.Metric("core.range_persist_max_ops", d.range_persistence_latency_max,
           "ops");
  o.Metric("core.oldest_tombstone_age_ops", d.oldest_live_tombstone_age,
           "ops");
  o.Metric("core.ttl_compactions",
           reason(acheron::CompactionReason::kTtlExpiry), "count");
  o.Metric("core.dth_at_risk", d.dth_at_risk ? 1 : 0, "bool");
  o.Metric("lsm.compaction.by_reason.l0_file_count",
           reason(acheron::CompactionReason::kL0FileCount), "count");
  o.Metric("lsm.compaction.by_reason.level_size",
           reason(acheron::CompactionReason::kLevelSize), "count");
  o.Metric("lsm.compaction.by_reason.ttl_expiry",
           reason(acheron::CompactionReason::kTtlExpiry), "count");
  InternalStats delta;
  delta.user_bytes_written = b.user_bytes_written - a.user_bytes_written;
  delta.flush_bytes_written = b.flush_bytes_written - a.flush_bytes_written;
  delta.compaction_bytes_written =
      b.compaction_bytes_written - a.compaction_bytes_written;
  delta.vlog_bytes_written = b.vlog_bytes_written - a.vlog_bytes_written;
  o.Metric("lsm.write_amp_engine", delta.WriteAmplification(), "ratio");
  // Value log.
  o.Metric("vlog.bytes_written", b.vlog_bytes_written - a.vlog_bytes_written,
           "bytes");
  o.Metric("vlog.values_written",
           b.vlog_values_written - a.vlog_values_written, "count");
  o.Metric("vlog.segments_created",
           b.vlog_segments_created - a.vlog_segments_created, "count");
  o.Metric("vlog.gc_runs", b.vlog_gc_runs - a.vlog_gc_runs, "count");
  o.Metric("vlog.gc_bytes_relocated",
           b.vlog_gc_bytes_relocated - a.vlog_gc_bytes_relocated, "bytes");
  o.Metric("vlog.reads", b.vlog_reads - a.vlog_reads, "count");
  o.Metric("vlog.value_purge_max_ops", d.value_purge_latency_max, "ops");
  o.Metric("vlog.value_purge_backlog", d.value_purge_backlog, "count");
  o.Metric("env.vlog.write_bytes", file(kVlog, kAppendBytes), "bytes");
  o.Metric("env.vlog.read_calls", file(kVlog, kReadCalls), "count");
  o.Metric("env.vlog.read_us", us(kVlogRead), "us");
  o.Metric("lsm.mutex_acquisitions_per_op", Ratio(p.mutex_timed, c.attempted),
           "ratio");
  // Tracing itself and where the time went.
  const double traced = Throughput(p);
  o.Metric("trace.throughput_untraced_ops_s", untraced_throughput, "1/s");
  o.Metric("trace.throughput_traced_ops_s", traced, "1/s");
  o.Metric("trace.overhead_ops_s", untraced_throughput - traced, "1/s");
  o.Metric("trace.overhead_frac",
           Ratio(untraced_throughput - traced, untraced_throughput), "ratio");
  o.Metric("trace.spans", t.spans, "count");
  double db_self = 0, env_self = 0, cache_self = 0, filter_self = 0;
  for (int k = 0; k < kNumSpanKinds; k++) {
    const double self = t.Kind(static_cast<SpanKind>(k)).self_ns / 1e3;
    const std::string layer = SpanLayer(static_cast<SpanKind>(k));
    if (layer == "db" || layer == "bg") db_self += self;
    if (layer == "env") env_self += self;
    if (layer == "table.cache") cache_self += self;
    if (layer == "table.filter") filter_self += self;
  }
  o.Metric("trace.self_us.engine", db_self, "us");
  o.Metric("trace.self_us.env", env_self, "us");
  o.Metric("trace.self_us.table_cache", cache_self, "us");
  o.Metric("trace.self_us.table_filter", filter_self, "us");
  return o.Json();
}

// Self time per layer, by the op type of the root span, for the summary
// file written next to the Chrome trace.
std::string SelfTimeByOp(const TraceSummary& t) {
  Object roots;
  for (int r = 0; r < kNumSpanKinds; r++) {
    Object spans;
    bool any = false;
    for (int k = 0; k < kNumSpanKinds; k++) {
      const SpanTotals& s = t.by_root[r][k];
      if (s.count == 0) continue;
      any = true;
      Object one;
      one.Add("layer", Str(SpanLayer(static_cast<SpanKind>(k))))
          .Add("count", std::to_string(s.count))
          .Add("total_us", Num(s.total_ns / 1e3))
          .Add("self_us", Num(s.self_ns / 1e3));
      spans.Add(SpanName(static_cast<SpanKind>(k)), one.Json());
    }
    if (any) roots.Add(SpanName(static_cast<SpanKind>(r)), spans.Json());
  }
  return roots.Json();
}

// ---- wrapper self-test ----

struct SelfTest {
  // Engine counters that differ with the wrappers in place: the wrappers
  // are not transparent and the traced numbers cannot be trusted.
  std::vector<std::string> mismatches;
  // Wrapper counts that disagree with the engine's counter of the same
  // thing. Recorded as findings about the engine's counters.
  std::vector<std::string> counter_disagreements;
  Object detail;
};

// Counters that depend on wall-clock timing rather than on the op
// sequence: how long and how often writers waited for background work.
bool TimingDependent(const std::string& field) {
  return field.rfind("stall_", 0) == 0;
}

void Compare(SelfTest* st, const std::string& field, double bare,
             double wrapped) {
  if (bare != wrapped && !TimingDependent(field)) {
    st->mismatches.push_back(field + ": " + Num(bare) + " without wrappers, " +
                             Num(wrapped) + " with");
  }
}

#define PERFBENCH_STATS_FIELDS(X)                                            \
  X(user_bytes_written) X(wal_bytes_written) X(flush_count)                  \
  X(flush_bytes_written) X(compaction_count) X(compaction_bytes_read)        \
  X(compaction_bytes_written) X(trivial_move_count)                          \
  X(entries_shadowed_dropped) X(tombstones_dropped_bottom)                   \
  X(blocks_purged_secondary) X(stall_slowdown_writes) X(stall_stop_writes)   \
  X(stall_memtable_waits) X(stall_ttl_waits) X(stall_micros)                 \
  X(background_jobs_scheduled) X(memtable_swaps) X(wal_syncs)                \
  X(group_commits) X(writes_grouped) X(manifest_snapshots_written)           \
  X(manifest_rotations) X(errors_transient) X(errors_retried)                \
  X(errors_fatal) X(resume_count) X(vlog_bytes_written)                      \
  X(vlog_values_written) X(vlog_segments_created) X(vlog_gc_runs)            \
  X(vlog_gc_values_relocated) X(vlog_gc_bytes_relocated) X(vlog_reads)       \
  X(gets) X(gets_found) X(bloom_useful) X(iter_tombstones_skipped)

#define PERFBENCH_DELETE_FIELDS(X)                                           \
  X(tombstones_written) X(tombstones_persisted) X(tombstones_superseded)     \
  X(tombstones_live) X(oldest_live_tombstone_age)                            \
  X(persistence_latency_p50) X(persistence_latency_max)                      \
  X(range_deletes_written) X(range_deletes_persisted)                        \
  X(range_deletes_superseded) X(range_deletes_live)                          \
  X(range_persistence_latency_max) X(values_purged) X(value_purge_backlog)   \
  X(value_purge_latency_max) X(dth_at_risk)

// Runs a fixed op sequence twice -- once on the bare layers, once through
// every wrapper with spans recorded -- and checks that the engine saw no
// difference and that the wrappers' own counts agree with the engine's.
// The single-client mixes run in the engine's synchronous compaction mode,
// so a fixed op sequence gives identical counters. (With background
// flushes a Get that races a memtable swap is served by the memtable or by
// a table depending on timing, and two bare runs already differ in
// bloom_useful.)
SelfTest RunSelfTest(const std::string& name, uint64_t seed,
                     const std::string& dir) {
  SelfTest st;
  const PassResult bare =
      RunPass(name, seed, Wrapping::kBare, 3600, kSelfTestOps, 1, dir);
  Tracer::SetEnabled(true);
  const PassResult wrapped =
      RunPass(name, seed, Wrapping::kTraced, 3600, kSelfTestOps, 1, dir);
  Tracer::Reset();
  if (!bare.open_error.empty() || !wrapped.open_error.empty()) {
    st.mismatches.push_back("open failed: " + bare.open_error +
                            wrapped.open_error);
    return st;
  }
  const InternalStats& x = bare.stats_final;
  const InternalStats& y = wrapped.stats_final;
#define PERFBENCH_CMP(f) Compare(&st, #f, x.f, y.f);
  PERFBENCH_STATS_FIELDS(PERFBENCH_CMP)
#undef PERFBENCH_CMP
  const DeleteStats& dx = bare.deletes;
  const DeleteStats& dy = wrapped.deletes;
#define PERFBENCH_CMP(f) Compare(&st, "delete." #f, dx.f, dy.f);
  PERFBENCH_DELETE_FIELDS(PERFBENCH_CMP)
#undef PERFBENCH_CMP
  Compare(&st, "client.failed", bare.client.failed(), wrapped.client.failed());

  const CounterSnapshot life =
      Minus(wrapped.counters_final, wrapped.counters_open);
  auto check = [&](const std::string& what, uint64_t outside,
                   uint64_t engine) {
    st.detail.Add(what, "{\"outside\":" + std::to_string(outside) +
                            ",\"engine\":" + std::to_string(engine) + "}");
    if (outside != engine) {
      st.counter_disagreements.push_back(what + ": " + std::to_string(outside) +
                              " counted outside, " + std::to_string(engine) +
                              " by the engine");
    }
  };
  check("filter_negatives_vs_bloom_useful", life[kFilterNegatives],
        y.bloom_useful);
  check("wal_file_bytes_vs_wal_bytes_written",
        life[FileCounter(kWal, kAppendBytes)],
        y.wal_bytes_written);
  check("vlog_file_bytes_vs_vlog_bytes_written",
        life[FileCounter(kVlog, kAppendBytes)],
        y.vlog_bytes_written);
  st.detail.Add("ops", std::to_string(kSelfTestOps));
  return st;
}

// ---- machine facts the record needs from inside the process ----

bool IoUringProbe() {
#if defined(__NR_io_uring_setup) && __has_include(<linux/io_uring.h>)
  struct io_uring_params params = {};
  const long fd = ::syscall(__NR_io_uring_setup, 4, &params);
  if (fd < 0) return false;
  ::close(static_cast<int>(fd));
  return true;
#else
  return false;
#endif
}

std::string OptionsJson(const Workload& wl) {
  const acheron::Options o = SharedOptions();
  Object j;
  j.Add("env", Str("DefaultEnv (PosixEnv, mmap reads, io_uring if probed)"))
      .Add("write_buffer_size", std::to_string(o.write_buffer_size))
      .Add("max_file_size", std::to_string(o.max_file_size))
      .Add("size_ratio", std::to_string(o.size_ratio))
      .Add("num_levels", std::to_string(o.num_levels))
      .Add("level0_compaction_trigger",
           std::to_string(o.level0_compaction_trigger))
      .Add("background_compactions",
           wl.background_compactions() ? "true" : "false")
      .Add("block_cache_bytes", std::to_string(kBlockCacheBytes))
      .Add("filter_bits_per_key", std::to_string(kBloomBitsPerKey))
      .Add("wal", Str("on; WriteOptions::sync=false (no fsync per write)"))
      .Add("delete_persistence_threshold",
           std::to_string(wl.delete_persistence_threshold()))
      .Add("value_separation_threshold",
           std::to_string(wl.value_separation_threshold()))
      .Add("clients", std::to_string(wl.clients()));
  return j.Json();
}

std::string PassJson(const PassResult& p) {
  Object j;
  auto list = [](const std::vector<double>& v) {
    std::string json = "[";
    for (double x : v) json += (json.size() > 1 ? "," : "") + Num(x);
    return json + "]";
  };
  j.Add("setup_wall_s", list(p.setup_wall_s))
      .Add("setup_cpu_s", list(p.setup_cpu_s))
      .Add("seconds", Num(p.seconds))
      .Add("cpu_seconds", Num(p.cpu_seconds))
      .Add("attempted", std::to_string(p.client.attempted))
      .Add("errors", std::to_string(p.client.errors + p.load.errors))
      .Add("wrong", std::to_string(p.client.wrong + p.load.wrong))
      .Add("first_failure", Str(p.load.first_failure.empty()
                                    ? p.client.first_failure
                                    : p.load.first_failure))
      .Add("first_wrong", Str(p.load.first_wrong.empty() ? p.client.first_wrong
                                                          : p.load.first_wrong))
      .Add("levels", Str(p.levels))
      .Add("engine_stats", Str(p.stats_final.ToString()))
      .Add("delete_stats", Str(p.deletes.ToString()));
  return j.Json();
}

int Usage() {
  std::fprintf(stderr,
               "usage: perfbench --workload fill|read|delete_mix|kv_sep "
               "--seed N --seconds S --trace 0|1 --dir DB_DIR --out OUT_DIR\n");
  return 2;
}

int Main(int argc, char** argv) {
  std::map<std::string, std::string> args;
  for (int i = 1; i + 1 < argc; i += 2) {
    if (std::strncmp(argv[i], "--", 2) != 0) return Usage();
    args[argv[i] + 2] = argv[i + 1];
  }
  for (const char* k : {"workload", "seed", "seconds", "trace", "dir", "out"}) {
    if (args.count(k) == 0) return Usage();
  }
  const std::string name = args["workload"];
  const uint64_t seed = std::strtoull(args["seed"].c_str(), nullptr, 10);
  const double seconds = std::strtod(args["seconds"].c_str(), nullptr);
  const bool trace = args["trace"] == "1";
  const std::string dir = args["dir"];
  const std::string out_dir = args["out"];
  std::unique_ptr<Workload> wl = MakeWorkload(name, seed);
  if (wl == nullptr || seconds <= 0) return Usage();
  std::filesystem::create_directories(out_dir);

  // End-to-end metrics always come from an untraced pass.
  PassResult e2e = RunPass(name, seed, Wrapping::kCounting, seconds, 0,
                           trace ? 1 : kSetupReps, dir);
  if (!e2e.open_error.empty()) {
    std::fprintf(stderr, "perfbench: DB::Open failed: %s\n",
                 e2e.open_error.c_str());
    return 1;
  }
  // The result line counts set-up ops (preload batches, warm-up) too;
  // error_rate is the timed phase's alone.
  uint64_t attempted = e2e.client.attempted + e2e.load.attempted;
  uint64_t errors = e2e.client.errors + e2e.load.errors;
  uint64_t wrong = e2e.client.wrong + e2e.load.wrong;

  Object result;
  result.Add("workload", Str(name))
      .Add("seed", std::to_string(seed))
      .Add("options", OptionsJson(*wl))
      .Add("io_uring_probe_ok", IoUringProbe() ? "true" : "false")
      .Add("untraced_pass", PassJson(e2e))
      .Add("end_to_end", EndToEnd(e2e));

  if (trace) {
    const double untraced = Throughput(e2e);
    PassResult traced =
        RunPass(name, seed, Wrapping::kTraced, seconds, 0, 1, dir);
    if (!traced.open_error.empty()) {
      std::fprintf(stderr, "perfbench: DB::Open failed: %s\n",
                   traced.open_error.c_str());
      return 1;
    }
    attempted += traced.client.attempted + traced.load.attempted;
    errors += traced.client.errors + traced.load.errors;
    wrong += traced.client.wrong + traced.load.wrong;
    const TraceSummary summary = Tracer::Summarize();
    const std::string stem = out_dir + "/" + name + "-seed" +
                             std::to_string(seed);
    const bool wrote_trace = Tracer::WriteChromeTrace(stem + ".trace.json");
    std::ofstream(stem + ".layers.json")
        << "{\"self_time_by_root_op\":" << SelfTimeByOp(summary)
        << ",\"spans\":" << summary.spans
        << ",\"events_in_trace_file\":" << summary.events_kept << "}\n";
    Object files;
    files.Add("chrome_trace", wrote_trace ? Str(stem + ".trace.json") : "null")
        .Add("layer_summary", Str(stem + ".layers.json"));
    // Outside filter negatives must equal the engine's own count over the
    // same window.
    const uint64_t outside =
        traced.counters_final[kFilterNegatives] -
        traced.counters_open[kFilterNegatives];
    result.Add("traced_pass", PassJson(traced))
        .Add("trace_files", files.Json())
        .Add("layers", Layers(traced, summary, untraced))
        .Add("filter_negatives_outside", std::to_string(outside))
        .Add("bloom_useful_engine",
             std::to_string(traced.stats_final.bloom_useful));
    if (outside != traced.stats_final.bloom_useful) {
      wrong++;
      std::fprintf(stderr,
                   "perfbench: filter negatives counted outside (%llu) != "
                   "bloom_useful (%llu)\n",
                   static_cast<unsigned long long>(outside),
                   static_cast<unsigned long long>(
                       traced.stats_final.bloom_useful));
    }
    if (name == "delete_mix" || name == "kv_sep") {
      SelfTest st = RunSelfTest(name, seed, dir);
      auto list = [](const std::vector<std::string>& items, const char* what) {
        std::string json = "[";
        for (const auto& m : items) {
          json += (json.size() > 1 ? "," : "") + Str(m);
          std::fprintf(stderr, "perfbench: self-test %s: %s\n", what,
                       m.c_str());
        }
        return json + "]";
      };
      st.detail.Add("transparency_mismatches", list(st.mismatches, "mismatch"))
          .Add("transparent", st.mismatches.empty() ? "true" : "false")
          .Add("counter_disagreements",
               list(st.counter_disagreements, "counter disagreement"))
          .Add("counters_agree",
               st.counter_disagreements.empty() ? "true" : "false");
      result.Add("self_test", st.detail.Json());
      // Wrappers that change what the engine does invalidate the run.
      if (!st.mismatches.empty()) wrong++;
    }
  }
  result.Add("attempted", std::to_string(attempted))
      .Add("errors", std::to_string(errors))
      .Add("wrong", std::to_string(wrong));
  std::printf("%s\n", result.Json().c_str());
  return 0;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) { return perfbench::Main(argc, argv); }
