// Shared scaffolding for the experiment harnesses (exp_*.cc). Each binary
// regenerates one table/figure of the evaluation; see DESIGN.md §4 and
// EXPERIMENTS.md for the mapping.
//
// Scale: set ACHERON_BENCH_SCALE=<n> (default 1) to multiply operation
// counts; the shipped defaults keep every binary under a few seconds so the
// whole suite can run in one go.
#ifndef ACHERON_BENCH_BENCH_COMMON_H_
#define ACHERON_BENCH_BENCH_COMMON_H_

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <string>

#include "src/env/env.h"
#include "src/lsm/db.h"
#include "src/lsm/stats.h"
#include "src/lsm/version_set.h"
#include "src/util/histogram.h"
#include "src/workload/workload.h"

namespace acheron {
namespace bench {

// Aborts the benchmark if an engine operation fails: throughput numbers for
// a database that is silently erroring would be meaningless.
inline void CheckOk(const Status& s) {
  if (!s.ok()) {
    std::fprintf(stderr, "bench: operation failed: %s\n", s.ToString().c_str());
    std::abort();
  }
}

inline uint64_t Scale() {
  const char* s = std::getenv("ACHERON_BENCH_SCALE");
  if (s == nullptr) return 1;
  long v = std::atol(s);
  return v < 1 ? 1 : static_cast<uint64_t>(v);
}

// A DB in a fresh in-memory filesystem (IO cost excluded by design: the
// experiments compare engine *policies*, and the authors' SSD numbers are
// not reproducible here anyway -- see DESIGN.md).
class BenchDB {
 public:
  explicit BenchDB(Options options) : env_(NewMemEnv()), options_(options) {
    options_.env = env_.get();
    DB* db = nullptr;
    Status s = DB::Open(options_, "/bench", &db);
    if (!s.ok()) {
      std::fprintf(stderr, "open failed: %s\n", s.ToString().c_str());
      std::abort();
    }
    db_.reset(db);
  }

  DB* db() { return db_.get(); }
  DB* operator->() { return db_.get(); }

  uint64_t PropertyU64(const std::string& name) {
    std::string v;
    if (!db_->GetProperty(name, &v)) return 0;
    return std::stoull(v);
  }

  // Bytes across all SST files / bytes of user-visible live data.
  double SpaceAmplification() {
    uint64_t disk = PropertyU64("acheron.total-bytes");
    uint64_t live = 0;
    std::unique_ptr<Iterator> it(db_->NewIterator(ReadOptions()));
    for (it->SeekToFirst(); it->Valid(); it->Next()) {
      live += it->key().size() + it->value().size();
    }
    return live == 0 ? 0.0 : static_cast<double>(disk) / live;
  }

 private:
  std::unique_ptr<Env> env_;
  Options options_;
  std::unique_ptr<DB> db_;
};

// Default small-but-multi-level tuning shared by the experiments.
inline Options BenchOptions() {
  Options options;
  options.write_buffer_size = 64 << 10;
  options.max_file_size = 128 << 10;
  options.size_ratio = 4;
  options.num_levels = 5;
  options.level0_compaction_trigger = 4;
  options.disable_wal = true;  // measure engine work, not log appends
  return options;
}

// Drives |ops| operations of |spec| into |db|; returns ops/second.
inline double RunWorkload(DB* db, const workload::WorkloadSpec& spec) {
  workload::Generator gen(spec);
  WriteOptions wo;
  ReadOptions ro;
  auto start = std::chrono::steady_clock::now();
  std::string value;
  for (uint64_t i = 0; i < spec.num_ops; i++) {
    workload::Op op = gen.Next();
    switch (op.type) {
      case workload::OpType::kInsert:
      case workload::OpType::kUpdate:
        CheckOk(db->Put(wo, op.key, op.value));
        break;
      case workload::OpType::kDelete:
        CheckOk(db->Delete(wo, op.key));
        break;
      case workload::OpType::kRangeDelete:
        CheckOk(db->DeleteRange(wo, op.key, op.end_key));
        break;
      case workload::OpType::kPointQuery:
        // NotFound is an expected outcome for point lookups.
        (void)db->Get(ro, op.key, &value);
        break;
      case workload::OpType::kRangeQuery: {
        std::unique_ptr<Iterator> it(db->NewIterator(ro));
        int n = 0;
        for (it->Seek(op.key); it->Valid() && n < op.scan_length; it->Next()) {
          n++;
        }
        break;
      }
    }
  }
  auto end = std::chrono::steady_clock::now();
  double secs = std::chrono::duration<double>(end - start).count();
  return secs > 0 ? static_cast<double>(spec.num_ops) / secs : 0;
}

inline void PrintHeader(const char* title, const char* legend) {
  std::printf("=== %s ===\n", title);
  if (legend && legend[0]) std::printf("%s\n", legend);
}

// Dumps the engine's internal counters (compactions, stalls, group commit,
// write amplification) so every harness can report what the engine did, not
// just how fast the loop ran.
inline void PrintEngineStats(DB* db) {
  std::string stats;
  if (db->GetProperty("acheron.stats", &stats)) {
    std::printf("engine: %s\n", stats.c_str());
  }
}

// Machine-readable result sink: one JSON object per run, written to |path|
// (appended, one object per line, so a sweep can share a file). Latency
// percentiles come from |latency| (microseconds); stall/commit counters
// from the engine's InternalStats. |extra| is a pre-rendered JSON fragment
// of additional top-level fields ("\"k\":v,...", no braces) for modes with
// bench-specific outputs; the added keys must be registered per bench in
// tools/check_bench_json.py's EXTRA_KEYS in the same change.
inline void WriteJsonResult(const std::string& path, const std::string& name,
                            int threads, uint64_t ops, double ops_per_sec,
                            const Histogram& latency,
                            const InternalStats& stats,
                            const std::string& extra = std::string()) {
  std::FILE* f = std::fopen(path.c_str(), "a");
  if (f == nullptr) {
    std::fprintf(stderr, "bench: cannot open %s for writing\n", path.c_str());
    return;
  }
  const std::string extra_fields = extra.empty() ? "" : "," + extra;
  std::fprintf(
      f,
      "{\"bench\":\"%s\",\"threads\":%d,\"ops\":%llu,"
      "\"ops_per_sec\":%.1f,"
      "\"latency_micros\":{\"p50\":%.2f,\"p99\":%.2f,\"max\":%.2f},"
      "\"stalls\":{\"slowdown_writes\":%llu,\"stop_writes\":%llu,"
      "\"memtable_waits\":%llu,\"ttl_waits\":%llu,\"stall_micros\":%llu},"
      "\"commit\":{\"wal_syncs\":%llu,\"group_commits\":%llu,"
      "\"writes_grouped\":%llu},"
      "\"background\":{\"jobs_scheduled\":%llu,\"memtable_swaps\":%llu},"
      "\"errors\":{\"transient\":%llu,\"retried\":%llu,\"fatal\":%llu,"
      "\"resumes\":%llu},"
      "\"compactions\":%llu,\"write_amplification\":%.2f,"
      "\"range_fragment_builds\":%llu%s}\n",
      name.c_str(), threads, static_cast<unsigned long long>(ops),
      ops_per_sec, latency.Percentile(50.0), latency.Percentile(99.0),
      latency.Max(),
      static_cast<unsigned long long>(stats.stall_slowdown_writes),
      static_cast<unsigned long long>(stats.stall_stop_writes),
      static_cast<unsigned long long>(stats.stall_memtable_waits),
      static_cast<unsigned long long>(stats.stall_ttl_waits),
      static_cast<unsigned long long>(stats.stall_micros),
      static_cast<unsigned long long>(stats.wal_syncs),
      static_cast<unsigned long long>(stats.group_commits),
      static_cast<unsigned long long>(stats.writes_grouped),
      static_cast<unsigned long long>(stats.background_jobs_scheduled),
      static_cast<unsigned long long>(stats.memtable_swaps),
      static_cast<unsigned long long>(stats.errors_transient),
      static_cast<unsigned long long>(stats.errors_retried),
      static_cast<unsigned long long>(stats.errors_fatal),
      static_cast<unsigned long long>(stats.resume_count),
      static_cast<unsigned long long>(stats.compaction_count),
      stats.WriteAmplification(),
      static_cast<unsigned long long>(stats.range_fragment_builds),
      extra_fields.c_str());
  std::fclose(f);
}

}  // namespace bench
}  // namespace acheron

#endif  // ACHERON_BENCH_BENCH_COMMON_H_
