// The benchmark's workloads: input generation from the seed, the in-memory
// model every result is checked against, and the closed-loop client loops.
#ifndef PERFBENCH_WORKLOADS_H_
#define PERFBENCH_WORKLOADS_H_

#include <chrono>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "src/lsm/db.h"
#include "src/util/histogram.h"

namespace perfbench {

using Clock = std::chrono::steady_clock;

// Latency classes reported end to end.
enum OpClass { kWriteOp, kGetOp, kMultiGetOp, kScanOp, kNumOpClasses };

// Latencies of one op class, in nanoseconds, in the engine's fixed-size
// histogram, so the benchmark's memory does not grow with the number of ops
// and peak RSS measures the engine. Failed ops are kept apart and rank above
// every latency.
struct Latency {
  acheron::Histogram ns;
  uint64_t failed = 0;

  uint64_t samples() const { return ns.Count() + failed; }
  void Merge(const Latency& other);
  // Percentile p (0..100) in microseconds, interpolated inside its bucket;
  // NaN with no samples, +inf when the rank falls among failed ops.
  double PercentileUs(double p) const;
};

// Outcome of a client phase. A failed op (error status) or wrong op
// (result disagrees with the model) counts as exceeding every percentile.
struct ClientResult {
  uint64_t attempted = 0;
  uint64_t errors = 0;  // ops that returned a non-OK, non-NotFound status
  uint64_t wrong = 0;   // ops whose result disagreed with the model
  uint64_t user_bytes = 0;  // key+value bytes submitted by writes
  uint64_t scans = 0;
  std::string first_failure;  // "op <n>: <status or mismatch>"
  std::string first_wrong;    // the first wrong result, if any
  Latency latency[kNumOpClasses];

  void Record(OpClass c, Clock::time_point start, Clock::time_point end);
  void Fail(OpClass c, uint64_t op_index, const std::string& what,
            bool wrong_result);
  void Merge(const ClientResult& other);
  uint64_t failed() const { return errors + wrong; }
};

class Workload {
 public:
  virtual ~Workload() = default;

  virtual int clients() const = 0;
  // The options that differ between workloads.
  virtual uint64_t delete_persistence_threshold() const { return 0; }
  virtual size_t value_separation_threshold() const { return 0; }
  // Flushes and compactions on the Env's background worker (true), or
  // inline in the writing client: the engine's deterministic mode.
  virtual bool background_compactions() const { return true; }

  // Set-up: fill a freshly opened DB (in random key order where the
  // workload preloads) and rebuild the model. Not timed by the caller's
  // percentiles; the caller times it as setup_s.
  virtual acheron::Status Load(acheron::DB* db, ClientResult* r) = 0;

  // The measured, closed-loop phase: every client issues its next op when
  // the previous one returns, until |deadline| or until |max_ops| ops were
  // attempted in total (0 = no op limit).
  virtual void Run(acheron::DB* db, Clock::time_point deadline,
                   uint64_t max_ops, ClientResult* r) = 0;

  // Post-run check of the DB against the model (fill re-reads every key it
  // wrote). Counts into |r| like Run.
  virtual void Verify(acheron::DB* db, ClientResult* r) { (void)db, (void)r; }

  // Key+value bytes the model says are live.
  virtual uint64_t LiveUserBytes() const = 0;
};

// "fill", "read", "delete_mix" or "kv_sep"; nullptr for any other name.
std::unique_ptr<Workload> MakeWorkload(const std::string& name, uint64_t seed);

}  // namespace perfbench

#endif  // PERFBENCH_WORKLOADS_H_
