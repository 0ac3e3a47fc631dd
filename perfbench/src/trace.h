// In-memory span recorder for the traced benchmark run.
//
// A span is opened at every call the benchmark makes into the DB API and at
// every call the engine makes into a benchmark-owned wrapper (Env, files,
// Cache, FilterPolicy). Its parent is the innermost span still open on the
// same thread, so a Schedule'd background job is a root span on the worker
// thread and the env calls it makes are its children. Per-thread buffers keep
// the hot path lock-free; self time (duration minus the time covered by child
// spans) is aggregated online per (root op, span kind), and the first
// kMaxEvents spans are kept verbatim for the Chrome trace-event file.
#ifndef PERFBENCH_TRACE_H_
#define PERFBENCH_TRACE_H_

#include <array>
#include <atomic>
#include <cstddef>
#include <cstdint>
#include <string>

namespace perfbench {

enum SpanKind : uint8_t {
  // DB API calls made by the benchmark's clients.
  kDbPut,
  kDbDelete,
  kDbDeleteRange,
  kDbGet,
  kDbMultiGet,
  kDbNewIterator,
  kDbSeek,
  kDbNext,
  // A job the engine handed to Env::Schedule.
  kBgJob,
  // Env and file wrappers, by file kind.
  kWalAppend,
  kWalSync,
  kTableRead,
  kTableAppend,
  kTableSync,
  kVlogRead,
  kVlogAppend,
  kVlogSync,
  kOtherRead,
  kOtherAppend,
  kOtherSync,
  kSubmitReads,
  kSubmitSync,
  kSleep,
  // Block cache wrapper.
  kCacheLookup,
  kCacheInsert,
  // Filter policy wrapper.
  kFilterProbe,
  kFilterBuild,
  kNumSpanKinds
};

const char* SpanName(SpanKind kind);
// The layer a span is charged to: "db", "bg", "env", "table.cache" or
// "table.filter".
const char* SpanLayer(SpanKind kind);

// Totals for one span kind under one root op.
struct SpanTotals {
  uint64_t count = 0;
  uint64_t total_ns = 0;
  uint64_t self_ns = 0;
};

struct TraceSummary {
  // by_root[r][k]: spans of kind k whose root span has kind r.
  std::array<std::array<SpanTotals, kNumSpanKinds>, kNumSpanKinds> by_root{};
  uint64_t spans = 0;
  uint64_t events_kept = 0;
  uint64_t gets = 0;
  uint64_t gets_memtable_only = 0;  // Get spans with no env or table child

  SpanTotals Kind(SpanKind kind) const;  // summed over roots
};

class Tracer {
 public:
  static constexpr size_t kMaxEvents = 200000;

  static bool enabled() { return enabled_.load(std::memory_order_relaxed); }
  // Switch recording on or off. Call only while no span is open.
  static void SetEnabled(bool on) {
    enabled_.store(on, std::memory_order_relaxed);
  }
  // Drop every recorded span. Call only while no thread is inside a span.
  static void Reset();
  static TraceSummary Summarize();
  // Writes the kept spans as Chrome trace-event JSON; false on IO error.
  static bool WriteChromeTrace(const std::string& path);

  static void Begin(SpanKind kind);
  static void End();

 private:
  static std::atomic<bool> enabled_;
};

// Scoped span; costs one relaxed load when tracing is off.
class Span {
 public:
  explicit Span(SpanKind kind) : on_(Tracer::enabled()) {
    if (on_) Tracer::Begin(kind);
  }
  ~Span() {
    if (on_) Tracer::End();
  }
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

 private:
  const bool on_;
};

}  // namespace perfbench

#endif  // PERFBENCH_TRACE_H_
