#include "trace.h"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <mutex>
#include <vector>

namespace perfbench {

namespace {

struct KindInfo {
  const char* name;
  const char* layer;
};

constexpr KindInfo kKinds[kNumSpanKinds] = {
    {"db.Put", "db"},
    {"db.Delete", "db"},
    {"db.DeleteRange", "db"},
    {"db.Get", "db"},
    {"db.MultiGet", "db"},
    {"db.NewIterator", "db"},
    {"db.Seek", "db"},
    {"db.Next", "db"},
    {"bg.job", "bg"},
    {"env.wal.append", "env"},
    {"env.wal.sync", "env"},
    {"env.table.read", "env"},
    {"env.table.append", "env"},
    {"env.table.sync", "env"},
    {"env.vlog.read", "env"},
    {"env.vlog.append", "env"},
    {"env.vlog.sync", "env"},
    {"env.other.read", "env"},
    {"env.other.append", "env"},
    {"env.other.sync", "env"},
    {"env.submit_reads", "env"},
    {"env.submit_sync", "env"},
    {"env.sleep", "env"},
    {"table.cache.lookup", "table.cache"},
    {"table.cache.insert", "table.cache"},
    {"table.filter.probe", "table.filter"},
    {"table.filter.build", "table.filter"},
};

// Env, file, cache and filter spans: the layers below the DB API.
bool BelowDb(SpanKind kind) { return kind >= kWalAppend; }

uint64_t NowNs() {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

struct Event {
  uint64_t start_ns;
  uint64_t end_ns;
  uint32_t id;
  uint32_t parent;  // 0 = root
  SpanKind kind;
};

struct OpenSpan {
  SpanKind kind;
  uint64_t start_ns;
  uint64_t child_ns;
  bool below_db;  // an env or table span closed somewhere beneath this one
  uint32_t id;
};

// One per thread that ever opened a span. Only the owning thread touches
// |stack|; |mu| orders the aggregates and events against Reset/Summarize.
struct ThreadBuffer {
  uint32_t tid = 0;
  OpenSpan stack[64];
  int depth = 0;
  uint32_t next_id = 1;

  std::mutex mu;
  std::vector<Event> events;
  TraceSummary sums;
};

std::atomic<uint64_t> g_events_kept{0};
std::mutex g_registry_mu;
std::vector<std::unique_ptr<ThreadBuffer>>& Registry() {
  static auto* registry = new std::vector<std::unique_ptr<ThreadBuffer>>();
  return *registry;
}

ThreadBuffer* Local() {
  thread_local ThreadBuffer* buffer = nullptr;
  if (buffer == nullptr) {
    auto owned = std::make_unique<ThreadBuffer>();
    buffer = owned.get();
    std::lock_guard<std::mutex> l(g_registry_mu);
    buffer->tid = static_cast<uint32_t>(Registry().size() + 1);
    Registry().push_back(std::move(owned));
  }
  return buffer;
}

}  // namespace

std::atomic<bool> Tracer::enabled_{false};

const char* SpanName(SpanKind kind) { return kKinds[kind].name; }
const char* SpanLayer(SpanKind kind) { return kKinds[kind].layer; }

SpanTotals TraceSummary::Kind(SpanKind kind) const {
  SpanTotals t;
  for (const auto& row : by_root) {
    t.count += row[kind].count;
    t.total_ns += row[kind].total_ns;
    t.self_ns += row[kind].self_ns;
  }
  return t;
}

void Tracer::Begin(SpanKind kind) {
  ThreadBuffer* b = Local();
  if (b->depth == static_cast<int>(std::size(b->stack))) {
    std::fprintf(stderr, "perfbench: span stack overflow\n");
    std::abort();
  }
  b->stack[b->depth++] = OpenSpan{kind, NowNs(), 0, false, b->next_id++};
}

void Tracer::End() {
  ThreadBuffer* b = Local();
  const uint64_t end = NowNs();
  const OpenSpan s = b->stack[--b->depth];
  const uint64_t dur = end - s.start_ns;
  const SpanKind root = b->depth == 0 ? s.kind : b->stack[0].kind;
  const bool below = s.below_db || BelowDb(s.kind);
  uint32_t parent = 0;
  if (b->depth > 0) {
    OpenSpan& p = b->stack[b->depth - 1];
    p.child_ns += dur;
    p.below_db = p.below_db || below;
    parent = p.id;
  }
  std::lock_guard<std::mutex> l(b->mu);
  SpanTotals& t = b->sums.by_root[root][s.kind];
  t.count++;
  t.total_ns += dur;
  t.self_ns += dur > s.child_ns ? dur - s.child_ns : 0;
  b->sums.spans++;
  if (s.kind == kDbGet) {
    b->sums.gets++;
    if (!s.below_db) b->sums.gets_memtable_only++;
  }
  if (g_events_kept.load(std::memory_order_relaxed) < kMaxEvents &&
      g_events_kept.fetch_add(1, std::memory_order_relaxed) < kMaxEvents) {
    b->events.push_back(Event{s.start_ns, end, s.id, parent, s.kind});
  }
}

void Tracer::Reset() {
  std::lock_guard<std::mutex> rl(g_registry_mu);
  for (auto& b : Registry()) {
    std::lock_guard<std::mutex> l(b->mu);
    b->events.clear();
    b->sums = TraceSummary();
  }
  g_events_kept.store(0);
}

TraceSummary Tracer::Summarize() {
  TraceSummary out;
  std::lock_guard<std::mutex> rl(g_registry_mu);
  for (auto& b : Registry()) {
    std::lock_guard<std::mutex> l(b->mu);
    for (int r = 0; r < kNumSpanKinds; r++) {
      for (int k = 0; k < kNumSpanKinds; k++) {
        out.by_root[r][k].count += b->sums.by_root[r][k].count;
        out.by_root[r][k].total_ns += b->sums.by_root[r][k].total_ns;
        out.by_root[r][k].self_ns += b->sums.by_root[r][k].self_ns;
      }
    }
    out.spans += b->sums.spans;
    out.events_kept += b->events.size();
    out.gets += b->sums.gets;
    out.gets_memtable_only += b->sums.gets_memtable_only;
  }
  return out;
}

bool Tracer::WriteChromeTrace(const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  std::lock_guard<std::mutex> rl(g_registry_mu);
  uint64_t origin = UINT64_MAX;
  for (auto& b : Registry()) {
    std::lock_guard<std::mutex> l(b->mu);
    for (const Event& e : b->events) origin = std::min(origin, e.start_ns);
  }
  std::fprintf(f, "{\"displayTimeUnit\":\"ns\",\"traceEvents\":[");
  bool first = true;
  for (auto& b : Registry()) {
    std::lock_guard<std::mutex> l(b->mu);
    for (const Event& e : b->events) {
      std::fprintf(f,
                   "%s\n{\"name\":\"%s\",\"cat\":\"%s\",\"ph\":\"X\","
                   "\"pid\":1,\"tid\":%u,\"ts\":%.3f,\"dur\":%.3f,"
                   "\"args\":{\"id\":%u,\"parent\":%u}}",
                   first ? "" : ",", kKinds[e.kind].name, kKinds[e.kind].layer,
                   b->tid, (e.start_ns - origin) / 1e3,
                   (e.end_ns - e.start_ns) / 1e3, e.id, e.parent);
      first = false;
    }
  }
  std::fprintf(f, "\n]}\n");
  return std::fclose(f) == 0;
}

}  // namespace perfbench
