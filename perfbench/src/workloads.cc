#include "workloads.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <map>
#include <thread>
#include <utility>

#include "src/lsm/write_batch.h"
#include "src/util/random.h"
#include "src/workload/workload.h"
#include "trace.h"

namespace perfbench {

using acheron::DB;
using acheron::Iterator;
using acheron::ReadOptions;
using acheron::Slice;
using acheron::Status;
using acheron::WriteOptions;

namespace {

constexpr size_t kKeySize = 16;
constexpr int kScanLength = 10;
constexpr size_t kMultiGetBatch = 8;
constexpr int kPreloadBatch = 100;

// A bijection on 64-bit integers (the splitmix64 finalizer), so distinct ids
// give distinct keys spread uniformly over the key space.
uint64_t Mix(uint64_t x) {
  x ^= x >> 30;
  x *= 0xbf58476d1ce4e5b9ull;
  x ^= x >> 27;
  x *= 0x94d049bb133111ebull;
  x ^= x >> 31;
  return x;
}

std::string Hex16(uint64_t v) {
  char buf[kKeySize + 1];
  std::snprintf(buf, sizeof(buf), "%016llx",
                static_cast<unsigned long long>(v));
  return std::string(buf, kKeySize);
}

// Keys are fixed-width hex, so bytewise order is numeric order of Mix(id).
class KeySpace {
 public:
  explicit KeySpace(uint64_t seed) : salt_(Mix(seed + 0x9e3779b97f4a7c15ull)) {}
  uint64_t Position(uint64_t id) const { return Mix(id ^ salt_); }
  std::string Key(uint64_t id) const { return Hex16(Position(id)); }

 private:
  const uint64_t salt_;
};

// The value bytes of (id, version): a pure function, so the model stores
// only (id, version, size) and regenerates bytes to check a read.
std::string ValueOf(uint64_t id, uint64_t version, uint32_t size) {
  std::string v(size, '\0');
  uint64_t x = Mix(id * 0x9e3779b97f4a7c15ull + version + 1);
  for (size_t i = 0; i < size; i += 8) {
    x = Mix(x + i);
    std::memcpy(&v[i], &x, std::min<size_t>(8, size - i));
  }
  return v;
}

std::vector<uint64_t> Shuffled(uint64_t n, acheron::Random* rnd) {
  std::vector<uint64_t> order(n);
  for (uint64_t i = 0; i < n; i++) order[i] = i;
  for (uint64_t i = n; i > 1; i--) {
    std::swap(order[i - 1], order[rnd->Uniform(i)]);
  }
  return order;
}

std::string Describe(uint64_t op, const std::string& what) {
  return "op " + std::to_string(op) + ": " + what;
}

// Records one point lookup: its latency if it agrees with the model, else a
// failure. |expected| is nullptr for a key the model says is absent.
void CheckLookup(OpClass c, uint64_t op, const Status& s,
                 const std::string& got, const std::string* expected,
                 Clock::time_point start, Clock::time_point end,
                 ClientResult* r) {
  if (!s.ok() && !s.IsNotFound()) {
    r->Fail(c, op, s.ToString(), false);
  } else if (s.ok() != (expected != nullptr) ||
             (expected != nullptr && got != *expected)) {
    r->Fail(c, op,
            expected == nullptr ? "found a key the model says is absent"
                                : (s.ok() ? "value differs from the model"
                                          : "missing a key the model holds"),
            true);
  } else {
    r->Record(c, start, end);
  }
}

// One timed scan: NewIterator + Seek + up to kScanLength Nexts. The entries
// are copied out inside the timed window and checked after it.
struct ScanResult {
  Status status;
  std::vector<std::pair<std::string, std::string>> entries;
  Clock::time_point start, end;
};

ScanResult TimedScan(DB* db, const std::string& start_key) {
  ScanResult out;
  out.start = Clock::now();
  std::unique_ptr<Iterator> it;
  {
    Span span(kDbNewIterator);
    it.reset(db->NewIterator(ReadOptions()));
  }
  {
    Span span(kDbSeek);
    it->Seek(start_key);
  }
  while (it->Valid()) {
    out.entries.emplace_back(it->key().ToString(), it->value().ToString());
    if (out.entries.size() == kScanLength) break;
    Span span(kDbNext);
    it->Next();
  }
  out.status = it->status();
  out.end = Clock::now();
  return out;
}

// ---------------------------------------------------------------------------
// fill: 4 writers Put 100 B values under distinct random keys into an empty
// DB. Every key is re-read after the timed phase.

class FillWorkload : public Workload {
 public:
  static constexpr int kClients = 4;
  static constexpr uint32_t kValueSize = 100;

  explicit FillWorkload(uint64_t seed) : keys_(seed) {}

  int clients() const override { return kClients; }

  Status Load(DB*, ClientResult*) override { return Status::OK(); }

  void Run(DB* db, Clock::time_point deadline, uint64_t max_ops,
           ClientResult* r) override {
    std::vector<std::thread> threads;
    ClientResult per_thread[kClients];
    for (int t = 0; t < kClients; t++) {
      threads.emplace_back([&, t] {
        ClientResult& mine = per_thread[t];
        const uint64_t limit = max_ops == 0 ? UINT64_MAX : max_ops / kClients;
        for (uint64_t i = 0; i < limit; i++) {
          const uint64_t id = i * kClients + t;
          const std::string key = keys_.Key(id);
          const std::string value = ValueOf(id, 0, kValueSize);
          const auto start = Clock::now();
          if (start >= deadline) break;
          Status s;
          {
            Span span(kDbPut);
            s = db->Put(WriteOptions(), key, value);
          }
          const auto end = Clock::now();
          mine.attempted++;
          mine.user_bytes += key.size() + value.size();
          if (s.ok()) {
            mine.Record(kWriteOp, start, end);
          } else {
            mine.Fail(kWriteOp, id, s.ToString(), false);
            failed_ids_[t].push_back(id);
          }
        }
      });
    }
    for (auto& th : threads) th.join();
    for (int t = 0; t < kClients; t++) {
      written_[t] = per_thread[t].attempted;
      r->Merge(per_thread[t]);
    }
  }

  // Re-reads every key a writer got an OK for. Keys whose Put failed were
  // already counted as failed ops and are not checked.
  void Verify(DB* db, ClientResult* r) override {
    std::string got;
    for (int t = 0; t < kClients; t++) {
      size_t next_failed = 0;
      for (uint64_t i = 0; i < written_[t]; i++) {
        const uint64_t id = i * kClients + t;
        if (next_failed < failed_ids_[t].size() &&
            failed_ids_[t][next_failed] == id) {
          next_failed++;
          continue;
        }
        Status s = db->Get(ReadOptions(), keys_.Key(id), &got);
        if (!s.ok() || got != ValueOf(id, 0, kValueSize)) {
          r->Fail(kWriteOp, id,
                  s.ok() ? "value differs from the model" : s.ToString(),
                  s.ok() || s.IsNotFound());
        }
      }
    }
  }

  uint64_t LiveUserBytes() const override {
    uint64_t keys = 0;
    for (int t = 0; t < kClients; t++) {
      keys += written_[t] - failed_ids_[t].size();
    }
    return keys * (kKeySize + kValueSize);
  }

 private:
  const KeySpace keys_;
  uint64_t written_[kClients] = {};
  std::vector<uint64_t> failed_ids_[kClients];
};

// ---------------------------------------------------------------------------
// read: 2 readers over a tree preloaded in random order whose table data
// fits the block cache. Gets (half hits, half in-range misses), MultiGet
// batches and short scans; no writes.

class ReadWorkload : public Workload {
 public:
  static constexpr int kClients = 2;
  static constexpr uint64_t kKeys = 20000;  // ~2.3 MB of key+value bytes
  static constexpr uint32_t kValueSize = 100;

  explicit ReadWorkload(uint64_t seed) : seed_(seed), keys_(seed) {}

  int clients() const override { return kClients; }
  // Only the preload writes; inline compactions make the tree it leaves a
  // pure function of the seed.
  bool background_compactions() const override { return false; }

  Status Load(DB* db, ClientResult* r) override {
    acheron::Random rnd(seed_);
    const std::vector<uint64_t> order = Shuffled(kKeys, &rnd);
    Status first;
    for (size_t i = 0; i < order.size(); i += kPreloadBatch) {
      acheron::WriteBatch batch;
      for (size_t j = i; j < std::min(order.size(), i + kPreloadBatch); j++) {
        const std::string key = keys_.Key(order[j]);
        const std::string value = ValueOf(order[j], 0, kValueSize);
        batch.Put(key, value);
        r->user_bytes += key.size() + value.size();
      }
      Status s = db->Write(WriteOptions(), &batch);
      r->attempted++;
      if (!s.ok()) {
        r->Fail(kWriteOp, i, "preload: " + s.ToString(), false);
        if (first.ok()) first = s;
      }
    }
    Status s = db->WaitForCompactions();
    if (first.ok()) first = s;
    sorted_.clear();
    for (uint64_t id = 0; id < kKeys; id++) {
      sorted_.emplace_back(keys_.Key(id), id);
    }
    std::sort(sorted_.begin(), sorted_.end());
    return first;
  }

  void Run(DB* db, Clock::time_point deadline, uint64_t max_ops,
           ClientResult* r) override {
    std::vector<std::thread> threads;
    ClientResult per_thread[kClients];
    for (int t = 0; t < kClients; t++) {
      threads.emplace_back([&, t] {
        ClientResult& mine = per_thread[t];
        acheron::Random rnd(Mix(seed_ * 31 + t + 1));
        const uint64_t limit = max_ops == 0 ? UINT64_MAX : max_ops / kClients;
        std::string got;
        for (uint64_t op = 0; op < limit; op++) {
          if (Clock::now() >= deadline) break;
          mine.attempted++;
          const uint64_t p = rnd.Uniform(100);
          if (p < 70) {
            const uint64_t id = rnd.Uniform(2 * kKeys);  // >= kKeys: a miss
            const std::string key = keys_.Key(id);
            const auto start = Clock::now();
            Status s;
            {
              Span span(kDbGet);
              s = db->Get(ReadOptions(), key, &got);
            }
            const auto end = Clock::now();
            const std::string expected =
                id < kKeys ? ValueOf(id, 0, kValueSize) : std::string();
            CheckLookup(kGetOp, op, s, got, id < kKeys ? &expected : nullptr,
                        start, end, &mine);
          } else if (p < 85) {
            MultiGet(db, op, &rnd, &mine);
          } else {
            Scan(db, op, &rnd, &mine);
          }
        }
      });
    }
    for (auto& th : threads) th.join();
    for (auto& pt : per_thread) r->Merge(pt);
  }

  uint64_t LiveUserBytes() const override {
    return kKeys * (kKeySize + kValueSize);
  }

 private:
  void MultiGet(DB* db, uint64_t op, acheron::Random* rnd, ClientResult* r) {
    uint64_t ids[kMultiGetBatch];
    std::vector<std::string> key_bytes;
    std::vector<Slice> keys;
    for (size_t i = 0; i < kMultiGetBatch; i++) {
      ids[i] = rnd->Uniform(2 * kKeys);
      key_bytes.push_back(keys_.Key(ids[i]));
    }
    for (const std::string& k : key_bytes) keys.emplace_back(k);
    std::vector<std::string> values;
    const auto start = Clock::now();
    std::vector<Status> st;
    {
      Span span(kDbMultiGet);
      st = db->MultiGet(ReadOptions(), keys, &values);
    }
    const auto end = Clock::now();
    for (size_t i = 0; i < kMultiGetBatch; i++) {
      if (!st[i].ok() && !st[i].IsNotFound()) {
        r->Fail(kMultiGetOp, op, st[i].ToString(), false);
        return;
      }
      const bool want = ids[i] < kKeys;
      if (st[i].ok() != want ||
          (want && values[i] != ValueOf(ids[i], 0, kValueSize))) {
        r->Fail(kMultiGetOp, op, "MultiGet result differs from the model",
                true);
        return;
      }
    }
    r->Record(kMultiGetOp, start, end);
  }

  void Scan(DB* db, uint64_t op, acheron::Random* rnd, ClientResult* r) {
    const std::string start_key = keys_.Key(rnd->Uniform(2 * kKeys));
    ScanResult got = TimedScan(db, start_key);
    r->scans++;
    if (!got.status.ok()) {
      r->Fail(kScanOp, op, got.status.ToString(), false);
      return;
    }
    auto it = std::lower_bound(
        sorted_.begin(), sorted_.end(),
        std::make_pair(start_key, uint64_t{0}));
    for (const auto& [key, value] : got.entries) {
      if (it == sorted_.end() || key != it->first ||
          value != ValueOf(it->second, 0, kValueSize)) {
        r->Fail(kScanOp, op, "scan differs from the model", true);
        return;
      }
      ++it;
    }
    if (got.entries.size() < kScanLength && it != sorted_.end()) {
      r->Fail(kScanOp, op, "scan ended before the model's last key", true);
      return;
    }
    r->Record(kScanOp, got.start, got.end);
  }

  const uint64_t seed_;
  const KeySpace keys_;
  std::vector<std::pair<std::string, uint64_t>> sorted_;
};

// ---------------------------------------------------------------------------
// delete_mix / kv_sep: one client running a Lethe-style mix of inserts,
// Zipfian updates, point deletes, range deletes, gets and short scans over a
// tree preloaded in random order. The model is an ordered map, so range
// deletes and scans are checked exactly.

struct MixShape {
  uint64_t preload_keys;
  uint64_t warmup_ops;        // mix ops run in set-up, after the preload
  uint64_t dth;               // Options::delete_persistence_threshold
  size_t separation;          // Options::value_separation_threshold
  uint32_t large_value;       // 0 = every value is small
  uint32_t large_percent;     // share of puts that carry large_value bytes
};

class MixWorkload : public Workload {
 public:
  static constexpr uint32_t kSmallValue = 100;
  // Range deletes span about this many live keys.
  static constexpr uint64_t kRangeDeleteKeys = 4;

  MixWorkload(uint64_t seed, MixShape shape)
      : shape_(shape),
        keys_(seed),
        rnd_(Mix(seed + 7)),
        zipf_(shape.preload_keys, 0.99, Mix(seed + 11)) {}

  int clients() const override { return 1; }
  // The engine's default, deterministic mode: flushes and compactions run
  // inline in the client, so a seed gives the same tree at every op. With a
  // background worker the same inputs ran at 3.3k-5.5k ops/s from run to
  // run, as compactions landed at different points of the op stream.
  bool background_compactions() const override { return false; }
  uint64_t delete_persistence_threshold() const override { return shape_.dth; }
  size_t value_separation_threshold() const override {
    return shape_.separation;
  }

  Status Load(DB* db, ClientResult* r) override {
    model_.clear();
    live_bytes_ = 0;
    const std::vector<uint64_t> order = Shuffled(shape_.preload_keys, &rnd_);
    Status first;
    for (size_t i = 0; i < order.size(); i += kPreloadBatch) {
      acheron::WriteBatch batch;
      std::vector<std::pair<std::string, Entry>> pending;
      for (size_t j = i; j < std::min(order.size(), i + kPreloadBatch); j++) {
        const Entry e{order[j], 0, PickSize()};
        const std::string key = keys_.Key(e.id);
        const std::string value = ValueOf(e.id, e.version, e.size);
        batch.Put(key, value);
        r->user_bytes += key.size() + value.size();
        pending.emplace_back(key, e);
      }
      Status s = db->Write(WriteOptions(), &batch);
      r->attempted++;
      if (s.ok()) {
        for (auto& [key, e] : pending) Upsert(key, e);
      } else {
        r->Fail(kWriteOp, i, "preload: " + s.ToString(), false);
        if (first.ok()) first = s;
      }
    }
    next_id_ = shape_.preload_keys;
    // Warm up with the mix itself so the timed phase starts with the range
    // tombstones and TTL-driven compactions of a running workload, not a
    // freshly loaded tree; its results are checked like timed ones.
    Run(db, Clock::time_point::max(), shape_.warmup_ops, r);
    Status s = db->WaitForCompactions();
    return first.ok() ? s : first;
  }

  void Run(DB* db, Clock::time_point deadline, uint64_t max_ops,
           ClientResult* r) override {
    std::string got;
    for (uint64_t n = 0; max_ops == 0 || n < max_ops; n++) {
      if (Clock::now() >= deadline) break;
      const uint64_t op = op_count_++;
      r->attempted++;
      const uint64_t p = rnd_.Uniform(100);
      if (p < 45) {
        // Insert a new key (p < 25) or update a Zipf-hot preloaded one.
        const uint64_t id = p < 25 ? next_id_++ : zipf_.Next();
        const Entry e{id, op + 1, PickSize()};
        const std::string key = keys_.Key(id);
        const std::string value = ValueOf(e.id, e.version, e.size);
        r->user_bytes += key.size() + value.size();
        Write(op, r, [&] {
          Span span(kDbPut);
          return db->Put(WriteOptions(), key, value);
        }, [&] { Upsert(key, e); });
      } else if (p < 55) {
        const std::string key = keys_.Key(rnd_.Uniform(next_id_));
        r->user_bytes += key.size();
        Write(op, r, [&] {
          Span span(kDbDelete);
          return db->Delete(WriteOptions(), key);
        }, [&] {
          auto it = model_.find(key);
          if (it != model_.end()) Erase(it, std::next(it));
        });
      } else if (p < 57) {
        const uint64_t pos = keys_.Position(rnd_.Uniform(next_id_));
        const uint64_t width = UINT64_MAX /
                               std::max<uint64_t>(model_.size(), 1) *
                               kRangeDeleteKeys;
        const std::string begin = Hex16(pos);
        const std::string end = Hex16(pos > UINT64_MAX - width ? UINT64_MAX
                                                               : pos + width);
        r->user_bytes += begin.size() + end.size();
        Write(op, r, [&] {
          Span span(kDbDeleteRange);
          return db->DeleteRange(WriteOptions(), begin, end);
        }, [&] { Erase(model_.lower_bound(begin), model_.lower_bound(end)); });
      } else if (p < 92) {
        const std::string key = keys_.Key(rnd_.Uniform(next_id_));
        const auto start = Clock::now();
        Status s;
        {
          Span span(kDbGet);
          s = db->Get(ReadOptions(), key, &got);
        }
        const auto end = Clock::now();
        auto it = model_.find(key);
        std::string expected;
        if (it != model_.end()) {
          const Entry& e = it->second;
          expected = ValueOf(e.id, e.version, e.size);
        }
        CheckLookup(kGetOp, op, s, got,
                    it != model_.end() ? &expected : nullptr, start, end, r);
      } else {
        Scan(db, op, r);
      }
    }
  }

  uint64_t LiveUserBytes() const override { return live_bytes_; }

 private:
  struct Entry {
    uint64_t id;
    uint64_t version;
    uint32_t size;
  };

  uint32_t PickSize() {
    if (shape_.large_value == 0) return kSmallValue;
    return rnd_.Uniform(100) < shape_.large_percent ? shape_.large_value
                                                    : kSmallValue;
  }

  void Upsert(const std::string& key, const Entry& e) {
    auto [it, inserted] = model_.try_emplace(key, e);
    if (!inserted) {
      live_bytes_ -= it->second.size;
      it->second = e;
    } else {
      live_bytes_ += key.size();
    }
    live_bytes_ += e.size;
  }

  void Erase(std::map<std::string, Entry>::iterator first,
             std::map<std::string, Entry>::iterator last) {
    for (auto it = first; it != last; ++it) {
      live_bytes_ -= it->first.size() + it->second.size;
    }
    model_.erase(first, last);
  }

  // Times one write; the model changes only if the engine acknowledged it.
  template <typename Call, typename Apply>
  void Write(uint64_t op, ClientResult* r, Call call, Apply apply) {
    const auto start = Clock::now();
    const Status s = call();
    const auto end = Clock::now();
    if (s.ok()) {
      r->Record(kWriteOp, start, end);
      apply();
    } else {
      r->Fail(kWriteOp, op, s.ToString(), false);
    }
  }

  void Scan(DB* db, uint64_t op, ClientResult* r) {
    const std::string start_key = keys_.Key(rnd_.Uniform(next_id_));
    ScanResult got = TimedScan(db, start_key);
    r->scans++;
    if (!got.status.ok()) {
      r->Fail(kScanOp, op, got.status.ToString(), false);
      return;
    }
    auto it = model_.lower_bound(start_key);
    for (const auto& [key, value] : got.entries) {
      if (it == model_.end() || key != it->first ||
          value != ValueOf(it->second.id, it->second.version,
                           it->second.size)) {
        r->Fail(kScanOp, op, "scan differs from the model", true);
        return;
      }
      ++it;
    }
    if (got.entries.size() < kScanLength && it != model_.end()) {
      r->Fail(kScanOp, op, "scan ended before the model's last key", true);
      return;
    }
    r->Record(kScanOp, got.start, got.end);
  }

  const MixShape shape_;
  const KeySpace keys_;
  acheron::Random rnd_;
  acheron::workload::ZipfianGenerator zipf_;
  std::map<std::string, Entry> model_;
  uint64_t live_bytes_ = 0;
  uint64_t next_id_ = 0;
  uint64_t op_count_ = 0;
};

}  // namespace

void Latency::Merge(const Latency& other) {
  ns.Merge(other.ns);
  failed += other.failed;
}

double Latency::PercentileUs(double p) const {
  const uint64_t total = samples();
  if (total == 0) return NAN;
  const double rank = p / 100.0 * total;
  if (rank > ns.Count()) return INFINITY;
  return ns.Percentile(100.0 * rank / ns.Count()) / 1e3;
}

void ClientResult::Record(OpClass c, Clock::time_point start,
                          Clock::time_point end) {
  latency[c].ns.Add(
      std::chrono::duration<double, std::nano>(end - start).count());
}

void ClientResult::Fail(OpClass c, uint64_t op_index, const std::string& what,
                        bool wrong_result) {
  (wrong_result ? wrong : errors)++;
  if (first_failure.empty()) first_failure = Describe(op_index, what);
  if (wrong_result && first_wrong.empty()) {
    first_wrong = Describe(op_index, what);
  }
  latency[c].failed++;
}

void ClientResult::Merge(const ClientResult& o) {
  attempted += o.attempted;
  errors += o.errors;
  wrong += o.wrong;
  user_bytes += o.user_bytes;
  scans += o.scans;
  if (first_failure.empty()) first_failure = o.first_failure;
  if (first_wrong.empty()) first_wrong = o.first_wrong;
  for (int c = 0; c < kNumOpClasses; c++) latency[c].Merge(o.latency[c]);
}

std::unique_ptr<Workload> MakeWorkload(const std::string& name,
                                       uint64_t seed) {
  if (name == "fill") return std::make_unique<FillWorkload>(seed);
  if (name == "read") return std::make_unique<ReadWorkload>(seed);
  if (name == "delete_mix") {
    return std::make_unique<MixWorkload>(
        seed, MixShape{60000, 10000, 8000, 0, 0, 0});
  }
  if (name == "kv_sep") {
    return std::make_unique<MixWorkload>(
        seed, MixShape{20000, 10000, 8000, 1024, 4096, 25});
  }
  return nullptr;
}

}  // namespace perfbench
