// Benchmark-owned wrappers around the engine's injectable layers:
// Options::env (and every file it opens), Options::block_cache and
// Options::filter_policy. Each forwards every virtual to the wrapped object
// unchanged -- including RandomAccessFile::PreadFd, WritableFile::SyncDurable,
// Env::SubmitReads/SubmitSync and Env::SleepForMicroseconds, so the io_uring,
// async WAL sync and mmap paths are the ones the engine takes without them --
// and counts (always) and times (while Tracer is enabled) each call.
#ifndef PERFBENCH_WRAPPERS_H_
#define PERFBENCH_WRAPPERS_H_

#include <array>
#include <atomic>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "src/env/env.h"
#include "src/table/cache.h"
#include "src/util/bloom.h"

namespace perfbench {

// What a file holds, from its name (see src/lsm/filename.cc).
enum FileKind { kWal, kTable, kVlog, kManifest, kOther, kNumFileKinds };

FileKind KindOfFile(const std::string& fname);

enum FileOp { kAppendCalls, kAppendBytes, kReadCalls, kReadBytes, kSyncCalls,
              kNumFileOps };

// Every counter the wrappers keep: kNumFileOps per file kind, then these.
enum Counter {
  kSubmitReadsCalls = static_cast<int>(kNumFileKinds) * kNumFileOps,
  kSubmitReadsReqs,
  kSubmitSyncCalls,
  kSleepCalls,
  kSleepUs,
  kBgJobs,
  kBgBusyNs,
  kBgQueueWaitNs,
  kCacheLookups,
  kCacheHits,
  kCacheInserts,
  kCacheEvictions,
  kFilterProbes,
  kFilterNegatives,
  kFilterBuilds,
  kNumCounters
};

constexpr int FileCounter(FileKind kind, FileOp op) {
  return static_cast<int>(kind) * kNumFileOps + static_cast<int>(op);
}

using CounterSnapshot = std::array<uint64_t, kNumCounters>;

// Counters bumped by the wrappers. Relaxed atomics: read only after the
// threads that bump them are quiescent.
class LayerCounters {
 public:
  void Add(int counter, uint64_t n) {
    v_[counter].fetch_add(n, std::memory_order_relaxed);
  }
  CounterSnapshot Snapshot() const;

 private:
  std::atomic<uint64_t> v_[kNumCounters] = {};
};

// after - before, counter by counter.
CounterSnapshot Minus(const CounterSnapshot& after,
                      const CounterSnapshot& before);

// Env wrapper. Does not own |base|; |counters| must outlive every file it
// opens and every job it schedules.
class CountingEnv : public acheron::Env {
 public:
  CountingEnv(acheron::Env* base, LayerCounters* counters)
      : base_(base), counters_(counters) {}

  void Schedule(void (*function)(void*), void* arg) override;
  void StartThread(void (*function)(void*), void* arg) override;
  void SleepForMicroseconds(int micros) override;

  acheron::Status NewSequentialFile(
      const std::string& fname,
      std::unique_ptr<acheron::SequentialFile>* result) override;
  acheron::Status NewRandomAccessFile(
      const std::string& fname,
      std::unique_ptr<acheron::RandomAccessFile>* result) override;
  acheron::Status NewWritableFile(
      const std::string& fname,
      std::unique_ptr<acheron::WritableFile>* result) override;

  bool FileExists(const std::string& fname) override;
  acheron::Status GetChildren(const std::string& dir,
                              std::vector<std::string>* result) override;
  acheron::Status RemoveFile(const std::string& fname) override;
  acheron::Status CreateDir(const std::string& dirname) override;
  acheron::Status RemoveDir(const std::string& dirname) override;
  acheron::Status GetFileSize(const std::string& fname,
                              uint64_t* size) override;
  acheron::Status RenameFile(const std::string& src,
                             const std::string& target) override;

  void SubmitReads(acheron::ReadRequest** reqs, size_t count,
                   acheron::CompletionQueue* cq) override;
  void SubmitSync(acheron::SyncRequest* req,
                  acheron::CompletionQueue* cq) override;

 private:
  acheron::Env* const base_;
  LayerCounters* const counters_;
};

// Block cache wrapper. Each value is boxed with its deleter so evictions
// are counted when the wrapped cache drops the entry; Value() unboxes.
class CountingCache : public acheron::Cache {
 public:
  CountingCache(std::unique_ptr<acheron::Cache> base, LayerCounters* counters)
      : base_(std::move(base)), counters_(counters) {}

  Handle* Insert(const acheron::Slice& key, void* value, size_t charge,
                 void (*deleter)(const acheron::Slice& key,
                                 void* value)) override;
  Handle* Lookup(const acheron::Slice& key) override;
  void Release(Handle* handle) override { base_->Release(handle); }
  void* Value(Handle* handle) override;
  void Erase(const acheron::Slice& key) override { base_->Erase(key); }
  uint64_t NewId() override { return base_->NewId(); }
  void Prune() override { base_->Prune(); }
  size_t TotalCharge() const override { return base_->TotalCharge(); }

 private:
  std::unique_ptr<acheron::Cache> base_;
  LayerCounters* const counters_;
};

// Filter policy wrapper; Name() is the wrapped policy's, so tables built
// with and without the wrapper are interchangeable.
class CountingFilterPolicy : public acheron::FilterPolicy {
 public:
  CountingFilterPolicy(const acheron::FilterPolicy* base,
                       LayerCounters* counters)
      : base_(base), counters_(counters) {}

  const char* Name() const override { return base_->Name(); }
  void CreateFilter(const acheron::Slice* keys, int n,
                    std::string* dst) const override;
  bool KeyMayMatch(const acheron::Slice& key,
                   const acheron::Slice& filter) const override;

 private:
  const acheron::FilterPolicy* const base_;
  LayerCounters* const counters_;
};

}  // namespace perfbench

#endif  // PERFBENCH_WRAPPERS_H_
