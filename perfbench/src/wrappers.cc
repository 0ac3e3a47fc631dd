#include "wrappers.h"

#include <chrono>

#include "trace.h"

namespace perfbench {

using acheron::Slice;
using acheron::Status;

namespace {

constexpr auto kRelaxed = std::memory_order_relaxed;

uint64_t NowNs() {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

SpanKind ReadSpan(FileKind k) {
  switch (k) {
    case kTable: return kTableRead;
    case kVlog: return kVlogRead;
    default: return kOtherRead;
  }
}

SpanKind AppendSpan(FileKind k) {
  switch (k) {
    case kWal: return kWalAppend;
    case kTable: return kTableAppend;
    case kVlog: return kVlogAppend;
    default: return kOtherAppend;
  }
}

SpanKind SyncSpan(FileKind k) {
  switch (k) {
    case kWal: return kWalSync;
    case kTable: return kTableSync;
    case kVlog: return kVlogSync;
    default: return kOtherSync;
  }
}

class CountingRandomAccessFile : public acheron::RandomAccessFile {
 public:
  CountingRandomAccessFile(std::unique_ptr<acheron::RandomAccessFile> base,
                           LayerCounters* counters, FileKind kind)
      : base_(std::move(base)), counters_(counters), kind_(kind) {}

  Status Read(uint64_t offset, size_t n, Slice* result,
              char* scratch) const override {
    Span span(ReadSpan(kind_));
    Status s = base_->Read(offset, n, result, scratch);
    counters_->Add(FileCounter(kind_, kReadCalls), 1);
    counters_->Add(FileCounter(kind_, kReadBytes), result->size());
    return s;
  }

  int PreadFd() const override { return base_->PreadFd(); }

 private:
  const std::unique_ptr<acheron::RandomAccessFile> base_;
  LayerCounters* const counters_;
  const FileKind kind_;
};

class CountingWritableFile : public acheron::WritableFile {
 public:
  CountingWritableFile(std::unique_ptr<acheron::WritableFile> base,
                       LayerCounters* counters, FileKind kind)
      : base_(std::move(base)), counters_(counters), kind_(kind) {}

  Status Append(const Slice& data) override {
    Span span(AppendSpan(kind_));
    counters_->Add(FileCounter(kind_, kAppendCalls), 1);
    counters_->Add(FileCounter(kind_, kAppendBytes), data.size());
    return base_->Append(data);
  }
  Status Close() override { return base_->Close(); }
  Status Flush() override { return base_->Flush(); }
  Status Sync() override {
    Span span(SyncSpan(kind_));
    counters_->Add(FileCounter(kind_, kSyncCalls), 1);
    return base_->Sync();
  }
  Status SyncDurable() override {
    Span span(SyncSpan(kind_));
    counters_->Add(FileCounter(kind_, kSyncCalls), 1);
    return base_->SyncDurable();
  }

 private:
  const std::unique_ptr<acheron::WritableFile> base_;
  LayerCounters* const counters_;
  const FileKind kind_;
};

// A Schedule'd job in flight: runs the engine's function as a root span and
// charges its queue wait and run time to the background counters.
struct ScheduledJob {
  void (*function)(void*);
  void* arg;
  LayerCounters* counters;
  uint64_t enqueued_ns;

  static void Run(void* p) {
    std::unique_ptr<ScheduledJob> job(static_cast<ScheduledJob*>(p));
    const uint64_t start = NowNs();
    {
      Span span(kBgJob);
      job->function(job->arg);
    }
    const uint64_t end = NowNs();
    job->counters->Add(kBgJobs, 1);
    job->counters->Add(kBgQueueWaitNs, start - job->enqueued_ns);
    job->counters->Add(kBgBusyNs, end - start);
  }
};

// The cache entry the wrapped cache holds: the engine's value and deleter.
struct CacheBox {
  void* value;
  void (*deleter)(const Slice& key, void* value);
  LayerCounters* counters;

  static void Delete(const Slice& key, void* p) {
    std::unique_ptr<CacheBox> box(static_cast<CacheBox*>(p));
    box->counters->Add(kCacheEvictions, 1);
    box->deleter(key, box->value);
  }
};

}  // namespace

FileKind KindOfFile(const std::string& fname) {
  const size_t slash = fname.rfind('/');
  const std::string base =
      slash == std::string::npos ? fname : fname.substr(slash + 1);
  auto ends_with = [&](const char* suffix) {
    const std::string s(suffix);
    return base.size() >= s.size() &&
           base.compare(base.size() - s.size(), s.size(), s) == 0;
  };
  if (ends_with(".log")) return kWal;
  if (ends_with(".sst")) return kTable;
  if (ends_with(".vlog")) return kVlog;
  if (base.rfind("MANIFEST", 0) == 0) return kManifest;
  return kOther;
}

CounterSnapshot LayerCounters::Snapshot() const {
  CounterSnapshot s;
  for (int i = 0; i < kNumCounters; i++) s[i] = v_[i].load(kRelaxed);
  return s;
}

CounterSnapshot Minus(const CounterSnapshot& after,
                      const CounterSnapshot& before) {
  CounterSnapshot d;
  for (int i = 0; i < kNumCounters; i++) d[i] = after[i] - before[i];
  return d;
}

// ---- CountingEnv ----

void CountingEnv::Schedule(void (*function)(void*), void* arg) {
  base_->Schedule(&ScheduledJob::Run,
                  new ScheduledJob{function, arg, counters_, NowNs()});
}

void CountingEnv::StartThread(void (*function)(void*), void* arg) {
  base_->StartThread(function, arg);
}

void CountingEnv::SleepForMicroseconds(int micros) {
  Span span(kSleep);
  counters_->Add(kSleepCalls, 1);
  counters_->Add(kSleepUs, micros > 0 ? micros : 0);
  base_->SleepForMicroseconds(micros);
}

Status CountingEnv::NewSequentialFile(
    const std::string& fname,
    std::unique_ptr<acheron::SequentialFile>* result) {
  // Only recovery reads files sequentially; it is not a measured phase.
  return base_->NewSequentialFile(fname, result);
}

Status CountingEnv::NewRandomAccessFile(
    const std::string& fname,
    std::unique_ptr<acheron::RandomAccessFile>* result) {
  std::unique_ptr<acheron::RandomAccessFile> file;
  Status s = base_->NewRandomAccessFile(fname, &file);
  if (s.ok()) {
    const FileKind kind = KindOfFile(fname);
    *result = std::make_unique<CountingRandomAccessFile>(
        std::move(file), counters_, kind);
  }
  return s;
}

Status CountingEnv::NewWritableFile(
    const std::string& fname, std::unique_ptr<acheron::WritableFile>* result) {
  std::unique_ptr<acheron::WritableFile> file;
  Status s = base_->NewWritableFile(fname, &file);
  if (s.ok()) {
    const FileKind kind = KindOfFile(fname);
    *result = std::make_unique<CountingWritableFile>(
        std::move(file), counters_, kind);
  }
  return s;
}

bool CountingEnv::FileExists(const std::string& fname) {
  return base_->FileExists(fname);
}
Status CountingEnv::GetChildren(const std::string& dir,
                                std::vector<std::string>* result) {
  return base_->GetChildren(dir, result);
}
Status CountingEnv::RemoveFile(const std::string& fname) {
  return base_->RemoveFile(fname);
}
Status CountingEnv::CreateDir(const std::string& dirname) {
  return base_->CreateDir(dirname);
}
Status CountingEnv::RemoveDir(const std::string& dirname) {
  return base_->RemoveDir(dirname);
}
Status CountingEnv::GetFileSize(const std::string& fname, uint64_t* size) {
  return base_->GetFileSize(fname, size);
}
Status CountingEnv::RenameFile(const std::string& src,
                               const std::string& target) {
  return base_->RenameFile(src, target);
}

void CountingEnv::SubmitReads(acheron::ReadRequest** reqs, size_t count,
                              acheron::CompletionQueue* cq) {
  Span span(kSubmitReads);
  counters_->Add(kSubmitReadsCalls, 1);
  counters_->Add(kSubmitReadsReqs, count);
  base_->SubmitReads(reqs, count, cq);
}

void CountingEnv::SubmitSync(acheron::SyncRequest* req,
                             acheron::CompletionQueue* cq) {
  Span span(kSubmitSync);
  counters_->Add(kSubmitSyncCalls, 1);
  base_->SubmitSync(req, cq);
}

// ---- CountingCache ----

acheron::Cache::Handle* CountingCache::Insert(
    const Slice& key, void* value, size_t charge,
    void (*deleter)(const Slice& key, void* value)) {
  Span span(kCacheInsert);
  counters_->Add(kCacheInserts, 1);
  return base_->Insert(key, new CacheBox{value, deleter, counters_}, charge,
                       &CacheBox::Delete);
}

acheron::Cache::Handle* CountingCache::Lookup(const Slice& key) {
  Span span(kCacheLookup);
  Handle* h = base_->Lookup(key);
  counters_->Add(kCacheLookups, 1);
  if (h != nullptr) counters_->Add(kCacheHits, 1);
  return h;
}

void* CountingCache::Value(Handle* handle) {
  return static_cast<CacheBox*>(base_->Value(handle))->value;
}

// ---- CountingFilterPolicy ----

void CountingFilterPolicy::CreateFilter(const Slice* keys, int n,
                                        std::string* dst) const {
  Span span(kFilterBuild);
  counters_->Add(kFilterBuilds, 1);
  base_->CreateFilter(keys, n, dst);
}

bool CountingFilterPolicy::KeyMayMatch(const Slice& key,
                                       const Slice& filter) const {
  Span span(kFilterProbe);
  const bool may = base_->KeyMayMatch(key, filter);
  counters_->Add(kFilterProbes, 1);
  if (!may) counters_->Add(kFilterNegatives, 1);
  return may;
}

}  // namespace perfbench
