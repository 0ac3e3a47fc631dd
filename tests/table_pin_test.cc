// Table pins: a FileMetaData holds its file's open Table from the first read
// until the FileMetaData dies, and the table cache stays the one place that
// opens (and deduplicates) tables.
#include <gtest/gtest.h>

#include <cstdio>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "src/env/env.h"
#include "src/lsm/db.h"
#include "src/lsm/filename.h"
#include "src/lsm/table_cache.h"
#include "src/lsm/version_edit.h"
#include "src/table/table_builder.h"

namespace acheron {
namespace {

// A MemEnv that counts the RandomAccessFiles open on each file name, so a
// test can see when a table's reader (its mapping or fd on a real Env) is
// released.
class OpenFileCountingEnv : public Env {
 public:
  OpenFileCountingEnv() : base_(NewMemEnv()) {}

  int OpenCount(const std::string& fname) {
    std::lock_guard<std::mutex> l(mu_);
    auto it = open_.find(fname);
    return it == open_.end() ? 0 : it->second;
  }

  void Schedule(void (*function)(void*), void* arg) override {
    base_->Schedule(function, arg);
  }
  void StartThread(void (*function)(void*), void* arg) override {
    base_->StartThread(function, arg);
  }
  void SleepForMicroseconds(int micros) override {
    base_->SleepForMicroseconds(micros);
  }
  Status NewSequentialFile(const std::string& fname,
                           std::unique_ptr<SequentialFile>* result) override {
    return base_->NewSequentialFile(fname, result);
  }
  Status NewRandomAccessFile(
      const std::string& fname,
      std::unique_ptr<RandomAccessFile>* result) override {
    std::unique_ptr<RandomAccessFile> file;
    Status s = base_->NewRandomAccessFile(fname, &file);
    if (s.ok()) {
      *result = std::make_unique<CountedFile>(this, fname, std::move(file));
    }
    return s;
  }
  Status NewWritableFile(const std::string& fname,
                         std::unique_ptr<WritableFile>* result) override {
    return base_->NewWritableFile(fname, result);
  }
  bool FileExists(const std::string& fname) override {
    return base_->FileExists(fname);
  }
  Status GetChildren(const std::string& dir,
                     std::vector<std::string>* result) override {
    return base_->GetChildren(dir, result);
  }
  Status RemoveFile(const std::string& fname) override {
    return base_->RemoveFile(fname);
  }
  Status CreateDir(const std::string& dirname) override {
    return base_->CreateDir(dirname);
  }
  Status RemoveDir(const std::string& dirname) override {
    return base_->RemoveDir(dirname);
  }
  Status GetFileSize(const std::string& fname, uint64_t* size) override {
    return base_->GetFileSize(fname, size);
  }
  Status RenameFile(const std::string& src,
                    const std::string& target) override {
    return base_->RenameFile(src, target);
  }
  void SubmitReads(ReadRequest** reqs, size_t count,
                   CompletionQueue* cq) override {
    base_->SubmitReads(reqs, count, cq);
  }
  void SubmitSync(SyncRequest* req, CompletionQueue* cq) override {
    base_->SubmitSync(req, cq);
  }

 private:
  class CountedFile : public RandomAccessFile {
   public:
    CountedFile(OpenFileCountingEnv* env, std::string fname,
                std::unique_ptr<RandomAccessFile> base)
        : env_(env), fname_(std::move(fname)), base_(std::move(base)) {
      env_->Adjust(fname_, +1);
    }
    ~CountedFile() override { env_->Adjust(fname_, -1); }

    Status Read(uint64_t offset, size_t n, Slice* result,
                char* scratch) const override {
      return base_->Read(offset, n, result, scratch);
    }

   private:
    OpenFileCountingEnv* const env_;
    const std::string fname_;
    const std::unique_ptr<RandomAccessFile> base_;
  };

  void Adjust(const std::string& fname, int delta) {
    std::lock_guard<std::mutex> l(mu_);
    open_[fname] += delta;
  }

  std::unique_ptr<Env> base_;
  std::mutex mu_;
  std::map<std::string, int> open_;  // guarded by mu_
};

std::string Key(int i) {
  char buf[16];
  std::snprintf(buf, sizeof(buf), "k%06d", i);
  return buf;
}

}  // namespace

TEST(TablePinTest, FirstTouchPinsAndCopiesStartEmpty) {
  std::unique_ptr<Env> env(NewMemEnv());
  InternalKeyComparator icmp(BytewiseComparator());
  Options options;
  options.env = env.get();
  options.comparator = &icmp;
  ASSERT_TRUE(env->CreateDir("/db").ok());
  std::unique_ptr<WritableFile> file;
  ASSERT_TRUE(env->NewWritableFile(TableFileName("/db", 7), &file).ok());
  TableBuilder builder(options, file.get());
  for (int i = 0; i < 50; i++) {
    InternalKey ikey(Key(i), i + 1, kTypeValue);
    builder.Add(ikey.Encode(), "v", Key(i));
  }
  ASSERT_TRUE(builder.Finish().ok());
  ASSERT_TRUE(file->Close().ok());

  TableCache cache("/db", options, /*entries=*/4);
  FileMetaData f;
  f.number = 7;
  f.file_size = builder.FileSize();

  Table* first = nullptr;
  ASSERT_TRUE(cache.PinTable(f, &first).ok());
  ASSERT_NE(nullptr, first);
  EXPECT_EQ(1u, cache.lookups());
  // Later reads go through the pin: no further cache lookup.
  for (int i = 0; i < 10; i++) {
    Table* again = nullptr;
    ASSERT_TRUE(cache.PinTable(f, &again).ok());
    EXPECT_EQ(first, again);
  }
  EXPECT_EQ(1u, cache.lookups());

  // A copy (a VersionEdit entry, a trivially moved file's new metadata)
  // starts unpinned, and its first touch finds the same Table in the cache.
  FileMetaData moved = f;
  EXPECT_EQ(nullptr, moved.table_pin.table());
  Table* shared = nullptr;
  ASSERT_TRUE(cache.PinTable(moved, &shared).ok());
  EXPECT_EQ(first, shared);
  EXPECT_EQ(2u, cache.lookups());

  // Eviction drops the cache's own reference only: pinned readers keep
  // using the table until their FileMetaData dies.
  cache.Evict(7);
  std::unique_ptr<Iterator> it(cache.NewIterator(ReadOptions(), f));
  int n = 0;
  for (it->SeekToFirst(); it->Valid(); it->Next()) n++;
  EXPECT_TRUE(it->status().ok());
  EXPECT_EQ(50, n);
  EXPECT_EQ(2u, cache.lookups());

  // A missing file is an error and pins nothing; the next touch retries.
  FileMetaData missing;
  missing.number = 99;
  missing.file_size = 100;
  Table* none = nullptr;
  EXPECT_FALSE(cache.PinTable(missing, &none).ok());
  EXPECT_EQ(nullptr, missing.table_pin.table());
}

TEST(TablePinTest, TableClosesWhenLastVersionDies) {
  OpenFileCountingEnv env;
  Options options;
  options.env = &env;
  options.write_buffer_size = 1 << 20;  // flushes only when asked
  std::unique_ptr<DB> db;
  {
    DB* raw = nullptr;
    ASSERT_TRUE(DB::Open(options, "/db", &raw).ok());
    db.reset(raw);
  }
  auto table_files = [&] {
    std::vector<std::string> children, tables;
    EXPECT_TRUE(env.GetChildren("/db", &children).ok());
    for (const std::string& name : children) {
      uint64_t number = 0;
      FileType type;
      if (ParseFileName(name, &number, &type) && type == kTableFile) {
        tables.push_back("/db/" + name);
      }
    }
    return tables;
  };
  // Whether the current version lists the table (" <number>:" lines).
  auto in_current_version = [&](const std::string& table) {
    uint64_t number = 0;
    FileType type;
    EXPECT_TRUE(ParseFileName(table.substr(table.rfind('/') + 1), &number,
                              &type));
    std::string listing;
    EXPECT_TRUE(db->GetProperty("acheron.sstables", &listing));
    return listing.find(" " + std::to_string(number) + ":") !=
           std::string::npos;
  };

  for (int i = 0; i < 100; i++) {
    ASSERT_TRUE(db->Put(WriteOptions(), Key(i), "old").ok());
  }
  ASSERT_TRUE(db->FlushMemTable().ok());
  const std::vector<std::string> first = table_files();
  ASSERT_EQ(1u, first.size());
  const std::string old_table = first[0];
  ASSERT_TRUE(in_current_version(old_table));

  std::string value;
  ASSERT_TRUE(db->Get(ReadOptions(), Key(5), &value).ok());
  EXPECT_EQ(1, env.OpenCount(old_table));

  // An iterator pins the version that holds the old table. Rewriting every
  // key and compacting retires the table from the current version, but the
  // iterator's version still references it, so it stays open and readable.
  std::unique_ptr<Iterator> it(db->NewIterator(ReadOptions()));
  for (int i = 0; i < 100; i++) {
    ASSERT_TRUE(db->Put(WriteOptions(), Key(i), "new").ok());
  }
  ASSERT_TRUE(db->FlushMemTable().ok());
  db->CompactRange(nullptr, nullptr);
  ASSERT_TRUE(db->WaitForCompactions().ok());
  ASSERT_FALSE(in_current_version(old_table));
  EXPECT_TRUE(env.FileExists(old_table));
  EXPECT_EQ(1, env.OpenCount(old_table));
  int n = 0;
  for (it->SeekToFirst(); it->Valid(); it->Next()) {
    EXPECT_EQ("old", it->value().ToString());
    n++;
  }
  EXPECT_TRUE(it->status().ok());
  EXPECT_EQ(100, n);

  // Dropping the iterator lets its version die at the next install; the
  // table is then unpinned, evicted, closed and deleted.
  it.reset();
  ASSERT_TRUE(db->Put(WriteOptions(), "z", "v").ok());
  ASSERT_TRUE(db->FlushMemTable().ok());
  ASSERT_TRUE(db->WaitForCompactions().ok());
  EXPECT_FALSE(env.FileExists(old_table));
  EXPECT_EQ(0, env.OpenCount(old_table));

  // Each live table is open at most once (every pin on a file shares one
  // Table), and closing the DB closes them all.
  ASSERT_TRUE(db->Get(ReadOptions(), Key(5), &value).ok());
  EXPECT_EQ("new", value);
  const std::vector<std::string> live = table_files();
  for (const std::string& name : live) {
    EXPECT_LE(env.OpenCount(name), 1) << name;
  }
  db.reset();
  for (const std::string& name : live) {
    EXPECT_EQ(0, env.OpenCount(name)) << name;
  }
}

}  // namespace acheron
