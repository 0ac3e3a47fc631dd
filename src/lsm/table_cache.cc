#include "src/lsm/table_cache.h"

#include "src/env/env.h"
#include "src/lsm/filename.h"
#include "src/util/coding.h"

namespace acheron {

struct TableAndFile {
  RandomAccessFile* file;
  Table* table;
};

static void DeleteEntry(const Slice&, void* value) {
  TableAndFile* tf = reinterpret_cast<TableAndFile*>(value);
  delete tf->table;
  delete tf->file;
  delete tf;
}

static void UnrefEntry(void* arg1, void* arg2) {
  Cache* cache = reinterpret_cast<Cache*>(arg1);
  Cache::Handle* h = reinterpret_cast<Cache::Handle*>(arg2);
  cache->Release(h);
}

TableCache::TableCache(const std::string& dbname, const Options& options,
                       int entries, const Comparator* user_comparator)
    : env_(options.env),
      dbname_(dbname),
      options_(options),
      user_comparator_(user_comparator != nullptr ? user_comparator
                                                  : BytewiseComparator()),
      cache_(NewLRUCache(entries)) {}

TableCache::~TableCache() { delete cache_; }

Status TableCache::FindTable(uint64_t file_number, uint64_t file_size,
                             Cache::Handle** handle) {
  lookups_.fetch_add(1, std::memory_order_relaxed);
  Status s;
  char buf[sizeof(file_number)];
  EncodeFixed64(buf, file_number);
  Slice key(buf, sizeof(buf));
  *handle = cache_->Lookup(key);
  if (*handle == nullptr) {
    std::string fname = TableFileName(dbname_, file_number);
    std::unique_ptr<RandomAccessFile> file;
    Table* table = nullptr;
    s = env_->NewRandomAccessFile(fname, &file);  // io: unlocked
    if (s.ok()) {
      s = Table::Open(options_, file.get(), file_size, &table);
    }

    if (!s.ok()) {
      assert(table == nullptr);
      // We do not cache error results so that if the error is transient,
      // or somebody repairs the file, we recover automatically.
    } else {
      table->SetFilterNegativesSink(&filter_negatives_total_);
      // Fragment range tombstones once, before the table is shared.
      table->BuildRangeFragments(user_comparator_);
      TableAndFile* tf = new TableAndFile;
      tf->file = file.release();
      tf->table = table;
      *handle = cache_->Insert(key, tf, 1, &DeleteEntry);
    }
  }
  return s;
}

Table* TableCache::TableOf(Cache::Handle* handle) {
  return reinterpret_cast<TableAndFile*>(cache_->Value(handle))->table;
}

Status TableCache::PinSlow(const FileMetaData& f, Table** table) {
  Cache::Handle* handle = nullptr;
  Status s = FindTable(f.number, f.file_size, &handle);
  if (s.ok()) {
    *table = f.table_pin.Publish(cache_, handle, TableOf(handle));
  }
  return s;
}

Iterator* TableCache::NewIterator(const ReadOptions& options,
                                  const FileMetaData& f) {
  Table* table = nullptr;
  Status s = PinTable(f, &table);
  if (!s.ok()) {
    return NewErrorIterator(s);
  }
  return table->NewIterator(options);
}

Status TableCache::Get(const ReadOptions& options, const FileMetaData& f,
                       const Slice& k, const Slice& user_key, void* arg,
                       void (*handle_result)(void*, const Slice&,
                                             const Slice&),
                       uint64_t* filter_negatives) {
  Table* table = nullptr;
  Status s = PinTable(f, &table);
  if (s.ok()) {
    s = table->InternalGet(options, k, user_key, arg, handle_result,
                           filter_negatives);
  }
  return s;
}

Iterator* TableCache::NewIterator(const ReadOptions& options,
                                  uint64_t file_number, uint64_t file_size) {
  Cache::Handle* handle = nullptr;
  Status s = FindTable(file_number, file_size, &handle);
  if (!s.ok()) {
    return NewErrorIterator(s);
  }
  Iterator* result = TableOf(handle)->NewIterator(options);
  result->RegisterCleanup(&UnrefEntry, cache_, handle);
  return result;
}

Status TableCache::Get(const ReadOptions& options, uint64_t file_number,
                       uint64_t file_size, const Slice& k,
                       const Slice& user_key, void* arg,
                       void (*handle_result)(void*, const Slice&,
                                             const Slice&)) {
  Cache::Handle* handle = nullptr;
  Status s = FindTable(file_number, file_size, &handle);
  if (s.ok()) {
    s = TableOf(handle)->InternalGet(options, k, user_key, arg, handle_result);
    cache_->Release(handle);
  }
  return s;
}

void TableCache::Evict(uint64_t file_number) {
  char buf[sizeof(file_number)];
  EncodeFixed64(buf, file_number);
  cache_->Erase(Slice(buf, sizeof(buf)));
}

}  // namespace acheron
