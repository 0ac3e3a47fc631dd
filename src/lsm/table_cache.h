// TableCache: LRU cache of open Table readers keyed by file number, and
// the single place tables are opened. Version reads reach a table through
// the pin its FileMetaData takes on first use (PinTable); the cache
// deduplicates first touches, so every FileMetaData naming one file (racing
// readers, a trivially moved file) shares one Table. Pinned entries are in
// use and never evicted; the LRU capacity bounds only unpinned tables.
//
// Thread-safe without external locking: every member is either immutable
// after construction or the internally sharded+locked Cache (see
// src/table/cache.cc); callers (reads that dropped DBImpl::mutex_,
// compactions that hold it) may use it concurrently.
#ifndef ACHERON_LSM_TABLE_CACHE_H_
#define ACHERON_LSM_TABLE_CACHE_H_

#include <atomic>
#include <cstdint>
#include <string>

#include "src/lsm/dbformat.h"
#include "src/lsm/options.h"
#include "src/lsm/version_edit.h"
#include "src/table/cache.h"
#include "src/table/table.h"

namespace acheron {

class Env;

class TableCache {
 public:
  // |user_comparator| orders bare user keys and drives range-tombstone
  // fragmentation on open (the Options comparator is the internal-key
  // comparator, which cannot compare user keys); nullptr selects the
  // bytewise comparator.
  TableCache(const std::string& dbname, const Options& options, int entries,
             const Comparator* user_comparator = nullptr);

  TableCache(const TableCache&) = delete;
  TableCache& operator=(const TableCache&) = delete;

  ~TableCache();

  // Return |f|'s open table in *table, pinned in f.table_pin for the life
  // of |f|: the first call opens the file or finds it in the cache, and
  // every later call is one acquire load, with no cache lookup or lock.
  // The table is valid for as long as |f| lives.
  Status PinTable(const FileMetaData& f, Table** table) {
    *table = f.table_pin.table();
    return *table != nullptr ? Status::OK() : PinSlow(f, table);
  }

  // Return an iterator over |f|'s pinned table (an error iterator when the
  // table cannot be opened). The iterator must not outlive |f|.
  Iterator* NewIterator(const ReadOptions& options, const FileMetaData& f);

  // If a seek to internal key "k" in |f|'s pinned table finds an entry,
  // call (*handle_result)(arg, found_key, found_value). |user_key| feeds
  // the Bloom filter. A non-null |filter_negatives| batches bloom-negative
  // accounting into the caller's local counter (flushed once per op via
  // AddFilterNegatives) instead of one shared atomic RMW per miss.
  Status Get(const ReadOptions& options, const FileMetaData& f,
             const Slice& k, const Slice& user_key, void* arg,
             void (*handle_result)(void*, const Slice&, const Slice&),
             uint64_t* filter_negatives);

  // Return an iterator for the specified file number (the corresponding
  // file length must be exactly "file_size" bytes). The iterator holds a
  // cache handle for its lifetime.
  Iterator* NewIterator(const ReadOptions& options, uint64_t file_number,
                        uint64_t file_size);

  // If a seek to internal key "k" in specified file finds an entry, call
  // (*handle_result)(arg, found_key, found_value). |user_key| feeds the
  // Bloom filter.
  Status Get(const ReadOptions& options, uint64_t file_number,
             uint64_t file_size, const Slice& k, const Slice& user_key,
             void* arg,
             void (*handle_result)(void*, const Slice&, const Slice&));

  // Flush a batch of locally-counted bloom negatives into the aggregate
  // (the batched counterpart of the per-miss sink bump).
  void AddFilterNegatives(uint64_t n) {
    if (n > 0) filter_negatives_total_.fetch_add(n, std::memory_order_relaxed);
  }

  // Evict any entry for the specified file number.
  void Evict(uint64_t file_number);

  // Point lookups answered negatively by a Bloom filter alone, totalled
  // across every table this cache has opened (including since-evicted
  // ones). Feeds InternalStats::bloom_useful.
  uint64_t filter_negatives_total() const {
    return filter_negatives_total_.load(std::memory_order_relaxed);
  }

  // Cache lookups made so far (one per FindTable call: a first touch of a
  // FileMetaData, or a number-keyed NewIterator/Get).
  uint64_t lookups() const { return lookups_.load(std::memory_order_relaxed); }

 private:
  Status FindTable(uint64_t file_number, uint64_t file_size, Cache::Handle**);
  Table* TableOf(Cache::Handle* handle);
  Status PinSlow(const FileMetaData& f, Table** table);

  Env* const env_;
  const std::string dbname_;
  const Options& options_;
  const Comparator* const user_comparator_;
  Cache* cache_;
  // Aggregate sink installed on every table right after Table::Open.
  std::atomic<uint64_t> filter_negatives_total_{0};
  std::atomic<uint64_t> lookups_{0};
};

}  // namespace acheron

#endif  // ACHERON_LSM_TABLE_CACHE_H_
