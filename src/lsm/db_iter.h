// DBIter: wraps an internal-key merging iterator and exposes user keys,
// suppressing tombstoned and superseded versions as of a read sequence.
#ifndef ACHERON_LSM_DB_ITER_H_
#define ACHERON_LSM_DB_ITER_H_

#include <atomic>
#include <cstdint>
#include <memory>

#include "src/core/range_tombstone.h"
#include "src/lsm/dbformat.h"
#include "src/table/iterator.h"
#include "src/vlog/vlog_reader.h"

namespace acheron {

// Return a new iterator that converts internal keys (yielded by
// "*internal_iter") that were live at the specified "sequence" number into
// appropriate user keys. Takes ownership of internal_iter.
// |tombstone_skips| may be null; when set, tombstones skipped during
// iteration are counted into it. It must be an atomic: iterators run outside
// the DB mutex, concurrently with writers and with each other.
// Range tombstones come in two lists, either of which may be null:
// |table_range_dels| is the fragmented union of the pinned version's table
// tombstones, shared with other iterators and not owned (it must outlive
// the iterator; the version pin held by |internal_iter| guarantees that),
// and |mem_range_dels| holds the pinned memtables' tombstones and is owned.
// An entry whose sequence is below a covering fragment at or below
// |sequence| in either list is suppressed exactly like a point deletion
// (and counted as a tombstone skip).
// |vlog_readers| (may be null when key-value separation is off) dereferences
// kTypeValuePointer entries: the iterator resolves the pointer when it
// accepts the entry, so value() always yields the user value. A failed
// dereference invalidates the iterator with the error in status().
// |vlog_reads| (nullable) counts resolved pointers, same contract as
// |tombstone_skips|.
Iterator* NewDBIterator(const Comparator* user_key_comparator,
                        Iterator* internal_iter, SequenceNumber sequence,
                        std::atomic<uint64_t>* tombstone_skips,
                        const FragmentedRangeTombstoneList* table_range_dels,
                        std::unique_ptr<FragmentedRangeTombstoneList>
                            mem_range_dels,
                        vlog::ReaderCache* vlog_readers = nullptr,
                        std::atomic<uint64_t>* vlog_reads = nullptr);

}  // namespace acheron

#endif  // ACHERON_LSM_DB_ITER_H_
