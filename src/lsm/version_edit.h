// VersionEdit: a delta between two versions of the LSM file set, logged to
// the MANIFEST. FileMetaData carries Acheron's per-file tombstone metadata
// so delete-persistence state survives restarts.
#ifndef ACHERON_LSM_VERSION_EDIT_H_
#define ACHERON_LSM_VERSION_EDIT_H_

#include <atomic>
#include <set>
#include <utility>
#include <vector>

#include "src/lsm/dbformat.h"
#include "src/table/cache.h"
#include "src/util/histogram.h"
#include "src/util/status.h"
#include "src/vlog/vlog_registry.h"

namespace acheron {

class Table;
class VersionSet;

// Maximum number of levels the tree may physically use.
static const int kNumLevels = 12;

// A file's open Table, pinned by a table-cache handle from the first read
// of the file until the FileMetaData holding the pin dies (the last version
// referencing it). Reads then reach the table with one acquire load and no
// cache lock. Copies start empty and assignment drops the pin: a copy (a
// VersionEdit entry, a Builder temporary) names the file, not the handle.
class TablePin {
 public:
  TablePin() = default;
  TablePin(const TablePin&) {}
  TablePin& operator=(const TablePin&) {
    Reset();
    return *this;
  }
  ~TablePin() { Reset(); }

  // The pinned table, or nullptr before the first Publish.
  Table* table() const {
    const Pinned* p = pinned_.load(std::memory_order_acquire);
    return p == nullptr ? nullptr : p->table;
  }

  // Pin |table|, held by |handle| from |cache|, unless a racing reader
  // pinned first; in that case |handle| is released. Returns the pinned
  // table.
  Table* Publish(Cache* cache, Cache::Handle* handle, Table* table) const;

 private:
  struct Pinned {
    Cache* cache;
    Cache::Handle* handle;
    Table* table;
  };

  void Reset();

  mutable std::atomic<Pinned*> pinned_{nullptr};
};

struct FileMetaData {
  FileMetaData() = default;

  int refs = 0;
  uint64_t number = 0;
  uint64_t file_size = 0;    // File size in bytes
  InternalKey smallest;      // Smallest internal key served by table
  InternalKey largest;       // Largest internal key served by table
  uint64_t num_entries = 0;  // Total entries in the table

  // ---- Acheron delete-persistence metadata ----
  // Point tombstones contained in the file.
  uint64_t num_tombstones = 0;
  // Sequence number (== logical timestamp) of the oldest tombstone;
  // kMaxSequenceNumber when the file has none.
  SequenceNumber earliest_tombstone_seq = kMaxSequenceNumber;
  // Wall-clock microseconds when the oldest tombstone was created.
  uint64_t earliest_tombstone_wall_micros = UINT64_MAX;
  // Secondary delete-key range covered by the file (empty when unused).
  std::string min_secondary_key;
  std::string max_secondary_key;

  // For tiering: id of the sorted run within its level this file belongs
  // to. Files of the same run are non-overlapping; distinct runs overlap.
  // Runs are ordered by recency: higher run_id == newer data.
  uint64_t run_id = 0;

  // ---- Range tombstones (kTypeRangeDeletion) ----
  // Count of range tombstones in the file's dedicated block.
  uint64_t num_range_tombstones = 0;
  // Oldest range tombstone's sequence number / wall clock; defaults mirror
  // the point-tombstone fields above.
  SequenceNumber earliest_range_tombstone_seq = kMaxSequenceNumber;
  uint64_t earliest_range_tombstone_wall_micros = UINT64_MAX;
  // User-key span covered by the union of the file's range tombstones
  // (empty when none): a cheap containment test before opening the table.
  std::string range_del_begin;
  std::string range_del_end;

  // ---- Key-value separation (vLog pointers) ----
  // Range of vLog segment numbers referenced by kTypeValuePointer entries
  // in this file; 0 when the file holds no pointers. The range is the
  // liveness anchor for segment files (RemoveObsoleteFiles) and the
  // file-selection filter for vLog GC rewrites.
  uint64_t min_vlog_segment = 0;
  uint64_t max_vlog_segment = 0;

  // Not file metadata: the open table, filled by TableCache::PinTable.
  TablePin table_pin;

  bool has_vlog_pointers() const { return max_vlog_segment != 0; }

  bool has_tombstones() const { return num_tombstones > 0; }
  bool has_range_tombstones() const { return num_range_tombstones > 0; }
  double tombstone_density() const {
    return num_entries == 0
               ? 0.0
               : static_cast<double>(num_tombstones) / num_entries;
  }
};

class VersionEdit {
 public:
  VersionEdit() { Clear(); }
  ~VersionEdit() = default;

  void Clear();

  void SetComparatorName(const Slice& name) {
    has_comparator_ = true;
    comparator_ = name.ToString();
  }
  void SetLogNumber(uint64_t num) {
    has_log_number_ = true;
    log_number_ = num;
  }
  void SetNextFile(uint64_t num) {
    has_next_file_number_ = true;
    next_file_number_ = num;
  }
  void SetLastSequence(SequenceNumber seq) {
    has_last_sequence_ = true;
    last_sequence_ = seq;
  }
  void SetCompactPointer(int level, const InternalKey& key) {
    compact_pointers_.push_back(std::make_pair(level, key));
  }

  // Add the specified file at the specified level.
  // REQUIRES: This version has not been saved (see VersionSet::SaveTo)
  void AddFile(int level, const FileMetaData& f) {
    new_files_.push_back(std::make_pair(level, f));
  }

  // Delete the specified "file" from the specified "level".
  void RemoveFile(int level, uint64_t file) {
    deleted_files_.insert(std::make_pair(level, file));
  }

  typedef std::set<std::pair<int, uint64_t>> DeletedFileSet;

  // Read-only views, used by DBImpl to order obsolete-file unlinks by the
  // level each dead table formerly occupied.
  const DeletedFileSet& deleted_files() const { return deleted_files_; }
  const std::vector<std::pair<int, FileMetaData>>& new_files() const {
    return new_files_;
  }

  // Read-only accessors used by RepairDB's bounded manifest replay.
  bool has_log_number() const { return has_log_number_; }
  uint64_t log_number() const { return log_number_; }
  bool has_next_file_number() const { return has_next_file_number_; }
  uint64_t next_file_number() const { return next_file_number_; }
  bool has_last_sequence() const { return has_last_sequence_; }
  SequenceNumber last_sequence() const { return last_sequence_; }

  // Mark this edit as a full-version *snapshot record*. Snapshot records are
  // self-describing restart points in the MANIFEST: they carry the complete
  // file set plus log/next-file/last-sequence and the cumulative
  // persistence-monitor journal state, and are encoded with an inner CRC32C
  // over the whole body. Recovery resets its replay state whenever it reads a
  // valid snapshot record, so only the suffix after the last valid snapshot
  // is actually applied.
  void SetSnapshot() { is_snapshot_ = true; }
  // True after DecodeFrom even when the record failed its inner CRC, so
  // recovery can distinguish "torn snapshot -- keep prior state" from a
  // corrupt ordinary edit (which is fatal).
  bool IsSnapshot() const { return is_snapshot_; }

  // ---- Persistence-monitor journal (piggybacked on the edit stream) ----
  // Cumulative count of tombstones ever written, captured at memtable swap
  // for flush edits (covers exactly the WALs older than this edit's
  // log_number; deletes in newer WALs are recounted during WAL replay).
  void SetMonitorWritten(uint64_t written) {
    has_monitor_written_ = true;
    monitor_written_ = written;
  }
  bool has_monitor_written() const { return has_monitor_written_; }
  uint64_t monitor_written() const { return monitor_written_; }

  // Per-compaction monitor delta: tombstones persisted (reached the bottom
  // level) and superseded, plus the persistence-latency samples of this
  // compaction. Snapshot records reuse the same field with delta-from-zero
  // (i.e. cumulative) semantics.
  void SetMonitorDelta(uint64_t persisted, uint64_t superseded,
                       const Histogram& latency) {
    has_monitor_delta_ = true;
    monitor_persisted_ = persisted;
    monitor_superseded_ = superseded;
    monitor_latency_ = latency;
  }
  bool has_monitor_delta() const { return has_monitor_delta_; }
  uint64_t monitor_persisted() const { return monitor_persisted_; }
  uint64_t monitor_superseded() const { return monitor_superseded_; }
  const Histogram& monitor_latency() const { return monitor_latency_; }

  // Range-delete counterparts of the two fields above, journaled with their
  // own tags so point and range histograms recover independently.
  void SetMonitorRangeWritten(uint64_t written) {
    has_monitor_range_written_ = true;
    monitor_range_written_ = written;
  }
  bool has_monitor_range_written() const { return has_monitor_range_written_; }
  uint64_t monitor_range_written() const { return monitor_range_written_; }

  void SetMonitorRangeDelta(uint64_t persisted, uint64_t superseded,
                            const Histogram& latency) {
    has_monitor_range_delta_ = true;
    monitor_range_persisted_ = persisted;
    monitor_range_superseded_ = superseded;
    monitor_range_latency_ = latency;
  }
  bool has_monitor_range_delta() const { return has_monitor_range_delta_; }
  uint64_t monitor_range_persisted() const { return monitor_range_persisted_; }
  uint64_t monitor_range_superseded() const {
    return monitor_range_superseded_;
  }
  const Histogram& monitor_range_latency() const {
    return monitor_range_latency_;
  }

  // ---- vLog segment registry journal (key-value separation) ----
  // Upsert the full per-segment state (rotation/seal edits journal the new
  // head or the finalized totals; snapshot records carry every segment).
  void AddVlogSegment(const vlog::SegmentInfo& info) {
    vlog_segments_.push_back(info);
  }
  // Remove a segment from the registry (GC collected it).
  void RemoveVlogSegment(uint64_t number) {
    vlog_removed_segments_.push_back(number);
  }
  // One compaction's garbage/pending-purge charge against a segment.
  void AddVlogDelta(const vlog::SegmentDelta& delta) {
    vlog_deltas_.push_back(delta);
  }
  const std::vector<vlog::SegmentInfo>& vlog_segments() const {
    return vlog_segments_;
  }
  const std::vector<uint64_t>& vlog_removed_segments() const {
    return vlog_removed_segments_;
  }
  const std::vector<vlog::SegmentDelta>& vlog_deltas() const {
    return vlog_deltas_;
  }

  // Value-purge monitor journal: count of deleted keys whose vLog value
  // bytes were collected, plus the key-purge -> value-purge latency samples.
  // Delta semantics on ordinary edits, cumulative on snapshot records
  // (mirrors SetMonitorDelta).
  void SetVlogMonitorDelta(uint64_t purged, const Histogram& latency) {
    has_vlog_monitor_delta_ = true;
    vlog_monitor_purged_ = purged;
    vlog_monitor_latency_ = latency;
  }
  bool has_vlog_monitor_delta() const { return has_vlog_monitor_delta_; }
  uint64_t vlog_monitor_purged() const { return vlog_monitor_purged_; }
  const Histogram& vlog_monitor_latency() const {
    return vlog_monitor_latency_;
  }

  void EncodeTo(std::string* dst) const;
  Status DecodeFrom(const Slice& src);

  std::string DebugString() const;

 private:
  friend class VersionSet;

  // Tag-stream encoding without the snapshot CRC envelope.
  void EncodeBodyTo(std::string* dst) const;

  std::string comparator_;
  uint64_t log_number_;
  uint64_t next_file_number_;
  SequenceNumber last_sequence_;
  bool has_comparator_;
  bool has_log_number_;
  bool has_next_file_number_;
  bool has_last_sequence_;

  bool is_snapshot_;
  bool has_monitor_written_;
  uint64_t monitor_written_;
  bool has_monitor_delta_;
  uint64_t monitor_persisted_;
  uint64_t monitor_superseded_;
  Histogram monitor_latency_;
  bool has_monitor_range_written_;
  uint64_t monitor_range_written_;
  bool has_monitor_range_delta_;
  uint64_t monitor_range_persisted_;
  uint64_t monitor_range_superseded_;
  Histogram monitor_range_latency_;

  std::vector<std::pair<int, InternalKey>> compact_pointers_;
  DeletedFileSet deleted_files_;
  std::vector<std::pair<int, FileMetaData>> new_files_;

  std::vector<vlog::SegmentInfo> vlog_segments_;
  std::vector<uint64_t> vlog_removed_segments_;
  std::vector<vlog::SegmentDelta> vlog_deltas_;
  bool has_vlog_monitor_delta_;
  uint64_t vlog_monitor_purged_;
  Histogram vlog_monitor_latency_;
};

}  // namespace acheron

#endif  // ACHERON_LSM_VERSION_EDIT_H_
