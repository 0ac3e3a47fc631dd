#include "src/lsm/version_edit.h"

#include <memory>
#include <sstream>

#include "src/util/coding.h"
#include "src/util/crc32c.h"

namespace acheron {

Table* TablePin::Publish(Cache* cache, Cache::Handle* handle,
                         Table* table) const {
  auto fresh = std::make_unique<Pinned>(Pinned{cache, handle, table});
  Pinned* expected = nullptr;
  // On failure |expected| receives the racer's published pin.
  if (pinned_.compare_exchange_strong(expected, fresh.get(),
                                      std::memory_order_acq_rel,
                                      std::memory_order_acquire)) {
    return fresh.release()->table;
  }
  cache->Release(handle);
  return expected->table;
}

void TablePin::Reset() {
  std::unique_ptr<Pinned> p(
      pinned_.exchange(nullptr, std::memory_order_acq_rel));
  if (p != nullptr) p->cache->Release(p->handle);
}

// Tag numbers for serialized VersionEdit. These numbers are written to disk
// and should not be changed.
enum Tag {
  kComparator = 1,
  kLogNumber = 2,
  kNextFileNumber = 3,
  kLastSequence = 4,
  kCompactPointer = 5,
  kDeletedFile = 6,
  kNewFile = 7,
  // A full-version snapshot record: the tag is followed by a fixed32 CRC32C
  // of the remaining body, then the body itself (ordinary tag encoding).
  // The inner CRC makes snapshot validity independent of the WAL framing,
  // so a tolerant (checksum-off) MANIFEST scan in RepairDB can still tell a
  // good restart point from a torn one.
  kSnapshot = 8,
  // Persistence-monitor journal fields (see version_edit.h).
  kMonitorWritten = 9,
  kMonitorDelta = 10,
  // Range-delete counterparts of the monitor journal fields.
  kMonitorRangeWritten = 11,
  kMonitorRangeDelta = 12,
  // ---- vLog segment registry (key-value separation) ----
  // Upsert of one segment's full registry state (see vlog::SegmentInfo).
  kVlogSegment = 13,
  // Segment collected by GC: drop it from the registry.
  kVlogRemove = 14,
  // One compaction's garbage/pending-purge charge (see vlog::SegmentDelta).
  kVlogDelta = 15,
  // Value-purge monitor journal: purged count + latency histogram. Delta on
  // ordinary edits, cumulative on snapshot records (mirrors kMonitorDelta).
  kVlogMonitorDelta = 16,
};

void VersionEdit::Clear() {
  comparator_.clear();
  log_number_ = 0;
  next_file_number_ = 0;
  last_sequence_ = 0;
  has_comparator_ = false;
  has_log_number_ = false;
  has_next_file_number_ = false;
  has_last_sequence_ = false;
  is_snapshot_ = false;
  has_monitor_written_ = false;
  monitor_written_ = 0;
  has_monitor_delta_ = false;
  monitor_persisted_ = 0;
  monitor_superseded_ = 0;
  monitor_latency_.Clear();
  has_monitor_range_written_ = false;
  monitor_range_written_ = 0;
  has_monitor_range_delta_ = false;
  monitor_range_persisted_ = 0;
  monitor_range_superseded_ = 0;
  monitor_range_latency_.Clear();
  compact_pointers_.clear();
  deleted_files_.clear();
  new_files_.clear();
  vlog_segments_.clear();
  vlog_removed_segments_.clear();
  vlog_deltas_.clear();
  has_vlog_monitor_delta_ = false;
  vlog_monitor_purged_ = 0;
  vlog_monitor_latency_.Clear();
}

void VersionEdit::EncodeTo(std::string* dst) const {
  if (is_snapshot_) {
    std::string body;
    EncodeBodyTo(&body);
    PutVarint32(dst, kSnapshot);
    PutFixed32(dst, crc32c::Value(body.data(), body.size()));
    dst->append(body);
    return;
  }
  EncodeBodyTo(dst);
}

void VersionEdit::EncodeBodyTo(std::string* dst) const {
  if (has_comparator_) {
    PutVarint32(dst, kComparator);
    PutLengthPrefixedSlice(dst, comparator_);
  }
  if (has_log_number_) {
    PutVarint32(dst, kLogNumber);
    PutVarint64(dst, log_number_);
  }
  if (has_next_file_number_) {
    PutVarint32(dst, kNextFileNumber);
    PutVarint64(dst, next_file_number_);
  }
  if (has_last_sequence_) {
    PutVarint32(dst, kLastSequence);
    PutVarint64(dst, last_sequence_);
  }

  for (const auto& [level, key] : compact_pointers_) {
    PutVarint32(dst, kCompactPointer);
    PutVarint32(dst, level);
    PutLengthPrefixedSlice(dst, key.Encode());
  }

  for (const auto& [level, number] : deleted_files_) {
    PutVarint32(dst, kDeletedFile);
    PutVarint32(dst, level);
    PutVarint64(dst, number);
  }

  for (const auto& [level, f] : new_files_) {
    PutVarint32(dst, kNewFile);
    PutVarint32(dst, level);
    PutVarint64(dst, f.number);
    PutVarint64(dst, f.file_size);
    PutLengthPrefixedSlice(dst, f.smallest.Encode());
    PutLengthPrefixedSlice(dst, f.largest.Encode());
    PutVarint64(dst, f.num_entries);
    PutVarint64(dst, f.num_tombstones);
    PutVarint64(dst, f.earliest_tombstone_seq);
    PutVarint64(dst, f.earliest_tombstone_wall_micros);
    PutLengthPrefixedSlice(dst, f.min_secondary_key);
    PutLengthPrefixedSlice(dst, f.max_secondary_key);
    PutVarint64(dst, f.run_id);
    PutVarint64(dst, f.num_range_tombstones);
    PutVarint64(dst, f.earliest_range_tombstone_seq);
    PutVarint64(dst, f.earliest_range_tombstone_wall_micros);
    PutLengthPrefixedSlice(dst, f.range_del_begin);
    PutLengthPrefixedSlice(dst, f.range_del_end);
    PutVarint64(dst, f.min_vlog_segment);
    PutVarint64(dst, f.max_vlog_segment);
  }

  if (has_monitor_written_) {
    PutVarint32(dst, kMonitorWritten);
    PutVarint64(dst, monitor_written_);
  }
  if (has_monitor_delta_) {
    PutVarint32(dst, kMonitorDelta);
    PutVarint64(dst, monitor_persisted_);
    PutVarint64(dst, monitor_superseded_);
    std::string hist;
    monitor_latency_.EncodeTo(&hist);
    PutLengthPrefixedSlice(dst, hist);
  }
  if (has_monitor_range_written_) {
    PutVarint32(dst, kMonitorRangeWritten);
    PutVarint64(dst, monitor_range_written_);
  }
  if (has_monitor_range_delta_) {
    PutVarint32(dst, kMonitorRangeDelta);
    PutVarint64(dst, monitor_range_persisted_);
    PutVarint64(dst, monitor_range_superseded_);
    std::string hist;
    monitor_range_latency_.EncodeTo(&hist);
    PutLengthPrefixedSlice(dst, hist);
  }
  for (const vlog::SegmentInfo& info : vlog_segments_) {
    PutVarint32(dst, kVlogSegment);
    std::string enc;
    vlog::EncodeSegmentInfo(&enc, info);
    PutLengthPrefixedSlice(dst, enc);
  }
  for (uint64_t seg : vlog_removed_segments_) {
    PutVarint32(dst, kVlogRemove);
    PutVarint64(dst, seg);
  }
  for (const vlog::SegmentDelta& delta : vlog_deltas_) {
    PutVarint32(dst, kVlogDelta);
    std::string enc;
    vlog::EncodeSegmentDelta(&enc, delta);
    PutLengthPrefixedSlice(dst, enc);
  }
  if (has_vlog_monitor_delta_) {
    PutVarint32(dst, kVlogMonitorDelta);
    PutVarint64(dst, vlog_monitor_purged_);
    std::string hist;
    vlog_monitor_latency_.EncodeTo(&hist);
    PutLengthPrefixedSlice(dst, hist);
  }
}

static bool GetInternalKey(Slice* input, InternalKey* dst) {
  Slice str;
  if (GetLengthPrefixedSlice(input, &str)) {
    return dst->DecodeFrom(str);
  }
  return false;
}

static bool GetLevel(Slice* input, int* level) {
  uint32_t v;
  if (GetVarint32(input, &v) && v < static_cast<uint32_t>(kNumLevels)) {
    *level = v;
    return true;
  }
  return false;
}

Status VersionEdit::DecodeFrom(const Slice& src) {
  Clear();
  Slice input = src;
  const char* msg = nullptr;
  uint32_t tag;

  // Snapshot envelope: tag, inner CRC over the rest, then an ordinary tag
  // stream. A failed inner CRC still reports IsSnapshot()==true so recovery
  // can skip the record and keep the previously accumulated state.
  {
    Slice peek = input;
    uint32_t first_tag;
    if (GetVarint32(&peek, &first_tag) && first_tag == kSnapshot) {
      is_snapshot_ = true;
      input = peek;
      uint32_t expected_crc;
      if (!GetFixed32(&input, &expected_crc)) {
        return Status::Corruption("VersionEdit", "snapshot record too short");
      }
      if (crc32c::Value(input.data(), input.size()) != expected_crc) {
        return Status::Corruption("VersionEdit",
                                  "snapshot record checksum mismatch");
      }
    }
  }

  // Temporary storage for parsing
  int level;
  uint64_t number;
  FileMetaData f;
  Slice str;
  InternalKey key;

  while (msg == nullptr && GetVarint32(&input, &tag)) {
    switch (tag) {
      case kComparator:
        if (GetLengthPrefixedSlice(&input, &str)) {
          comparator_ = str.ToString();
          has_comparator_ = true;
        } else {
          msg = "comparator name";
        }
        break;

      case kLogNumber:
        if (GetVarint64(&input, &log_number_)) {
          has_log_number_ = true;
        } else {
          msg = "log number";
        }
        break;

      case kNextFileNumber:
        if (GetVarint64(&input, &next_file_number_)) {
          has_next_file_number_ = true;
        } else {
          msg = "next file number";
        }
        break;

      case kLastSequence:
        if (GetVarint64(&input, &last_sequence_)) {
          has_last_sequence_ = true;
        } else {
          msg = "last sequence number";
        }
        break;

      case kCompactPointer:
        if (GetLevel(&input, &level) && GetInternalKey(&input, &key)) {
          compact_pointers_.push_back(std::make_pair(level, key));
        } else {
          msg = "compaction pointer";
        }
        break;

      case kDeletedFile:
        if (GetLevel(&input, &level) && GetVarint64(&input, &number)) {
          deleted_files_.insert(std::make_pair(level, number));
        } else {
          msg = "deleted file";
        }
        break;

      case kNewFile: {
        Slice min_sec, max_sec, rd_begin, rd_end;
        if (GetLevel(&input, &level) && GetVarint64(&input, &f.number) &&
            GetVarint64(&input, &f.file_size) &&
            GetInternalKey(&input, &f.smallest) &&
            GetInternalKey(&input, &f.largest) &&
            GetVarint64(&input, &f.num_entries) &&
            GetVarint64(&input, &f.num_tombstones) &&
            GetVarint64(&input, &f.earliest_tombstone_seq) &&
            GetVarint64(&input, &f.earliest_tombstone_wall_micros) &&
            GetLengthPrefixedSlice(&input, &min_sec) &&
            GetLengthPrefixedSlice(&input, &max_sec) &&
            GetVarint64(&input, &f.run_id) &&
            GetVarint64(&input, &f.num_range_tombstones) &&
            GetVarint64(&input, &f.earliest_range_tombstone_seq) &&
            GetVarint64(&input, &f.earliest_range_tombstone_wall_micros) &&
            GetLengthPrefixedSlice(&input, &rd_begin) &&
            GetLengthPrefixedSlice(&input, &rd_end) &&
            GetVarint64(&input, &f.min_vlog_segment) &&
            GetVarint64(&input, &f.max_vlog_segment)) {
          f.min_secondary_key = min_sec.ToString();
          f.max_secondary_key = max_sec.ToString();
          f.range_del_begin = rd_begin.ToString();
          f.range_del_end = rd_end.ToString();
          new_files_.push_back(std::make_pair(level, f));
        } else {
          msg = "new-file entry";
        }
        break;
      }

      case kMonitorWritten:
        if (GetVarint64(&input, &monitor_written_)) {
          has_monitor_written_ = true;
        } else {
          msg = "monitor written count";
        }
        break;

      case kMonitorDelta: {
        Slice hist;
        if (GetVarint64(&input, &monitor_persisted_) &&
            GetVarint64(&input, &monitor_superseded_) &&
            GetLengthPrefixedSlice(&input, &hist) &&
            monitor_latency_.DecodeFrom(&hist) && hist.empty()) {
          has_monitor_delta_ = true;
        } else {
          msg = "monitor delta";
        }
        break;
      }

      case kMonitorRangeWritten:
        if (GetVarint64(&input, &monitor_range_written_)) {
          has_monitor_range_written_ = true;
        } else {
          msg = "monitor range written count";
        }
        break;

      case kMonitorRangeDelta: {
        Slice hist;
        if (GetVarint64(&input, &monitor_range_persisted_) &&
            GetVarint64(&input, &monitor_range_superseded_) &&
            GetLengthPrefixedSlice(&input, &hist) &&
            monitor_range_latency_.DecodeFrom(&hist) && hist.empty()) {
          has_monitor_range_delta_ = true;
        } else {
          msg = "monitor range delta";
        }
        break;
      }

      case kVlogSegment: {
        Slice enc;
        vlog::SegmentInfo info;
        if (GetLengthPrefixedSlice(&input, &enc) &&
            vlog::DecodeSegmentInfo(&enc, &info) && enc.empty()) {
          vlog_segments_.push_back(std::move(info));
        } else {
          msg = "vlog segment";
        }
        break;
      }

      case kVlogRemove:
        if (GetVarint64(&input, &number)) {
          vlog_removed_segments_.push_back(number);
        } else {
          msg = "vlog remove";
        }
        break;

      case kVlogDelta: {
        Slice enc;
        vlog::SegmentDelta delta;
        if (GetLengthPrefixedSlice(&input, &enc) &&
            vlog::DecodeSegmentDelta(&enc, &delta) && enc.empty()) {
          vlog_deltas_.push_back(delta);
        } else {
          msg = "vlog delta";
        }
        break;
      }

      case kVlogMonitorDelta: {
        Slice hist;
        if (GetVarint64(&input, &vlog_monitor_purged_) &&
            GetLengthPrefixedSlice(&input, &hist) &&
            vlog_monitor_latency_.DecodeFrom(&hist) && hist.empty()) {
          has_vlog_monitor_delta_ = true;
        } else {
          msg = "vlog monitor delta";
        }
        break;
      }

      default:
        msg = "unknown tag";
        break;
    }
  }

  if (msg == nullptr && !input.empty()) {
    msg = "invalid tag";
  }

  Status result;
  if (msg != nullptr) {
    result = Status::Corruption("VersionEdit", msg);
  }
  return result;
}

std::string VersionEdit::DebugString() const {
  std::ostringstream ss;
  ss << "VersionEdit {";
  if (is_snapshot_) ss << "\n  Snapshot";
  if (has_comparator_) ss << "\n  Comparator: " << comparator_;
  if (has_monitor_written_) ss << "\n  MonitorWritten: " << monitor_written_;
  if (has_monitor_delta_) {
    ss << "\n  MonitorDelta: persisted=" << monitor_persisted_
       << " superseded=" << monitor_superseded_;
  }
  if (has_monitor_range_written_) {
    ss << "\n  MonitorRangeWritten: " << monitor_range_written_;
  }
  if (has_monitor_range_delta_) {
    ss << "\n  MonitorRangeDelta: persisted=" << monitor_range_persisted_
       << " superseded=" << monitor_range_superseded_;
  }
  if (has_log_number_) ss << "\n  LogNumber: " << log_number_;
  if (has_next_file_number_) ss << "\n  NextFile: " << next_file_number_;
  if (has_last_sequence_) ss << "\n  LastSeq: " << last_sequence_;
  for (const auto& [level, key] : compact_pointers_) {
    ss << "\n  CompactPointer: " << level << " " << key.DebugString();
  }
  for (const auto& [level, number] : deleted_files_) {
    ss << "\n  RemoveFile: " << level << " " << number;
  }
  for (const auto& [level, f] : new_files_) {
    ss << "\n  AddFile: " << level << " " << f.number << " " << f.file_size
       << " " << f.smallest.DebugString() << " .. " << f.largest.DebugString()
       << " tombstones=" << f.num_tombstones
       << " range_tombstones=" << f.num_range_tombstones;
    if (f.has_vlog_pointers()) {
      ss << " vlog=[" << f.min_vlog_segment << "," << f.max_vlog_segment
         << "]";
    }
  }
  for (const vlog::SegmentInfo& info : vlog_segments_) {
    ss << "\n  VlogSegment: " << info.number
       << (info.sealed ? " sealed" : " head") << " bytes=" << info.total_bytes
       << " garbage=" << info.garbage_bytes
       << " pending=" << info.pending_count();
  }
  for (uint64_t seg : vlog_removed_segments_) {
    ss << "\n  VlogRemove: " << seg;
  }
  for (const vlog::SegmentDelta& d : vlog_deltas_) {
    ss << "\n  VlogDelta: segment=" << d.number << " garbage=" << d.garbage_bytes
       << " purges=" << d.purge_count;
  }
  if (has_vlog_monitor_delta_) {
    ss << "\n  VlogMonitorDelta: purged=" << vlog_monitor_purged_;
  }
  ss << "\n}\n";
  return ss.str();
}

}  // namespace acheron
