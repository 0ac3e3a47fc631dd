// RepairDB: best-effort recovery of a database whose MANIFEST/CURRENT is
// lost or corrupted. Repair runs in two tiers:
//
// Bounded repair (tried first): replay the newest MANIFEST whose record
// stream yields a consistent picture -- seek to the last valid snapshot
// record (each carries an inner CRC32C over its body, so validity is
// independent of WAL framing and survives the tolerant checksum-off read),
// apply the edit suffix, stop at the first torn record, and verify every
// referenced table actually exists at (at least) its recorded size. On
// success a fresh descriptor is written that preserves the level structure
// and the persistence-monitor journal, and the original log number, so the
// subsequent DB::Open replays the surviving WALs itself.
//
// Full salvage (fallback): the classic leveldb-style repair. The repairer
//   (1) replays any WAL files into fresh L0 tables,
//   (2) inspects every table file, re-deriving its key range and tombstone
//       metadata from the file itself (the properties block, falling back
//       to a full scan),
//   (3) salvages orphaned vLog segments: every .vlog file is CRC-scanned
//       and re-registered, sealed at its valid prefix, so surviving value
//       pointers dereference again (pointers into lost bytes fail cleanly
//       at read time -- the record CRC and keyed back-check reject them),
//   (4) writes a new MANIFEST placing every surviving table in level 0
//       (conservatively correct: L0 runs may overlap; subsequent
//       compactions restructure the tree), and
//   (5) leaves undecodable files in place but outside the new version.
//
// Sequence numbers embedded in the tables are preserved, so snapshots of
// logical time -- and with them Acheron's delete-persistence clock --
// survive the repair.
#include <algorithm>
#include <map>
#include <string>
#include <vector>

#include "src/env/env.h"
#include "src/lsm/db.h"
#include "src/lsm/dbformat.h"
#include "src/lsm/filename.h"
#include "src/lsm/table_output.h"
#include "src/lsm/version_edit.h"
#include "src/lsm/write_batch_internal.h"
#include "src/memtable/memtable.h"
#include "src/table/table.h"
#include "src/vlog/vlog_format.h"
#include "src/vlog/vlog_reader.h"
#include "src/wal/log_reader.h"
#include "src/wal/log_writer.h"

namespace acheron {
namespace {

class Repairer {
 public:
  Repairer(const std::string& dbname, const Options& options)
      : dbname_(dbname),
        env_(options.env ? options.env : DefaultEnv()),
        icmp_(options.comparator ? options.comparator
                                 : BytewiseComparator()),
        options_(options),
        next_file_number_(1) {
    options_.comparator = &icmp_;
    options_.env = env_;
    options_.block_cache = nullptr;  // tables opened once, uncached
  }

  Status Run() {
    Status status = FindFiles();
    if (status.ok()) {
      // Tier 1: bounded repair from the newest consistent MANIFEST. Falls
      // through to the full salvage on any inconsistency -- a missing or
      // undersized table, a corrupt head record, no manifest at all.
      if (BoundedRepair().ok()) {
        return Status::OK();
      }
      ConvertLogFilesToTables();
      ExtractMetaData();
      SalvageVlogSegments();
      status = WriteDescriptor();
    }
    return status;
  }

 private:
  struct TableInfo {
    FileMetaData meta;
    SequenceNumber max_sequence;
  };

  // Accumulated state of one MANIFEST's tolerant replay: the file set per
  // level plus the persistence-monitor journal, exactly as
  // VersionSet::Recover would have built them.
  struct ReplayedVersion {
    std::map<int, std::map<uint64_t, FileMetaData>> levels;
    uint64_t log_number = 0;
    uint64_t next_file = 0;
    SequenceNumber last_sequence = 0;
    bool have_log = false;
    bool have_next = false;
    bool have_last = false;
    uint64_t journal_written = 0;
    uint64_t journal_persisted = 0;
    uint64_t journal_superseded = 0;
    Histogram journal_latency;
    uint64_t journal_range_written = 0;
    uint64_t journal_range_persisted = 0;
    uint64_t journal_range_superseded = 0;
    Histogram journal_range_latency;
    vlog::Registry vlog_registry;
    uint64_t journal_vlog_purged = 0;
    Histogram journal_vlog_latency;
  };

  Status BoundedRepair() {
    if (manifests_.empty()) {
      return Status::NotFound(dbname_, "no MANIFEST to replay");
    }
    // Newest incarnation first: a higher-numbered manifest supersedes the
    // ones before it, so fall back down the list only when replay or table
    // verification fails.
    std::vector<std::pair<uint64_t, std::string>> ordered;
    uint64_t number;
    FileType type;
    for (const std::string& m : manifests_) {
      if (ParseFileName(m, &number, &type)) {
        ordered.emplace_back(number, m);
      }
    }
    if (ordered.empty()) {
      return Status::NotFound(dbname_, "no parsable MANIFEST name");
    }
    std::sort(ordered.begin(), ordered.end(),
              [](const std::pair<uint64_t, std::string>& a,
                 const std::pair<uint64_t, std::string>& b) {
                return a.first > b.first;
              });
    // Floor for the repaired manifest's own number: above every existing
    // manifest (never truncate one we might still fall back to) and above
    // every salvageable log/table number.
    const uint64_t min_new_number =
        std::max(ordered.front().first + 1, next_file_number_);

    Status status = Status::Corruption(dbname_, "no consistent MANIFEST");
    for (const auto& entry : ordered) {
      ReplayedVersion v;
      status = ReplayManifest(entry.second, &v);
      if (status.ok()) status = VerifyTables(v);
      if (status.ok()) status = VerifyVlogSegments(&v);
      if (status.ok()) return WriteBoundedDescriptor(min_new_number, v);
    }
    return status;
  }

  Status ReplayManifest(const std::string& fname, ReplayedVersion* v) {
    struct SilentReporter : public wal::Reader::Reporter {
      void Corruption(size_t, const Status&) override {}
    };
    std::unique_ptr<SequentialFile> file;
    Status status =
        env_->NewSequentialFile(dbname_ + "/" + fname, &file);  // io: repair
    if (!status.ok()) return status;
    SilentReporter reporter;
    // Framing checksums off: after a torn append the tail record's WAL CRC
    // is garbage but the prefix still parses. Restart points are still
    // never trusted blindly -- snapshot records carry their own inner
    // CRC32C, which DecodeFrom verifies.
    wal::Reader reader(file.get(), &reporter, false /*checksum*/);

    std::string scratch;
    Slice record;
    int records = 0;
    while (reader.ReadRecord(&record, &scratch)) {
      VersionEdit edit;
      Status s = edit.DecodeFrom(record);
      if (!s.ok()) {
        // An undecodable head record leaves nothing to build on. A torn
        // record later on (snapshot or ordinary edit) just ends the useful
        // prefix: everything before it is a consistent version.
        if (records == 0) return s;
        break;
      }
      records++;
      if (edit.IsSnapshot()) {
        // Self-describing restart point: discard the replay so far. The
        // snapshot's own content re-populates it below (its monitor fields
        // carry cumulative state, i.e. deltas from zero).
        v->levels.clear();
        v->journal_written = 0;
        v->journal_persisted = 0;
        v->journal_superseded = 0;
        v->journal_latency.Clear();
        v->journal_range_written = 0;
        v->journal_range_persisted = 0;
        v->journal_range_superseded = 0;
        v->journal_range_latency.Clear();
        v->vlog_registry.clear();
        v->journal_vlog_purged = 0;
        v->journal_vlog_latency.Clear();
      }
      for (const auto& dead : edit.deleted_files()) {
        v->levels[dead.first].erase(dead.second);
      }
      for (const auto& added : edit.new_files()) {
        v->levels[added.first][added.second.number] = added.second;
      }
      if (edit.has_log_number()) {
        v->log_number = edit.log_number();
        v->have_log = true;
      }
      if (edit.has_next_file_number()) {
        v->next_file = edit.next_file_number();
        v->have_next = true;
      }
      if (edit.has_last_sequence()) {
        v->last_sequence = edit.last_sequence();
        v->have_last = true;
      }
      if (edit.has_monitor_written()) {
        v->journal_written = edit.monitor_written();
      }
      if (edit.has_monitor_delta()) {
        v->journal_persisted += edit.monitor_persisted();
        v->journal_superseded += edit.monitor_superseded();
        v->journal_latency.Merge(edit.monitor_latency());
      }
      if (edit.has_monitor_range_written()) {
        v->journal_range_written = edit.monitor_range_written();
      }
      if (edit.has_monitor_range_delta()) {
        v->journal_range_persisted += edit.monitor_range_persisted();
        v->journal_range_superseded += edit.monitor_range_superseded();
        v->journal_range_latency.Merge(edit.monitor_range_latency());
      }
      if (edit.has_vlog_monitor_delta()) {
        v->journal_vlog_purged += edit.vlog_monitor_purged();
        v->journal_vlog_latency.Merge(edit.vlog_monitor_latency());
      }
      // vLog registry replay, same fold-in as VersionSet::Recover.
      for (const vlog::SegmentInfo& info : edit.vlog_segments()) {
        v->vlog_registry[info.number] = info;
      }
      for (uint64_t seg : edit.vlog_removed_segments()) {
        v->vlog_registry.erase(seg);
      }
      for (const vlog::SegmentDelta& delta : edit.vlog_deltas()) {
        vlog::ApplyDelta(&v->vlog_registry, delta);
      }
    }
    if (records == 0) {
      return Status::Corruption(fname, "empty MANIFEST");
    }
    if (!v->have_log || !v->have_next || !v->have_last) {
      return Status::Corruption(fname, "MANIFEST missing meta fields");
    }
    return Status::OK();
  }

  Status VerifyTables(const ReplayedVersion& v) {
    // Every table the replayed version references must exist at no less
    // than its recorded size; a shorter file would fail at read time (the
    // footer offset comes from file_size), so reject it here and let the
    // salvage tier rebuild from what is actually on disk.
    for (const auto& level : v.levels) {
      for (const auto& f : level.second) {
        const std::string fname = TableFileName(dbname_, f.first);
        uint64_t size = 0;
        Status s = env_->GetFileSize(fname, &size);  // io: repair
        if (!s.ok()) return s;
        if (size < f.second.file_size) {
          return Status::Corruption(fname, "table shorter than recorded");
        }
      }
    }
    return Status::OK();
  }

  // Mirror of DBImpl::RecoverVlog for the bounded tier. A sealed segment
  // with values must exist at no less than its recorded extent (pointers
  // into it would dangle otherwise -- fall back to salvage). The unsealed
  // head (or an empty sealed segment) that never made it to disk is simply
  // dropped; a present unsealed head is CRC-scanned and sealed at its valid
  // prefix, exactly like a torn WAL tail.
  Status VerifyVlogSegments(ReplayedVersion* v) {
    for (auto it = v->vlog_registry.begin(); it != v->vlog_registry.end();) {
      vlog::SegmentInfo& info = it->second;
      const std::string fname = VlogFileName(dbname_, info.number);
      uint64_t size = 0;
      Status s = env_->GetFileSize(fname, &size);  // io: repair
      if (!s.ok()) {
        if (info.sealed && info.value_count > 0) {
          return Status::Corruption(fname, "missing value log segment");
        }
        it = v->vlog_registry.erase(it);
        continue;
      }
      if (info.sealed) {
        if (size < info.total_bytes) {
          return Status::Corruption(fname, "value log shorter than recorded");
        }
      } else {
        uint64_t valid_bytes = 0;
        uint64_t value_count = 0;
        // io: repair -- torn-tail scan of the crash-time head
        s = vlog::ScanSegment(env_, fname, &valid_bytes, &value_count);
        if (!s.ok()) return s;
        info.sealed = true;
        info.total_bytes = valid_bytes;
        info.value_count = value_count;
      }
      ++it;
    }
    return Status::OK();
  }

  Status WriteBoundedDescriptor(uint64_t min_new_number,
                                const ReplayedVersion& v) {
    // The descriptor's recorded next_file must exceed its own number, or
    // the next Open would allocate the same number for its manifest and
    // truncate this one (same ordering constraint as rotation in
    // VersionSet::LogAndApply).
    const uint64_t manifest_number = std::max(v.next_file, min_new_number);

    VersionEdit edit;
    edit.SetSnapshot();
    edit.SetComparatorName(icmp_.user_comparator()->Name());
    // Preserve the log number: DB::Open replays the surviving WALs itself,
    // so unflushed writes are not lost by the repair.
    edit.SetLogNumber(v.log_number);
    edit.SetNextFile(manifest_number + 1);
    edit.SetLastSequence(v.last_sequence);
    edit.SetMonitorWritten(v.journal_written);
    edit.SetMonitorDelta(v.journal_persisted, v.journal_superseded,
                         v.journal_latency);
    edit.SetMonitorRangeWritten(v.journal_range_written);
    edit.SetMonitorRangeDelta(v.journal_range_persisted,
                              v.journal_range_superseded,
                              v.journal_range_latency);
    if (v.journal_vlog_purged > 0) {
      edit.SetVlogMonitorDelta(v.journal_vlog_purged, v.journal_vlog_latency);
    }
    for (const auto& seg : v.vlog_registry) {
      edit.AddVlogSegment(seg.second);
    }
    for (const auto& level : v.levels) {
      for (const auto& f : level.second) {
        edit.AddFile(level.first, f.second);
      }
    }

    std::string manifest_name = DescriptorFileName(dbname_, manifest_number);
    std::unique_ptr<WritableFile> manifest_file;
    Status status =
        env_->NewWritableFile(manifest_name, &manifest_file);  // io: repair
    if (!status.ok()) return status;
    {
      wal::Writer manifest_log(manifest_file.get());
      std::string record;
      edit.EncodeTo(&record);
      status = manifest_log.AddRecord(record);
    }
    if (status.ok()) status = manifest_file->Sync();
    if (status.ok()) status = manifest_file->Close();
    if (!status.ok()) {
      (void)env_->RemoveFile(manifest_name);  // io: repair cleanup
      return status;
    }
    // Point CURRENT at the repaired manifest *before* discarding the old
    // ones (same crash-ordering argument as the salvage tier).
    status = SetCurrentFile(env_, dbname_, manifest_number);
    if (status.ok()) {
      RemoveSupersededManifests(manifest_number);
    }
    return status;
  }

  // Discard the manifests found at startup; the repaired descriptor
  // supersedes them. Never touches the descriptor just written, even if a
  // stale file of the same name was in the startup listing.
  void RemoveSupersededManifests(uint64_t new_manifest_number) {
    uint64_t number;
    FileType type;
    for (const std::string& old_manifest : manifests_) {
      if (ParseFileName(old_manifest, &number, &type) &&
          number == new_manifest_number) {
        continue;
      }
      (void)env_->RemoveFile(dbname_ + "/" + old_manifest);  // io: repair
    }
  }

  Status FindFiles() {
    std::vector<std::string> filenames;
    Status status = env_->GetChildren(dbname_, &filenames);  // io: repair
    if (!status.ok()) return status;
    if (filenames.empty()) {
      return Status::IOError(dbname_, "repair found no files");
    }

    uint64_t number;
    FileType type;
    for (const std::string& filename : filenames) {
      if (ParseFileName(filename, &number, &type)) {
        // Descriptors count toward next_file_number_ too: a crashed earlier
        // repair can leave a (possibly empty) MANIFEST behind, and reusing
        // its number would truncate it -- and then the old-manifest cleanup
        // below would unlink the descriptor we just wrote under that name.
        if (number + 1 > next_file_number_) {
          next_file_number_ = number + 1;
        }
        if (type == kDescriptorFile) {
          manifests_.push_back(filename);
        } else {
          if (type == kLogFile) {
            logs_.push_back(number);
          } else if (type == kTableFile) {
            table_numbers_.push_back(number);
          } else if (type == kVlogFile) {
            vlog_numbers_.push_back(number);
          } else {
            // Ignore other files
          }
        }
      }
    }
    return status;
  }

  void ConvertLogFilesToTables() {
    for (uint64_t log_number : logs_) {
      (void)ConvertLogToTable(log_number);
      // The log is fully captured in a table now (or it was unreadable);
      // either way it is not consulted again. Leave it on disk -- the next
      // DB::Open garbage-collects files below the recovered log number.
    }
  }

  Status ConvertLogToTable(uint64_t log) {
    struct LogReporter : public wal::Reader::Reporter {
      void Corruption(size_t, const Status&) override {
        // Keep going: salvage as many records as possible.
      }
    };

    std::string logname = LogFileName(dbname_, log);
    std::unique_ptr<SequentialFile> lfile;
    Status status = env_->NewSequentialFile(logname, &lfile);  // io: repair
    if (!status.ok()) return status;

    LogReporter reporter;
    wal::Reader reader(lfile.get(), &reporter, false /*do not checksum*/);

    std::string scratch;
    Slice record;
    WriteBatch batch;
    MemTable* mem = new MemTable(icmp_);
    mem->Ref();
    while (reader.ReadRecord(&record, &scratch)) {
      if (record.size() < 12) continue;
      WriteBatchInternal::SetContents(&batch, record);
      // Ignore per-batch errors: salvage what parses.
      (void)WriteBatchInternal::InsertInto(&batch, mem);
    }

    if (mem->num_entries() > 0 || mem->num_range_tombstones() > 0) {
      FileMetaData meta;
      meta.number = next_file_number_++;
      // ScanTable re-derives the metadata from the file itself.
      status = BuildTable(options_, dbname_, icmp_.user_comparator(), mem,
                          &meta);
      if (status.ok()) {
        table_numbers_.push_back(meta.number);
      }
    }
    mem->Unref();
    return status;
  }

  void ExtractMetaData() {
    for (uint64_t number : table_numbers_) {
      TableInfo t;
      t.meta.number = number;
      Status status = ScanTable(&t);
      if (!status.ok()) {
        // Unreadable table: exclude from the repaired version. The file is
        // left on disk for forensics; DB::Open's garbage collection will
        // not see it as live and removes it.
        continue;
      }
      tables_.push_back(t);
    }
  }

  Status ScanTable(TableInfo* t) {
    std::string fname = TableFileName(dbname_, t->meta.number);
    Status status = env_->GetFileSize(fname, &t->meta.file_size);  // io: repair
    if (!status.ok()) return status;

    std::unique_ptr<RandomAccessFile> file;
    status = env_->NewRandomAccessFile(fname, &file);  // io: repair
    if (!status.ok()) return status;
    Table* table = nullptr;
    status = Table::Open(options_, file.get(), t->meta.file_size, &table);
    if (!status.ok()) return status;

    // Re-derive the key range, counts, and tombstone metadata by scanning;
    // per-entry data beats a possibly stale properties block and validates
    // every block checksum along the way.
    std::unique_ptr<Iterator> iter(table->NewIterator(ReadOptions()));
    bool bad_key = false;
    t->max_sequence = 0;
    ParsedInternalKey parsed;
    for (iter->SeekToFirst(); iter->Valid(); iter->Next()) {
      Slice key = iter->key();
      if (!ParseInternalKey(key, &parsed)) {
        bad_key = true;
        continue;
      }
      t->max_sequence = std::max(t->max_sequence, parsed.sequence);
      FoldTableEntry(options_, key, &parsed, iter->value(), &t->meta);
    }
    Status iter_status = iter->status();
    iter.reset();

    // Range tombstones live in their own block, whose count, earliest
    // seqno and span the properties block records (a table whose range-del
    // block failed to decode never passed Table::Open).
    const std::vector<RangeTombstone>& range_dels =
        table->raw_range_tombstones();
    SequenceNumber max_range_seq = 0;
    for (const RangeTombstone& rt : range_dels) {
      max_range_seq = std::max(max_range_seq, rt.seq);
    }
    t->max_sequence = std::max(t->max_sequence, max_range_seq);
    CopyRangeTombstoneMeta(table->properties(), &t->meta);
    delete table;

    if (!iter_status.ok()) return iter_status;
    const bool empty = t->meta.num_entries == 0;
    if (empty && !t->meta.has_range_tombstones()) {
      return Status::Corruption("table holds no decodable entries");
    }
    if (empty) {
      // A range-tombstone-only table: derive bounds from the tombstone
      // span. Salvaged tables all land in level 0, where overlap is legal.
      t->meta.smallest = InternalKey(Slice(t->meta.range_del_begin),
                                     max_range_seq, kValueTypeForSeek);
      t->meta.largest =
          InternalKey(Slice(t->meta.range_del_end), 0, kTypeDeletion);
    }
    if (bad_key && options_.paranoid_checks) {
      return Status::Corruption("table holds undecodable keys");
    }
    t->meta.run_id = t->meta.number;
    return Status::OK();
  }

  // Full-salvage counterpart of VerifyVlogSegments: with the MANIFEST gone,
  // the registry is rebuilt from the .vlog files themselves. Each segment is
  // CRC-scanned and re-registered sealed at its valid prefix; garbage/
  // pending-purge accounting is lost (conservatively zero -- GC re-learns
  // garbage as compactions drop pointers). Unreadable or empty segments are
  // left on disk but outside the new version; the next Open's obsolete-file
  // pass removes them if no surviving table references their span.
  void SalvageVlogSegments() {
    for (uint64_t number : vlog_numbers_) {
      uint64_t valid_bytes = 0;
      uint64_t value_count = 0;
      // io: repair -- CRC scan of one orphaned segment
      Status s = vlog::ScanSegment(env_, VlogFileName(dbname_, number),
                                   &valid_bytes, &value_count);
      if (!s.ok() || value_count == 0) continue;
      vlog::SegmentInfo info;
      info.number = number;
      info.sealed = true;
      info.total_bytes = valid_bytes;
      info.value_count = value_count;
      salvaged_vlog_.push_back(info);
    }
  }

  Status WriteDescriptor() {
    // Highest sequence across all salvaged tables.
    SequenceNumber max_sequence = 0;
    for (const TableInfo& t : tables_) {
      if (t.max_sequence > max_sequence) max_sequence = t.max_sequence;
    }

    VersionEdit edit;
    edit.SetComparatorName(icmp_.user_comparator()->Name());
    edit.SetLogNumber(next_file_number_);  // beyond every salvaged log
    edit.SetNextFile(next_file_number_ + 1);
    edit.SetLastSequence(max_sequence);
    for (const TableInfo& t : tables_) {
      edit.AddFile(0, t.meta);
    }
    for (const vlog::SegmentInfo& info : salvaged_vlog_) {
      edit.AddVlogSegment(info);
    }

    const uint64_t manifest_number = next_file_number_ + 2;
    std::string manifest_name = DescriptorFileName(dbname_, manifest_number);
    std::unique_ptr<WritableFile> manifest_file;
    Status status =
        env_->NewWritableFile(manifest_name, &manifest_file);  // io: repair
    if (!status.ok()) return status;
    {
      wal::Writer manifest_log(manifest_file.get());
      std::string record;
      edit.EncodeTo(&record);
      status = manifest_log.AddRecord(record);
    }
    if (status.ok()) status = manifest_file->Sync();
    if (status.ok()) status = manifest_file->Close();
    if (!status.ok()) {
      (void)env_->RemoveFile(manifest_name);  // io: repair cleanup
      return status;
    }
    // Point CURRENT at the repaired manifest *before* discarding the old
    // ones: if we crash between the two steps the DB still opens from a
    // manifest CURRENT actually names. (The reverse order left a window
    // where CURRENT referenced an already-unlinked file.)
    status = SetCurrentFile(env_, dbname_, manifest_number);
    if (status.ok()) {
      RemoveSupersededManifests(manifest_number);
    }
    return status;
  }

  const std::string dbname_;
  Env* const env_;
  InternalKeyComparator const icmp_;
  Options options_;

  std::vector<std::string> manifests_;
  std::vector<uint64_t> table_numbers_;
  std::vector<uint64_t> logs_;
  std::vector<uint64_t> vlog_numbers_;
  std::vector<TableInfo> tables_;
  std::vector<vlog::SegmentInfo> salvaged_vlog_;
  uint64_t next_file_number_;
};

}  // namespace

Status RepairDB(const std::string& dbname, const Options& options) {
  Repairer repairer(dbname, options);
  return repairer.Run();
}

}  // namespace acheron
