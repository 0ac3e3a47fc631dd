#include "src/lsm/table_output.h"

#include <algorithm>
#include <cassert>
#include <vector>

#include "src/env/env.h"
#include "src/lsm/filename.h"
#include "src/memtable/memtable.h"
#include "src/table/properties.h"
#include "src/table/table_builder.h"
#include "src/vlog/vlog_format.h"

namespace acheron {

void FoldTableEntry(const Options& options, const Slice& key,
                    const ParsedInternalKey* parsed, const Slice& value,
                    FileMetaData* meta) {
  if (meta->num_entries++ == 0) meta->smallest.DecodeFrom(key);
  meta->largest.DecodeFrom(key);
  if (parsed == nullptr) return;
  if (parsed->type == kTypeDeletion) {
    meta->num_tombstones++;
    meta->earliest_tombstone_seq =
        std::min(meta->earliest_tombstone_seq, parsed->sequence);
  } else if (parsed->type == kTypeValuePointer) {
    // The extractor must never see a pointer payload. The segment span
    // keeps every segment the table references alive (RemoveObsoleteFiles)
    // and selects the table for vLog-GC rewrites.
    vlog::FoldVlogSpan(value, &meta->min_vlog_segment,
                       &meta->max_vlog_segment);
  } else if (parsed->type == kTypeValue && options.secondary_key_extractor) {
    std::string sec = options.secondary_key_extractor(parsed->user_key, value);
    if (sec.empty()) return;
    if (meta->min_secondary_key.empty() || sec < meta->min_secondary_key) {
      meta->min_secondary_key = sec;
    }
    if (meta->max_secondary_key.empty() || sec > meta->max_secondary_key) {
      meta->max_secondary_key = std::move(sec);
    }
  }
}

void CopyRangeTombstoneMeta(const TableProperties& props, FileMetaData* meta) {
  meta->num_range_tombstones = props.num_range_tombstones;
  if (props.num_range_tombstones == 0) return;
  meta->earliest_range_tombstone_seq = props.earliest_range_tombstone_time;
  meta->earliest_range_tombstone_wall_micros =
      props.earliest_range_tombstone_wall_micros;
  meta->range_del_begin = props.range_del_begin;
  meta->range_del_end = props.range_del_end;
}

TableOutput::TableOutput(const Options& options, const std::string& dbname,
                         const Comparator* ucmp,
                         uint64_t tombstone_wall_micros,
                         uint64_t range_tombstone_wall_micros)
    : options_(options),
      dbname_(dbname),
      ucmp_(ucmp),
      tombstone_wall_micros_(tombstone_wall_micros),
      range_tombstone_wall_micros_(range_tombstone_wall_micros) {}

TableOutput::~TableOutput() {
  if (is_open()) Abandon();
}

Status TableOutput::Open(uint64_t number) {
  assert(!is_open());
  meta_ = FileMetaData();
  meta_.number = number;
  meta_.run_id = number;
  // io: unlocked -- callers drop the DB mutex around table output
  Status s = options_.env->NewWritableFile(TableFileName(dbname_, number),
                                           &file_);
  if (s.ok()) {
    builder_ = std::make_unique<TableBuilder>(options_, file_.get());
  }
  return s;
}

void TableOutput::Add(const Slice& key, const Slice& value,
                      const ParsedInternalKey* parsed) {
  builder_->Add(key, value, ExtractUserKey(key));
  FoldTableEntry(options_, key, parsed, value, &meta_);
}

void TableOutput::AddRangeTombstone(const RangeTombstone& t) {
  builder_->AddRangeTombstone(t.begin, t.end, t.seq, ucmp_);
}

uint64_t TableOutput::FileSize() const { return builder_->FileSize(); }

Status TableOutput::Finish(FileMetaData* meta) {
  TableProperties* props = builder_->mutable_properties();
  if (meta_.num_entries == 0 && props->num_range_tombstones == 0) {
    Abandon();
    return Status::OK();
  }
  if (meta_.num_tombstones > 0) {
    meta_.earliest_tombstone_wall_micros = tombstone_wall_micros_;
  }
  if (props->num_range_tombstones > 0) {
    props->earliest_range_tombstone_wall_micros = range_tombstone_wall_micros_;
  }
  props->num_tombstones = meta_.num_tombstones;
  props->earliest_tombstone_time = meta_.earliest_tombstone_seq;
  props->earliest_tombstone_wall_micros = meta_.earliest_tombstone_wall_micros;
  props->min_secondary_key = meta_.min_secondary_key;
  props->max_secondary_key = meta_.max_secondary_key;
  CopyRangeTombstoneMeta(*props, &meta_);

  Status s = builder_->Finish();
  meta_.file_size = builder_->FileSize();
  builder_.reset();
  bool close_attempted = false;
  if (s.ok()) {
    // Always sync, independent of Options::sync_writes: the manifest record
    // that makes this table live is synced at install, so the table bytes
    // must be durable first or a crash could leave a live version pointing
    // at a torn file.
    s = file_->Sync();
  }
  if (s.ok()) {
    s = file_->Close();
    close_attempted = true;
  }
  if (!s.ok()) {
    // The output cannot be installed; drop it. The close status is dropped
    // deliberately, not silently in the destructor.
    if (!close_attempted) (void)file_->Close();
    file_.reset();
    // io: unlocked -- drops an output whose build, sync or close failed
    (void)options_.env->RemoveFile(TableFileName(dbname_, meta_.number));
    return s;
  }
  file_.reset();
  *meta = std::move(meta_);
  return s;
}

void TableOutput::Abandon() {
  builder_->Abandon();
  builder_.reset();
  (void)file_->Close();
  file_.reset();
  // io: unlocked -- drops an empty, failed or interrupted output
  (void)options_.env->RemoveFile(TableFileName(dbname_, meta_.number));
}

Status BuildTable(const Options& options, const std::string& dbname,
                  const Comparator* ucmp, MemTable* mem, FileMetaData* meta) {
  TableOutput out(options, dbname, ucmp, mem->earliest_tombstone_wall_micros(),
                  mem->earliest_range_tombstone_wall_micros());
  Status s = out.Open(meta->number);
  if (!s.ok()) return s;
  std::unique_ptr<Iterator> iter(mem->NewIterator());
  for (iter->SeekToFirst(); iter->Valid(); iter->Next()) {
    ParsedInternalKey parsed;
    const bool parsed_ok = ParseInternalKey(iter->key(), &parsed);
    out.Add(iter->key(), iter->value(), parsed_ok ? &parsed : nullptr);
  }
  // |mem| is frozen, so the push-front range-tombstone list is stable.
  std::vector<RangeTombstone> range_dels;
  mem->CollectRangeTombstones(&range_dels);
  SequenceNumber max_range_seq = 0;
  for (const RangeTombstone& t : range_dels) {
    out.AddRangeTombstone(t);
    max_range_seq = std::max(max_range_seq, t.seq);
  }
  s = iter->status();
  if (s.ok()) s = out.Finish(meta);
  if (s.ok() && meta->file_size > 0 && meta->num_entries == 0) {
    // A range-only memtable must still become a table (the tombstones have
    // to reach the tree to age and drop); derive bounds from the span.
    meta->smallest =
        InternalKey(meta->range_del_begin, max_range_seq, kValueTypeForSeek);
    meta->largest = InternalKey(meta->range_del_end, 0, kTypeDeletion);
  }
  return s;
}

}  // namespace acheron
