// TableOutput: the one place the engine produces an SSTable. Flush,
// compaction, the secondary-purge and vLog-GC rewrites and RepairDB all
// write through it, so a single piece of code decides a table's
// FileMetaData -- key bounds, point- and range-tombstone counts and clocks,
// the vLog segment span, the secondary-key span -- mirrors that metadata
// into the table's properties block, and makes the bytes durable (Sync)
// before the caller may install the file with a version edit.
#ifndef ACHERON_LSM_TABLE_OUTPUT_H_
#define ACHERON_LSM_TABLE_OUTPUT_H_

#include <cstdint>
#include <memory>
#include <string>

#include "src/core/range_tombstone.h"
#include "src/lsm/dbformat.h"
#include "src/lsm/options.h"
#include "src/lsm/version_edit.h"

namespace acheron {

class MemTable;
class TableBuilder;
class WritableFile;
struct TableProperties;

// Fold one point entry into |meta|: key bounds and entry count and, when
// the key parses (|parsed| non-null), the point-tombstone count and
// earliest seqno, a pointer entry's vLog segment span, and a value's
// secondary-key span (Options::secondary_key_extractor).
void FoldTableEntry(const Options& options, const Slice& key,
                    const ParsedInternalKey* parsed, const Slice& value,
                    FileMetaData* meta);

// Copy the range-tombstone count, earliest seqno, wall stamp and user-key
// span recorded in a table's properties block (TableBuilder derives them
// from the tombstones it writes) into |meta|.
void CopyRangeTombstoneMeta(const TableProperties& props, FileMetaData* meta);

class TableOutput {
 public:
  // |options.comparator| orders the internal keys added; |ucmp| orders the
  // user keys of range tombstones. |tombstone_wall_micros| and
  // |range_tombstone_wall_micros| are the wall stamps of the oldest point
  // and range tombstone among the entries written (a memtable's clock, or
  // inherited from input tables -- entries carry seqnos, not wall time);
  // each applies only to an output that holds such a tombstone.
  TableOutput(const Options& options, const std::string& dbname,
              const Comparator* ucmp, uint64_t tombstone_wall_micros,
              uint64_t range_tombstone_wall_micros);

  TableOutput(const TableOutput&) = delete;
  TableOutput& operator=(const TableOutput&) = delete;

  // Abandons an output that is still open.
  ~TableOutput();

  // Create table file |number| and start its metadata (run_id = |number|).
  Status Open(uint64_t number);
  bool is_open() const { return builder_ != nullptr; }

  // REQUIRES: is_open(). Keys arrive in internal-key order; |parsed| is
  // |key| parsed, or null when it does not parse.
  void Add(const Slice& key, const Slice& value,
           const ParsedInternalKey* parsed);
  void AddRangeTombstone(const RangeTombstone& t);
  uint64_t FileSize() const;

  // REQUIRES: is_open(). Mirror the metadata into the properties block,
  // build the table, Sync and Close the file, and store the metadata in
  // *meta. An output holding no entry and no range tombstone is abandoned
  // instead and *meta is left untouched (nothing to install). On failure
  // the output is abandoned.
  Status Finish(FileMetaData* meta);

  // REQUIRES: is_open(). Drop the output: abandon the builder, close and
  // remove the file.
  void Abandon();

 private:
  const Options& options_;
  const std::string& dbname_;
  const Comparator* const ucmp_;
  const uint64_t tombstone_wall_micros_;
  const uint64_t range_tombstone_wall_micros_;
  std::unique_ptr<WritableFile> file_;
  std::unique_ptr<TableBuilder> builder_;
  FileMetaData meta_;
};

// Write the frozen memtable |mem| to table file meta->number, including its
// range tombstones. A range-only memtable gets bounds from its tombstone
// span, which is safe only where files may overlap (level 0). An empty
// memtable leaves no file and meta->file_size == 0.
Status BuildTable(const Options& options, const std::string& dbname,
                  const Comparator* ucmp, MemTable* mem, FileMetaData* meta);

}  // namespace acheron

#endif  // ACHERON_LSM_TABLE_OUTPUT_H_
