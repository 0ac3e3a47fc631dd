// Every table writer -- flush, compaction, the secondary-purge rewrite and
// the vLog-GC rewrite -- must describe a table identically in the MANIFEST
// (FileMetaData) and in the table's own properties block: the planner and
// recovery read the former, RepairDB and table tools the latter.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "src/env/env.h"
#include "src/lsm/db.h"
#include "src/lsm/dbformat.h"
#include "src/lsm/filename.h"
#include "src/lsm/version_edit.h"
#include "src/table/table.h"
#include "src/wal/log_reader.h"

namespace acheron {

namespace {

struct LiveTable {
  int level;
  FileMetaData meta;
};

// The live table set, replayed from the MANIFEST that CURRENT names.
std::vector<LiveTable> ReadLiveTables(Env* env, const std::string& dbname) {
  std::vector<LiveTable> live;
  std::string current;
  EXPECT_TRUE(env->ReadFileToString(CurrentFileName(dbname), &current).ok());
  if (current.empty() || current.back() != '\n') return live;
  current.pop_back();
  std::unique_ptr<SequentialFile> file;
  EXPECT_TRUE(env->NewSequentialFile(dbname + "/" + current, &file).ok());
  if (file == nullptr) return live;
  wal::Reader reader(file.get(), nullptr, true /*checksum*/);
  std::string scratch;
  Slice record;
  while (reader.ReadRecord(&record, &scratch)) {
    VersionEdit edit;
    EXPECT_TRUE(edit.DecodeFrom(record).ok());
    if (edit.IsSnapshot()) live.clear();
    for (const auto& dead : edit.deleted_files()) {
      std::erase_if(live, [&](const LiveTable& t) {
        return t.level == dead.first && t.meta.number == dead.second;
      });
    }
    for (const auto& added : edit.new_files()) {
      live.push_back({added.first, added.second});
    }
  }
  return live;
}

// Opens |t| and compares its manifest metadata with its properties block.
void ExpectMetaMatchesProperties(Env* env, const std::string& dbname,
                                 const LiveTable& t) {
  SCOPED_TRACE("table " + std::to_string(t.meta.number) + " at level " +
               std::to_string(t.level));
  InternalKeyComparator icmp(BytewiseComparator());
  Options options;
  options.env = env;
  options.comparator = &icmp;
  std::unique_ptr<RandomAccessFile> file;
  ASSERT_TRUE(
      env->NewRandomAccessFile(TableFileName(dbname, t.meta.number), &file)
          .ok());
  Table* raw = nullptr;
  ASSERT_TRUE(Table::Open(options, file.get(), t.meta.file_size, &raw).ok());
  std::unique_ptr<Table> table(raw);
  const TableProperties& p = table->properties();
  const FileMetaData& m = t.meta;

  EXPECT_EQ(m.num_tombstones, p.num_tombstones);
  if (m.num_tombstones > 0) {
    EXPECT_EQ(m.earliest_tombstone_seq, p.earliest_tombstone_time);
    EXPECT_NE(UINT64_MAX, m.earliest_tombstone_wall_micros);
    EXPECT_EQ(m.earliest_tombstone_wall_micros,
              p.earliest_tombstone_wall_micros);
  }
  EXPECT_EQ(m.num_range_tombstones, p.num_range_tombstones);
  if (m.num_range_tombstones > 0) {
    EXPECT_EQ(m.earliest_range_tombstone_seq, p.earliest_range_tombstone_time);
    EXPECT_NE(UINT64_MAX, m.earliest_range_tombstone_wall_micros);
    EXPECT_EQ(m.earliest_range_tombstone_wall_micros,
              p.earliest_range_tombstone_wall_micros);
    EXPECT_EQ(m.range_del_begin, p.range_del_begin);
    EXPECT_EQ(m.range_del_end, p.range_del_end);
  }
  EXPECT_EQ(m.min_secondary_key, p.min_secondary_key);
  EXPECT_EQ(m.max_secondary_key, p.max_secondary_key);
}

// Values are "TTTTTTTT|payload"; the extractor returns the timestamp.
std::string Timestamp(uint64_t timestamp) {
  char buf[16];
  std::snprintf(buf, sizeof(buf), "%08llu",
                static_cast<unsigned long long>(timestamp));
  return buf;
}

std::string Stamped(uint64_t timestamp, const std::string& payload) {
  return Timestamp(timestamp) + "|" + payload;
}

std::string TimestampExtractor(const Slice&, const Slice& value) {
  if (value.size() < 8) return std::string();
  return std::string(value.data(), 8);
}

}  // namespace

class TableOutputTest : public ::testing::Test {
 protected:
  TableOutputTest() : env_(NewMemEnv()) {
    options_.env = env_.get();
    options_.write_buffer_size = 32 << 10;
    options_.secondary_key_extractor = TimestampExtractor;
  }
  ~TableOutputTest() override { delete db_; }

  void Open() { ASSERT_TRUE(DB::Open(options_, "/db", &db_).ok()); }

  void Put(const std::string& k, const std::string& v) {
    ASSERT_TRUE(db_->Put(WriteOptions(), k, v).ok());
  }

  void Delete(const std::string& k) {
    ASSERT_TRUE(db_->Delete(WriteOptions(), k).ok());
  }

  // Closes the DB (its MANIFEST ends in a clean snapshot), checks every
  // live table, and returns them for path-specific checks.
  std::vector<LiveTable> CloseAndCheckAllTables() {
    delete db_;
    db_ = nullptr;
    std::vector<LiveTable> live = ReadLiveTables(env_.get(), "/db");
    EXPECT_FALSE(live.empty());
    for (const LiveTable& t : live) {
      ExpectMetaMatchesProperties(env_.get(), "/db", t);
    }
    return live;
  }

  std::unique_ptr<Env> env_;
  Options options_;
  DB* db_ = nullptr;
};

TEST_F(TableOutputTest, FlushAgreesWithProperties) {
  Open();
  for (int i = 0; i < 50; i++) {
    Put("k" + std::to_string(i), Stamped(1000 + i, "v"));
  }
  Delete("k7");
  Delete("k8");
  ASSERT_TRUE(db_->DeleteRange(WriteOptions(), "k2", "k3").ok());
  ASSERT_TRUE(db_->FlushMemTable().ok());
  std::vector<LiveTable> live = CloseAndCheckAllTables();
  ASSERT_EQ(1u, live.size());
  EXPECT_EQ(2u, live[0].meta.num_tombstones);
  EXPECT_EQ(1u, live[0].meta.num_range_tombstones);
  EXPECT_EQ(Timestamp(1000), live[0].meta.min_secondary_key);
}

TEST_F(TableOutputTest, RangeOnlyCompactionOutputAgreesWithProperties) {
  Open();
  for (int i = 10; i < 100; i++) {
    Put("k" + std::to_string(i), Stamped(2000 + i, "v"));
  }
  // The snapshot sees the wide tombstone, which therefore drops every
  // point entry and then itself; the narrow one is newer than the
  // snapshot and survives alone in the compaction's only output.
  ASSERT_TRUE(db_->DeleteRange(WriteOptions(), "k00", "k99~").ok());
  const Snapshot* snapshot = db_->GetSnapshot();
  ASSERT_TRUE(db_->DeleteRange(WriteOptions(), "k20", "k30").ok());
  db_->CompactRange(nullptr, nullptr);
  db_->ReleaseSnapshot(snapshot);
  std::vector<LiveTable> live = CloseAndCheckAllTables();
  ASSERT_EQ(1u, live.size());
  EXPECT_EQ(0u, live[0].meta.num_entries);
  EXPECT_EQ(1u, live[0].meta.num_range_tombstones);
  EXPECT_EQ("k20", live[0].meta.range_del_begin);
}

TEST_F(TableOutputTest, PurgeRewriteAgreesWithProperties) {
  Open();
  // One file straddling the purge threshold, holding point tombstones.
  for (int i = 0; i < 100; i++) {
    Put("k" + std::to_string(i), Stamped(i < 50 ? 10 + i : 5000 + i, "p"));
  }
  for (int i = 0; i < 5; i++) {
    Delete("x" + std::to_string(i));
  }
  ASSERT_TRUE(db_->FlushMemTable().ok());
  ASSERT_TRUE(db_->PurgeSecondaryRange(Timestamp(1000)).ok());
  EXPECT_EQ(50u, db_->GetStats().blocks_purged_secondary);
  std::vector<LiveTable> live = CloseAndCheckAllTables();
  ASSERT_EQ(1u, live.size());
  EXPECT_EQ(5u, live[0].meta.num_tombstones);
  EXPECT_EQ(Timestamp(5050), live[0].meta.min_secondary_key);
}

TEST_F(TableOutputTest, VlogGcRewriteAgreesWithProperties) {
  options_.value_separation_threshold = 256;
  options_.vlog_gc_live_ratio = 0.9;
  Open();
  const std::string large(2048, 'L');
  for (int i = 0; i < 8; i++) {
    Put("b" + std::to_string(i), large);
    Put("a" + std::to_string(i), large);
  }
  ASSERT_TRUE(db_->FlushMemTable().ok());  // seals the first segment
  for (int i = 0; i < 8; i++) {
    Put("b" + std::to_string(i), large);
  }
  // Tombstones newer than the snapshot outlive the compaction below, which
  // drops the overwritten b values and so turns half of the first segment
  // into garbage.
  const Snapshot* snapshot = db_->GetSnapshot();
  for (int i = 0; i < 5; i++) {
    Delete("x" + std::to_string(i));
  }
  db_->CompactRange(nullptr, nullptr);
  // The next round's GC rewrites the compacted table: it holds the a
  // pointers into the victim segment and the five tombstones.
  Put("small", "v");
  ASSERT_TRUE(db_->FlushMemTable().ok());
  db_->ReleaseSnapshot(snapshot);
  EXPECT_EQ(8u, db_->GetStats().vlog_gc_values_relocated);
  std::vector<LiveTable> live = CloseAndCheckAllTables();
  int with_tombstones = 0;
  for (const LiveTable& t : live) {
    if (t.meta.num_tombstones > 0) {
      with_tombstones++;
      EXPECT_EQ(5u, t.meta.num_tombstones);
    }
  }
  EXPECT_EQ(1, with_tombstones);
}

}  // namespace acheron
