// Range tombstones: the kTypeRangeDeletion record, its SSTable block wire
// format, and the fragmented coverage structure the read path queries.
//
// A range tombstone [begin, end)@seq hides every entry for a user key in
// [begin, end) whose sequence number is below seq. Raw tombstones may
// overlap arbitrarily; FragmentedRangeTombstoneList splits them at every
// begin/end boundary into disjoint fragments, each carrying the sorted
// sequence numbers of the tombstones covering it, so a snapshot-aware
// coverage query is one binary search plus one bound lookup.
//
// Block wire format (written by TableBuilder behind the standard
// type+crc32c trailer, handle persisted in TableProperties):
//   num_tombstones: varint32
//   per tombstone:  begin varstring | end varstring | seq varint64
// Tombstones with begin >= end or seq > kMaxSequenceNumber are rejected at
// decode time; DecodeRangeTombstones never crashes on torn input.
#ifndef ACHERON_CORE_RANGE_TOMBSTONE_H_
#define ACHERON_CORE_RANGE_TOMBSTONE_H_

#include <cstdint>
#include <string>
#include <vector>

#include "src/lsm/dbformat.h"
#include "src/util/comparator.h"
#include "src/util/slice.h"
#include "src/util/status.h"

namespace acheron {

// One raw range delete as written: [begin, end) at sequence seq.
struct RangeTombstone {
  std::string begin;  // inclusive
  std::string end;    // exclusive
  SequenceNumber seq = 0;

  RangeTombstone() = default;
  RangeTombstone(std::string b, std::string e, SequenceNumber s)
      : begin(std::move(b)), end(std::move(e)), seq(s) {}
};

// Serialize |tombstones| into the range-tombstone block wire format.
void EncodeRangeTombstones(const std::vector<RangeTombstone>& tombstones,
                           std::string* dst);

// Parse a range-tombstone block. Returns Corruption (never crashes) on
// truncated, torn, or semantically invalid input (begin >= end, seq out of
// range, trailing bytes, count mismatch).
Status DecodeRangeTombstones(const Slice& input,
                             std::vector<RangeTombstone>* out);

// Disjoint fragments built from a set of possibly-overlapping raw
// tombstones. Immutable after Build(); safe for concurrent readers.
class FragmentedRangeTombstoneList {
 public:
  struct Fragment {
    std::string begin;  // inclusive
    std::string end;    // exclusive
    // Ascending sequence numbers of every tombstone covering the fragment.
    std::vector<SequenceNumber> seqs;
  };

  FragmentedRangeTombstoneList() = default;

  // Fragment |tombstones| under |ucmp| (user-key order). Empty and inverted
  // inputs (begin >= end) are dropped. O(n log n) in the tombstone count
  // plus the size of the output (the total number of fragment seqs).
  void Build(const Comparator* ucmp,
             const std::vector<RangeTombstone>& tombstones);

  bool empty() const { return fragments_.empty(); }
  const std::vector<Fragment>& fragments() const { return fragments_; }
  // The raw tombstones this list was built from (compaction re-emits them).
  const std::vector<RangeTombstone>& raw() const { return raw_; }

  // Largest tombstone sequence <= |snapshot| covering |user_key|, or 0 when
  // uncovered. An entry at sequence s is hidden iff the result exceeds s.
  SequenceNumber MaxCoveringSeq(const Slice& user_key,
                                SequenceNumber snapshot) const;

 private:
  const Comparator* ucmp_ = nullptr;
  std::vector<Fragment> fragments_;
  std::vector<RangeTombstone> raw_;
};

}  // namespace acheron

#endif  // ACHERON_CORE_RANGE_TOMBSTONE_H_
