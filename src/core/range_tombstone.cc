#include "src/core/range_tombstone.h"

#include <algorithm>

#include "src/util/coding.h"

namespace acheron {

void EncodeRangeTombstones(const std::vector<RangeTombstone>& tombstones,
                           std::string* dst) {
  PutVarint32(dst, static_cast<uint32_t>(tombstones.size()));
  for (const RangeTombstone& t : tombstones) {
    PutLengthPrefixedSlice(dst, t.begin);
    PutLengthPrefixedSlice(dst, t.end);
    PutVarint64(dst, t.seq);
  }
}

Status DecodeRangeTombstones(const Slice& input,
                             std::vector<RangeTombstone>* out) {
  out->clear();
  Slice in = input;
  uint32_t count;
  if (!GetVarint32(&in, &count)) {
    return Status::Corruption("range-tombstone block: bad count");
  }
  // A count implying more than one byte of payload per tombstone past the
  // remaining input is torn; reject before reserving memory for it.
  if (count > in.size()) {
    return Status::Corruption("range-tombstone block: count exceeds payload");
  }
  out->reserve(count);
  for (uint32_t i = 0; i < count; i++) {
    Slice begin, end;
    uint64_t seq;
    if (!GetLengthPrefixedSlice(&in, &begin) ||
        !GetLengthPrefixedSlice(&in, &end) || !GetVarint64(&in, &seq)) {
      out->clear();
      return Status::Corruption("range-tombstone block: truncated entry");
    }
    if (seq > kMaxSequenceNumber) {
      out->clear();
      return Status::Corruption("range-tombstone block: sequence out of range");
    }
    if (begin.compare(end) >= 0) {
      out->clear();
      return Status::Corruption("range-tombstone block: inverted range");
    }
    out->emplace_back(begin.ToString(), end.ToString(), seq);
  }
  if (!in.empty()) {
    out->clear();
    return Status::Corruption("range-tombstone block: trailing bytes");
  }
  return Status::OK();
}

void FragmentedRangeTombstoneList::Build(
    const Comparator* ucmp, const std::vector<RangeTombstone>& tombstones) {
  ucmp_ = ucmp;
  fragments_.clear();
  raw_.clear();
  raw_.reserve(tombstones.size());
  for (const RangeTombstone& t : tombstones) {
    if (ucmp->Compare(t.begin, t.end) < 0) raw_.push_back(t);
  }
  if (raw_.empty()) return;

  // Fragment boundaries: every begin and end key, deduplicated.
  auto less = [ucmp](const Slice& a, const Slice& b) {
    return ucmp->Compare(a, b) < 0;
  };
  std::vector<Slice> bounds;
  bounds.reserve(raw_.size() * 2);
  for (const RangeTombstone& t : raw_) {
    bounds.push_back(t.begin);
    bounds.push_back(t.end);
  }
  std::sort(bounds.begin(), bounds.end(), less);
  bounds.erase(std::unique(bounds.begin(), bounds.end(),
                           [ucmp](const Slice& a, const Slice& b) {
                             return ucmp->Compare(a, b) == 0;
                           }),
               bounds.end());

  // Sweep: each tombstone covers exactly the gaps between its own begin and
  // end boundaries, so two binary searches locate them and its seq is
  // pushed onto each. O(n log n) plus the size of the output.
  auto index_of = [&](const Slice& key) {
    return static_cast<size_t>(
        std::lower_bound(bounds.begin(), bounds.end(), key, less) -
        bounds.begin());
  };
  std::vector<std::vector<SequenceNumber>> gap_seqs(bounds.size() - 1);
  for (const RangeTombstone& t : raw_) {
    const size_t end = index_of(t.end);
    for (size_t g = index_of(t.begin); g < end; g++) {
      gap_seqs[g].push_back(t.seq);
    }
  }

  for (size_t i = 0; i < gap_seqs.size(); i++) {
    std::vector<SequenceNumber>& seqs = gap_seqs[i];
    if (seqs.empty()) continue;
    std::sort(seqs.begin(), seqs.end());
    // Merge with the previous fragment when contiguous and identical, so
    // abutting tombstones do not fracture into needless pieces.
    if (!fragments_.empty() && Slice(fragments_.back().end) == bounds[i] &&
        fragments_.back().seqs == seqs) {
      fragments_.back().end.assign(bounds[i + 1].data(), bounds[i + 1].size());
    } else {
      Fragment frag;
      frag.begin.assign(bounds[i].data(), bounds[i].size());
      frag.end.assign(bounds[i + 1].data(), bounds[i + 1].size());
      frag.seqs = std::move(seqs);
      fragments_.push_back(std::move(frag));
    }
  }
}

SequenceNumber FragmentedRangeTombstoneList::MaxCoveringSeq(
    const Slice& user_key, SequenceNumber snapshot) const {
  if (fragments_.empty()) return 0;
  // First fragment whose end is past the key...
  auto it = std::upper_bound(
      fragments_.begin(), fragments_.end(), user_key,
      [this](const Slice& k, const Fragment& f) {
        return ucmp_->Compare(k, f.end) < 0;
      });
  if (it == fragments_.end()) return 0;
  // ...must also start at or before it.
  if (ucmp_->Compare(user_key, it->begin) < 0) return 0;
  // Largest covering seq visible at |snapshot|.
  auto sit = std::upper_bound(it->seqs.begin(), it->seqs.end(), snapshot);
  if (sit == it->seqs.begin()) return 0;
  return *(sit - 1);
}

}  // namespace acheron
