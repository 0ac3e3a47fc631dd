// Appends length-prefixed, checksummed records to a WAL file.
#ifndef ACHERON_WAL_LOG_WRITER_H_
#define ACHERON_WAL_LOG_WRITER_H_

#include <cstdint>

#include "src/env/env.h"
#include "src/util/slice.h"
#include "src/util/status.h"
#include "src/wal/log_format.h"

namespace acheron {
namespace wal {

class Writer {
 public:
  // Create a writer that will append data to "*dest". "*dest" must remain
  // live while this Writer is in use.
  explicit Writer(WritableFile* dest);

  // Create a writer that appends to "*dest" which has initial length
  // "dest_length" (reopening an existing log).
  Writer(WritableFile* dest, uint64_t dest_length);

  Writer(const Writer&) = delete;
  Writer& operator=(const Writer&) = delete;

  // Append |slice| as one logical record. A non-null |bytes_written|
  // receives the physical bytes this call appended to the file: the payload
  // plus every fragment's header and any block-trailer padding.
  Status AddRecord(const Slice& slice, uint64_t* bytes_written = nullptr);

 private:
  Status EmitPhysicalRecord(RecordType type, const char* ptr, size_t length);

  WritableFile* dest_;
  int block_offset_;  // Current offset in block

  // crc32c values for all supported record types, precomputed to reduce the
  // overhead of computing the crc of the type stored in the header.
  uint32_t type_crc_[kMaxRecordType + 1];
};

}  // namespace wal
}  // namespace acheron

#endif  // ACHERON_WAL_LOG_WRITER_H_
