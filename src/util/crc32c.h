// CRC32C (Castagnoli) checksums with the LevelDB mask/unmask convention for
// embedding a CRC of data inside that same data stream.
#ifndef ACHERON_UTIL_CRC32C_H_
#define ACHERON_UTIL_CRC32C_H_

#include <cstddef>
#include <cstdint>

namespace acheron {
namespace crc32c {

// Return the crc32c of concat(A, data[0,n-1]) where init_crc is the crc32c of
// some string A.
uint32_t Extend(uint32_t init_crc, const char* data, size_t n);

// Return the crc32c of data[0,n-1].
inline uint32_t Value(const char* data, size_t n) { return Extend(0, data, n); }

// The kernels behind Extend(), exposed so tests and benchmarks can check each
// one against the others. Everything else calls Extend().
namespace internal {

// Slice-by-8 tables; runs on any CPU.
uint32_t ExtendPortable(uint32_t init_crc, const char* data, size_t n);

#if defined(__x86_64__)
// Whether this CPU has SSE4.2; ExtendSse42 may only be called if it does.
bool Sse42Supported();

// The SSE4.2 crc32 instruction, 8 bytes per step.
uint32_t ExtendSse42(uint32_t init_crc, const char* data, size_t n);
#endif

}  // namespace internal

static const uint32_t kMaskDelta = 0xa282ead8ul;

// Return a masked representation of crc. Stored CRCs are masked because
// computing the CRC of a string that already contains its CRC is error-prone.
inline uint32_t Mask(uint32_t crc) {
  return ((crc >> 15) | (crc << 17)) + kMaskDelta;
}

// Return the crc whose masked representation is masked_crc.
inline uint32_t Unmask(uint32_t masked_crc) {
  uint32_t rot = masked_crc - kMaskDelta;
  return ((rot >> 17) | (rot << 15));
}

}  // namespace crc32c
}  // namespace acheron

#endif  // ACHERON_UTIL_CRC32C_H_
