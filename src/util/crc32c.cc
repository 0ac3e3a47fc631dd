#include "src/util/crc32c.h"

#include <array>
#include <cstring>

#if defined(__x86_64__)
#include <nmmintrin.h>
#endif

#include "src/util/coding.h"

namespace acheron {
namespace crc32c {
namespace {

// CRC32C (polynomial 0x1EDC6F41, reflected 0x82F63B78). Every block read and
// written is checksummed, so this is on the hot path of cold Gets, flushes
// and every compaction. Two kernels produce identical values:
//   - x86-64 with SSE4.2: the crc32 instruction, 8 bytes per step;
//   - anywhere else: slice-by-8 tables, 8 bytes per step.
// Extend() picks one on first use; nothing is configurable.
constexpr uint32_t kPoly = 0x82F63B78u;

// kTables[k][b] is the CRC register after feeding byte b followed by k zero
// bytes, which lets one step fold eight input bytes with eight lookups.
using Tables = std::array<std::array<uint32_t, 256>, 8>;

constexpr Tables MakeTables() {
  Tables t{};
  for (uint32_t i = 0; i < 256; i++) {
    uint32_t crc = i;
    for (int j = 0; j < 8; j++) {
      crc = (crc >> 1) ^ ((crc & 1) ? kPoly : 0);
    }
    t[0][i] = crc;
  }
  for (size_t k = 1; k < t.size(); k++) {
    for (uint32_t i = 0; i < 256; i++) {
      t[k][i] = (t[k - 1][i] >> 8) ^ t[0][t[k - 1][i] & 0xFF];
    }
  }
  return t;
}

// Constant-initialized, so it is usable from any other static initializer.
constexpr Tables kTables = MakeTables();

using Kernel = uint32_t (*)(uint32_t, const char*, size_t);

Kernel ChooseKernel() {
#if defined(__x86_64__)
  if (internal::Sse42Supported()) return internal::ExtendSse42;
#endif
  return internal::ExtendPortable;
}

}  // namespace

namespace internal {

uint32_t ExtendPortable(uint32_t init_crc, const char* data, size_t n) {
  uint32_t crc = init_crc ^ 0xFFFFFFFFu;
  const unsigned char* p = reinterpret_cast<const unsigned char*>(data);
  for (; n >= 8; p += 8, n -= 8) {
    const uint32_t lo = crc ^ DecodeFixed32(reinterpret_cast<const char*>(p));
    const uint32_t hi = DecodeFixed32(reinterpret_cast<const char*>(p + 4));
    crc = kTables[7][lo & 0xFF] ^ kTables[6][(lo >> 8) & 0xFF] ^
          kTables[5][(lo >> 16) & 0xFF] ^ kTables[4][lo >> 24] ^
          kTables[3][hi & 0xFF] ^ kTables[2][(hi >> 8) & 0xFF] ^
          kTables[1][(hi >> 16) & 0xFF] ^ kTables[0][hi >> 24];
  }
  for (; n > 0; p++, n--) {
    crc = kTables[0][(crc ^ *p) & 0xFF] ^ (crc >> 8);
  }
  return crc ^ 0xFFFFFFFFu;
}

#if defined(__x86_64__)
bool Sse42Supported() {
  __builtin_cpu_init();
  return __builtin_cpu_supports("sse4.2");
}

// Only this function is compiled for SSE4.2; the rest of the binary still
// runs on CPUs without it.
__attribute__((target("sse4.2"))) uint32_t ExtendSse42(uint32_t init_crc,
                                                       const char* data,
                                                       size_t n) {
  uint64_t crc = init_crc ^ 0xFFFFFFFFu;
  for (; n >= 8; data += 8, n -= 8) {
    uint64_t word;
    std::memcpy(&word, data, sizeof(word));
    crc = _mm_crc32_u64(crc, word);
  }
  uint32_t crc32 = static_cast<uint32_t>(crc);
  for (; n > 0; data++, n--) {
    crc32 = _mm_crc32_u8(crc32, static_cast<unsigned char>(*data));
  }
  return crc32 ^ 0xFFFFFFFFu;
}
#endif  // defined(__x86_64__)

}  // namespace internal

uint32_t Extend(uint32_t init_crc, const char* data, size_t n) {
  // A function-local static is initialized on first use, so callers from
  // other static initializers never see an unresolved kernel.
  static const Kernel kernel = ChooseKernel();
  return kernel(init_crc, data, n);
}

}  // namespace crc32c
}  // namespace acheron
