#include "src/util/crc32c.h"

#include <gtest/gtest.h>

#include <cstring>
#include <string>

#include "src/util/random.h"

namespace acheron {
namespace crc32c {

// The rfc3720 section B.4 vectors, checked against |crc|(data, n), which
// must return the crc32c of data[0,n-1].
template <typename Crc>
void ExpectRfc3720Results(Crc crc) {
  char buf[32];

  memset(buf, 0, sizeof(buf));
  EXPECT_EQ(0x8a9136aau, crc(buf, sizeof(buf)));

  memset(buf, 0xff, sizeof(buf));
  EXPECT_EQ(0x62a8ab43u, crc(buf, sizeof(buf)));

  for (int i = 0; i < 32; i++) {
    buf[i] = i;
  }
  EXPECT_EQ(0x46dd794eu, crc(buf, sizeof(buf)));

  for (int i = 0; i < 32; i++) {
    buf[i] = 31 - i;
  }
  EXPECT_EQ(0x113fdb5cu, crc(buf, sizeof(buf)));

  uint8_t data[48] = {
      0x01, 0xc0, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00,
      0x00, 0x00, 0x00, 0x00, 0x14, 0x00, 0x00, 0x00, 0x00, 0x00, 0x04, 0x00,
      0x00, 0x00, 0x00, 0x14, 0x00, 0x00, 0x00, 0x18, 0x28, 0x00, 0x00, 0x00,
      0x00, 0x00, 0x00, 0x00, 0x02, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00,
  };
  EXPECT_EQ(0xd9963a56u, crc(reinterpret_cast<char*>(data), sizeof(data)));
}

TEST(Crc32c, StandardResults) { ExpectRfc3720Results(Value); }

TEST(Crc32c, Values) { EXPECT_NE(Value("a", 1), Value("foo", 3)); }

TEST(Crc32c, Extend) {
  EXPECT_EQ(Value("hello world", 11), Extend(Value("hello ", 6), "world", 5));
}

TEST(Crc32c, Mask) {
  uint32_t crc = Value("foo", 3);
  EXPECT_NE(crc, Mask(crc));
  EXPECT_NE(crc, Mask(Mask(crc)));
  EXPECT_EQ(crc, Unmask(Mask(crc)));
  EXPECT_EQ(crc, Unmask(Unmask(Mask(Mask(crc)))));
}

TEST(Crc32c, EmptyInput) { EXPECT_EQ(0u, Value("", 0)); }

TEST(Crc32c, IncrementalMatchesOneShot) {
  std::string data;
  for (int i = 0; i < 1000; i++) data.push_back(static_cast<char>(i * 37));
  for (size_t split = 0; split <= data.size(); split += 97) {
    uint32_t a = Value(data.data(), data.size());
    uint32_t b = Extend(Value(data.data(), split), data.data() + split,
                        data.size() - split);
    EXPECT_EQ(a, b) << "split=" << split;
  }
}

// ---------------------------------------------------------------------------
// Kernel conformance: every kernel behind Extend(), and the dispatched
// Extend() itself, must match a bitwise reference exactly, so tables, WALs,
// MANIFESTs and vLog segments stay readable whichever kernel wrote them.
// ---------------------------------------------------------------------------

namespace {

// One bit per step, straight from the definition (reflected 0x82F63B78,
// pre- and post-inverted).
uint32_t ReferenceExtend(uint32_t init_crc, const char* data, size_t n) {
  uint32_t crc = init_crc ^ 0xFFFFFFFFu;
  for (size_t i = 0; i < n; i++) {
    crc ^= static_cast<unsigned char>(data[i]);
    for (int bit = 0; bit < 8; bit++) {
      crc = (crc >> 1) ^ ((crc & 1) ? 0x82F63B78u : 0);
    }
  }
  return crc ^ 0xFFFFFFFFu;
}

struct KernelCase {
  const char* name;
  uint32_t (*extend)(uint32_t, const char*, size_t);
  bool (*supported)();
};

void PrintTo(const KernelCase& k, std::ostream* os) { *os << k.name; }

bool Always() { return true; }

const KernelCase kKernels[] = {
    {"Portable", internal::ExtendPortable, Always},
#if defined(__x86_64__)
    {"Sse42", internal::ExtendSse42, internal::Sse42Supported},
#endif
    {"Dispatched", Extend, Always},
};

}  // namespace

class Crc32cKernelTest : public ::testing::TestWithParam<KernelCase> {
 protected:
  void SetUp() override {
    if (!GetParam().supported()) {
      GTEST_SKIP() << GetParam().name << " is not supported on this CPU";
    }
  }

  uint32_t Run(uint32_t init_crc, const char* data, size_t n) const {
    return GetParam().extend(init_crc, data, n);
  }

  // |n| random bytes, with 7 bytes of slack so every start alignment 0-7
  // can read a window of |n| bytes.
  static std::string RandomBytes(size_t n, uint64_t seed) {
    Random rnd(seed);
    std::string s(n + 7, '\0');
    for (char& c : s) c = static_cast<char>(rnd.Next());
    return s;
  }
};

TEST_P(Crc32cKernelTest, StandardResults) {
  ExpectRfc3720Results(
      [this](const char* data, size_t n) { return Run(0, data, n); });
}

TEST_P(Crc32cKernelTest, MatchesReferenceAtEveryLengthAndAlignment) {
  constexpr size_t kMaxLen = 4200;
  const std::string buf = RandomBytes(kMaxLen, 301);
  Random rnd(302);
  for (size_t align = 0; align < 8; align++) {
    const char* p = buf.data() + align;
    for (int round = 0; round < 3; round++) {
      const uint32_t init = rnd.Next();
      // The reference is extended one byte at a time, so each length costs
      // one kernel call and one reference byte.
      uint32_t expected = init;
      for (size_t len = 0; len <= kMaxLen; len++) {
        if (len > 0) expected = ReferenceExtend(expected, p + len - 1, 1);
        ASSERT_EQ(expected, Run(init, p, len))
            << "align=" << align << " len=" << len << " init=" << init;
      }
    }
  }
}

TEST_P(Crc32cKernelTest, MatchesReferenceOn64KiB) {
  constexpr size_t kLen = 64 << 10;
  const std::string buf = RandomBytes(kLen, 303);
  Random rnd(304);
  for (size_t align = 0; align < 8; align++) {
    const uint32_t init = rnd.Next();
    const char* p = buf.data() + align;
    EXPECT_EQ(ReferenceExtend(init, p, kLen), Run(init, p, kLen))
        << "align=" << align;
  }
}

TEST_P(Crc32cKernelTest, EverySplitPointExtends) {
  constexpr size_t kLen = 1100;
  const std::string buf = RandomBytes(kLen, 305);
  Random rnd(306);
  for (size_t align = 0; align < 8; align++) {
    const uint32_t init = rnd.Next();
    const char* p = buf.data() + align;
    const uint32_t whole = ReferenceExtend(init, p, kLen);
    for (size_t split = 0; split <= kLen; split++) {
      ASSERT_EQ(whole, Run(Run(init, p, split), p + split, kLen - split))
          << "align=" << align << " split=" << split;
    }
  }
}

TEST_P(Crc32cKernelTest, EverySingleBitFlipInA4KiBBlockIsDetected) {
  constexpr size_t kLen = 4096;
  std::string block = RandomBytes(kLen, 307);
  block.resize(kLen);
  const uint32_t clean = Run(0, block.data(), kLen);
  for (size_t bit = 0; bit < kLen * 8; bit++) {
    block[bit / 8] ^= static_cast<char>(1 << (bit % 8));
    ASSERT_NE(clean, Run(0, block.data(), kLen)) << "bit=" << bit;
    block[bit / 8] ^= static_cast<char>(1 << (bit % 8));
  }
}

INSTANTIATE_TEST_SUITE_P(Kernels, Crc32cKernelTest,
                         ::testing::ValuesIn(kKernels),
                         [](const ::testing::TestParamInfo<KernelCase>& info) {
                           return std::string(info.param.name);
                         });

}  // namespace crc32c
}  // namespace acheron
