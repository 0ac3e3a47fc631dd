// M1–M5 (CRC/coding) -- CRC32C throughput: the dispatched Extend(), which is
// the SSE4.2 crc32 instruction on x86-64 CPUs that have it, against the
// portable slice-by-8 kernel, at a WAL-record, a data-block and a large size.
#include <benchmark/benchmark.h>

#include <string>

#include "src/util/crc32c.h"
#include "src/util/random.h"

namespace acheron {

static std::string RandomBuffer(size_t n) {
  Random rnd(17);
  std::string s(n, '\0');
  for (char& c : s) c = static_cast<char>(rnd.Next());
  return s;
}

template <uint32_t (*kExtend)(uint32_t, const char*, size_t)>
static void BM_Crc32c(benchmark::State& state) {
  const std::string buf = RandomBuffer(static_cast<size_t>(state.range(0)));
  uint32_t crc = 0;
  for (auto _ : state) {
    crc = kExtend(crc, buf.data(), buf.size());
    benchmark::DoNotOptimize(crc);
  }
  state.SetBytesProcessed(state.iterations() *
                          static_cast<int64_t>(buf.size()));
}
BENCHMARK_TEMPLATE(BM_Crc32c, crc32c::Extend)
    ->Name("BM_Crc32c/Dispatched")
    ->Arg(64)
    ->Arg(4 << 10)
    ->Arg(64 << 10);
BENCHMARK_TEMPLATE(BM_Crc32c, crc32c::internal::ExtendPortable)
    ->Name("BM_Crc32c/Portable")
    ->Arg(64)
    ->Arg(4 << 10)
    ->Arg(64 << 10);

}  // namespace acheron

BENCHMARK_MAIN();
