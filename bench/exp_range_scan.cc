// E6 -- Range scan cost vs tombstone density: scans must step over live
// tombstones; FADE's purged tree scans fewer dead entries.
//
// A second sweep holds 0, 100, 400 and 1600 live range tombstones in a
// quiescent tree and reports scan p50 at each point. Every iterator on one
// version shares that version's fragmented range tombstones, so each
// point's scan phase must build them exactly once (the sweep aborts
// otherwise) and the p50 stays flat as the population grows.
//
// With --json=PATH, appends one schema-gated record (bench="range_scan",
// extra keys registered in tools/check_bench_json.py) for the largest
// population.
#include <cstring>
#include <string>
#include <vector>

#include "bench/bench_common.h"

namespace acheron {
namespace bench {

struct Result {
  double scans_per_sec;
  double skipped_per_scan;  // tombstones stepped over per scan, scan phase only
};

static Result Run(uint64_t dth, int delete_percent) {
  Options options = BenchOptions();
  options.delete_persistence_threshold = dth;
  BenchDB db(options);

  workload::WorkloadSpec spec;
  spec.num_ops = 100000 * Scale();
  spec.key_space = 10000;
  spec.value_size = 64;
  spec.update_percent = 20;
  spec.delete_percent = delete_percent;
  spec.seed = 23;

  workload::Generator gen(spec);
  WriteOptions wo;
  for (uint64_t i = 0; i < spec.num_ops; i++) {
    workload::Op op = gen.Next();
    if (op.type == workload::OpType::kDelete) {
      CheckOk(db->Delete(wo, op.key));
    } else {
      CheckOk(db->Put(wo, op.key, op.value));
    }
  }
  CheckOk(db->WaitForCompactions());

  const uint64_t kScans = 3000 * Scale();
  const int kScanLength = 64;
  Random rnd(31);
  ReadOptions ro;
  // Snapshot the skip counter so the fill phase's iterators (none today,
  // but SpaceAmplification-style helpers scan too) don't pollute the
  // per-scan figure.
  const uint64_t skipped_before = db->GetStats().iter_tombstones_skipped;
  auto start = std::chrono::steady_clock::now();
  for (uint64_t i = 0; i < kScans; i++) {
    std::unique_ptr<Iterator> it(db->NewIterator(ro));
    int n = 0;
    for (it->Seek(gen.KeyAt(rnd.Uniform(spec.key_space)));
         it->Valid() && n < kScanLength; it->Next()) {
      n++;
    }
  }
  auto end = std::chrono::steady_clock::now();
  double secs = std::chrono::duration<double>(end - start).count();
  const uint64_t skipped =
      db->GetStats().iter_tombstones_skipped - skipped_before;
  return {kScans / secs, static_cast<double>(skipped) / kScans};
}

struct SweepPoint {
  uint64_t range_tombstones = 0;  // live in the tree during the scans
  uint64_t scans = 0;
  double scans_per_sec = 0;
  Histogram scan_latency;  // microseconds per scan (create, seek, 64 nexts)
  uint64_t fragment_builds = 0;  // during the scan phase
  InternalStats stats;
};

static SweepPoint RunSweepPoint(uint64_t range_tombstones) {
  Options options = BenchOptions();
  BenchDB db(options);
  const uint64_t kKeys = 20000;
  auto key = [](uint64_t i) {
    char buf[16];
    std::snprintf(buf, sizeof(buf), "key%08llu",
                  static_cast<unsigned long long>(i));
    return std::string(buf);
  };
  WriteOptions wo;
  const std::string value(64, 'v');
  for (uint64_t i = 0; i < kKeys; i++) CheckOk(db->Put(wo, key(i), value));
  // The snapshot predates every range delete, so compactions must keep the
  // tombstones (and what they cover) live: the population is exact.
  const Snapshot* snap = db->GetSnapshot();
  const uint64_t stride = kKeys / (range_tombstones + 1);
  for (uint64_t t = 0; t < range_tombstones; t++) {
    const uint64_t begin = (t + 1) * stride;
    CheckOk(db->DeleteRange(wo, key(begin), key(begin + 2)));
  }
  CheckOk(db->FlushMemTable());
  CheckOk(db->WaitForCompactions());
  const uint64_t live = db.PropertyU64("acheron.total-range-tombstones");
  if (live != range_tombstones) {
    std::fprintf(stderr, "E6 sweep: %llu live range tombstones, want %llu\n",
                 static_cast<unsigned long long>(live),
                 static_cast<unsigned long long>(range_tombstones));
    std::abort();
  }

  SweepPoint point;
  point.range_tombstones = range_tombstones;
  point.scans = 3000 * Scale();
  const int kScanLength = 64;
  Random rnd(37);
  ReadOptions ro;
  const uint64_t builds_before = db->GetStats().range_fragment_builds;
  auto start = std::chrono::steady_clock::now();
  for (uint64_t i = 0; i < point.scans; i++) {
    auto scan_start = std::chrono::steady_clock::now();
    std::unique_ptr<Iterator> it(db->NewIterator(ro));
    int n = 0;
    for (it->Seek(key(rnd.Uniform(kKeys))); it->Valid() && n < kScanLength;
         it->Next()) {
      n++;
    }
    CheckOk(it->status());
    point.scan_latency.Add(std::chrono::duration<double, std::micro>(
                               std::chrono::steady_clock::now() - scan_start)
                               .count());
  }
  double secs = std::chrono::duration<double>(
                    std::chrono::steady_clock::now() - start)
                    .count();
  point.scans_per_sec = point.scans / secs;
  point.stats = db->GetStats();
  point.fragment_builds = point.stats.range_fragment_builds - builds_before;
  // Counts, not timings: a quiescent tree is one version, so its fragments
  // are built by the first scan and shared by all the others.
  if (point.fragment_builds != 1) {
    std::fprintf(stderr, "E6 sweep: %llu fragment builds at %llu range "
                 "tombstones, want exactly 1\n",
                 static_cast<unsigned long long>(point.fragment_builds),
                 static_cast<unsigned long long>(range_tombstones));
    std::abort();
  }
  db->ReleaseSnapshot(snap);
  return point;
}

static void Main(const std::string& json_path) {
  PrintHeader("E6: range scan cost vs tombstone density",
              "64-entry scans; 'skip/scan' = dead entries stepped over "
              "per scan");
  std::printf("%-10s | %13s %12s | %13s %12s | %8s\n", "deletes",
              "base(scan/s)", "skip/scan", "fade(scan/s)", "skip/scan",
              "speedup");
  for (int delete_percent : {2, 10, 25, 40}) {
    Result base = Run(0, delete_percent);
    Result fade = Run(20000 * Scale(), delete_percent);
    std::printf("%9d%% | %13.0f %12.2f | %13.0f %12.2f | %7.2fx\n",
                delete_percent, base.scans_per_sec, base.skipped_per_scan,
                fade.scans_per_sec, fade.skipped_per_scan,
                fade.scans_per_sec / base.scans_per_sec);
  }

  std::printf("\n%-16s | %10s %10s %12s | %7s\n", "range tombstones",
              "scan p50us", "p99us", "scans/s", "builds");
  std::vector<SweepPoint> sweep;
  for (uint64_t n : {0, 100, 400, 1600}) {
    sweep.push_back(RunSweepPoint(n));
    const SweepPoint& p = sweep.back();
    std::printf("%16llu | %10.2f %10.2f %12.0f | %7llu\n",
                static_cast<unsigned long long>(p.range_tombstones),
                p.scan_latency.Percentile(50.0),
                p.scan_latency.Percentile(99.0), p.scans_per_sec,
                static_cast<unsigned long long>(p.fragment_builds));
  }

  if (!json_path.empty()) {
    const SweepPoint& top = sweep.back();
    char extra[320];
    std::snprintf(
        extra, sizeof(extra),
        "\"range_tombstones\":%llu,\"fragment_builds\":%llu,"
        "\"scan_p50_us_by_range_tombstones\":{\"0\":%.2f,\"100\":%.2f,"
        "\"400\":%.2f,\"1600\":%.2f}",
        static_cast<unsigned long long>(top.range_tombstones),
        static_cast<unsigned long long>(top.fragment_builds),
        sweep[0].scan_latency.Percentile(50.0),
        sweep[1].scan_latency.Percentile(50.0),
        sweep[2].scan_latency.Percentile(50.0),
        sweep[3].scan_latency.Percentile(50.0));
    WriteJsonResult(json_path, "range_scan", /*threads=*/1, top.scans,
                    top.scans_per_sec, top.scan_latency, top.stats, extra);
  }
}

}  // namespace bench
}  // namespace acheron

int main(int argc, char** argv) {
  std::string json_path;
  for (int i = 1; i < argc; i++) {
    if (std::strncmp(argv[i], "--json=", 7) == 0) json_path = argv[i] + 7;
  }
  acheron::bench::Main(json_path);
}
