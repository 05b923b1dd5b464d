// Experiment E11 — the persistent prepared-state store: what a bundle buys.
//
//   (a) Cold vs warm preparation per workload: t_cold pays the full
//       O(|M| + size(S)·q³) Lemma 6.5 build; t_disk loads the exported
//       ".prep" bundle (mmap + validated deserialization) into a fresh
//       Document; t_ram is a plain cache hit. The acceptance bar is
//       disk-warm ≥ 10× faster than cold on the large document — the whole
//       point of spilling is that deserialization is an order of magnitude
//       cheaper than re-deriving the tables. t_cold and t_disk are best of
//       7, and the process exits 1 when the large document misses the bar.
//
//       Re-baselined for PR 5: t_cold now runs the product-memoized
//       preparation (the process default), so the large-document ratio
//       shrank from ~19× to ~16× — memoization cheapens exactly the work a
//       bundle load skips. These queries are small-q (the memo's win here
//       is ~2×, vs ≥5× in bench E13's large-q regime), so the honest
//       post-memoization ratio still clears the 10× bar with margin; the
//       bar is unchanged rather than lowered.
//   (b) The spill tier end to end: evict under a zero budget (synchronous
//       spill), then time the next miss being served from the disk tier.
//
// Emits one JSON document ("JSON: " line and --json=PATH) extending the
// BENCH_*.json trajectory.

#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

#include "harness.h"
#include "slpspan/slpspan.h"
#include "slpspan/textgen.h"

namespace slpspan {
namespace {

constexpr uint64_t kDefaultBudget = RuntimeOptions{}.cache_bytes;
constexpr int kTimedReps = 7;  // best-of count for t_cold and t_disk
constexpr double kMinLargeDiskSpeedup = 10.0;

std::string TempDir() {
  const std::string dir =
      (std::filesystem::temp_directory_path() / "slpspan_e11").string();
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  return dir;
}

// Returns whether the large workload's disk-warm load is >= 10x faster
// than its cold preparation.
bool ColdVsWarmSweep(const std::string& dir, bench::Json* json) {
  bench::Table table(
      "E11a: preparation — cold (build) vs warm-from-disk vs warm-from-RAM",
      {"workload", "size(S)", "bundle (KiB)", "t_cold (us)", "t_disk (us)",
       "t_ram (us)", "cold/disk", "cold/ram"});

  struct Workload {
    const char* name;
    std::string text;
    const char* pattern;
    std::string alphabet;
    bool is_large = false;
  };
  std::string ascii;
  for (char c = 32; c < 127; ++c) ascii += c;
  ascii += '\n';
  const Workload workloads[] = {
      {"log 1k lines", GenerateLog({.lines = 1000, .seed = 5}),
       ".*user=x{u[0-9]+}.*", ascii, false},
      {"log 16k lines (large)", GenerateLog({.lines = 16000, .seed = 6}),
       ".*user=x{u[0-9]+}.*", ascii, true},
      {"dna 256k", GenerateDna({.length = 1 << 18, .motif_rate = 0.001, .seed = 7}),
       ".*x{ACGTACGT}.*", "ACGT", false},
  };

  bool large_disk_10x = false;
  std::vector<std::string> rows;
  for (const Workload& w : workloads) {
    Result<Query> query = Query::Compile(w.pattern, w.alphabet);
    SLPSPAN_CHECK(query.ok());
    const DocumentPtr doc = *Document::FromText(w.text);

    // Cold: a fresh Document wrapper has no cache entry, so Count pays the
    // whole preparation (grammar reused; compression excluded).
    const double t_cold = bench::TimeSeconds(
        [&] {
          const Engine engine(*query, Document::FromSlp(doc->slp()));
          SLPSPAN_CHECK(engine.Count().ok());
        },
        kTimedReps);

    const std::string bundle = dir + "/" + Runtime::SpillBundleName(*doc, *query);
    SLPSPAN_CHECK(doc->SavePrepared(*query, bundle).ok());
    const uint64_t bundle_bytes = std::filesystem::file_size(bundle);

    // Disk-warm: fresh wrapper, bundle import instead of preparation.
    const double t_disk = bench::TimeSeconds(
        [&] {
          const DocumentPtr warm = Document::FromSlp(doc->slp());
          SLPSPAN_CHECK(warm->LoadPrepared(*query, bundle).ok());
          SLPSPAN_CHECK(Engine(*query, warm).Count().ok());
        },
        kTimedReps);

    // RAM-warm: the plain cache-hit path.
    (void)Engine(*query, doc).Count();
    const double t_ram = bench::TimeSeconds([&] {
      SLPSPAN_CHECK(Engine(*query, doc).Count().ok());
    });

    if (w.is_large) large_disk_10x = t_cold / t_disk >= kMinLargeDiskSpeedup;
    table.AddRow({w.name, bench::FmtCount(doc->stats().paper_size),
                  bench::FmtDouble(static_cast<double>(bundle_bytes) / 1024, 1),
                  bench::FmtMicros(t_cold), bench::FmtMicros(t_disk),
                  bench::FmtMicros(t_ram),
                  bench::FmtDouble(t_cold / t_disk, 1),
                  bench::FmtDouble(t_cold / t_ram, 0)});
    bench::Json row;
    row.Put("workload", std::string(w.name));
    row.Put("size_s", doc->stats().paper_size);
    row.Put("bundle_bytes", bundle_bytes);
    row.Put("t_cold_us", t_cold * 1e6);
    row.Put("t_disk_us", t_disk * 1e6);
    row.Put("t_ram_us", t_ram * 1e6);
    row.Put("disk_speedup", t_cold / t_disk);
    row.Put("ram_speedup", t_cold / t_ram);
    rows.push_back(row.Str());
  }
  table.Print();
  json->PutRaw("e11a_cold_vs_warm", bench::Json::Array(rows));
  json->Put("e11a_large_disk_warm_10x",
            std::string(large_disk_10x ? "true" : "false"));
  return large_disk_10x;
}

void SpillCycleSweep(const std::string& dir, bench::Json* json) {
  const std::string spill_dir = dir + "/spill";
  SLPSPAN_CHECK(Runtime::ConfigureSpill(
                    {.directory = spill_dir, .synchronous = true})
                    .ok());

  std::string ascii;
  for (char c = 32; c < 127; ++c) ascii += c;
  ascii += '\n';
  Result<Query> query = Query::Compile(".*x{ERROR|WARN}.*", ascii);
  SLPSPAN_CHECK(query.ok());
  const DocumentPtr doc =
      *Document::FromText(GenerateLog({.lines = 4000, .seed = 8}));

  // Build once, then spill by squeezing the RAM budget to zero.
  (void)Engine(*query, doc).Count();
  const double t_spill = bench::TimeSeconds(
      [&] { Runtime::SetCacheByteBudget(0); }, /*reps=*/1);
  Runtime::SetCacheByteBudget(kDefaultBudget);

  // The next miss is served from the spill tier.
  const double t_disk_hit = bench::TimeSeconds(
      [&] {
        const DocumentPtr warm = Document::FromSlp(doc->slp());
        SLPSPAN_CHECK(Engine(*query, warm).Count().ok());
      },
      /*reps=*/1);

  const Runtime::CacheStats stats = Runtime::cache_stats();
  std::printf(
      "\nE11b: spill cycle — evict+serialize %.1f ms, warm-from-spill miss "
      "%.1f ms (%llu disk hit(s), %llu byte(s) on disk)\n",
      t_spill * 1e3, t_disk_hit * 1e3,
      static_cast<unsigned long long>(stats.disk_hits),
      static_cast<unsigned long long>(stats.spill_bytes));

  bench::Json b;
  b.Put("t_spill_ms", t_spill * 1e3);
  b.Put("t_disk_hit_ms", t_disk_hit * 1e3);
  b.Put("disk_hits", stats.disk_hits);
  b.Put("spill_bytes", stats.spill_bytes);
  json->PutRaw("e11b_spill_cycle", b.Str());

  SLPSPAN_CHECK(Runtime::ConfigureSpill({}).ok());
}

}  // namespace
}  // namespace slpspan

int main(int argc, char** argv) {
  std::string json_path;
  for (int i = 1; i < argc; ++i) {
    if (std::strncmp(argv[i], "--json=", 7) == 0) json_path = argv[i] + 7;
  }

  const std::string dir = slpspan::TempDir();
  slpspan::bench::Json json;
  json.Put("bench", std::string("e11_storage"));
  const bool pass = slpspan::ColdVsWarmSweep(dir, &json);
  slpspan::SpillCycleSweep(dir, &json);
  std::filesystem::remove_all(dir);

  const std::string out = json.Str();
  std::printf("\nJSON: %s\n", out.c_str());
  if (!json_path.empty()) {
    std::ofstream f(json_path);
    f << out << "\n";
    if (!f) {
      std::fprintf(stderr, "cannot write %s\n", json_path.c_str());
      return 1;
    }
  }
  if (!pass) {
    std::fprintf(stderr, "E11a: large-document disk-warm speed-up below %.0fx\n",
                 slpspan::kMinLargeDiskSpeedup);
    return 1;
  }
  return 0;
}
