// Experiment E17 — what bundle format v2 buys on disk.
//
// Over the E11 storage workloads (log 1k / log 16k / dna 256k), export the
// prepared state in the legacy v1 format (the frozen internal writer) and
// in format v2 (what SavePrepared writes: bitpacked integer streams), and
// compare bundle sizes. The acceptance bar, asserted by exit code:
//
//   (a) corpus-wide, sum(v1 bytes) / sum(v2 bytes) >= 1.5x;
//   (b) both bundles load back and answer Count identically to the
//       in-memory preparation — compression never trades away
//       correctness.
//
// Also reports disk-warm load time per format, so the E11 >= 10x
// disk-warm story can be sanity-checked against the decode cost (v2
// decoding is sequential stream work over fewer bytes; E11 itself still
// enforces its bar).
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
#include "storage/prepared_bundle.h"

namespace slpspan {
namespace {

std::string TempDir() {
  const std::string dir =
      (std::filesystem::temp_directory_path() / "slpspan_e17").string();
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  return dir;
}

bool FormatSweep(const std::string& dir, bench::Json* json) {
  bench::Table table("E17: bundle bytes, legacy v1 vs format v2",
                     {"workload", "v1 (KiB)", "v2 (KiB)", "v1/v2",
                      "t_load v1 (us)", "t_load v2 (us)"});

  struct Workload {
    const char* name;
    std::string text;
    const char* pattern;
    std::string alphabet;
  };
  std::string ascii;
  for (char c = 32; c < 127; ++c) ascii += c;
  ascii += '\n';
  const Workload workloads[] = {
      {"log 1k lines", GenerateLog({.lines = 1000, .seed = 5}),
       ".*user=x{u[0-9]+}.*", ascii},
      {"log 16k lines", GenerateLog({.lines = 16000, .seed = 6}),
       ".*user=x{u[0-9]+}.*", ascii},
      {"dna 256k",
       GenerateDna({.length = 1 << 18, .motif_rate = 0.001, .seed = 7}),
       ".*x{ACGTACGT}.*", "ACGT"},
  };

  bool ok = true;
  uint64_t sum_v1 = 0, sum_v2 = 0;
  std::vector<std::string> rows;
  int wi = 0;
  for (const Workload& w : workloads) {
    ++wi;
    Result<Query> query = Query::Compile(w.pattern, w.alphabet);
    SLPSPAN_CHECK(query.ok());
    const DocumentPtr doc = *Document::FromText(w.text);
    // Count first: both bundles then carry the counting tables.
    const uint64_t expected = Engine(*query, doc).Count()->value;

    const std::string prefix = dir + "/w" + std::to_string(wi);
    const std::string v2_path = prefix + "_v2.prep";
    SLPSPAN_CHECK(doc->SavePrepared(*query, v2_path).ok());
    // The v1 writer is internal-only: serialize the same cached state.
    const std::string v1_path = prefix + "_v1.prep";
    {
      std::ofstream out(v1_path, std::ios::binary | std::ios::trunc);
      const std::string v1 = storage::SerializePreparedStateV1(
          *doc->PreparedFor(*query), doc->fingerprint(),
          query->fingerprint());
      out.write(v1.data(), static_cast<std::streamsize>(v1.size()));
      SLPSPAN_CHECK(static_cast<bool>(out));
    }

    uint64_t bytes[2] = {};
    double t_load[2] = {};
    const std::string paths[2] = {v1_path, v2_path};
    for (int f = 0; f < 2; ++f) {
      bytes[f] = std::filesystem::file_size(paths[f]);
      t_load[f] = bench::TimeSeconds([&] {
        const DocumentPtr fresh = Document::FromSlp(doc->slp());
        SLPSPAN_CHECK(fresh->LoadPrepared(*query, paths[f]).ok());
        SLPSPAN_CHECK(Engine(*query, fresh).Count().ok());
      });
      // (b) correctness: load into a fresh wrapper and re-answer Count.
      const DocumentPtr warm = Document::FromSlp(doc->slp());
      SLPSPAN_CHECK(warm->LoadPrepared(*query, paths[f]).ok());
      if (Engine(*query, warm).Count()->value != expected) {
        std::fprintf(stderr, "E17 FAIL: %s v%d loads a wrong count\n", w.name,
                     f + 1);
        ok = false;
      }
    }
    sum_v1 += bytes[0];
    sum_v2 += bytes[1];

    table.AddRow({w.name, bench::FmtDouble(static_cast<double>(bytes[0]) / 1024, 1),
                  bench::FmtDouble(static_cast<double>(bytes[1]) / 1024, 1),
                  bench::FmtDouble(static_cast<double>(bytes[0]) / bytes[1], 2),
                  bench::FmtMicros(t_load[0]), bench::FmtMicros(t_load[1])});
    bench::Json row;
    row.Put("workload", std::string(w.name));
    row.Put("bytes_v1", bytes[0]);
    row.Put("bytes_v2", bytes[1]);
    row.Put("t_load_v1_us", t_load[0] * 1e6);
    row.Put("t_load_v2_us", t_load[1] * 1e6);
    rows.push_back(row.Str());
  }
  table.Print();

  const double ratio = static_cast<double>(sum_v1) / sum_v2;
  std::printf("\nE17 corpus compression: %llu -> %llu bytes (%.2fx)\n",
              static_cast<unsigned long long>(sum_v1),
              static_cast<unsigned long long>(sum_v2), ratio);
  // (a) the compression bar.
  if (ratio < 1.5) {
    std::fprintf(stderr, "E17 FAIL: corpus ratio %.2fx < 1.5x bar\n", ratio);
    ok = false;
  }
  json->PutRaw("e17_formats", bench::Json::Array(rows));
  json->Put("e17_sum_v1_bytes", sum_v1);
  json->Put("e17_sum_v2_bytes", sum_v2);
  json->Put("e17_corpus_ratio", ratio);
  json->Put("e17_ratio_15x", std::string(ratio >= 1.5 ? "true" : "false"));
  return ok;
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
  json.Put("bench", std::string("e17_codecs"));
  const bool ok = slpspan::FormatSweep(dir, &json);
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
  return ok ? 0 : 1;
}
