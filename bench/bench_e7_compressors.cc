// Experiment E7 — SLP construction front-ends compared as inputs to the
// evaluation pipeline (paper Section 1.1: "algorithms for SLP-compressed
// data carry over to practical formats"). For each workload and compressor:
// compression ratio, depth, construction time, and downstream evaluation
// cost (prepare + full streaming enumeration), all through the public
// Document / Engine facade.
//
// E7b — RePair scaling: Document::FromText (RePair) on generated logs of
// about 0.17, 0.34, 0.68 and 1.35 MB, best of 3. Exits nonzero unless the
// 1.35 MB log compresses in <= 2 s and each doubling of the input grows the
// time by <= 2.5x (a per-round recount would grow ~4x). Emits one JSON
// document ("JSON: " line and --json=PATH).

#include <cstdio>
#include <cstring>
#include <fstream>
#include <string>
#include <vector>

#include "harness.h"
#include "slpspan/slpspan.h"
#include "slpspan/textgen.h"
#include "util/stopwatch.h"

namespace slpspan {
namespace {

struct Workload {
  std::string name;
  std::string text;
  std::string pattern;
  std::string alphabet;
};

std::string FullAscii() {
  std::string a;
  for (char c = 32; c < 127; ++c) a += c;
  a += '\n';
  return a;
}

void RunE7() {
  const std::vector<Workload> workloads = {
      {"log (1k lines)", GenerateLog({.lines = 1000, .seed = 1}),
       ".*user=x{u[0-9]+} action=y{[A-Z]+} status=500\n.*", FullAscii()},
      {"dna (64k)", GenerateDna({.length = 65536, .motif_rate = 0.002, .seed = 2}),
       ".*x{ACGTACGT}.*", "ACGT"},
      {"versioned (40x1k)",
       GenerateVersionedDoc({.base_length = 1000, .versions = 40, .seed = 3}),
       ".*x{ab}.*", "abcdefghijklmnopqrstuvwxyz ,.\n"},
      {"random (32k)", GenerateRandom(32768, "abcd", 4), ".*x{abcd}.*", "abcd"},
  };

  for (const Workload& w : workloads) {
    Result<Query> query = Query::Compile(w.pattern, w.alphabet);
    SLPSPAN_CHECK(query.ok());

    bench::Table table("E7: compressors on " + w.name + " (d = " +
                           bench::FmtCount(w.text.size()) + ")",
                       {"compressor", "size(S)", "d/s", "depth", "t_build (ms)",
                        "t_eval (ms)", "results"});

    struct Entry {
      const char* name;
      DocumentPtr doc;
      double build_secs;
    };
    std::vector<Entry> entries;
    const auto add = [&](const char* name, auto build) {
      Stopwatch sw;
      DocumentPtr doc = build();
      entries.push_back({name, std::move(doc), sw.ElapsedSeconds()});
    };
    add("RePair", [&] { return *Document::FromText(w.text, Compression::kRePair); });
    add("LZ78", [&] { return *Document::FromText(w.text, Compression::kLz78); });
    add("LZ77 (AVL)",
        [&] { return *Document::FromText(w.text, Compression::kLz77); });
    add("LZ78+rebalance", [&] {
      return Document::FromSlp(
          Rebalance((*Document::FromText(w.text, Compression::kLz78))->slp()));
    });
    add("balanced tree",
        [&] { return *Document::FromText(w.text, Compression::kBalanced); });

    for (const Entry& entry : entries) {
      uint64_t results = 0;
      const double eval_secs = bench::TimeSeconds(
          [&] {
            // Fresh Document wrapper so every run pays the preparation.
            const Engine engine(*query, Document::FromSlp(entry.doc->slp()));
            results = 0;
            for (ResultStream s = engine.Extract(); s.Valid(); s.Next()) {
              ++results;
            }
          },
          /*reps=*/1);
      table.AddRow(
          {entry.name, bench::FmtCount(entry.doc->slp().PaperSize()),
           bench::FmtDouble(static_cast<double>(w.text.size()) /
                                static_cast<double>(entry.doc->slp().PaperSize()),
                            1),
           std::to_string(entry.doc->slp().depth()),
           bench::FmtDouble(entry.build_secs * 1e3, 1),
           bench::FmtDouble(eval_secs * 1e3, 1), bench::FmtCount(results)});
    }
    table.Print();
  }
  std::printf(
      "\nExpected shape: RePair yields the smallest grammars on repetitive\n"
      "inputs (logs/versioned), LZ78 builds fastest at moderate ratios, the\n"
      "balanced tree never compresses but bounds depth; rebalancing buys a\n"
      "log-depth grammar for a size factor. Downstream evaluation cost\n"
      "follows size(S), per Theorems 5.1/7.1/8.10.\n");
}

// Returns whether both scaling bars hold. The three repetitions sweep all
// sizes in turn, so a noisy stretch on the host hits every size alike
// instead of one; an untimed sweep first lets the allocator reach its
// steady state, so no size is timed only on first-touched memory.
bool RunE7b(bench::Json* json) {
  constexpr double kMaxLargeSeconds = 2.0;
  constexpr double kMaxDoublingGrowth = 2.5;
  constexpr int kReps = 3;
  const uint64_t kLines[] = {4000, 8000, 16000, 32000};
  std::vector<std::string> texts;
  for (const uint64_t lines : kLines) texts.push_back(GenerateLog({.lines = lines, .seed = 1}));
  std::vector<double> best(texts.size(), 1e300);
  std::vector<uint64_t> size_s(texts.size());
  for (const std::string& text : texts) {
    SLPSPAN_CHECK(Document::FromText(text, Compression::kRePair).ok());
  }
  for (int rep = 0; rep < kReps; ++rep) {
    for (size_t i = 0; i < texts.size(); ++i) {
      Stopwatch sw;
      const DocumentPtr doc = *Document::FromText(texts[i], Compression::kRePair);
      best[i] = std::min(best[i], sw.ElapsedSeconds());
      size_s[i] = doc->slp().PaperSize();
    }
  }

  bench::Table table("E7b: RePair scaling on generated logs (best of 3)",
                     {"lines", "d (MB)", "size(S)", "t (s)", "MB/s", "growth"});
  bool pass = best.back() <= kMaxLargeSeconds;
  std::vector<std::string> rows;
  for (size_t i = 0; i < texts.size(); ++i) {
    const double mb = static_cast<double>(texts[i].size()) / 1e6;
    const double growth = i > 0 ? best[i] / best[i - 1] : 0;
    if (growth > kMaxDoublingGrowth) pass = false;
    table.AddRow({std::to_string(kLines[i]), bench::FmtDouble(mb, 2),
                  bench::FmtCount(size_s[i]), bench::FmtDouble(best[i], 3),
                  bench::FmtDouble(mb / best[i], 1),
                  i > 0 ? bench::FmtDouble(growth, 2) + "x" : "-"});
    bench::Json row;
    row.Put("lines", kLines[i]);
    row.Put("bytes", static_cast<uint64_t>(texts[i].size()));
    row.Put("size_s", size_s[i]);
    row.Put("seconds", best[i]);
    row.Put("growth", growth);
    rows.push_back(row.Str());
  }
  table.Print();
  std::printf("\nE7b bars: largest log <= %.1f s, each doubling <= %.1fx: %s\n",
              kMaxLargeSeconds, kMaxDoublingGrowth, pass ? "PASS" : "FAIL");
  json->PutRaw("e7b_repair_scaling", bench::Json::Array(rows));
  json->Put("e7b_pass", std::string(pass ? "true" : "false"));
  return pass;
}

}  // namespace
}  // namespace slpspan

int main(int argc, char** argv) {
  std::string json_path;
  for (int i = 1; i < argc; ++i) {
    if (std::strncmp(argv[i], "--json=", 7) == 0) json_path = argv[i] + 7;
  }

  slpspan::RunE7();
  slpspan::bench::Json json;
  json.Put("bench", std::string("e7_compressors"));
  const bool pass = slpspan::RunE7b(&json);

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
  return pass ? 0 : 1;
}
