// Workload `ingest`: text -> Document::FromText (default compressor) ->
// Document::Save, closed loop, one client.
//
// Logs, versioned documents and DNA of several sizes take turns, so a
// compressor change that helps only repetitive text shows against the family
// it does not help. Every 16th document is a large one (a 400-line log, as
// `serve` and `restart` build in set-up, or 16 KiB of DNA), so a change whose
// gain grows with the input shows too. The `slp` layer does nearly all the
// work here and none in the other workloads' measured loops. Every request is
// checked by reloading the saved grammar and expanding it: it must equal the
// input byte for byte.

#include <string>
#include <vector>

#include "common.h"

namespace perfbench {
namespace {

using slpspan::Document;
using slpspan::DocumentPtr;
using slpspan::Result;

constexpr int kFamilies = 3;
constexpr const char* kFamilyName[kFamilies] = {"log", "versioned", "dna"};
constexpr const char* kFromTextSpan[kFamilies] = {"FromText/log", "FromText/versioned",
                                                  "FromText/dna"};

struct IngestClass {
  const char* name;
  int family;     // index into kFamilyName
  uint64_t size;  // log lines, versioned base bytes (8 versions), DNA bytes
  size_t pool;    // distinct texts: a run rarely compresses one twice
};

// The small classes come first: an odd number with well-separated costs, so
// the median request falls inside one class (dna/1.5k). The large classes
// follow. dna/16k costs about 15x the next class and is 1 request in 32, so
// the p99 falls well inside it (near its 70th percentile).
constexpr IngestClass kClasses[] = {
    {"log/2k", 0, 50, 1024},   {"versioned/1k", 1, 150, 1024}, {"dna/1.5k", 2, 1536, 1024},
    {"log/8k", 0, 200, 1024},  {"dna/3k", 2, 3072, 1024},      {"log/16k", 0, 400, 64},
    {"dna/16k", 2, 16384, 64},
};
constexpr size_t kNumClasses = sizeof(kClasses) / sizeof(kClasses[0]);
constexpr size_t kNumSmall = 5;
constexpr uint64_t kLargeEvery = 16;

/// Request i's class: every kLargeEvery-th request takes the large classes
/// in turn, the others cycle through the small ones.
size_t ClassOf(uint64_t i) {
  if (i % kLargeEvery == kLargeEvery - 1) {
    return kNumSmall + (i / kLargeEvery) % (kNumClasses - kNumSmall);
  }
  return (i - i / kLargeEvery) % kNumSmall;
}

struct Inputs {
  std::vector<std::string> texts[kNumClasses];
};

Inputs MakeInputs(uint64_t seed) {
  Inputs in;
  for (size_t c = 0; c < kNumClasses; ++c) {
    for (size_t i = 0; i < kClasses[c].pool; ++i) {
      const uint64_t s = SubSeed(seed, c, i);
      const uint64_t size = kClasses[c].size;
      in.texts[c].push_back(kClasses[c].family == 0   ? LogText(s, size)
                            : kClasses[c].family == 1 ? VersionedText(s, size, 8)
                                                      : DnaText(s, size));
    }
  }
  return in;
}

struct LoopResult {
  std::vector<double> sequence_ms;  // request latencies in request order
  Dist class_ms[kNumClasses];
  double request_s = 0;
  double rules = 0;
  double depth = 0;
  double input_bytes = 0;
  uint64_t n = 0;
};

LoopResult Loop(const Inputs& in, const std::string& path, double seconds,
                Report& report) {
  LoopResult r;
  size_t taken[kNumClasses] = {};
  CpuRotation rotation;
  const int64_t end = NowNs() + static_cast<int64_t>(seconds * 1e9);
  for (uint64_t i = 0; NowNs() < end; ++i) {
    rotation.Before(i);
    const size_t c = ClassOf(i);
    const int fam = kClasses[c].family;
    const std::string& text = in.texts[c][taken[c]++ % kClasses[c].pool];
    report.Attempt();
    const int64_t t0 = NowNs();
    Result<DocumentPtr> doc = slpspan::Status::InvalidArgument("unset");
    slpspan::Status saved;
    {
      Scope request("ingest.request", i);
      {
        Scope s(kFromTextSpan[fam], i);
        doc = Document::FromText(text);
      }
      if (doc.ok()) {
        Scope s("Save", i);
        saved = doc.value()->Save(path);
      }
    }
    const int64_t t1 = NowNs();
    if (!doc.ok() || !saved.ok()) {
      report.Fail(Fmt("ingest %s: %s", kClasses[c].name,
                      (doc.ok() ? saved : doc.status()).ToString().c_str()));
      continue;
    }
    Result<DocumentPtr> reloaded = slpspan::Status::InvalidArgument("unset");
    {
      Scope s("FromSlpFile", i);
      reloaded = Document::FromSlpFile(path);
    }
    if (!reloaded.ok() || reloaded.value()->slp().ExpandToString() != text) {
      report.Fail(Fmt("ingest %s: grammar does not expand to its input",
                      kClasses[c].name));
      continue;
    }
    const auto st = doc.value()->stats();
    r.sequence_ms.push_back(NsToMs(t1 - t0));
    r.class_ms[c].Add(NsToMs(t1 - t0));
    r.request_s += static_cast<double>(t1 - t0) / 1e9;
    r.rules += static_cast<double>(st.paper_size);
    r.depth += st.depth;
    r.input_bytes += static_cast<double>(text.size());
    ++r.n;
  }
  return r;
}

}  // namespace

int RunIngest(const Config& cfg, Report& report) {
  Inputs in;
  const double setup_s =
      MedianSetupSeconds(8, /*rotate_cpus=*/true, [&] { in = MakeInputs(cfg.seed); });
  const std::string path = cfg.workdir + "/ingest.slp";

  if (!cfg.trace) {
    LoopResult r = Loop(in, path, cfg.seconds, report);
    report.Set("setup_s", setup_s);
    SetLatencyMetrics(report, r.sequence_ms, /*closed_loop=*/true);
    for (size_t c = 0; c < kNumClasses; ++c) {
      report.Note(Fmt("ingest %-12s p50 %.3f ms p99 %.3f ms", kClasses[c].name,
                      r.class_ms[c].Median(), r.class_ms[c].Pct(0.99)));
    }
    report.Note(Fmt("ingest: %llu documents, %.3f MB/s through FromText+Save, "
                    "%.1f rules/KiB",
                    static_cast<unsigned long long>(r.n),
                    r.input_bytes / 1e6 / std::max(r.request_s, 1e-9),
                    r.rules / std::max(r.input_bytes / 1024.0, 1e-9)));
    return 0;
  }

  LoopResult plain = Loop(in, path, cfg.seconds / 2, report);
  Trace().Enable(true);
  LoopResult traced = Loop(in, path, cfg.seconds / 2, report);
  Trace().Enable(false);

  double compress_s = 0;
  for (int f = 0; f < kFamilies; ++f) {
    Dist d = Trace().Micros(kFromTextSpan[f]);
    report.Set(Fmt("slp.compress_s.%s", kFamilyName[f]), d.Mean() / 1e6);
    compress_s += d.Sum() / 1e6;
  }
  const double n = static_cast<double>(std::max<uint64_t>(traced.n, 1));
  report.Set("slp.rules", traced.rules / n);
  report.Set("slp.depth", traced.depth / n);
  report.Set("slp.save_ms", Trace().Micros("Save").Median() / 1e3);
  report.Set("slp.load_ms", Trace().Micros("FromSlpFile").Median() / 1e3);
  report.Set("slp.rules_per_kb", traced.rules / std::max(traced.input_bytes / 1024.0, 1e-9));
  report.Set("slp.ingest_mb_s", traced.input_bytes / 1e6 / std::max(compress_s, 1e-9));
  report.Set("trace.overhead_pct", OverheadPct(plain.sequence_ms, traced.sequence_ms));
  return 0;
}

}  // namespace perfbench
