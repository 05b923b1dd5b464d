// Workload `cold`: first-touch (document, pattern) requests, closed loop,
// one client.
//
// Grammars are built in setup. Each request takes fresh Query and Document
// handles, so nothing is cached: Query::Compile, Document::PreparedFor
// (Lemma 6.5 preparation, called explicitly so that the counting-table
// build of the first Count shows on its own), Engine::Count, then one page
// (256 tuples) of Engine::Extract. Spill is off. The classes span
// repetitive logs (q = 92, high memo hit ratio), versioned documents, and
// low-repetition DNA with q from 11 to 134 (dense kernels, low hit ratio),
// so `spanner` and `core` preparation dominate here while their cost is ~0
// on `serve` and `restart`.
//
// Checks: Count equals the number of extracted tuples whenever the result
// fits in the page, and on every fourth request IsNonEmpty equals
// Count > 0.

#include <string>
#include <vector>

#include "common.h"

namespace perfbench {
namespace {

using slpspan::Document;
using slpspan::DocumentPtr;
using slpspan::Engine;
using slpspan::Query;
using slpspan::Result;

constexpr uint64_t kPage = 256;

struct ColdClass {
  const char* name;
  int family;  // index into Inputs::docs
  const char* pattern;
  bool dna_alphabet;
};

// An odd number of classes with well-separated costs, so the median request
// falls inside one class (dna/q38) instead of on the boundary between two.
constexpr ColdClass kClasses[] = {
    {"log/q92", 0, nullptr, false},
    {"versioned/q10", 1, ".*x{q[a-z]+}y{ }.*", false},
    {"dna/q11", 2, ".*x{AC[ACGT][ACGT]G}.*", true},
    {"dna/q38", 2, ".*A[ACGT][ACGT][ACGT][ACGT]x{T}.*", true},
    {"dna/q134", 2, ".*A[ACGT][ACGT][ACGT][ACGT][ACGT][ACGT]x{T}.*", true},
};
constexpr size_t kNumClasses = sizeof(kClasses) / sizeof(kClasses[0]);

struct Inputs {
  std::vector<DocumentPtr> docs[3];
};

Inputs MakeInputs(uint64_t seed) {
  Inputs in;
  auto add = [&](int family, const std::string& text) {
    in.docs[family].push_back(Document::FromText(text).value());
  };
  for (int i = 0; i < 4; ++i) add(0, LogText(SubSeed(seed, 10, i), 150));
  for (int i = 0; i < 4; ++i) add(1, VersionedText(SubSeed(seed, 11, i), 600, 8));
  for (int i = 0; i < 6; ++i) add(2, DnaText(SubSeed(seed, 12, i), 4096));
  return in;
}

struct ClassTimes {
  Dist request_ms, prepare_ms, count_ms;
};

struct LoopResult {
  std::vector<double> sequence_ms;  // request latencies in request order
  ClassTimes by_class[kNumClasses];
  PrepareTotals prepare;
};

LoopResult Loop(const Inputs& in, double seconds, Report& report) {
  LoopResult r;
  const std::string ascii = Ascii();
  CpuRotation rotation;
  const int64_t end = NowNs() + static_cast<int64_t>(seconds * 1e9);
  for (uint64_t i = 0; NowNs() < end; ++i) {
    rotation.Before(i);
    const size_t c = i % kNumClasses;
    const ColdClass& cls = kClasses[c];
    const std::vector<DocumentPtr>& pool = in.docs[cls.family];
    const DocumentPtr fresh =
        Document::FromSlp(pool[(i / kNumClasses) % pool.size()]->slp());
    const char* pattern = cls.pattern != nullptr ? cls.pattern : kLogPattern;
    report.Attempt();

    slpspan::PrepareStats ps;
    uint64_t extracted = 0;
    int64_t t_prep = 0, t_count = 0;
    Result<Query> query = slpspan::Status::InvalidArgument("unset");
    Result<slpspan::CountInfo> count = slpspan::Status::InvalidArgument("unset");
    const int64_t t0 = NowNs();
    {
      Scope request("cold.request", i);
      {
        Scope s("Compile", i);
        query = Query::Compile(pattern, cls.dna_alphabet ? "ACGT" : ascii);
      }
      if (query.ok()) {
        const Engine engine(query.value(), fresh);
        const int64_t a = NowNs();
        {
          Scope s("PreparedFor", i);
          fresh->PreparedFor(query.value(), &ps);
        }
        const int64_t b = NowNs();
        {
          Scope s("Count", i);
          count = engine.Count();
        }
        t_prep = b - a;
        t_count = NowNs() - b;
        slpspan::ResultStream stream = [&] {
          Scope s("Extract.first", i);
          slpspan::ResultStream st = engine.Extract({.limit = kPage});
          (void)st.Valid();
          return st;
        }();
        while (stream.Valid()) {
          ++extracted;
          Scope s("Extract.next", i);
          stream.Next();
        }
      }
    }
    const int64_t t1 = NowNs();
    if (!query.ok() || !count.ok()) {
      report.Fail(Fmt("cold %s: %s", cls.name,
                      (query.ok() ? count.status() : query.status()).ToString().c_str()));
      continue;
    }
    const uint64_t total = count.value().value;
    const uint64_t want = std::min<uint64_t>(total, kPage);
    if (!count.value().exact || extracted != want) {
      report.Fail(Fmt("cold %s: Count %llu but %llu tuples extracted", cls.name,
                      static_cast<unsigned long long>(total),
                      static_cast<unsigned long long>(extracted)));
      continue;
    }
    const Engine engine(query.value(), fresh);
    {
      Scope s("Count.hot", i);
      (void)engine.Count();
    }
    if (i % 4 == 0) {
      bool nonempty = false;
      {
        Scope s("IsNonEmpty", i);
        nonempty = engine.IsNonEmpty();
      }
      if (nonempty != (total > 0)) {
        report.Fail(Fmt("cold %s: IsNonEmpty %d but Count %llu", cls.name, nonempty,
                        static_cast<unsigned long long>(total)));
        continue;
      }
    }
    r.prepare.Add(ps, query.value().num_states(), fresh->cache_stats().bytes);
    r.sequence_ms.push_back(NsToMs(t1 - t0));
    r.by_class[c].request_ms.Add(NsToMs(t1 - t0));
    r.by_class[c].prepare_ms.Add(NsToMs(t_prep));
    r.by_class[c].count_ms.Add(NsToMs(t_count));
  }
  return r;
}

void NoteClasses(LoopResult& r, Report& report) {
  for (size_t c = 0; c < kNumClasses; ++c) {
    ClassTimes& t = r.by_class[c];
    report.Note(Fmt("cold %-14s n=%-5zu request p50 %8.3f ms  PreparedFor p50 %8.3f ms  "
                    "first Count p50 %8.3f ms",
                    kClasses[c].name, t.request_ms.size(), t.request_ms.Median(),
                    t.prepare_ms.Median(), t.count_ms.Median()));
  }
}

}  // namespace

int RunCold(const Config& cfg, Report& report) {
  Inputs in;
  const double setup_s =
      MedianSetupSeconds(4, /*rotate_cpus=*/true, [&] { in = MakeInputs(cfg.seed); });

  if (!cfg.trace) {
    LoopResult r = Loop(in, cfg.seconds, report);
    report.Set("setup_s", setup_s);
    SetLatencyMetrics(report, r.sequence_ms, /*closed_loop=*/true);
    NoteClasses(r, report);
    return 0;
  }

  LoopResult plain = Loop(in, cfg.seconds / 2, report);
  Trace().Enable(true);
  LoopResult traced = Loop(in, cfg.seconds / 2, report);
  Trace().Enable(false);
  NoteClasses(traced, report);

  Dist compile = Trace().Micros("Compile");
  Dist prepare = Trace().Micros("PreparedFor");
  Dist count_first = Trace().Micros("Count");
  report.Set("spanner.compile_ms", compile.Median() / 1e3);
  report.Set("prepare.ms", prepare.Median() / 1e3);
  report.Set("count.first_ms", count_first.Median() / 1e3);
  traced.prepare.SetMetrics(report);
  SetEvaluationMetrics(report);
  if (prepare.Sum() > 0) {
    const double ratio = count_first.Sum() / prepare.Sum();
    report.Set("hotspot.count_first_over_prepare", ratio);
    report.Note(Fmt("hot spot: the first Count after PreparedFor builds the counting "
                    "tables lazily: %.1f ms in total against %.1f ms of preparation "
                    "(%.2fx)",
                    count_first.Sum() / 1e3, prepare.Sum() / 1e3, ratio));
  }
  report.Set("trace.overhead_pct", OverheadPct(plain.sequence_ms, traced.sequence_ms));
  return 0;
}

}  // namespace perfbench
