// Workload `restart`: export prepared state, restart with a small RAM
// cache, serve skewed traffic from the disk tier. Closed loop, one client.
//
// Phase A exports every RAM-resident prepared state with
// Document::SavePrepared under Runtime::SpillBundleName, kSaveRounds times
// over. Phase B, which takes the run's measured time, simulates
// a restart: fresh Document and Query handles, the spill directory
// configured as the disk tier, and a RAM budget that holds the two most
// popular states, at most a quarter of the working set's prepared bytes (one
// cache shard, so the budget is not split). Its
// requests pick (document, pattern) pairs from a Zipf(2) distribution, each
// an Engine::Count plus one page of Engine::Extract. Phase B repeats the
// restart every kRequestsPerRestart requests, so each run sees many cold
// starts. `storage` decoding and cache eviction dominate: this is the
// workload larger than the cache, where `serve` is the one that fits.
//
// Check: answers after every restart equal the answers computed before the
// export.

#include <filesystem>
#include <string>
#include <vector>

#include "common.h"

namespace perfbench {
namespace {

using slpspan::Document;
using slpspan::DocumentPtr;
using slpspan::Engine;
using slpspan::Query;
using slpspan::Runtime;

constexpr uint64_t kPage = 256;
constexpr int kRequestsPerRestart = 200;
// Phase A saves every state this many times. Its saves give only printed
// figures and storage.save_ms; a phase A that took a quarter of the run
// rewrote about 50 MB of bundles per run and left phase B fewer requests.
constexpr uint64_t kSaveRounds = 4;
// Requests per latency window. The two large states draw 2.3 % of the
// requests, about 115 per window, so each window's p99 sits near their
// median; in windows of 1000, with about 23 of them, it moved by 1.5x from
// window to window.
constexpr size_t kLatencyWindow = 5000;
constexpr double kZipfS = 2.0;
// Phase-B RAM budget: the two most popular states plus this much headroom,
// capped at a quarter of the working set. Sized from the states themselves,
// the same pairs fit on every seed; a fixed fraction of the working set let
// rank 1 fit on some seeds and not on others, and throughput swung with it.
constexpr double kBudgetHeadroom = 1.25;

struct DocSpec {
  const char* name;
  int family;  // 0 log, 1 versioned, 2 dna
};

constexpr DocSpec kDocs[] = {
    {"log0", 0}, {"log1", 0}, {"versioned0", 1}, {"versioned1", 1}, {"dna0", 2}, {"dna1", 2},
};
constexpr size_t kNumDocs = sizeof(kDocs) / sizeof(kDocs[0]);

// Two patterns per document; the DNA ones are compiled over "ACGT".
const char* const kFamilyPatterns[3][2] = {
    {nullptr, ".*user=x{u[0-9]+}.*"},  // nullptr = kLogPattern
    {".*x{q[a-z]+}y{ }.*", ".*x{th[a-z]}.*"},
    {".*A[ACGT][ACGT][ACGT][ACGT][ACGT]x{T}.*", ".*x{A[ACGT]G}.*"},
};
constexpr size_t kNumPairs = kNumDocs * 2;

// Pairs by Zipf rank. Rank 0, a small DNA state, draws about 64 % of the
// requests, so the median request is a RAM hit on one pair. Ranks 6 and 7
// are the two large log states (q = 92, about 7 MiB each), 2.3 % of the
// requests; they never fit the budget, so every request to them is a disk
// load, the slowest kind, and the p99 falls near the median of these loads.
// At ranks 2 and 3 (11 % of the requests) the p99 sat in the tail of their
// loads, and took most of the request time, so that host noise in one kind
// of request set both p99_ms and ops_per_s.
constexpr size_t kByPopularity[kNumPairs] = {11, 10, 9, 8, 7, 6, 0, 2, 5, 4, 3, 1};

std::string PatternOf(size_t pair) {
  const char* p = kFamilyPatterns[kDocs[pair / 2].family][pair % 2];
  return p != nullptr ? p : kLogPattern;
}

std::string AlphabetOf(size_t pair) {
  return kDocs[pair / 2].family == 2 ? "ACGT" : Ascii();
}

struct Expected {
  uint64_t count = 0;
  std::vector<slpspan::SpanTuple> page;
};

/// Handles on every document and compiled pattern.
struct Handles {
  std::vector<DocumentPtr> docs;
  std::vector<Query> queries;  // one per pair
};

struct Fixture {
  std::string doc_dir, spill_dir;
  double doc_kib[kNumDocs] = {};
  Handles handles;
  Expected expected[kNumPairs];
  uint64_t working_set_bytes = 0;
  uint64_t budget_bytes = 0;
  PrepareTotals prepare;
  Dist prepare_ms;
};

bool OpenHandles(const Fixture& fx, Handles& h) {
  h = Handles();
  for (size_t d = 0; d < kNumDocs; ++d) {
    Scope s("FromSlpFile", d);
    auto doc = Document::FromSlpFile(fx.doc_dir + "/" + kDocs[d].name + ".slp");
    if (!doc.ok()) return false;
    h.docs.push_back(doc.value());
  }
  for (size_t p = 0; p < kNumPairs; ++p) {
    Scope s("Compile", p);
    auto q = Query::Compile(PatternOf(p), AlphabetOf(p));
    if (!q.ok()) return false;
    h.queries.push_back(q.value());
  }
  return true;
}

bool BuildFixture(const Config& cfg, Fixture& fx) {
  fx.doc_dir = cfg.workdir + "/docs";
  fx.spill_dir = cfg.workdir + "/spill";
  std::filesystem::remove_all(fx.spill_dir);
  std::filesystem::create_directories(fx.doc_dir);
  std::filesystem::create_directories(fx.spill_dir);
  for (size_t d = 0; d < kNumDocs; ++d) {
    const uint64_t seed = SubSeed(cfg.seed, 40, d);
    const std::string text = kDocs[d].family == 0   ? LogText(seed, 400)
                             : kDocs[d].family == 1 ? VersionedText(seed, 1000, 10)
                                                    : DnaText(seed, 8192);
    fx.doc_kib[d] = static_cast<double>(text.size()) / 1024.0;
    auto doc = Document::FromText(text);
    if (!doc.ok() || !doc.value()->Save(fx.doc_dir + "/" + kDocs[d].name + ".slp").ok()) {
      return false;
    }
  }
  if (!OpenHandles(fx, fx.handles)) return false;
  uint64_t pair_bytes[kNumPairs] = {};
  for (size_t p = 0; p < kNumPairs; ++p) {
    const DocumentPtr& doc = fx.handles.docs[p / 2];
    const Query& q = fx.handles.queries[p];
    slpspan::PrepareStats ps;
    const uint64_t bytes_before = Runtime::cache_stats().bytes;
    const int64_t t0 = NowNs();
    doc->PreparedFor(q, &ps);
    fx.prepare_ms.Add(NsToMs(NowNs() - t0));
    const Engine e(q, doc);
    auto count = e.Count();
    if (!count.ok()) return false;
    fx.expected[p].count = count.value().value;
    fx.expected[p].page = e.ExtractAll({.limit = kPage});
    pair_bytes[p] = Runtime::cache_stats().bytes - bytes_before;
    fx.prepare.Add(ps, q.num_states(), pair_bytes[p]);
  }
  fx.working_set_bytes = Runtime::cache_stats().bytes;
  const auto hot = static_cast<uint64_t>(
      kBudgetHeadroom *
      static_cast<double>(pair_bytes[kByPopularity[0]] + pair_bytes[kByPopularity[1]]));
  fx.budget_bytes = std::max<uint64_t>(std::min(hot, fx.working_set_bytes / 4), 1);
  return true;
}

struct PassResult {
  Dist save_ms;
  std::vector<double> sequence_ms;  // phase-B latencies in request order
  double bundle_bytes = 0, bundle_per_kib = 0;
  uint64_t saves = 0, requests = 0, restarts = 0;
  Runtime::CacheStats before, after;
};

/// Phase A (kSaveRounds rounds of saves), then `seconds` of phase B.
PassResult RunPass(Fixture& fx, uint64_t seed, double seconds, Report& report) {
  PassResult r;
  // Phase A: the handles from setup hold every prepared state in RAM.
  Runtime::SetCacheByteBudget(uint64_t{1} << 30);
  if (!Runtime::ConfigureSpill({}).ok() || !OpenHandles(fx, fx.handles)) {
    report.Fail("restart: cannot reopen handles");
    return r;
  }
  for (size_t p = 0; p < kNumPairs; ++p) {
    // What a server that has been answering counts holds: the prepared
    // state plus its counting tables.
    (void)Engine(fx.handles.queries[p], fx.handles.docs[p / 2]).Count();
  }
  for (uint64_t i = 0; i < kSaveRounds * kNumPairs; ++i) {
    const size_t p = i % kNumPairs;
    const Document& doc = *fx.handles.docs[p / 2];
    const std::string path =
        fx.spill_dir + "/" + Runtime::SpillBundleName(doc, fx.handles.queries[p]);
    report.Attempt();
    const int64_t t0 = NowNs();
    slpspan::Status st;
    {
      Scope s("SavePrepared", i);
      st = doc.SavePrepared(fx.handles.queries[p], path);
    }
    const int64_t t1 = NowNs();
    if (!st.ok()) {
      report.Fail("restart: SavePrepared: " + st.ToString());
      continue;
    }
    r.save_ms.Add(NsToMs(t1 - t0));
    ++r.saves;
    if (i < kNumPairs) {
      const double bytes = static_cast<double>(std::filesystem::file_size(path));
      r.bundle_bytes += bytes / kNumPairs;
      r.bundle_per_kib += bytes / fx.doc_kib[p / 2] / kNumPairs;
    }
  }

  // Phase B: restart with the small RAM budget.
  fx.handles = Handles();
  Runtime::SetCacheByteBudget(fx.budget_bytes);
  if (!Runtime::ConfigureSpill({.directory = fx.spill_dir}).ok()) {
    report.Fail("restart: cannot configure the spill tier");
    return r;
  }
  r.before = Runtime::cache_stats();
  std::mt19937_64 rng(SubSeed(seed, 41, 0));
  const Zipf zipf(kNumPairs, kZipfS);
  const int64_t end_b = NowNs() + static_cast<int64_t>(seconds * 1e9);
  Handles h;
  CpuRotation rotation;
  for (uint64_t i = 0; NowNs() < end_b; ++i) {
    rotation.Before(i);
    if (i % kRequestsPerRestart == 0) {
      h = Handles();  // drops every cache entry of the previous generation
      Scope s("restart", i);
      if (!OpenHandles(fx, h)) {
        report.Fail("restart: cannot open fresh handles");
        return r;
      }
      ++r.restarts;
    }
    const size_t p = kByPopularity[zipf(rng)];
    const Engine engine(h.queries[p], h.docs[p / 2]);
    report.Attempt();
    slpspan::Result<slpspan::CountInfo> count = slpspan::Status::InvalidArgument("unset");
    std::vector<slpspan::SpanTuple> page;
    const int64_t t0 = NowNs();
    {
      Scope request("restart.request", i);
      {
        Scope s("Count", i);
        count = engine.Count();
      }
      slpspan::ResultStream stream = [&] {
        Scope s("Extract.first", i);
        slpspan::ResultStream st = engine.Extract({.limit = kPage});
        (void)st.Valid();
        return st;
      }();
      while (stream.Valid()) {
        page.push_back(stream.Current());
        Scope s("Extract.next", i);
        stream.Next();
      }
    }
    const int64_t t1 = NowNs();
    if (!count.ok() || count.value().value != fx.expected[p].count ||
        page != fx.expected[p].page) {
      report.Fail(Fmt("restart: pair %zu answers differently after the restart", p));
      continue;
    }
    r.sequence_ms.push_back(NsToMs(t1 - t0));
    ++r.requests;
  }
  r.after = Runtime::cache_stats();
  return r;
}

/// Times Document::LoadPrepared of every exported bundle on fresh handles.
Dist LoadEveryBundle(Fixture& fx, Report& report) {
  Dist ms;
  Handles h;
  if (!OpenHandles(fx, h)) return ms;
  for (size_t p = 0; p < kNumPairs; ++p) {
    const Document& doc = *h.docs[p / 2];
    const std::string path = fx.spill_dir + "/" + Runtime::SpillBundleName(doc, h.queries[p]);
    const int64_t t0 = NowNs();
    slpspan::Status st;
    {
      Scope s("LoadPrepared", p);
      st = doc.LoadPrepared(h.queries[p], path);
    }
    ms.Add(NsToMs(NowNs() - t0));
    report.Attempt();
    if (!st.ok()) report.Fail("restart: LoadPrepared: " + st.ToString());
  }
  return ms;
}

void NotePass(const char* what, const PassResult& r, const Fixture& fx, Report& report) {
  const uint64_t hits = r.after.hits - r.before.hits;
  const uint64_t misses = r.after.misses - r.before.misses;
  report.Note(Fmt("%s: %llu saves, %llu requests over %llu restarts; RAM hits %llu, "
                  "misses %llu (disk hits %llu); working set %.1f MiB, budget %.1f MiB",
                  what, static_cast<unsigned long long>(r.saves),
                  static_cast<unsigned long long>(r.requests),
                  static_cast<unsigned long long>(r.restarts),
                  static_cast<unsigned long long>(hits),
                  static_cast<unsigned long long>(misses),
                  static_cast<unsigned long long>(r.after.disk_hits - r.before.disk_hits),
                  static_cast<double>(fx.working_set_bytes) / 1048576.0,
                  static_cast<double>(fx.budget_bytes) / 1048576.0));
}

}  // namespace

int RunRestart(const Config& cfg, Report& report) {
  // One shard: the phase-B budget is a small part of the working set, and split
  // over shards it would admit almost nothing. Fixed before the cache's
  // first use.
  Runtime::Configure({.cache_bytes = uint64_t{1} << 30, .cache_shards = 1});
  Fixture fx;
  bool built = true;
  const int reps = cfg.trace ? 1 : 4;
  const double setup_s = MedianSetupSeconds(reps, /*rotate_cpus=*/true, [&] {
    fx = Fixture();
    built = built && BuildFixture(cfg, fx);
  });
  if (!built) {
    std::fprintf(stderr, "perfbench: restart setup failed\n");
    return 4;
  }

  if (!cfg.trace) {
    PassResult r = RunPass(fx, cfg.seed, cfg.seconds, report);
    NotePass("restart", r, fx, report);
    report.Set("setup_s", setup_s);
    SetLatencyMetrics(report, r.sequence_ms, /*closed_loop=*/true, kLatencyWindow);
    report.Note(Fmt("SavePrepared p50 %.3f ms; bundles %.0f B per KiB of document",
                    r.save_ms.Median(), r.bundle_per_kib));
    return 0;
  }

  PassResult plain = RunPass(fx, cfg.seed, cfg.seconds / 2, report);
  Trace().Enable(true);
  PassResult traced = RunPass(fx, cfg.seed, cfg.seconds / 2, report);
  Dist load_ms = LoadEveryBundle(fx, report);
  Trace().Enable(false);
  NotePass("untraced", plain, fx, report);
  NotePass("traced", traced, fx, report);

  report.Set("prepare.ms", fx.prepare_ms.Median());
  fx.prepare.SetMetrics(report);
  SetEvaluationMetrics(report);
  report.Set("slp.load_ms", Trace().Micros("FromSlpFile").Median() / 1e3);
  report.Set("spanner.compile_ms", Trace().Micros("Compile").Median() / 1e3);
  report.Set("storage.save_ms", traced.save_ms.Median());
  report.Set("storage.bundle_bytes", traced.bundle_bytes);
  report.Set("storage.bundle_bytes_per_kb", traced.bundle_per_kib);
  report.Set("storage.load_ms", load_ms.Median());
  const auto& a = traced.before;
  const auto& b = traced.after;
  const double lookups = static_cast<double>((b.hits - a.hits) + (b.misses - a.misses));
  report.Set("cache.hit_ratio", lookups > 0 ? static_cast<double>(b.hits - a.hits) / lookups : 0);
  report.Set("cache.evictions", static_cast<double>(b.evictions - a.evictions));
  report.Set("cache.admission_rejects",
             static_cast<double>(b.admission_rejects - a.admission_rejects));
  report.Set("cache.resident_bytes", static_cast<double>(b.bytes));
  const double disk = static_cast<double>((b.disk_hits - a.disk_hits) +
                                          (b.disk_misses - a.disk_misses));
  report.Set("storage.disk_hit_ratio",
             disk > 0 ? static_cast<double>(b.disk_hits - a.disk_hits) / disk : 0);
  report.Set("storage.spill_reclaimed", static_cast<double>(b.spill_reclaimed));
  report.Set("trace.overhead_pct", OverheadPct(plain.sequence_ms, traced.sequence_ms));
  return 0;
}

}  // namespace perfbench
