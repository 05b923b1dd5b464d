// Shared benchmark pieces — see common.h.

#include "common.h"

#include <sched.h>
#include <sys/resource.h>

#include <cmath>
#include <cstdarg>
#include <cstdio>
#include <fstream>

#include "slpspan/textgen.h"

namespace perfbench {

namespace {

thread_local uint32_t t_current_span = 0;

std::string JsonNumber(double v) {
  if (!std::isfinite(v)) return "0";
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

}  // namespace

std::string Fmt(const char* fmt, ...) {
  char buf[1024];
  va_list ap;
  va_start(ap, fmt);
  std::vsnprintf(buf, sizeof(buf), fmt, ap);
  va_end(ap);
  return buf;
}

// ------------------------------------------------------------------ tracing

Tracer& Trace() {
  static Tracer tracer;
  return tracer;
}

Scope::Scope(const char* name, uint64_t request)
    : id_(Trace().Open(name, request, t_current_span)),
      saved_parent_(t_current_span) {
  if (id_ != 0) t_current_span = id_;
}

Scope::~Scope() {
  Trace().Close(id_);
  t_current_span = saved_parent_;
}

Dist Tracer::Micros(const std::string& name) const {
  std::lock_guard<std::mutex> lock(mu_);
  Dist d;
  for (const SpanRecord& s : spans_) {
    if (name == s.name) d.Add(NsToUs(s.end_ns - s.start_ns));
  }
  return d;
}

std::map<std::string, double> Tracer::SelfMillis() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<int64_t> child_ns(spans_.size(), 0);
  for (const SpanRecord& s : spans_) {
    if (s.parent != 0) child_ns[s.parent - 1] += s.end_ns - s.start_ns;
  }
  std::map<std::string, double> self;
  for (size_t i = 0; i < spans_.size(); ++i) {
    const int64_t own = spans_[i].end_ns - spans_[i].start_ns - child_ns[i];
    self[spans_[i].name] += NsToMs(std::max<int64_t>(own, 0));
  }
  return self;
}

bool Tracer::Write(const std::string& path) const {
  std::lock_guard<std::mutex> lock(mu_);
  std::ofstream out(path);
  out << "id\tname\tstart_ns\tend_ns\tparent\trequest\n";
  for (size_t i = 0; i < spans_.size(); ++i) {
    const SpanRecord& s = spans_[i];
    out << i + 1 << '\t' << s.name << '\t' << s.start_ns << '\t' << s.end_ns
        << '\t' << s.parent << '\t' << s.request << '\n';
  }
  return static_cast<bool>(out);
}

// ------------------------------------------------------------------- report

void Report::Fail(const std::string& why) {
  ++failed_;
  if (failures_printed_ < 10) {
    ++failures_printed_;
    std::printf("# FAILED: %s\n", why.c_str());
  }
}

int Report::Emit() {
  for (const std::string& n : notes_) std::printf("# %s\n", n.c_str());
  std::string metrics;
  for (const auto& [name, v] : values_) {
    std::printf("# %-36s %14.4f\n", name.c_str(), v);
    if (!metrics.empty()) metrics += ", ";
    metrics += Fmt("\"%s\": %s", name.c_str(), JsonNumber(v).c_str());
  }
  const bool correct = failed_ == 0 && attempted_ > 0;
  std::printf("# failed_ratio %.6f (%llu of %llu)\n",
              attempted_ == 0 ? 1.0
                              : static_cast<double>(failed_) /
                                    static_cast<double>(attempted_),
              static_cast<unsigned long long>(failed_),
              static_cast<unsigned long long>(attempted_));
  std::printf(
      "{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
      "\"metrics\": {%s}}\n",
      correct ? "true" : "false",
      static_cast<unsigned long long>(std::max<uint64_t>(attempted_, 1)),
      static_cast<unsigned long long>(failed_), metrics.c_str());
  std::fflush(stdout);
  return correct ? 0 : 1;
}

CpuRotation::CpuRotation() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof(set), &set) != 0) return;
  for (int c = 0; c < CPU_SETSIZE; ++c) {
    if (CPU_ISSET(c, &set)) cpus_.push_back(c);
  }
}

CpuRotation::~CpuRotation() {
  if (cpus_.size() < 2) return;
  cpu_set_t set;
  CPU_ZERO(&set);
  for (int c : cpus_) CPU_SET(c, &set);
  sched_setaffinity(0, sizeof(set), &set);
}

void CpuRotation::Next() {
  if (cpus_.size() < 2) return;
  cpu_set_t set;
  CPU_ZERO(&set);
  CPU_SET(cpus_[next_++ % cpus_.size()], &set);
  sched_setaffinity(0, sizeof(set), &set);
}

double PeakRssMb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // KiB on Linux
}

// -------------------------------------------------------------------- inputs

std::string Ascii() {
  std::string s;
  for (char c = 32; c < 127; ++c) s += c;
  s += '\n';
  return s;
}

uint64_t SubSeed(uint64_t seed, uint64_t family, uint64_t index) {
  // splitmix64 over the three coordinates.
  uint64_t z = seed * 0x9E3779B97F4A7C15ull + family * 0xBF58476D1CE4E5B9ull +
               index * 0x94D049BB133111EBull + 0x632BE59BD9B4E019ull;
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
  return z ^ (z >> 31);
}

std::string LogText(uint64_t seed, uint64_t lines) {
  return slpspan::GenerateLog({.lines = lines, .seed = seed});
}

std::string VersionedText(uint64_t seed, uint64_t base_length, uint32_t versions) {
  return slpspan::GenerateVersionedDoc(
      {.base_length = base_length, .versions = versions, .seed = seed});
}

std::string DnaText(uint64_t seed, uint64_t length) {
  return slpspan::GenerateDna({.length = length, .motif_rate = 0.001, .seed = seed});
}

const char* const kLogPattern =
    ".*ts=x{[0-9]+} user=y{u[0-9]+} "
    "action=z{GETS?|PUTS?|POSTED?|DELS?|HEADS?|LISTS?|SCANS?|STATS?} "
    "status=w{200|404|500|301|201|403|502|302}.*";

void TupleDigest::Add(const slpspan::SpanTuple& t) {
  auto mix = [this](uint64_t v) {
    h_ ^= v;
    h_ *= 1099511628211ull;
    h_ ^= h_ >> 29;
  };
  for (slpspan::VarId v = 0; v < t.num_vars(); ++v) {
    const auto& s = t.Get(v);
    if (s.has_value()) {
      mix(s->begin);
      mix(s->end);
    } else {
      mix(~uint64_t{0});
    }
  }
  ++n_;
}

Zipf::Zipf(size_t n, double s) {
  double total = 0;
  for (size_t i = 0; i < n; ++i) {
    total += 1.0 / std::pow(static_cast<double>(i + 1), s);
    cdf_.push_back(total);
  }
  for (double& c : cdf_) c /= total;
}

size_t Zipf::operator()(std::mt19937_64& rng) const {
  const double u = std::uniform_real_distribution<double>(0.0, 1.0)(rng);
  return std::min<size_t>(
      static_cast<size_t>(std::lower_bound(cdf_.begin(), cdf_.end(), u) - cdf_.begin()),
      cdf_.size() - 1);
}

// ------------------------------------------------------------------- metrics

void SetLatencyMetrics(Report& report, const std::vector<double>& sequence_ms,
                       bool closed_loop, size_t window) {
  Dist p50, p99, rate, all;
  const size_t windows = std::max<size_t>(sequence_ms.size() / window, 1);
  for (size_t w = 0; w < windows; ++w) {
    // Equal windows: with a remainder window of up to twice the size, and
    // the lower of two middle values as the median, a run of 2995 requests
    // reported its first window's p99, and one of 3045 the middle of three.
    const size_t begin = w * sequence_ms.size() / windows;
    const size_t end = (w + 1) * sequence_ms.size() / windows;
    Dist d;
    for (size_t i = begin; i < end; ++i) d.Add(sequence_ms[i]);
    p50.Add(d.Median());
    p99.Add(d.Pct(0.99));
    if (d.Sum() > 0) rate.Add(static_cast<double>(d.size()) / (d.Sum() / 1e3));
    all.Append(d);
  }
  report.Set("p50_ms", p50.Median());
  report.Set("p99_ms", p99.Median());
  if (closed_loop) report.Set("ops_per_s", rate.Median());
  report.Note(Fmt("%zu requests in %zu windows; whole-run p50 %.3f ms, p99 %.3f ms",
                  sequence_ms.size(), windows, all.Median(), all.Pct(0.99)));
  if (sequence_ms.size() < window) {
    report.Note(Fmt("warning: only %zu samples behind p99_ms (%zu wanted)",
                    sequence_ms.size(), window));
  }
}

void PrepareTotals::Add(const slpspan::PrepareStats& ps, uint32_t q,
                        uint64_t prepared_bytes) {
  builds += 1;
  states += q;
  products += static_cast<double>(ps.products);
  distinct += static_cast<double>(ps.distinct_products);
  hits += static_cast<double>(ps.memo_hits);
  pool += static_cast<double>(ps.pool_matrices);
  bytes += static_cast<double>(prepared_bytes);
  // One q x q boolean product touches q rows of q/64 words per output row.
  word_ops += static_cast<double>(ps.distinct_products) * q * q *
              static_cast<double>((q + 63) / 64);
}

void PrepareTotals::SetMetrics(Report& report) const {
  if (builds == 0) return;
  report.Set("spanner.states", states / builds);
  report.Set("prepare.products", products / builds);
  report.Set("prepare.distinct_products", distinct / builds);
  report.Set("prepare.memo_hit_ratio", products > 0 ? hits / products : 0);
  report.Set("prepare.pool_matrices", pool / builds);
  report.Set("prepare.bytes", bytes / builds);
  report.Set("kernels.word_ops", word_ops / builds);
}

void SetEvaluationMetrics(Report& report) {
  Dist first = Trace().Micros("Extract.first");
  Dist next = Trace().Micros("Extract.next");
  report.Set("enumerate.first_tuple_us", first.Median());
  report.Set("enumerate.delay_us.p50", next.Median());
  report.Set("enumerate.delay_us.p99", next.Pct(0.99));
  const double busy_s = (first.Sum() + next.Sum()) / 1e6;
  // A stream of n tuples makes n Next calls; the last one ends it.
  const double tuples = static_cast<double>(next.size());
  report.Set("enumerate.tuples_per_s", busy_s > 0 ? tuples / busy_s : 0);

  Dist nonempty = Trace().Micros("IsNonEmpty");
  Dist count_hot = Trace().Micros("Count.hot");
  report.Set("nonempty.us", nonempty.Median());
  report.Set("count.hot_us", count_hot.Median());
  if (count_hot.Median() > 0) {
    report.Set("hotspot.nonempty_over_count_hot",
               nonempty.Median() / count_hot.Median());
    report.Note(Fmt("hot spot: IsNonEmpty bypasses the prepared cache: %.1f us "
                    "per call against %.2f us for a hot Count (%.0fx)",
                    nonempty.Median(), count_hot.Median(),
                    nonempty.Median() / count_hot.Median()));
  }
}

double OverheadPct(const std::vector<double>& untraced_ms,
                   const std::vector<double>& traced_ms) {
  const size_t n = std::min(untraced_ms.size(), traced_ms.size());
  double base = 0, traced = 0;
  for (size_t i = 0; i < n; ++i) {
    base += untraced_ms[i];
    traced += traced_ms[i];
  }
  return base <= 0 ? 0 : (traced / base - 1.0) * 100.0;
}

}  // namespace perfbench
