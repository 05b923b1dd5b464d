// Shared pieces of the end-to-end benchmark: clocks and sample sets, the
// span tracer, the metric report, input generation and result checking.
//
// The benchmark only calls public slpspan functions (plus the internal
// net::Client for the wire workload) and times them from the outside; no
// tracing lives in the library. A span is recorded around each public call
// the benchmark makes, with its parent and request id, kept in memory and
// written once when the run ends.

#ifndef PERFBENCH_COMMON_H_
#define PERFBENCH_COMMON_H_

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <map>
#include <mutex>
#include <random>
#include <string>
#include <utility>
#include <vector>

#include "slpspan/slpspan.h"

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             Clock::now().time_since_epoch())
      .count();
}

inline double NsToMs(int64_t ns) { return static_cast<double>(ns) / 1e6; }
inline double NsToUs(int64_t ns) { return static_cast<double>(ns) / 1e3; }

/// A set of samples with nearest-rank percentiles.
class Dist {
 public:
  void Add(double v) {
    v_.push_back(v);
    sorted_ = false;
  }
  void Append(const Dist& o) {
    v_.insert(v_.end(), o.v_.begin(), o.v_.end());
    sorted_ = false;
  }
  size_t size() const { return v_.size(); }
  bool empty() const { return v_.empty(); }

  /// Nearest-rank p-quantile, p in [0, 1]; 0 when empty.
  double Pct(double p) {
    if (v_.empty()) return 0;
    if (!sorted_) std::sort(v_.begin(), v_.end());
    sorted_ = true;
    size_t rank = static_cast<size_t>(p * static_cast<double>(v_.size()) + 0.999999);
    rank = std::clamp<size_t>(rank, 1, v_.size());
    return v_[rank - 1];
  }
  /// Median; the mean of the two middle samples when the count is even;
  /// 0 when empty.
  double Median() {
    const double lower = Pct(0.5);  // sorts
    if (v_.size() % 2 == 1 || v_.empty()) return lower;
    return (lower + v_[v_.size() / 2]) / 2;
  }
  double Sum() const {
    double s = 0;
    for (double x : v_) s += x;
    return s;
  }
  double Mean() const { return v_.empty() ? 0 : Sum() / static_cast<double>(v_.size()); }

 private:
  std::vector<double> v_;
  bool sorted_ = true;
};

// ------------------------------------------------------------------ tracing

struct SpanRecord {
  const char* name;
  int64_t start_ns;
  int64_t end_ns;
  uint32_t parent;  ///< index + 1 of the enclosing span; 0 = root
  uint64_t request;
};

/// Process-wide span recorder. Off by default; when off every call is a
/// branch and nothing is stored.
class Tracer {
 public:
  void Enable(bool on) { on_ = on; }

  /// Opens a span and returns its id (index + 1), or 0 when tracing is off.
  uint32_t Open(const char* name, uint64_t request, uint32_t parent) {
    if (!on_) return 0;
    const int64_t now = NowNs();
    std::lock_guard<std::mutex> lock(mu_);
    spans_.push_back({name, now, now, parent, request});
    return static_cast<uint32_t>(spans_.size());
  }
  void Close(uint32_t id) {
    if (id == 0) return;
    const int64_t now = NowNs();
    std::lock_guard<std::mutex> lock(mu_);
    spans_[id - 1].end_ns = now;
  }

  /// Durations (µs) of every closed span called `name`.
  Dist Micros(const std::string& name) const;
  /// Total self time (span minus the part covered by its children) per name.
  std::map<std::string, double> SelfMillis() const;
  /// Writes every span as one TSV line; returns false on I/O failure.
  bool Write(const std::string& path) const;
  size_t size() const { return spans_.size(); }

 private:
  bool on_ = false;
  mutable std::mutex mu_;
  std::vector<SpanRecord> spans_;
};

Tracer& Trace();

/// RAII span nested under the innermost open span of this thread.
class Scope {
 public:
  Scope(const char* name, uint64_t request);
  ~Scope();
  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;

 private:
  uint32_t id_;
  uint32_t saved_parent_;
};

// ------------------------------------------------------------------- report

/// Collects the run's metrics and prints the human report and the final JSON
/// line. Metric names and units are declared in BENCHMARK.json only; run.py
/// attaches the units, rejects undeclared names and reports a per-layer
/// metric a workload did not set as 0.
class Report {
 public:
  void Set(const std::string& name, double value) { values_[name] = value; }
  /// Human-readable line printed before the JSON result.
  void Note(const std::string& line) { notes_.push_back(line); }

  void Attempt() { ++attempted_; }
  void Fail(const std::string& why);

  /// Prints notes, the metrics and the JSON line; returns the exit code.
  int Emit();

 private:
  std::map<std::string, double> values_;
  std::vector<std::string> notes_;
  uint64_t attempted_ = 0;
  uint64_t failed_ = 0;
  uint64_t failures_printed_ = 0;
};

struct Config {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string workdir;
};

/// Moves the calling thread over the CPUs it may use, round robin, one step
/// every kRequestsPerCpu requests, and restores its CPU mask when destroyed.
/// On a shared virtual machine the vCPUs ran at speeds up to 1.5x apart at
/// the same moment, and a thread stays on the vCPU it started on, so a whole
/// run followed the vCPU it happened to get; rotating averages over them.
/// Threads created while it is active inherit a single-CPU mask, so library
/// threads must be started before.
class CpuRotation {
 public:
  static constexpr uint64_t kRequestsPerCpu = 64;
  CpuRotation();
  ~CpuRotation();
  CpuRotation(const CpuRotation&) = delete;
  CpuRotation& operator=(const CpuRotation&) = delete;
  /// Call before request `i`.
  void Before(uint64_t i) {
    if (i % kRequestsPerCpu == 0) Next();
  }
  /// Moves to the next CPU.
  void Next();

 private:
  std::vector<int> cpus_;
  size_t next_ = 0;
};

/// Peak resident set size of this process in MiB (ru_maxrss).
double PeakRssMb();

/// Median over `reps` runs of `setup` (seconds); the last run's state is
/// what the workload keeps. With `rotate_cpus`, each run starts on the next
/// CPU (see CpuRotation); `setup` must then start no threads.
template <typename Fn>
double MedianSetupSeconds(int reps, bool rotate_cpus, Fn&& setup) {
  CpuRotation rotation;
  Dist d;
  for (int i = 0; i < reps; ++i) {
    if (rotate_cpus) rotation.Next();
    const int64_t t0 = NowNs();
    setup();
    d.Add(static_cast<double>(NowNs() - t0) / 1e9);
  }
  return d.Median();
}

// -------------------------------------------------------------------- inputs

/// Printable ASCII plus '\n' — the server's default query alphabet.
std::string Ascii();

/// Deterministic 64-bit seed for input `index` of `family` in a run.
uint64_t SubSeed(uint64_t seed, uint64_t family, uint64_t index);

/// Document families. Sizes are fixed so that every seed yields inputs of
/// the same shape; only the content varies.
std::string LogText(uint64_t seed, uint64_t lines);
std::string VersionedText(uint64_t seed, uint64_t base_length, uint32_t versions);
std::string DnaText(uint64_t seed, uint64_t length);

/// The log extraction pattern with four variables (q = 92 over Ascii()).
extern const char* const kLogPattern;

/// Order-sensitive 64-bit digest of a tuple sequence.
class TupleDigest {
 public:
  void Add(const slpspan::SpanTuple& t);
  uint64_t value() const { return h_; }
  uint64_t count() const { return n_; }

 private:
  uint64_t h_ = 1469598103934665603ull;
  uint64_t n_ = 0;
};

/// Zipf(s) sampler over [0, n).
class Zipf {
 public:
  Zipf(size_t n, double s);
  size_t operator()(std::mt19937_64& rng) const;

 private:
  std::vector<double> cdf_;
};

// ----------------------------------------------------------------- workloads

int RunIngest(const Config& cfg, Report& report);
int RunCold(const Config& cfg, Report& report);
int RunServe(const Config& cfg, Report& report);
int RunRestart(const Config& cfg, Report& report);

/// Default requests per latency window (see SetLatencyMetrics).
inline constexpr size_t kWindowRequests = 1000;

/// Sets p50_ms and p99_ms from the primary requests' latencies in request
/// order: the run is cut into n / `window` consecutive windows of equal size
/// (at least one), and the median over the windows of each window's
/// percentile is reported. A host stall that hits one window moves this less
/// than a whole-run percentile; a window of 1000 still has 10 samples beyond
/// its p99. With `closed_loop`, also sets ops_per_s the same way: the median
/// over windows of requests per second of request time.
void SetLatencyMetrics(Report& report, const std::vector<double>& sequence_ms,
                       bool closed_loop, size_t window = kWindowRequests);

/// Sums PrepareStats (plus q and the prepared bytes) over the builds a
/// workload ran, for the prepare.* and kernels.* per-layer metrics.
struct PrepareTotals {
  double builds = 0, states = 0, products = 0, distinct = 0, hits = 0;
  double pool = 0, bytes = 0, word_ops = 0;
  void Add(const slpspan::PrepareStats& ps, uint32_t q, uint64_t bytes);
  void SetMetrics(Report& report) const;
};

/// Sets enumerate.* from the "Extract.first" / "Extract.next" spans, and
/// nonempty.us / count.hot_us plus their hot-spot ratio from the
/// "IsNonEmpty" / "Count.hot" spans.
void SetEvaluationMetrics(Report& report);

/// Percent by which the traced pass exceeds the untraced one, over the
/// requests both passes completed (the passes replay the same sequence).
double OverheadPct(const std::vector<double>& untraced_ms,
                   const std::vector<double>& traced_ms);

std::string Fmt(const char* fmt, ...) __attribute__((format(printf, 1, 2)));

}  // namespace perfbench

#endif  // PERFBENCH_COMMON_H_
