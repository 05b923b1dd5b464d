// perfbench — the slpspan end-to-end benchmark binary.
//
//   perfbench --workload ingest|cold|serve|restart --seed N --seconds S
//             --trace 0|1 --workdir DIR
//
// Runs one workload in this process (the prepared cache, the spill store,
// the shared-memo registry and peak RSS are process-wide, so workloads never
// share a process), checks every answer, and prints a human report followed
// by one JSON line of metric values by name. With --trace 0 these are the
// end-to-end metrics; with --trace 1 the per-layer metrics read from spans
// and counters, plus the tracing overhead. perfbench/run.py builds this
// binary, attaches the units declared in BENCHMARK.json and is the command
// users and scripts run.

#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <string>
#include <thread>

#include "common.h"
#include "core/kernels/kernels.h"

namespace perfbench {
namespace {

int Usage() {
  std::fprintf(stderr,
               "usage: perfbench --workload ingest|cold|serve|restart "
               "--seed N --seconds S --trace 0|1 --workdir DIR\n");
  return 2;
}

int Main(int argc, char** argv) {
  Config cfg;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const std::string val = argv[i + 1];
    if (key == "--workload") {
      cfg.workload = val;
    } else if (key == "--seed") {
      cfg.seed = std::strtoull(val.c_str(), nullptr, 10);
    } else if (key == "--seconds") {
      cfg.seconds = std::strtod(val.c_str(), nullptr);
    } else if (key == "--trace") {
      cfg.trace = val == "1";
    } else if (key == "--workdir") {
      cfg.workdir = val;
    } else {
      return Usage();
    }
  }
  if (argc % 2 == 0 || cfg.workdir.empty() || !(cfg.seconds > 0)) return Usage();

  int (*run)(const Config&, Report&) = nullptr;
  if (cfg.workload == "ingest") run = RunIngest;
  if (cfg.workload == "cold") run = RunCold;
  if (cfg.workload == "serve") run = RunServe;
  if (cfg.workload == "restart") run = RunRestart;
  if (run == nullptr) return Usage();

  std::error_code ec;
  std::filesystem::create_directories(cfg.workdir, ec);
  if (ec) {
    std::fprintf(stderr, "perfbench: cannot create %s\n", cfg.workdir.c_str());
    return 2;
  }

  std::printf("# host: nproc=%u kernel=%s build=%s\n",
              std::thread::hardware_concurrency(),
              slpspan::kernels::ActiveKernel().name, PERFBENCH_BUILD_TYPE);
  std::printf("# run: workload=%s seed=%llu seconds=%.1f trace=%d\n",
              cfg.workload.c_str(), static_cast<unsigned long long>(cfg.seed),
              cfg.seconds, cfg.trace ? 1 : 0);

  Report report;
  const int rc = run(cfg, report);
  if (rc != 0) {
    std::fprintf(stderr, "perfbench: workload %s failed to run (%d)\n",
                 cfg.workload.c_str(), rc);
    return rc;
  }
  if (cfg.trace) {
    const std::string spans = cfg.workdir + "/spans.tsv";
    if (Trace().Write(spans)) {
      report.Note(Fmt("spans: %zu written to %s", Trace().size(), spans.c_str()));
    }
    for (const auto& [name, ms] : Trace().SelfMillis()) {
      report.Note(Fmt("self time %-22s %12.3f ms", name.c_str(), ms));
    }
  } else {
    report.Set("peak_rss_mb", PeakRssMb());
  }
  return report.Emit();
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) { return perfbench::Main(argc, argv); }
