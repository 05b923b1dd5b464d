// Workload `serve`: an in-process Server (2 Session workers) on loopback.
//
// Scan requests are batch full extracts of 8400 and 80200 tuples, streamed in
// pages. Point requests are interactive `count`, `extract` limited to one
// page, and `check` (2:2:1) on a log with a 4-variable pattern. The working
// set fits the RAM cache and is pre-warmed in setup, so `net`, `Session`,
// non-emptiness and enumeration dominate while preparation and storage do
// nothing.
//
// End-to-end: two clients, one per Session worker, each run scans back to
// back over their own connection (p50_ms, p99_ms, and ops_per_s over the
// wall time). A scan's work dwarfs the thread wake-ups that every wire
// request pays, so these numbers repeat; point requests, which are mostly
// wake-ups, did not (perfbench/DESIGN.md has the measurements).
//
// Traced run: an open-loop generator drives up to nproc connections with
// point requests at a fixed offered rate. Every request is timed from the
// moment it was due, not from when it was sent, so a generator stall is
// charged to the requests behind it, and the generator reports how late it
// sent (loadgen.late_us). The same plan is replayed in-process through
// Session::Submit, and hot Engine calls run directly, which splits wire time
// from queue time from evaluation time.
//
// Check: every wire answer equals the in-process Engine answer computed in
// setup (non-emptiness, exact count, the first page tuple by tuple, and a
// digest of every scan tuple in order).

#include <malloc.h>
#include <poll.h>

#include <filesystem>
#include <memory>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "common.h"
#include "net/client.h"
#include "net/frame.h"
#include "net/socket.h"
#include "slpspan/server.h"

namespace perfbench {
namespace {

using slpspan::Document;
using slpspan::DocumentPtr;
using slpspan::Engine;
using slpspan::Query;
using slpspan::net::WireOp;

// Recorded in perfbench/DESIGN.md; fixed so runs stay comparable.
constexpr double kReferenceRate = 120;  // point requests per second
constexpr double kScanRate = 2;         // scan requests per second
constexpr uint64_t kPage = 256;
constexpr uint32_t kServerThreads = 2;
constexpr uint32_t kCheckVariants = 16;

struct PairSpec {
  const char* doc;
  const char* pattern;
};

// Every point request goes to this pair.
constexpr PairSpec kPointPair = {"log", nullptr};  // kLogPattern
// Full extracts whose result size is fixed by the log's shape, not by what
// the seed drew: every one of kLogLines lines has one 8-digit timestamp and
// one "status". The first yields 8 + 7 + 6 = 21 timestamp substrings per
// line (8400 tuples); the second every pair of lines i <= j (80200 tuples).
constexpr PairSpec kScanPairs[] = {
    {"log", ".*ts=[0-9]?[0-9]?x{[0-9]+}.*"},
    {"log", ".*x{user=u[0-9]+} .*y{status}.*"},
};
constexpr size_t kNumScan = sizeof(kScanPairs) / sizeof(kScanPairs[0]);
constexpr uint64_t kLogLines = 400;
// In the end-to-end scan loop every kHeavyEvery-th scan is the second one,
// about 15x the first. With 2 % of the requests, the p99 falls near its
// median, and the p50 inside the first.
constexpr uint64_t kHeavyEvery = 50;
// One scan client per Session worker: a run then averages over the vCPUs
// the workers run on (see perfbench/DESIGN.md).
constexpr size_t kScanClients = kServerThreads;
// Point op mix, drawn uniformly from this table: count and page extract are
// the bulk, the uncached check the heavy fifth. The median then falls inside
// the extracts and the p99 inside the checks.
constexpr WireOp kPointOps[] = {WireOp::kCount, WireOp::kCount, WireOp::kExtract,
                                WireOp::kExtract, WireOp::kCheck};
constexpr size_t kNumPointOps = sizeof(kPointOps) / sizeof(kPointOps[0]);

/// The pair's pattern; variant v > 0 renames the variable x to x<v>. The
/// renamed patterns are equivalent queries with distinct compiled states,
/// so checks drawn over variants are distinct requests and Session does not
/// coalesce them: the offered check load is the evaluated load. (Checks
/// need no prepared state, so variants cost one compilation each.)
std::string PatternOf(const PairSpec& p, uint32_t variant = 0) {
  std::string pattern = p.pattern != nullptr ? p.pattern : kLogPattern;
  if (variant > 0) pattern.replace(pattern.find("x{"), 2, "x" + std::to_string(variant) + "{");
  return pattern;
}

struct PointExpected {
  bool nonempty = false;
  uint64_t count = 0;
  std::vector<slpspan::SpanTuple> page;
};

struct ScanExpected {
  uint64_t count = 0;
  uint64_t digest = 0;  // every tuple, in order
};

/// One planned request: either a point (op over kPointPair) or a scan (full
/// extract over kScanPairs[scan_pair]).
struct Planned {
  int64_t due_offset_ns;
  bool scan;
  WireOp op;
  size_t scan_pair;
  uint32_t variant;  // PatternOf variant; checks only
};

std::vector<Planned> MakePlan(uint64_t seed, double point_rate, double scan_rate,
                              double seconds) {
  std::mt19937_64 rng(seed);
  std::vector<Planned> plan;
  const auto points = static_cast<uint64_t>(point_rate * seconds);
  for (uint64_t k = 0; k < points; ++k) {
    const WireOp op = kPointOps[rng() % kNumPointOps];
    const auto variant = static_cast<uint32_t>(rng() % kCheckVariants);
    plan.push_back({static_cast<int64_t>(static_cast<double>(k) / point_rate * 1e9), false,
                    op, 0, op == WireOp::kCheck ? variant : 0});
  }
  const auto scans = static_cast<uint64_t>(scan_rate * seconds);
  for (uint64_t k = 0; k < scans; ++k) {
    // Offset by a quarter interval so scans never tie with points.
    plan.push_back({static_cast<int64_t>((static_cast<double>(k) + 0.25) / scan_rate * 1e9),
                    true, WireOp::kExtract, static_cast<size_t>(k % kNumScan), 0});
  }
  std::stable_sort(plan.begin(), plan.end(), [](const Planned& a, const Planned& b) {
    return a.due_offset_ns < b.due_offset_ns;
  });
  return plan;
}

/// Setup state: documents on disk, the running server, its connections and
/// the expected answers.
struct Fixture {
  std::string root;
  std::vector<std::pair<std::string, DocumentPtr>> docs;
  DocumentPtr point_doc;
  std::vector<Query> point_queries;  // by PatternOf variant; [0] is the base
  PointExpected point_expected;
  std::vector<DocumentPtr> scan_docs;
  std::vector<Query> scan_queries;
  ScanExpected scan_expected[kNumScan];
  PrepareTotals prepare;
  Dist prepare_ms;
  std::unique_ptr<slpspan::Server> server;
  std::vector<slpspan::net::Client> conns;
  std::unique_ptr<slpspan::net::Client> stats_conn;

  ~Fixture() {
    conns.clear();
    stats_conn.reset();
    if (server) server->Stop();
  }
};

DocumentPtr DocNamed(const Fixture& f, const std::string& name) {
  for (const auto& [n, d] : f.docs) {
    if (n == name) return d;
  }
  return nullptr;
}

bool BuildFixture(const Config& cfg, Fixture& f) {
  const std::string ascii = Ascii();
  f.root = cfg.workdir + "/documents";
  std::filesystem::create_directories(f.root);
  const std::pair<std::string, std::string> texts[] = {
      {"log", LogText(SubSeed(cfg.seed, 20, 0), kLogLines)},
  };
  for (const auto& [name, text] : texts) {
    DocumentPtr doc = Document::FromText(text).value();
    if (!doc->Save(f.root + "/" + name + ".slp").ok()) return false;
    f.docs.emplace_back(name, doc);
  }
  auto prepare = [&](const Query& q, const DocumentPtr& d) {
    slpspan::PrepareStats ps;
    const int64_t t0 = NowNs();
    d->PreparedFor(q, &ps);
    f.prepare_ms.Add(NsToMs(NowNs() - t0));
    f.prepare.Add(ps, q.num_states(), d->cache_stats().bytes);
  };

  f.point_doc = DocNamed(f, kPointPair.doc);
  for (uint32_t v = 0; v < kCheckVariants; ++v) {
    f.point_queries.push_back(Query::Compile(PatternOf(kPointPair, v), ascii).value());
  }
  prepare(f.point_queries[0], f.point_doc);
  const Engine point(f.point_queries[0], f.point_doc);
  f.point_expected.nonempty = point.IsNonEmpty();
  f.point_expected.count = point.Count().value().value;
  f.point_expected.page = point.ExtractAll({.limit = kPage});
  for (size_t p = 0; p < kNumScan; ++p) {
    Query q = Query::Compile(PatternOf(kScanPairs[p]), ascii).value();
    DocumentPtr d = DocNamed(f, kScanPairs[p].doc);
    prepare(q, d);
    TupleDigest digest;
    Engine(q, d).Extract([&](const slpspan::SpanTuple& t) {
      digest.Add(t);
      return true;
    });
    f.scan_expected[p] = {digest.count(), digest.value()};
    f.scan_queries.push_back(q);
    f.scan_docs.push_back(d);
  }

  f.server = std::make_unique<slpspan::Server>(slpspan::ServerOptions{
      .threads = kServerThreads, .document_root = f.root});
  if (!f.server->Start().ok()) return false;
  const size_t nconn = std::max<size_t>(
      kScanClients, std::min(4u, std::thread::hardware_concurrency()));
  for (size_t c = 0; c < nconn; ++c) {
    auto client = slpspan::net::Client::Connect("127.0.0.1", f.server->port());
    if (!client.ok()) return false;
    f.conns.push_back(std::move(client).value());
  }
  auto stats = slpspan::net::Client::Connect("127.0.0.1", f.server->port());
  if (!stats.ok()) return false;
  f.stats_conn = std::make_unique<slpspan::net::Client>(std::move(stats).value());
  // Pre-warm the server's own documents and prepared states.
  for (const PairSpec* spec : {&kPointPair, &kScanPairs[0], &kScanPairs[1]}) {
    auto r = f.stats_conn->Call(WireOp::kCount, spec->doc, PatternOf(*spec));
    if (!r.ok() || !r.value().ok()) return false;
    r = f.stats_conn->Call(WireOp::kExtract, spec->doc, PatternOf(*spec), {.limit = kPage});
    if (!r.ok() || !r.value().ok()) return false;
  }
  // Compile every check variant on the server, pipelined.
  std::vector<uint64_t> ids;
  for (uint32_t v = 1; v < kCheckVariants; ++v) {
    auto id = f.stats_conn->Send(WireOp::kCheck, kPointPair.doc, PatternOf(kPointPair, v));
    if (!id.ok()) return false;
    ids.push_back(id.value());
  }
  for (uint64_t id : ids) {
    auto r = f.stats_conn->Receive(id);
    if (!r.ok() || !r.value().ok()) return false;
  }
  return true;
}

// ------------------------------------------------------------ wire generator

struct PhaseResult {
  Dist point_ms, late_us;
  Dist by_op_ms[3];  // point latency per WireOp
  std::vector<double> point_by_plan_ms;  // indexed like the plan; 0 = not a point
};

struct Inflight {
  size_t plan_index;
  int64_t due_ns;
  uint32_t span;
  std::vector<slpspan::SpanTuple> tuples;  // extract pages
};

struct ConnState {
  slpspan::net::Client* client;
  std::string in;
  size_t off = 0;
};

bool CheckPoint(const Planned& p, const PointExpected& e, const slpspan::net::DoneFrame& d,
                const Inflight& f, std::string* why) {
  if (d.code != 0) {
    *why = "status " + d.message;
    return false;
  }
  switch (p.op) {
    case WireOp::kCheck:
      if (d.nonempty != e.nonempty) *why = "check differs";
      break;
    case WireOp::kCount:
      if (!d.count_exact || d.count_value != e.count) *why = "count differs";
      break;
    case WireOp::kExtract:
      if (f.tuples != e.page) *why = "page differs";
      break;
  }
  return why->empty();
}

/// Plays `plan` (point requests only) open-loop over the fixture's
/// connections.
PhaseResult RunWirePhase(Fixture& fx, const std::vector<Planned>& plan, Report& report) {
  PhaseResult r;
  r.point_by_plan_ms.assign(plan.size(), 0);
  std::vector<ConnState> conns;
  for (auto& c : fx.conns) conns.push_back({&c, {}, 0});
  std::vector<pollfd> fds(conns.size());
  for (size_t c = 0; c < conns.size(); ++c) fds[c] = {conns[c].client->fd(), POLLIN, 0};
  std::unordered_map<uint64_t, Inflight> inflight;
  static uint64_t next_id = 1;

  const int64_t start = NowNs() + 1'000'000;
  const int64_t last_due = start + (plan.empty() ? 0 : plan.back().due_offset_ns);
  // Answers still owed this long after the last send count as failed: only a
  // server that stops answering runs into this cap.
  const int64_t give_up = last_due + 10'000'000'000;
  size_t next = 0;
  std::string wire;
  std::vector<char> buf(1 << 16);
  bool broken = false;

  auto fail = [&](const std::string& why) { report.Fail("serve: " + why); };

  auto complete = [&](const slpspan::net::DoneFrame& d) {
    auto it = inflight.find(d.id);
    if (it == inflight.end()) return;
    const int64_t now = NowNs();
    Inflight& f = it->second;
    Trace().Close(f.span);
    const Planned& p = plan[f.plan_index];
    const double ms = NsToMs(now - f.due_ns);
    std::string why;
    if (CheckPoint(p, fx.point_expected, d, f, &why)) {
      r.point_ms.Add(ms);
      r.by_op_ms[static_cast<int>(p.op)].Add(ms);
      r.point_by_plan_ms[f.plan_index] = ms;
    } else {
      fail(why);
    }
    inflight.erase(it);
  };

  auto handle_frame = [&](uint8_t type, const uint8_t* data, size_t size) {
    using slpspan::net::FrameType;
    if (type == static_cast<uint8_t>(FrameType::kPage)) {
      auto page = slpspan::net::DecodePage(data, size);
      if (!page.ok()) return false;
      auto it = inflight.find(page.value().id);
      if (it == inflight.end()) return true;
      auto& dst = it->second.tuples;
      dst.insert(dst.end(), page.value().tuples.begin(), page.value().tuples.end());
      return true;
    }
    if (type == static_cast<uint8_t>(FrameType::kDone)) {
      auto done = slpspan::net::DecodeDone(data, size);
      if (!done.ok()) return false;
      complete(done.value());
      return true;
    }
    return false;
  };

  while (!broken && (next < plan.size() || !inflight.empty())) {
    int64_t now = NowNs();
    if (next >= plan.size() && now > give_up) break;
    while (next < plan.size() && start + plan[next].due_offset_ns <= now) {
      const Planned& p = plan[next];
      slpspan::net::RequestFrame req;
      req.id = next_id++;
      req.op = p.op;
      req.priority = static_cast<uint8_t>(slpspan::Priority::kInteractive);
      req.limit = p.op == WireOp::kExtract ? kPage : UINT64_MAX;
      req.document = kPointPair.doc;
      req.pattern = PatternOf(kPointPair, p.variant);
      wire.clear();
      slpspan::net::AppendRequest(req, &wire);
      const int64_t due = start + p.due_offset_ns;
      const uint32_t span = Trace().Open("wire.point", req.id, 0);
      ConnState& cs = conns[next % conns.size()];
      report.Attempt();
      if (!slpspan::net::SendAll(cs.client->fd(), wire.data(), wire.size()).ok()) {
        fail("send failed");
        broken = true;
        break;
      }
      r.late_us.Add(NsToUs(NowNs() - due));
      inflight.emplace(req.id, Inflight{next, due, span, {}});
      ++next;
      now = NowNs();
    }
    // The generator never sleeps: a timer wake-up on a virtual machine can be
    // late by milliseconds, and that lateness would be charged to requests.
    const int ready = poll(fds.data(), fds.size(), 0);
    if (ready <= 0) continue;
    for (size_t c = 0; c < conns.size() && !broken; ++c) {
      if ((fds[c].revents & (POLLIN | POLLHUP | POLLERR)) == 0) continue;
      ConnState& cs = conns[c];
      bool would_block = false;
      auto n = slpspan::net::RecvSome(cs.client->fd(), buf.data(), buf.size(), &would_block);
      if (!n.ok() || (n.value() == 0 && !would_block)) {
        fail("connection lost");
        broken = true;
        break;
      }
      cs.in.append(buf.data(), n.value());
      while (cs.in.size() - cs.off >= slpspan::net::kFrameHeaderBytes) {
        const auto* data = reinterpret_cast<const uint8_t*>(cs.in.data()) + cs.off;
        const auto h = slpspan::net::DecodeHeader(data);
        if (h.payload_size > slpspan::net::kMaxOutboundPayload) {
          fail("oversized frame from server");
          broken = true;
          break;
        }
        const size_t total = slpspan::net::kFrameHeaderBytes + h.payload_size;
        if (cs.in.size() - cs.off < total) break;
        if (!handle_frame(h.type, data + slpspan::net::kFrameHeaderBytes, h.payload_size)) {
          fail("bad frame from server");
          broken = true;
          break;
        }
        cs.off += total;
      }
      if (cs.off > (1u << 20) || cs.off == cs.in.size()) {
        cs.in.erase(0, cs.off);
        cs.off = 0;
      }
    }
  }
  // Whatever is still owed (or never sent) counts as failed.
  const size_t unanswered = inflight.size() + (plan.size() - next);
  for (size_t i = 0; i < unanswered; ++i) fail("request unanswered");
  return r;
}

struct ScanLoopResult {
  std::vector<double> latency_ms;  // send to done, in order of completion
  double scans_per_s = 0;          // over the wall time of the loop
};

/// Closed loop over the wire: kScanClients clients, each on its own thread
/// and connection, run scans back to back for `seconds`, one in flight each.
/// Every scan is streamed in pages and checked against the expected digest.
ScanLoopResult RunScanLoop(Fixture& fx, double seconds, Report& report) {
  struct Done {
    int64_t end_ns;
    double ms;
  };
  struct ClientResult {
    std::vector<Done> done;
    uint64_t attempted = 0;
    bool failed = false;
  };
  std::vector<ClientResult> results(kScanClients);
  const int64_t start = NowNs();
  const int64_t end = start + static_cast<int64_t>(seconds * 1e9);
  auto client = [&](size_t c) {
    ClientResult& r = results[c];
    // Clients start half a heavy period apart, so their long scans do not
    // coincide.
    for (uint64_t k = c * kHeavyEvery / kScanClients; NowNs() < end; ++k) {
      const size_t p = k % kHeavyEvery == kHeavyEvery - 1 ? 1 : 0;
      const PairSpec& spec = kScanPairs[p];
      TupleDigest digest;
      ++r.attempted;
      const int64_t t0 = NowNs();
      const uint32_t span = Trace().Open("wire.scan", k, 0);
      auto res = fx.conns[c].Call(
          WireOp::kExtract, spec.doc, PatternOf(spec),
          {.priority = static_cast<uint8_t>(slpspan::Priority::kBatch),
           .on_page = [&](const std::vector<slpspan::SpanTuple>& page) {
             for (const auto& t : page) digest.Add(t);
           }});
      Trace().Close(span);
      const int64_t t1 = NowNs();
      if (!res.ok() || !res.value().ok() || digest.count() != fx.scan_expected[p].count ||
          digest.value() != fx.scan_expected[p].digest) {
        r.failed = true;
        return;
      }
      r.done.push_back({t1, NsToMs(t1 - t0)});
    }
  };
  std::vector<std::thread> threads;
  for (size_t c = 0; c < kScanClients; ++c) threads.emplace_back(client, c);
  for (std::thread& t : threads) t.join();
  const double wall_s = static_cast<double>(NowNs() - start) / 1e9;
  std::vector<Done> all;
  for (const ClientResult& r : results) {
    for (uint64_t i = 0; i < r.attempted; ++i) report.Attempt();
    if (r.failed) report.Fail("serve scan loop: scan differs");
    all.insert(all.end(), r.done.begin(), r.done.end());
  }
  std::sort(all.begin(), all.end(),
            [](const Done& a, const Done& b) { return a.end_ns < b.end_ns; });
  ScanLoopResult out;
  for (const Done& d : all) out.latency_ms.push_back(d.ms);
  out.scans_per_s = static_cast<double>(all.size()) / wall_s;
  return out;
}

/// Closed-loop saturation over the wire: every connection keeps kDepth
/// point requests in flight for `seconds`, so both Session workers stay
/// busy. Returns the median over half-second slices of point requests
/// completed per second, so a host stall in one slice does not set it.
double RunSaturation(Fixture& fx, uint64_t seed, double seconds, Report& report) {
  constexpr size_t kDepth = 2;
  struct Outstanding {
    uint64_t id;
    WireOp op;
  };
  std::mt19937_64 rng(seed);
  std::vector<std::vector<Outstanding>> pending(fx.conns.size());
  bool ok = true;
  auto send = [&](size_t c) {
    const WireOp op = kPointOps[rng() % kNumPointOps];
    const auto variant = static_cast<uint32_t>(rng() % kCheckVariants);
    report.Attempt();
    auto id = fx.conns[c].Send(
        op, kPointPair.doc, PatternOf(kPointPair, op == WireOp::kCheck ? variant : 0),
        {.limit = op == WireOp::kExtract ? kPage : UINT64_MAX,
         .priority = static_cast<uint8_t>(slpspan::Priority::kInteractive)});
    if (!id.ok()) {
      report.Fail("serve saturation: send failed");
      ok = false;
      return;
    }
    pending[c].push_back({id.value(), op});
  };
  auto receive = [&](size_t c) {
    const Outstanding out = pending[c].front();
    pending[c].erase(pending[c].begin());
    auto res = fx.conns[c].Receive(out.id);
    const PointExpected& e = fx.point_expected;
    const bool right =
        res.ok() && res.value().ok() &&
        (out.op == WireOp::kCheck   ? res.value().nonempty == e.nonempty
         : out.op == WireOp::kCount ? res.value().count_value == e.count
                                    : res.value().tuples == e.page);
    if (!right) {
      report.Fail("serve saturation: answer differs");
      ok = false;
    }
  };
  for (size_t c = 0; c < fx.conns.size(); ++c) {
    for (size_t d = 0; d < kDepth && ok; ++d) send(c);
  }
  constexpr int64_t kSliceNs = 500'000'000;
  const int64_t start = NowNs();
  const auto slices = std::max<int64_t>(static_cast<int64_t>(seconds * 1e9) / kSliceNs, 1);
  std::vector<uint64_t> completed(static_cast<size_t>(slices), 0);
  for (int64_t now = start; ok && now < start + slices * kSliceNs; now = NowNs()) {
    for (size_t c = 0; c < fx.conns.size() && ok; ++c) {
      receive(c);
      const int64_t slice = (NowNs() - start) / kSliceNs;
      if (slice < slices) ++completed[static_cast<size_t>(slice)];
      send(c);
    }
  }
  for (size_t c = 0; c < fx.conns.size() && ok; ++c) {
    while (!pending[c].empty() && ok) receive(c);
  }
  Dist per_second;
  for (uint64_t n : completed) per_second.Add(static_cast<double>(n) * 1e9 / kSliceNs);
  return per_second.Median();
}

// ------------------------------------------------------- in-process replay

struct ReplayResult {
  Dist point_ms, queue_interactive_us, queue_batch_us, eval_us;
  double coalesced_ratio = 0;  // Session::stats: coalesced / submitted
};

/// Plays the same plan through Session::Submit against the fixture's own
/// (pre-warmed) documents, on a Session with the server's worker count.
ReplayResult RunSessionReplay(Fixture& fx, const std::vector<Planned>& plan, Report& report) {
  ReplayResult r;
  slpspan::Session session(slpspan::SessionOptions{.num_threads = kServerThreads});
  std::vector<slpspan::Ticket> tickets;
  std::vector<int64_t> done_ns(plan.size(), 0);
  std::vector<int64_t> due_ns(plan.size(), 0);
  std::vector<int64_t> submit_ns(plan.size(), 0);
  tickets.reserve(plan.size());
  const int64_t start = NowNs() + 1'000'000;
  for (size_t i = 0; i < plan.size(); ++i) {
    const Planned& p = plan[i];
    due_ns[i] = start + p.due_offset_ns;
    while (NowNs() < due_ns[i]) {
      const int64_t left = due_ns[i] - NowNs();
      if (left > 200'000) std::this_thread::sleep_for(std::chrono::nanoseconds(left - 100'000));
    }
    slpspan::EngineRequest req{
        .query = p.scan ? fx.scan_queries[p.scan_pair] : fx.point_queries[p.variant],
        .document = p.scan ? fx.scan_docs[p.scan_pair] : fx.point_doc,
        .op = p.op == WireOp::kCheck   ? slpspan::EngineRequest::Op::kIsNonEmpty
              : p.op == WireOp::kCount ? slpspan::EngineRequest::Op::kCount
                                       : slpspan::EngineRequest::Op::kExtract};
    if (!p.scan && p.op == WireOp::kExtract) req.limit = kPage;
    const uint32_t span = Trace().Open("Session.Submit", i, 0);
    int64_t* done = &done_ns[i];
    submit_ns[i] = NowNs();
    report.Attempt();
    tickets.push_back(session.Submit(
        std::move(req),
        {.priority = p.scan ? slpspan::Priority::kBatch : slpspan::Priority::kInteractive,
         .callback = [done, span](const slpspan::Result<slpspan::EngineOutput>&) {
           Trace().Close(span);
           *done = NowNs();
         }}));
  }
  for (size_t i = 0; i < plan.size(); ++i) {
    const Planned& p = plan[i];
    const auto& res = tickets[i].Wait();
    bool ok = res.ok();
    if (ok && p.scan) {
      TupleDigest digest;
      for (const auto& t : res.value().tuples) digest.Add(t);
      ok = digest.count() == fx.scan_expected[p.scan_pair].count &&
           digest.value() == fx.scan_expected[p.scan_pair].digest;
    } else if (ok) {
      const PointExpected& e = fx.point_expected;
      ok = p.op == WireOp::kCheck   ? res.value().nonempty == e.nonempty
           : p.op == WireOp::kCount ? res.value().count.value == e.count
                                    : res.value().tuples == e.page;
    }
    if (!ok) {
      report.Fail("serve replay: in-process answer differs");
      continue;
    }
    const auto queue = tickets[i].queue_latency();
    const double queue_us = queue ? static_cast<double>(queue->count()) : 0;
    (p.scan ? r.queue_batch_us : r.queue_interactive_us).Add(queue_us);
    // The callback runs before Wait returns, so done_ns is set.
    r.eval_us.Add(std::max(0.0, NsToUs(done_ns[i] - submit_ns[i]) - queue_us));
    if (!p.scan) r.point_ms.Add(NsToMs(done_ns[i] - due_ns[i]));
  }
  const auto stats = session.stats();
  uint64_t submitted = 0, coalesced = 0;
  for (const auto& c : stats.by_class) {
    submitted += c.submitted;
    coalesced += c.coalesced;
  }
  r.coalesced_ratio =
      submitted ? static_cast<double>(coalesced) / static_cast<double>(submitted) : 0;
  return r;
}

/// Direct, hot Engine calls: non-emptiness and count of the point pair and
/// the scans' full enumeration, each under its own span.
void RunDirectCalls(Fixture& fx, double seconds, Report& report) {
  const int64_t end = NowNs() + static_cast<int64_t>(seconds * 1e9);
  const Engine point(fx.point_queries[0], fx.point_doc);
  for (uint64_t round = 0; NowNs() < end; ++round) {
    bool nonempty;
    {
      Scope s("IsNonEmpty", round);
      nonempty = point.IsNonEmpty();
    }
    slpspan::Result<slpspan::CountInfo> count = slpspan::Status::InvalidArgument("unset");
    {
      Scope s("Count.hot", round);
      count = point.Count();
    }
    report.Attempt();
    if (nonempty != fx.point_expected.nonempty || !count.ok() ||
        count.value().value != fx.point_expected.count) {
      report.Fail("serve direct: in-process answer differs");
    }
    const size_t p = round % kNumScan;
    const Engine e(fx.scan_queries[p], fx.scan_docs[p]);
    TupleDigest digest;
    slpspan::ResultStream stream = [&] {
      Scope s("Extract.first", round);
      slpspan::ResultStream st = e.Extract();
      (void)st.Valid();
      return st;
    }();
    while (stream.Valid()) {
      digest.Add(stream.Current());
      Scope s("Extract.next", round);
      stream.Next();
    }
    report.Attempt();
    if (digest.count() != fx.scan_expected[p].count ||
        digest.value() != fx.scan_expected[p].digest) {
      report.Fail("serve direct: scan differs");
    }
  }
}

void NotePhase(const char* what, PhaseResult& r, Report& report) {
  report.Note(Fmt("%s: %zu points p50 %.3f ms p99 %.3f ms; generator late p99 %.1f us",
                  what, r.point_ms.size(), r.point_ms.Median(), r.point_ms.Pct(0.99),
                  r.late_us.Pct(0.99)));
  const char* names[3] = {"check", "count", "extract"};
  for (int op = 0; op < 3; ++op) {
    report.Note(Fmt("  %s over the wire: p50 %.3f ms p99 %.3f ms", names[op],
                    r.by_op_ms[op].Median(), r.by_op_ms[op].Pct(0.99)));
  }
}

}  // namespace

int RunServe(const Config& cfg, Report& report) {
  std::unique_ptr<Fixture> fx;
  bool built = true;
  const int reps = cfg.trace ? 1 : 5;
  // The server's threads inherit the CPU mask of the thread that starts them,
  // so set-up is not rotated over CPUs.
  const double setup_s = MedianSetupSeconds(reps, /*rotate_cpus=*/false, [&] {
    fx.reset();
    // Hand the previous fixture's freed memory back, so that which malloc
    // arenas the new server threads get does not move peak_rss_mb (without
    // this it read 37 or 43 MiB from run to run).
    malloc_trim(0);
    fx = std::make_unique<Fixture>();
    built = built && BuildFixture(cfg, *fx);
  });
  if (!built) {
    std::fprintf(stderr, "perfbench: serve setup failed\n");
    return 4;
  }
  const uint64_t ws = slpspan::Runtime::cache_stats().bytes;
  report.Note(Fmt("serve: working set %.1f MiB of prepared state (server and in-process "
                  "copies) against a %.0f MiB cache budget",
                  static_cast<double>(ws) / 1048576.0,
                  static_cast<double>(slpspan::Runtime::cache_stats().budget_bytes) / 1048576.0));

  if (!cfg.trace) {
    (void)RunScanLoop(*fx, 1.0, report);  // warm-up, not measured
    const ScanLoopResult scans = RunScanLoop(*fx, cfg.seconds, report);
    report.Set("setup_s", setup_s);
    SetLatencyMetrics(report, scans.latency_ms, /*closed_loop=*/false);
    report.Set("ops_per_s", scans.scans_per_s);
    return 0;
  }

  // Three seconds at the reference rate, not measured: wakes every thread
  // and core of the serving path before the first timed request (with one
  // second, the first timed phase still ran late).
  (void)RunWirePhase(*fx, MakePlan(SubSeed(cfg.seed, 32, 0), kReferenceRate, 0, 3.0), report);

  // The untraced and traced wire passes and the in-process replay play the
  // same point plan, so their latencies compare request for request; a
  // second replay of scans alone fills the batch queue class.
  const double quarter = cfg.seconds / 4;
  const std::vector<Planned> plan =
      MakePlan(SubSeed(cfg.seed, 31, 0), kReferenceRate, 0, quarter);
  const auto cache0 = slpspan::Runtime::cache_stats();
  PhaseResult plain = RunWirePhase(*fx, plan, report);
  const double max_rps =
      RunSaturation(*fx, SubSeed(cfg.seed, 33, 0), cfg.seconds * 0.12, report);
  Trace().Enable(true);
  PhaseResult traced = RunWirePhase(*fx, plan, report);
  // The server's counters around the scans alone.
  auto wire0 = fx->stats_conn->Stats();
  Dist scan_ms;
  for (double ms : RunScanLoop(*fx, cfg.seconds * 0.12, report).latency_ms) scan_ms.Add(ms);
  auto wire1 = fx->stats_conn->Stats();
  ReplayResult replay = RunSessionReplay(*fx, plan, report);
  const ReplayResult scan_replay = RunSessionReplay(
      *fx, MakePlan(SubSeed(cfg.seed, 34, 0), 0, kScanRate, cfg.seconds * 0.12), report);
  replay.queue_batch_us.Append(scan_replay.queue_batch_us);
  RunDirectCalls(*fx, quarter, report);
  Trace().Enable(false);
  const auto cache1 = slpspan::Runtime::cache_stats();
  NotePhase("untraced wire", plain, report);
  NotePhase("traced wire", traced, report);
  report.Note(Fmt("traced scans: %zu, p50 %.1f ms, p99 %.1f ms", scan_ms.size(),
                  scan_ms.Median(), scan_ms.Pct(0.99)));
  report.Note(Fmt("saturation: %.1f points/s with %zu connections x 2 in flight", max_rps,
                  fx->conns.size()));

  report.Set("prepare.ms", fx->prepare_ms.Median());
  fx->prepare.SetMetrics(report);
  SetEvaluationMetrics(report);
  report.Set("session.queue_us.p50.interactive", replay.queue_interactive_us.Median());
  report.Set("session.queue_us.p99.interactive", replay.queue_interactive_us.Pct(0.99));
  report.Set("session.queue_us.p50.batch", replay.queue_batch_us.Median());
  report.Set("session.queue_us.p99.batch", replay.queue_batch_us.Pct(0.99));
  report.Set("session.eval_us", replay.eval_us.Median());
  report.Set("session.coalesced_ratio", replay.coalesced_ratio);
  report.Set("session.saturation_rps", max_rps);
  const double lookups = static_cast<double>((cache1.hits - cache0.hits) +
                                             (cache1.misses - cache0.misses));
  report.Set("cache.hit_ratio",
             lookups > 0 ? static_cast<double>(cache1.hits - cache0.hits) / lookups : 0);
  report.Set("cache.evictions", static_cast<double>(cache1.evictions - cache0.evictions));
  report.Set("cache.admission_rejects",
             static_cast<double>(cache1.admission_rejects - cache0.admission_rejects));
  report.Set("cache.resident_bytes", static_cast<double>(cache1.bytes));
  if (cache1.misses != cache0.misses) {
    report.Note("warning: the serve working set missed the RAM cache");
  }
  if (wire0.ok() && wire1.ok()) {
    const auto& a = wire0.value();
    const auto& b = wire1.value();
    const double tuples = static_cast<double>(b.tuples_sent - a.tuples_sent);
    report.Set("net.bytes_out_per_tuple",
               tuples > 0 ? static_cast<double>(b.bytes_out - a.bytes_out) / tuples : 0);
    report.Set("net.pages", static_cast<double>(b.pages_sent - a.pages_sent));
    report.Set("net.backpressure_pauses",
               static_cast<double>(b.backpressure_pauses - a.backpressure_pauses));
  }
  report.Set("net.wire_overhead_us.p50",
             (plain.point_ms.Median() - replay.point_ms.Median()) * 1e3);
  report.Set("net.point_p50_ms", plain.point_ms.Median());
  report.Set("net.point_p99_ms", plain.point_ms.Pct(0.99));
  report.Set("loadgen.late_us.p99", plain.late_us.Pct(0.99));
  report.Set("trace.overhead_pct",
             OverheadPct(plain.point_by_plan_ms, traced.point_by_plan_ms));
  return 0;
}

}  // namespace perfbench
