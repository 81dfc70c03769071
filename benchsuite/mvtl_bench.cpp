// mvtl_bench — runs one workload of the benchmark suite in this process
// and prints its measurements as one JSON object on stdout.
//
//   mvtl_bench --workload=NAME --seed=N --seconds=S [--traced]
//              [--spans=PATH]
//
// Each run: set up (engine or cluster construction plus preload) again
// and again for kSetupNs, keeping the last, start the workload's
// closed-loop clients, warm up for kWarmupNs, measure for S seconds, stop
// the clients, then check that the sum over all keys equals the
// increments that committed.
// --traced wraps the store in a TimedStore and reports the per-layer
// metrics. run.py is the user-facing runner; README.md defines every
// metric.
#include <sys/prctl.h>
#include <sys/resource.h>

#include <algorithm>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <map>
#include <string>
#include <thread>
#include <tuple>
#include <utility>
#include <vector>

#include "api/db.hpp"
#include "core/mvtl_engine.hpp"
#include "core/policy.hpp"
#include "dist/cluster.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "suite.hpp"

namespace mvtl_bench {
namespace {

using mvtl::Db;

/// Threads that preload the store and scan it afterwards.
constexpr std::size_t kLoaders = 4;
/// Set-up repeats at least kSetups times and for at least kSetupNs, and
/// setup_s is the median. Spread over seconds, the samples outlast a
/// short slow spell of the host, which would set the median of a few
/// back-to-back set-ups of a small store.
constexpr std::size_t kSetups = 9;
constexpr std::uint64_t kSetupNs = 2'000'000'000;
/// Clients run this long before the measure window opens.
constexpr std::uint64_t kWarmupNs = 3'000'000'000;
/// The measure window is cut into slices of this length; each end-to-end
/// timing metric is the median of its per-slice values, which a burst of
/// interference from outside the process moves less than a whole-window
/// figure.
constexpr std::uint64_t kSliceNs = 1'000'000'000;
/// Sampled transact calls whose spans go to the span file.
constexpr std::size_t kSpanFileTraces = 2000;

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 0.0;
  bool traced = false;
  std::string spans;
};

[[noreturn]] void usage(const char* why) {
  std::fprintf(stderr,
               "mvtl_bench: %s\nusage: mvtl_bench --workload=NAME --seed=N "
               "--seconds=S [--traced] [--spans=PATH]\n"
               "workloads:",
               why);
  for (const Workload& w : kWorkloads) std::fprintf(stderr, " %s", w.name);
  std::fprintf(stderr, "\n");
  std::exit(2);
}

Args parse_args(int argc, char** argv) {
  Args a;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto value = [&](const char* flag) -> const char* {
      const std::size_t n = std::strlen(flag);
      return arg.compare(0, n, flag) == 0 ? argv[i] + n : nullptr;
    };
    if (const char* v = value("--workload=")) {
      a.workload = v;
    } else if (const char* v = value("--seed=")) {
      a.seed = std::strtoull(v, nullptr, 10);
    } else if (const char* v = value("--seconds=")) {
      a.seconds = std::atof(v);
    } else if (const char* v = value("--spans=")) {
      a.spans = v;
    } else if (arg == "--traced") {
      a.traced = true;
    } else {
      usage(("unknown argument " + arg).c_str());
    }
  }
  if (a.seconds <= 0.0) usage("--seconds=S (S > 0) is required");
  return a;
}

// --- the system under test ---------------------------------------------------

/// The Db of one run plus the handles the traced run reads from.
struct Bed {
  std::unique_ptr<mvtl::obs::Registry> registry;  ///< outlives the engine
  std::unique_ptr<Db> db;
  mvtl::Cluster* cluster = nullptr;
  TimedStore* timed = nullptr;
};

mvtl::ClusterConfig cluster_config(const Workload& w, std::uint64_t seed,
                                   bool traced) {
  mvtl::ClusterConfig c;
  c.servers = 4;
  c.replication_factor = 3;
  c.server_threads = 2;
  // The simulated network with the paper's local test bed latency. Over
  // loopback TCP the 12 servers' message handling is all CPU on a few
  // cores, so the metrics follow the host's CPU speed; with network delay
  // in every round trip they repeat.
  c.transport = mvtl::TransportKind::kSim;
  c.net = mvtl::NetProfile::local();
  c.key_space = w.mix.keys;
  c.seed = seed;
  if (traced) c.trace_sample_every = w.sample_every;
  return c;
}

/// Untraced: exactly what a user opens. Traced: the same engine built
/// through the SPI so it can carry a metrics registry and a TimedStore.
Bed make_bed(const Workload& w, std::uint64_t seed, bool traced) {
  Bed bed;
  const auto policy =
      mvtl::Policy::distributed(mvtl::DistProtocol::kMvtilEarly,
                                cluster_config(w, seed, traced));
  if (!traced) {
    bed.db = std::make_unique<Db>(
        w.cluster ? mvtl::Options().policy(policy).open()
                  : mvtl::Options().open());
    if (w.cluster) {
      bed.cluster =
          &dynamic_cast<mvtl::ClusterStore&>(bed.db->spi()).cluster();
    }
    return bed;
  }
  std::unique_ptr<mvtl::TransactionalStore> inner;
  std::shared_ptr<mvtl::ClockSource> clock;
  if (w.cluster) {
    auto store = std::make_unique<mvtl::ClusterStore>(
        policy.dist_protocol(), policy.cluster_config());
    bed.cluster = &store->cluster();
    clock = bed.cluster->clock();
    inner = std::move(store);
  } else {
    // The Options().open() defaults: MVTIL-early, Δ = 5000, GC on commit.
    bed.registry = std::make_unique<mvtl::obs::Registry>();
    clock = std::make_shared<mvtl::SystemClock>();
    mvtl::MvtlEngineConfig config;
    config.clock = clock;
    config.metrics = bed.registry.get();
    inner = std::make_unique<mvtl::MvtlEngine>(
        mvtl::make_mvtil_policy(5'000, /*early=*/true, /*gc_on_commit=*/true),
        std::move(config));
  }
  auto timed =
      std::make_unique<TimedStore>(std::move(inner), clock, w.sample_every);
  bed.timed = timed.get();
  bed.db = std::make_unique<Db>(std::move(timed), clock);
  return bed;
}

// --- clients -----------------------------------------------------------------

struct ClientResult {
  // Transact calls that returned inside the measure window.
  std::uint64_t calls = 0;
  std::uint64_t committed = 0;
  std::uint64_t failed = 0;
  std::uint64_t attempts = 0;
  std::uint64_t retried = 0;
  /// Latency of committed calls, by the window slice they returned in.
  std::vector<std::vector<std::uint64_t>> latency_ns;
  std::vector<std::uint64_t> commit_end_ns;  ///< traced runs only
  std::vector<std::uint64_t> api_self_ns;    ///< traced, sampled calls
  // Over the whole run, for the increment-sum check.
  std::uint64_t increments = 0;
  std::uint64_t corrupt = 0;  ///< a read returned a non-integer value
  ThreadLog log;
};

void client_loop(Db& db, TimedStore* timed, const Workload& w,
                 std::uint64_t seed, std::size_t index, std::uint64_t ws,
                 std::uint64_t we, const std::atomic<bool>& stop,
                 ClientResult& out) {
  PlanStream stream(w.mix, seed, index);
  // Linux lets a sleep overrun by the thread's timer slack, 50 µs by
  // default; think time must be as long as the workload says.
  prctl(PR_SET_TIMERSLACK, 1UL);
  if (timed != nullptr) TimedStore::bind(&out.log);
  mvtl::TxOptions options;
  options.process = static_cast<mvtl::ProcessId>(index + 1);
  while (!stop.load(std::memory_order_relaxed)) {
    const TxPlan plan = stream.next();
    options.read_only = plan.read_only;
    std::uint64_t attempts = 0;
    std::uint64_t increments = 0;
    std::uint64_t think_ns = 0;
    if (timed != nullptr) TimedStore::start_transact();
    const std::uint64_t t0 = steady_ns();
    const auto r = db.transact(
        [&](mvtl::Transaction& tx) {
          ++attempts;
          return run_plan(tx, plan, w.think, increments, think_ns);
        },
        options);
    const std::uint64_t t1 = steady_ns();
    if (r.ok()) {
      out.increments += increments;
    } else if (r.error().code() == mvtl::TxErrorCode::kUserAbort) {
      ++out.corrupt;
    }
    const bool in_window = t1 >= ws && t1 < we;
    if (timed != nullptr) {
      const auto spi_ns = timed->end_transact(t1 - t0, in_window);
      if (spi_ns) out.api_self_ns.push_back(t1 - t0 - *spi_ns - think_ns);
    }
    if (!in_window) continue;
    ++out.calls;
    out.attempts += attempts;
    if (attempts > 1) ++out.retried;
    if (r.ok()) {
      ++out.committed;
      const std::size_t slice = (t1 - ws) / kSliceNs;
      if (slice >= out.latency_ns.size()) out.latency_ns.resize(slice + 1);
      out.latency_ns[slice].push_back(t1 - t0);
      if (timed != nullptr) out.commit_end_ns.push_back(t1);
    } else {
      ++out.failed;
    }
  }
  if (timed != nullptr) TimedStore::bind(nullptr);
}

// --- output ------------------------------------------------------------------

class JsonObject {
 public:
  void num(const std::string& key, double v) {
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%.17g", v);
    field(key, buf);
  }
  void integer(const std::string& key, std::uint64_t v) {
    field(key, std::to_string(v));
  }
  void boolean(const std::string& key, bool v) {
    field(key, v ? "true" : "false");
  }
  void str(const std::string& key, const std::string& v) {
    field(key, "\"" + v + "\"");
  }
  void object(const std::string& key, const JsonObject& o) {
    field(key, o.text());
  }
  std::string text() const { return "{" + body_ + "}"; }

 private:
  void field(const std::string& key, const std::string& raw) {
    if (!body_.empty()) body_ += ", ";
    body_ += "\"" + key + "\": " + raw;
  }
  std::string body_;
};

/// User plus system CPU time of every thread of this process, in µs.
double cpu_us() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_utime.tv_sec + ru.ru_stime.tv_sec) * 1e6 +
         static_cast<double>(ru.ru_utime.tv_usec + ru.ru_stime.tv_usec);
}

double peak_rss_mib() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

// --- per-layer metrics (traced runs) ----------------------------------------

/// What the traced run samples at the window's edges.
struct Edge {
  mvtl::StoreStats stats;
  mvtl::obs::MetricsSnapshot metrics;
  std::uint64_t requests = 0;
};

Edge sample_edge(Bed& bed) {
  Edge e;
  if (bed.cluster != nullptr) {
    e.stats = bed.db->stats();
    e.metrics = bed.cluster->merged_metrics();
    e.requests = bed.cluster->net().requests_sent();
  } else {
    e.metrics = bed.registry->snapshot();
  }
  return e;
}

std::uint64_t counter_delta(const Edge& a, const Edge& b,
                            const std::string& name) {
  auto get = [&name](const Edge& e) -> std::uint64_t {
    const auto it = e.metrics.counters.find(name);
    return it == e.metrics.counters.end() ? 0 : it->second;
  };
  return get(b) - get(a);
}

/// The observations a histogram gained between two snapshots.
mvtl::obs::HistogramSnapshot histogram_delta(const Edge& a, const Edge& b,
                                             const std::string& name) {
  mvtl::obs::HistogramSnapshot out;
  const auto end = b.metrics.histograms.find(name);
  if (end == b.metrics.histograms.end()) return out;
  std::map<std::uint32_t, std::uint64_t> before;
  if (const auto it = a.metrics.histograms.find(name);
      it != a.metrics.histograms.end()) {
    before.insert(it->second.buckets.begin(), it->second.buckets.end());
  }
  for (const auto& [index, n] : end->second.buckets) {
    const std::uint64_t d = n - before[index];
    if (d == 0) continue;
    out.buckets.emplace_back(index, d);
    out.count += d;
  }
  return out;
}

double ratio(double num, double den) { return den > 0.0 ? num / den : 0.0; }

double us(std::uint64_t ns) { return static_cast<double>(ns) / 1000.0; }

double median(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  if (n == 0) return 0.0;
  return n % 2 == 1 ? v[n / 2] : (v[n / 2 - 1] + v[n / 2]) / 2;
}

/// Abort reasons reported one by one; the rest are summed as "other".
const AbortReason kReportedReasons[] = {
    AbortReason::kNoCommonTimestamp,    AbortReason::kLockTimeout,
    AbortReason::kVersionPurged,        AbortReason::kCoordinatorSuspected,
    AbortReason::kNotLeader,            AbortReason::kReplicaBehind,
};

template <typename CountOf>
void abort_metrics(JsonObject& m, const std::string& prefix, double per,
                   CountOf&& count_of) {
  double other = 0.0;
  for (std::size_t i = 0; i < kAbortReasonCount; ++i) {
    const auto reason = static_cast<AbortReason>(i);
    const double n = static_cast<double>(count_of(reason));
    bool reported = false;
    for (const AbortReason r : kReportedReasons) reported |= r == reason;
    if (reported) {
      m.num(prefix + mvtl::abort_reason_name(reason), ratio(1000.0 * n, per));
    } else {
      other += n;
    }
  }
  m.num(prefix + "other", ratio(1000.0 * other, per));
}

struct SpanLine {
  std::uint64_t trace;
  std::uint64_t tx;
  std::string name;
  std::string where;
  std::uint64_t start_us;
  double dur_us;
  std::string parent;
};

/// Per-layer metrics of a traced run, plus the span file.
JsonObject layer_metrics(Bed& bed, const Args& args,
                         std::vector<ClientResult>& clients, const Edge& a,
                         const Edge& b, std::uint64_t ws, std::uint64_t we) {
  JsonObject m;
  std::uint64_t calls = 0, committed = 0, attempts = 0, retried = 0;
  std::vector<std::uint64_t> api_self;
  std::vector<std::uint64_t> commit_ends;
  std::map<SpanKind, std::vector<std::uint64_t>> spi_ns;
  std::vector<Span> spans;
  std::uint64_t spi_attempts = 0;
  std::array<std::uint64_t, kAbortReasonCount> spi_aborts{};
  for (ClientResult& c : clients) {
    calls += c.calls;
    committed += c.committed;
    attempts += c.attempts;
    retried += c.retried;
    api_self.insert(api_self.end(), c.api_self_ns.begin(), c.api_self_ns.end());
    commit_ends.insert(commit_ends.end(), c.commit_end_ns.begin(),
                       c.commit_end_ns.end());
    spi_attempts += c.log.attempts;
    for (std::size_t i = 0; i < kAbortReasonCount; ++i) {
      spi_aborts[i] += c.log.aborts[i];
    }
    for (const Span& s : c.log.spans) {
      if (s.kind != SpanKind::kTransact) spi_ns[s.kind].push_back(s.dur_ns);
      spans.push_back(s);
    }
  }
  const double tx = static_cast<double>(committed);
  const double window_s = static_cast<double>(we - ws) / 1e9;

  // api: the Db::transact combinator.
  m.num("api.attempts_per_tx", ratio(static_cast<double>(attempts), calls));
  m.num("api.retried_frac", ratio(static_cast<double>(retried), calls));
  m.num("api.self_us.p50", us(percentile(api_self, 0.50)));
  m.num("api.self_us.p99", us(percentile(api_self, 0.99)));

  // spi: the TransactionalStore calls (core engine or dist client).
  m.num("spi.begin_us.p50", us(percentile(spi_ns[SpanKind::kBegin], 0.50)));
  for (const auto& [kind, label] :
       {std::pair{SpanKind::kRead, "read"}, std::pair{SpanKind::kWrite, "write"},
        std::pair{SpanKind::kCommit, "commit"}}) {
    const std::string base = std::string("spi.") + label + "_us.";
    m.num(base + "p50", us(percentile(spi_ns[kind], 0.50)));
    m.num(base + "p99", us(percentile(spi_ns[kind], 0.99)));
  }
  abort_metrics(m, "spi.aborts.", static_cast<double>(spi_attempts),
                [&](AbortReason r) {
                  return spi_aborts[static_cast<std::size_t>(r)];
                });

  // core: engine counters (the bench's registry, or the servers' merged).
  m.num("engine.lock_waits_per_tx",
        ratio(static_cast<double>(counter_delta(a, b, "engine.lock_waits")),
              tx));
  abort_metrics(m, "engine.aborts.", static_cast<double>(attempts),
                [&](AbortReason r) {
                  return counter_delta(
                      a, b,
                      std::string("engine.aborts.") +
                          mvtl::abort_reason_name(r));
                });
  m.num("engine.version_chain_len.p99",
        static_cast<double>(
            histogram_delta(a, b, "engine.version_chain_len").quantile(0.99)));

  // storage: metadata held at the end of the window.
  const mvtl::StoreStats end_stats = bed.db->stats();
  m.num("storage.versions_per_key",
        ratio(static_cast<double>(end_stats.versions),
              static_cast<double>(end_stats.keys)));
  m.num("storage.lock_entries_per_key",
        ratio(static_cast<double>(end_stats.lock_entries),
              static_cast<double>(end_stats.keys)));

  // storage (GC): purge passes that started inside the window.
  std::vector<std::uint64_t> pass_ns;
  std::uint64_t dropped = 0, in_pass_ns = 0, in_pass_commits = 0;
  std::sort(commit_ends.begin(), commit_ends.end());
  for (const TimedStore::GcPass& p : bed.timed->gc_passes()) {
    if (p.start_ns < ws || p.start_ns >= we) continue;
    pass_ns.push_back(p.dur_ns);
    dropped += p.dropped;
    const std::uint64_t end = std::min(we, p.start_ns + p.dur_ns);
    in_pass_ns += end - p.start_ns;
    in_pass_commits += static_cast<std::uint64_t>(
        std::lower_bound(commit_ends.begin(), commit_ends.end(), end) -
        std::lower_bound(commit_ends.begin(), commit_ends.end(), p.start_ns));
  }
  m.num("gc.passes", static_cast<double>(pass_ns.size()));
  m.num("gc.pass_ms.p50", us(percentile(pass_ns, 0.50)) / 1000.0);
  m.num("gc.pass_ms.max", us(percentile(pass_ns, 1.0)) / 1000.0);
  m.num("gc.dropped_per_s", static_cast<double>(dropped) / window_s);
  const double out_ns = static_cast<double>(we - ws - in_pass_ns);
  m.num("gc.fg_tps_ratio",
        in_pass_ns == 0
            ? 0.0
            : ratio(static_cast<double>(in_pass_commits) /
                        static_cast<double>(in_pass_ns),
                    static_cast<double>(commit_ends.size() - in_pass_commits) /
                        out_ns));

  // dist / net / repl: the cluster's servers, transport and replica groups.
  auto server_q = [&](const char* rpc, double q) {
    return static_cast<double>(
        histogram_delta(a, b, std::string("rpc.") + rpc + ".latency_us")
            .quantile(q));
  };
  const auto delta = [](std::size_t x, std::size_t y) {
    return static_cast<double>(y - x);
  };
  const mvtl::StoreStats& sa = a.stats;
  const mvtl::StoreStats& sb = b.stats;
  m.num("rpc.op_batch.server_us.p50", server_q("op_batch", 0.50));
  m.num("rpc.op_batch.server_us.p99", server_q("op_batch", 0.99));
  m.num("rpc.finalize.server_us.p50", server_q("finalize", 0.50));
  m.num("rpc.finalize.server_us.p99", server_q("finalize", 0.99));
  m.num("rpc.paxos_accept.server_us.p50", server_q("paxos_accept", 0.50));
  m.num("rpc.snapshot_read.server_us.p50", server_q("snapshot_read", 0.50));
  m.num("dist.msgs_per_tx",
        ratio(delta(sa.rpc_messages + sa.paxos_messages,
                    sb.rpc_messages + sb.paxos_messages),
              tx));
  m.num("server.max_backlog", static_cast<double>(end_stats.max_backlog));
  m.num("net.requests_per_tx",
        ratio(static_cast<double>(b.requests - a.requests), tx));
  m.num("net.wire_kb_per_tx",
        ratio(delta(sa.bytes_sent + sa.bytes_received,
                    sb.bytes_sent + sb.bytes_received) /
                  1024.0,
              tx));
  m.num("repl.log_appends_per_tx", ratio(delta(sa.log_appends, sb.log_appends),
                                         tx));
  const double follower = delta(sa.follower_reads, sb.follower_reads);
  const double served =
      follower + delta(sa.leader_snapshot_reads, sb.leader_snapshot_reads);
  m.num("repl.follower_read_share", ratio(follower, served));
  m.num("repl.snapshot_attempts_per_read",
        ratio(static_cast<double>(
                  histogram_delta(a, b, "rpc.snapshot_read.latency_us").count),
              served));

  // Join server spans to the client spans of the same attempt (cluster
  // only): a read's gap is its client time minus the server time spent
  // handling it — transport, executor queue and codec.
  std::map<std::uint64_t, std::vector<mvtl::obs::SpanEvent>> server;
  if (bed.cluster != nullptr) {
    for (mvtl::obs::SpanEvent& e : bed.cluster->fetch_trace(0)) {
      server[e.trace_id].push_back(std::move(e));
    }
  }
  std::vector<std::uint64_t> read_gap_ns;
  std::uint64_t joined = 0;
  for (const Span& s : spans) {
    if (s.kind != SpanKind::kRead) continue;
    const auto it = server.find(s.tx);
    if (it == server.end()) continue;
    const std::uint64_t lo = s.start_tick;
    const std::uint64_t hi = s.start_tick + s.dur_ns / 1000 + 1;
    std::uint64_t served_us = 0;
    bool found = false;
    for (const mvtl::obs::SpanEvent& e : it->second) {
      if (e.name != "rpc.op_batch" && e.name != "rpc.snapshot_read") continue;
      if (e.at_ticks < e.dur_us || e.at_ticks - e.dur_us < lo ||
          e.at_ticks > hi) {
        continue;
      }
      served_us += e.dur_us;
      found = true;
    }
    if (!found) continue;
    ++joined;
    const std::uint64_t served_ns = served_us * 1000;
    read_gap_ns.push_back(s.dur_ns > served_ns ? s.dur_ns - served_ns : 0);
  }
  m.num("net.read_gap_us.p50", us(percentile(read_gap_ns, 0.50)));
  m.num("trace.sampled_tx",
        static_cast<double>(std::count_if(
            spans.begin(), spans.end(),
            [](const Span& s) { return s.kind == SpanKind::kTransact; })));
  m.num("trace.joined_reads", static_cast<double>(joined));

  if (!args.spans.empty()) {
    // The first kSpanFileTraces sampled calls, each with the server spans
    // of its attempts, in start order. A span's parent is the smallest
    // span of the same call that encloses it.
    std::sort(spans.begin(), spans.end(), [](const Span& x, const Span& y) {
      return std::tie(x.trace, x.start_tick, x.kind) <
             std::tie(y.trace, y.start_tick, y.kind);
    });
    std::ofstream out(args.spans);
    std::size_t traces = 0;
    for (std::size_t i = 0; i < spans.size() && traces < kSpanFileTraces;) {
      std::size_t j = i;
      while (j < spans.size() && spans[j].trace == spans[i].trace) ++j;
      ++traces;
      std::vector<SpanLine> lines;
      for (std::size_t k = i; k < j; ++k) {
        const Span& s = spans[k];
        lines.push_back({s.trace, s.tx, span_name(s.kind), "client",
                         s.start_tick, us(s.dur_ns), ""});
        if (s.kind != SpanKind::kBegin) continue;
        if (const auto it = server.find(s.tx); it != server.end()) {
          for (const mvtl::obs::SpanEvent& e : it->second) {
            lines.push_back({s.trace, s.tx, e.name, e.server,
                             e.at_ticks - std::min(e.at_ticks, e.dur_us),
                             static_cast<double>(e.dur_us), ""});
          }
        }
      }
      for (SpanLine& l : lines) {
        double best = -1.0;
        for (const SpanLine& p : lines) {
          // Equal spans nest only as client call around server handler.
          const bool wider = p.dur_us > l.dur_us ||
                             (p.dur_us == l.dur_us && p.where == "client" &&
                              l.where != "client");
          if (&p == &l || !wider) continue;
          if (p.start_us > l.start_us ||
              p.start_us + p.dur_us < l.start_us + l.dur_us) {
            continue;
          }
          if (best < 0.0 || p.dur_us < best) {
            best = p.dur_us;
            l.parent = p.name;
          }
        }
      }
      std::stable_sort(lines.begin(), lines.end(),
                       [](const SpanLine& x, const SpanLine& y) {
                         return x.start_us < y.start_us;
                       });
      for (const SpanLine& l : lines) {
        out << "{\"trace\": " << l.trace << ", \"tx\": " << l.tx
            << ", \"name\": \"" << l.name << "\", \"where\": \"" << l.where
            << "\", \"start_us\": " << l.start_us
            << ", \"dur_us\": " << l.dur_us << ", \"parent\": "
            << (l.parent.empty() ? "null" : "\"" + l.parent + "\"") << "}\n";
      }
      i = j;
    }
  }
  return m;
}

int run(const Args& args) {
  const Workload* w = nullptr;
  for (const Workload& cand : kWorkloads) {
    if (args.workload == cand.name) w = &cand;
  }
  if (w == nullptr) usage(("unknown workload " + args.workload).c_str());

  Bed bed;
  std::vector<double> setups;
  const std::uint64_t setup_end = steady_ns() + kSetupNs;
  while (setups.size() < kSetups || steady_ns() < setup_end) {
    bed.db.reset();  // the previous set-up goes first; its registry after
    const std::uint64_t s0 = steady_ns();
    bed = make_bed(*w, args.seed, args.traced);
    if (!preload(*bed.db, w->mix.keys, kLoaders)) {
      std::fprintf(stderr, "mvtl_bench: preload failed\n");
      return 1;
    }
    setups.push_back(static_cast<double>(steady_ns() - s0) / 1e9);
  }
  const double setup_rss = peak_rss_mib();

  if (w->gc) bed.db->start_gc(std::chrono::seconds{1}, 500'000);
  const std::uint64_t ws = steady_ns() + kWarmupNs;
  const std::uint64_t we = ws + static_cast<std::uint64_t>(args.seconds * 1e9);
  std::atomic<bool> stop{false};
  std::vector<ClientResult> clients(w->clients);
  std::vector<std::thread> threads;
  for (std::size_t i = 0; i < w->clients; ++i) {
    threads.emplace_back(client_loop, std::ref(*bed.db), bed.timed,
                         std::cref(*w), args.seed, i, ws, we, std::cref(stop),
                         std::ref(clients[i]));
  }
  auto sleep_until_ns = [](std::uint64_t t) {
    const std::uint64_t now = steady_ns();
    if (t > now) std::this_thread::sleep_for(std::chrono::nanoseconds{t - now});
  };
  Edge begin_edge, end_edge;
  sleep_until_ns(ws);
  const double cpu_begin = cpu_us();
  if (args.traced) begin_edge = sample_edge(bed);
  sleep_until_ns(we);
  const double cpu_end = cpu_us();
  if (args.traced) end_edge = sample_edge(bed);
  stop = true;
  for (auto& t : threads) t.join();
  bed.db->stop_gc();
  const double run_rss = peak_rss_mib();

  std::uint64_t committed = 0, failed = 0, calls = 0, increments = 0,
                corrupt = 0;
  const std::size_t n_slices = (we - ws + kSliceNs - 1) / kSliceNs;
  std::vector<std::vector<std::uint64_t>> slices(n_slices);
  for (const ClientResult& c : clients) {
    committed += c.committed;
    failed += c.failed;
    calls += c.calls;
    increments += c.increments;
    corrupt += c.corrupt;
    for (std::size_t i = 0; i < c.latency_ns.size(); ++i) {
      slices[i].insert(slices[i].end(), c.latency_ns[i].begin(),
                       c.latency_ns[i].end());
    }
  }
  // On a cluster every read is a round trip, so the scan uses more
  // readers, and short transactions: one that outlives the replication
  // floor lag (20 ms) can no longer commit.
  const auto sum = w->cluster ? scan_sum(*bed.db, w->mix.keys, 16, 10)
                              : scan_sum(*bed.db, w->mix.keys, kLoaders, 500);
  const bool correct = sum.has_value() && *sum == increments && corrupt == 0 &&
                       committed > 0;

  // Per-slice throughput and latency quantiles, then their medians.
  std::vector<double> slice_tps, slice_p50, slice_p95;
  for (std::size_t i = 0; i < n_slices; ++i) {
    const std::uint64_t len = std::min(kSliceNs, we - ws - i * kSliceNs);
    slice_tps.push_back(static_cast<double>(slices[i].size()) * 1e9 /
                        static_cast<double>(len));
    slice_p50.push_back(us(percentile(slices[i], 0.50)));
    slice_p95.push_back(us(percentile(slices[i], 0.95)));
  }
  JsonObject metrics;
  metrics.num("tps", median(slice_tps));
  metrics.num("p50_us", median(slice_p50));
  metrics.num("p95_us", median(slice_p95));
  metrics.num("setup_s", median(setups));

  // Whole-process costs. Peak RSS grows with committed writes (without GC
  // the store keeps every version; with GC, a time window of them), so a
  // faster run holds more; per write it does not.
  JsonObject process;
  process.num("proc.cpu_us_per_tx",
              ratio(cpu_end - cpu_begin, static_cast<double>(committed)));
  process.num("proc.rss_mb", run_rss);
  process.num("proc.rss_b_per_write",
              ratio((run_rss - setup_rss) * 1024.0 * 1024.0,
                    static_cast<double>(increments)));

  JsonObject o;
  o.str("workload", w->name);
  o.integer("seed", args.seed);
  o.boolean("traced", args.traced);
  o.num("warmup_seconds", static_cast<double>(kWarmupNs) / 1e9);
  o.integer("setup_samples", setups.size());
  o.boolean("correct", correct);
  o.integer("attempted", calls);
  o.integer("failed", failed);
  o.integer("committed", committed);
  o.integer("increments", increments);
  o.integer("scan_sum", sum.value_or(0));
  o.boolean("scan_ok", sum.has_value());
  o.integer("corrupt", corrupt);
  o.object("metrics", metrics);
  o.object("process", process);
  if (args.traced) {
    o.object("layers", layer_metrics(bed, args, clients, begin_edge,
                                     end_edge, ws, we));
  }
  std::printf("%s\n", o.text().c_str());
  return 0;
}

}  // namespace
}  // namespace mvtl_bench

int main(int argc, char** argv) {
  return mvtl_bench::run(mvtl_bench::parse_args(argc, argv));
}
