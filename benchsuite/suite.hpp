// Building blocks of the benchmark suite, shared by the benchmark program
// (mvtl_bench.cpp) and its self-test (suite_test.cpp).
//
// The suite owns its input generation — PRNG, zipf sampler, key encoding
// and transaction plans — so no change to the library can alter the
// inputs a seed produces. It talks to the library only through the public
// API (Db, Transaction, the TransactionalStore SPI).
#pragma once

#include <algorithm>
#include <array>
#include <atomic>
#include <charconv>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "api/db.hpp"
#include "api/transaction.hpp"
#include "core/transactional_store.hpp"
#include "sync/clock.hpp"

namespace mvtl_bench {

using mvtl::AbortReason;
using mvtl::kAbortReasonCount;

inline std::uint64_t steady_ns() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

// --- inputs ---------------------------------------------------------------

inline std::uint64_t splitmix64(std::uint64_t& x) {
  std::uint64_t z = (x += 0x9e3779b97f4a7c15ULL);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

/// xoshiro256** seeded through splitmix64.
class Prng {
 public:
  explicit Prng(std::uint64_t seed) {
    for (auto& word : s_) word = splitmix64(seed);
  }

  std::uint64_t next() {
    const std::uint64_t result = rotl(s_[1] * 5, 7) * 9;
    const std::uint64_t t = s_[1] << 17;
    s_[2] ^= s_[0];
    s_[3] ^= s_[1];
    s_[1] ^= s_[2];
    s_[0] ^= s_[3];
    s_[2] ^= t;
    s_[3] = rotl(s_[3], 45);
    return result;
  }

  /// Uniform in [0, bound), bound > 0, without modulo bias.
  std::uint64_t below(std::uint64_t bound) {
    const std::uint64_t limit = -bound % bound;  // 2^64 mod bound
    for (;;) {
      const std::uint64_t r = next();
      if (r >= limit) return r % bound;
    }
  }

  /// Uniform in [0, 1).
  double unit() { return static_cast<double>(next() >> 11) * 0x1.0p-53; }

 private:
  static std::uint64_t rotl(std::uint64_t x, int k) {
    return (x << k) | (x >> (64 - k));
  }
  std::array<std::uint64_t, 4> s_{};
};

/// YCSB's zipfian sampler over [0, n) (Gray et al., "Quickly generating
/// billion-record synthetic databases"); item 0 is the hottest.
class Zipf {
 public:
  Zipf(std::uint64_t n, double theta) : n_(n), theta_(theta) {
    for (std::uint64_t i = 1; i <= n; ++i) {
      zeta_n_ += 1.0 / std::pow(static_cast<double>(i), theta);
    }
    const double zeta_2 = 1.0 + std::pow(0.5, theta);
    alpha_ = 1.0 / (1.0 - theta);
    eta_ = (1.0 - std::pow(2.0 / static_cast<double>(n), 1.0 - theta)) /
           (1.0 - zeta_2 / zeta_n_);
  }

  std::uint64_t next(Prng& rng) const {
    const double u = rng.unit();
    const double uz = u * zeta_n_;
    if (uz < 1.0) return 0;
    if (uz < 1.0 + std::pow(0.5, theta_)) return 1;
    const auto k = static_cast<std::uint64_t>(
        static_cast<double>(n_) * std::pow(eta_ * u - eta_ + 1.0, alpha_));
    return std::min(k, n_ - 1);
  }

 private:
  std::uint64_t n_;
  double theta_;
  double zeta_n_ = 0.0;
  double alpha_ = 0.0;
  double eta_ = 0.0;
};

/// Key `i` in the library's canonical fixed-width encoding ("k" + ten
/// digits), which the cluster's range sharding splits evenly.
inline mvtl::Key key_name(std::uint64_t i) {
  char buf[24];
  std::snprintf(buf, sizeof(buf), "k%010llu",
                static_cast<unsigned long long>(i));
  return mvtl::Key(buf);
}

/// The transaction mix of one workload.
struct Mix {
  std::uint64_t keys = 0;
  double zipf_theta = 0.0;  ///< 0 ⇒ uniform keys
  std::size_t ops = 0;      ///< operations per read-write transaction
  double increment_frac = 0.0;
  double read_only_frac = 0.0;  ///< share declared read-only
  std::size_t read_only_ops = 0;
  /// > 1: a read-only plan reads keys of one of this many equal blocks of
  /// [0, keys), drawn per plan (uniform mixes only).
  std::uint64_t read_only_blocks = 0;
};

struct Op {
  std::uint64_t key = 0;
  bool increment = false;  ///< read, then write value+1; else a plain read
};

struct TxPlan {
  bool read_only = false;
  std::vector<Op> ops;
};

/// One client's deterministic stream of transaction plans.
class PlanStream {
 public:
  PlanStream(const Mix& mix, std::uint64_t seed, std::uint64_t client)
      : mix_(mix), rng_(seed * 0x100000001b3ULL + client) {
    if (mix.zipf_theta > 0.0) {
      zipf_ = std::make_shared<Zipf>(mix.keys, mix.zipf_theta);
    }
  }

  TxPlan next() {
    TxPlan plan;
    plan.read_only =
        mix_.read_only_frac > 0.0 && rng_.unit() < mix_.read_only_frac;
    const std::size_t n = plan.read_only ? mix_.read_only_ops : mix_.ops;
    std::uint64_t base = 0;
    std::uint64_t span = mix_.keys;
    if (plan.read_only && mix_.read_only_blocks > 1) {
      span = mix_.keys / mix_.read_only_blocks;
      base = rng_.below(mix_.read_only_blocks) * span;
    }
    plan.ops.resize(n);
    for (Op& op : plan.ops) {
      op.key = zipf_ ? zipf_->next(rng_) : base + rng_.below(span);
      op.increment = !plan.read_only && rng_.unit() < mix_.increment_frac;
    }
    return plan;
  }

 private:
  Mix mix_;
  Prng rng_;
  std::shared_ptr<const Zipf> zipf_;
};

/// One workload of the suite: what it runs, and how a traced run samples.
struct Workload {
  const char* name;
  /// 4 groups x 3 replicas over the simulated LAN; else one engine.
  bool cluster;
  /// Closed-loop client threads.
  std::size_t clients;
  Mix mix;
  bool gc;  ///< Db::start_gc(1 s, 500'000 ticks)
  /// The client sleeps this long before each statement of a transaction:
  /// the application's work between statements of an interactive
  /// transaction, during which the transaction keeps its locks.
  std::chrono::microseconds think;
  /// Traced runs sample 1 in this many transact calls; on a cluster it is
  /// also trace_sample_every, so client and server sample the same ids.
  std::uint64_t sample_every;
};

// Why each workload exists, and what it isolates: README.md.
inline constexpr Workload kWorkloads[] = {
    {"local-hot", false, 4, {10'000, 0.8, 10, 0.50, 0.0, 0, 0}, true,
     std::chrono::microseconds{20}, 100},
    {"cluster-rw", true, 2, {20'000, 0.0, 10, 0.25, 0.0, 0, 0}, false,
     std::chrono::microseconds{0}, 20},
    {"cluster-ro", true, 2, {20'000, 0.0, 10, 0.25, 0.9, 10, 4}, false,
     std::chrono::microseconds{0}, 20},
};

/// FNV-1a over the first `per_client` plans of `clients` streams: a
/// fingerprint of the inputs a seed produces.
inline std::uint64_t plan_hash(const Mix& mix, std::uint64_t seed,
                               std::size_t clients, std::size_t per_client) {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  auto mixin = [&h](std::uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      h ^= (v >> (8 * i)) & 0xff;
      h *= 0x100000001b3ULL;
    }
  };
  for (std::size_t c = 0; c < clients; ++c) {
    PlanStream stream(mix, seed, c);
    for (std::size_t i = 0; i < per_client; ++i) {
      const TxPlan plan = stream.next();
      mixin(plan.read_only);
      for (const Op& op : plan.ops) mixin(op.key * 2 + op.increment);
    }
  }
  return h;
}

// --- the transaction body and the increment-sum check ----------------------

inline std::optional<std::uint64_t> parse_count(
    const std::optional<mvtl::Value>& v) {
  if (!v) return std::nullopt;
  std::uint64_t n = 0;
  const char* end = v->data() + v->size();
  const auto [ptr, ec] = std::from_chars(v->data(), end, n);
  if (ec != std::errc() || ptr != end) return std::nullopt;
  return n;
}

/// Runs `plan` inside `tx`: sleeps `think` before each statement, reads
/// every key and writes value+1 back for increments. `increments`
/// receives the number of increments written, which the caller counts
/// only if the attempt commits; `think_ns` gains the time slept.
inline mvtl::Result<void> run_plan(mvtl::Transaction& tx, const TxPlan& plan,
                                   std::chrono::microseconds think,
                                   std::uint64_t& increments,
                                   std::uint64_t& think_ns) {
  increments = 0;
  for (const Op& op : plan.ops) {
    if (think.count() > 0) {
      const std::uint64_t t0 = steady_ns();
      std::this_thread::sleep_for(think);
      think_ns += steady_ns() - t0;
    }
    const mvtl::Key key = key_name(op.key);
    auto r = tx.get(key);
    if (!r.ok()) return r.error();
    if (!op.increment) continue;
    const auto n = parse_count(r.value());
    if (!n) return mvtl::TxError::user_abort();  // corrupt or missing value
    auto w = tx.put(key, std::to_string(*n + 1));
    if (!w.ok()) return w.error();
    ++increments;
  }
  return {};
}

/// Calls fn(lo, hi) for consecutive chunks of [0, keys), `chunk` keys
/// each, from `threads` threads. False if any call returned false.
template <typename Fn>
bool for_chunks(std::uint64_t keys, std::size_t threads, std::uint64_t chunk,
                Fn fn) {
  std::atomic<std::uint64_t> next{0};
  std::atomic<bool> ok{true};
  std::vector<std::thread> pool;
  for (std::size_t t = 0; t < threads; ++t) {
    pool.emplace_back([&] {
      for (;;) {
        const std::uint64_t lo = next.fetch_add(chunk);
        if (lo >= keys) return;
        if (!fn(lo, std::min(keys, lo + chunk))) ok = false;
      }
    });
  }
  for (auto& th : pool) th.join();
  return ok;
}

/// Writes "0" to keys [0, keys), 1000 keys per transaction, from
/// `threads` threads. Returns false if any chunk failed to commit.
inline bool preload(mvtl::Db& db, std::uint64_t keys, std::size_t threads) {
  return for_chunks(keys, threads, 1000, [&](std::uint64_t lo,
                                             std::uint64_t hi) {
    return db
        .transact([&](mvtl::Transaction& tx) -> mvtl::Result<void> {
          for (std::uint64_t k = lo; k < hi; ++k) {
            auto w = tx.put(key_name(k), "0");
            if (!w.ok()) return w.error();
          }
          return {};
        })
        .ok();
  });
}

/// Sums the integer value of keys [0, keys) once clients have stopped,
/// `chunk` keys per read transaction. nullopt if a read failed or a value
/// is not an integer.
inline std::optional<std::uint64_t> scan_sum(mvtl::Db& db, std::uint64_t keys,
                                             std::size_t threads,
                                             std::uint64_t chunk) {
  std::atomic<std::uint64_t> total{0};
  const bool ok = for_chunks(keys, threads, chunk, [&](std::uint64_t lo,
                                                       std::uint64_t hi) {
    std::uint64_t sum = 0;
    const auto r =
        db.transact([&](mvtl::Transaction& tx) -> mvtl::Result<void> {
          sum = 0;
          for (std::uint64_t k = lo; k < hi; ++k) {
            auto v = tx.get(key_name(k));
            if (!v.ok()) return v.error();
            const auto n = parse_count(v.value());
            if (!n) return mvtl::TxError::user_abort();
            sum += *n;
          }
          return {};
        });
    total += sum;
    return r.ok();
  });
  if (!ok) return std::nullopt;
  return total.load();
}

// --- statistics -----------------------------------------------------------

/// Exact nearest-rank percentile (q in [0, 1]) of `v`; 0 when empty.
/// Reorders `v`.
inline std::uint64_t percentile(std::vector<std::uint64_t>& v, double q) {
  if (v.empty()) return 0;
  const auto rank = static_cast<std::size_t>(
      std::ceil(q * static_cast<double>(v.size())));
  const std::size_t idx = rank == 0 ? 0 : std::min(rank, v.size()) - 1;
  std::nth_element(v.begin(), v.begin() + static_cast<std::ptrdiff_t>(idx),
                   v.end());
  return v[idx];
}

// --- SPI timing decorator --------------------------------------------------

enum class SpanKind : std::uint8_t {
  kTransact,
  kBegin,
  kRead,
  kWrite,
  kCommit,
  kAbort,
};

inline const char* span_name(SpanKind k) {
  switch (k) {
    case SpanKind::kTransact:
      return "api.transact";
    case SpanKind::kBegin:
      return "spi.begin";
    case SpanKind::kRead:
      return "spi.read";
    case SpanKind::kWrite:
      return "spi.write";
    case SpanKind::kCommit:
      return "spi.commit";
    case SpanKind::kAbort:
      return "spi.abort";
  }
  return "?";
}

/// One timed call. `trace` is the id of the transact call's first attempt
/// (it names the whole call); `tx` is the attempt's own id.
struct Span {
  std::uint64_t trace = 0;
  std::uint64_t tx = 0;
  SpanKind kind = SpanKind::kBegin;
  std::uint64_t start_tick = 0;  ///< store clock ticks (µs)
  std::uint64_t dur_ns = 0;
};

/// Per-client-thread record of the SPI calls one transact call makes.
/// A client binds its log with TimedStore::bind(); calls from unbound
/// threads (preload, scan, GC) pass through untimed.
struct ThreadLog {
  // Totals over the transact calls the client kept (see end_transact).
  std::vector<Span> spans;  ///< sampled calls only
  std::uint64_t attempts = 0;
  std::array<std::uint64_t, kAbortReasonCount> aborts{};

  // State of the transact call in progress.
  bool sampled = false;
  std::uint64_t trace = 0;
  std::uint64_t spi_ns = 0;
  std::size_t first_span = 0;
  std::uint64_t cur_attempts = 0;
  std::array<std::uint64_t, kAbortReasonCount> cur_aborts{};
};

/// TransactionalStore decorator that times begin/read/write/commit/abort
/// of the bound client threads, and every purge_below pass (the Db's GC
/// service calls it from its own thread). Results and abort reasons pass
/// through unchanged.
class TimedStore final : public mvtl::TransactionalStore {
 public:
  struct GcPass {
    std::uint64_t start_ns = 0;
    std::uint64_t dur_ns = 0;
    std::size_t dropped = 0;
  };

  /// Transact calls whose first attempt id is a multiple of
  /// `sample_every` record their spans.
  TimedStore(std::unique_ptr<mvtl::TransactionalStore> inner,
             std::shared_ptr<mvtl::ClockSource> clock,
             std::uint64_t sample_every)
      : inner_(std::move(inner)),
        clock_(std::move(clock)),
        sample_every_(sample_every == 0 ? 1 : sample_every) {}

  static void bind(ThreadLog* log) { log_ = log; }

  /// Starts a transact call on the calling (bound) thread.
  static void start_transact() {
    ThreadLog& l = *log_;
    l.sampled = false;
    l.trace = 0;
    l.spi_ns = 0;
    l.first_span = l.spans.size();
    l.cur_attempts = 0;
    l.cur_aborts.fill(0);
  }

  /// Ends the calling thread's transact call, which just returned after
  /// `dur_ns`. `keep` adds its counts (and, if sampled, its spans plus an
  /// api.transact span) to the log's totals; otherwise they are dropped.
  /// Returns the SPI time of a kept sampled call (nullopt otherwise).
  std::optional<std::uint64_t> end_transact(std::uint64_t dur_ns, bool keep) {
    ThreadLog& l = *log_;
    if (!keep) {
      l.spans.resize(l.first_span);
      return std::nullopt;
    }
    l.attempts += l.cur_attempts;
    for (std::size_t i = 0; i < kAbortReasonCount; ++i) {
      l.aborts[i] += l.cur_aborts[i];
    }
    if (!l.sampled) return std::nullopt;
    // Backdated ticks round to whole µs; never start after the first child.
    const std::uint64_t start =
        std::min(tick() - dur_ns / 1000, l.spans[l.first_span].start_tick);
    l.spans.push_back(
        Span{l.trace, l.trace, SpanKind::kTransact, start, dur_ns});
    return l.spi_ns;
  }

  std::vector<GcPass> gc_passes() const {
    std::lock_guard guard(gc_mu_);
    return gc_passes_;
  }

  TxPtr begin(const mvtl::TxOptions& options = {}) override {
    ThreadLog* l = log_;
    if (l == nullptr) return inner_->begin(options);
    const std::uint64_t t0 = steady_ns();
    TxPtr tx = inner_->begin(options);
    const std::uint64_t dur = steady_ns() - t0;
    ++l->cur_attempts;
    if (l->cur_attempts == 1) {
      l->trace = tx->id();
      l->sampled = tx->id() % sample_every_ == 0;
    }
    // Whether to sample is known only once the id exists, so the start
    // tick is read after the call and backdated by its duration.
    if (l->sampled) {
      record(*l, tx->id(), SpanKind::kBegin, tick() - dur / 1000, dur);
    }
    return tx;
  }

  mvtl::ReadResult read(Tx& tx, const mvtl::Key& key) override {
    ThreadLog* l = log_;
    if (l == nullptr || !l->sampled) {
      mvtl::ReadResult r = inner_->read(tx, key);
      if (l != nullptr && !r.ok) note_abort(*l, tx.abort_reason());
      return r;
    }
    const std::uint64_t tick0 = tick();
    const std::uint64_t t0 = steady_ns();
    mvtl::ReadResult r = inner_->read(tx, key);
    record(*l, tx.id(), SpanKind::kRead, tick0, steady_ns() - t0);
    if (!r.ok) note_abort(*l, tx.abort_reason());
    return r;
  }

  bool write(Tx& tx, const mvtl::Key& key, mvtl::Value value) override {
    ThreadLog* l = log_;
    if (l == nullptr || !l->sampled) {
      const bool ok = inner_->write(tx, key, std::move(value));
      if (l != nullptr && !ok) note_abort(*l, tx.abort_reason());
      return ok;
    }
    const std::uint64_t tick0 = tick();
    const std::uint64_t t0 = steady_ns();
    const bool ok = inner_->write(tx, key, std::move(value));
    record(*l, tx.id(), SpanKind::kWrite, tick0, steady_ns() - t0);
    if (!ok) note_abort(*l, tx.abort_reason());
    return ok;
  }

  mvtl::CommitResult commit(Tx& tx) override {
    ThreadLog* l = log_;
    if (l == nullptr || !l->sampled) {
      mvtl::CommitResult r = inner_->commit(tx);
      if (l != nullptr && !r.committed()) note_abort(*l, r.abort_reason);
      return r;
    }
    const std::uint64_t tick0 = tick();
    const std::uint64_t t0 = steady_ns();
    mvtl::CommitResult r = inner_->commit(tx);
    record(*l, tx.id(), SpanKind::kCommit, tick0, steady_ns() - t0);
    if (!r.committed()) note_abort(*l, r.abort_reason);
    return r;
  }

  void abort(Tx& tx) override {
    ThreadLog* l = log_;
    if (l == nullptr || !l->sampled) {
      inner_->abort(tx);
      return;
    }
    const std::uint64_t tick0 = tick();
    const std::uint64_t t0 = steady_ns();
    inner_->abort(tx);
    record(*l, tx.id(), SpanKind::kAbort, tick0, steady_ns() - t0);
  }

  std::string name() const override { return inner_->name(); }
  mvtl::StoreStats stats() override { return inner_->stats(); }

  std::size_t purge_below(mvtl::Timestamp horizon) override {
    const std::uint64_t t0 = steady_ns();
    const std::size_t dropped = inner_->purge_below(horizon);
    const std::uint64_t dur = steady_ns() - t0;
    std::lock_guard guard(gc_mu_);
    gc_passes_.push_back(GcPass{t0, dur, dropped});
    return dropped;
  }

 private:
  std::uint64_t tick() { return clock_->now(0); }

  static void record(ThreadLog& l, std::uint64_t tx, SpanKind kind,
                     std::uint64_t tick0, std::uint64_t dur_ns) {
    l.spi_ns += dur_ns;
    l.spans.push_back(Span{l.trace, tx, kind, tick0, dur_ns});
  }

  static void note_abort(ThreadLog& l, AbortReason reason) {
    ++l.cur_aborts[static_cast<std::size_t>(reason)];
  }

  static inline thread_local ThreadLog* log_ = nullptr;

  std::unique_ptr<mvtl::TransactionalStore> inner_;
  std::shared_ptr<mvtl::ClockSource> clock_;
  std::uint64_t sample_every_;
  mutable std::mutex gc_mu_;
  std::vector<GcPass> gc_passes_;  ///< guarded by gc_mu_
};

}  // namespace mvtl_bench
