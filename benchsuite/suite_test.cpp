// Self-test of the benchmark suite's own parts: input determinism, exact
// percentiles, the increment-sum check, and TimedStore's transparency.
//
//   ctest --test-dir .bench_build     (or run .bench_build/bench_suite_test)
#include <array>
#include <cstdio>
#include <iterator>
#include <string>
#include <vector>

#include "api/db.hpp"
#include "core/mvtl_engine.hpp"
#include "core/policy.hpp"
#include "suite.hpp"

namespace {

int failures = 0;

#define CHECK(cond)                                                 \
  do {                                                              \
    if (!(cond)) {                                                  \
      std::fprintf(stderr, "%s:%d: CHECK failed: %s\n", __FILE__,   \
                   __LINE__, #cond);                                \
      ++failures;                                                   \
    }                                                               \
  } while (0)

using namespace mvtl_bench;

void plan_streams_are_a_function_of_the_seed() {
  // Pinned per workload: a change here changes that workload's inputs,
  // which makes results before and after it incomparable.
  const std::uint64_t pinned[] = {
      0x94a960beed4d4334ULL,  // local-hot
      0xeb12e00a5d4634ecULL,  // cluster-rw
      0x0ad2267bce22b646ULL,  // cluster-ro
  };
  static_assert(std::size(pinned) == std::size(kWorkloads));
  for (std::size_t i = 0; i < std::size(kWorkloads); ++i) {
    const Mix& mix = kWorkloads[i].mix;
    CHECK(plan_hash(mix, 1, 4, 1000) == pinned[i]);
    CHECK(plan_hash(mix, 1, 4, 1000) != plan_hash(mix, 2, 4, 1000));
    CHECK(plan_hash(mix, 1, 4, 1000) != plan_hash(mix, 1, 5, 1000));
  }

  // The mixes have the shapes they claim: zipf skews toward key 0, and
  // the read-only and increment shares land near their targets.
  const Mix& hot = kWorkloads[0].mix;
  PlanStream hot_stream(hot, 3, 0);
  std::size_t key0 = 0, ops = 0, incs = 0;
  for (int i = 0; i < 20'000; ++i) {
    for (const Op& op : hot_stream.next().ops) {
      key0 += op.key == 0;
      incs += op.increment;
      ++ops;
    }
  }
  CHECK(key0 * 50 > ops);  // item 0 alone draws > 2 % under θ = 0.8
  CHECK(incs * 100 > ops * 48 && incs * 100 < ops * 52);
  // A read-only plan stays inside one key block; blocks are drawn evenly.
  const Mix& ro_mix = kWorkloads[2].mix;
  const std::uint64_t span = ro_mix.keys / ro_mix.read_only_blocks;
  PlanStream ro(ro_mix, 3, 0);
  std::size_t read_only = 0;
  std::vector<std::size_t> per_block(ro_mix.read_only_blocks);
  for (int i = 0; i < 20'000; ++i) {
    const TxPlan plan = ro.next();
    if (!plan.read_only) continue;
    ++read_only;
    const std::uint64_t block = plan.ops.front().key / span;
    ++per_block[block];
    for (const Op& op : plan.ops) CHECK(op.key / span == block);
  }
  CHECK(read_only > 17'800 && read_only < 18'200);
  for (const std::size_t n : per_block) CHECK(n * 5 > read_only);
}

void percentiles_are_exact_order_statistics() {
  std::vector<std::uint64_t> v;
  for (std::uint64_t i = 100; i >= 1; --i) v.push_back(i);
  CHECK(percentile(v, 0.50) == 50);
  CHECK(percentile(v, 0.95) == 95);
  CHECK(percentile(v, 0.99) == 99);
  CHECK(percentile(v, 1.00) == 100);
  CHECK(percentile(v, 0.00) == 1);
  std::vector<std::uint64_t> odd{30, 10, 20};
  CHECK(percentile(odd, 0.50) == 20);
  std::vector<std::uint64_t> one{7};
  CHECK(percentile(one, 0.99) == 7);
  std::vector<std::uint64_t> none;
  CHECK(percentile(none, 0.5) == 0);
  // 1000 samples: p99 is the 990th smallest, with 10 samples beyond it.
  std::vector<std::uint64_t> k;
  for (std::uint64_t i = 0; i < 1000; ++i) k.push_back((i * 7919) % 1000);
  CHECK(percentile(k, 0.99) == 989);
}

void sum_check_flags_a_lost_update() {
  mvtl::Db db = mvtl::Options().open();
  constexpr std::uint64_t kKeys = 200;
  CHECK(preload(db, kKeys, 2));
  CHECK(scan_sum(db, kKeys, 2, 50) == 0u);

  const Mix mix{kKeys, 0.0, 5, 0.5, 0.0, 0, 0};
  PlanStream stream(mix, 11, 0);
  std::uint64_t ledger = 0;
  std::uint64_t think_ns = 0;
  for (int i = 0; i < 300; ++i) {
    const TxPlan plan = stream.next();
    std::uint64_t incs = 0;
    const auto r = db.transact([&](mvtl::Transaction& tx) {
      return run_plan(tx, plan, std::chrono::microseconds{1}, incs, think_ns);
    });
    CHECK(r.ok());
    if (r.ok()) ledger += incs;
  }
  CHECK(ledger > 0);
  CHECK(think_ns >= 300 * 5 * 1000);  // one sleep before each statement
  CHECK(scan_sum(db, kKeys, 2, 50) == ledger);

  // A lost update: key 0's value is read, an increment commits, then the
  // stale value is written back over it.
  std::optional<mvtl::Value> stale;
  CHECK(db.transact([&](mvtl::Transaction& tx) -> mvtl::Result<void> {
              auto r = tx.get(key_name(0));
              if (!r.ok()) return r.error();
              stale = r.value();
              return {};
            })
            .ok());
  TxPlan bump;
  bump.ops.push_back(Op{0, true});
  std::uint64_t incs = 0;
  CHECK(db.transact([&](mvtl::Transaction& tx) {
              return run_plan(tx, bump, std::chrono::microseconds{0}, incs,
                              think_ns);
            })
            .ok());
  ledger += incs;
  CHECK(scan_sum(db, kKeys, 2, 50) == ledger);
  CHECK(stale.has_value());
  CHECK(db.transact([&](mvtl::Transaction& tx) {
              return tx.put(key_name(0), *stale);
            })
            .ok());
  CHECK(scan_sum(db, kKeys, 2, 50) != ledger);
}

/// One outcome of the scripted run, as the caller sees it.
struct Outcome {
  bool ok;
  std::string value;
  int reason;
  bool operator==(const Outcome&) const = default;
};

/// Interleaves conflicting transactions from one thread, so the engine's
/// decisions (and abort reasons) are reproducible, and records every
/// result the store returns.
std::vector<Outcome> scripted_run(mvtl::TransactionalStore& store) {
  std::vector<Outcome> out;
  for (int round = 0; round < 200; ++round) {
    const mvtl::Key hot = key_name(round % 3);
    const mvtl::Key other = key_name(3 + round % 5);
    auto a = store.begin();
    auto b = store.begin();
    const mvtl::ReadResult ra = store.read(*a, hot);
    out.push_back({ra.ok, ra.value.value_or("-"),
                   static_cast<int>(a->abort_reason())});
    const bool wb = store.write(*b, hot, std::to_string(2 * round + 1));
    out.push_back({wb, "", static_cast<int>(b->abort_reason())});
    const bool wa = store.write(*a, other, std::to_string(2 * round));
    out.push_back({wa, "", static_cast<int>(a->abort_reason())});
    const mvtl::ReadResult rb = store.read(*b, other);
    out.push_back({rb.ok, rb.value.value_or("-"),
                   static_cast<int>(b->abort_reason())});
    for (auto* tx : {&b, &a}) {
      if (!(*tx)->is_active()) continue;
      const mvtl::CommitResult c = store.commit(**tx);
      out.push_back({c.committed(), "",
                     static_cast<int>(c.abort_reason)});
    }
    if (round % 7 == 0) {
      auto c = store.begin();
      store.abort(*c);
      out.push_back({!c->is_active(), "", static_cast<int>(c->abort_reason())});
    }
  }
  return out;
}

std::unique_ptr<mvtl::MvtlEngine> scripted_engine() {
  mvtl::MvtlEngineConfig config;
  config.clock = std::make_shared<mvtl::LogicalClock>();
  config.lock_timeout = std::chrono::microseconds{200};
  return std::make_unique<mvtl::MvtlEngine>(
      mvtl::make_mvtil_policy(4, /*early=*/true, /*gc_on_commit=*/true),
      std::move(config));
}

void timed_store_passes_results_through() {
  auto plain = scripted_engine();
  const std::vector<Outcome> expected = scripted_run(*plain);

  TimedStore timed(scripted_engine(), std::make_shared<mvtl::LogicalClock>(),
                   /*sample_every=*/1);
  ThreadLog log;
  TimedStore::bind(&log);
  TimedStore::start_transact();
  const std::vector<Outcome> got = scripted_run(timed);
  timed.end_transact(1, /*keep=*/true);
  TimedStore::bind(nullptr);

  CHECK(got == expected);
  // The script must reach the engine's conflict aborts, and the log must
  // count each failed call under the reason the caller saw.
  std::array<std::uint64_t, mvtl::kAbortReasonCount> failed{};
  for (const Outcome& o : expected) {
    if (!o.ok) ++failed[static_cast<std::size_t>(o.reason)];
  }
  CHECK(failed[static_cast<std::size_t>(
            mvtl::AbortReason::kNoCommonTimestamp)] > 0);
  CHECK(log.aborts == failed);
  CHECK(log.attempts == 200 + 200 + 200 / 7 + 1);  // one per begin()
  CHECK(log.spans.size() > expected.size());
}

}  // namespace

int main() {
  plan_streams_are_a_function_of_the_seed();
  percentiles_are_exact_order_statistics();
  sum_check_flags_a_lost_update();
  timed_store_passes_results_through();
  if (failures != 0) {
    std::fprintf(stderr, "bench_suite_test: %d check(s) failed\n", failures);
    return 1;
  }
  std::printf("bench_suite_test: all checks passed\n");
  return 0;
}
