// Key-hash-partitioned execution (DESIGN.md §11, §13): the EarlyScheduler
// over ConflictClassMap::uniform(S), one class worker per partition, must be
// observationally identical to the single Scheduler — bit-identical final KV
// state for the same delivery order, across partition counts, seeds and
// worker counts — while executing batches that span several partitions
// exactly once via the delivery-order rendezvous gate.
#include <gtest/gtest.h>

#include <atomic>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "core/early_scheduler.hpp"
#include "core/scheduler.hpp"
#include "kvstore/kvstore.hpp"
#include "util/rng.hpp"

namespace psmr::core {
namespace {

std::shared_ptr<const smr::ConflictClassMap> uniform_map(unsigned partitions) {
  return std::make_shared<const smr::ConflictClassMap>(
      smr::ConflictClassMap::uniform(partitions));
}

/// S key-hash partitions, one class worker each.
SchedulerOptions partitioned(unsigned partitions) {
  SchedulerOptions cfg;
  cfg.workers = partitions;
  cfg.class_map = uniform_map(partitions);
  return cfg;
}

smr::BatchPtr make_batch(std::uint64_t seq, std::vector<smr::Key> keys,
                         const smr::ConflictClassMap* stamp_map = nullptr) {
  std::vector<smr::Command> cmds;
  for (std::size_t i = 0; i < keys.size(); ++i) {
    smr::Command c;
    c.type = smr::OpType::kUpdate;
    c.key = keys[i];
    c.value = seq * 1000 + i;
    cmds.push_back(c);
  }
  auto b = std::make_shared<smr::Batch>(std::move(cmds));
  b->set_sequence(seq);
  if (stamp_map != nullptr) b->stamp(*stamp_map);
  return b;
}

/// The random batch stream shared by the lockstep tests: mixes hot keys
/// (which conflict across batches AND across partitions) with fresh keys.
std::vector<std::vector<smr::Key>> random_key_stream(std::uint64_t seed,
                                                     std::size_t n_batches) {
  util::Xoshiro256 rng(seed);
  std::vector<std::vector<smr::Key>> out;
  smr::Key fresh = 1u << 20;
  for (std::size_t i = 0; i < n_batches; ++i) {
    std::vector<smr::Key> keys;
    const std::size_t n_keys = 1 + rng.next_below(4);
    for (std::size_t k = 0; k < n_keys; ++k) {
      keys.push_back(rng.next_bool(0.5) ? rng.next_below(24) : fresh++);
    }
    out.push_back(std::move(keys));
  }
  return out;
}

/// Runs `stream` through a scheduler applying kUpdate commands to a fresh
/// KvStore; returns the final sorted snapshot.
template <typename S>
std::vector<std::pair<smr::Key, smr::Value>> run_stream(
    SchedulerOptions cfg, const std::vector<std::vector<smr::Key>>& stream,
    const smr::ConflictClassMap* stamp_map = nullptr) {
  kv::KvStore store;
  S s(cfg, [&](const smr::Batch& b) {
    for (const smr::Command& c : b.commands()) store.update(c.key, c.value);
  });
  s.start();
  for (std::size_t i = 0; i < stream.size(); ++i) {
    EXPECT_TRUE(s.deliver(make_batch(i + 1, stream[i], stamp_map)));
  }
  s.wait_idle();
  s.stop();
  return store.snapshot();
}

TEST(ShardedSchedulerTest, LockstepBitIdenticalKvState) {
  // The acceptance property: for S in {1,2,4} and several seeds, the final
  // KV state equals the single Scheduler's, entry for entry.
  for (const std::uint64_t seed : {7ull, 21ull, 1234ull}) {
    const auto stream = random_key_stream(seed, 300);
    SchedulerOptions ref_cfg;
    ref_cfg.workers = 4;
    const auto reference = run_stream<Scheduler>(ref_cfg, stream);
    for (const unsigned partitions : {1u, 2u, 4u}) {
      const auto got = run_stream<EarlyScheduler>(partitioned(partitions), stream);
      EXPECT_EQ(got, reference) << "seed=" << seed << " partitions=" << partitions;
    }
  }
}

TEST(ShardedSchedulerTest, LockstepWithPrecomputedShardMasks) {
  // Same property when the proxy has already stamped the touched-partition
  // set at batch-formation time (deliver() trusts the stamp, whose
  // fingerprint matches, instead of recomputing it).
  const auto stream = random_key_stream(99, 200);
  SchedulerOptions ref_cfg;
  ref_cfg.workers = 4;
  const auto reference = run_stream<Scheduler>(ref_cfg, stream);
  const SchedulerOptions cfg = partitioned(4);
  EXPECT_EQ(run_stream<EarlyScheduler>(cfg, stream, cfg.class_map.get()), reference);
}

TEST(ShardedSchedulerTest, DeterministicAcrossWorkerCounts) {
  // Worker count is an execution resource, never an ordering input: the
  // four partitions fold onto 1, 2 or 4 class workers.
  const auto stream = random_key_stream(5150, 250);
  std::vector<std::pair<smr::Key, smr::Value>> first;
  for (const unsigned workers : {1u, 2u, 4u}) {
    SchedulerOptions cfg = partitioned(4);
    cfg.workers = workers;
    const auto got = run_stream<EarlyScheduler>(cfg, stream);
    if (workers == 1) {
      first = got;
    } else {
      EXPECT_EQ(got, first) << "workers=" << workers;
    }
  }
}

TEST(ShardedSchedulerTest, CrossShardBatchesExecuteExactlyOnce) {
  // Every delivered batch — single- or multi-partition — runs the executor
  // exactly once, and the top-level counters agree.
  std::mutex mu;
  std::map<std::uint64_t, int> runs;
  EarlyScheduler s(partitioned(4), [&](const smr::Batch& b) {
    std::lock_guard lk(mu);
    ++runs[b.sequence()];
  });
  s.start();
  const std::size_t n = 200;
  for (std::uint64_t seq = 1; seq <= n; ++seq) {
    // Wide batches: 6 consecutive keys almost always span several partitions.
    std::vector<smr::Key> keys;
    for (smr::Key k = 0; k < 6; ++k) keys.push_back(seq * 3 + k);
    ASSERT_TRUE(s.deliver(make_batch(seq, keys)));
  }
  s.wait_idle();
  s.check_invariants();
  const auto st = s.stats();
  s.stop();
  ASSERT_EQ(runs.size(), n);
  for (const auto& [seq, count] : runs) {
    EXPECT_EQ(count, 1) << "sequence " << seq;
  }
  EXPECT_EQ(st.counter("scheduler.batches_delivered"), n);
  EXPECT_EQ(st.counter("scheduler.batches_executed"), n);
  EXPECT_EQ(st.counter("scheduler.commands_executed"), n * 6);
  EXPECT_EQ(st.counter("early.batches_fast_path") +
                st.counter("early.batches_multi_class"),
            n);
  EXPECT_GT(st.counter("early.batches_multi_class"), 0u);
}

TEST(ShardedSchedulerTest, SingleShardBatchesSkipTheGate) {
  // Partition-friendly batches (all keys in one partition) take the fast
  // path, and per-worker metrics appear under early.worker.N. in the
  // snapshot.
  const SchedulerOptions cfg = partitioned(4);
  std::atomic<std::uint64_t> executed{0};
  EarlyScheduler s(cfg, [&](const smr::Batch&) { executed.fetch_add(1); });
  s.start();
  const std::size_t n = 120;
  std::uint64_t key_cursor = 0;
  for (std::uint64_t seq = 1; seq <= n; ++seq) {
    // All keys of the batch routed to the same partition by construction.
    const std::uint32_t target = static_cast<std::uint32_t>(seq % cfg.workers);
    std::vector<smr::Key> keys;
    while (keys.size() < 4) {
      if (s.class_map().class_of_key(key_cursor) == target) keys.push_back(key_cursor);
      ++key_cursor;
    }
    ASSERT_TRUE(s.deliver(make_batch(seq, keys)));
  }
  s.wait_idle();
  const auto st = s.stats();
  s.stop();
  EXPECT_EQ(executed.load(), n);
  EXPECT_EQ(st.counter("early.batches_fast_path"), n);
  EXPECT_EQ(st.counter("early.batches_multi_class"), 0u);
  EXPECT_EQ(st.gauge("early.fast_path_fraction"), 1.0);
  // Each partition's worker ran exactly its own batches, n / 4 apiece, and
  // the graph engine behind the gate ran none.
  std::uint64_t per_worker_sum = 0;
  for (unsigned i = 0; i < cfg.workers; ++i) {
    const auto ran = st.counter("early.worker." + std::to_string(i) + ".batches_executed");
    EXPECT_EQ(ran, n / cfg.workers) << "worker " << i;
    per_worker_sum += ran;
  }
  EXPECT_EQ(per_worker_sum, n);
  EXPECT_EQ(st.counter("fallback.scheduler.batches_executed"), 0u);
  EXPECT_EQ(st.counter_sum("scheduler.batches_executed"), n);
}

TEST(ShardedSchedulerTest, CrossShardFailureFiresOnFailureOnce) {
  // A throwing executor on a multi-partition batch: counted once in the
  // top-level batches_failed, on_failure fires once (from the gate leader),
  // and dependents in every touched partition still run.
  std::atomic<std::uint64_t> executed{0};
  EarlyScheduler s(partitioned(4), [&](const smr::Batch& b) {
    if (b.sequence() == 2) throw std::runtime_error("cross-shard poison");
    executed.fetch_add(1);
  });
  std::atomic<int> failures{0};
  s.set_on_failure([&](const smr::Batch& b, const std::string& what) {
    EXPECT_EQ(b.sequence(), 2u);
    EXPECT_EQ(what, "cross-shard poison");
    failures.fetch_add(1);
  });
  s.start();
  // Keys 0..7 span all four partitions with overwhelming probability.
  std::vector<smr::Key> wide;
  for (smr::Key k = 0; k < 8; ++k) wide.push_back(k);
  ASSERT_TRUE(s.deliver(make_batch(1, wide)));
  ASSERT_TRUE(s.deliver(make_batch(2, wide)));  // throws
  ASSERT_TRUE(s.deliver(make_batch(3, wide)));  // depends on 2 in every partition
  s.wait_idle();
  const auto st = s.stats();
  s.stop();
  EXPECT_EQ(executed.load(), 2u);
  EXPECT_EQ(failures.load(), 1);
  EXPECT_EQ(st.counter("scheduler.batches_failed"), 1u);
  EXPECT_EQ(st.counter("scheduler.batches_executed"), 2u);
  EXPECT_FALSE(s.degraded());
}

TEST(ShardedSchedulerTest, CrossShardFractionGauge) {
  EarlyScheduler s(partitioned(2), [](const smr::Batch&) {});
  s.start();
  // One key per batch -> one partition; a two-partition batch every 4th.
  std::uint64_t seq = 0;
  smr::Key a = 0;
  while (s.class_map().class_of_key(a) != 0) ++a;
  smr::Key b = 0;
  while (s.class_map().class_of_key(b) != 1) ++b;
  for (int i = 0; i < 12; ++i) ASSERT_TRUE(s.deliver(make_batch(++seq, {a})));
  for (int i = 0; i < 4; ++i) {
    ASSERT_TRUE(s.deliver(make_batch(++seq, {a, b})));
  }
  s.wait_idle();
  const auto st = s.stats();
  s.stop();
  EXPECT_EQ(st.counter("early.batches_fast_path"), 12u);
  EXPECT_EQ(st.counter("early.batches_multi_class"), 4u);
  EXPECT_DOUBLE_EQ(1.0 - st.gauge("early.fast_path_fraction"), 4.0 / 16.0);
}

}  // namespace
}  // namespace psmr::core
