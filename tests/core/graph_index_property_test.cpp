// Property tests for the inverted-index insert path (IndexMode::kIndexed):
// whatever the conflict mode and operation mix, the indexed graph must be
// EDGE-IDENTICAL to the paper's full scan at every step — the index is a
// pure lookup optimization, so any divergence is a determinism bug. (The
// index serves the key modes; bitmap-mode graphs scan under either
// setting, and the bitmap rows keep that so.) Also proves the layered
// no-false-negative guarantee: bitmap-mode graphs always contain at least
// the edges exact key analysis would add.
#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <vector>

#include "core/dependency_graph.hpp"
#include "util/rng.hpp"

namespace psmr::core {
namespace {

using Edges = std::vector<std::pair<std::uint64_t, std::uint64_t>>;

struct WorkloadConfig {
  /// Keys are drawn from [0, key_space); small spaces force real conflicts.
  std::uint64_t key_space = 64;
  std::size_t max_batch = 6;
  double read_fraction = 0.3;
  /// Bitmap digest size. Deliberately small so hash collisions produce
  /// false-positive conflicts — the equivalence must hold through them.
  std::size_t bitmap_bits = 512;
  bool split_read_write = false;
};

smr::BatchPtr random_batch(util::Xoshiro256& rng, std::uint64_t seq,
                           ConflictMode mode, const WorkloadConfig& wl) {
  const std::size_t n = 1 + rng.next_below(wl.max_batch);
  std::vector<smr::Command> cmds;
  cmds.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    smr::Command c;
    c.type = rng.next_double() < wl.read_fraction ? smr::OpType::kRead
                                                  : smr::OpType::kUpdate;
    c.key = rng.next_below(wl.key_space);
    cmds.push_back(c);
  }
  auto b = std::make_shared<smr::Batch>(std::move(cmds));
  b->set_sequence(seq);
  if (mode == ConflictMode::kBitmap) {
    smr::BitmapConfig cfg;
    cfg.bits = wl.bitmap_bits;
    cfg.split_read_write = wl.split_read_write;
    b->build_bitmap(cfg);
  }
  return b;
}

/// Drives an indexed and a scanning graph through an identical random
/// insert/take/remove/remove_newest schedule, asserting edge-identity and
/// structural+index invariants after every operation.
void run_lockstep(ConflictMode mode, const WorkloadConfig& wl, std::uint64_t seed,
                  int steps) {
  DependencyGraph indexed(mode, IndexMode::kIndexed);
  DependencyGraph scanned(mode, IndexMode::kScan);
  util::Xoshiro256 rng(seed);
  std::uint64_t seq = 0;
  // Taken nodes, kept aligned: the graphs are structurally identical, so
  // take_oldest_free returns the same sequence from both.
  std::vector<DependencyGraph::Node*> taken_idx, taken_scan;

  for (int step = 0; step < steps; ++step) {
    const double dice = rng.next_double();
    if (dice < 0.45) {
      const auto batch = random_batch(rng, ++seq, mode, wl);
      indexed.insert(batch);
      scanned.insert(batch);
    } else if (dice < 0.65) {
      DependencyGraph::Node* a = indexed.take_oldest_free();
      DependencyGraph::Node* b = scanned.take_oldest_free();
      ASSERT_EQ(a == nullptr, b == nullptr);
      if (a != nullptr) {
        ASSERT_EQ(a->seq, b->seq);
        taken_idx.push_back(a);
        taken_scan.push_back(b);
      }
    } else if (dice < 0.9) {
      if (taken_idx.empty()) continue;
      const std::size_t i = rng.next_below(taken_idx.size());
      const std::size_t freed_idx = indexed.remove(taken_idx[i]);
      const std::size_t freed_scan = scanned.remove(taken_scan[i]);
      ASSERT_EQ(freed_idx, freed_scan);
      taken_idx.erase(taken_idx.begin() + static_cast<std::ptrdiff_t>(i));
      taken_scan.erase(taken_scan.begin() + static_cast<std::ptrdiff_t>(i));
    } else {
      // remove_newest right after an insert — the probe-then-detach cycle
      // the microbenchmark uses. Inserting first guarantees the newest node
      // is untaken and has no outgoing edges (API precondition).
      const auto batch = random_batch(rng, ++seq, mode, wl);
      indexed.insert(batch);
      scanned.insert(batch);
      ASSERT_EQ(indexed.edges(), scanned.edges());
      indexed.remove_newest();
      scanned.remove_newest();
    }
    ASSERT_EQ(indexed.edges(), scanned.edges());
    ASSERT_EQ(indexed.num_free(), scanned.num_free());
    ASSERT_EQ(indexed.num_edges(), scanned.num_edges());
    indexed.check_invariants();
    scanned.check_invariants();
  }

  // Drain both graphs completely; orders must match throughout.
  while (!indexed.empty() || !taken_idx.empty()) {
    for (;;) {
      DependencyGraph::Node* a = indexed.take_oldest_free();
      DependencyGraph::Node* b = scanned.take_oldest_free();
      ASSERT_EQ(a == nullptr, b == nullptr);
      if (a == nullptr) break;
      ASSERT_EQ(a->seq, b->seq);
      taken_idx.push_back(a);
      taken_scan.push_back(b);
    }
    ASSERT_FALSE(taken_idx.empty()) << "deadlock: nothing runnable";
    indexed.remove(taken_idx.back());
    scanned.remove(taken_scan.back());
    taken_idx.pop_back();
    taken_scan.pop_back();
    ASSERT_EQ(indexed.edges(), scanned.edges());
    indexed.check_invariants();
    scanned.check_invariants();
  }
  EXPECT_TRUE(scanned.empty());
}

class GraphIndexProperty : public ::testing::TestWithParam<ConflictMode> {
 protected:
  /// The workload variants of the parameter's mode: bitmap digests run
  /// both unified and split read/write.
  std::vector<WorkloadConfig> workloads() const {
    std::vector<WorkloadConfig> out(1);
    if (GetParam() == ConflictMode::kBitmap) {
      out.emplace_back().split_read_write = true;
    }
    return out;
  }
};

TEST_P(GraphIndexProperty, EdgeIdenticalToScanUnderRandomSchedules) {
  for (const WorkloadConfig& wl : workloads()) {
    for (std::uint64_t seed = 1; seed <= 8; ++seed) {
      run_lockstep(GetParam(), wl, seed, 300);
    }
  }
}

TEST_P(GraphIndexProperty, EdgeIdenticalOnConflictFreeDisjointKeys) {
  // Disjoint key ranges: the aggregate fast path should carry nearly every
  // insert; equivalence must still hold exactly.
  for (WorkloadConfig wl : workloads()) {
    wl.key_space = 1'000'000'000;  // collisions/conflicts effectively absent
    wl.bitmap_bits = 1 << 16;
    for (std::uint64_t seed = 21; seed <= 24; ++seed) {
      run_lockstep(GetParam(), wl, seed, 300);
    }
  }
}

TEST_P(GraphIndexProperty, EdgeIdenticalUnderHeavyConflicts) {
  for (WorkloadConfig wl : workloads()) {
    wl.key_space = 4;  // almost everything chains
    for (std::uint64_t seed = 31; seed <= 34; ++seed) {
      run_lockstep(GetParam(), wl, seed, 200);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(AllModes, GraphIndexProperty,
                         ::testing::Values(ConflictMode::kKeysNested,
                                           ConflictMode::kKeysHashed,
                                           ConflictMode::kBitmap),
                         [](const auto& param_info) {
                           switch (param_info.param) {
                             case ConflictMode::kKeysNested: return "KeysNested";
                             case ConflictMode::kKeysHashed: return "KeysHashed";
                             case ConflictMode::kBitmap: return "Bitmap";
                           }
                           return "Unknown";
                         });

TEST(GraphIndexProperty, RemoveNewestKeepsIndexInSync) {
  // Dedicated remove_newest schedule: insert a probe, detach it, repeat —
  // the microbenchmark's cycle — against residents that stay put.
  for (ConflictMode mode : {ConflictMode::kKeysNested, ConflictMode::kKeysHashed,
                            ConflictMode::kBitmap}) {
    WorkloadConfig wl;
    wl.key_space = 32;
    DependencyGraph indexed(mode, IndexMode::kIndexed);
    DependencyGraph scanned(mode, IndexMode::kScan);
    util::Xoshiro256 rng(7);
    std::uint64_t seq = 0;
    for (int i = 0; i < 16; ++i) {
      const auto b = random_batch(rng, ++seq, mode, wl);
      indexed.insert(b);
      scanned.insert(b);
      // Mark residents taken so the probe cannot drain them.
      indexed.take_oldest_free();
      scanned.take_oldest_free();
    }
    for (int i = 0; i < 200; ++i) {
      const auto probe = random_batch(rng, ++seq, mode, wl);
      indexed.insert(probe);
      scanned.insert(probe);
      ASSERT_EQ(indexed.edges(), scanned.edges());
      indexed.remove_newest();
      scanned.remove_newest();
      ASSERT_EQ(indexed.edges(), scanned.edges());
      if (i % 50 == 0) {
        indexed.check_invariants();
        scanned.check_invariants();
      }
    }
  }
}

TEST(GraphIndexProperty, BitmapModesNeverMissKeyModeConflicts) {
  // Layered no-false-negative check: every edge the EXACT key analysis
  // derives must appear in the bitmap graphs too (bitmaps may only ADD
  // false-positive edges, never drop true ones) — under both index modes.
  WorkloadConfig wl;
  wl.key_space = 48;
  wl.bitmap_bits = 256;  // aggressively collision-prone
  for (std::uint64_t seed = 51; seed <= 56; ++seed) {
    util::Xoshiro256 rng(seed);
    DependencyGraph exact(ConflictMode::kKeysNested, IndexMode::kScan);
    DependencyGraph bitmap_idx(ConflictMode::kBitmap, IndexMode::kIndexed);
    DependencyGraph bitmap_scan(ConflictMode::kBitmap, IndexMode::kScan);
    for (std::uint64_t s = 1; s <= 40; ++s) {
      const auto b = random_batch(rng, s, ConflictMode::kBitmap, wl);
      exact.insert(b);
      bitmap_idx.insert(b);
      bitmap_scan.insert(b);
    }
    const Edges exact_edges = exact.edges();
    const Edges bitmap_edges = bitmap_idx.edges();
    EXPECT_EQ(bitmap_edges, bitmap_scan.edges());
    for (const auto& e : exact_edges) {
      EXPECT_TRUE(std::find(bitmap_edges.begin(), bitmap_edges.end(), e) !=
                  bitmap_edges.end())
          << "bitmap mode missed exact conflict " << e.first << "->" << e.second;
    }
  }
}

TEST(GraphIndexProperty, AutoDegradesToScanOnSplitDigests) {
  // Bitmap-mode graphs keep no index: a kIndexed graph over split
  // read/write digests runs the paper's scan — no probes, no posting
  // lists — and matches the kScan graph edge for edge.
  WorkloadConfig wl;
  wl.split_read_write = true;
  DependencyGraph auto_graph(ConflictMode::kBitmap, IndexMode::kIndexed);
  DependencyGraph scan_graph(ConflictMode::kBitmap, IndexMode::kScan);
  util::Xoshiro256 rng(99);
  EXPECT_FALSE(auto_graph.index_active());
  for (std::uint64_t s = 1; s <= 30; ++s) {
    const auto b = random_batch(rng, s, ConflictMode::kBitmap, wl);
    auto_graph.insert(b);
    scan_graph.insert(b);
  }
  EXPECT_EQ(auto_graph.index_stats().probes, 0u);
  EXPECT_EQ(auto_graph.conflict_stats().tests, scan_graph.conflict_stats().tests);
  EXPECT_EQ(auto_graph.edges(), scan_graph.edges());
  auto_graph.check_invariants();
}

TEST(GraphIndexProperty, FastPathSkipsAccountedOnDisjointWork) {
  // Contention-free batches over huge key spaces: after warm-up nearly all
  // inserts should take the aggregate fast path (zero pairwise tests).
  DependencyGraph g(ConflictMode::kKeysNested, IndexMode::kIndexed);
  std::uint64_t seq = 0;
  for (int i = 0; i < 64; ++i) {
    std::vector<smr::Command> cmds;
    for (int k = 0; k < 4; ++k) {
      smr::Command c;
      c.type = smr::OpType::kUpdate;
      c.key = static_cast<std::uint64_t>(i) * 1'000'003ull + static_cast<std::uint64_t>(k);
      cmds.push_back(c);
    }
    auto b = std::make_shared<smr::Batch>(std::move(cmds));
    b->set_sequence(++seq);
    g.insert(std::move(b));
  }
  const auto& st = g.index_stats();
  EXPECT_EQ(st.probes, 64u);
  // With 2^20 slots and ~256 occupied bits, collisions are rare: expect the
  // overwhelming majority of inserts to skip pairwise testing entirely.
  EXPECT_GE(st.fast_path_skips, 60u);
  EXPECT_EQ(g.num_edges(), 0u);
  g.check_invariants();
}

}  // namespace
}  // namespace psmr::core
