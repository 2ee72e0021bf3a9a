// The batch Bloom digest over keys: smr::bloom_position (the hash format)
// and the position lists Batch::build_bitmap derives from it.
#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "sim/analytic.hpp"
#include "smr/batch.hpp"
#include "util/rng.hpp"

namespace psmr::smr {
namespace {

Batch batch_of(const std::vector<Key>& keys, const BitmapConfig& cfg) {
  std::vector<Command> cmds;
  for (Key k : keys) {
    Command c;
    c.type = OpType::kUpdate;
    c.key = k;
    cmds.push_back(c);
  }
  Batch b(std::move(cmds));
  b.build_bitmap(cfg);
  return b;
}

BitmapConfig config(std::size_t bits, unsigned hashes, std::uint64_t seed) {
  return BitmapConfig{.bits = bits, .hashes = hashes, .seed = seed};
}

TEST(KeyBloom, MembershipHasNoFalseNegatives) {
  // Every position of every key the batch holds is in its digest.
  const BitmapConfig cfg = config(4096, 1, 0);
  std::vector<Key> keys;
  util::Xoshiro256 rng(11);
  for (int i = 0; i < 200; ++i) keys.push_back(rng());
  const Batch b = batch_of(keys, cfg);
  const auto& pos = b.write_positions();
  for (Key k : keys) {
    EXPECT_TRUE(std::binary_search(pos.begin(), pos.end(), bloom_position(k, 0, cfg)));
  }
}

TEST(KeyBloom, IntersectionHasNoFalseNegatives) {
  // Property from §V: if two batches share a key, their bitmaps intersect —
  // for any sizes, any seeds equal on both sides.
  util::Xoshiro256 rng(13);
  for (std::size_t bits : {64u, 1024u, 102400u}) {
    const BitmapConfig cfg = config(bits, 1, 42);
    for (int trial = 0; trial < 50; ++trial) {
      std::vector<Key> a{rng()};
      std::vector<Key> b{a[0]};
      for (int i = 0; i < 30; ++i) a.push_back(rng());
      for (int i = 0; i < 30; ++i) b.push_back(rng());
      EXPECT_TRUE(bitmap_conflict(batch_of(a, cfg), batch_of(b, cfg)))
          << "bits=" << bits << " trial=" << trial;
    }
  }
}

TEST(KeyBloom, DisjointLargeFilterRarelyIntersects) {
  // With m = 1 Mbit and 100 keys per side the analytic false positive rate
  // is ~1%; in 100 trials we should see mostly non-intersections.
  util::Xoshiro256 rng(17);
  const BitmapConfig cfg = config(1024000, 1, 0);
  int intersections = 0;
  for (int trial = 0; trial < 100; ++trial) {
    std::vector<Key> a, b;
    for (int i = 0; i < 100; ++i) a.push_back(rng());
    for (int i = 0; i < 100; ++i) b.push_back(rng());
    intersections += bitmap_conflict(batch_of(a, cfg), batch_of(b, cfg)) ? 1 : 0;
  }
  EXPECT_LE(intersections, 10);
}

TEST(KeyBloom, SameSeedSameKeysSameBits) {
  // Determinism across proxies/replicas: the digest is a pure function of
  // (keys, config).
  std::vector<Key> keys;
  for (Key k = 0; k < 500; ++k) keys.push_back(k * 7919);
  const BitmapConfig cfg = config(8192, 1, 99);
  EXPECT_EQ(batch_of(keys, cfg).write_positions(), batch_of(keys, cfg).write_positions());
}

TEST(KeyBloom, DifferentSeedsGiveDifferentBits) {
  std::vector<Key> keys;
  for (Key k = 0; k < 100; ++k) keys.push_back(k);
  EXPECT_NE(batch_of(keys, config(8192, 1, 1)).write_positions(),
            batch_of(keys, config(8192, 1, 2)).write_positions());
}

TEST(KeyBloom, MultiHashSetsMoreBits) {
  std::vector<Key> keys;
  for (Key k = 0; k < 100; ++k) keys.push_back(k);
  EXPECT_GT(batch_of(keys, config(65536, 4, 0)).write_positions().size(),
            batch_of(keys, config(65536, 1, 0)).write_positions().size());
}

TEST(KeyBloom, MultiHashRaisesIntersectionFalsePositives) {
  // §VI-B's argument for restricting k to 1: intersection-based conflict
  // detection gets WORSE with more hash functions.
  util::Xoshiro256 rng(23);
  const BitmapConfig k1 = config(20480, 1, 0);
  const BitmapConfig k4 = config(20480, 4, 0);
  int fp1 = 0, fp4 = 0;
  for (int trial = 0; trial < 300; ++trial) {
    std::vector<Key> a, b;
    for (int i = 0; i < 50; ++i) {
      a.push_back(rng());
      b.push_back(rng());
    }
    fp1 += bitmap_conflict(batch_of(a, k1), batch_of(b, k1)) ? 1 : 0;
    fp4 += bitmap_conflict(batch_of(a, k4), batch_of(b, k4)) ? 1 : 0;
  }
  EXPECT_LT(fp1, fp4);
}

TEST(KeyBloom, QueryFpRateFormula) {
  // k=1, n=m·ln2 → fp ≈ 0.5 at the classic optimum for one hash.
  const double r = sim::query_fp_rate(1000, 1, 693);
  EXPECT_NEAR(r, 0.5, 0.01);
  EXPECT_LT(sim::query_fp_rate(1'000'000, 1, 100), 1e-3);
}

TEST(KeyBloom, ClearEmptiesFilter) {
  // Rebuilding the digest after the commands are gone leaves no positions.
  const BitmapConfig cfg = config(1024, 1, 0);
  Batch b = batch_of({123}, cfg);
  EXPECT_FALSE(b.write_positions().empty());
  b.mutable_commands().clear();
  b.build_bitmap(cfg);
  EXPECT_TRUE(b.write_positions().empty());
  EXPECT_FALSE(bitmap_conflict(b, batch_of({123}, cfg)));
}

TEST(KeyBloom, BitIndexStableAcrossInstances) {
  const BitmapConfig a = config(4096, 2, 5);
  const BitmapConfig b = config(4096, 2, 5);
  for (Key k : {0ull, 1ull, ~0ull, 0xdeadbeefull}) {
    EXPECT_EQ(bloom_position(k, 0, a), bloom_position(k, 0, b));
    EXPECT_EQ(bloom_position(k, 1, a), bloom_position(k, 1, b));
    EXPECT_NE(bloom_position(k, 0, a), bloom_position(k, 1, a)) << k;
    EXPECT_LT(bloom_position(k, 1, a), a.bits);
  }
}

}  // namespace
}  // namespace psmr::smr
