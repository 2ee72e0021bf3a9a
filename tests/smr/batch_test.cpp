#include "smr/batch.hpp"

#include <gtest/gtest.h>

#include <algorithm>

#include "util/bitmap.hpp"
#include "util/rng.hpp"

namespace psmr::smr {
namespace {

Command update(Key k) {
  Command c;
  c.type = OpType::kUpdate;
  c.key = k;
  return c;
}

Command read(Key k) {
  Command c;
  c.type = OpType::kRead;
  c.key = k;
  return c;
}

Batch make_batch(std::vector<Command> cmds, const BitmapConfig* cfg = nullptr) {
  Batch b(std::move(cmds));
  if (cfg != nullptr) b.build_bitmap(*cfg);
  return b;
}

TEST(Batch, BasicProperties) {
  Batch b({update(1), update(2)});
  EXPECT_EQ(b.size(), 2u);
  EXPECT_FALSE(b.empty());
  EXPECT_FALSE(b.has_bitmap());
  b.set_sequence(5);
  b.set_proxy_id(9);
  EXPECT_EQ(b.sequence(), 5u);
  EXPECT_EQ(b.proxy_id(), 9u);
}

TEST(KeyConflictNested, DetectsSharedWriteKey) {
  Batch a = make_batch({update(1), update(2)});
  Batch b = make_batch({update(3), update(2)});
  EXPECT_TRUE(key_conflict_nested(a, b));
}

TEST(KeyConflictNested, DisjointBatchesDoNotConflict) {
  Batch a = make_batch({update(1), update(2)});
  Batch b = make_batch({update(3), update(4)});
  EXPECT_FALSE(key_conflict_nested(a, b));
}

TEST(KeyConflictNested, ReadOnlyOverlapIsIndependent) {
  Batch a = make_batch({read(1), read(2)});
  Batch b = make_batch({read(2), read(3)});
  EXPECT_FALSE(key_conflict_nested(a, b));
  Batch c = make_batch({update(2)});
  EXPECT_TRUE(key_conflict_nested(a, c));
}

TEST(KeyConflictHashed, AgreesWithNestedOnRandomBatches) {
  util::Xoshiro256 rng(31);
  for (int trial = 0; trial < 500; ++trial) {
    std::vector<Command> ca, cb;
    const std::size_t na = 1 + rng.next_below(20);
    const std::size_t nb = 1 + rng.next_below(20);
    for (std::size_t i = 0; i < na; ++i) {
      Command c = rng.next_bool(0.3) ? read(rng.next_below(30)) : update(rng.next_below(30));
      ca.push_back(c);
    }
    for (std::size_t i = 0; i < nb; ++i) {
      Command c = rng.next_bool(0.3) ? read(rng.next_below(30)) : update(rng.next_below(30));
      cb.push_back(c);
    }
    Batch a = make_batch(std::move(ca));
    Batch b = make_batch(std::move(cb));
    EXPECT_EQ(key_conflict_nested(a, b), key_conflict_hashed(a, b)) << "trial " << trial;
  }
}

TEST(BitmapConflict, NeverFalseNegative) {
  // THE safety property (§V): key conflict implies bitmap conflict, for
  // every bitmap size, including pathologically small ones.
  util::Xoshiro256 rng(37);
  for (std::size_t bits : {64u, 256u, 102400u}) {
    BitmapConfig cfg;
    cfg.bits = bits;
    for (int trial = 0; trial < 300; ++trial) {
      std::vector<Command> ca, cb;
      for (int i = 0; i < 10; ++i) ca.push_back(update(rng.next_below(50)));
      for (int i = 0; i < 10; ++i) cb.push_back(update(rng.next_below(50)));
      Batch a = make_batch(std::move(ca), &cfg);
      Batch b = make_batch(std::move(cb), &cfg);
      if (key_conflict_nested(a, b)) {
        EXPECT_TRUE(bitmap_conflict(a, b)) << "bits=" << bits << " trial=" << trial;
      }
    }
  }
}

TEST(BitmapConflict, LargeBitmapRarelyFalsePositive) {
  util::Xoshiro256 rng(41);
  BitmapConfig cfg;
  cfg.bits = 1024000;
  int false_positives = 0;
  for (int trial = 0; trial < 100; ++trial) {
    std::vector<Command> ca, cb;
    for (int i = 0; i < 100; ++i) ca.push_back(update(rng()));
    for (int i = 0; i < 100; ++i) cb.push_back(update(rng()));
    Batch a = make_batch(std::move(ca), &cfg);
    Batch b = make_batch(std::move(cb), &cfg);
    if (!key_conflict_nested(a, b) && bitmap_conflict(a, b)) ++false_positives;
  }
  EXPECT_LE(false_positives, 10);  // analytic rate ≈ 1%
}

TEST(BitmapConflict, UnifiedBitmapFlagsReadOnlyOverlap) {
  // The paper's single-bitmap scheme cannot distinguish reads from writes:
  // two read-only batches on the same key DO raise a (false) conflict.
  BitmapConfig cfg;
  cfg.bits = 102400;
  Batch a = make_batch({read(7)}, &cfg);
  Batch b = make_batch({read(7)}, &cfg);
  EXPECT_TRUE(bitmap_conflict(a, b));
  EXPECT_FALSE(key_conflict_nested(a, b));  // exact detection knows better
}

TEST(BitmapConflict, SplitReadWriteIgnoresReadOnlyOverlap) {
  // The dual-bitmap extension removes exactly that class of false positive.
  BitmapConfig cfg;
  cfg.bits = 102400;
  cfg.split_read_write = true;
  Batch a = make_batch({read(7)}, &cfg);
  Batch b = make_batch({read(7)}, &cfg);
  EXPECT_FALSE(bitmap_conflict(a, b));
  Batch c = make_batch({update(7)}, &cfg);
  EXPECT_TRUE(bitmap_conflict(a, c));
  EXPECT_TRUE(bitmap_conflict(c, a));
  EXPECT_TRUE(bitmap_conflict(c, c));
}

TEST(BitmapConflict, SplitReadWriteNeverFalseNegative) {
  util::Xoshiro256 rng(43);
  BitmapConfig cfg;
  cfg.bits = 256;  // tiny: plenty of hash collisions
  cfg.split_read_write = true;
  for (int trial = 0; trial < 300; ++trial) {
    std::vector<Command> ca, cb;
    for (int i = 0; i < 8; ++i) {
      ca.push_back(rng.next_bool(0.5) ? read(rng.next_below(40)) : update(rng.next_below(40)));
      cb.push_back(rng.next_bool(0.5) ? read(rng.next_below(40)) : update(rng.next_below(40)));
    }
    Batch a = make_batch(std::move(ca), &cfg);
    Batch b = make_batch(std::move(cb), &cfg);
    if (key_conflict_nested(a, b)) {
      EXPECT_TRUE(bitmap_conflict(a, b)) << trial;
    }
  }
}

/// The paper's digest, built densely from the same hash: one util::Bitmap
/// per kind (write/unified and read).
struct DenseDigest {
  util::Bitmap writes, reads;
};

DenseDigest dense_reference(const std::vector<Command>& cmds, const BitmapConfig& cfg) {
  DenseDigest d{util::Bitmap(cfg.bits), util::Bitmap(cfg.bits)};
  for (const Command& c : cmds) {
    util::Bitmap& into = cfg.split_read_write && !c.is_write() ? d.reads : d.writes;
    for (unsigned h = 0; h < cfg.hashes; ++h) {
      into.set(bloom_position(c.key, h, cfg));
    }
  }
  return d;
}

std::vector<std::uint32_t> set_bits(const util::Bitmap& bits) {
  std::vector<std::uint32_t> out;
  for (std::size_t i = 0; i < bits.size_bits(); ++i) {
    if (bits.test(i)) out.push_back(static_cast<std::uint32_t>(i));
  }
  return out;
}

TEST(BitmapConflictSparse, AlwaysAgreesWithDense) {
  // The merge over sorted positions is an implementation substitution for
  // the paper's dense word-AND: on every pair — false positives included —
  // it must give the dense answer, for split and unified digests, any k
  // and any size (64 and 1024 bits force hash collisions). Keys come from
  // a small universe on even trials so batches share keys and repeat them;
  // some batches are empty.
  util::Xoshiro256 rng(53);
  for (std::size_t bits : {64u, 1024u, 102400u, 1024000u, 4096000u}) {
    for (unsigned k : {1u, 2u, 3u}) {
      for (bool split : {false, true}) {
        BitmapConfig cfg;
        cfg.bits = bits;
        cfg.hashes = k;
        cfg.seed = 17;
        cfg.split_read_write = split;
        for (int trial = 0; trial < 12; ++trial) {
          auto random_cmds = [&] {
            std::vector<Command> cmds;
            const std::size_t n = rng.next_below(25);  // 0 = empty batch
            const std::uint64_t universe = trial % 2 == 0 ? 40 : 1'000'000'000;
            for (std::size_t i = 0; i < n; ++i) {
              const Key key = rng.next_below(universe);
              cmds.push_back(rng.next_bool(0.4) ? read(key) : update(key));
            }
            return cmds;
          };
          const std::vector<Command> ca = random_cmds(), cb = random_cmds();
          const DenseDigest da = dense_reference(ca, cfg), db = dense_reference(cb, cfg);
          const Batch a = make_batch(ca, &cfg), b = make_batch(cb, &cfg);
          ASSERT_EQ(a.write_positions(), set_bits(da.writes));
          ASSERT_EQ(a.read_positions(), set_bits(da.reads));
          const bool dense = da.writes.intersects(db.writes) ||
                             da.writes.intersects(db.reads) ||
                             da.reads.intersects(db.writes);
          EXPECT_EQ(bitmap_conflict(a, b), dense)
              << "bits=" << bits << " k=" << k << " split=" << split << " trial=" << trial;
          EXPECT_EQ(bitmap_conflict(b, a), dense);
        }
      }
    }
  }
}

TEST(BitmapConflict, MixedDigestsConflictConservatively) {
  // Positions built under different configurations live in different hash
  // spaces: comparing them could miss a real conflict, so such pairs
  // conflict. A read in a split digest against a write of the same key in
  // a unified digest is a real conflict.
  BitmapConfig unified;
  unified.bits = 102400;
  BitmapConfig split = unified;
  split.split_read_write = true;
  const Batch reader = make_batch({read(7)}, &split);
  const Batch writer = make_batch({update(7)}, &unified);
  EXPECT_TRUE(bitmap_conflict(reader, writer));
  EXPECT_TRUE(bitmap_conflict(writer, reader));

  // Same key, different sizes.
  BitmapConfig larger = unified;
  larger.bits = 1024000;
  const Batch small_w = make_batch({update(7)}, &unified);
  const Batch large_w = make_batch({update(7)}, &larger);
  EXPECT_TRUE(bitmap_conflict(small_w, large_w));
  EXPECT_TRUE(bitmap_conflict(large_w, small_w));

  // A batch without a digest cannot be ruled independent either.
  const Batch plain = make_batch({update(8)});
  EXPECT_TRUE(bitmap_conflict(plain, writer));
  EXPECT_TRUE(bitmap_conflict(writer, plain));
}

TEST(BitmapPositions, DeduplicatedAndConsistentWithBitmap) {
  BitmapConfig cfg;
  cfg.bits = 4096;
  cfg.hashes = 2;
  cfg.seed = 5;
  // Repeated keys must not duplicate positions; the list is the sorted set
  // bits of the Bloom filter over the same keys.
  Batch b({update(7), update(7), update(9), update(7)});
  b.build_bitmap(cfg);
  EXPECT_EQ(b.write_positions(),
            set_bits(dense_reference({update(7), update(9)}, cfg).writes));
  EXPECT_TRUE(std::is_sorted(b.write_positions().begin(), b.write_positions().end()));
  EXPECT_TRUE(b.read_positions().empty());
}

TEST(Batch, BuildBitmapIsIdempotent) {
  BitmapConfig cfg;
  cfg.bits = 1024;
  Batch b({update(1), update(2)});
  b.build_bitmap(cfg);
  const auto first = b.write_positions();
  b.build_bitmap(cfg);
  EXPECT_EQ(b.write_positions(), first);
  EXPECT_EQ(b.bitmap_config(), cfg);
}

TEST(BatchStamp, MatchesOnePassMasksOnRandomBatches) {
  // Parity contract: one stamp() pass must cache exactly what the one-pass
  // compute_class_mask returns, for any command mix (classified,
  // unclassified, reads) — under a declared map and under every
  // key-hash partition count uniform(S), where bit s is set iff some
  // command's key hashes to partition s.
  util::Xoshiro256 rng(911);
  ConflictClassMap map;
  map.add_range(0, 31, 0);
  map.add_range(32, 63, 1);
  map.map_kind(OpType::kRead, 2);  // keys >= 64 stay unclassified
  for (unsigned partitions : {1u, 2u, 7u, ConflictClassMap::kMaxClasses}) {
    const ConflictClassMap uniform = ConflictClassMap::uniform(partitions);
    for (int trial = 0; trial < 50; ++trial) {
      std::vector<Command> cmds;
      const std::size_t n = 1 + rng.next_below(20);
      for (std::size_t i = 0; i < n; ++i) {
        Command c = update(rng.next_below(128));
        if (rng.next_bool(0.3)) c.type = OpType::kRead;
        cmds.push_back(c);
      }
      Batch unified{std::vector<Command>(cmds)};
      unified.stamp(uniform);
      std::uint64_t touched = 0;
      for (const Command& c : cmds) touched |= std::uint64_t{1} << uniform.class_of_key(c.key);
      EXPECT_EQ(unified.class_mask(), touched);
      EXPECT_EQ(unified.class_mask(), compute_class_mask(unified, uniform));
      EXPECT_EQ(unified.class_map_fingerprint(), uniform.fingerprint());
      unified.stamp(map);
      EXPECT_EQ(unified.class_mask(), compute_class_mask(unified, map));
      EXPECT_EQ(unified.class_map_fingerprint(), map.fingerprint());
    }
  }
}

TEST(BatchStamp, SkippedHalvesLeaveExistingStampsUntouched) {
  // A stamp is a pure function of (commands, map): re-stamping under the
  // same map changes nothing, and a stamp under another map leaves no trace
  // once the first map is stamped again.
  const ConflictClassMap uniform = ConflictClassMap::uniform(4);
  ConflictClassMap ranges;
  ranges.add_range(0, 99, 0);
  Batch b({update(5), update(80)});
  b.stamp(uniform);
  const std::uint64_t cmask = b.class_mask();
  b.stamp(uniform);
  EXPECT_EQ(b.class_mask(), cmask);
  EXPECT_EQ(b.class_map_fingerprint(), uniform.fingerprint());
  b.stamp(ranges);
  EXPECT_EQ(b.class_mask(), std::uint64_t{1});
  EXPECT_EQ(b.class_map_fingerprint(), ranges.fingerprint());
  b.stamp(uniform);
  EXPECT_EQ(b.class_mask(), cmask);
  EXPECT_EQ(b.class_map_fingerprint(), uniform.fingerprint());
}

TEST(Batch, EmptyBatchBitmapIsEmpty) {
  BitmapConfig cfg;
  cfg.bits = 1024;
  Batch a(std::vector<Command>{});
  a.build_bitmap(cfg);
  Batch b({update(1)});
  b.build_bitmap(cfg);
  EXPECT_FALSE(bitmap_conflict(a, b));
  EXPECT_FALSE(bitmap_conflict(a, a));
}

}  // namespace
}  // namespace psmr::smr
