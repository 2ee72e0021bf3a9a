#include "sim/conflict_sim.hpp"

#include <vector>

#include "smr/batch.hpp"
#include "util/assert.hpp"
#include "util/bitmap.hpp"
#include "util/rng.hpp"

namespace psmr::sim {

ConflictSimResult run_conflict_sim(const ConflictSimConfig& cfg) {
  PSMR_CHECK(cfg.bitmap_bits > 0 && cfg.bitmap_bits <= (std::uint64_t{1} << 32));
  PSMR_CHECK(cfg.batch_size > 0);
  PSMR_CHECK(cfg.hashes >= 1);

  util::Xoshiro256 rng(cfg.seed);
  const smr::BitmapConfig digest{.bits = cfg.bitmap_bits, .hashes = cfg.hashes};

  // Sliding window of G pending-batch bitmaps. Each slot also remembers its
  // set positions so eviction clears O(n·k) bits instead of O(m).
  struct Slot {
    util::Bitmap bits;
    std::vector<std::size_t> positions;
  };
  std::vector<Slot> window(cfg.graph_size);
  for (Slot& s : window) s.bits = util::Bitmap(cfg.bitmap_bits);
  std::size_t oldest = 0;
  std::uint64_t filled = 0;

  std::vector<std::size_t> incoming;
  incoming.reserve(cfg.batch_size * cfg.hashes);

  ConflictSimResult result;
  result.iterations = cfg.iterations;

  for (std::uint64_t it = 0; it < cfg.iterations; ++it) {
    // Draw the incoming batch's keys and hash them to bit positions.
    incoming.clear();
    for (std::uint64_t c = 0; c < cfg.batch_size; ++c) {
      const std::uint64_t key = rng.next_below(cfg.key_space);
      for (unsigned h = 0; h < cfg.hashes; ++h) {
        incoming.push_back(smr::bloom_position(key, h, digest));
      }
    }

    // Compare against every pending batch (only meaningful once the window
    // has warmed up; the paper's averages are insensitive to the first G
    // iterations out of 10^6).
    bool any_conflict = false;
    const std::uint64_t live = filled < cfg.graph_size ? filled : cfg.graph_size;
    for (std::uint64_t w = 0; w < live; ++w) {
      const Slot& slot = window[w];
      ++result.pairwise_tests;
      bool pair_conflict = false;
      for (std::size_t pos : incoming) {
        if (slot.bits.test(pos)) {
          pair_conflict = true;
          break;
        }
      }
      if (pair_conflict) {
        ++result.pairwise_conflicts;
        any_conflict = true;
      }
    }
    if (any_conflict) ++result.conflicts;

    // Insert the incoming batch, evicting the oldest.
    Slot& slot = window[oldest];
    for (std::size_t pos : slot.positions) slot.bits.reset(pos);
    slot.positions.assign(incoming.begin(), incoming.end());
    for (std::size_t pos : slot.positions) slot.bits.set(pos);
    oldest = (oldest + 1) % window.size();
    if (filled < cfg.graph_size) ++filled;
  }
  return result;
}

}  // namespace psmr::sim
