// Conflict-rate simulator (paper §VII-D).
//
// Reproduces the paper's methodology exactly: "incoming requests [are]
// single batches, and the dependency graph [is] a list of batches. To
// determine conflicts, the simulator compares an incoming batch against the
// list of batches. If at least one common bitmap position is set as 1 in
// both bitmaps, then a conflict is computed. After checking conflicts ...
// the incoming batch is added to the list of bitmaps and the oldest batch
// in the list is removed."
//
// Since the key space (10^9) dwarfs the keys in flight, detected conflicts
// are overwhelmingly FALSE positives of the 1-hash Bloom encoding — the
// quantity Table I reports.
//
// Implementation note: testing whether an incoming batch's bitmap
// intersects a stored bitmap is done by probing the incoming batch's ≤ n
// set positions against the stored bit array — mathematically identical to
// the paper's word-wise AND (and to the scheduler's position merge), but
// O(n) instead of O(m) per pair, which keeps the 10^6-iteration runs fast.
// Positions come from smr::bloom_position with seed 0.
#pragma once

#include <cstdint>

namespace psmr::sim {

struct ConflictSimConfig {
  std::uint64_t bitmap_bits = 102400;
  std::uint64_t batch_size = 100;
  /// Average dependency-graph size G: number of pending batches the
  /// incoming batch is compared against.
  std::uint64_t graph_size = 1;
  std::uint64_t key_space = 1'000'000'000;
  std::uint64_t iterations = 1'000'000;
  std::uint64_t seed = 1;
  /// k. Table I uses 1; >1 demonstrates §VI-B's point that extra hash
  /// functions only raise the intersection false-positive rate.
  unsigned hashes = 1;
};

struct ConflictSimResult {
  std::uint64_t iterations = 0;
  std::uint64_t conflicts = 0;  // iterations whose batch hit >= 1 pending batch
  std::uint64_t pairwise_tests = 0;
  std::uint64_t pairwise_conflicts = 0;

  double conflict_rate() const {
    return iterations ? static_cast<double>(conflicts) / static_cast<double>(iterations) : 0.0;
  }
  double pairwise_rate() const {
    return pairwise_tests
               ? static_cast<double>(pairwise_conflicts) / static_cast<double>(pairwise_tests)
               : 0.0;
  }
};

ConflictSimResult run_conflict_sim(const ConflictSimConfig& cfg);

}  // namespace psmr::sim
