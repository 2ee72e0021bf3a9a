// Closed-form false-positive model for bitmap conflict detection.
//
// Models Table I analytically so the simulator (conflict_sim.hpp) has an
// oracle. With m bitmap bits, n keys per batch (distinct with overwhelming
// probability given a 10^9 key space), and k = 1 hash function:
//
//   p  = 1 - (1 - 1/m)^n            probability a given bit is set
//   q  = 1 - (1 - p^2)^m            probability two independent batch
//                                   bitmaps share at least one set bit
//   r  = 1 - (1 - q)^G              probability an incoming batch collides
//                                   with at least one of G pending batches
//
// (bit occupancies are treated as independent — exact enough that every
// Table I cell is reproduced to within a tenth of a percentage point).
#pragma once

#include <cstddef>

namespace psmr::sim {

/// p: probability that a specific bit of an m-bit, 1-hash Bloom filter is
/// set after inserting n (distinct) keys.
double bit_set_probability(std::size_t bitmap_bits, std::size_t batch_size);

/// q: probability that two independent batch bitmaps intersect.
double pairwise_conflict_probability(std::size_t bitmap_bits, std::size_t batch_size);

/// r: probability that an incoming batch conflicts with at least one of
/// `graph_size` pending batches — the quantity reported in Table I.
double conflict_rate(std::size_t bitmap_bits, std::size_t batch_size, std::size_t graph_size);

/// Expected false-positive probability of a membership query against an
/// m-bit, k-hash Bloom filter holding n keys: (1 - e^{-kn/m})^k.
double query_fp_rate(std::size_t bitmap_bits, unsigned hashes, std::size_t n_keys);

}  // namespace psmr::sim
