#include "sim/analytic.hpp"

#include <cmath>

namespace psmr::sim {

double bit_set_probability(std::size_t bitmap_bits, std::size_t batch_size) {
  const double m = static_cast<double>(bitmap_bits);
  const double n = static_cast<double>(batch_size);
  // 1 - (1 - 1/m)^n, computed stably via expm1/log1p.
  return -std::expm1(n * std::log1p(-1.0 / m));
}

double pairwise_conflict_probability(std::size_t bitmap_bits, std::size_t batch_size) {
  const double m = static_cast<double>(bitmap_bits);
  const double p = bit_set_probability(bitmap_bits, batch_size);
  // 1 - (1 - p^2)^m
  return -std::expm1(m * std::log1p(-p * p));
}

double conflict_rate(std::size_t bitmap_bits, std::size_t batch_size, std::size_t graph_size) {
  const double q = pairwise_conflict_probability(bitmap_bits, batch_size);
  const double g = static_cast<double>(graph_size);
  // 1 - (1 - q)^G
  return -std::expm1(g * std::log1p(-q));
}

double query_fp_rate(std::size_t bitmap_bits, unsigned hashes, std::size_t n_keys) {
  const double m = static_cast<double>(bitmap_bits);
  const double k = static_cast<double>(hashes);
  const double n = static_cast<double>(n_keys);
  return std::pow(1.0 - std::exp(-k * n / m), k);
}

}  // namespace psmr::sim
