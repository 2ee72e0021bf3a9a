#include "smr/batch.hpp"

#include <algorithm>
#include <unordered_map>

#include "util/assert.hpp"

#if defined(__SSE2__)
#include <emmintrin.h>
#endif

namespace psmr::smr {

void Batch::stamp(const ConflictClassMap& map) {
  class_mask_ = compute_class_mask(*this, map);
  class_fp_ = map.fingerprint();
}

std::uint64_t compute_class_mask(const Batch& batch,
                                 const ConflictClassMap& map) noexcept {
  std::uint64_t mask = 0;
  for (const Command& c : batch.commands()) {
    mask |= map.class_mask_of(c);
  }
  return mask;
}

void Batch::build_bitmap(const BitmapConfig& cfg) {
  PSMR_CHECK(cfg.bits > 0 && cfg.bits <= (std::uint64_t{1} << 32));
  PSMR_CHECK(cfg.hashes >= 1);
  digest_ = cfg;
  write_pos_.clear();
  read_pos_.clear();
  write_pos_.reserve(commands_.size() * cfg.hashes);
  for (const Command& c : commands_) {
    // The paper's scheme (unified) puts every key the batch touches in one
    // digest, regardless of read/write — conservative but never unsafe.
    auto& out = cfg.split_read_write && !c.is_write() ? read_pos_ : write_pos_;
    for (unsigned h = 0; h < cfg.hashes; ++h) {
      out.push_back(bloom_position(c.key, h, cfg));
    }
  }
  for (auto* v : {&write_pos_, &read_pos_}) {
    std::sort(v->begin(), v->end());
    v->erase(std::unique(v->begin(), v->end()), v->end());
  }
}

namespace {

/// Whether two sorted, distinct position lists share an element.
bool sorted_intersect(const std::vector<std::uint32_t>& a,
                      const std::vector<std::uint32_t>& b) noexcept {
  if (a.empty() || b.empty() || a.back() < b.front() || b.back() < a.front()) {
    return false;
  }
  const std::uint32_t* pa = a.data();
  const std::uint32_t* pb = b.data();
  std::size_t i = 0;
  std::size_t j = 0;
#if defined(__SSE2__)
  // The element-wise merge below advances one element per step, and each
  // step's loads wait on the previous compare. Compare a block of four from
  // each list all-against-all instead (the second block in its four
  // rotations), then skip the block whose last element is smaller: it holds
  // no value beyond the other block. About 2x faster per conflict-free pair
  // of 200-command batches (ablation_bitmap part D, BM_GraphInsert).
  while (i + 4 <= a.size() && j + 4 <= b.size()) {
    const __m128i va = _mm_loadu_si128(reinterpret_cast<const __m128i*>(pa + i));
    const __m128i vb = _mm_loadu_si128(reinterpret_cast<const __m128i*>(pb + j));
    __m128i eq = _mm_cmpeq_epi32(va, vb);
    eq = _mm_or_si128(eq, _mm_cmpeq_epi32(va, _mm_shuffle_epi32(vb, 0x39)));
    eq = _mm_or_si128(eq, _mm_cmpeq_epi32(va, _mm_shuffle_epi32(vb, 0x4e)));
    eq = _mm_or_si128(eq, _mm_cmpeq_epi32(va, _mm_shuffle_epi32(vb, 0x93)));
    if (_mm_movemask_epi8(eq) != 0) return true;
    const std::uint32_t a_last = pa[i + 3];
    const std::uint32_t b_last = pb[j + 3];
    i += a_last <= b_last ? 4 : 0;
    j += b_last <= a_last ? 4 : 0;
  }
#endif
  while (i < a.size() && j < b.size()) {
    const std::uint32_t x = pa[i];
    const std::uint32_t y = pb[j];
    if (x == y) return true;
    i += x < y;
    j += y < x;
  }
  return false;
}

}  // namespace

bool bitmap_conflict(const Batch& a, const Batch& b) noexcept {
  if (!a.has_bitmap() || a.bitmap_config() != b.bitmap_config()) return true;
  if (sorted_intersect(a.write_positions(), b.write_positions())) return true;
  return a.split_read_write() &&
         (sorted_intersect(a.write_positions(), b.read_positions()) ||
          sorted_intersect(a.read_positions(), b.write_positions()));
}

bool key_conflict_nested(const Batch& a, const Batch& b) noexcept {
  for (const Command& ca : a.commands()) {
    for (const Command& cb : b.commands()) {
      if (commands_conflict(ca, cb)) return true;
    }
  }
  return false;
}

bool key_conflict_hashed(const Batch& a, const Batch& b) {
  const Batch& small = a.size() <= b.size() ? a : b;
  const Batch& large = a.size() <= b.size() ? b : a;
  // Value encodes whether any command on this key in `small` writes it.
  std::unordered_map<Key, bool> keys;
  keys.reserve(small.size() * 2);
  for (const Command& c : small.commands()) {
    auto [it, inserted] = keys.try_emplace(c.key, c.is_write());
    if (!inserted) it->second = it->second || c.is_write();
  }
  for (const Command& c : large.commands()) {
    auto it = keys.find(c.key);
    if (it != keys.end() && (c.is_write() || it->second)) return true;
  }
  return false;
}

}  // namespace psmr::smr
