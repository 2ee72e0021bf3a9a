#include "smr/batch.hpp"

#include <unordered_map>

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
  split_rw_ = cfg.split_read_write;
  write_bloom_ = util::KeyBloom(cfg.bits, cfg.hashes, cfg.seed);
  positions_.clear();
  if (split_rw_) {
    read_bloom_ = util::KeyBloom(cfg.bits, cfg.hashes, cfg.seed);
    for (const Command& c : commands_) {
      (c.is_write() ? write_bloom_ : read_bloom_).add(c.key);
    }
  } else {
    read_bloom_ = util::KeyBloom();
    // The paper's scheme: one digest over every key the batch touches,
    // regardless of read/write — conservative but never unsafe.
    for (const Command& c : commands_) {
      for (unsigned h = 0; h < cfg.hashes; ++h) {
        const std::size_t pos = write_bloom_.bit_index(c.key, h);
        if (!write_bloom_.bitmap().test(pos)) {
          positions_.push_back(static_cast<std::uint32_t>(pos));
        }
        write_bloom_.mutable_bitmap().set(pos);
      }
    }
  }
}

bool bitmap_conflict(const Batch& a, const Batch& b) noexcept {
  if (a.split_read_write() && b.split_read_write()) {
    return a.write_bloom().intersects(b.write_bloom()) ||
           a.write_bloom().intersects(b.read_bloom()) ||
           a.read_bloom().intersects(b.write_bloom());
  }
  return a.write_bloom().intersects(b.write_bloom());
}

bool bitmap_conflict_sparse(const Batch& a, const Batch& b) noexcept {
  const Batch& probe = a.bitmap_positions().size() <= b.bitmap_positions().size() ? a : b;
  const Batch& dense = &probe == &a ? b : a;
  const util::Bitmap& bits = dense.write_bloom().bitmap();
  for (std::uint32_t pos : probe.bitmap_positions()) {
    if (bits.test(pos)) return true;
  }
  return false;
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
