// Command batches and their conflict-detection digests.
//
// The paper's scheduler (§V-A) handles BATCHES of commands: the client
// proxy groups commands, optionally attaches a 1-hash Bloom bitmap encoding
// every key the batch touches, and broadcasts the batch as one request.
// Batches are immutable once broadcast; the scheduler only reads them.
//
// The digest is kept as the bitmap's SET POSITIONS, sorted and distinct,
// rather than the dense m-bit array: a batch of B keys sets at most B·k of
// the m bits, so two digests intersect iff a linear merge of their
// position lists finds a common element — the answer of the paper's dense
// word-AND, at O(B) cost instead of O(m/64), with no 128 KB array to
// allocate and zero per batch.
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "smr/command.hpp"
#include "smr/conflict_class.hpp"
#include "util/hash.hpp"

namespace psmr::smr {

/// Configuration for the bitmap digest (paper §V "Efficient batch conflict
/// detection" / §VI-B). The same values must be used by every proxy and
/// replica — a size or seed mismatch would break the no-false-negative
/// guarantee.
struct BitmapConfig {
  /// m, number of bits. The paper evaluates 102400 and 1024000 (Table I).
  std::size_t bits = 1024000;
  /// k, number of hash functions. MUST stay 1 for intersection-based
  /// conflict detection (§VI-B): k > 1 only inflates the false positive
  /// rate of bitmap intersections. Exposed for the ablation bench.
  unsigned hashes = 1;
  std::uint64_t seed = 0;
  /// Extension (off in the paper): keep separate read/write bitmaps so two
  /// read-only batches never falsely conflict. Conflict becomes
  /// (w_i ∩ w_j) ∪ (w_i ∩ r_j) ∪ (r_i ∩ w_j) ≠ ∅.
  bool split_read_write = false;

  bool operator==(const BitmapConfig&) const = default;
};

/// The digest's hash format: the bit position hash function `h`
/// (0 <= h < cfg.hashes) gives `key` in a digest built under `cfg`. The one
/// definition proxies, replicas, the simulators and the tests derive digest
/// bits from — changing it changes every digest.
inline std::uint32_t bloom_position(Key key, unsigned h,
                                    const BitmapConfig& cfg) noexcept {
  return static_cast<std::uint32_t>(
      util::reduce_range(util::mix64(key, cfg.seed + h), cfg.bits));
}

class Batch {
 public:
  Batch() = default;
  explicit Batch(std::vector<Command> commands) : commands_(std::move(commands)) {}

  /// Delivery sequence number (position in the atomic-broadcast total
  /// order <B). Assigned at delivery; 0 means "not yet delivered".
  std::uint64_t sequence() const noexcept { return sequence_; }
  void set_sequence(std::uint64_t s) noexcept { sequence_ = s; }

  /// Identifier of the proxy that broadcast this batch (response routing).
  std::uint64_t proxy_id() const noexcept { return proxy_id_; }
  void set_proxy_id(std::uint64_t id) noexcept { proxy_id_ = id; }

  /// Send attempt (1 = first broadcast, >1 = proxy retransmission after a
  /// response deadline). Observability only: the commands — and therefore
  /// the (client_id, sequence) dedup identity — are those of attempt 1.
  std::uint32_t attempt() const noexcept { return attempt_; }
  void set_attempt(std::uint32_t a) noexcept { attempt_ = a; }
  bool is_retransmission() const noexcept { return attempt_ > 1; }

  const std::vector<Command>& commands() const noexcept { return commands_; }
  std::vector<Command>& mutable_commands() noexcept { return commands_; }
  std::size_t size() const noexcept { return commands_.size(); }
  bool empty() const noexcept { return commands_.empty(); }

  /// Builds the Bloom digest(s) from the batch's current commands. Called
  /// by the client proxy (the paper computes bitmaps client-side to
  /// offload the parallelizer, §VI). Idempotent.
  void build_bitmap(const BitmapConfig& cfg);

  bool has_bitmap() const noexcept { return digest_.bits != 0; }

  /// The configuration the digest was built under (bits == 0: none).
  const BitmapConfig& bitmap_config() const noexcept { return digest_; }
  bool split_read_write() const noexcept { return digest_.split_read_write; }

  /// Sorted, distinct set positions of the unified digest covering all
  /// keys (paper's scheme) when split_read_write is false; of the
  /// write-key digest otherwise.
  const std::vector<std::uint32_t>& write_positions() const noexcept { return write_pos_; }
  /// Sorted, distinct set positions of the read-key digest; empty unless
  /// split_read_write was set.
  const std::vector<std::uint32_t>& read_positions() const noexcept { return read_pos_; }

  /// Stamps the touched-conflict-class set under `map` (DESIGN.md §13) in
  /// one pass over the commands, at batch-formation time like the Bloom
  /// digest (off the delivery critical path): bit c iff some command
  /// classifies as class c, bit 63 (ConflictClassMap::kUnclassifiedBit) iff
  /// some command matches no rule — plus the map's fingerprint. Over
  /// ConflictClassMap::uniform(S) the set is the batch's touched key-hash
  /// partitions. Idempotent.
  void stamp(const ConflictClassMap& map);

  /// Touched-class bitmask and the fingerprint of the map it was computed
  /// under (0 = never stamped). The EarlyScheduler recomputes
  /// on the spot when the fingerprint differs from its configured map —
  /// correctness never depends on proxy/replica agreement, only cost does.
  std::uint64_t class_mask() const noexcept { return class_mask_; }
  std::uint64_t class_map_fingerprint() const noexcept { return class_fp_; }

 private:
  std::uint64_t sequence_ = 0;
  std::uint64_t proxy_id_ = 0;
  std::uint32_t attempt_ = 1;
  std::vector<Command> commands_;
  BitmapConfig digest_{.bits = 0};
  std::vector<std::uint32_t> write_pos_;
  std::vector<std::uint32_t> read_pos_;
  std::uint64_t class_mask_ = 0;
  std::uint64_t class_fp_ = 0;
};

using BatchPtr = std::shared_ptr<const Batch>;

/// One-pass touched-class set of a batch (what stamp() caches).
/// Used by the EarlyScheduler when a delivered batch carries no class
/// stamp, or one computed under a different map.
std::uint64_t compute_class_mask(const Batch& batch,
                                 const ConflictClassMap& map) noexcept;

/// Bitmap-based batch conflict test (paper lines 28–29): true iff the
/// digests intersect — (w_a ∩ w_b) ∪ (w_a ∩ r_b) ∪ (r_a ∩ w_b) ≠ ∅ for split
/// digests — computed as a sorted merge of the position lists, O(B_a + B_b).
/// Identical to the paper's dense word-AND over the same bits by
/// construction. Subject to false positives, never false negatives. Two
/// digests built under different BitmapConfigs (size, hashes, seed or
/// split setting), or a batch without a digest, conflict conservatively:
/// positions from different hash spaces cannot be compared.
bool bitmap_conflict(const Batch& a, const Batch& b) noexcept;

/// Exact key-based batch conflict test (paper lines 30–31,
/// `cmmdKeyConflict`): nested-loop search for a pair of conflicting
/// commands, stopping at the first hit — O(Bi·Bj) comparisons in the
/// conflict-free case, exactly the cost profile the paper measures for
/// "CBASE, batch size = 100/200" without bitmaps.
bool key_conflict_nested(const Batch& a, const Batch& b) noexcept;

/// Optimized exact test (extension, ablation bench): probes a hash set of
/// the smaller batch's keys — O(Bi + Bj). Same answer as
/// key_conflict_nested by construction.
bool key_conflict_hashed(const Batch& a, const Batch& b);

}  // namespace psmr::smr
