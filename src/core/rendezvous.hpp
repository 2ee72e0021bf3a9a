// The delivery-sequence-keyed rendezvous gate (DESIGN.md §13.1) of the
// EarlyScheduler's multi-class batches (Early Scheduling in PSMR, arXiv
// 1805.05152).
//
// A batch held by several participants (class workers, plus the fallback
// graph engine) runs exactly once:
//   * the lowest participant leads: it runs the batch once every
//     participant has arrived, i.e. once every delivery-order predecessor
//     that shares a participant with the batch is done;
//   * the others wait until the leader has finished, then return;
//   * a failure is handed back on the leader only, so it is accounted (and
//     on_failure fired) exactly once, in the leader's engine;
//   * the last participant to depart erases the gate;
//   * shrink() re-targets the gate when stop() cut delivery short, so the
//     participants that do hold the batch still resolve it.
#pragma once

#include <bit>
#include <condition_variable>
#include <cstdint>
#include <exception>
#include <memory>
#include <mutex>
#include <unordered_map>

namespace psmr::core {

class RendezvousGates {
 public:
  struct Gate {
    explicit Gate(std::uint64_t participants)
        : expected(static_cast<unsigned>(std::popcount(participants))),
          leader(static_cast<std::size_t>(std::countr_zero(participants))) {}
    std::mutex mu;
    std::condition_variable cv;
    unsigned expected;   // participants that hold the batch
    std::size_t leader;  // lowest participant: runs the batch
    unsigned arrived = 0;
    unsigned departed = 0;
    bool done = false;  // leader finished (successfully or not)
  };

  /// Registers the gate of batch `seq` over `participants` (bit i =
  /// participant i). Must run before any participant can reach the batch.
  std::shared_ptr<Gate> open(std::uint64_t seq, std::uint64_t participants) {
    auto gate = std::make_shared<Gate>(participants);
    std::lock_guard lk(mu_);
    gates_.emplace(seq, gate);
    return gate;
  }

  /// The gate of batch `seq`; null when the batch is not gated.
  std::shared_ptr<Gate> find(std::uint64_t seq) const {
    std::lock_guard lk(mu_);
    const auto it = gates_.find(seq);
    return it != gates_.end() ? it->second : nullptr;
  }

  /// Delivery of batch `seq` was cut short by stop(): only `holders` got
  /// it. Re-targets the gate at them, or drops it when none did.
  void shrink(std::uint64_t seq, Gate& gate, std::uint64_t holders) {
    if (holders == 0) {
      erase(seq);
      return;
    }
    std::lock_guard lk(gate.mu);
    gate.expected = static_cast<unsigned>(std::popcount(holders));
    gate.leader = static_cast<std::size_t>(std::countr_zero(holders));
    gate.cv.notify_all();
  }

  /// Passes `participant` through the gate of batch `seq`. The leader runs
  /// `lead()` with no gate lock held; lead returns the exception to hand to
  /// the leader's engine (or null), which is rethrown after departure.
  template <typename Lead>
  void pass(std::size_t participant, Gate& gate, std::uint64_t seq, Lead&& lead) {
    std::unique_lock lk(gate.mu);
    ++gate.arrived;
    if (gate.arrived == gate.expected) gate.cv.notify_all();
    gate.cv.wait(lk, [&] {
      return gate.done || (participant == gate.leader && gate.arrived == gate.expected);
    });
    std::exception_ptr err;
    if (!gate.done) {
      lk.unlock();
      err = lead();
      lk.lock();
      gate.done = true;
      gate.cv.notify_all();
    }
    const bool last = ++gate.departed == gate.expected;
    lk.unlock();
    if (last) erase(seq);
    if (err != nullptr) std::rethrow_exception(err);
  }

 private:
  void erase(std::uint64_t seq) {
    std::lock_guard lk(mu_);
    gates_.erase(seq);
  }

  mutable std::mutex mu_;
  std::unordered_map<std::uint64_t, std::shared_ptr<Gate>> gates_;
};

}  // namespace psmr::core
