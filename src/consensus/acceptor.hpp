// Paxos acceptor role.
//
// Classic single-promised-ballot acceptor generalized over the instance log
// (Multi-Paxos): one `promised` ballot guards every instance; per-instance
// accepted (vballot, value) pairs are retained for Phase 1 recovery until
// the log is truncated below a decided horizon (truncate_below). The
// acceptor is passive — it only ever replies to Prepare/Accept — so crash
// simulation is just stopping its thread (or isolating it at the network).
//
// Ring mode: an Accept carrying ring=true and fewer than `majority`
// accumulated votes is forwarded to the next acceptor on the ring after
// local acceptance; the acceptor that completes the majority reports a
// single Accepted to the leader. This reproduces Ring Paxos's chained
// dissemination with f+1 unicasts instead of a fan-out.
#pragma once

#include <atomic>
#include <cstdint>
#include <map>
#include <thread>
#include <vector>

#include "consensus/types.hpp"

namespace psmr::consensus {

class Acceptor {
 public:
  /// `ring` lists all acceptor ids in ring order (used only for ring-mode
  /// forwarding); `self_index` is this acceptor's position in it.
  Acceptor(PaxosNetwork& network, PaxosEndpoint* endpoint,
           std::vector<net::ProcessId> ring, std::size_t self_index,
           std::uint32_t majority);

  ~Acceptor();

  Acceptor(const Acceptor&) = delete;
  Acceptor& operator=(const Acceptor&) = delete;

  void start();
  void stop();

  /// Log GC: drops accepted entries below `instance`. Safe once those
  /// instances are decided and every proposer runs Phase 1 from at least
  /// `instance` (Proposer::truncate_decided_below).
  void truncate_below(InstanceId instance);

  /// Diagnostics / tests.
  Ballot promised() const;
  std::size_t accepted_count() const;

 private:
  void run();
  void handle(const net::Envelope<Message>& env);
  void on_prepare(net::ProcessId from, const Prepare& msg);
  void on_accept(net::ProcessId from, const Accept& msg);

  PaxosNetwork& network_;
  PaxosEndpoint* endpoint_;
  std::vector<net::ProcessId> ring_;
  std::size_t self_index_;
  std::uint32_t majority_;

  mutable std::mutex mu_;
  Ballot promised_;
  std::map<InstanceId, PromiseEntry> accepted_;

  std::atomic<bool> stop_{false};
  std::thread thread_;
};

}  // namespace psmr::consensus
