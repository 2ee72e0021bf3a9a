// The worker circuit breaker (DESIGN.md §7, §13.4), shared by every
// scheduler variant. After `circuit_failure_threshold` consecutive failed
// batches the circuit trips and the variant degrades to one batch in flight
// at a time; with `circuit_recovery_threshold` set, that many consecutive
// successes while degraded close it again (half-open recovery). Each
// transition bumps `scheduler.circuit.trips` / `recoveries` and sets the
// `scheduler.degraded` gauge.
//
// An unsynchronized state machine: record() must run under the owning
// variant's guard (the monitor mutex, the graph-owning thread, or a circuit
// mutex). degraded() may be read from any thread.
#pragma once

#include <atomic>

#include "core/scheduler_options.hpp"
#include "obs/metrics.hpp"

namespace psmr::core {

class CircuitBreaker {
 public:
  CircuitBreaker(obs::MetricsRegistry& registry, const SchedulerOptions& options)
      : registry_(registry),
        failure_threshold_(options.circuit_failure_threshold),
        recovery_threshold_(options.circuit_recovery_threshold) {}

  /// Feeds one batch outcome. Returns true when this success closed the
  /// circuit (the variant then re-opens concurrent execution).
  bool record(bool ok) {
    if (ok) {
      consecutive_failures_ = 0;
      // Degraded mode runs one batch at a time, so these successes are
      // genuinely consecutive.
      if (degraded() && recovery_threshold_ != 0 &&
          ++consecutive_successes_ >= recovery_threshold_) {
        consecutive_successes_ = 0;
        set_degraded(false);
        registry_.counter("scheduler.circuit.recoveries").add(1);
        return true;
      }
    } else {
      consecutive_successes_ = 0;  // a failure restarts the probation window
      if (failure_threshold_ != 0 && !degraded() &&
          ++consecutive_failures_ >= failure_threshold_) {
        set_degraded(true);
        registry_.counter("scheduler.circuit.trips").add(1);
      }
    }
    return false;
  }

  bool degraded() const noexcept { return degraded_.load(); }

  /// Re-publishes the `scheduler.degraded` gauge (from stats(), so it
  /// appears in every snapshot, tripped or not).
  void publish() const { registry_.gauge("scheduler.degraded").set(degraded() ? 1.0 : 0.0); }

 private:
  void set_degraded(bool degraded) {
    degraded_.store(degraded);
    publish();
  }

  obs::MetricsRegistry& registry_;
  unsigned failure_threshold_;
  unsigned recovery_threshold_;
  unsigned consecutive_failures_ = 0;
  unsigned consecutive_successes_ = 0;
  std::atomic<bool> degraded_{false};
};

}  // namespace psmr::core
