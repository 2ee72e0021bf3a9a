// Backpressure admission and watermark instrumentation for the delivery
// queues of every scheduler variant (DESIGN.md §14). Each variant owns one
// meter (the EarlyScheduler's fallback engine owns its own, merged under
// fallback.backpressure.*). The mode policy — kReject / kBlockWithDeadline / kBlock and its
// wait/reject/deadline metering — lives in admit(); a variant supplies only
// its room predicate and how it waits.
//
// Thread-safety: admit() and update() are called under the owning variant's
// guard or from its single delivery thread. The gauges/counters themselves
// are registry handles and safe to snapshot concurrently.
#pragma once

#include <algorithm>
#include <chrono>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <mutex>
#include <optional>

#include "core/scheduler_options.hpp"
#include "obs/metrics.hpp"
#include "util/time.hpp"

namespace psmr::core {

class BackpressureMeter {
 public:
  // All metrics are registered eagerly so they appear (at zero) in every
  // snapshot — tools/check_metrics_json.py --require depends on that.
  BackpressureMeter(obs::MetricsRegistry& registry, const SchedulerOptions& options)
      : mode_(options.backpressure),
        deadline_(options.backpressure_deadline),
        waits_(registry.counter("backpressure.waits")),
        rejects_(registry.counter("backpressure.rejects")),
        deadline_expired_(registry.counter("backpressure.deadline_expired")),
        crossings_(registry.counter("backpressure.high_watermark_crossings")),
        wait_ns_(registry.histogram("backpressure.wait_ns")),
        depth_(registry.gauge("backpressure.queue_depth")),
        capacity_gauge_(registry.gauge("backpressure.capacity")),
        high_gauge_(registry.gauge("backpressure.high_watermark")),
        low_gauge_(registry.gauge("backpressure.low_watermark")),
        above_high_(registry.gauge("backpressure.above_high")) {
    const std::size_t capacity = options.max_pending_batches;
    capacity_gauge_.set(static_cast<double>(capacity));
    if (capacity != 0) {
      high_mark_ = std::max<std::size_t>(
          1, static_cast<std::size_t>(static_cast<double>(capacity) *
                                      options.high_watermark));
      low_mark_ = std::min(
          high_mark_ - 1, static_cast<std::size_t>(static_cast<double>(capacity) *
                                                   options.low_watermark));
    }
    high_gauge_.set(static_cast<double>(high_mark_));
    low_gauge_.set(static_cast<double>(low_mark_));
  }

  /// Publish the current resident depth and run the watermark hysteresis:
  /// `above_high` flips to 1 at depth >= high mark and back to 0 only once
  /// depth drains to <= low mark.
  void update(std::size_t depth) {
    depth_.set(static_cast<double>(depth));
    if (high_mark_ == 0) return;  // unbounded queue: no watermark semantics
    if (!above_) {
      if (depth >= high_mark_) {
        above_ = true;
        above_high_.set(1);
        crossings_.add(1);
      }
    } else if (depth <= low_mark_) {
      above_ = false;
      above_high_.set(0);
    }
  }

  /// Runs the configured backpressure mode for one batch. `have()` says
  /// whether the queue has room (a variant may also return true on stop and
  /// check for it afterwards); `wait(limit)` parks until have() holds or
  /// the optional limit passes, and returns have(). Returns whether the
  /// caller may insert: false on kReject while full, or when the
  /// kBlockWithDeadline wait expired.
  template <typename Have, typename Wait>
  bool admit(Have&& have, Wait&& wait) {
    if (have()) return true;
    if (mode_ == BackpressureMode::kReject) {
      rejects_.add(1);
      return false;
    }
    const std::uint64_t t0 = util::now_ns();
    const bool got = wait(mode_ == BackpressureMode::kBlockWithDeadline
                              ? std::optional<std::chrono::milliseconds>(deadline_)
                              : std::nullopt);
    waits_.add(1);
    wait_ns_.record(util::now_ns() - t0);
    if (!got) deadline_expired_.add(1);
    return got;
  }

  /// admit() for a variant that parks on a condition variable under `lk`.
  template <typename Have>
  bool admit(std::unique_lock<std::mutex>& lk, std::condition_variable& cv, Have&& have) {
    return admit(have, [&](std::optional<std::chrono::milliseconds> limit) {
      if (limit) return cv.wait_for(lk, *limit, have);
      cv.wait(lk, have);
      return true;
    });
  }

 private:
  BackpressureMode mode_;
  std::chrono::milliseconds deadline_;
  obs::Counter& waits_;
  obs::Counter& rejects_;
  obs::Counter& deadline_expired_;
  obs::Counter& crossings_;
  obs::HistogramMetric& wait_ns_;
  obs::Gauge& depth_;
  obs::Gauge& capacity_gauge_;
  obs::Gauge& high_gauge_;
  obs::Gauge& low_gauge_;
  obs::Gauge& above_high_;
  std::size_t high_mark_ = 0;
  std::size_t low_mark_ = 0;
  bool above_ = false;
};

}  // namespace psmr::core
