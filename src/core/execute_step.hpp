// The fault-isolated execute step (DESIGN.md §7), shared by every scheduler
// variant. A variant differs in how it finds the next batch — monitor graph,
// single-owner graph, class routing — but what happens once
// a worker holds one is decided here, once: run the executor without
// letting an exception escape, stamp the tracer, account the outcome in the
// `scheduler.*` counters, and report a failure to the on_failure hook.
#pragma once

#include <cstdint>
#include <exception>
#include <functional>
#include <string>

#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "smr/batch.hpp"
#include "util/assert.hpp"

namespace psmr::core {

/// Runs all commands of a batch, in batch order, on the worker thread that
/// took it. It must be safe to invoke concurrently for independent batches
/// (the service provides that, e.g. via striped locks).
using Executor = std::function<void(const smr::Batch&)>;

/// Observes a failed batch, outside every scheduler lock, on the worker
/// thread: receives the batch and the exception's text. The batch has left
/// (or is about to leave) the schedule — its dependents run regardless.
using FailureFn = std::function<void(const smr::Batch&, const std::string&)>;

class ExecuteStep {
 public:
  /// Resolves the `scheduler.batches_executed` / `commands_executed` /
  /// `batches_failed` counters of `registry` once. `tracer` (may be null)
  /// receives one kExecuted stamp per run.
  ExecuteStep(obs::MetricsRegistry& registry, Executor executor, obs::BatchTracer* tracer)
      : executor_(std::move(executor)),
        tracer_(tracer),
        executed_(registry.counter("scheduler.batches_executed")),
        commands_(registry.counter("scheduler.commands_executed")),
        failed_(registry.counter("scheduler.batches_failed")) {
    PSMR_CHECK(executor_ != nullptr);
  }

  /// The failure hook; set before the owning scheduler starts. A scheduler
  /// that nests engines sets it on its own step only: the engines then see
  /// the rethrown exception (for their own failure counters and breakers)
  /// but never report it a second time.
  void set_on_failure(FailureFn fn) { on_failure_ = std::move(fn); }

  /// Runs `batch` as `worker`. A success counts as executed (plus one on
  /// `worker_counter`, when given); a failure counts as failed, never as
  /// executed, and fires on_failure. Returns the captured exception (null
  /// on success) so a wrapper nested in an engine can rethrow it there.
  std::exception_ptr run(const smr::Batch& batch, std::uint32_t worker = 0,
                         obs::Counter* worker_counter = nullptr) const {
    std::exception_ptr err;
    try {
      executor_(batch);
    } catch (...) {
      err = std::current_exception();
    }
    if (tracer_ != nullptr) tracer_->record_executed(batch.sequence(), worker, err != nullptr);
    if (err == nullptr) {
      executed_.add(1);
      commands_.add(batch.size());
      if (worker_counter != nullptr) worker_counter->add(1);
    } else {
      failed_.add(1);
      if (on_failure_) on_failure_(batch, describe(err));
    }
    return err;
  }

 private:
  /// The failure text every variant reports.
  static std::string describe(const std::exception_ptr& err) {
    try {
      std::rethrow_exception(err);
    } catch (const std::exception& e) {
      return e.what();
    } catch (...) {
      return "non-standard exception";
    }
  }

  Executor executor_;
  FailureFn on_failure_;
  obs::BatchTracer* tracer_;
  obs::Counter& executed_;
  obs::Counter& commands_;
  obs::Counter& failed_;
};

}  // namespace psmr::core
