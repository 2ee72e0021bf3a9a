// perfbench — the repository benchmark: one load generator driving one
// smr::Replica (core::Scheduler, bitmap mode, 2 workers) over kv::KvStore,
// ordered by smr::LocalOrderer or by smr::ConsensusAdapter over
// consensus::PaxosGroup. See README.md in this directory for the workloads,
// the metric catalogue and the host-noise facts the design absorbs.
//
//   perfbench --workload NAME --seed N --seconds S --trace 0|1 [--commit ID]
//
// --trace 0 prints the end-to-end metrics; --trace 1 runs the same load with
// spans recorded around every call into a layer (from this file only: no
// tracing inside src/) and prints the per-layer metrics plus a stage table.
// The last line of stdout is one JSON object: correct, attempted, failed,
// metrics. The exit code is non-zero when the correctness gate fails.
#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <condition_variable>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "consensus/group.hpp"
#include "kvstore/kvstore.hpp"
#include "smr/batch.hpp"
#include "smr/batch_former.hpp"
#include "smr/consensus_adapter.hpp"
#include "smr/local_orderer.hpp"
#include "smr/replica.hpp"
#include "util/assert.hpp"
#include "util/rng.hpp"
#include "util/time.hpp"
#include "util/zipf.hpp"

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif

namespace {

using namespace psmr;

std::int64_t now() { return static_cast<std::int64_t>(util::now_ns()); }

// ---------------------------------------------------------------- workloads

struct Workload {
  std::string name;
  bool paxos = false;
  /// Batch slots: batches outstanding (closed loop) or the ring the open
  /// loop cycles through. Each slot owns batch_size clients, so every
  /// client has at most one command outstanding and contiguous sequences.
  std::size_t slots = 16;
  std::size_t batch_size = 100;
  std::uint64_t keys = 1'000'000;
  double zipf_theta = 0.0;  // 0 = uniform keys
  double read_frac = 0.0;
  bool split_rw = false;
  /// > 0: open loop, batch i is due at t0 + i/batches_per_s. 0: closed
  /// loop, a slot is reissued as soon as its previous batch is answered.
  double batches_per_s = 0.0;
  std::uint64_t checkpoint_interval = 0;

  bool open_loop() const { return batches_per_s > 0.0; }
};

std::optional<Workload> workload_named(const std::string& name) {
  Workload w;
  w.name = name;
  if (name == "local-uniform") return w;
  if (name == "local-zipf-rw") {
    w.zipf_theta = 0.7;
    w.read_frac = 0.5;
    w.split_rw = true;
    return w;
  }
  if (name == "paxos-ckpt") {
    w.paxos = true;
    w.slots = 1024;
    w.batch_size = 10;
    w.keys = 100'000;
    w.batches_per_s = 2000.0;
    w.checkpoint_interval = 1000;
    return w;
  }
  return std::nullopt;
}

constexpr std::size_t kBitmapBits = 1'024'000;
constexpr unsigned kWorkers = 2;
constexpr std::size_t kMaxPendingBatches = 2048;
constexpr double kWarmupSeconds = 1.0;
/// Set-up is repeated at least kMinSetups times and for at least
/// kMinSetupSeconds (a 100k-key set-up takes 12-25 ms), and the fastest is
/// reported: host stalls and allocator state only ever slow a set-up, and
/// the median of a run's set-ups moved by a third between runs.
constexpr int kMinSetups = 5;
constexpr int kMaxSetups = 50;
constexpr double kMinSetupSeconds = 1.0;
constexpr std::size_t kMaxLatencySamples = std::size_t{1} << 20;
/// Throughput and CPU per command are counted per sub-window of this length.
constexpr double kSubWindowSeconds = 0.1;
/// CPU per command is counted per span of this length, so that on
/// paxos-ckpt each span holds checkpoints (two a second) and their capture
/// cost.
constexpr double kCpuSpanSeconds = 1.0;
/// Latency quantiles are taken per group of this many consecutive answered
/// batches, so ten samples lie beyond each group's p99. Tied to a count, not
/// to time, so the groups hold the same number of samples whatever the
/// throughput. On paxos-ckpt each group holds one checkpoint (every 1000
/// batches), so its pause stays in every p99.
constexpr std::size_t kLatencyGroup = 1000;
/// Host noise (steal and late wake-ups) only ever slows the program, and on
/// a shared host it comes in bursts shorter than a second. So the closed-loop
/// throughput is the rate that a tenth of the sub-windows reach, and a
/// latency quantile the value that a tenth of the groups stay within: the
/// run's least-disturbed stretches, as min-of-N timing uses the fastest
/// repetition. Medians over sub-windows and groups are printed beside them.
constexpr double kBestShare = 0.1;
/// Runs of consecutive ids in the delivered-order store (16 bytes each).
constexpr std::size_t kMaxDeliveredRuns = std::size_t{1} << 16;
/// The stage segments tile [start, done] of every batch, so their means must
/// add up to the mean batch latency; a larger gap means a boundary was not
/// stamped or was stamped out of order.
constexpr double kStageSumTolerance = 0.01;

std::uint64_t mix(std::uint64_t a, std::uint64_t b) {
  util::SplitMix64 sm(a ^ (b * 0x9e3779b97f4a7c15ULL));
  return sm();
}

/// Keys, operation types and values of every batch, as a pure function of
/// (seed, batch id): the generator and the sequential replay of the
/// correctness gate draw the same commands without storing them.
class CommandSource {
 public:
  CommandSource(const Workload& w, std::uint64_t seed)
      : w_(w), seed_(seed), zipf_(w.keys, w.zipf_theta) {}

  template <typename F>
  void for_each(std::uint64_t batch, F&& f) const {
    util::Xoshiro256 rng(mix(seed_, batch));
    for (std::size_t i = 0; i < w_.batch_size; ++i) {
      smr::Command c;
      c.key = w_.zipf_theta > 0.0 ? zipf_(rng) : rng.next_below(w_.keys);
      const bool read = w_.read_frac > 0.0 && rng.next_bool(w_.read_frac);
      c.type = read ? smr::OpType::kRead : smr::OpType::kUpdate;
      c.value = read ? 0 : rng();
      f(i, c);
    }
  }

  void preload(kv::KvStore& store) const {
    for (smr::Key k = 0; k < w_.keys; ++k) store.create(k, mix(~seed_, k));
  }

 private:
  const Workload& w_;
  std::uint64_t seed_;
  util::ZipfGenerator zipf_;
};

// ---------------------------------------------------------------- host record

std::string cpu_model() {
  std::ifstream in("/proc/cpuinfo");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("model name", 0) == 0) {
      const auto colon = line.find(':');
      if (colon != std::string::npos) return line.substr(line.find_first_not_of(' ', colon + 1));
    }
  }
  return "unknown";
}

double percentile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  const auto k = static_cast<std::size_t>(q * static_cast<double>(v.size() - 1));
  std::nth_element(v.begin(), v.begin() + static_cast<std::ptrdiff_t>(k), v.end());
  return v[k];
}

/// p99 lateness of 1 ms sleep_until ticks over one second: how late this
/// host wakes a sleeping thread right now. Read beside the results so a
/// host phase is not mistaken for a program change.
double wake_p99_us() {
  std::vector<double> late;
  late.reserve(1000);
  auto due = std::chrono::steady_clock::now();
  for (int i = 0; i < 1000; ++i) {
    due += std::chrono::milliseconds(1);
    std::this_thread::sleep_until(due);
    late.push_back(std::chrono::duration<double, std::micro>(std::chrono::steady_clock::now() - due)
                       .count());
  }
  return percentile(std::move(late), 0.99);
}

double cpu_seconds() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_utime.tv_sec + ru.ru_stime.tv_sec) +
         static_cast<double>(ru.ru_utime.tv_usec + ru.ru_stime.tv_usec) * 1e-6;
}

/// Share of all CPU time the hypervisor gave to other guests since `since`
/// (the steal column of /proc/stat). High while the host is contended.
struct StealClock {
  std::uint64_t steal = 0, total = 0;
  static StealClock read() {
    StealClock c;
    std::ifstream in("/proc/stat");
    std::string cpu;
    in >> cpu;
    std::uint64_t v = 0;
    for (int i = 0; i < 10 && in >> v; ++i) {
      if (i < 8) c.total += v;  // guest time is already inside user time
      if (i == 7) c.steal = v;
    }
    return c;
  }
  double share_since(const StealClock& since) const {
    return total > since.total ? double(steal - since.steal) / double(total - since.total) : 0.0;
  }
};

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is in KiB
}

// ---------------------------------------------------------------- load state

/// One batch slot. The generator owns the plain fields; the atomics are
/// stamped by the delivery thread and the worker that runs the batch, and
/// read by the generator once the batch is answered.
struct Slot {
  std::atomic<std::uint32_t> remaining{0};
  std::uint64_t batch = 0;  // id of the batch in flight
  std::uint64_t round = 0;  // sequence number of the slot's clients
  bool busy = false;
  bool trace_pending = false;
  std::int64_t t_start = 0;  // latency origin: due time (open) / hand-off (closed)
  std::int64_t t_form = 0;
  std::int64_t t_formed = 0;
  std::int64_t t_bcast_ret = 0;
  std::atomic<std::int64_t> t_order{0};  // delivery callback entered
  std::atomic<std::int64_t> t_deliver_in{0};
  std::atomic<std::int64_t> t_deliver_out{0};
  std::atomic<std::int64_t> t_exec_first{0};
  std::atomic<std::int64_t> t_exec_last{0};
  std::atomic<std::int64_t> exec_ns{0};
  std::atomic<std::int64_t> t_done{0};  // last reply reached the client side
  std::atomic<std::uint64_t> replies{0};  // reply_mix sum of the batch's replies
};

/// One reply's contribution to the order-insensitive reply fold: command
/// `index` of batch `batch` answered with (status, value).
std::uint64_t reply_mix(std::uint64_t batch, std::uint64_t index, smr::Status status,
                        smr::Value value) {
  return mix(mix(mix(batch, index), static_cast<std::uint64_t>(status)), value);
}

/// The delivered order, for the sequential replay, as runs of consecutive
/// batch ids: LocalOrderer delivers in issue order, and so does a single
/// Paxos proposer, so the store does not grow with run length or throughput.
/// Fixed capacity, touched at construction; an overflow fails the gate.
class DeliveredOrder {
 public:
  explicit DeliveredOrder(std::size_t capacity) : runs_(capacity) {}

  void push(std::uint64_t batch) {
    if (n_ != 0 && runs_[n_ - 1].first + runs_[n_ - 1].count == batch) {
      ++runs_[n_ - 1].count;
    } else if (n_ < runs_.size()) {
      runs_[n_++] = {batch, 1};
    } else {
      overflowed_ = true;
    }
  }

  template <typename F>
  void for_each(F&& f) const {
    for (std::size_t r = 0; r < n_; ++r) {
      for (std::uint64_t k = 0; k < runs_[r].count; ++k) f(runs_[r].first + k);
    }
  }

  std::size_t runs() const { return n_; }
  bool overflowed() const { return overflowed_; }

 private:
  struct Run {
    std::uint64_t first = 0;
    std::uint64_t count = 0;
  };
  std::vector<Run> runs_;
  std::size_t n_ = 0;
  bool overflowed_ = false;
};

/// Answered slots, handed from the response sink to the generator.
class Completions {
 public:
  explicit Completions(std::size_t capacity) { done_.reserve(capacity); }

  void push(std::uint32_t slot) {
    {
      std::lock_guard lk(mu_);
      done_.push_back(slot);
    }
    cv_.notify_one();
  }

  /// Moves every completion into `out`, waiting until there is one or
  /// `deadline` passes (deadline <= 0: wait without limit).
  void take(std::vector<std::uint32_t>& out, std::int64_t deadline) {
    std::unique_lock lk(mu_);
    if (deadline > 0) {
      const auto until = util::Clock::time_point(std::chrono::nanoseconds(deadline));
      cv_.wait_until(lk, until, [&] { return !done_.empty(); });
    } else {
      cv_.wait(lk, [&] { return !done_.empty(); });
    }
    out.insert(out.end(), done_.begin(), done_.end());
    done_.clear();
  }

 private:
  std::mutex mu_;
  std::condition_variable cv_;
  std::vector<std::uint32_t> done_;
};

/// Mean accumulator for one stage or span.
struct Mean {
  double sum = 0.0;
  std::uint64_t n = 0;
  void add(double v) {
    sum += v;
    ++n;
  }
  double value() const { return n == 0 ? 0.0 : sum / static_cast<double>(n); }
};

double median(std::vector<double> v) { return percentile(std::move(v), 0.5); }

/// The measurement window, cut into sub-windows of kSubWindowSeconds, with
/// its batch latencies in groups of kLatencyGroup. Owned by the generator
/// thread; fixed-size, touched at construction.
class Window {
 public:
  explicit Window(double seconds)
      : n_(std::max<long>(1, std::lround(seconds / kSubWindowSeconds))),
        len_ns_(static_cast<std::int64_t>(seconds * 1e9) / n_),
        cmds_(static_cast<std::size_t>(n_), 0),
        cpu_(static_cast<std::size_t>(n_) + 1, 0.0),
        latency_us_(kMaxLatencySamples, 0.0F) {}

  void open(std::int64_t t) { start_ = t; }
  bool opened() const { return start_ != 0; }
  std::int64_t end() const { return start_ + n_ * len_ns_; }
  std::int64_t next_boundary() const { return start_ + next_cpu_ * len_ns_; }
  double seconds() const { return 1e-9 * double(n_ * len_ns_); }

  /// Sub-window of time t, or -1 outside the window.
  long sub_of(std::int64_t t) const {
    if (start_ == 0 || t < start_) return -1;
    const std::int64_t k = (t - start_) / len_ns_;
    return k < n_ ? static_cast<long>(k) : -1;
  }

  /// Generator: records process CPU time at each sub-window boundary passed.
  void tick(std::int64_t t) {
    while (start_ != 0 && next_cpu_ <= n_ && t >= start_ + next_cpu_ * len_ns_) {
      cpu_[static_cast<std::size_t>(next_cpu_++)] = cpu_seconds();
    }
  }

  /// A batch of `cmds` commands answered at `done` after `latency_us`.
  void add(std::int64_t done, double latency_us, std::size_t cmds) {
    const long k = sub_of(done);
    if (k < 0) return;
    cmds_[static_cast<std::size_t>(k)] += cmds;
    total_cmds_ += cmds;
    if (samples_ == latency_us_.size()) {
      ++dropped_;  // beyond the fixed store: counted, not kept
      return;
    }
    latency_us_[samples_] = static_cast<float>(latency_us);
    ++samples_;
  }

  std::uint64_t commands() const { return total_cmds_; }
  std::size_t samples() const { return samples_; }
  std::uint64_t dropped() const { return dropped_; }
  long count() const { return n_; }

  /// The q-quantile over the sub-windows of their rate.
  double throughput_kcmds(double q) const {
    std::vector<double> v;
    for (std::uint64_t c : cmds_) v.push_back(1e-3 * double(c) / (1e-9 * double(len_ns_)));
    return percentile(std::move(v), q);
  }
  double throughput_pooled_kcmds() const { return 1e-3 * double(total_cmds_) / seconds(); }
  /// Median over spans of kCpuSpanSeconds (whole sub-windows) of the CPU
  /// time per command answered in the span.
  double cpu_us_per_cmd() const {
    const long per = std::clamp<long>(std::lround(kCpuSpanSeconds / kSubWindowSeconds), 1, n_);
    std::vector<double> v;
    for (long k = 0; k + per <= n_; k += per) {
      const auto first = static_cast<std::size_t>(k);
      const auto last = static_cast<std::size_t>(k + per);
      std::uint64_t cmds = 0;
      for (std::size_t i = first; i < last; ++i) cmds += cmds_[i];
      if (cmds != 0) v.push_back(1e6 * (cpu_[last] - cpu_[first]) / double(cmds));
    }
    return median(std::move(v));
  }
  /// The `over`-quantile over the groups of kLatencyGroup consecutive
  /// samples of each group's q-quantile. A trailing partial group is left
  /// out, unless it is the only one.
  double latency_us(double q, double over) const {
    const std::size_t groups = latency_groups();
    const std::size_t len = samples_ < kLatencyGroup ? samples_ : kLatencyGroup;
    std::vector<double> v;
    for (std::size_t g = 0; g < groups; ++g) {
      const auto first = latency_us_.begin() + static_cast<std::ptrdiff_t>(g * len);
      const auto last = first + static_cast<std::ptrdiff_t>(len);
      v.push_back(percentile(std::vector<double>(first, last), q));
    }
    return percentile(std::move(v), over);
  }
  std::size_t latency_groups() const { return std::max<std::size_t>(1, samples_ / kLatencyGroup); }
  /// The q-quantile over every sample of the window (diagnostic).
  double latency_us_pooled(double q) const {
    return percentile(std::vector<double>(latency_us_.begin(),
                                          latency_us_.begin() + static_cast<std::ptrdiff_t>(samples_)),
                      q);
  }
  double cpu_seconds_total() const { return cpu_.back() - cpu_.front(); }

 private:
  long n_;
  std::int64_t len_ns_;
  std::int64_t start_ = 0;
  long next_cpu_ = 0;
  std::vector<std::uint64_t> cmds_;
  std::vector<double> cpu_;
  std::vector<float> latency_us_;
  std::size_t samples_ = 0;
  std::uint64_t total_cmds_ = 0;
  std::uint64_t dropped_ = 0;
};

/// The contiguous segments one batch's latency is cut into, in order.
enum Stage {
  kLate,      // due -> formation start: how late the generator formed it
  kForm,      // BatchFormer offer/drain + build_bitmap
  kOrder,     // broadcast call -> delivery callback (encode + consensus)
  kDecode,    // delivery callback -> Replica::deliver (decode + digest rebuild)
  kDeliver,   // Replica::deliver until it returned or the batch began executing
  kQueue,     // -> first Service::execute of the batch
  kExecute,   // first execute start -> last execute end
  kReply,     // last execute end -> last reply seen by the client side
  kNumStages,
};

constexpr const char* kStageMetric[kNumStages] = {
    "load.generator_late_us", "smr.form_us",      "smr.order_us",       "smr.decode_us",
    "smr.deliver_us",         "core.queue_wait_us", "core.execute_us", "smr.reply_us",
};

// ---------------------------------------------------------------- wrappers

/// Service wrapper timing every KvService::execute (traced runs only).
class TimedService final : public smr::Service {
 public:
  TimedService(smr::Service& inner, Slot* slots, std::size_t batch_size)
      : inner_(inner), slots_(slots), batch_size_(batch_size) {}

  smr::Response execute(const smr::Command& cmd) override {
    const std::int64_t t0 = now();
    smr::Response r = inner_.execute(cmd);
    const std::int64_t t1 = now();
    Slot& s = slots_[(cmd.client_id - 1) / batch_size_];
    if (s.t_exec_first.load(std::memory_order_relaxed) == 0) {
      s.t_exec_first.store(t0, std::memory_order_relaxed);
    }
    s.t_exec_last.store(t1, std::memory_order_relaxed);
    s.exec_ns.fetch_add(t1 - t0, std::memory_order_relaxed);
    return r;
  }

 private:
  smr::Service& inner_;
  Slot* slots_;
  std::size_t batch_size_;
};

/// AtomicBroadcast wrapper in front of the PaxosGroup: counts payload bytes
/// and stamps the moment each decided instance reaches the delivery stream.
/// The stream calls the adapter, and through it Bench::on_delivered, on the
/// same thread right after the stamp.
class CountingBroadcast final : public consensus::AtomicBroadcast {
 public:
  explicit CountingBroadcast(consensus::AtomicBroadcast& inner) : inner_(inner) {}

  void subscribe(DeliverFn fn) override {
    inner_.subscribe([this, fn = std::move(fn)](std::uint64_t seq, consensus::Value payload) {
      decided_at_.store(now(), std::memory_order_relaxed);
      fn(seq, std::move(payload));
    });
  }
  void start() override { inner_.start(); }
  void stop() override { inner_.stop(); }
  void broadcast(consensus::Value payload) override {
    payload_bytes_.fetch_add(payload->size(), std::memory_order_relaxed);
    inner_.broadcast(std::move(payload));
  }

  /// When the instance now being delivered reached the delivery stream.
  std::int64_t decided_at() const { return decided_at_.load(std::memory_order_relaxed); }
  std::uint64_t payload_bytes() const { return payload_bytes_.load(std::memory_order_relaxed); }

 private:
  consensus::AtomicBroadcast& inner_;
  std::atomic<std::int64_t> decided_at_{0};
  std::atomic<std::uint64_t> payload_bytes_{0};
};

// ---------------------------------------------------------------- the bench

struct Counters {
  std::uint64_t batches_delivered = 0;
  std::uint64_t pair_tests = 0;
  std::uint64_t conflicts = 0;
  std::uint64_t batches_failed = 0;
  std::uint64_t net_messages = 0;
  std::uint64_t payload_bytes = 0;
  std::uint64_t backpressure_waits = 0;
  std::uint64_t checkpoints = 0;
  std::uint64_t checkpoint_bytes = 0;
  double graph_size_avg = 0.0;
};

class Bench;

/// The system under test: store, replica and ordering, built per set-up.
class Stack {
 public:
  Stack(Bench& bench, const Workload& w, const CommandSource& source, std::uint64_t seed,
        bool trace);
  ~Stack() { stop(); }

  Stack(const Stack&) = delete;
  Stack& operator=(const Stack&) = delete;

  void broadcast(std::unique_ptr<smr::Batch> batch) {
    if (adapter_ != nullptr) {
      adapter_->broadcast(std::move(batch));
    } else {
      local_.broadcast(std::move(batch));
    }
  }

  /// Stops ordering first (no more deliveries), then the workers.
  void stop() {
    if (stopped_) return;
    stopped_ = true;
    if (group_ != nullptr) group_->stop();
    replica_->stop();
  }

  Counters counters() const;

  kv::KvStore& store() { return store_; }
  smr::Replica& replica() { return *replica_; }
  const CountingBroadcast* counting() const { return counting_.get(); }
  std::uint64_t checkpoints_taken() const {
    return checkpoints_ != nullptr ? checkpoints_->checkpoints_taken() : 0;
  }

  Mean capture_ms;  // checkpoint_state callback, delivery thread

 private:
  kv::KvStore store_;
  kv::KvService kv_service_{store_};
  std::unique_ptr<TimedService> timed_;
  std::unique_ptr<smr::Replica> replica_;
  smr::CheckpointManager* checkpoints_ = nullptr;
  smr::LocalOrderer local_;
  std::unique_ptr<consensus::PaxosGroup> group_;
  std::unique_ptr<CountingBroadcast> counting_;
  std::unique_ptr<smr::ConsensusAdapter> adapter_;
  bool stopped_ = false;
};

class Bench {
 public:
  Bench(Workload w, std::uint64_t seed, double seconds, bool trace)
      : w_(std::move(w)),
        seed_(seed),
        trace_(trace),
        source_(w_, seed),
        slots_(std::make_unique<Slot[]>(w_.slots)),
        answered_(std::make_unique<std::atomic<std::uint64_t>[]>(w_.slots * w_.batch_size)),
        completions_(w_.slots),
        former_(smr::BatchFormer::Config{smr::FormationPolicy::kOblivious, w_.batch_size, 0, 0,
                                         {}, nullptr}),
        window_(seconds) {
    bitmap_.bits = kBitmapBits;
    bitmap_.split_read_write = w_.split_rw;
  }

  int run(const std::string& commit);

  // ---- callbacks from the stack (delivery thread / worker threads) ----

  void on_delivered(Stack& stack, smr::BatchPtr batch) {
    Slot& s = slot_of(batch->commands().front().client_id);
    std::int64_t t_in = 0;
    std::uint64_t ckpts = 0;
    if (trace_) {
      t_in = now();
      const CountingBroadcast* cb = stack.counting();
      s.t_order.store(cb != nullptr ? cb->decided_at() : t_in,
                      std::memory_order_relaxed);
      s.t_deliver_in.store(t_in, std::memory_order_relaxed);
      ckpts = stack.checkpoints_taken();
    }
    delivered_order_.push(s.batch);
    if (!stack.replica().deliver(std::move(batch))) deliver_rejected_.fetch_add(1);
    if (trace_) {
      const std::int64_t t_out = now();
      s.t_deliver_out.store(t_out, std::memory_order_release);
      if (stack.checkpoints_taken() != ckpts) checkpoint_pause_ms_.add(1e-6 * double(t_out - t_in));
    }
  }

  void on_response(const smr::Response& r) {
    const std::uint64_t c = r.client_id - 1;
    const std::size_t idx = c / w_.batch_size;
    Slot& s = slots_[idx];
    std::uint64_t prev = s.round - 1;
    if (r.sequence != s.round ||
        !answered_[c].compare_exchange_strong(prev, s.round, std::memory_order_acq_rel)) {
      stray_replies_.fetch_add(1);  // duplicate, stale, or a reply nobody waits for
    }
    if (r.status != smr::Status::kOk) replies_not_ok_.fetch_add(1);
    // One worker runs the whole batch, so the slot's sum is uncontended.
    s.replies.fetch_add(reply_mix(s.batch, c % w_.batch_size, r.status, r.value),
                        std::memory_order_relaxed);
    if (s.remaining.fetch_sub(1, std::memory_order_acq_rel) == 1) {
      s.t_done.store(now(), std::memory_order_relaxed);
      completions_.push(static_cast<std::uint32_t>(idx));
    }
  }

  Slot* slots() { return slots_.get(); }
  const Workload& workload() const { return w_; }
  const smr::BitmapConfig& bitmap() const { return bitmap_; }

 private:
  Slot& slot_of(std::uint64_t client_id) { return slots_[(client_id - 1) / w_.batch_size]; }

  void issue(std::uint32_t idx, std::int64_t t_start);
  void finish(std::uint32_t idx);
  void retire_trace(Slot& s);
  void drive_closed();
  void drive_open();
  void take_completions(std::int64_t deadline);
  bool crossed_window(std::int64_t t);
  bool verify(std::uint64_t live_digest, std::string& why) const;

  Workload w_;
  std::uint64_t seed_;
  bool trace_;
  CommandSource source_;
  smr::BitmapConfig bitmap_;
  std::unique_ptr<Slot[]> slots_;
  std::unique_ptr<std::atomic<std::uint64_t>[]> answered_;
  Completions completions_;
  smr::BatchFormer former_;
  std::vector<smr::Batch> formed_;
  std::vector<std::uint32_t> ready_;
  std::unique_ptr<Stack> stack_;

  // Generator-thread state.
  std::uint64_t next_batch_ = 0;
  std::uint64_t issued_cmds_ = 0;
  std::uint64_t answered_cmds_ = 0;
  std::uint64_t reply_fold_ = 0;  // sum of every answered batch's Slot::replies
  std::int64_t warm_end_ = 0;
  Window window_;
  Counters c0_, c1_;  // at the window's start and end
  StealClock steal0_, steal1_;
  std::int64_t full_wait_ns_ = 0;  // closed loop: waiting with every slot out

  // Traced-run accumulators (generator thread unless noted).
  Mean stage_[kNumStages];
  Mean e2e_us_;
  Mean bcast_call_us_;
  Mean exec_cmd_ns_;
  double exec_span_ns_ = 0.0;
  Mean checkpoint_pause_ms_;  // delivery thread; read after stop

  // Delivery-thread state: the delivered order, for the sequential replay.
  DeliveredOrder delivered_order_{kMaxDeliveredRuns};

  std::atomic<std::uint64_t> stray_replies_{0};
  std::atomic<std::uint64_t> replies_not_ok_{0};
  std::atomic<std::uint64_t> deliver_rejected_{0};
};

Stack::Stack(Bench& bench, const Workload& w, const CommandSource& source, std::uint64_t seed,
             bool trace) {
  source.preload(store_);
  smr::Service* service = &kv_service_;
  if (trace) {
    timed_ = std::make_unique<TimedService>(kv_service_, bench.slots(), w.batch_size);
    service = timed_.get();
  }
  smr::Replica::Config rc;
  rc.scheduler.workers = kWorkers;
  rc.scheduler.mode = core::ConflictMode::kBitmap;
  rc.scheduler.max_pending_batches = kMaxPendingBatches;
  rc.checkpoint_interval = w.checkpoint_interval;
  if (w.checkpoint_interval != 0) {
    rc.checkpoint_state = [this] {
      const std::int64_t t0 = now();
      auto bytes = store_.serialize();
      capture_ms.add(1e-6 * double(now() - t0));
      return bytes;
    };
  }
  replica_ = std::make_unique<smr::Replica>(
      std::move(rc), *service, [&bench](const smr::Response& r) { bench.on_response(r); });
  checkpoints_ = replica_->checkpoints();
  if (w.paxos) {
    consensus::GroupConfig gc;
    gc.acceptors = 3;
    gc.proposers = 1;
    gc.seed = seed;
    gc.max_unacked_broadcasts = kMaxPendingBatches;
    group_ = std::make_unique<consensus::PaxosGroup>(gc);
    counting_ = std::make_unique<CountingBroadcast>(*group_);
    adapter_ = std::make_unique<smr::ConsensusAdapter>(*counting_, bench.bitmap());
    adapter_->subscribe_replica(
        [this, &bench](smr::BatchPtr b) { bench.on_delivered(*this, std::move(b)); });
    if (checkpoints_ != nullptr) {
      // Deployment wiring: each checkpoint lets the decided log be truncated.
      checkpoints_->set_on_checkpoint([this](const smr::CheckpointPtr& record) {
        group_->truncate_log_below(record->log_horizon);
      });
    }
  } else {
    local_.subscribe([this, &bench](smr::BatchPtr b) { bench.on_delivered(*this, std::move(b)); });
  }
  replica_->start();
  if (group_ != nullptr) group_->start();
}

Counters Stack::counters() const {
  Counters c;
  const obs::Snapshot s = replica_->stats();
  c.batches_delivered = s.counter("scheduler.batches_delivered");
  c.pair_tests = s.counter("scheduler.insert.pair_tests");
  c.conflicts = s.counter("scheduler.insert.conflicts_found");
  c.batches_failed = s.counter("scheduler.batches_failed");
  c.graph_size_avg = s.gauge("graph.size_at_insert.avg");
  c.checkpoints = s.counter("checkpoint.taken");
  c.checkpoint_bytes = s.counter("checkpoint.bytes_total");
  if (group_ != nullptr) {
    c.net_messages = group_->network().messages_delivered();
    c.payload_bytes = counting_->payload_bytes();
    c.backpressure_waits = group_->stats().counter("consensus.backpressure_waits");
  }
  return c;
}

void Bench::issue(std::uint32_t idx, std::int64_t t_start) {
  Slot& s = slots_[idx];
  if (s.trace_pending) retire_trace(s);
  const std::uint64_t g = next_batch_++;
  s.batch = g;
  s.round += 1;
  s.busy = true;
  s.t_start = t_start;
  if (trace_) {
    for (auto* a : {&s.t_order, &s.t_deliver_in, &s.t_deliver_out, &s.t_exec_first,
                    &s.t_exec_last, &s.exec_ns}) {
      a->store(0, std::memory_order_relaxed);
    }
    s.t_form = now();
  }
  s.remaining.store(static_cast<std::uint32_t>(w_.batch_size), std::memory_order_relaxed);
  s.replies.store(0, std::memory_order_relaxed);
  const std::uint64_t first_client = std::uint64_t{idx} * w_.batch_size + 1;
  source_.for_each(g, [&](std::size_t i, smr::Command c) {
    c.client_id = first_client + i;
    c.sequence = s.round;
    former_.offer(c, formed_);
  });
  former_.drain(formed_);
  PSMR_CHECK(formed_.size() == 1);
  formed_.front().build_bitmap(bitmap_);
  auto batch = std::make_unique<smr::Batch>(std::move(formed_.front()));
  formed_.clear();
  if (trace_) s.t_formed = now();
  stack_->broadcast(std::move(batch));
  if (trace_) s.t_bcast_ret = now();
  issued_cmds_ += w_.batch_size;
}

void Bench::finish(std::uint32_t idx) {
  Slot& s = slots_[idx];
  s.busy = false;
  answered_cmds_ += w_.batch_size;
  reply_fold_ += s.replies.load(std::memory_order_relaxed);
  const std::int64_t done = s.t_done.load(std::memory_order_relaxed);
  window_.add(done, 1e-3 * double(done - s.t_start), w_.batch_size);
  // The delivery thread may still be inside Replica::deliver (a checkpoint
  // drains this batch before capturing), so the trace is read when the slot
  // is reused or at the end of the run.
  s.trace_pending = trace_;
}

void Bench::retire_trace(Slot& s) {
  s.trace_pending = false;
  std::int64_t d_out;
  while ((d_out = s.t_deliver_out.load(std::memory_order_acquire)) == 0) std::this_thread::yield();
  const std::int64_t done = s.t_done.load(std::memory_order_relaxed);
  if (window_.sub_of(done) < 0) return;
  const std::int64_t order = s.t_order.load(std::memory_order_relaxed);
  const std::int64_t d_in = s.t_deliver_in.load(std::memory_order_relaxed);
  const std::int64_t x0 = s.t_exec_first.load(std::memory_order_relaxed);
  const std::int64_t x1 = s.t_exec_last.load(std::memory_order_relaxed);
  const std::int64_t d_end = std::min(d_out, x0);
  const std::int64_t cut[kNumStages + 1] = {s.t_start, s.t_form, s.t_formed, order, d_in,
                                            d_end,     x0,       x1,         done};
  for (int i = 0; i < kNumStages; ++i) stage_[i].add(1e-3 * double(cut[i + 1] - cut[i]));
  e2e_us_.add(1e-3 * double(done - s.t_start));
  bcast_call_us_.add(1e-3 * double(s.t_bcast_ret - s.t_formed));
  exec_cmd_ns_.sum += double(s.exec_ns.load(std::memory_order_relaxed));
  exec_cmd_ns_.n += w_.batch_size;
  exec_span_ns_ += double(x1 - x0);
}

void Bench::take_completions(std::int64_t deadline) {
  completions_.take(ready_, deadline);
  for (std::uint32_t idx : ready_) finish(idx);
  ready_.clear();
}

/// Opens the window after the warm-up, records its sub-window boundaries and
/// returns true once it has closed.
bool Bench::crossed_window(std::int64_t t) {
  if (!window_.opened() && t >= warm_end_) {
    c0_ = stack_->counters();
    steal0_ = StealClock::read();
    window_.open(now());
  }
  window_.tick(t);
  if (window_.opened() && t >= window_.end()) {
    c1_ = stack_->counters();
    steal1_ = StealClock::read();
    return true;
  }
  return false;
}

/// Each slot's clients send their next commands the moment the previous
/// batch is answered: that reply is the next batch's hand-off time, so the
/// time it waits for the generator to form it counts as latency.
void Bench::drive_closed() {
  for (std::uint32_t i = 0; i < w_.slots; ++i) issue(i, now());
  while (true) {
    const std::int64_t t = now();
    if (crossed_window(t)) break;
    completions_.take(ready_, window_.opened() ? window_.next_boundary() : warm_end_);
    if (window_.opened()) full_wait_ns_ += now() - t;  // every slot was outstanding
    for (std::uint32_t idx : ready_) {
      finish(idx);
      issue(idx, slots_[idx].t_done.load(std::memory_order_relaxed));
    }
    ready_.clear();
  }
}

void Bench::drive_open() {
  const double period_ns = 1e9 / w_.batches_per_s;
  const std::int64_t t0 = now();
  for (std::uint64_t i = 0;; ++i) {
    const std::int64_t due = t0 + static_cast<std::int64_t>(double(i) * period_ns);
    while (now() < due) take_completions(due);
    if (crossed_window(now())) break;
    const auto idx = static_cast<std::uint32_t>(i % w_.slots);
    while (slots_[idx].busy) take_completions(0);
    issue(idx, due);
  }
}

bool Bench::verify(std::uint64_t live_digest, std::string& why) const {
  if (stray_replies_.load() != 0) {
    why = std::to_string(stray_replies_.load()) + " duplicate, stale or unexpected replies";
    return false;
  }
  if (deliver_rejected_.load() != 0) {
    why = "Replica::deliver rejected " + std::to_string(deliver_rejected_.load()) + " batches";
    return false;
  }
  if (answered_cmds_ != issued_cmds_) {
    why = "answered " + std::to_string(answered_cmds_) + " of " + std::to_string(issued_cmds_);
    return false;
  }
  for (std::size_t c = 0; c < w_.slots * w_.batch_size; ++c) {
    if (answered_[c].load() != slots_[c / w_.batch_size].round) {
      why = "client " + std::to_string(c + 1) + " has an unanswered command";
      return false;
    }
  }
  if (delivered_order_.overflowed()) {
    why = "delivered order out of issue order more than " + std::to_string(kMaxDeliveredRuns) +
          " times: the store overflowed";
    return false;
  }
  std::vector<bool> seen(next_batch_, false);
  std::uint64_t delivered = 0;
  bool once = true;
  delivered_order_.for_each([&](std::uint64_t g) {
    once = once && g < next_batch_ && !seen[g];
    if (g < next_batch_) seen[g] = true;
    ++delivered;
  });
  if (!once || delivered != next_batch_) {
    why = "delivered " + std::to_string(delivered) + " batches for " +
          std::to_string(next_batch_) + " issued, not each exactly once";
    return false;
  }
  // Sequential replay of the delivered order on a fresh store: the final
  // state and every reply (read values included) must match it.
  kv::KvStore replay;
  source_.preload(replay);
  std::uint64_t fold = 0;
  delivered_order_.for_each([&](std::uint64_t g) {
    source_.for_each(g, [&](std::size_t i, const smr::Command& c) {
      smr::Value v = 0;
      const smr::Status st = c.is_write() ? replay.update(c.key, c.value) : replay.read(c.key, v);
      fold += reply_mix(g, i, st, v);
    });
  });
  if (replay.digest() != live_digest) {
    why = "final store digest differs from the sequential replay of the delivered order";
    return false;
  }
  if (fold != reply_fold_) {
    why = "replies differ from those of the sequential replay of the delivered order";
    return false;
  }
  return true;
}

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

void print_result(bool correct, std::uint64_t attempted, std::uint64_t failed,
                  const std::vector<Metric>& metrics) {
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, \"metrics\": {",
              correct ? "true" : "false", static_cast<unsigned long long>(attempted),
              static_cast<unsigned long long>(failed));
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    std::printf("%s\"%s\": {\"value\": %.12g, \"unit\": \"%s\"}", i == 0 ? "" : ", ",
                metrics[i].name.c_str(), metrics[i].value, metrics[i].unit.c_str());
  }
  std::printf("}}\n");
}

int Bench::run(const std::string& commit) {
  const double wake = wake_p99_us();
  std::printf("host: {\"nproc\": %ld, \"cpu\": \"%s\", \"build_type\": \"%s\", "
              "\"commit\": \"%s\", \"wake_p99_us\": %.1f}\n",
              sysconf(_SC_NPROCESSORS_ONLN), cpu_model().c_str(), PERFBENCH_BUILD_TYPE,
              commit.c_str(), wake);

  // Set-up: store preload, replica (+ group) construction, thread start.
  // Repeated, keeping the last; the fastest is reported.
  std::vector<double> setup;
  double setup_total = 0.0;
  while (setup.size() < static_cast<std::size_t>(kMinSetups) ||
         (setup_total < kMinSetupSeconds && setup.size() < static_cast<std::size_t>(kMaxSetups))) {
    stack_.reset();
    const std::int64_t t0 = now();
    stack_ = std::make_unique<Stack>(*this, w_, source_, seed_, trace_);
    setup.push_back(1e-9 * double(now() - t0));
    setup_total += setup.back();
  }
  warm_end_ = now() + static_cast<std::int64_t>(kWarmupSeconds * 1e9);
  if (w_.open_loop()) {
    drive_open();
  } else {
    drive_closed();
  }
  // Drain: every issued command must be answered.
  while (std::any_of(slots_.get(), slots_.get() + w_.slots, [](const Slot& s) { return s.busy; })) {
    take_completions(0);
  }
  stack_->replica().wait_idle();
  const double rss_mb = peak_rss_mb();
  stack_->stop();  // joins the delivery thread: its accumulators are final
  const std::uint64_t live_digest = stack_->store().digest();
  const Mean capture_ms = stack_->capture_ms;
  for (std::size_t i = 0; i < w_.slots; ++i) {
    if (slots_[i].trace_pending) retire_trace(slots_[i]);
  }
  stack_.reset();

  std::string why;
  const bool correct = verify(live_digest, why);
  if (!correct) std::printf("correctness gate FAILED: %s\n", why.c_str());

  const double window_s = window_.seconds();
  // Open loop: the achieved rate over the whole window (the offered rate
  // unless the system fell behind). Closed loop: the capacity the run's
  // least-disturbed sub-windows show.
  const double throughput = w_.open_loop() ? window_.throughput_pooled_kcmds()
                                           : window_.throughput_kcmds(1.0 - kBestShare);
  const double p50 = window_.latency_us(0.50, kBestShare);
  const double p99 = window_.latency_us(0.99, kBestShare);
  const double cpu_per_cmd = window_.cpu_us_per_cmd();
  const std::uint64_t not_ok = replies_not_ok_.load();
  const double answered_frac = double(answered_cmds_ - not_ok) / double(issued_cmds_);
  const double setup_s = *std::min_element(setup.begin(), setup.end());
  // Sample counts, and the medians and pooled whole-window values beside the
  // reported values.
  std::printf("window: %.3f s in %ld sub-windows, %zu batch latency samples in %zu groups "
              "(%llu beyond the store), host steal share %.4f, delivered order in %zu runs\n",
              window_s, window_.count(), window_.samples(), window_.latency_groups(),
              static_cast<unsigned long long>(window_.dropped()), steal1_.share_since(steal0_),
              delivered_order_.runs());
  std::printf("setup: %zu set-ups, min %.4f s, median %.4f s, max %.4f s\n", setup.size(),
              setup_s, median(setup),
              *std::max_element(setup.begin(), setup.end()));
  std::printf("median: throughput %.3f kcmd/s, p50 %.2f us, p99 %.2f us (over sub-windows "
              "and groups)\n",
              window_.throughput_kcmds(0.5), window_.latency_us(0.5, 0.5),
              window_.latency_us(0.99, 0.5));
  std::printf("pooled: throughput %.3f kcmd/s, p50 %.2f us, p99 %.2f us, cpu %.4f us/cmd\n",
              window_.throughput_pooled_kcmds(), window_.latency_us_pooled(0.5),
              window_.latency_us_pooled(0.99),
              1e6 * window_.cpu_seconds_total() / double(window_.commands()));

  std::vector<Metric> m;
  double gap = 0.0;
  if (!trace_) {
    m = {{"throughput_kcmds", throughput, "kcmd/s"},
         {"latency_p50_us", p50, "us"},
         {"cpu_us_per_cmd", cpu_per_cmd, "us"},
         {"answered_frac", answered_frac, "frac"},
         {"peak_rss_mb", rss_mb, "MB"},
         {"setup_s", setup_s, "s"}};
  } else {
    const double decided = double(c1_.batches_delivered - c0_.batches_delivered);
    const auto per = [](double num, double den) { return den > 0 ? num / den : 0.0; };
    const std::uint64_t ckpts = c1_.checkpoints;
    double stage_sum = 0.0;
    int top = 0;
    std::printf("stage table (mean per batch, %llu traced batches):\n",
                static_cast<unsigned long long>(e2e_us_.n));
    for (int i = 0; i < kNumStages; ++i) {
      stage_sum += stage_[i].value();
      if (stage_[i].value() > stage_[top].value()) top = i;
      std::printf("  %-24s %12.2f us  %5.1f%%\n", kStageMetric[i], stage_[i].value(),
                  100.0 * per(stage_[i].value(), e2e_us_.value()));
    }
    gap = per(std::abs(stage_sum - e2e_us_.value()), e2e_us_.value());
    std::printf("  %-24s %12.2f us  (end-to-end mean %.2f us, gap %.4f, tolerance %.2f)\n",
                "sum of stages", stage_sum, e2e_us_.value(), gap, kStageSumTolerance);
    std::printf("bottleneck: %s (%.1f%% of mean batch latency) on %s\n", kStageMetric[top],
                100.0 * per(stage_[top].value(), e2e_us_.value()), w_.name.c_str());
    for (int i = 0; i < kNumStages; ++i) m.push_back({kStageMetric[i], stage_[i].value(), "us"});
    m.push_back({"smr.broadcast_call_us", bcast_call_us_.value(), "us"});
    m.push_back({"consensus.msgs_per_batch",
                 per(double(c1_.net_messages - c0_.net_messages), decided), "msgs"});
    m.push_back({"consensus.payload_bytes_per_batch",
                 per(double(c1_.payload_bytes - c0_.payload_bytes), decided), "bytes"});
    m.push_back({"consensus.backpressure_waits",
                 double(c1_.backpressure_waits - c0_.backpressure_waits), "count"});
    m.push_back({"core.graph_size_avg", c1_.graph_size_avg, "batches"});
    m.push_back({"core.conflicts_per_insert", per(double(c1_.conflicts - c0_.conflicts), decided),
                 "edges"});
    m.push_back({"core.pair_tests_per_insert",
                 per(double(c1_.pair_tests - c0_.pair_tests), decided), "tests"});
    m.push_back({"core.worker_busy_frac", per(exec_span_ns_, kWorkers * 1e9 * window_s), "frac"});
    m.push_back({"core.batches_failed", double(c1_.batches_failed), "count"});
    m.push_back({"kvstore.execute_ns", exec_cmd_ns_.value(), "ns"});
    m.push_back({"smr.checkpoint_capture_ms", capture_ms.value(), "ms"});
    m.push_back({"smr.checkpoint_pause_ms", checkpoint_pause_ms_.value(), "ms"});
    m.push_back({"smr.checkpoint_bytes", per(double(c1_.checkpoint_bytes), double(ckpts)),
                 "bytes"});
    m.push_back({"smr.replies_not_ok", double(not_ok), "count"});
    m.push_back({"load.window_full_frac", per(1e-9 * double(full_wait_ns_), window_s), "frac"});
    m.push_back({"host.wake_p99_us", wake, "us"});
    m.push_back({"trace.throughput_kcmds", throughput, "kcmd/s"});
    m.push_back({"trace.latency_p50_us", p50, "us"});
    m.push_back({"latency_p99_us", p99, "us"});
    m.push_back({"trace.latency_mean_us", e2e_us_.value(), "us"});
    m.push_back({"trace.stage_sum_gap_frac", gap, "frac"});
  }
  const bool sums_ok = gap <= kStageSumTolerance;
  if (!sums_ok) std::printf("stage self times do not add up to the end-to-end latency\n");
  print_result(correct && sums_ok, issued_cmds_, issued_cmds_ - (answered_cmds_ - not_ok), m);
  std::fflush(stdout);
  return correct && sums_ok ? 0 : 1;
}

int usage() {
  std::fprintf(stderr,
               "usage: perfbench --workload local-uniform|local-zipf-rw|paxos-ckpt --seed N "
               "--seconds S --trace 0|1 [--commit ID]\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  std::string workload, commit = "unknown";
  std::uint64_t seed = 1;
  double seconds = 10.0;
  int trace = 0;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i], val = argv[i + 1];
    if (flag == "--workload") {
      workload = val;
    } else if (flag == "--seed") {
      seed = std::strtoull(val.c_str(), nullptr, 10);
    } else if (flag == "--seconds") {
      seconds = std::strtod(val.c_str(), nullptr);
    } else if (flag == "--trace") {
      trace = std::atoi(val.c_str());
    } else if (flag == "--commit") {
      commit = val;
    } else {
      return usage();
    }
  }
  auto w = workload_named(workload);
  if (!w || seconds <= 0.0 || (trace != 0 && trace != 1)) return usage();
  Bench bench(*std::move(w), seed, seconds, trace == 1);
  return bench.run(commit);
}
