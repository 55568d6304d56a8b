// Library-wide tracing and metrics layer.
//
// Every Implementation owns one TraceRecorder. The recorder has three
// progressively more expensive levels:
//
//   counters  - always on: relaxed atomic adds, one per operation batch.
//   timing    - opt-in (bglResetTimeline / bglSetStatsFile / BGL_STATS):
//               spans stamp a monotonic clock and feed per-category
//               duration histograms.
//   events    - opt-in (bglSetTraceFile / BGL_TRACE): spans are also
//               retained as a timeline and exported as Chrome trace-event
//               JSON (about:tracing / Perfetto).
//
// When neither timing nor events is enabled a ScopedSpan is a single
// relaxed atomic load, so instrumentation can stay in release builds.
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <mutex>
#include <string>
#include <vector>

namespace bgl::obs {

namespace detail {
/// Master instrumentation switch (see enabled() below).
inline std::atomic<bool> g_obsEnabled{true};
}  // namespace detail

/// Process-wide master switch over the always-on instrumentation (counters,
/// gauges, journal appends). On by default; turning it off exists solely so
/// bench_obs_overhead can measure the cost of the always-on layer against a
/// faithful stand-in for compiling it out — one relaxed load replaces each
/// counter add. Not part of the public C API on purpose.
inline bool enabled() {
  return detail::g_obsEnabled.load(std::memory_order_relaxed);
}
void setEnabled(bool on);

/// Per-instance operation counters (always on).
enum class Counter : int {
  kPartialsOperations = 0,  ///< partial-likelihoods operations executed
  kTransitionMatrices,      ///< transition matrices computed
  kRootEvaluations,         ///< root-likelihood subsets integrated
  kEdgeEvaluations,         ///< edge-likelihood subsets integrated
  kRescaleEvents,           ///< per-operation rescale passes
  kScaleAccumulations,      ///< scale buffers accumulated into / removed from
  kKernelLaunches,          ///< device kernel launches (accelerator instances)
  kBytesIn,                 ///< bytes staged into the instance (host->device)
  kBytesOut,                ///< bytes read back out (device->host)
  kStreamedLaunches,        ///< launches enqueued on an async command stream
  kCount
};
const char* counterName(Counter c);

/// Span categories. The first four mirror the public API entry points and
/// define the CPU timeline's time base; the rest are nested detail.
enum class Category : int {
  kUpdatePartials = 0,
  kUpdateTransitionMatrices,
  kRootLogLikelihoods,
  kEdgeLogLikelihoods,
  kOperation,  ///< one partials operation (nested in kUpdatePartials)
  kRescale,    ///< rescale pass after an operation
  kScaling,    ///< scale-factor accumulate / remove / reset
  kKernel,     ///< device kernel execution (simulated runtimes)
  kMemcpy,     ///< host<->device transfer (simulated runtimes)
  kWorker,     ///< one CPU pattern slab or futures operation
  kStreamFlush,///< waiting for an async command stream to drain
  kEnqueue,    ///< API-thread enqueue of a streamed launch (flow start)
  kStreamSync, ///< cross-stream event signal/wait (multi-stream devices)
  kCount
};
const char* categoryName(Category c);

/// Instantaneous gauges (always on, like counters). setGauge overwrites
/// the level and tracks the high-water mark separately.
enum class Gauge : int {
  kPendingDepth = 0,  ///< command-stream records enqueued but not retired,
                      ///< sampled at enqueue time
  kInFlight,          ///< records the stream worker holds right now
  kCount
};
const char* gaugeName(Gauge g);

/// True for the API-level categories that make up the CPU timeline.
bool isTimelineCategory(Category c);

/// Log2-bucketed duration histogram (bucket i covers [2^i, 2^(i+1)) ns).
struct DurationHistogram {
  static constexpr int kBuckets = 40;
  std::uint64_t count = 0;
  std::uint64_t totalNs = 0;
  std::uint64_t minNs = 0;
  std::uint64_t maxNs = 0;
  std::uint64_t buckets[kBuckets] = {};

  void record(std::uint64_t ns);

  /// Merge another histogram into this one (process-wide aggregation).
  void merge(const DurationHistogram& other);
};

/// Estimated duration (ns) at quantile `q` in [0, 1], by linear
/// interpolation inside the log2 bucket the target rank falls in. Bucket 0
/// spans [0, 2) ns; bucket i >= 1 spans [2^i, 2^(i+1)) ns. The result is
/// clamped to [minNs, maxNs] so boundary quantiles are exact. Returns 0 for
/// an empty histogram. See docs/OBSERVABILITY.md for the derivation.
double histogramQuantile(const DurationHistogram& h, double q);

/// One retained span. Device/framework/stream/bytes/groups are only set on
/// kernel-launch and memcpy events emitted by the simulated runtimes.
struct TraceEvent {
  Category category = Category::kOperation;
  std::string name;
  std::uint64_t beginNs = 0;
  std::uint64_t durNs = 0;
  int tid = 0;             ///< 0 = API thread, >0 = worker lane
  int stream = -1;         ///< device stream (-1 = not a device event)
  std::uint64_t bytes = 0;
  std::uint64_t groups = 0;
  std::string device;
  std::string framework;

  // Causal stream tracing: a nonzero flowId ties an API-thread enqueue span
  // (flowPhase 1, Chrome "s") to the worker-thread execution span it caused
  // (flowPhase 2, Chrome "f"). queuedNs is the enqueue-to-execute latency,
  // exported as an arg on the execution span.
  std::uint64_t flowId = 0;
  int flowPhase = 0;  ///< 0 = none, 1 = flow start, 2 = flow finish
  std::uint64_t queuedNs = 0;
};

/// Process-unique flow id for tying an enqueue span to its execution span.
std::uint64_t nextFlowId();

class TraceRecorder {
 public:
  /// Retained-event cap; beyond it spans still feed histograms but are
  /// dropped from the timeline (droppedEvents() reports how many).
  static constexpr std::size_t kMaxEvents = 1u << 20;

  TraceRecorder() : epoch_(std::chrono::steady_clock::now()) {}

  // ---- modes ----
  void enableTiming() { mode_.fetch_or(kTimingBit, std::memory_order_relaxed); }
  void enableEvents() {
    mode_.fetch_or(kTimingBit | kEventsBit, std::memory_order_relaxed);
  }
  bool timingEnabled() const {
    return (mode_.load(std::memory_order_relaxed) & kTimingBit) != 0;
  }
  bool eventsEnabled() const {
    return (mode_.load(std::memory_order_relaxed) & kEventsBit) != 0;
  }

  // ---- counters ----
  void count(Counter c, std::uint64_t n = 1) {
    if (!enabled()) return;
    counters_[static_cast<int>(c)].fetch_add(n, std::memory_order_relaxed);
  }
  std::uint64_t counter(Counter c) const {
    return counters_[static_cast<int>(c)].load(std::memory_order_relaxed);
  }

  // ---- gauges ----
  void setGauge(Gauge g, std::uint64_t v) {
    if (!enabled()) return;
    const int i = static_cast<int>(g);
    gauges_[i].store(v, std::memory_order_relaxed);
    std::uint64_t prev = gaugeMax_[i].load(std::memory_order_relaxed);
    while (prev < v && !gaugeMax_[i].compare_exchange_weak(
                           prev, v, std::memory_order_relaxed)) {
    }
  }
  std::uint64_t gauge(Gauge g) const {
    return gauges_[static_cast<int>(g)].load(std::memory_order_relaxed);
  }
  std::uint64_t gaugeMax(Gauge g) const {
    return gaugeMax_[static_cast<int>(g)].load(std::memory_order_relaxed);
  }

  /// Zero counters, histograms and the retained timeline (modes persist).
  void reset();

  // ---- clock ----
  std::uint64_t nowNs() const {
    return sinceEpochNs(std::chrono::steady_clock::now());
  }
  std::uint64_t sinceEpochNs(std::chrono::steady_clock::time_point t) const {
    return static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(t - epoch_).count());
  }

  // ---- spans ----
  /// Record a completed span (histogram always, timeline when events on).
  void recordSpan(Category cat, const char* name, std::uint64_t beginNs,
                  std::uint64_t endNs, int tid = 0);
  /// Record a fully described event (device kernel / memcpy spans).
  void recordEvent(TraceEvent ev);

  std::uint64_t categoryCount(Category cat) const;
  double categorySeconds(Category cat) const;
  /// Sum of seconds over the API-level timeline categories.
  double timelineSeconds() const;
  DurationHistogram histogram(Category cat) const;

  // ---- retained timeline ----
  std::size_t eventCount() const;
  std::uint64_t droppedEvents() const;
  std::vector<TraceEvent> events() const;

 private:
  static constexpr unsigned kTimingBit = 1u;
  static constexpr unsigned kEventsBit = 2u;

  std::atomic<unsigned> mode_{0};
  std::atomic<std::uint64_t> counters_[static_cast<int>(Counter::kCount)] = {};
  std::atomic<std::uint64_t> gauges_[static_cast<int>(Gauge::kCount)] = {};
  std::atomic<std::uint64_t> gaugeMax_[static_cast<int>(Gauge::kCount)] = {};
  std::chrono::steady_clock::time_point epoch_;

  mutable std::mutex mutex_;
  DurationHistogram hist_[static_cast<int>(Category::kCount)];
  std::vector<TraceEvent> events_;
  std::uint64_t dropped_ = 0;
};

/// RAII span. Construction and destruction are no-ops (one relaxed atomic
/// load) unless timing is enabled on the recorder.
class ScopedSpan {
 public:
  ScopedSpan(TraceRecorder& recorder, Category cat, const char* name, int tid = 0)
      : recorder_(recorder),
        cat_(cat),
        name_(name),
        tid_(tid),
        active_(recorder.timingEnabled()) {
    if (active_) beginNs_ = recorder_.nowNs();
  }
  ~ScopedSpan() {
    if (active_) recorder_.recordSpan(cat_, name_, beginNs_, recorder_.nowNs(), tid_);
  }

  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  TraceRecorder& recorder_;
  Category cat_;
  const char* name_;
  int tid_;
  bool active_;
  std::uint64_t beginNs_ = 0;
};

}  // namespace bgl::obs
