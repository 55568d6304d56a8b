// Shared pieces of the end-to-end benchmark (bench_e2e): run settings, the
// per-run report, timing statistics, and the traced window that reads the
// library's process-wide telemetry.
//
// Every number is taken from outside the library: the benchmark times its
// own calls into each layer's public functions and reads the public
// telemetry (bglGetProcessStatistics, bglGetTimeline, bglGetStatistics,
// bglPoolGetStatistics, the metrics stream of bglSetMetricsFile and the
// PartitionedLikelihood / Mc3Result accessors).
#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "api/bgl.h"
#include "core/rng.h"

namespace bgl::e2e {

using Clock = std::chrono::steady_clock;

inline double secondsBetween(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

/// Linear-interpolation quantile (q in [0, 1]); 0 for an empty sample.
double quantile(std::vector<double> values, double q);
inline double median(std::vector<double> values) {
  return quantile(std::move(values), 0.5);
}

/// Median over five batches of the per-call microseconds of `fn`. `fn`
/// must pass what it computes to keep() so the call is not optimized away.
template <typename F>
double medianCallMicros(F&& fn, int callsPerBatch = 200) {
  std::vector<double> perCall;
  for (int b = 0; b < 5; ++b) {
    const auto t0 = Clock::now();
    for (int i = 0; i < callsPerBatch; ++i) fn();
    perCall.push_back(secondsBetween(t0, Clock::now()) * 1e6 / callsPerBatch);
  }
  return median(std::move(perCall));
}
inline void keep(const void* p) { asm volatile("" : : "g"(p) : "memory"); }

/// Units completed per second: the median over consecutive groups of
/// `groupSize` completions (sorted completion times, each worth
/// `unitsPerEntry` units) of group size over group duration. A median of
/// short windows keeps one stall by a neighbouring process from moving the
/// rate the way a whole-window mean would.
double medianRate(std::vector<Clock::time_point> done, Clock::time_point start,
                  std::size_t groupSize, double unitsPerEntry = 1.0);

/// Settings of one run. `seconds` is the timed budget; set-up, warm-up and
/// the output checks come on top of it.
struct RunConfig {
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool traced = false;
  /// Set-ups timed for setup_s. The first builds what the run uses; the
  /// rest run after the output checks, so the instances they create and
  /// free do not shape the run's memory.
  int setupReps = 9;
  int warmupDivisor = 1;   ///< smoke runs shrink the warm-up
  std::string outDir = ".";///< where the traced window writes its snapshots

  /// A traced run first measures untraced (the overhead baseline), then
  /// traced; an untraced run spends the whole budget untraced.
  double untracedSeconds() const { return traced ? 0.3 * seconds : seconds; }
  double tracedSeconds() const { return 0.7 * seconds; }
};

struct Metric {
  double value = 0.0;
  std::string unit;
  std::string clock;  ///< "measured" (host wall clock) or "modeled" (roofline)
};

/// What one run reports: metrics, output checks, attempted/failed counts and
/// the fixed input sizes that go into the provenance stamp.
class Report {
 public:
  /// Traced runs start with every per-layer metric at zero, so a layer a
  /// workload bypasses reads 0 rather than going missing.
  explicit Report(bool traced);

  void set(const std::string& name, double value, const std::string& unit,
           const std::string& clock = "measured");
  void check(const std::string& name, bool ok, const std::string& detail);
  void work(const std::string& key, double value) { work_[key] = value; }
  void note(const std::string& key, const std::string& value) { notes_[key] = value; }

  long attempted = 0;
  long failed = 0;

  bool correct() const;
  const std::map<std::string, Metric>& metrics() const { return metrics_; }
  struct Check {
    std::string name;
    bool ok;
    std::string detail;
  };
  const std::vector<Check>& checks() const { return checks_; }
  const std::map<std::string, double>& workSize() const { return work_; }
  const std::map<std::string, std::string>& notes() const { return notes_; }

 private:
  std::map<std::string, Metric> metrics_;
  std::vector<Check> checks_;
  std::map<std::string, double> work_;
  std::map<std::string, std::string> notes_;
};

/// Latency and completion record of one timed window.
struct Window {
  Clock::time_point start;
  Clock::time_point end;
  std::vector<double> latencyMs;         ///< one per unit
  std::vector<Clock::time_point> done;   ///< completion time per entry
  double units = 0;                      ///< units completed
  double wallSeconds() const { return secondsBetween(start, end); }
};

/// Closed loop: run `unit` back to back until `seconds` have passed (at
/// least once). `unit` returns its own latency in seconds, so input
/// generation it does first stays out of the sample.
template <typename F>
Window runFor(double seconds, F&& unit) {
  Window w;
  w.start = Clock::now();
  const auto deadline =
      w.start + std::chrono::duration_cast<Clock::duration>(
                    std::chrono::duration<double>(seconds));
  do {
    w.latencyMs.push_back(unit() * 1e3);
    w.done.push_back(Clock::now());
    w.units += 1;
  } while (Clock::now() < deadline);
  w.end = Clock::now();
  return w;
}

/// Sum of a window's unit latencies, in seconds.
inline double latencySeconds(const Window& w) {
  double ms = 0.0;
  for (double v : w.latencyMs) ms += v;
  return ms * 1e-3;
}

/// Independent generator for one purpose of a seeded run.
inline Rng stream(std::uint64_t seed, std::uint64_t purpose) {
  return Rng(seed * 1000003u + purpose);
}

/// The e2e metrics every workload reports from its untraced window.
void reportEndToEnd(const Window& w, std::size_t rateGroup, double unitsPerEntry,
                    Report& report);

/// Library telemetry over one traced window. Starting it turns span timing
/// on for every live and future instance (bglSetMetricsFile) and takes the
/// baseline; stop() takes the end snapshot. The metrics stream is the only
/// public view of the nested span categories (kernel, stream.flush, ...).
class TraceWindow {
 public:
  explicit TraceWindow(const std::string& dir);
  ~TraceWindow();
  TraceWindow(const TraceWindow&) = delete;
  TraceWindow& operator=(const TraceWindow&) = delete;

  void stop();

  /// Span seconds of a category (its categoryName, e.g. "stream.flush")
  /// recorded inside the window, summed over threads and instances.
  double seconds(const std::string& category) const;
  /// Counter totals accumulated inside the window.
  const BglStatistics& counters() const { return counters_; }
  unsigned long long pendingDepthMax() const { return pendingDepthMax_; }

 private:
  std::string beginPath_, endPath_;
  BglProcessStatistics begin_{};
  std::map<std::string, double> beginSeconds_, endSeconds_;
  BglStatistics counters_{};
  unsigned long long pendingDepthMax_ = 0;
  bool stopped_ = false;
};

/// Work the benchmark knows about for the traced layer split.
struct LayerInputs {
  double units = 0;            ///< evals (sessions for serve-mixed)
  double unitWallSeconds = 0;  ///< summed unit wall time of the calling threads
  /// Summed wall time of the benchmark's calls into the layer it enters
  /// the library through; what the spans inside do not cover is that
  /// layer's own code, reported as `glueMetric`.
  double entryCallSeconds = 0;
  std::string glueMetric;
  double partialsFlops = 0;    ///< effective partials FLOPs in the window
  double partialsBytes = 0;    ///< computed partials bytes in the window
  double matrixFlops = 0;      ///< transition-matrix FLOPs in the window
  int poolThreads = 0;         ///< host thread-pool size (0: no pool)
};

/// Per-layer metrics every workload shares: api span time per unit, kernel
/// rates, accelerator counts, hal shares and the unattributed share.
void reportLayers(const TraceWindow& trace, const LayerInputs& in, Report& report);

/// Timing overhead of the traced window: traced over untraced median unit
/// latency, minus one.
void reportTraceOverhead(const Window& untraced, const Window& traced, Report& report);

/// "<what> failed with code N: <library detail>".
std::string apiError(const std::string& what, int code);

// The four workloads.
void runFig4Nuc(const RunConfig& config, Report& report);
void runMc3Codon(const RunConfig& config, Report& report);
void runPartitionsCuda(const RunConfig& config, Report& report);
void runServeMixed(const RunConfig& config, Report& report);

}  // namespace bgl::e2e
