#include <algorithm>
#include <cmath>
#include <fstream>
#include <sstream>
#include <stdexcept>

#include "bench/e2e/e2e.h"

namespace bgl::e2e {
namespace {

struct LayerMetric {
  const char* name;
  const char* unit;
  const char* clock;
};

// Every per-layer metric a traced run reports, on every workload. Layer
// times that some workload never enters are shares of the unit's wall
// time, so a bypassed layer reads 0 instead of a constant time.
constexpr LayerMetric kLayerMetrics[] = {
    {"api.update_matrices_ms", "ms", "measured"},
    {"api.update_partials_ms", "ms", "measured"},
    {"api.root_ms", "ms", "measured"},
    {"api.levelize_us", "us", "measured"},
    {"api.shim_share", "share", "measured"},
    {"cpu.pool_vs_serial", "x", "measured"},
    {"cpu.worker_busy_share", "share", "measured"},
    {"kernels.flops_per_eval", "flop", "measured"},
    {"kernels.partials_gflops", "GFLOP/s", "measured"},
    {"kernels.partials_gbps_computed", "GB/s", "measured"},
    {"kernels.matrix_gflops", "GFLOP/s", "measured"},
    {"accel.launches_per_eval", "count", "measured"},
    {"accel.rescale_events_per_eval", "count", "measured"},
    {"accel.modeled_device_ms", "ms", "modeled"},
    {"hal.enqueue_share", "share", "measured"},
    {"hal.flush_wait_share", "share", "measured"},
    {"hal.kernel_exec_share", "share", "measured"},
    {"hal.pending_depth_max", "count", "measured"},
    {"phylo.glue_share", "share", "measured"},
    {"mc3.likelihood_share", "share", "measured"},
    {"serve.glue_share", "share", "measured"},
    {"serve.open_share", "share", "measured"},
    {"serve.set_model_share", "share", "measured"},
    {"serve.add_taxon_share", "share", "measured"},
    {"serve.set_branch_share", "share", "measured"},
    {"serve.online_eval_share", "share", "measured"},
    {"serve.full_eval_share", "share", "measured"},
    {"serve.close_share", "share", "measured"},
    {"serve.recycle_ratio", "ratio", "measured"},
    {"serve.reinit_grows_per_session", "count", "measured"},
    {"serve.pooled_instances_end", "count", "measured"},
    {"serve.rejected_quota", "count", "measured"},
    {"serve.rejected_backpressure", "count", "measured"},
    {"serve.rejected_load", "count", "measured"},
    {"obs.trace_overhead", "share", "measured"},
    {"obs.unattributed_share", "share", "measured"},
};

/// Span seconds per category from the last line of a metrics-stream file
/// (schema 2: "categories":{"<name>":{"count":N,"totalSeconds":X,...},...}).
std::map<std::string, double> readCategorySeconds(const std::string& path) {
  std::ifstream in(path);
  std::string line, last;
  while (std::getline(in, line)) {
    if (!line.empty()) last = line;
  }
  const std::size_t open = last.find("\"categories\":{");
  if (open == std::string::npos) {
    throw std::runtime_error("metrics stream '" + path + "' has no categories");
  }
  std::map<std::string, double> seconds;
  std::size_t pos = open + std::string("\"categories\":{").size();
  while (pos < last.size() && last[pos] == '"') {
    const std::size_t nameEnd = last.find('"', pos + 1);
    const std::size_t objectEnd = last.find('}', nameEnd);
    const std::size_t total = last.find("\"totalSeconds\":", nameEnd);
    if (nameEnd == std::string::npos || objectEnd == std::string::npos ||
        total == std::string::npos || total > objectEnd) {
      throw std::runtime_error("metrics stream '" + path + "' is malformed");
    }
    seconds[last.substr(pos + 1, nameEnd - pos - 1)] =
        std::strtod(last.c_str() + total + std::string("\"totalSeconds\":").size(),
                    nullptr);
    pos = objectEnd + 1;
    if (pos < last.size() && last[pos] == ',') ++pos;
  }
  return seconds;
}

double safeDiv(double a, double b) { return b > 0.0 ? a / b : 0.0; }

/// Peak resident set size of this process in MB (VmHWM).
double peakRssMb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      std::istringstream fields(line.substr(6));
      double kb = 0.0;
      fields >> kb;
      return kb / 1024.0;
    }
  }
  return 0.0;
}

}  // namespace

double quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double rank = q * static_cast<double>(values.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(rank));
  const std::size_t hi = std::min(lo + 1, values.size() - 1);
  return values[lo] + (rank - static_cast<double>(lo)) * (values[hi] - values[lo]);
}

double medianRate(std::vector<Clock::time_point> done, Clock::time_point start,
                  std::size_t groupSize, double unitsPerEntry) {
  std::sort(done.begin(), done.end());
  std::vector<double> rates;
  Clock::time_point from = start;
  for (std::size_t i = 0; i + groupSize <= done.size(); i += groupSize) {
    const Clock::time_point to = done[i + groupSize - 1];
    const double seconds = secondsBetween(from, to);
    if (seconds > 0.0) {
      rates.push_back(static_cast<double>(groupSize) * unitsPerEntry / seconds);
    }
    from = to;
  }
  if (rates.empty() && !done.empty()) {  // fewer completions than one group
    return static_cast<double>(done.size()) * unitsPerEntry /
           secondsBetween(start, done.back());
  }
  return median(std::move(rates));
}

Report::Report(bool traced) {
  if (!traced) return;
  for (const LayerMetric& m : kLayerMetrics) {
    metrics_[m.name] = Metric{0.0, m.unit, m.clock};
  }
}

void Report::set(const std::string& name, double value, const std::string& unit,
                 const std::string& clock) {
  const auto it = metrics_.find(name);
  if (it != metrics_.end() && it->second.unit != unit) {
    throw std::logic_error("metric " + name + " reported in " + unit +
                           ", declared in " + it->second.unit);
  }
  if (!std::isfinite(value)) {
    check("metric " + name + " is finite", false, "not a finite number");
    value = 0.0;
  }
  metrics_[name] = Metric{value, unit, clock};
}

void Report::check(const std::string& name, bool ok, const std::string& detail) {
  checks_.push_back(Check{name, ok, detail});
  ++attempted;
  if (!ok) ++failed;
}

bool Report::correct() const {
  if (failed != 0 || attempted < 1 || checks_.empty()) return false;
  return std::all_of(checks_.begin(), checks_.end(),
                     [](const Check& c) { return c.ok; });
}

void reportEndToEnd(const Window& w, std::size_t rateGroup, double unitsPerEntry,
                    Report& report) {
  report.set("throughput", medianRate(w.done, w.start, rateGroup, unitsPerEntry),
             "1/s");
  report.set("latency_p50_ms", quantile(w.latencyMs, 0.50), "ms");
  report.set("latency_p99_ms", quantile(w.latencyMs, 0.99), "ms");
  report.set("latency_samples", static_cast<double>(w.latencyMs.size()), "count");
  report.set("peak_rss_mb", peakRssMb(), "MB");
}

TraceWindow::TraceWindow(const std::string& dir)
    : beginPath_(dir + "/metrics.begin.jsonl"), endPath_(dir + "/metrics.end.jsonl") {
  constexpr int kPeriodMs = 3600 * 1000;  // no periodic line inside a run
  // The first stream turns span timing on for every live instance; pointing
  // the service at a second file stops the first, which writes the
  // baseline line, and keeps timing on for instances created later.
  if (bglSetMetricsFile(beginPath_.c_str(), kPeriodMs) != BGL_SUCCESS ||
      bglSetMetricsFile(endPath_.c_str(), kPeriodMs) != BGL_SUCCESS) {
    throw std::runtime_error(apiError("bglSetMetricsFile", BGL_ERROR_GENERAL));
  }
  bglGetProcessStatistics(&begin_);
  beginSeconds_ = readCategorySeconds(beginPath_);
}

TraceWindow::~TraceWindow() {
  if (!stopped_) bglSetMetricsFile(nullptr, 0);
}

void TraceWindow::stop() {
  stopped_ = true;
  bglSetMetricsFile(nullptr, 0);  // writes the end line
  BglProcessStatistics end{};
  bglGetProcessStatistics(&end);
  endSeconds_ = readCategorySeconds(endPath_);
  const BglStatistics& a = begin_.totals;
  const BglStatistics& b = end.totals;
  counters_.partialsOperations = b.partialsOperations - a.partialsOperations;
  counters_.transitionMatrices = b.transitionMatrices - a.transitionMatrices;
  counters_.rescaleEvents = b.rescaleEvents - a.rescaleEvents;
  counters_.kernelLaunches = b.kernelLaunches - a.kernelLaunches;
  counters_.streamedLaunches = b.streamedLaunches - a.streamedLaunches;
  pendingDepthMax_ = end.pendingDepthMax;
}

double TraceWindow::seconds(const std::string& category) const {
  const auto value = [&](const std::map<std::string, double>& m) {
    const auto it = m.find(category);
    return it == m.end() ? 0.0 : it->second;
  };
  return std::max(0.0, value(endSeconds_) - value(beginSeconds_));
}

void reportLayers(const TraceWindow& trace, const LayerInputs& in, Report& report) {
  const double matrices = trace.seconds("updateTransitionMatrices");
  const double partials = trace.seconds("updatePartials");
  const double root =
      trace.seconds("rootLogLikelihoods") + trace.seconds("edgeLogLikelihoods");
  const double flush = trace.seconds("stream.flush");
  const double kernel = trace.seconds("kernel");
  const double wall = in.unitWallSeconds;

  report.set("api.update_matrices_ms", safeDiv(matrices * 1e3, in.units), "ms");
  report.set("api.update_partials_ms", safeDiv(partials * 1e3, in.units), "ms");
  report.set("api.root_ms", safeDiv(root * 1e3, in.units), "ms");
  report.set("hal.enqueue_share", safeDiv(trace.seconds("stream.enqueue"), wall),
             "share");
  report.set("hal.flush_wait_share", safeDiv(flush, wall), "share");
  report.set("hal.kernel_exec_share", safeDiv(kernel, wall), "share");
  report.set("hal.pending_depth_max", static_cast<double>(trace.pendingDepthMax()),
             "count");

  // The four API spans and the stream drain are disjoint on the calling
  // thread; the entry layer's own code (C shim, phylo or serve glue) is its
  // measured call time minus them; the rest is the benchmark's loop.
  const double spans = matrices + partials + root + flush;
  report.set(in.glueMetric, safeDiv(in.entryCallSeconds - spans, wall), "share");
  report.set("obs.unattributed_share", safeDiv(wall - in.entryCallSeconds, wall),
             "share");
  report.set("unit_wall_ms", safeDiv(wall * 1e3, in.units), "ms");

  if (in.poolThreads > 0) {
    report.set("cpu.worker_busy_share",
               safeDiv(trace.seconds("worker"), in.poolThreads * partials), "share");
  }
  // Streamed launches run every kernel on stream workers, where partials
  // launches cannot be told apart: the kernel span total is the
  // denominator there and the rates are lower bounds.
  const bool streamed = trace.counters().streamedLaunches > 0;
  const double partialsSeconds = streamed ? kernel : partials;
  const double matrixSeconds = streamed ? kernel : matrices;
  report.set("kernels.flops_per_eval", safeDiv(in.partialsFlops, in.units), "flop");
  report.set("kernels.partials_gflops", safeDiv(in.partialsFlops * 1e-9, partialsSeconds),
             "GFLOP/s");
  report.set("kernels.partials_gbps_computed",
             safeDiv(in.partialsBytes * 1e-9, partialsSeconds), "GB/s");
  report.set("kernels.matrix_gflops", safeDiv(in.matrixFlops * 1e-9, matrixSeconds),
             "GFLOP/s");
  report.set("accel.launches_per_eval",
             safeDiv(static_cast<double>(trace.counters().kernelLaunches), in.units),
             "count");
  report.set("accel.rescale_events_per_eval",
             safeDiv(static_cast<double>(trace.counters().rescaleEvents), in.units),
             "count");
}

void reportTraceOverhead(const Window& untraced, const Window& traced, Report& report) {
  report.set("obs.trace_overhead",
             safeDiv(median(traced.latencyMs), median(untraced.latencyMs)) - 1.0,
             "share");
}

std::string apiError(const std::string& what, int code) {
  std::string message = what + " failed with code " + std::to_string(code);
  if (const char* detail = bglGetLastErrorMessage(); detail != nullptr && *detail) {
    message += ": ";
    message += detail;
  }
  return message;
}

}  // namespace bgl::e2e
