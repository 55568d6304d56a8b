// fig4-nuc: one Fig. 4 point through the raw C API on the host CPU.
//
// 16 tips x 20,092 patterns (where the paper's threaded dual Xeon peaks),
// 4 states, 4 rate categories, single precision, persistent thread pool
// fixed at 2 threads. One eval re-derives all 30 branch matrices from fresh
// lengths, updates the 15 partials, waits, and integrates the root. The
// partials kernel and the pool's fork/join take nearly all of it, so kernel
// and threading changes show here, while API, accelerator and serving
// changes should not move it.
#include <cmath>
#include <cstdio>
#include <memory>
#include <stdexcept>

#include "api/levelize.h"
#include "bench/e2e/e2e.h"
#include "core/gamma.h"
#include "core/model.h"
#include "kernels/workload.h"
#include "phylo/likelihood.h"
#include "phylo/seqsim.h"

namespace bgl::e2e {
namespace {

constexpr int kTips = 16;
constexpr int kPatterns = 20092;
constexpr int kStates = 4;
constexpr int kCategories = 4;
constexpr int kPoolThreads = 2;
constexpr int kWarmupEvals = 20;
constexpr double kAlpha = 0.5;  // discrete-gamma shape, as TreeLikelihood uses
constexpr long kPoolFlags = BGL_FLAG_THREADING_THREAD_POOL | BGL_FLAG_PRECISION_SINGLE;

struct Inputs {
  phylo::Tree tree;
  std::unique_ptr<SubstitutionModel> model;
  PatternSet data;
};

Inputs makeInputs(std::uint64_t seed) {
  Rng rng = stream(seed, 1);
  Inputs in;
  in.tree = phylo::Tree::random(kTips, rng);
  in.model = defaultModelForStates(kStates, seed);
  in.data.taxa = kTips;
  in.data.patterns = kPatterns;
  in.data.states = phylo::randomStates(kTips, kPatterns, kStates, rng);
  in.data.weights.assign(kPatterns, 1.0);
  in.data.originalSites = kPatterns;
  return in;
}

/// A host instance laid out like phylo::TreeLikelihood (buffer and matrix
/// index = node id) but driven call by call through the C API.
class Instance {
 public:
  Instance(const Inputs& in, long requirementFlags, int threads)
      : ops_(in.tree.operations()), root_(in.tree.root()) {
    const int resource = 0;
    BglInstanceDetails details{};
    id_ = bglCreateInstance(kTips, kTips - 1, kTips, kStates, kPatterns, 1,
                            2 * kTips - 2, kCategories, 0, &resource, 1, 0,
                            requirementFlags, &details);
    if (id_ < 0) throw std::runtime_error(apiError("bglCreateInstance", id_));
    implName_ = details.implName;
    try {
      load(in, threads);
    } catch (...) {
      bglFinalizeInstance(id_);
      throw;
    }
  }
  ~Instance() { bglFinalizeInstance(id_); }
  Instance(const Instance&) = delete;
  Instance& operator=(const Instance&) = delete;

  /// One eval of `tree` (same topology as at construction). Adds the wall
  /// time of the four library calls to `*callSeconds` when given.
  int evaluate(const phylo::Tree& tree, double* logL, double* callSeconds = nullptr) {
    tree.matrixUpdates(nodes_, lengths_);
    const int zero = 0;
    const auto t0 = Clock::now();
    int rc = bglUpdateTransitionMatrices(id_, 0, nodes_.data(), nullptr, nullptr,
                                         lengths_.data(), static_cast<int>(nodes_.size()));
    if (rc == BGL_SUCCESS) {
      rc = bglUpdatePartials(id_, ops_.data(), static_cast<int>(ops_.size()), BGL_OP_NONE);
    }
    if (rc == BGL_SUCCESS) rc = bglWaitForComputation(id_);
    if (rc == BGL_SUCCESS) {
      rc = bglCalculateRootLogLikelihoods(id_, &root_, &zero, &zero, nullptr, 1, logL);
    }
    if (callSeconds != nullptr) *callSeconds += secondsBetween(t0, Clock::now());
    return rc;
  }

  /// Median milliseconds of one partials update plus wait (matrices must
  /// already be derived).
  double partialsMs(int reps) {
    std::vector<double> ms;
    for (int r = 0; r < reps; ++r) {
      const auto t0 = Clock::now();
      bglUpdatePartials(id_, ops_.data(), static_cast<int>(ops_.size()), BGL_OP_NONE);
      bglWaitForComputation(id_);
      ms.push_back(secondsBetween(t0, Clock::now()) * 1e3);
    }
    return median(std::move(ms));
  }

  int id() const { return id_; }
  const std::string& implName() const { return implName_; }
  const std::vector<BglOperation>& ops() const { return ops_; }

 private:
  void load(const Inputs& in, int threads) {
    const auto require = [](int rc, const char* what) {
      if (rc != BGL_SUCCESS) throw std::runtime_error(apiError(what, rc));
    };
    if (threads > 0) require(bglSetThreadCount(id_, threads), "bglSetThreadCount");
    const auto es = in.model->eigenSystem();
    require(bglSetEigenDecomposition(id_, 0, es.evec.data(), es.ivec.data(),
                                     es.eval.data()),
            "bglSetEigenDecomposition");
    require(bglSetStateFrequencies(id_, 0, in.model->frequencies().data()),
            "bglSetStateFrequencies");
    const std::vector<double> weights(kCategories, 1.0 / kCategories);
    require(bglSetCategoryWeights(id_, 0, weights.data()), "bglSetCategoryWeights");
    require(bglSetCategoryRates(id_, discreteGammaRates(kAlpha, kCategories).data()),
            "bglSetCategoryRates");
    require(bglSetPatternWeights(id_, in.data.weights.data()), "bglSetPatternWeights");
    for (int t = 0; t < kTips; ++t) {
      require(bglSetTipStates(id_, t, in.data.states.data() +
                                          static_cast<std::size_t>(t) * kPatterns),
              "bglSetTipStates");
    }
  }

  int id_ = -1;
  std::string implName_;
  std::vector<BglOperation> ops_;
  int root_;
  std::vector<int> nodes_;
  std::vector<double> lengths_;
};

}  // namespace

void runFig4Nuc(const RunConfig& config, Report& report) {
  const Inputs in = makeInputs(config.seed);
  report.work("tips", kTips);
  report.work("patterns", kPatterns);
  report.work("states", kStates);
  report.work("categories", kCategories);
  report.work("pool_threads", kPoolThreads);
  report.work("warmup_evals", kWarmupEvals / config.warmupDivisor);

  // Set-up: instance creation and data load up to the first log likelihood.
  std::unique_ptr<Instance> pool;
  double logL = 0.0;
  long failures = 0;
  const auto setUp = [&] {
    pool.reset();
    const auto t0 = Clock::now();
    pool = std::make_unique<Instance>(in, kPoolFlags, kPoolThreads);
    if (pool->evaluate(in.tree, &logL) != BGL_SUCCESS) ++failures;
    return secondsBetween(t0, Clock::now());
  };
  std::vector<double> setup = {setUp()};
  report.note("implementation", pool->implName());

  phylo::Tree tree = in.tree;
  Rng lengths = stream(config.seed, 2);
  double callSeconds = 0.0;
  const auto unit = [&] {
    for (int n = 0; n < tree.nodeCount(); ++n) {
      if (n != tree.root()) tree.node(n).length = lengths.uniform(0.01, 0.5);
    }
    const auto t0 = Clock::now();
    const int rc = pool->evaluate(tree, &logL, &callSeconds);
    const double seconds = secondsBetween(t0, Clock::now());
    if (rc != BGL_SUCCESS || !std::isfinite(logL)) ++failures;
    return seconds;
  };
  for (int i = 0; i < kWarmupEvals / config.warmupDivisor; ++i) unit();

  const Window untraced = runFor(config.untracedSeconds(), unit);
  reportEndToEnd(untraced, 25, 1.0, report);
  report.set("gflops",
             untraced.units * (kTips - 1) *
                 kernels::partialsFlops(kPatterns, kCategories, kStates) * 1e-9 /
                 untraced.wallSeconds(),
             "GFLOP/s");
  report.attempted += static_cast<long>(untraced.units);

  if (config.traced) {
    bglResetTimeline(pool->id());
    callSeconds = 0.0;
    TraceWindow trace(config.outDir);
    const Window traced = runFor(config.tracedSeconds(), unit);
    trace.stop();
    report.attempted += static_cast<long>(traced.units);

    LayerInputs layers;
    layers.units = traced.units;
    layers.unitWallSeconds = latencySeconds(traced);
    layers.entryCallSeconds = callSeconds;
    layers.glueMetric = "api.shim_share";
    const double ops = static_cast<double>(trace.counters().partialsOperations);
    layers.partialsFlops = ops * kernels::partialsFlops(kPatterns, kCategories, kStates);
    layers.partialsBytes =
        ops * kernels::partialsBytes(kPatterns, kCategories, kStates, sizeof(float));
    layers.matrixFlops = static_cast<double>(trace.counters().transitionMatrices) *
                         kernels::matrixFlops(kCategories, kStates, false);
    layers.poolThreads = kPoolThreads;
    reportLayers(trace, layers, report);
    reportTraceOverhead(untraced, traced, report);

    BglTimeline timeline{};
    if (bglGetTimeline(pool->id(), &timeline) == BGL_SUCCESS) {
      report.set("accel.modeled_device_ms", timeline.modeledSeconds * 1e3 / traced.units,
                 "ms", "modeled");
    }
    std::vector<int> level;
    report.set("api.levelize_us", medianCallMicros([&] {
                 levelizeOperations(pool->ops().data(),
                                    static_cast<int>(pool->ops().size()), level);
                 keep(level.data());
               }),
               "us");

    // Table III's question on this shape: the 2-thread pool against the
    // serial family on the same data, partials update plus wait only.
    Instance serial(in, BGL_FLAG_THREADING_NONE | BGL_FLAG_PRECISION_SINGLE, 0);
    double serialLogL = 0.0;
    serial.evaluate(tree, &serialLogL);
    report.note("serial_implementation", serial.implName());
    report.set("cpu.pool_vs_serial", serial.partialsMs(30) / pool->partialsMs(30), "x");
  }
  // Output check: the final tree against the serial scalar double-precision
  // host path, to the tolerance the cross-implementation tests use.
  phylo::LikelihoodOptions reference;
  reference.categories = kCategories;
  reference.alpha = kAlpha;
  reference.resources = {0};
  reference.requirementFlags = BGL_FLAG_FRAMEWORK_CPU | BGL_FLAG_THREADING_NONE |
                               BGL_FLAG_VECTOR_NONE | BGL_FLAG_PRECISION_DOUBLE;
  phylo::TreeLikelihood expected(tree, *in.model, in.data, reference);
  const double want = expected.logLikelihood(tree);
  char detail[128];
  std::snprintf(detail, sizeof(detail), "got %.10g, reference %.10g", logL, want);
  report.check("final logL within 2e-4 relative of the serial double reference",
               std::abs(logL - want) <= 2e-4 * std::abs(want), detail);

  while (static_cast<int>(setup.size()) < config.setupReps) setup.push_back(setUp());
  report.set("setup_s", median(setup), "s");
  report.failed += failures;
  report.check("every eval returned BGL_SUCCESS and a finite logL", failures == 0,
               std::to_string(failures) + " failed");
}

}  // namespace bgl::e2e
