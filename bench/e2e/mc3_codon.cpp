// mc3-codon: the Fig. 6 codon application on OpenCL-x86 (host CPU).
//
// mc3::Mc3Sampler over a GY94 model: 15 taxa x 150 simulated codon sites,
// 4 rate categories, per-node rescaling, 2 chains stepped one after the
// other. 61-state transition matrices dominate each evaluation, and the run
// exercises the single-partition accelerator path and the rescaling that
// fig4-nuc bypasses.
#include <cmath>
#include <cstdio>
#include <memory>

#include "api/levelize.h"
#include "bench/e2e/e2e.h"
#include "core/model.h"
#include "kernels/workload.h"
#include "mc3/mc3.h"
#include "phylo/seqsim.h"

namespace bgl::e2e {
namespace {

constexpr int kTaxa = 15;
constexpr int kSites = 150;
constexpr int kStates = 61;
constexpr int kCategories = 4;
constexpr int kChains = 2;
// Generations per Mc3Sampler::run(): the swap interval, so every chunk ends
// on a swap attempt as an uninterrupted run would.
constexpr int kChunkGenerations = 10;
constexpr int kWarmupChunks = 2;
constexpr long kFlags =
    BGL_FLAG_FRAMEWORK_OPENCL | BGL_FLAG_KERNEL_X86_STYLE | BGL_FLAG_PRECISION_DOUBLE;

/// The engine's evaluator calls, all chains together.
struct CallLog {
  bool recording = false;
  std::vector<double> latencyMs;
  double librarySeconds = 0.0;  ///< inside the library-backed evaluator
  long failures = 0;
};

/// Decorates the engine's evaluators (the EvaluatorFactory extension point)
/// to time every call and keep the last tree and log likelihood for the
/// output check.
class TimedEvaluator final : public mc3::Evaluator {
 public:
  TimedEvaluator(std::unique_ptr<mc3::Evaluator> inner, CallLog& log)
      : inner_(std::move(inner)), log_(log) {}

  double logLikelihood(const phylo::Tree& tree) override {
    const auto t0 = Clock::now();
    const double logL = inner_->logLikelihood(tree);
    const auto t1 = Clock::now();
    lastTree_ = tree;
    lastLogL_ = logL;
    if (!std::isfinite(logL)) ++log_.failures;
    if (log_.recording) {
      log_.librarySeconds += secondsBetween(t0, t1);
      log_.latencyMs.push_back(secondsBetween(t0, Clock::now()) * 1e3);
    }
    return logL;
  }
  std::string name() const override { return inner_->name(); }
  bool timeline(double* measured, double* modeled) override {
    return inner_->timeline(measured, modeled);
  }
  void resetTimeline() override { inner_->resetTimeline(); }

  const phylo::Tree& lastTree() const { return lastTree_; }
  double lastLogL() const { return lastLogL_; }

 private:
  std::unique_ptr<mc3::Evaluator> inner_;
  CallLog& log_;
  phylo::Tree lastTree_;
  double lastLogL_ = 0.0;
};

/// Whole chunks of generations until `seconds` have passed. Latencies are
/// the evaluator calls; completions are chunks worth kChunkGenerations.
Window runChunks(double seconds, mc3::Mc3Sampler& sampler, CallLog& log,
                 double* modeledSeconds, mc3::Mc3Result* last) {
  Window w;
  log.latencyMs.clear();
  log.recording = true;
  w.start = Clock::now();
  const auto deadline = w.start + std::chrono::duration_cast<Clock::duration>(
                                      std::chrono::duration<double>(seconds));
  do {
    *last = sampler.run();
    w.done.push_back(Clock::now());
    w.units += kChunkGenerations;
    *modeledSeconds += last->likelihoodModeledSeconds;
  } while (Clock::now() < deadline);
  w.end = Clock::now();
  log.recording = false;
  w.latencyMs = std::move(log.latencyMs);
  return w;
}

bool within(double got, double want, double relative) {
  return std::abs(got - want) <= relative * std::abs(want);
}

}  // namespace

void runMc3Codon(const RunConfig& config, Report& report) {
  // Inputs: a seeded GY94 model and 150 codon sites simulated down a random
  // tree, kept site by site so the pattern count never varies with the seed.
  Rng rng = stream(config.seed, 1);
  const auto model = defaultModelForStates(kStates, config.seed);
  const phylo::Tree truth = phylo::Tree::random(kTaxa, rng, 0.06);
  PatternSet data;
  data.taxa = kTaxa;
  data.patterns = kSites;
  data.states = phylo::simulateAlignment(truth, *model, kSites, rng);
  data.weights.assign(kSites, 1.0);
  data.originalSites = kSites;
  report.work("taxa", kTaxa);
  report.work("patterns", kSites);
  report.work("states", kStates);
  report.work("categories", kCategories);
  report.work("chains", kChains);
  report.work("chunk_generations", kChunkGenerations);

  phylo::LikelihoodOptions options;
  options.categories = kCategories;
  options.useScaling = true;
  options.resources = {0};
  options.requirementFlags = kFlags;
  const mc3::EvaluatorFactory library = mc3::makeBglFactory(options);
  CallLog log;
  std::vector<TimedEvaluator*> chains;  // owned by the sampler
  const mc3::EvaluatorFactory factory = [&](const PatternSet& d,
                                            const SubstitutionModel& m)
      -> std::unique_ptr<mc3::Evaluator> {
    auto evaluator = std::make_unique<TimedEvaluator>(library(d, m), log);
    chains.push_back(evaluator.get());
    return evaluator;
  };
  mc3::Mc3Options mc3Options;
  mc3Options.chains = kChains;
  mc3Options.generations = kChunkGenerations;
  mc3Options.swapInterval = kChunkGenerations;
  mc3Options.seed = static_cast<unsigned>(config.seed);
  mc3Options.parallelChains = false;

  // Set-up: every chain's instance created and its first tree evaluated.
  std::unique_ptr<mc3::Mc3Sampler> sampler;
  const auto setUp = [&] {
    sampler.reset();
    chains.clear();
    const auto t0 = Clock::now();
    sampler = std::make_unique<mc3::Mc3Sampler>(data, *model, mc3Options, factory);
    return secondsBetween(t0, Clock::now());
  };
  std::vector<double> setup = {setUp()};
  report.note("implementation", chains.front()->name());

  for (int i = 0; i < std::max(1, kWarmupChunks / config.warmupDivisor); ++i) {
    sampler->run();
  }

  double modeled = 0.0;
  mc3::Mc3Result last;
  const Window untraced =
      runChunks(config.untracedSeconds(), *sampler, log, &modeled, &last);
  reportEndToEnd(untraced, 1, kChunkGenerations, report);
  report.attempted += static_cast<long>(untraced.latencyMs.size());

  if (config.traced) {
    modeled = 0.0;
    log.librarySeconds = 0.0;
    TraceWindow trace(config.outDir);
    const Window traced =
        runChunks(config.tracedSeconds(), *sampler, log, &modeled, &last);
    trace.stop();
    const double calls = static_cast<double>(traced.latencyMs.size());
    report.attempted += static_cast<long>(calls);

    LayerInputs layers;
    layers.units = calls;
    layers.unitWallSeconds = latencySeconds(traced);
    layers.entryCallSeconds = log.librarySeconds;
    layers.glueMetric = "phylo.glue_share";
    const double ops = static_cast<double>(trace.counters().partialsOperations);
    layers.partialsFlops = ops * kernels::partialsFlops(kSites, kCategories, kStates);
    layers.partialsBytes =
        ops * kernels::partialsBytes(kSites, kCategories, kStates, sizeof(double));
    layers.matrixFlops = static_cast<double>(trace.counters().transitionMatrices) *
                         kernels::matrixFlops(kCategories, kStates, false);
    reportLayers(trace, layers, report);
    reportTraceOverhead(untraced, traced, report);

    report.set("mc3.likelihood_share", latencySeconds(traced) / traced.wallSeconds(),
               "share");
    report.set("mc3.engine_ms_per_gen",
               (traced.wallSeconds() - latencySeconds(traced)) * 1e3 / traced.units,
               "ms");
    report.set("accel.modeled_device_ms", modeled * 1e3 / calls, "ms", "modeled");
    const auto batch = truth.operations(true);
    std::vector<int> level;
    report.set("api.levelize_us", medianCallMicros([&] {
                 levelizeOperations(batch.data(), static_cast<int>(batch.size()), level);
                 keep(level.data());
               }),
               "us");
  }
  // Output check: each chain's last tree and the run's MAP tree against the
  // serial scalar host path in double precision (relative 1e-9, as the
  // cross-implementation tests use for double).
  phylo::LikelihoodOptions serial = options;
  serial.requirementFlags = BGL_FLAG_FRAMEWORK_CPU | BGL_FLAG_THREADING_NONE |
                            BGL_FLAG_VECTOR_NONE | BGL_FLAG_PRECISION_DOUBLE;
  phylo::TreeLikelihood reference(truth, *model, data, serial);
  char detail[128];
  for (std::size_t c = 0; c < chains.size(); ++c) {
    const double want = reference.logLikelihood(chains[c]->lastTree());
    std::snprintf(detail, sizeof(detail), "got %.15g, reference %.15g",
                  chains[c]->lastLogL(), want);
    report.check("chain " + std::to_string(c) + " last logL within 1e-9 of serial",
                 within(chains[c]->lastLogL(), want, 1e-9), detail);
  }
  const double want = reference.logLikelihood(last.mapTree);
  std::snprintf(detail, sizeof(detail), "got %.15g, reference %.15g", last.bestLogL,
                want);
  report.check("MAP tree logL within 1e-9 of serial", within(last.bestLogL, want, 1e-9),
               detail);

  while (static_cast<int>(setup.size()) < config.setupReps) setup.push_back(setUp());
  report.set("setup_s", median(setup), "s");
  report.failed += log.failures;
  report.check("every evaluator call returned a finite logL", log.failures == 0,
               std::to_string(log.failures) + " non-finite");
}

}  // namespace bgl::e2e
