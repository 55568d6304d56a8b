// partitions-cuda: the partitioned launch path on the simulated Quadro P5000
// with asynchronous command streams.
//
// phylo::PartitionedLikelihood over 120 gene partitions x 16 patterns that
// share one 32-tip tree, each partition with its own HKY85 model; double
// precision, 4 rate categories. One eval moves one branch and re-evaluates
// every partition: 3,720 by-partition partials operations of tiny kernel
// work, so the C shim, levelization, stream enqueue and drain, and the phylo
// glue set the time.
#include <algorithm>
#include <cmath>
#include <memory>
#include <stdexcept>

#include "api/levelize.h"
#include "bench/e2e/e2e.h"
#include "core/model.h"
#include "harness/genomictest.h"
#include "kernels/workload.h"
#include "phylo/partition.h"
#include "phylo/seqsim.h"

namespace bgl::e2e {
namespace {

constexpr int kTips = 32;
constexpr int kPartitions = 120;
constexpr int kPatternsPerPartition = 16;
constexpr int kStates = 4;
constexpr int kCategories = 4;
constexpr int kWarmupEvals = 20;
constexpr long kFlags =
    BGL_FLAG_FRAMEWORK_CUDA | BGL_FLAG_COMPUTATION_ASYNCH | BGL_FLAG_PRECISION_DOUBLE;

struct Inputs {
  phylo::Tree tree;
  std::vector<std::unique_ptr<SubstitutionModel>> models;
  std::vector<phylo::PartitionSpec> specs;
};

Inputs makeInputs(std::uint64_t seed, int resource) {
  Rng rng = stream(seed, 1);
  Inputs in;
  in.tree = phylo::Tree::random(kTips, rng);
  for (int q = 0; q < kPartitions; ++q) {
    in.models.push_back(defaultModelForStates(kStates, rng.next()));
    phylo::PartitionSpec spec;
    spec.data.taxa = kTips;
    spec.data.patterns = kPatternsPerPartition;
    spec.data.states = phylo::randomStates(kTips, kPatternsPerPartition, kStates, rng);
    spec.data.weights.assign(kPatternsPerPartition, 1.0);
    spec.data.originalSites = kPatternsPerPartition;
    spec.model = in.models.back().get();
    spec.options.categories = kCategories;
    spec.options.resources = {resource};
    spec.options.requirementFlags = kFlags;
    in.specs.push_back(std::move(spec));
  }
  return in;
}

}  // namespace

void runPartitionsCuda(const RunConfig& config, Report& report) {
  const int resource = harness::findResource("Quadro P5000");
  if (resource < 0) throw std::runtime_error("no Quadro P5000 resource");
  const Inputs in = makeInputs(config.seed, resource);
  report.work("tips", kTips);
  report.work("partitions", kPartitions);
  report.work("patterns_per_partition", kPatternsPerPartition);
  report.work("states", kStates);
  report.work("categories", kCategories);
  report.work("warmup_evals", kWarmupEvals / config.warmupDivisor);

  // Set-up: instance creation, 120 models and data slices loaded, first
  // evaluation returned.
  std::unique_ptr<phylo::PartitionedLikelihood> like;
  double logL = 0.0;
  const auto setUp = [&] {
    like.reset();
    const auto t0 = Clock::now();
    like = std::make_unique<phylo::PartitionedLikelihood>(in.tree, in.specs,
                                                          phylo::PartitionOptions{});
    logL = like->logLikelihood(in.tree);
    return secondsBetween(t0, Clock::now());
  };
  std::vector<double> setup = {setUp()};
  report.note("implementation", like->implName(0));
  report.work("instances", like->instanceCount());

  phylo::Tree tree = in.tree;
  Rng moves = stream(config.seed, 2);
  long failures = 0;
  double callSeconds = 0.0;
  double modeledSeconds = 0.0;
  const auto unit = [&] {
    const auto t0 = Clock::now();
    // Node ids below the root (the last id) each own one branch.
    double& length = tree.node(moves.belowInt(tree.nodeCount() - 1)).length;
    length = std::clamp(length * std::exp(0.4 * (moves.uniform() - 0.5)), 1e-3, 1.0);
    const auto t1 = Clock::now();
    logL = like->logLikelihood(tree);
    const auto t2 = Clock::now();
    callSeconds += secondsBetween(t1, t2);
    modeledSeconds += like->lastModeledSeconds();
    if (!std::isfinite(logL)) ++failures;
    return secondsBetween(t0, t2);
  };
  for (int i = 0; i < kWarmupEvals / config.warmupDivisor; ++i) unit();

  const Window untraced = runFor(config.untracedSeconds(), unit);
  reportEndToEnd(untraced, 25, 1.0, report);
  report.set("gflops",
             untraced.units * kPartitions * (kTips - 1) *
                 kernels::partialsFlops(kPatternsPerPartition, kCategories, kStates) *
                 1e-9 / untraced.wallSeconds(),
             "GFLOP/s");
  report.attempted += static_cast<long>(untraced.units);

  if (config.traced) {
    callSeconds = 0.0;
    modeledSeconds = 0.0;
    TraceWindow trace(config.outDir);
    const Window traced = runFor(config.tracedSeconds(), unit);
    trace.stop();
    report.attempted += static_cast<long>(traced.units);

    LayerInputs layers;
    layers.units = traced.units;
    layers.unitWallSeconds = latencySeconds(traced);
    layers.entryCallSeconds = callSeconds;
    layers.glueMetric = "phylo.glue_share";
    const double ops = static_cast<double>(trace.counters().partialsOperations);
    layers.partialsFlops =
        ops * kernels::partialsFlops(kPatternsPerPartition, kCategories, kStates);
    layers.partialsBytes = ops * kernels::partialsBytes(kPatternsPerPartition, kCategories,
                                                        kStates, sizeof(double));
    layers.matrixFlops = static_cast<double>(trace.counters().transitionMatrices) *
                         kernels::matrixFlops(kCategories, kStates, false);
    reportLayers(trace, layers, report);
    reportTraceOverhead(untraced, traced, report);
    report.set("accel.modeled_device_ms", modeledSeconds * 1e3 / traced.units, "ms",
               "modeled");

    // The fused batch the library levelizes: every partition's post-order
    // operations, partition-major.
    std::vector<BglOperationByPartition> batch;
    for (int q = 0; q < kPartitions; ++q) {
      for (const BglOperation& op : tree.operations()) {
        batch.push_back({op.destinationPartials, op.destinationScaleWrite,
                         op.destinationScaleRead, op.child1Partials,
                         op.child1TransitionMatrix, op.child2Partials,
                         op.child2TransitionMatrix, q});
      }
    }
    std::vector<int> level;
    report.set("api.levelize_us", medianCallMicros([&] {
                 levelizeOperationsByPartition(batch.data(),
                                               static_cast<int>(batch.size()),
                                               kPartitions, level);
                 keep(level.data());
               }, 20),
               "us");
  }
  report.failed += failures;
  report.check("every eval returned a finite logL", failures == 0,
               std::to_string(failures) + " non-finite");

  // Output check: every partition's logL bitwise against a dedicated
  // single-partition instance with the same options.
  int mismatches = 0;
  const std::vector<double>& batched = like->partitionLogLikelihoods();
  for (int q = 0; q < kPartitions; ++q) {
    const auto& spec = in.specs[static_cast<std::size_t>(q)];
    phylo::TreeLikelihood dedicated(tree, *spec.model, spec.data, spec.options);
    if (dedicated.logLikelihood(tree) != batched[static_cast<std::size_t>(q)]) {
      ++mismatches;
    }
  }
  report.check("per-partition logL bitwise equal to dedicated instances",
               mismatches == 0,
               std::to_string(mismatches) + " of " + std::to_string(kPartitions) +
                   " partitions differ");

  while (static_cast<int>(setup.size()) < config.setupReps) setup.push_back(setUp());
  report.set("setup_s", median(setup), "s");
}

}  // namespace bgl::e2e
