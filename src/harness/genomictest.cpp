#include "harness/genomictest.h"

#include <algorithm>
#include <chrono>
#include <cstring>
#include <memory>
#include <vector>

#include "core/defs.h"
#include "core/gamma.h"
#include "core/model.h"
#include "core/rng.h"
#include "kernels/workload.h"
#include "phylo/seqsim.h"

namespace bgl::harness {
namespace {

using Clock = std::chrono::steady_clock;

double now() {
  return std::chrono::duration<double>(Clock::now().time_since_epoch()).count();
}

/// Append the thread-local API error detail (when any) to `message`.
std::string withLastError(std::string message) {
  if (const char* detail = bglGetLastErrorMessage();
      detail != nullptr && *detail != '\0') {
    message += ": ";
    message += detail;
  }
  return message;
}

}  // namespace

double evaluationFlops(const ProblemSpec& spec) {
  return (spec.tips - 1) *
         kernels::partialsFlops(spec.patterns, spec.categories, spec.states);
}

int findResource(const std::string& nameFragment) {
  BglResourceList* list = bglGetResourceList();
  for (int i = 0; i < list->length; ++i) {
    if (std::string(list->list[i].name).find(nameFragment) != std::string::npos) {
      return i;
    }
  }
  return -1;
}

RunResult runThroughput(const ProblemSpec& spec) {
  if (spec.tips < 2) throw Error("runThroughput: need >= 2 tips");

  const int matPool = std::min(2 * (spec.tips - 1), 32);

  // Prefer one buffer per internal node (balanced-topology evaluation);
  // fall back to a bounded rotating pool when that would not fit memory.
  const std::size_t realBytes = spec.singlePrecision ? 4 : 8;
  const double bufferBytes = static_cast<double>(spec.categories) * spec.patterns *
                             spec.states * realBytes;
  int pool = spec.tips - 1;
  if (!spec.balancedTopology || bufferBytes * (pool + 1) > 3.0e9) {
    pool = std::max(2, std::min(spec.internalBufferPool, spec.tips - 1));
  }

  // Refuse problem sizes that cannot fit in this machine's memory.
  if (bufferBytes * (pool + 1) > 4.0e9) {
    throw Error("runThroughput: problem would need >4 GB of partials buffers");
  }

  const long precisionFlag =
      spec.singlePrecision ? BGL_FLAG_PRECISION_SINGLE : BGL_FLAG_PRECISION_DOUBLE;

  BglInstanceDetails details{};
  const int resource = spec.resource;
  const int instance = bglCreateInstance(
      spec.tips, pool, spec.tips, spec.states, spec.patterns,
      /*eigenBufferCount=*/1, matPool, spec.categories, /*scaleBufferCount=*/0,
      &resource, 1, spec.preferenceFlags,
      spec.requirementFlags | precisionFlag, &details);
  if (instance < 0) {
    throw Error(withLastError("runThroughput: no implementation (code " +
                              std::to_string(instance) + ")"),
                instance);
  }

  RunResult result;
  result.implName = details.implName;
  result.resourceName = details.resourceName;

  try {
    if (!spec.traceFile.empty()) bglSetTraceFile(instance, spec.traceFile.c_str());
    if (!spec.statsFile.empty()) bglSetStatsFile(instance, spec.statsFile.c_str());
    if (spec.threadCount > 0) bglSetThreadCount(instance, spec.threadCount);
    if (spec.workGroupSize > 0) bglSetWorkGroupSize(instance, spec.workGroupSize);

    // Model + data setup (untimed, as in genomictest).
    Rng rng(spec.seed);
    const auto model = defaultModelForStates(spec.states, spec.seed);
    const auto es = model->eigenSystem();
    int rc = bglSetEigenDecomposition(instance, 0, es.evec.data(), es.ivec.data(),
                                      es.eval.data());
    if (rc != BGL_SUCCESS) throw Error(withLastError("setEigenDecomposition failed"), rc);
    bglSetStateFrequencies(instance, 0, model->frequencies().data());
    const std::vector<double> weights(spec.categories, 1.0 / spec.categories);
    bglSetCategoryWeights(instance, 0, weights.data());
    const auto rates = spec.categories > 1
                           ? discreteGammaRates(0.5, spec.categories)
                           : std::vector<double>{1.0};
    bglSetCategoryRates(instance, rates.data());
    const std::vector<double> patternWeights(spec.patterns, 1.0);
    bglSetPatternWeights(instance, patternWeights.data());

    const auto tipData =
        phylo::randomStates(spec.tips, spec.patterns, spec.states, rng);
    std::vector<int> tipBuf(spec.patterns);
    for (int t = 0; t < spec.tips; ++t) {
      std::memcpy(tipBuf.data(), tipData.data() + static_cast<std::size_t>(t) * spec.patterns,
                  sizeof(int) * spec.patterns);
      rc = bglSetTipStates(instance, t, tipBuf.data());
      if (rc != BGL_SUCCESS) throw Error(withLastError("setTipStates failed"), rc);
    }

    std::vector<int> matrixIndices(matPool);
    std::vector<double> edgeLengths(matPool);
    for (int m = 0; m < matPool; ++m) {
      matrixIndices[m] = m;
      edgeLengths[m] = rng.uniform(0.01, 0.5);
    }
    rc = bglUpdateTransitionMatrices(instance, 0, matrixIndices.data(), nullptr,
                                     nullptr, edgeLengths.data(), matPool);
    if (rc != BGL_SUCCESS) throw Error(withLastError("updateTransitionMatrices failed"), rc);

    // Evaluation topology. When memory permits, a balanced reduction over
    // the tips (pairwise joins level by level): this is what a random tree
    // evaluation looks like and gives the futures implementation its
    // topology-independent operations. Otherwise fall back to a
    // caterpillar chain whose destinations rotate through a bounded buffer
    // pool (same FLOPs, no independent operations).
    std::vector<BglOperation> ops;
    ops.reserve(spec.tips - 1);
    int rootBuffer;
    if (pool >= spec.tips - 1) {
      std::vector<int> level(spec.tips);
      for (int t = 0; t < spec.tips; ++t) level[t] = t;
      int nextInternal = spec.tips;
      int opIndex = 0;
      while (level.size() > 1) {
        std::vector<int> next;
        for (std::size_t i = 0; i + 1 < level.size(); i += 2) {
          BglOperation op;
          op.destinationPartials = nextInternal;
          op.destinationScaleWrite = BGL_OP_NONE;
          op.destinationScaleRead = BGL_OP_NONE;
          op.child1Partials = level[i];
          op.child1TransitionMatrix = (2 * opIndex) % matPool;
          op.child2Partials = level[i + 1];
          op.child2TransitionMatrix = (2 * opIndex + 1) % matPool;
          ops.push_back(op);
          next.push_back(nextInternal);
          ++nextInternal;
          ++opIndex;
        }
        if (level.size() % 2 == 1) next.push_back(level.back());
        level = std::move(next);
      }
      rootBuffer = level[0];
    } else {
      for (int i = 0; i < spec.tips - 1; ++i) {
        BglOperation op;
        op.destinationPartials = spec.tips + (i % pool);
        op.destinationScaleWrite = BGL_OP_NONE;
        op.destinationScaleRead = BGL_OP_NONE;
        op.child1Partials = (i == 0) ? 0 : spec.tips + ((i - 1) % pool);
        op.child1TransitionMatrix = (2 * i) % matPool;
        op.child2Partials = (i == 0) ? 1 : i + 1;
        op.child2TransitionMatrix = (2 * i + 1) % matPool;
        ops.push_back(op);
      }
      rootBuffer = spec.tips + ((spec.tips - 2) % pool);
    }

    for (int w = 0; w < spec.warmupReps; ++w) {
      rc = bglUpdatePartials(instance, ops.data(), static_cast<int>(ops.size()),
                             BGL_OP_NONE);
      if (rc != BGL_SUCCESS) throw Error(withLastError("updatePartials failed"), rc);
    }
    bglWaitForComputation(instance);

    // Best-of-reps timing: the minimum over repetitions rejects scheduler
    // noise (this host shares cores with other tenants).
    const bool hasTimeline = bglResetTimeline(instance) == BGL_SUCCESS;
    double bestSeconds = 1e300;
    double bestWall = 1e300;
    for (int r = 0; r < spec.reps; ++r) {
      if (hasTimeline) bglResetTimeline(instance);
      const double t0 = now();
      rc = bglUpdatePartials(instance, ops.data(), static_cast<int>(ops.size()),
                             BGL_OP_NONE);
      if (rc != BGL_SUCCESS) throw Error(withLastError("updatePartials failed"), rc);
      bglWaitForComputation(instance);
      const double wall = now() - t0;
      bestWall = std::min(bestWall, wall);
      double repSeconds = wall;
      if (hasTimeline) {
        BglTimeline timeline{};
        bglGetTimeline(instance, &timeline);
        repSeconds = timeline.modeledSeconds;
        result.modeled = timeline.modeledSeconds != timeline.measuredSeconds;
      }
      bestSeconds = std::min(bestSeconds, repSeconds);
    }

    result.measuredSeconds = bestWall;
    result.seconds = bestSeconds;
    result.flops = evaluationFlops(spec);
    result.gflops = result.flops / result.seconds / 1e9;

    // Untimed root evaluation: validates the pipeline end to end.
    const int zero = 0;
    rc = bglCalculateRootLogLikelihoods(instance, &rootBuffer, &zero, &zero, nullptr,
                                        1, &result.logL);
    if (rc != BGL_SUCCESS && rc != BGL_ERROR_FLOATING_POINT) {
      throw Error(withLastError("calculateRootLogLikelihoods failed"), rc);
    }
  } catch (...) {
    bglFinalizeInstance(instance);
    throw;
  }
  bglFinalizeInstance(instance);
  return result;
}

PipelinedRunResult runPipelinedThroughput(const ProblemSpec& spec, int rounds) {
  if (spec.tips < 2) throw Error("runPipelinedThroughput: need >= 2 tips");
  if (rounds < 1) throw Error("runPipelinedThroughput: need >= 1 round");

  // Two disjoint matrix-pool halves: round r derives into half r % 2, so
  // deriving round r+1's matrices never writes a buffer round r reads.
  const int halfPool = std::min(2 * (spec.tips - 1), 16);
  const int matPool = 2 * halfPool;

  const std::size_t realBytes = spec.singlePrecision ? 4 : 8;
  const double bufferBytes = static_cast<double>(spec.categories) * spec.patterns *
                             spec.states * realBytes;
  int pool = spec.tips - 1;
  if (!spec.balancedTopology || bufferBytes * (pool + 1) > 3.0e9) {
    pool = std::max(2, std::min(spec.internalBufferPool, spec.tips - 1));
  }
  if (bufferBytes * (pool + 1) > 4.0e9) {
    throw Error("runPipelinedThroughput: problem would need >4 GB of partials buffers");
  }

  const long precisionFlag =
      spec.singlePrecision ? BGL_FLAG_PRECISION_SINGLE : BGL_FLAG_PRECISION_DOUBLE;

  BglInstanceDetails details{};
  const int resource = spec.resource;
  const int instance = bglCreateInstance(
      spec.tips, pool, spec.tips, spec.states, spec.patterns,
      /*eigenBufferCount=*/1, matPool, spec.categories, /*scaleBufferCount=*/0,
      &resource, 1, spec.preferenceFlags,
      spec.requirementFlags | precisionFlag, &details);
  if (instance < 0) {
    throw Error(withLastError("runPipelinedThroughput: no implementation (code " +
                              std::to_string(instance) + ")"),
                instance);
  }

  PipelinedRunResult result;
  result.implName = details.implName;
  result.resourceName = details.resourceName;

  try {
    if (!spec.traceFile.empty()) bglSetTraceFile(instance, spec.traceFile.c_str());
    if (!spec.statsFile.empty()) bglSetStatsFile(instance, spec.statsFile.c_str());
    if (spec.threadCount > 0) bglSetThreadCount(instance, spec.threadCount);
    if (spec.workGroupSize > 0) bglSetWorkGroupSize(instance, spec.workGroupSize);

    Rng rng(spec.seed);
    const auto model = defaultModelForStates(spec.states, spec.seed);
    const auto es = model->eigenSystem();
    int rc = bglSetEigenDecomposition(instance, 0, es.evec.data(), es.ivec.data(),
                                      es.eval.data());
    if (rc != BGL_SUCCESS) throw Error(withLastError("setEigenDecomposition failed"), rc);
    bglSetStateFrequencies(instance, 0, model->frequencies().data());
    const std::vector<double> weights(spec.categories, 1.0 / spec.categories);
    bglSetCategoryWeights(instance, 0, weights.data());
    const auto rates = spec.categories > 1
                           ? discreteGammaRates(0.5, spec.categories)
                           : std::vector<double>{1.0};
    bglSetCategoryRates(instance, rates.data());
    const std::vector<double> patternWeights(spec.patterns, 1.0);
    bglSetPatternWeights(instance, patternWeights.data());

    const auto tipData =
        phylo::randomStates(spec.tips, spec.patterns, spec.states, rng);
    std::vector<int> tipBuf(spec.patterns);
    for (int t = 0; t < spec.tips; ++t) {
      std::memcpy(tipBuf.data(), tipData.data() + static_cast<std::size_t>(t) * spec.patterns,
                  sizeof(int) * spec.patterns);
      rc = bglSetTipStates(instance, t, tipBuf.data());
      if (rc != BGL_SUCCESS) throw Error(withLastError("setTipStates failed"), rc);
    }

    // Base branch lengths; round r rescales them all, the way an optimizer
    // iteration re-derives every matrix from a new length proposal.
    std::vector<double> baseLengths(halfPool);
    for (int m = 0; m < halfPool; ++m) baseLengths[m] = rng.uniform(0.01, 0.5);

    // Evaluation topology, matrix indices kept within [0, halfPool): the
    // same balanced reduction / bounded chain as runThroughput.
    std::vector<BglOperation> ops;
    ops.reserve(spec.tips - 1);
    int rootBuffer;
    if (pool >= spec.tips - 1) {
      std::vector<int> level(spec.tips);
      for (int t = 0; t < spec.tips; ++t) level[t] = t;
      int nextInternal = spec.tips;
      int opIndex = 0;
      while (level.size() > 1) {
        std::vector<int> next;
        for (std::size_t i = 0; i + 1 < level.size(); i += 2) {
          BglOperation op;
          op.destinationPartials = nextInternal;
          op.destinationScaleWrite = BGL_OP_NONE;
          op.destinationScaleRead = BGL_OP_NONE;
          op.child1Partials = level[i];
          op.child1TransitionMatrix = (2 * opIndex) % halfPool;
          op.child2Partials = level[i + 1];
          op.child2TransitionMatrix = (2 * opIndex + 1) % halfPool;
          ops.push_back(op);
          next.push_back(nextInternal);
          ++nextInternal;
          ++opIndex;
        }
        if (level.size() % 2 == 1) next.push_back(level.back());
        level = std::move(next);
      }
      rootBuffer = level[0];
    } else {
      for (int i = 0; i < spec.tips - 1; ++i) {
        BglOperation op;
        op.destinationPartials = spec.tips + (i % pool);
        op.destinationScaleWrite = BGL_OP_NONE;
        op.destinationScaleRead = BGL_OP_NONE;
        op.child1Partials = (i == 0) ? 0 : spec.tips + ((i - 1) % pool);
        op.child1TransitionMatrix = (2 * i) % halfPool;
        op.child2Partials = (i == 0) ? 1 : i + 1;
        op.child2TransitionMatrix = (2 * i + 1) % halfPool;
        ops.push_back(op);
      }
      rootBuffer = spec.tips + ((spec.tips - 2) % pool);
    }

    // Per-parity operation lists: half h shifts matrix indices by h*halfPool.
    std::vector<BglOperation> opsByParity[2];
    for (int h = 0; h < 2; ++h) {
      opsByParity[h] = ops;
      for (auto& op : opsByParity[h]) {
        op.child1TransitionMatrix += h * halfPool;
        op.child2TransitionMatrix += h * halfPool;
      }
    }

    std::vector<int> roundIndices(halfPool);
    std::vector<double> roundLengths(halfPool);
    const auto deriveMatrices = [&](int round) {
      const int base = (round % 2) * halfPool;
      const double scale = 1.0 + 0.05 * round;
      for (int m = 0; m < halfPool; ++m) {
        roundIndices[m] = base + m;
        roundLengths[m] = baseLengths[m] * scale;
      }
      const int rc2 = bglUpdateTransitionMatrices(instance, 0, roundIndices.data(),
                                                  nullptr, nullptr,
                                                  roundLengths.data(), halfPool);
      if (rc2 != BGL_SUCCESS) {
        throw Error(withLastError("updateTransitionMatrices failed"), rc2);
      }
    };

    result.roundLogL.assign(static_cast<std::size_t>(rounds), 0.0);
    const int zero = 0;
    const auto runSequence = [&]() {
      // Round cadence: matrices for round r+1 are derived while round r's
      // partials are still in flight (a pipelined instance overlaps them on
      // separate streams; everyone else just runs them in this order).
      deriveMatrices(0);
      for (int r = 0; r < rounds; ++r) {
        const auto& roundOps = opsByParity[r % 2];
        int rc2 = bglUpdatePartials(instance, roundOps.data(),
                                    static_cast<int>(roundOps.size()), BGL_OP_NONE);
        if (rc2 != BGL_SUCCESS) throw Error(withLastError("updatePartials failed"), rc2);
        if (r + 1 < rounds) deriveMatrices(r + 1);
        rc2 = bglCalculateRootLogLikelihoods(instance, &rootBuffer, &zero, &zero,
                                             nullptr, 1, &result.roundLogL[r]);
        if (rc2 != BGL_SUCCESS && rc2 != BGL_ERROR_FLOATING_POINT) {
          throw Error(withLastError("calculateRootLogLikelihoods failed"), rc2);
        }
      }
      bglWaitForComputation(instance);
    };

    for (int w = 0; w < spec.warmupReps; ++w) runSequence();

    const bool hasTimeline = bglResetTimeline(instance) == BGL_SUCCESS;
    double bestSeconds = 1e300;
    double bestWall = 1e300;
    for (int r = 0; r < spec.reps; ++r) {
      if (hasTimeline) bglResetTimeline(instance);
      const double t0 = now();
      runSequence();
      const double wall = now() - t0;
      bestWall = std::min(bestWall, wall);
      double repSeconds = wall;
      if (hasTimeline) {
        BglTimeline timeline{};
        bglGetTimeline(instance, &timeline);
        repSeconds = timeline.modeledSeconds;
        result.modeled = timeline.modeledSeconds != timeline.measuredSeconds;
      }
      bestSeconds = std::min(bestSeconds, repSeconds);
    }

    result.measuredSeconds = bestWall;
    result.seconds = bestSeconds;
    result.flops = evaluationFlops(spec) * rounds;
    result.gflops = result.flops / result.seconds / 1e9;
  } catch (...) {
    bglFinalizeInstance(instance);
    throw;
  }
  bglFinalizeInstance(instance);
  return result;
}

SplitRunResult runSplitThroughput(const ProblemSpec& spec,
                                  const std::vector<phylo::LikelihoodOptions>& shardOptions,
                                  const phylo::SplitOptions& split) {
  if (spec.tips < 2) throw Error("runSplitThroughput: need >= 2 tips");
  if (shardOptions.empty()) throw Error("runSplitThroughput: no shards");

  Rng rng(spec.seed);
  const auto model = defaultModelForStates(spec.states, spec.seed);
  const phylo::Tree tree = phylo::Tree::random(spec.tips, rng);

  // Uniform random states with unit weights: the genomictest dataset shape
  // (pattern content does not affect kernel cost).
  PatternSet data;
  data.taxa = spec.tips;
  data.patterns = spec.patterns;
  data.states = phylo::randomStates(spec.tips, spec.patterns, spec.states, rng);
  data.weights.assign(static_cast<std::size_t>(spec.patterns), 1.0);
  data.originalSites = spec.patterns;

  phylo::SplitLikelihood like(tree, *model, data, shardOptions, split);

  SplitRunResult result;
  for (int w = 0; w < spec.warmupReps; ++w) result.logL = like.logLikelihood(tree);

  double best = 1e300;
  for (int r = 0; r < spec.reps; ++r) {
    const double t0 = now();
    result.logL = like.logLikelihood(tree);
    best = std::min(best, now() - t0);
  }

  result.seconds = best;
  result.gflops = evaluationFlops(spec) / best / 1e9;
  result.rebalances = like.rebalanceCount();
  result.failovers = like.failoverCount();
  result.cpuFallback = like.usedCpuFallback();
  result.quarantined = like.quarantinedShards();
  result.shardPatterns = like.shardPatternCounts();
  result.implNames.reserve(static_cast<std::size_t>(like.shardCount()));
  result.shardErrors.reserve(static_cast<std::size_t>(like.shardCount()));
  for (int s = 0; s < like.shardCount(); ++s) {
    result.implNames.push_back(like.implName(s));
    result.shardErrors.push_back(like.shardError(s));
  }

  if (spec.validateSplitReference) {
    // Serial host-CPU single-instance reference over the same (tree, model,
    // data). When a single shard survived a failover it holds every pattern
    // in original index order, so the split result must match bitwise.
    phylo::LikelihoodOptions ref = shardOptions.front();
    ref.resources = {0};
    ref.preferenceFlags = 0;
    ref.requirementFlags =
        BGL_FLAG_FRAMEWORK_CPU | BGL_FLAG_THREADING_NONE | BGL_FLAG_VECTOR_NONE |
        (spec.singlePrecision ? BGL_FLAG_PRECISION_SINGLE
                              : BGL_FLAG_PRECISION_DOUBLE);
    ref.traceFile.clear();
    ref.statsFile.clear();
    phylo::TreeLikelihood reference(tree, *model, data, ref);
    result.referenceLogL = reference.logLikelihood(tree);
    result.referenceComputed = true;
    result.referenceExact = result.logL == result.referenceLogL;
  }
  return result;
}

namespace {

/// The synthetic phylogenomic dataset of the partitioned runs.
struct PartitionedProblem {
  phylo::Tree tree;
  std::vector<std::unique_ptr<SubstitutionModel>> models;
  std::vector<phylo::PartitionSpec> specs;
};

/// One synthetic gene per partition: its own substitution model (distinct
/// parameter seed) over its own slice of `spec.patterns`, all sharing one
/// random tree.
PartitionedProblem makePartitionedProblem(const ProblemSpec& spec, int partitions) {
  if (spec.tips < 3) throw Error("partitioned run: need >= 3 tips");
  if (partitions < 1) throw Error("partitioned run: need >= 1 partition");
  if (spec.patterns < partitions) {
    throw Error("partitioned run: need >= 1 pattern per partition");
  }
  Rng rng(spec.seed);
  PartitionedProblem problem;
  problem.tree = phylo::Tree::random(spec.tips, rng);
  const long precisionFlag =
      spec.singlePrecision ? BGL_FLAG_PRECISION_SINGLE : BGL_FLAG_PRECISION_DOUBLE;
  problem.specs.resize(static_cast<std::size_t>(partitions));
  for (int q = 0; q < partitions; ++q) {
    const int begin = static_cast<int>(
        static_cast<long long>(q) * spec.patterns / partitions);
    const int end = static_cast<int>(
        static_cast<long long>(q + 1) * spec.patterns / partitions);
    const int patterns = end - begin;
    auto& part = problem.specs[static_cast<std::size_t>(q)];
    part.data.taxa = spec.tips;
    part.data.patterns = patterns;
    part.data.states =
        phylo::randomStates(spec.tips, patterns, spec.states, rng);
    part.data.weights.assign(static_cast<std::size_t>(patterns), 1.0);
    part.data.originalSites = patterns;
    problem.models.push_back(defaultModelForStates(spec.states, spec.seed + q));
    part.model = problem.models.back().get();
    part.options.categories = spec.categories;
    part.options.resources = {spec.resource};
    part.options.preferenceFlags = spec.preferenceFlags;
    part.options.requirementFlags = spec.requirementFlags | precisionFlag;
  }
  return problem;
}

/// Warm up, then time spec.reps rounds; `round()` evaluates every partition
/// once into `logLs` and returns the round's device seconds (0 when
/// nothing is modeled, in which case wall time is the time base). Fills
/// the timing, FLOP and logL fields of `result`.
template <class Round>
void timeRounds(const ProblemSpec& spec, const PartitionedProblem& problem,
                Round round, const std::vector<double>& logLs,
                PartitionedRunResult& result) {
  result.partitions = static_cast<int>(problem.specs.size());
  for (int w = 0; w < spec.warmupReps; ++w) round();
  double bestSeconds = 1e300;
  double bestWall = 1e300;
  for (int r = 0; r < spec.reps; ++r) {
    const double t0 = now();
    const double modeled = round();
    const double wall = now() - t0;
    bestWall = std::min(bestWall, wall);
    bestSeconds = std::min(bestSeconds, modeled > 0.0 ? modeled : wall);
  }
  result.seconds = bestSeconds;
  result.measuredSeconds = bestWall;
  for (const auto& part : problem.specs) {
    result.flops += (spec.tips - 1) * kernels::partialsFlops(part.data.patterns,
                                                             spec.categories, spec.states);
  }
  result.gflops = result.flops / result.seconds / 1e9;
  result.partitionLogL = logLs;
  for (double v : logLs) result.logL += v;
}

}  // namespace

PartitionedRunResult runPartitionedThroughput(const ProblemSpec& spec, int partitions,
                                              const phylo::PartitionOptions& options,
                                              bool validateReference) {
  const PartitionedProblem problem = makePartitionedProblem(spec, partitions);
  const phylo::Tree& tree = problem.tree;
  phylo::PartitionedLikelihood like(tree, problem.specs, options);

  PartitionedRunResult result;
  timeRounds(spec, problem, [&] {
    like.logLikelihood(tree);
    // lastModeledSeconds() sums per-instance device time (roofline-modeled
    // on simulated profiles) — the honest time base when instances run
    // concurrently on distinct (or shared simulated) devices.
    return like.lastModeledSeconds();
  }, like.partitionLogLikelihoods(), result);
  result.instances = like.instanceCount();
  result.peakConcurrency = like.peakConcurrency();
  result.kernelLaunches = like.lastKernelLaunches();
  result.failovers = like.failoverCount();
  result.rebalances = like.rebalanceCount();
  result.implNames.reserve(static_cast<std::size_t>(partitions));
  for (int q = 0; q < partitions; ++q) result.implNames.push_back(like.implName(q));

  if (validateReference) {
    // Per-instance reference: one single-partition instance per slice with
    // the options each partition runs with NOW (after a CPU fallback, the
    // host-CPU options). Concatenating partitions onto one pattern axis
    // must not change any partition's log likelihood, so the comparison is
    // bitwise — within one implementation family, not across families
    // (cross-family agreement is only ~1e-9).
    result.referenceComputed = true;
    result.referenceExact = true;
    for (int q = 0; q < partitions; ++q) {
      const auto& part = problem.specs[static_cast<std::size_t>(q)];
      phylo::TreeLikelihood reference(tree, *part.model, part.data,
                                      like.partitionOptions(q));
      const double refLogL = reference.logLikelihood(tree);
      result.referenceLogL += refLogL;
      if (refLogL != result.partitionLogL[static_cast<std::size_t>(q)]) {
        result.referenceExact = false;
      }
    }
  }
  return result;
}

PartitionedRunResult runPerInstanceThroughput(const ProblemSpec& spec, int partitions) {
  const PartitionedProblem problem = makePartitionedProblem(spec, partitions);
  const phylo::Tree& tree = problem.tree;
  std::vector<std::unique_ptr<phylo::TreeLikelihood>> instances;
  instances.reserve(problem.specs.size());
  for (const auto& part : problem.specs) {
    instances.push_back(std::make_unique<phylo::TreeLikelihood>(tree, *part.model,
                                                                part.data, part.options));
  }

  PartitionedRunResult result;
  std::vector<double> logLs(problem.specs.size(), 0.0);
  timeRounds(spec, problem, [&] {
    // Per instance: modeled timeline seconds when the implementation has
    // them, wall time otherwise; summed like lastModeledSeconds().
    double seconds = 0.0;
    result.kernelLaunches = 0;
    for (std::size_t q = 0; q < instances.size(); ++q) {
      const int instance = instances[q]->instance();
      const bool timeline = bglResetTimeline(instance) == BGL_SUCCESS;
      const double t0 = now();
      logLs[q] = instances[q]->logLikelihood(tree);
      double instanceSeconds = now() - t0;
      BglTimeline tl{};
      if (timeline && bglGetTimeline(instance, &tl) == BGL_SUCCESS) {
        result.kernelLaunches += tl.kernelLaunches;
        if (tl.modeledSeconds > 0.0) instanceSeconds = tl.modeledSeconds;
      }
      seconds += instanceSeconds;
    }
    return seconds;
  }, logLs, result);
  result.instances = static_cast<int>(instances.size());
  result.peakConcurrency = 1;
  for (const auto& instance : instances) result.implNames.push_back(instance->implName());
  return result;
}

}  // namespace bgl::harness
