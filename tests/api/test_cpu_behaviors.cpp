// Behavioural tests for the CPU implementation family: dependency handling
// in the futures scheduler, the pattern-count threading threshold, thread
// count control, direct transition-matrix usage (no eigendecomposition),
// multi-subset root evaluation, scale-factor arithmetic, and pattern-slab
// threading parity on partitioned batches.
#include <gtest/gtest.h>

#include <cmath>
#include <iterator>
#include <string>
#include <tuple>
#include <vector>

#include "api/bglxx.h"
#include "core/gamma.h"
#include "core/model.h"
#include "core/rng.h"
#include "harness/genomictest.h"
#include "perfmodel/device_profiles.h"
#include "phylo/likelihood.h"
#include "phylo/seqsim.h"
#include "tests/test_util.h"

namespace bgl {
namespace {

TEST(FuturesScheduler, DiamondDependenciesComputeCorrectly) {
  // Balanced trees give the futures implementation several operations per
  // level; the result must match the serial implementation exactly even
  // when operations race within a level.
  auto problem = test::makeNucleotideProblem(32, 700, 1234);
  phylo::LikelihoodOptions serial, futures;
  serial.requirementFlags = BGL_FLAG_THREADING_NONE | BGL_FLAG_VECTOR_NONE;
  futures.requirementFlags = BGL_FLAG_THREADING_FUTURES;
  phylo::TreeLikelihood a(problem.tree, *problem.model, problem.data, serial);
  phylo::TreeLikelihood b(problem.tree, *problem.model, problem.data, futures);
  for (int round = 0; round < 3; ++round) {
    // Re-evaluate repeatedly: scheduling differs between rounds.
    EXPECT_DOUBLE_EQ(a.logLikelihood(), b.logLikelihood());
  }
}

TEST(FuturesScheduler, ChainedOperationsRespectOrder) {
  // A caterpillar chain has strictly dependent operations: the futures
  // level analysis must serialize them (wrong ordering would corrupt
  // results deterministically).
  harness::ProblemSpec spec;
  spec.tips = 12;
  spec.patterns = 800;
  spec.requirementFlags = BGL_FLAG_THREADING_FUTURES;
  spec.balancedTopology = false;  // force the dependent chain
  spec.internalBufferPool = 3;
  const auto futures = harness::runThroughput(spec);

  spec.requirementFlags = BGL_FLAG_THREADING_NONE | BGL_FLAG_VECTOR_NONE;
  const auto serial = harness::runThroughput(spec);
  EXPECT_EQ(futures.logL, serial.logL);  // bitwise
}

TEST(ThreadingThreshold, SmallProblemsUseSerialPathButStayCorrect) {
  // Below the 512-pattern threshold (Section VI-B) the threaded
  // implementations fall back to in-place execution.
  auto problem = test::makeNucleotideProblem(6, 160, 77);
  ASSERT_LT(problem.data.patterns, 512);
  phylo::LikelihoodOptions serial, pool, create;
  serial.requirementFlags = BGL_FLAG_THREADING_NONE | BGL_FLAG_VECTOR_NONE;
  pool.requirementFlags = BGL_FLAG_THREADING_THREAD_POOL | BGL_FLAG_VECTOR_NONE;
  create.requirementFlags = BGL_FLAG_THREADING_THREAD_CREATE;
  phylo::TreeLikelihood a(problem.tree, *problem.model, problem.data, serial);
  phylo::TreeLikelihood b(problem.tree, *problem.model, problem.data, pool);
  phylo::TreeLikelihood c(problem.tree, *problem.model, problem.data, create);
  EXPECT_EQ(a.logLikelihood(), b.logLikelihood());
  EXPECT_EQ(a.logLikelihood(), c.logLikelihood());
}

TEST(ThreadingThreshold, LargeProblemsSplitAcrossThreadsCorrectly) {
  Rng rng(5);
  auto tree = phylo::Tree::random(14, rng, 0.4);
  HKY85Model model(2.0, {0.25, 0.25, 0.25, 0.25});
  auto data = phylo::simulatePatterns(tree, model, 4000, rng);
  ASSERT_GT(data.patterns, 512);

  phylo::LikelihoodOptions serial;
  serial.requirementFlags = BGL_FLAG_THREADING_NONE | BGL_FLAG_VECTOR_NONE;
  phylo::TreeLikelihood a(tree, model, data, serial);
  for (long threading : {BGL_FLAG_THREADING_THREAD_POOL, BGL_FLAG_THREADING_THREAD_CREATE}) {
    phylo::LikelihoodOptions threaded;
    threaded.requirementFlags = threading | BGL_FLAG_VECTOR_NONE;
    phylo::TreeLikelihood b(tree, model, data, threaded);
    for (int threads : {1, 2, 3, 7}) {
      ASSERT_EQ(bglSetThreadCount(b.instance(), threads), BGL_SUCCESS);
      EXPECT_EQ(a.logLikelihood(), b.logLikelihood())
          << b.implName() << " " << threads << " threads";
    }
  }
}

TEST(DirectMatrices, LikelihoodWithoutEigendecomposition) {
  // Client programs may compute transition matrices themselves and push
  // them with bglSetTransitionMatrix: no eigen slot involvement.
  const JC69Model model;
  const auto es = model.eigenSystem();
  const int patterns = 4;
  bgl::xx::Instance inst(2, 1, 2, 4, patterns, 1, 2, 1, 0);
  inst.setTipStates(0, {0, 1, 2, 3});
  inst.setTipStates(1, {0, 1, 2, 0});
  inst.setStateFrequencies(0, model.frequencies());
  inst.setCategoryWeights(0, {1.0});
  inst.setCategoryRates({1.0});
  inst.setPatternWeights(std::vector<double>(patterns, 1.0));

  // Reference path: library computes P(t).
  inst.setEigenDecomposition(0, es.evec, es.ivec, es.eval);
  inst.updateTransitionMatrices(0, {0, 1}, {0.1, 0.2});
  inst.updatePartials({BglOperation{2, BGL_OP_NONE, BGL_OP_NONE, 0, 0, 1, 1}});
  const double viaEigen = inst.rootLogLikelihood(2);

  // Direct path: host-computed matrices.
  const auto p0 = transitionMatrix(es, 0.1);
  const auto p1 = transitionMatrix(es, 0.2);
  ASSERT_EQ(bglSetTransitionMatrix(inst.id(), 0, p0.data(), 1.0), BGL_SUCCESS);
  ASSERT_EQ(bglSetTransitionMatrix(inst.id(), 1, p1.data(), 1.0), BGL_SUCCESS);
  inst.updatePartials({BglOperation{2, BGL_OP_NONE, BGL_OP_NONE, 0, 0, 1, 1}});
  const double viaDirect = inst.rootLogLikelihood(2);
  EXPECT_NEAR(viaDirect, viaEigen, std::abs(viaEigen) * 1e-12);
}

class MultiSubsetRoot : public ::testing::TestWithParam<long> {};

TEST_P(MultiSubsetRoot, CountTwoSumsBothSubsets) {
  // calculateRootLogLikelihoods with count=2: two root buffers with
  // different frequency/weight slots; the result is the sum.
  auto problem = test::makeNucleotideProblem(4, 100, 3);
  const int resource = 0;
  phylo::LikelihoodOptions opts;
  opts.categories = 2;
  opts.requirementFlags = GetParam();
  opts.resources = {resource};
  phylo::TreeLikelihood like(problem.tree, *problem.model, problem.data, opts);
  const double single = like.logLikelihood();

  const int roots[2] = {like.tree().root(), like.tree().root()};
  const int zeros[2] = {0, 0};
  double combined = 0.0;
  ASSERT_EQ(bglCalculateRootLogLikelihoods(like.instance(), roots, zeros, zeros,
                                           nullptr, 2, &combined),
            BGL_SUCCESS);
  EXPECT_NEAR(combined, 2.0 * single, std::abs(single) * 1e-9);
}

INSTANTIATE_TEST_SUITE_P(Implementations, MultiSubsetRoot,
                         ::testing::Values(BGL_FLAG_THREADING_NONE,
                                           BGL_FLAG_FRAMEWORK_CUDA,
                                           BGL_FLAG_FRAMEWORK_OPENCL));

class ScaleArithmetic : public ::testing::TestWithParam<long> {};

TEST_P(ScaleArithmetic, RemoveUndoesAccumulate) {
  // Drive real factors through rescaling operations, then verify
  // accumulate followed by remove restores the original cumulative buffer
  // (observable through the root log-likelihood).
  Rng rng(8);
  auto tree = phylo::Tree::random(8, rng, 0.3);
  HKY85Model model(2.0, {0.25, 0.25, 0.25, 0.25});
  auto data = phylo::simulatePatterns(tree, model, 150, rng);

  phylo::LikelihoodOptions opts;
  opts.useScaling = true;
  opts.requirementFlags = GetParam();
  opts.resources = {0};
  phylo::TreeLikelihood like(tree, model, data, opts);
  const double base = like.logLikelihood();

  // Accumulate node 0's factors a second time, then remove them: logL via
  // the cumulative index must return to its original value.
  const int cumIndex = tree.tipCount() - 1;
  const int nodeScale = 0;
  const int root = tree.root();
  const int zero = 0;
  double doubled = 0.0, restored = 0.0;
  ASSERT_EQ(bglAccumulateScaleFactors(like.instance(), &nodeScale, 1, cumIndex),
            BGL_SUCCESS);
  ASSERT_EQ(bglCalculateRootLogLikelihoods(like.instance(), &root, &zero, &zero,
                                           &cumIndex, 1, &doubled),
            BGL_SUCCESS);
  ASSERT_EQ(bglRemoveScaleFactors(like.instance(), &nodeScale, 1, cumIndex),
            BGL_SUCCESS);
  ASSERT_EQ(bglCalculateRootLogLikelihoods(like.instance(), &root, &zero, &zero,
                                           &cumIndex, 1, &restored),
            BGL_SUCCESS);
  EXPECT_NEAR(restored, base, std::abs(base) * 1e-10);
  // The doubled accumulation must actually have changed something (the
  // tree is long-branched enough that node 0's factors are non-zero).
  EXPECT_NE(doubled, base);
}

INSTANTIATE_TEST_SUITE_P(Implementations, ScaleArithmetic,
                         ::testing::Values(BGL_FLAG_THREADING_NONE,
                                           BGL_FLAG_FRAMEWORK_OPENCL));

TEST(GammaRates, MoreCategoriesChangesLikelihood) {
  // Discrete-gamma heterogeneity must have an effect on real data, and the
  // effect must agree between CPU and accelerator paths.
  auto problem = test::makeNucleotideProblem(8, 400, 12);
  double values[2];
  for (int i = 0; i < 2; ++i) {
    phylo::LikelihoodOptions opts;
    opts.categories = i == 0 ? 1 : 8;
    opts.alpha = 0.3;
    phylo::TreeLikelihood like(problem.tree, *problem.model, problem.data, opts);
    values[i] = like.logLikelihood();
  }
  EXPECT_NE(values[0], values[1]);
}

TEST(Harness, CaterpillarAndBalancedTopologiesBothRun) {
  for (bool balanced : {true, false}) {
    harness::ProblemSpec spec;
    spec.tips = 10;
    spec.patterns = 300;
    spec.balancedTopology = balanced;
    spec.internalBufferPool = 2;
    spec.reps = 1;
    const auto result = harness::runThroughput(spec);
    EXPECT_GT(result.gflops, 0.0);
    EXPECT_TRUE(std::isfinite(result.logL));
  }
}

// Pattern-slab threading parity: the threaded CPU families must reproduce
// CPU-serial bit for bit on partitioned batches whose partition bounds do
// not fall on slab bounds, including batches where one partition's
// operations write the same scale buffer twice and where a later operation
// overwrites a buffer an earlier one read.
namespace slab {

constexpr int kTips = 6;
constexpr int kInternal = 6;          // partials buffers kTips .. kTips + 5
constexpr int kScaleBuffers = 7;      // six per-operation + the cumulative one
constexpr int kCumulative = kScaleBuffers - 1;
constexpr int kMatrices = 10;
constexpr int kPatterns = 700;
constexpr int kCategories = 4;
constexpr int kPartitions = 3;

/// One operation of the per-partition template: destination, scale write,
/// children and their matrices.
struct Step {
  int dest, scale, child1, matrix1, child2, matrix2;
};

// (a) two operations of each partition write scale buffer 0; root 10.
const std::vector<Step> kRepeatedScale = {
    {6, 0, 0, 0, 1, 1}, {7, 0, 2, 2, 3, 3}, {8, 1, 6, 4, 7, 5},
    {9, 2, 8, 6, 4, 7}, {10, 3, 9, 8, 5, 9}};
// (b) a caterpillar through two rotating buffers: each operation
// overwrites the buffer the one before it read; root 6.
const std::vector<Step> kBufferReuse = {
    {6, 0, 0, 0, 1, 1}, {7, 1, 6, 2, 2, 3}, {6, 2, 7, 4, 3, 5},
    {7, 3, 6, 6, 4, 7}, {6, 4, 7, 8, 5, 9}};

struct Shape {
  const char* name;
  const std::vector<Step>* steps;
  int root;
};
const Shape kShapes[] = {{"repeated_scale", &kRepeatedScale, 10},
                         {"buffer_reuse", &kBufferReuse, 6}};

struct Family {
  const char* name;
  long flags;
};
const Family kThreaded[] = {{"futures", BGL_FLAG_THREADING_FUTURES},
                            {"create", BGL_FLAG_THREADING_THREAD_CREATE},
                            {"pool", BGL_FLAG_THREADING_THREAD_POOL}};
const long kModes[] = {BGL_FLAG_COMPUTATION_SYNCH, BGL_FLAG_COMPUTATION_ASYNCH};
const char* kModeNames[] = {"sync", "async"};
const int kThreadCounts[] = {1, 2, 3, 7};

/// A 3-partition instance (250 + 270 + 180 patterns) with random tip states;
/// returns a negative code when the family is unavailable.
int createInstance(long flags, long mode, int threads) {
  const int resource = perf::kHostCpu;
  const int instance = bglCreateInstance(
      kTips, kInternal, kTips, 4, kPatterns, 1, kMatrices, kCategories,
      kScaleBuffers, &resource, 1, 0,
      flags | BGL_FLAG_VECTOR_NONE | BGL_FLAG_PRECISION_DOUBLE | mode, nullptr);
  if (instance < 0) return instance;
  Rng rng(2024);
  const auto states = phylo::randomStates(kTips, kPatterns, 4, rng);
  for (int t = 0; t < kTips; ++t) {
    EXPECT_EQ(bglSetTipStates(instance, t, states.data() + t * kPatterns), BGL_SUCCESS);
  }
  const auto model = defaultModelForStates(4, 7);
  const auto es = model->eigenSystem();
  EXPECT_EQ(bglSetEigenDecomposition(instance, 0, es.evec.data(), es.ivec.data(),
                                     es.eval.data()),
            BGL_SUCCESS);
  EXPECT_EQ(bglSetStateFrequencies(instance, 0, model->frequencies().data()),
            BGL_SUCCESS);
  const std::vector<double> catWeights(kCategories, 1.0 / kCategories);
  EXPECT_EQ(bglSetCategoryWeights(instance, 0, catWeights.data()), BGL_SUCCESS);
  EXPECT_EQ(bglSetCategoryRates(instance, discreteGammaRates(0.5, kCategories).data()),
            BGL_SUCCESS);
  std::vector<double> weights(kPatterns);
  for (auto& w : weights) w = 1.0 + rng.belowInt(3);
  EXPECT_EQ(bglSetPatternWeights(instance, weights.data()), BGL_SUCCESS);
  std::vector<int> map(kPatterns, 0);
  for (int k = 250; k < kPatterns; ++k) map[k] = k < 520 ? 1 : 2;
  EXPECT_EQ(bglSetPatternPartitions(instance, kPartitions, map.data()), BGL_SUCCESS);
  bglSetThreadCount(instance, threads);  // UNIMPLEMENTED on CPU-serial
  return instance;
}

struct Round {
  std::vector<double> byPartition;
  double total = 0.0;
  std::vector<double> sites;
};

/// Matrices at the given length scale, the shape's batch for every
/// partition (operation-major, so partitions interleave), and the roots.
Round evaluate(int instance, const Shape& shape, double lengthScale) {
  std::vector<int> matrices(kMatrices);
  std::vector<double> lengths(kMatrices);
  for (int m = 0; m < kMatrices; ++m) {
    matrices[m] = m;
    lengths[m] = lengthScale * (0.05 + 0.04 * m);
  }
  EXPECT_EQ(bglUpdateTransitionMatrices(instance, 0, matrices.data(), nullptr, nullptr,
                                        lengths.data(), kMatrices),
            BGL_SUCCESS);
  EXPECT_EQ(bglResetScaleFactors(instance, kCumulative), BGL_SUCCESS);
  std::vector<BglOperationByPartition> ops;
  for (const Step& st : *shape.steps) {
    for (int q = 0; q < kPartitions; ++q) {
      ops.push_back({st.dest, st.scale, BGL_OP_NONE, st.child1, st.matrix1, st.child2,
                     st.matrix2, q});
    }
  }
  EXPECT_EQ(bglUpdatePartialsByPartition(instance, ops.data(),
                                         static_cast<int>(ops.size()), kCumulative),
            BGL_SUCCESS);
  const std::vector<int> roots(kPartitions, shape.root), zeros(kPartitions, 0),
      cums(kPartitions, kCumulative), partitions = {0, 1, 2};
  Round r;
  r.byPartition.assign(kPartitions, 0.0);
  EXPECT_EQ(bglCalculateRootLogLikelihoodsByPartition(
                instance, roots.data(), zeros.data(), zeros.data(), cums.data(),
                partitions.data(), kPartitions, r.byPartition.data(), &r.total),
            BGL_SUCCESS);
  r.sites.assign(kPatterns, 0.0);
  EXPECT_EQ(bglGetSiteLogLikelihoods(instance, r.sites.data()), BGL_SUCCESS);
  return r;
}

using Param = std::tuple<int, int, int, int>;  // family, threads, mode, shape

class SlabThreading : public ::testing::TestWithParam<Param> {};

TEST_P(SlabThreading, MatchesSerialBitwise) {
  const auto [familyIndex, threadIndex, modeIndex, shapeIndex] = GetParam();
  const Family& family = kThreaded[familyIndex];
  const long mode = kModes[modeIndex];
  const Shape& shape = kShapes[shapeIndex];
  const int threads = kThreadCounts[threadIndex];
  const int threaded = createInstance(family.flags, mode, threads);
  if (threaded < 0) GTEST_SKIP() << family.name << " unavailable (code " << threaded << ")";
  const int serial = createInstance(BGL_FLAG_THREADING_NONE, mode, threads);
  ASSERT_GE(serial, 0);
  for (const double lengthScale : {1.0, 1.7}) {
    const Round want = evaluate(serial, shape, lengthScale);
    const Round got = evaluate(threaded, shape, lengthScale);
    ASSERT_TRUE(std::isfinite(want.total));
    EXPECT_EQ(got.byPartition, want.byPartition) << "scale " << lengthScale;
    EXPECT_EQ(got.total, want.total) << "scale " << lengthScale;
    EXPECT_EQ(got.sites, want.sites) << "scale " << lengthScale;
  }
  bglFinalizeInstance(threaded);
  bglFinalizeInstance(serial);
}

std::string slabName(const ::testing::TestParamInfo<Param>& info) {
  const auto [familyIndex, threadIndex, modeIndex, shapeIndex] = info.param;
  return std::string(kThreaded[familyIndex].name) + "_t" +
         std::to_string(kThreadCounts[threadIndex]) + "_" + kModeNames[modeIndex] +
         "_" + kShapes[shapeIndex].name;
}

INSTANTIATE_TEST_SUITE_P(
    ThreadedCpu, SlabThreading,
    ::testing::Combine(::testing::Range(0, static_cast<int>(std::size(kThreaded))),
                       ::testing::Range(0, static_cast<int>(std::size(kThreadCounts))),
                       ::testing::Range(0, static_cast<int>(std::size(kModes))),
                       ::testing::Range(0, static_cast<int>(std::size(kShapes)))),
    slabName);

}  // namespace slab

}  // namespace
}  // namespace bgl
