// Partition-blind entry points on a multi-partition instance (the contract
// documented at bglSetPatternPartitions in api/bgl.h): bglUpdatePartials and
// bglCalculateRootLogLikelihoods operate on the whole pattern axis, so on an
// instance split into partitions they must reproduce a fresh
// single-partition instance bit for bit — on every implementation family,
// in sync, async and pipelined modes, with scaling on. Plus: a rejected
// scale-factor accumulation or removal leaves the cumulative buffer
// untouched on every family.
#include <gtest/gtest.h>

#include <cmath>
#include <iterator>
#include <memory>
#include <string>
#include <tuple>
#include <vector>

#include "api/bgl.h"
#include "core/gamma.h"
#include "core/model.h"
#include "core/rng.h"
#include "perfmodel/device_profiles.h"
#include "phylo/seqsim.h"
#include "phylo/tree.h"

namespace bgl {
namespace {

constexpr int kTips = 9;
constexpr int kPatterns = 700;  // above the CPU threading threshold (512)
constexpr int kCategories = 4;
constexpr int kThreads = 2;

struct FamilyConfig {
  const char* label;
  long requirementFlags;
  int resource;
};

// The six implementation families of the bitwise-parity contract.
const FamilyConfig kFamilies[] = {
    {"cpu_serial", BGL_FLAG_THREADING_NONE | BGL_FLAG_VECTOR_NONE, perf::kHostCpu},
    {"cpu_futures", BGL_FLAG_THREADING_FUTURES, perf::kHostCpu},
    {"cpu_thread_create", BGL_FLAG_THREADING_THREAD_CREATE, perf::kHostCpu},
    {"cpu_thread_pool", BGL_FLAG_THREADING_THREAD_POOL, perf::kHostCpu},
    {"cuda", BGL_FLAG_FRAMEWORK_CUDA, perf::kQuadroP5000},
    {"opencl", BGL_FLAG_FRAMEWORK_OPENCL, perf::kRadeonR9Nano},
};

const long kModes[] = {
    BGL_FLAG_COMPUTATION_SYNCH,
    BGL_FLAG_COMPUTATION_ASYNCH,
    BGL_FLAG_COMPUTATION_ASYNCH | BGL_FLAG_COMPUTATION_PIPELINE,
};
const char* kModeNames[] = {"sync", "async", "pipelined"};

/// Random tree and uniformly random tip states: tiny site likelihoods, so
/// the per-node rescaling is exercised.
struct Problem {
  phylo::Tree tree;
  std::unique_ptr<SubstitutionModel> model;
  std::vector<int> states;  // taxa x patterns, row-major per taxon
  std::vector<double> weights;

  Problem() {
    Rng rng(18018);
    tree = phylo::Tree::random(kTips, rng, 0.3);
    model = defaultModelForStates(4, 18);
    states = phylo::randomStates(kTips, kPatterns, 4, rng);
    weights.resize(kPatterns);
    for (auto& w : weights) w = 1.0 + rng.belowInt(3);
  }

  int internalNodes() const { return tree.nodeCount() - kTips; }
  int cumulativeScale() const { return internalNodes(); }
};

/// An instance with the problem's data, model and transition matrices;
/// returns a negative code when the family is unavailable.
int createInstance(const Problem& p, const FamilyConfig& family, long mode) {
  const int resource = family.resource;
  const int inst = bglCreateInstance(
      kTips, p.internalNodes(), kTips, 4, kPatterns, 1, p.tree.nodeCount(),
      kCategories, p.internalNodes() + 1, &resource, 1, 0,
      family.requirementFlags | BGL_FLAG_PRECISION_DOUBLE | mode, nullptr);
  if (inst < 0) return inst;
  for (int t = 0; t < kTips; ++t) {
    EXPECT_EQ(bglSetTipStates(inst, t, p.states.data() + t * kPatterns), BGL_SUCCESS);
  }
  const auto es = p.model->eigenSystem();
  EXPECT_EQ(bglSetEigenDecomposition(inst, 0, es.evec.data(), es.ivec.data(),
                                     es.eval.data()),
            BGL_SUCCESS);
  EXPECT_EQ(bglSetStateFrequencies(inst, 0, p.model->frequencies().data()),
            BGL_SUCCESS);
  const std::vector<double> catWeights(kCategories, 1.0 / kCategories);
  EXPECT_EQ(bglSetCategoryWeights(inst, 0, catWeights.data()), BGL_SUCCESS);
  EXPECT_EQ(bglSetCategoryRates(inst, discreteGammaRates(0.5, kCategories).data()),
            BGL_SUCCESS);
  EXPECT_EQ(bglSetPatternWeights(inst, p.weights.data()), BGL_SUCCESS);
  // Engages intra-operation threading on the threaded CPU families; the
  // reference instance gets the same setting, so the return code is moot.
  bglSetThreadCount(inst, kThreads);
  return inst;
}

/// One partition-blind round: matrices at the given length scale, a
/// whole-tree update with per-node scaling, and the root integration.
double evaluateRound(int inst, const Problem& p, double lengthScale,
                     std::vector<double>& sites) {
  std::vector<int> nodes;
  std::vector<double> lengths;
  p.tree.matrixUpdates(nodes, lengths);
  for (auto& l : lengths) l *= lengthScale;
  EXPECT_EQ(bglUpdateTransitionMatrices(inst, 0, nodes.data(), nullptr, nullptr,
                                        lengths.data(), static_cast<int>(nodes.size())),
            BGL_SUCCESS);
  const int cum = p.cumulativeScale();
  EXPECT_EQ(bglResetScaleFactors(inst, cum), BGL_SUCCESS);
  const auto ops = p.tree.operations(/*scaleWrite=*/true);
  EXPECT_EQ(bglUpdatePartials(inst, ops.data(), static_cast<int>(ops.size()), cum),
            BGL_SUCCESS);
  const int root = p.tree.root();
  const int slot = 0;
  double logL = 0.0;
  EXPECT_EQ(bglCalculateRootLogLikelihoods(inst, &root, &slot, &slot, &cum, 1, &logL),
            BGL_SUCCESS);
  sites.assign(kPatterns, 0.0);
  EXPECT_EQ(bglGetSiteLogLikelihoods(inst, sites.data()), BGL_SUCCESS);
  return logL;
}

class PartitionWholeAxis : public ::testing::TestWithParam<std::tuple<int, int>> {};

TEST_P(PartitionWholeAxis, MatchesSinglePartitionInstance) {
  const auto [familyIndex, modeIndex] = GetParam();
  const FamilyConfig& family = kFamilies[familyIndex];
  const long mode = kModes[modeIndex];
  const Problem p;

  const int split = createInstance(p, family, mode);
  if (split < 0) GTEST_SKIP() << family.label << " unavailable (code " << split << ")";
  const int single = createInstance(p, family, mode);
  ASSERT_GE(single, 0);

  // Three block-misaligned partitions: 250 + 270 + 180 patterns.
  std::vector<int> map(kPatterns, 0);
  for (int k = 250; k < kPatterns; ++k) map[k] = k < 520 ? 1 : 2;
  ASSERT_EQ(bglSetPatternPartitions(split, 3, map.data()), BGL_SUCCESS);

  // Two rounds, so pipelined mode alternates its result buffers.
  for (const double lengthScale : {1.0, 1.7}) {
    std::vector<double> splitSites, singleSites;
    const double splitL = evaluateRound(split, p, lengthScale, splitSites);
    const double singleL = evaluateRound(single, p, lengthScale, singleSites);
    ASSERT_TRUE(std::isfinite(singleL));
    EXPECT_EQ(splitL, singleL)  // bitwise, not NEAR
        << family.label << " " << kModeNames[modeIndex] << " scale " << lengthScale;
    EXPECT_EQ(splitSites, singleSites) << family.label << " " << kModeNames[modeIndex];
  }
  bglFinalizeInstance(split);
  bglFinalizeInstance(single);
}

std::string wholeAxisName(const ::testing::TestParamInfo<std::tuple<int, int>>& info) {
  const auto [familyIndex, modeIndex] = info.param;
  return std::string(kFamilies[familyIndex].label) + "_" + kModeNames[modeIndex];
}

INSTANTIATE_TEST_SUITE_P(
    AllFamilies, PartitionWholeAxis,
    ::testing::Combine(::testing::Range(0, static_cast<int>(std::size(kFamilies))),
                       ::testing::Range(0, static_cast<int>(std::size(kModes)))),
    wholeAxisName);

class ScaleAtomicity : public ::testing::TestWithParam<int> {};

TEST_P(ScaleAtomicity, RejectedCallLeavesCumulativeUnchanged) {
  const FamilyConfig& family = kFamilies[GetParam()];
  const Problem p;
  const int inst = createInstance(p, family, BGL_FLAG_COMPUTATION_ASYNCH);
  if (inst < 0) GTEST_SKIP() << family.label << " unavailable (code " << inst << ")";
  std::vector<double> sites;
  const double before = evaluateRound(inst, p, 1.0, sites);
  ASSERT_TRUE(std::isfinite(before));

  // A valid scale buffer followed by an invalid one: each call must be
  // rejected before folding in the valid one. Checked after each call —
  // a leaked accumulate followed by a leaked remove could cancel out.
  const int cum = p.cumulativeScale();
  const int indices[2] = {0, p.internalNodes() + 1};
  const int root = p.tree.root();
  const int slot = 0;
  auto rootLogL = [&] {
    double logL = 0.0;
    EXPECT_EQ(bglCalculateRootLogLikelihoods(inst, &root, &slot, &slot, &cum, 1, &logL),
              BGL_SUCCESS);
    return logL;
  };
  EXPECT_EQ(bglAccumulateScaleFactors(inst, indices, 2, cum), BGL_ERROR_OUT_OF_RANGE);
  EXPECT_EQ(rootLogL(), before) << family.label << " after accumulate";
  EXPECT_EQ(bglRemoveScaleFactors(inst, indices, 2, cum), BGL_ERROR_OUT_OF_RANGE);
  EXPECT_EQ(rootLogL(), before) << family.label << " after remove";
  bglFinalizeInstance(inst);
}

INSTANTIATE_TEST_SUITE_P(
    AllFamilies, ScaleAtomicity,
    ::testing::Range(0, static_cast<int>(std::size(kFamilies))),
    [](const ::testing::TestParamInfo<int>& info) {
      return std::string(kFamilies[info.param].label);
    });

}  // namespace
}  // namespace bgl
