// Single-instance multi-partition evaluation (PR 10): partitions batched
// onto one concatenated pattern axis must reproduce every partition's log
// likelihood BIT-FOR-BIT against a single-partition instance with the same
// options — on every implementation family, in sync, async and pipelined
// modes, with scaling on. Plus: per-partition failover, bounded evaluation
// concurrency, and cost-weighted resource auto-assignment.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <iterator>
#include <memory>
#include <string>
#include <tuple>
#include <vector>

#include "api/bgl.h"
#include "core/defs.h"
#include "core/model.h"
#include "core/rng.h"
#include "perfmodel/device_profiles.h"
#include "phylo/likelihood.h"
#include "phylo/partition.h"
#include "phylo/seqsim.h"
#include "phylo/tree.h"
#include "sched/sched.h"

namespace bgl::phylo {
namespace {

constexpr int kTips = 9;

struct Problem {
  Tree tree;
  std::vector<std::unique_ptr<SubstitutionModel>> models;
  std::vector<PartitionSpec> specs;
};

/// A small phylogenomic dataset: `patternCounts.size()` gene partitions,
/// each with its own substitution model, over one shared tree.
Problem makeProblem(const std::vector<int>& patternCounts, int states = 4) {
  Rng rng(7100);
  Problem p;
  p.tree = Tree::random(kTips, rng);
  for (std::size_t q = 0; q < patternCounts.size(); ++q) {
    p.models.push_back(defaultModelForStates(states, 7100 + static_cast<int>(q)));
    PartitionSpec spec;
    spec.model = p.models.back().get();
    spec.data = simulatePatterns(p.tree, *spec.model, patternCounts[q], rng);
    p.specs.push_back(std::move(spec));
  }
  return p;
}

struct FamilyConfig {
  const char* label;
  long requirementFlags;
  int resource;
};

// The six implementation families of the bitwise-parity contract
// (docs/PERFORMANCE.md): CPU serial, futures, thread-create, thread-pool,
// and the two accelerator runtimes on simulated device profiles.
const FamilyConfig kFamilies[] = {
    {"cpu-serial", BGL_FLAG_THREADING_NONE | BGL_FLAG_VECTOR_NONE, perf::kHostCpu},
    {"cpu-futures", BGL_FLAG_THREADING_FUTURES, perf::kHostCpu},
    {"cpu-thread-create", BGL_FLAG_THREADING_THREAD_CREATE, perf::kHostCpu},
    {"cpu-thread-pool", BGL_FLAG_THREADING_THREAD_POOL, perf::kHostCpu},
    {"cuda", BGL_FLAG_FRAMEWORK_CUDA, perf::kQuadroP5000},
    {"opencl", BGL_FLAG_FRAMEWORK_OPENCL, perf::kRadeonR9Nano},
};

const long kModes[] = {
    BGL_FLAG_COMPUTATION_SYNCH,
    BGL_FLAG_COMPUTATION_ASYNCH,
    BGL_FLAG_COMPUTATION_ASYNCH | BGL_FLAG_COMPUTATION_PIPELINE,
};
const char* kModeNames[] = {"sync", "async", "pipelined"};

class PartitionedBitIdentity
    : public ::testing::TestWithParam<std::tuple<int, int>> {};

TEST_P(PartitionedBitIdentity, MatchesPerInstanceReference) {
  const auto [familyIndex, modeIndex] = GetParam();
  const FamilyConfig& family = kFamilies[familyIndex];

  Problem p = makeProblem({150, 91, 200, 64, 139});
  for (auto& spec : p.specs) {
    spec.options.categories = 4;
    spec.options.useScaling = true;  // exercise per-partition scale ranges
    spec.options.resources = {family.resource};
    spec.options.requirementFlags = family.requirementFlags |
                                    BGL_FLAG_PRECISION_DOUBLE |
                                    kModes[modeIndex];
  }

  PartitionedLikelihood like(p.tree, p.specs, PartitionOptions{});
  // Same resource, same shape: everything batches into ONE instance.
  ASSERT_EQ(like.instanceCount(), 1) << family.label;
  const double total = like.logLikelihood(p.tree);
  ASSERT_TRUE(std::isfinite(total)) << family.label;

  double referenceTotal = 0.0;
  const auto& byPartition = like.partitionLogLikelihoods();
  ASSERT_EQ(byPartition.size(), p.specs.size());
  for (std::size_t q = 0; q < p.specs.size(); ++q) {
    TreeLikelihood reference(p.tree, *p.specs[q].model, p.specs[q].data,
                             p.specs[q].options);
    const double expected = reference.logLikelihood(p.tree);
    EXPECT_EQ(byPartition[q], expected)  // bitwise, not NEAR
        << family.label << " mode=" << kModeNames[modeIndex] << " partition=" << q;
    referenceTotal += expected;
  }
  EXPECT_EQ(total, referenceTotal) << family.label;
}

std::string bitIdentityName(const ::testing::TestParamInfo<std::tuple<int, int>>& info) {
  const auto [familyIndex, modeIndex] = info.param;
  std::string name = kFamilies[familyIndex].label;
  for (auto& c : name) {
    if (c == '-') c = '_';
  }
  return name + "_" + kModeNames[modeIndex];
}

INSTANTIATE_TEST_SUITE_P(
    AllFamilies, PartitionedBitIdentity,
    ::testing::Combine(::testing::Range(0, static_cast<int>(std::size(kFamilies))),
                       ::testing::Range(0, static_cast<int>(std::size(kModes)))),
    bitIdentityName);

// Partitions whose shapes differ (here: state counts) cannot share one
// pattern axis; they split into per-shape groups that are still exact.
TEST(PartitionedBatch, MixedShapesSplitIntoGroups) {
  Rng rng(7200);
  const Tree tree = Tree::random(kTips, rng);
  auto nucModel = defaultModelForStates(4, 11);
  auto aaModel = defaultModelForStates(20, 12);
  std::vector<PartitionSpec> specs(3);
  specs[0].model = nucModel.get();
  specs[0].data = simulatePatterns(tree, *nucModel, 120, rng);
  specs[1].model = aaModel.get();
  specs[1].data = simulatePatterns(tree, *aaModel, 75, rng);
  specs[2].model = nucModel.get();
  specs[2].data = simulatePatterns(tree, *nucModel, 80, rng);
  for (auto& spec : specs) {
    spec.options.categories = 4;
    spec.options.resources = {perf::kHostCpu};
    spec.options.requirementFlags =
        BGL_FLAG_THREADING_NONE | BGL_FLAG_VECTOR_NONE | BGL_FLAG_PRECISION_DOUBLE;
  }

  PartitionedLikelihood like(tree, specs, PartitionOptions{});
  EXPECT_EQ(like.instanceCount(), 2);
  EXPECT_EQ(like.groupOf(0), like.groupOf(2));  // both nucleotide partitions
  EXPECT_NE(like.groupOf(0), like.groupOf(1));
  like.logLikelihood(tree);
  for (std::size_t q = 0; q < specs.size(); ++q) {
    TreeLikelihood reference(tree, *specs[q].model, specs[q].data,
                             specs[q].options);
    EXPECT_EQ(like.partitionLogLikelihoods()[q], reference.logLikelihood(tree))
        << "partition " << q;
  }
}

// The point of the PR: launch count stays O(tree depth), not
// O(depth x partitions). On a simulated device the flight recorder counts
// the real grid launches of one round for both layouts.
TEST(PartitionedBatch, BatchedLaunchCountCollapses) {
  Problem p = makeProblem({64, 64, 64, 64, 64, 64, 64, 64});
  for (auto& spec : p.specs) {
    spec.options.categories = 4;
    spec.options.resources = {perf::kQuadroP5000};
    spec.options.requirementFlags =
        BGL_FLAG_FRAMEWORK_CUDA | BGL_FLAG_PRECISION_DOUBLE |
        BGL_FLAG_COMPUTATION_ASYNCH;
  }

  PartitionOptions batched;
  PartitionedLikelihood one(p.tree, p.specs, batched);
  const double batchedLogL = one.logLikelihood(p.tree);

  // Per-instance side: one TreeLikelihood per partition, each round's
  // launches read off the instance timeline.
  double perInstanceLogL = 0.0;
  std::uint64_t perInstanceLaunches = 0;
  for (const auto& spec : p.specs) {
    TreeLikelihood instance(p.tree, *spec.model, spec.data, spec.options);
    ASSERT_EQ(bglResetTimeline(instance.instance()), BGL_SUCCESS);
    perInstanceLogL += instance.logLikelihood(p.tree);
    BglTimeline timeline{};
    ASSERT_EQ(bglGetTimeline(instance.instance(), &timeline), BGL_SUCCESS);
    perInstanceLaunches += timeline.kernelLaunches;
  }

  EXPECT_EQ(batchedLogL, perInstanceLogL);  // same family, bitwise
  ASSERT_GT(one.lastKernelLaunches(), 0u);
  ASSERT_GT(perInstanceLaunches, 0u);
  // 8 partitions in one instance: well under half the per-partition count.
  EXPECT_LT(2 * one.lastKernelLaunches(), perInstanceLaunches);
}

// Partitioned evaluation costs the launches of a 1-partition evaluation:
// one matrix launch for every model, shared per-level partials launches,
// one root launch and one two-phase reduction for every partition. At
// 1,000 two-pattern partitions the round may exceed a 1-partition round by
// at most 3 launches, on both accelerator frameworks (scaling off).
TEST(PartitionedBatch, ThousandPartitionsCostOnePartitionsLaunches) {
  const FamilyConfig accelerators[] = {kFamilies[4], kFamilies[5]};
  const Problem many = makeProblem(std::vector<int>(1000, 2));
  const Problem one = makeProblem({2});
  for (const FamilyConfig& family : accelerators) {
    auto launchesPerRound = [&](const Problem& problem) {
      std::vector<PartitionSpec> specs = problem.specs;
      for (auto& spec : specs) {
        spec.options.categories = 4;
        spec.options.useScaling = false;
        spec.options.resources = {family.resource};
        spec.options.requirementFlags = family.requirementFlags |
                                        BGL_FLAG_PRECISION_DOUBLE |
                                        BGL_FLAG_COMPUTATION_ASYNCH;
      }
      PartitionedLikelihood like(problem.tree, specs, PartitionOptions{});
      EXPECT_EQ(like.instanceCount(), 1) << family.label;
      EXPECT_TRUE(std::isfinite(like.logLikelihood(problem.tree))) << family.label;
      return like.lastKernelLaunches();
    };
    const std::uint64_t single = launchesPerRound(one);
    const std::uint64_t thousand = launchesPerRound(many);
    ASSERT_GT(single, 0u) << family.label;
    EXPECT_LE(thousand, single + 3) << family.label;
  }
}

class PartitionedFailover : public ::testing::Test {
 protected:
  void TearDown() override { ASSERT_EQ(bglSetFaultSpec(""), BGL_SUCCESS); }
};

TEST_F(PartitionedFailover, DeadResourceRehomesItsPartitions) {
  Problem p = makeProblem({90, 110, 70});
  // Partitions 0 and 2 on the simulated CUDA device, partition 1 on the
  // serial host CPU. The injected launch fault kills the device group; its
  // partitions must re-home onto a surviving resource and stay exact.
  for (std::size_t q = 0; q < p.specs.size(); ++q) {
    p.specs[q].options.categories = 4;
    if (q == 1) {
      p.specs[q].options.resources = {perf::kHostCpu};
      p.specs[q].options.requirementFlags = BGL_FLAG_FRAMEWORK_CPU |
                                            BGL_FLAG_THREADING_NONE |
                                            BGL_FLAG_VECTOR_NONE |
                                            BGL_FLAG_PRECISION_DOUBLE;
    } else {
      p.specs[q].options.resources = {perf::kQuadroP5000};
      p.specs[q].options.requirementFlags =
          BGL_FLAG_FRAMEWORK_CUDA | BGL_FLAG_PRECISION_DOUBLE;
    }
  }

  PartitionOptions options;
  options.concurrent = false;  // deterministic fault firing order
  const auto before = sched::counters();
  PartitionedLikelihood like(p.tree, p.specs, options);
  ASSERT_EQ(like.instanceCount(), 2);

  ASSERT_EQ(bglSetFaultSpec("launch:1"), BGL_SUCCESS);
  const double total = like.logLikelihood(p.tree);
  ASSERT_TRUE(std::isfinite(total));
  EXPECT_GE(like.failoverCount(), 1);
  EXPECT_GE(sched::counters().failovers, before.failovers + 1);

  // Re-homed partitions keep their own flags, so the rebuilt groups still
  // produce per-partition values that match same-options references.
  for (std::size_t q = 0; q < p.specs.size(); ++q) {
    TreeLikelihood reference(p.tree, *p.specs[q].model, p.specs[q].data,
                             p.specs[q].options);
    EXPECT_EQ(like.partitionLogLikelihoods()[q], reference.logLikelihood(p.tree))
        << "partition " << q;
  }

  // Quarantine is permanent; later rounds run clean.
  ASSERT_EQ(bglSetFaultSpec(""), BGL_SUCCESS);
  EXPECT_EQ(like.logLikelihood(p.tree), total);
}

TEST_F(PartitionedFailover, AllResourcesDeadEngagesCpuFallback) {
  Problem p = makeProblem({90, 110});
  for (auto& spec : p.specs) {
    spec.options.categories = 4;
    spec.options.resources = {perf::kQuadroP5000};
    spec.options.requirementFlags =
        BGL_FLAG_FRAMEWORK_CUDA | BGL_FLAG_PRECISION_DOUBLE;
  }
  PartitionOptions options;
  options.concurrent = false;
  PartitionedLikelihood like(p.tree, p.specs, options);
  ASSERT_EQ(like.instanceCount(), 1);

  ASSERT_EQ(bglSetFaultSpec("launch:1"), BGL_SUCCESS);
  const double total = like.logLikelihood(p.tree);
  EXPECT_TRUE(like.usedCpuFallback());
  EXPECT_GE(like.failoverCount(), 1);

  // The fallback dropped the CUDA requirement: compare against host-CPU
  // references with the preserved precision.
  double expected = 0.0;
  for (auto& spec : p.specs) {
    LikelihoodOptions ref;
    ref.categories = spec.options.categories;
    ref.resources = {0};
    ref.requirementFlags = BGL_FLAG_FRAMEWORK_CPU | BGL_FLAG_PRECISION_DOUBLE;
    TreeLikelihood reference(p.tree, *spec.model, spec.data, ref);
    expected += reference.logLikelihood(p.tree);
  }
  EXPECT_EQ(total, expected);
}

TEST_F(PartitionedFailover, FailoverDisabledPropagatesTheError) {
  Problem p = makeProblem({90, 110});
  for (auto& spec : p.specs) {
    spec.options.categories = 4;
    spec.options.resources = {perf::kQuadroP5000};
    spec.options.requirementFlags =
        BGL_FLAG_FRAMEWORK_CUDA | BGL_FLAG_PRECISION_DOUBLE;
  }
  PartitionOptions options;
  options.concurrent = false;
  options.failover = false;
  PartitionedLikelihood like(p.tree, p.specs, options);

  ASSERT_EQ(bglSetFaultSpec("launch:1"), BGL_SUCCESS);
  try {
    like.logLikelihood(p.tree);
    FAIL() << "expected the injected fault to propagate";
  } catch (const Error& e) {
    EXPECT_EQ(e.code(), kErrHardware);
    EXPECT_NE(std::string(e.what()).find("fault"), std::string::npos);
  }
}

// A constructor that throws after building some groups must finalize
// them: partition 0's host-CPU group is built before partition 1's device
// group fails its first allocation.
TEST_F(PartitionedFailover, ThrowingConstructorFinalizesBuiltGroups) {
  Problem p = makeProblem({90, 110});
  for (auto& spec : p.specs) spec.options.categories = 4;
  p.specs[0].options.resources = {perf::kHostCpu};
  p.specs[0].options.requirementFlags = BGL_FLAG_FRAMEWORK_CPU |
                                        BGL_FLAG_THREADING_NONE |
                                        BGL_FLAG_VECTOR_NONE |
                                        BGL_FLAG_PRECISION_DOUBLE;
  p.specs[1].options.resources = {perf::kQuadroP5000};
  p.specs[1].options.requirementFlags =
      BGL_FLAG_FRAMEWORK_CUDA | BGL_FLAG_PRECISION_DOUBLE;

  PartitionOptions noFailover;
  noFailover.concurrent = false;
  noFailover.failover = false;
  PartitionOptions noFallback;
  noFallback.concurrent = false;
  noFallback.cpuFallback = false;
  for (const PartitionOptions& options : {noFailover, noFallback}) {
    BglProcessStatistics before{};
    ASSERT_EQ(bglGetProcessStatistics(&before), BGL_SUCCESS);
    ASSERT_EQ(bglSetFaultSpec("alloc:1"), BGL_SUCCESS);
    EXPECT_THROW(PartitionedLikelihood(p.tree, p.specs, options), Error);
    ASSERT_EQ(bglSetFaultSpec(""), BGL_SUCCESS);
    BglProcessStatistics after{};
    ASSERT_EQ(bglGetProcessStatistics(&after), BGL_SUCCESS);
    EXPECT_EQ(after.liveInstances, before.liveInstances)
        << "failover=" << options.failover;
  }
}

// Satellite 1: evaluation concurrency is bounded. Instances run on a
// bounded worker team that reports the observed peak.
TEST(PartitionedConcurrency, PeakNeverExceedsTheCap) {
  Problem p = makeProblem({40, 40, 40, 40, 40, 40, 40, 40, 40, 40});
  for (std::size_t q = 0; q < p.specs.size(); ++q) {
    auto& spec = p.specs[q];
    // Ten distinct category counts: ten groups, ten instances to schedule.
    spec.options.categories = static_cast<int>(q) + 1;
    spec.options.resources = {perf::kHostCpu};
    spec.options.requirementFlags =
        BGL_FLAG_THREADING_NONE | BGL_FLAG_VECTOR_NONE | BGL_FLAG_PRECISION_DOUBLE;
  }
  PartitionOptions options;
  options.maxConcurrency = 2;
  PartitionedLikelihood like(p.tree, p.specs, options);
  const double total = like.logLikelihood(p.tree);
  ASSERT_TRUE(std::isfinite(total));
  EXPECT_EQ(like.instanceCount(), 10);
  EXPECT_GE(like.peakConcurrency(), 1);
  EXPECT_LE(like.peakConcurrency(), 2);

  double expected = 0.0;
  for (std::size_t q = 0; q < p.specs.size(); ++q) {
    TreeLikelihood reference(p.tree, *p.specs[q].model, p.specs[q].data,
                             p.specs[q].options);
    expected += reference.logLikelihood(p.tree);
  }
  EXPECT_EQ(total, expected);  // index-order summation preserved
}

// Satellite 2: autoAssignResources ranks partitions by the scheduler's
// full cost estimate (patterns x states x categories work), so a short
// codon partition outranks a much longer nucleotide one.
TEST(PartitionAutoAssign, RanksByCostNotPatternCount) {
  auto codon = defaultModelForStates(61, 21);
  auto nuc = defaultModelForStates(4, 22);
  std::vector<PartitionSpec> specs(2);
  specs[0].model = nuc.get();        // many patterns, tiny per-pattern work
  specs[0].data.patterns = 2000;
  specs[0].options.categories = 1;
  specs[1].model = codon.get();      // few patterns, huge per-pattern work
  specs[1].data.patterns = 200;
  specs[1].options.categories = 4;

  autoAssignResources(specs, /*benchmark=*/false);
  ASSERT_EQ(specs[0].options.resources.size(), 1u);
  ASSERT_EQ(specs[1].options.resources.size(), 1u);

  const auto estimates = sched::resourceEstimates({}, {}, /*benchmark=*/false);
  ASSERT_GE(estimates.size(), 2u);
  std::vector<const sched::ResourceEstimate*> ranked;
  for (const auto& e : estimates) ranked.push_back(&e);
  std::stable_sort(ranked.begin(), ranked.end(),
                   [](const sched::ResourceEstimate* a,
                      const sched::ResourceEstimate* b) {
                     return a->patternsPerSecond > b->patternsPerSecond;
                   });
  // The codon partition is the costlier one: it gets the fastest resource.
  EXPECT_EQ(specs[1].options.resources[0], ranked[0]->resource);
  EXPECT_EQ(specs[0].options.resources[0], ranked[1]->resource);
}

}  // namespace
}  // namespace bgl::phylo
