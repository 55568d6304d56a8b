// The failover policy's observable trail, pinned for both classes that run
// it: SplitLikelihood (a unit is a shard) and PartitionedLikelihood (a unit
// is a resource). Each case injects one fault and checks the journal
// records the policy appends (quarantine, reapportion, retry, CPU fallback,
// rebalance, in order) and the sched::counters() failover deltas:
//   (a) one unit's kernel launch fails during an evaluation round;
//   (b) a 1-byte device-memory budget fails a unit at construction;
//   (c) every unit dies, so the host-CPU fallback engages.
#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "api/bgl.h"
#include "core/model.h"
#include "core/rng.h"
#include "obs/journal.h"
#include "perfmodel/device_profiles.h"
#include "phylo/likelihood.h"
#include "phylo/partition.h"
#include "phylo/seqsim.h"
#include "phylo/tree.h"
#include "sched/sched.h"

namespace bgl::phylo {
namespace {

constexpr int kTips = 8;

struct Trail {
  std::vector<std::string> kinds;  ///< failover-policy records, in order
  std::uint64_t failovers = 0;
  std::uint64_t quarantined = 0;
};

/// Run `fn` and collect the failover-policy journal records it appended
/// (kinds shardQuarantine..rebalance; fault and error records are the
/// injector's and the C API's, not the policy's) plus the counter deltas.
template <class Fn>
Trail trailOf(Fn fn) {
  const auto before = sched::counters();
  const std::uint64_t mark = obs::Journal::instance().totalAppended();
  fn();
  Trail trail;
  for (const auto& record : obs::Journal::instance().snapshot()) {
    if (record.sequence < mark) continue;
    if (record.kind >= obs::JournalKind::kShardQuarantine &&
        record.kind <= obs::JournalKind::kRebalance) {
      trail.kinds.emplace_back(obs::journalKindName(record.kind));
    }
  }
  const auto after = sched::counters();
  trail.failovers = after.failovers - before.failovers;
  trail.quarantined = after.quarantinedShards - before.quarantinedShards;
  return trail;
}

using Kinds = std::vector<std::string>;

LikelihoodOptions cudaOptions() {
  LikelihoodOptions o;
  o.resources = {perf::kQuadroP5000};
  o.requirementFlags = BGL_FLAG_FRAMEWORK_CUDA | BGL_FLAG_PRECISION_DOUBLE;
  return o;
}

/// The simulated Quadro, preferring a CPU framework where one serves the
/// resource: re-homed onto the host CPU, a partition with these options
/// builds a host-CPU instance that no device-memory fault can reach.
LikelihoodOptions quadroOptions() {
  LikelihoodOptions o;
  o.resources = {perf::kQuadroP5000};
  o.preferenceFlags = BGL_FLAG_FRAMEWORK_CPU;
  o.requirementFlags = BGL_FLAG_PRECISION_DOUBLE;
  return o;
}

LikelihoodOptions serialOptions() {
  LikelihoodOptions o;
  o.resources = {perf::kHostCpu};
  o.requirementFlags = BGL_FLAG_FRAMEWORK_CPU | BGL_FLAG_THREADING_NONE |
                       BGL_FLAG_VECTOR_NONE | BGL_FLAG_PRECISION_DOUBLE;
  return o;
}

struct Problem {
  Tree tree;
  std::unique_ptr<SubstitutionModel> model;
  PatternSet data;
};

Problem makeProblem(int patterns) {
  Rng rng(5150);
  Problem p{Tree::random(kTips, rng), defaultModelForStates(4, 5150), {}};
  p.data = simulatePatterns(p.tree, *p.model, patterns, rng);
  return p;
}

/// Two partitions over one tree, with the given per-partition options.
std::vector<PartitionSpec> partitionSpecs(const Problem& p,
                                          const std::vector<LikelihoodOptions>& options) {
  std::vector<PartitionSpec> specs;
  for (const auto& o : options) {
    PartitionSpec spec;
    spec.data = p.data;
    spec.model = p.model.get();
    spec.options = o;
    specs.push_back(std::move(spec));
  }
  return specs;
}

/// Serial evaluation keeps fault firing order deterministic.
SplitOptions serialSplit() {
  SplitOptions split;
  split.concurrent = false;
  return split;
}

PartitionOptions serialPartitions() {
  PartitionOptions options;
  options.concurrent = false;
  return options;
}

class FailoverJournal : public ::testing::Test {
 protected:
  void TearDown() override { ASSERT_EQ(bglSetFaultSpec(""), BGL_SUCCESS); }
};

TEST_F(FailoverJournal, SplitLaunchFault) {
  const Problem p = makeProblem(200);
  SplitLikelihood like(p.tree, *p.model, p.data, {cudaOptions(), serialOptions()},
                       serialSplit());
  ASSERT_EQ(bglSetFaultSpec("launch:1"), BGL_SUCCESS);
  const Trail trail = trailOf([&] { like.logLikelihood(p.tree); });
  EXPECT_EQ(trail.kinds, (Kinds{"shardQuarantine", "reapportion", "retry"}));
  EXPECT_EQ(trail.failovers, 1u);
  EXPECT_EQ(trail.quarantined, 1u);
}

TEST_F(FailoverJournal, SplitBuildFault) {
  const Problem p = makeProblem(200);
  ASSERT_EQ(bglSetFaultSpec("alloc:1"), BGL_SUCCESS);
  const Trail trail = trailOf([&] {
    SplitLikelihood like(p.tree, *p.model, p.data,
                         {cudaOptions(), serialOptions()}, serialSplit());
  });
  EXPECT_EQ(trail.kinds, (Kinds{"shardQuarantine", "reapportion", "retry"}));
  EXPECT_EQ(trail.failovers, 1u);
  EXPECT_EQ(trail.quarantined, 1u);
}

TEST_F(FailoverJournal, SplitAllUnitsDeadFallsBackToCpu) {
  const Problem p = makeProblem(200);
  SplitLikelihood like(p.tree, *p.model, p.data, {cudaOptions(), cudaOptions()},
                       serialSplit());
  ASSERT_EQ(bglSetFaultSpec("launch:1,launch:2"), BGL_SUCCESS);
  const Trail trail = trailOf([&] { like.logLikelihood(p.tree); });
  EXPECT_TRUE(like.usedCpuFallback());
  EXPECT_EQ(trail.kinds, (Kinds{"shardQuarantine", "shardQuarantine", "cpuFallback",
                                "reapportion", "retry"}));
  EXPECT_EQ(trail.failovers, 1u);
  EXPECT_EQ(trail.quarantined, 2u);
}

TEST_F(FailoverJournal, PartitionedLaunchFault) {
  const Problem p = makeProblem(90);
  PartitionedLikelihood like(p.tree, partitionSpecs(p, {cudaOptions(), serialOptions()}),
                             serialPartitions());
  ASSERT_EQ(bglSetFaultSpec("launch:1"), BGL_SUCCESS);
  const Trail trail = trailOf([&] { like.logLikelihood(p.tree); });
  EXPECT_EQ(trail.kinds, (Kinds{"shardQuarantine", "reapportion", "retry"}));
  EXPECT_EQ(trail.failovers, 1u);
  EXPECT_EQ(trail.quarantined, 1u);
}

TEST_F(FailoverJournal, PartitionedBuildFault) {
  const Problem p = makeProblem(90);
  const auto specs = partitionSpecs(p, {serialOptions(), quadroOptions()});
  ASSERT_EQ(bglSetFaultSpec("alloc:1"), BGL_SUCCESS);
  const Trail trail = trailOf(
      [&] { PartitionedLikelihood like(p.tree, specs, serialPartitions()); });
  EXPECT_EQ(trail.kinds, (Kinds{"shardQuarantine", "reapportion", "retry"}));
  EXPECT_EQ(trail.failovers, 1u);
  EXPECT_EQ(trail.quarantined, 1u);
}

TEST_F(FailoverJournal, PartitionedAllUnitsDeadFallsBackToCpu) {
  const Problem p = makeProblem(90);
  PartitionedLikelihood like(p.tree, partitionSpecs(p, {cudaOptions(), cudaOptions()}),
                             serialPartitions());
  ASSERT_EQ(bglSetFaultSpec("launch:1"), BGL_SUCCESS);
  const Trail trail = trailOf([&] { like.logLikelihood(p.tree); });
  EXPECT_TRUE(like.usedCpuFallback());
  EXPECT_EQ(trail.kinds,
            (Kinds{"shardQuarantine", "cpuFallback", "reapportion", "retry"}));
  EXPECT_EQ(trail.failovers, 1u);
  EXPECT_EQ(trail.quarantined, 1u);
}

}  // namespace
}  // namespace bgl::phylo
