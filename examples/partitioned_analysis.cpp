// Partitioned and multi-device analyses.
//
// Part 1 (Section IV-F of the paper): a dataset with two subsets — a
// nucleotide partition and a codon partition — in one partitioned
// analysis. Partitions of one shape on one resource share a
// multi-partition instance; these two differ in state count, so each gets
// its own, and the two evaluate concurrently.
//
// Part 2 (the paper's conclusion / future work): a single large alignment
// split by site patterns across several hardware resources, one instance
// per device, with the shard log-likelihoods summing exactly to the
// single-instance value.
#include <cmath>
#include <cstdio>

#include "core/model.h"
#include "perfmodel/device_profiles.h"
#include "phylo/partition.h"
#include "phylo/seqsim.h"

int main() {
  using namespace bgl;

  Rng rng(77);
  phylo::Tree tree = phylo::Tree::random(10, rng, 0.1);

  // ---- Part 1: model-partitioned analysis ----
  const HKY85Model nucModel(2.0, {0.3, 0.25, 0.2, 0.25});
  const GY94CodonModel codonModel = GY94CodonModel::equalFrequencies(2.0, 0.4);
  const auto nucData = phylo::simulatePatterns(tree, nucModel, 3000, rng);
  const auto codonData = phylo::simulatePatterns(tree, codonModel, 400, rng);

  std::vector<phylo::PartitionSpec> specs(2);
  specs[0].data = nucData;
  specs[0].model = &nucModel;
  specs[0].options.categories = 4;
  specs[1].data = codonData;
  specs[1].model = &codonModel;
  specs[1].options.categories = 1;
  specs[1].options.useScaling = true;

  phylo::PartitionedLikelihood partitioned(tree, specs);
  std::printf("partitioned analysis: %d partitions\n",
              partitioned.partitionCount());
  std::printf("  partition 0 (nucleotide, %d patterns) on %s\n", nucData.patterns,
              partitioned.implName(0).c_str());
  std::printf("  partition 1 (codon, %d patterns) on %s\n", codonData.patterns,
              partitioned.implName(1).c_str());
  std::printf("  joint logL = %.4f\n\n", partitioned.logLikelihood(tree));

  // ---- Part 2: one alignment split across heterogeneous devices ----
  phylo::LikelihoodOptions base;
  base.categories = 4;
  std::vector<phylo::LikelihoodOptions> shards(3, base);
  shards[0].requirementFlags = BGL_FLAG_FRAMEWORK_CPU;
  shards[1].requirementFlags = BGL_FLAG_FRAMEWORK_CUDA;
  shards[1].resources = {perf::kQuadroP5000};
  shards[2].requirementFlags = BGL_FLAG_FRAMEWORK_OPENCL;
  shards[2].resources = {perf::kRadeonR9Nano};

  phylo::TreeLikelihood whole(tree, nucModel, nucData, base);
  phylo::SplitLikelihood split(tree, nucModel, nucData, shards);

  std::printf("multi-device split of the nucleotide alignment:\n");
  for (int s = 0; s < split.shardCount(); ++s) {
    std::printf("  shard %d: %4d patterns on %s\n", s, split.shardPatterns(s),
                split.implName(s).c_str());
  }
  const double reference = whole.logLikelihood();
  const double combined = split.logLikelihood(tree);
  std::printf("  single instance logL = %.6f\n", reference);
  std::printf("  sum of shard logLs   = %.6f\n", combined);
  const bool match = std::abs(combined - reference) < std::abs(reference) * 1e-9;
  std::printf("  exact agreement: %s\n", match ? "yes" : "NO");
  return match ? 0 : 1;
}
