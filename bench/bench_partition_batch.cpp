// PR 10 perf smoke: single-instance multi-partition evaluation.
//
// A phylogenomic workload — hundreds of small gene partitions, each with
// its own substitution model, over one shared tree — evaluated two ways on
// the simulated accelerator profiles:
//  * legacy: one TreeLikelihood instance per partition (one launch set
//    per partition per tree level; harness::runPerInstanceThroughput),
//  * batched: ONE multi-partition instance whose pattern axis concatenates
//    every partition (bglSetPatternPartitions); the level batcher fuses all
//    partitions' per-level operations into the same grid launches, so the
//    launch count stays O(tree depth) instead of O(depth x partitions),
//    and the per-partition log likelihoods come back in a single readback.
//
// This is a smoke test, not just a report: it exits non-zero unless
//  * every batched per-partition log likelihood is BIT-IDENTICAL to the
//    legacy per-instance value (and, on the gated rows, to a fresh
//    same-options single-partition instance via the harness reference),
//  * the batched layout is >= 2x faster than per-instance on both
//    simulated frameworks (modeled device seconds), at 120 partitions and
//    at the 1000-partition scale point,
//  * the batched layout serves each workload from ONE instance.
//
// Results land in BENCH_pr10.json (set BGL_BENCH_DIR to redirect).
#include <cmath>
#include <cstdio>
#include <string>
#include <vector>

#include "bench/bench_util.h"
#include "harness/genomictest.h"

namespace {

constexpr double kMinSpeedup = 2.0;
constexpr int kPatternsPerPartition = 16;  // launch-bound small genes

struct Config {
  const char* label;
  const char* resourceFragment;  // perf-registry resource to run on
  long flags;
  bool gated;  // simulated profile: subject to the 2x speedup gate
};

bgl::harness::ProblemSpec problemSpec(const Config& config, int resource,
                                      int partitions) {
  bgl::harness::ProblemSpec spec;
  spec.tips = 8;
  spec.patterns = partitions * kPatternsPerPartition;
  spec.states = 4;
  spec.categories = 4;
  spec.singlePrecision = false;
  spec.resource = resource;
  spec.requirementFlags = config.flags;
  spec.reps = 2;
  spec.warmupReps = 1;
  return spec;
}

bool partitionsBitIdentical(const std::vector<double>& a,
                            const std::vector<double>& b) {
  if (a.size() != b.size()) return false;
  for (std::size_t i = 0; i < a.size(); ++i) {
    if (a[i] != b[i]) return false;
  }
  return true;
}

}  // namespace

int main() {
  using namespace bgl;
  bench::printHeader(
      "PR 10 perf smoke: single-instance multi-partition evaluation",
      "Section IV-F partitioned analyses, batched into one level-order "
      "launch set per resource");
  bench::printNote(
      "8 tips, 16 patterns/partition, 4 states, 4 categories, double "
      "precision, one model per partition; legacy = one instance per "
      "partition, batched = one multi-partition instance; simulated device "
      "profiles (modeled seconds), host row reported unguarded");

  bench::JsonReport report(
      "pr10", "PR 10 perf smoke: single-instance multi-partition evaluation",
      "Section IV-F partitioned analyses (phylogenomic gene partitions)");
  report.note(
      "speedup = legacySeconds / batchedSeconds per framework and scale; "
      "gates: batched per-partition logLs bitwise-equal to per-instance "
      "(and to fresh same-options references at 120 partitions), one "
      "batched instance per workload, speedup >= 2 on both simulated "
      "frameworks at 120 and 1000 partitions");

  const std::vector<Config> configs = {
      {"cuda", "Quadro", BGL_FLAG_FRAMEWORK_CUDA | BGL_FLAG_COMPUTATION_ASYNCH,
       true},
      {"opencl", "Radeon",
       BGL_FLAG_FRAMEWORK_OPENCL | BGL_FLAG_COMPUTATION_ASYNCH, true},
      {"cpu-serial", "",
       BGL_FLAG_FRAMEWORK_CPU | BGL_FLAG_THREADING_NONE | BGL_FLAG_VECTOR_NONE,
       false},
  };
  const std::vector<int> scales = {120, 1000};

  int failures = 0;
  try {
    std::printf("\n%-12s %6s %12s %12s %9s %9s %7s %22s\n", "framework",
                "parts", "legacy(s)", "batched(s)", "speedup", "launches",
                "bitEq", "logL");
    for (const auto& config : configs) {
      int resource = 0;
      if (*config.resourceFragment != '\0') {
        resource = harness::findResource(config.resourceFragment);
        if (resource < 0) {
          std::fprintf(stderr, "FAIL %s: no resource matching '%s'\n",
                       config.label, config.resourceFragment);
          ++failures;
          continue;
        }
      }
      for (int partitions : scales) {
        // Fresh same-options per-partition references are themselves a
        // 1000-instance build; run them at the 120-partition scale only.
        const bool validate = partitions == scales.front();
        const auto spec = problemSpec(config, resource, partitions);
        const auto legacy = harness::runPerInstanceThroughput(spec, partitions);
        const auto batched = harness::runPartitionedThroughput(
            spec, partitions, phylo::PartitionOptions{}, validate);
        const double speedup = legacy.seconds / batched.seconds;
        const bool instancesExact =
            partitionsBitIdentical(batched.partitionLogL, legacy.partitionLogL);
        const bool referenceExact = !validate || batched.referenceExact;
        const double launchRatio =
            batched.kernelLaunches > 0
                ? static_cast<double>(legacy.kernelLaunches) /
                      static_cast<double>(batched.kernelLaunches)
                : 0.0;
        std::printf("%-12s %6d %12.4f %12.4f %9.2f %9.1f %7s %22.12f\n",
                    config.label, partitions, legacy.seconds, batched.seconds,
                    speedup, launchRatio,
                    instancesExact && referenceExact ? "yes" : "NO",
                    batched.logL);

        for (const auto* layout : {"legacy", "batched"}) {
          const auto& r = *layout == 'l' ? legacy : batched;
          report.row()
              .field("framework", config.label)
              .field("partitions", partitions)
              .field("layout", layout)
              .field("seconds", r.seconds)
              .field("gflops", r.gflops)
              .field("instances", r.instances)
              .field("kernelLaunches", static_cast<double>(r.kernelLaunches))
              .field("logL", r.logL);
        }
        report.row()
            .field("framework", config.label)
            .field("partitions", partitions)
            .field("layout", "summary")
            .field("speedup", speedup)
            .field("launchRatio", launchRatio)
            .field("perInstanceBitIdentical", instancesExact ? 1 : 0)
            .field("referenceBitIdentical",
                   validate ? (batched.referenceExact ? 1 : 0) : -1);

        if (batched.instances != 1) {
          std::fprintf(stderr,
                       "FAIL %s/%d: batched layout used %d instances, not 1\n",
                       config.label, partitions, batched.instances);
          ++failures;
        }
        if (legacy.instances != partitions) {
          std::fprintf(stderr,
                       "FAIL %s/%d: legacy layout used %d instances, not %d\n",
                       config.label, partitions, legacy.instances, partitions);
          ++failures;
        }
        if (!instancesExact) {
          std::fprintf(stderr,
                       "FAIL %s/%d: batched per-partition logLs differ from "
                       "the per-instance layout\n",
                       config.label, partitions);
          ++failures;
        }
        if (validate && !batched.referenceExact) {
          std::fprintf(stderr,
                       "FAIL %s/%d: batched per-partition logLs differ from "
                       "fresh same-options references\n",
                       config.label, partitions);
          ++failures;
        }
        if (!std::isfinite(batched.logL)) {
          std::fprintf(stderr, "FAIL %s/%d: batched logL %.17g not finite\n",
                       config.label, partitions, batched.logL);
          ++failures;
        }
        if (config.gated && speedup < kMinSpeedup) {
          std::fprintf(stderr,
                       "FAIL %s/%d: batched speedup %.3f < required %.2f\n",
                       config.label, partitions, speedup, kMinSpeedup);
          ++failures;
        }
      }
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "FAIL: %s\n", e.what());
    return 1;
  }

  if (failures > 0) {
    std::fprintf(stderr, "partition perf smoke failed: %d violation(s)\n",
                 failures);
    return 1;
  }
  std::printf(
      "partition perf smoke passed: batched >= %.1fx over per-instance on "
      "both frameworks at every scale, all per-partition log likelihoods "
      "bit-identical\n",
      kMinSpeedup);
  return 0;
}
