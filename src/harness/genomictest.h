// genomictest-equivalent workload harness (Section V-A).
//
// Generates random synthetic datasets of arbitrary size, runs the core
// partial-likelihoods computation repeatedly through the public API, and
// reports throughput as effective GFLOPS (p * c * s * (4s-1) FLOPs per
// operation), which is the measure used by every table and figure in the
// paper. On simulated device profiles the time base is the roofline-model
// timeline; on the host it is measured wall time.
#pragma once

#include <string>
#include <vector>

#include "api/bgl.h"
#include "phylo/partition.h"

namespace bgl::harness {

struct ProblemSpec {
  int tips = 16;
  int patterns = 10000;
  int states = 4;
  int categories = 4;
  bool singlePrecision = false;
  long preferenceFlags = 0;
  long requirementFlags = 0;
  int resource = 0;          ///< perf-registry resource id
  int reps = 3;              ///< full-traversal repetitions to time
  int warmupReps = 1;
  unsigned seed = 1234;
  int threadCount = 0;       ///< 0 = implementation default
  int workGroupSize = 0;     ///< 0 = implementation default (x86 kernels)
  /// Cap on concurrently live internal partials buffers when the balanced
  /// topology would not fit memory (or balancedTopology is off):
  /// operations then rotate through a bounded pool (same FLOPs, same
  /// kernel shapes, but a chain has no independent operations).
  int internalBufferPool = 8;
  /// Balanced pairwise-join topology (default; one buffer per internal
  /// node, gives the futures implementation concurrency). false forces the
  /// bounded-memory caterpillar chain.
  bool balancedTopology = true;
  /// Split runs only: also evaluate the same (tree, model, data) problem on
  /// one serial host-CPU instance and compare. Any pattern division
  /// preserves per-pattern weights and summation order within a shard, so
  /// the split log likelihood must be bit-identical whenever a single
  /// shard survives (failover/CPU-fallback acceptance check).
  bool validateSplitReference = false;
  std::string traceFile;     ///< non-empty: write a Chrome trace on finalize
  std::string statsFile;     ///< non-empty: write a stats JSON on finalize
};

struct RunResult {
  double seconds = 0.0;       ///< time base used for throughput
  double measuredSeconds = 0.0;
  double gflops = 0.0;
  double flops = 0.0;
  double logL = 0.0;
  bool modeled = false;       ///< true if `seconds` came from the perf model
  std::string implName;
  std::string resourceName;
};

/// Effective FLOPs of one full evaluation (tips-1 partials operations).
double evaluationFlops(const ProblemSpec& spec);

/// Run the throughput benchmark for one problem specification.
/// Throws bgl::Error if no implementation satisfies the spec.
RunResult runThroughput(const ProblemSpec& spec);

/// Resource id whose name contains `nameFragment` (case-sensitive), or -1.
int findResource(const std::string& nameFragment);

/// Result of a multi-round (pipelined-style) evaluation run.
struct PipelinedRunResult {
  double seconds = 0.0;       ///< best-of-reps time for all rounds
  double measuredSeconds = 0.0;
  double gflops = 0.0;
  double flops = 0.0;         ///< partials FLOPs summed over rounds
  bool modeled = false;       ///< true if `seconds` came from the perf model
  std::vector<double> roundLogL;  ///< per-round root log likelihoods
  std::string implName;
  std::string resourceName;
};

/// Run `rounds` full evaluations back to back, re-deriving every transition
/// matrix before each round from rescaled branch lengths — the call pattern
/// of an optimizer iterating over branch-length proposals. Rounds alternate
/// between two disjoint matrix-buffer halves, so an instance created with
/// BGL_FLAG_COMPUTATION_PIPELINE can derive round r+1's matrices on its
/// matrix stream while round r's partials drain on the compute stream. The
/// exact same call order is valid synchronously, so the per-round log
/// likelihoods must be bitwise identical across sync / async / pipelined
/// instances — that is the acceptance check pipelined mode has to pass.
PipelinedRunResult runPipelinedThroughput(const ProblemSpec& spec, int rounds);

/// Result of a multi-instance split-likelihood run.
struct SplitRunResult {
  double seconds = 0.0;    ///< best-of-reps wall time of one evaluation round
  double gflops = 0.0;     ///< evaluationFlops(spec) / seconds
  double logL = 0.0;       ///< full-alignment log likelihood (shard sum)
  int rebalances = 0;      ///< adaptive re-splits applied during the run
  int failovers = 0;       ///< shard failovers applied during the run
  bool cpuFallback = false;        ///< all-shards-failed CPU fallback engaged
  std::vector<int> quarantined;    ///< shards quarantined by failover
  std::vector<std::string> shardErrors;  ///< per-shard quarantine reasons ("")
  double referenceLogL = 0.0;      ///< serial host-CPU single-instance logL
  bool referenceComputed = false;  ///< true when validateSplitReference ran
  bool referenceExact = false;     ///< logL bitwise-equal to referenceLogL
  std::vector<int> shardPatterns;       ///< final per-shard pattern counts
  std::vector<std::string> implNames;   ///< final per-shard implementations
};

/// Split one synthetic genomictest-style problem across several instances
/// (one per entry of `shardOptions`) under the given split policy, and
/// time the combined evaluation. Warmup rounds run first, so Adaptive mode
/// can converge before the timed repetitions.
SplitRunResult runSplitThroughput(const ProblemSpec& spec,
                                  const std::vector<phylo::LikelihoodOptions>& shardOptions,
                                  const phylo::SplitOptions& split);

/// Result of a multi-partition (phylogenomic) evaluation run.
struct PartitionedRunResult {
  double seconds = 0.0;       ///< best-of-reps time base for throughput
  double measuredSeconds = 0.0;
  double gflops = 0.0;
  double flops = 0.0;         ///< partials FLOPs summed over partitions
  double logL = 0.0;          ///< sum of per-partition log likelihoods
  int partitions = 0;
  int instances = 0;          ///< library instances serving the partitions
  int peakConcurrency = 0;
  std::uint64_t kernelLaunches = 0;  ///< launches issued by the last round
  int failovers = 0;
  int rebalances = 0;
  std::vector<double> partitionLogL;    ///< per partition, original order
  std::vector<std::string> implNames;   ///< per partition
  double referenceLogL = 0.0;      ///< per-instance reference logL sum
  bool referenceComputed = false;
  bool referenceExact = false;     ///< every partition bitwise-equal
};

/// Evaluate `partitions` synthetic gene partitions — each with its own
/// substitution model (distinct parameter seed) and its own slice of
/// `spec.patterns` — over one shared random tree, through one
/// PartitionedLikelihood (one multi-partition instance per resource, the
/// fused level-order launch path). When `validateReference` is set the
/// per-partition log likelihoods are checked bitwise against single-
/// partition instances with the options each partition runs with.
PartitionedRunResult runPartitionedThroughput(const ProblemSpec& spec, int partitions,
                                              const phylo::PartitionOptions& options,
                                              bool validateReference = false);

/// The per-instance baseline of the same dataset: one TreeLikelihood per
/// partition, evaluated one after another. seconds sums the instances'
/// modeled timeline seconds (wall time where there is none), and
/// kernelLaunches sums their timeline launches.
PartitionedRunResult runPerInstanceThroughput(const ProblemSpec& spec, int partitions);

}  // namespace bgl::harness
