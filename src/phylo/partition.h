// Partitioned and multi-device analyses.
//
// Section IV-F: "application programs running partitioned analyses can
// invoke multiple library instances, one for each data subset".
// PartitionedLikelihood runs one multi-partition instance per resource
// instead, the layout BEAGLE 4.1 made standard: partitions of one shape
// share a concatenated pattern axis, each keeps its own model, and the
// per-resource instances evaluate concurrently.
//
// The paper's conclusion sketches the complementary feature: splitting a
// single data subset across multiple devices by site patterns, with one
// instance per device. SplitLikelihood implements that — and, through the
// scheduler (src/sched/), closes the loop the conclusion leaves open:
// shards can be sized proportionally to calibrated per-resource speeds,
// and rebalanced between evaluation rounds from observed per-shard times.
//
// Both run one failover policy (detail::FailoverCore): a unit that fails
// hard — a shard of a split, a resource of a partitioned analysis — is
// quarantined and the survivors take over its work.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "core/model.h"
#include "core/patterns.h"
#include "phylo/likelihood.h"
#include "phylo/tree.h"
#include "sched/balancer.h"

namespace bgl::phylo {

namespace detail {

/// One unit's failure in a build or an evaluation round.
struct UnitError {
  int unit = -1;
  int code = 0;  ///< 0 = no failure
  std::string message;
};

/// The failover policy SplitLikelihood and PartitionedLikelihood share
/// (docs/ROBUSTNESS.md, "Failover policy"). A unit is what one hard error
/// takes out of service. The core classifies errors (hard: HARDWARE,
/// OUT_OF_MEMORY, GENERAL, UNIDENTIFIED_EXCEPTION, NO_RESOURCE,
/// NO_IMPLEMENTATION; anything else propagates), quarantines units,
/// retries a build or an evaluation round at most units + 2 times, and
/// moves all work to the host CPU once every unit is quarantined. Each
/// failover counts in sched::counters(), runs under a `sched.failover`
/// span and journals every step. A class supplies only how its work is
/// built, evaluated and reassigned.
class FailoverCore {
 protected:
  enum class UnitKind { kShard, kResource };

  FailoverCore(const char* owner, UnitKind kind, bool enabled, bool cpuFallback)
      : owner_(owner), kind_(kind), enabled_(enabled), cpuFallback_(cpuFallback) {}

  /// Build every unit's instance, each through buildUnit(); false once
  /// one of them failed hard.
  virtual bool buildUnits(const Tree& tree) = 0;
  /// Evaluate every unit once; the units that failed.
  virtual std::vector<UnitError> evaluateUnits(const Tree& tree) = 0;
  /// Last resort: move all work onto the host CPU; the unit carrying it.
  virtual int moveToHostCpu() = 0;
  /// Hand the quarantined units' work to the survivors; the journal note.
  virtual std::string reassign() = 0;

  /// Build with failover.
  void build(const Tree& tree);
  /// Evaluate with failover; returns once a round succeeded.
  void evaluate(const Tree& tree);
  /// Run one unit's build. With failover on, a hard failure quarantines
  /// the unit and returns false; anything else propagates.
  bool buildUnit(int unit, const std::function<void()>& build);
  /// Units not quarantined, ascending.
  std::vector<int> survivors() const;

  std::vector<char> quarantined_;        ///< per unit
  std::vector<std::string> unitErrors_;  ///< per unit: why it was quarantined
  std::vector<int> unitResource_;        ///< per unit, UnitKind::kResource only
  int failovers_ = 0;
  bool cpuFallbackUsed_ = false;

 private:
  void quarantine(const UnitError& error);
  void reassignWork();
  [[noreturn]] void fail(const std::string& what) const;
  const char* unitName() const;

  const char* owner_;
  UnitKind kind_;
  bool enabled_;
  bool cpuFallback_;
  std::string lastFailure_;
  int lastFailureCode_ = 0;
};

}  // namespace detail

/// One data subset of a partitioned analysis.
struct PartitionSpec {
  PatternSet data;
  const SubstitutionModel* model = nullptr;  ///< borrowed, must outlive
  LikelihoodOptions options;
};

/// Policy knobs for PartitionedLikelihood.
struct PartitionOptions {
  /// Evaluate the per-resource instances concurrently.
  bool concurrent = true;
  /// Concurrency cap for the instance evaluations. 0 = the hardware
  /// concurrency of the host. Never more threads than instances.
  int maxConcurrency = 0;
  /// When an instance fails hard (device fault, exhausted memory, lost
  /// implementation), quarantine its resource and re-home its partitions
  /// onto the surviving resources, then retry.
  bool failover = true;
  /// Last resort when every resource is quarantined: host-CPU instances
  /// carry all partitions.
  bool cpuFallback = true;
  /// Feed observed per-resource round times to the EWMA balancer and
  /// re-home whole partitions across resources when the predicted
  /// imbalance persists.
  bool adaptive = false;
  double ewmaAlpha = 0.4;           ///< weight of the newest observation
  double imbalanceThreshold = 1.15; ///< max/min round-time ratio gate
  int settleRounds = 2;             ///< imbalanced rounds before re-homing
};

/// Multiple (model, data) subsets sharing one tree: the partitioned-
/// analysis pattern of Section IV-F, with one multi-partition instance per
/// *resource*.
///
/// Partitions of compatible shape (resource, state count, categories,
/// scaling, flags) form a group: one instance whose pattern axis is the
/// concatenation of the group's partitions. Each partition keeps its own
/// substitution model (per-partition eigen / frequency / weight / rate
/// slots), its own transition matrices (slot q*(2*tips-2) + edge) and its
/// own pattern range of the shared partials and scale buffers. One
/// evaluation issues one fused launch set per tree level for ALL
/// partitions and returns every per-partition log-likelihood in a single
/// readback. Failover units are resources: a failing resource's
/// partitions are re-homed onto the survivors, largest first onto the
/// least-loaded resource, and the groups are rebuilt.
class PartitionedLikelihood : private detail::FailoverCore {
 public:
  PartitionedLikelihood(const Tree& tree, const std::vector<PartitionSpec>& specs,
                        const PartitionOptions& options = {});

  PartitionedLikelihood(const PartitionedLikelihood&) = delete;
  PartitionedLikelihood& operator=(const PartitionedLikelihood&) = delete;

  /// Sum of per-partition log likelihoods for `tree`.
  double logLikelihood(const Tree& tree);

  int partitionCount() const { return static_cast<int>(specs_.size()); }
  const std::string& implName(int partition) const;
  /// Options `partition` currently runs with (the host-CPU options once
  /// the CPU fallback engaged).
  const LikelihoodOptions& partitionOptions(int partition) const {
    return specs_[static_cast<std::size_t>(partition)].options;
  }
  /// Per-partition log likelihoods from the last logLikelihood() call
  /// (original partition order).
  const std::vector<double>& partitionLogLikelihoods() const {
    return partitionLogL_;
  }
  /// Library instances currently serving the partitions (one per group).
  int instanceCount() const { return static_cast<int>(groups_.size()); }
  /// Group index serving `partition`.
  int groupOf(int partition) const {
    return partitionGroup_[static_cast<std::size_t>(partition)];
  }
  /// Highest number of instance evaluations that ran at the same time in
  /// any round so far (bounded by PartitionOptions::maxConcurrency).
  int peakConcurrency() const { return peakConcurrency_; }
  int failoverCount() const { return failovers_; }
  int rebalanceCount() const { return rebalances_; }
  bool usedCpuFallback() const { return cpuFallbackUsed_; }
  /// Per-instance seconds of the last round (modeled timeline when the
  /// implementation provides one, wall time otherwise), instance order.
  const std::vector<double>& lastInstanceSeconds() const {
    return lastInstanceSeconds_;
  }
  /// Sum of lastInstanceSeconds(): the device-time cost of the last round.
  double lastModeledSeconds() const;
  /// Kernel launches issued by the last round across all instances.
  std::uint64_t lastKernelLaunches() const { return lastKernelLaunches_; }

 private:
  /// Owns one library instance; finalizes it on destruction.
  class OwnedInstance {
   public:
    OwnedInstance() = default;
    OwnedInstance(OwnedInstance&& other) noexcept : id_(other.id_) { other.id_ = -1; }
    OwnedInstance& operator=(OwnedInstance&&) = delete;
    ~OwnedInstance() { reset(-1); }
    /// Finalize the held instance, then hold `id`.
    void reset(int id);
    int id() const { return id_; }

   private:
    int id_ = -1;
  };

  struct Group {
    int resource = -1;
    int states = 0;
    int categories = 0;
    bool useScaling = false;
    long preferenceFlags = 0;
    long requirementFlags = 0;
    std::vector<int> members;  ///< partition indices, concatenation order
    OwnedInstance instance;
    std::string implName;
    int patterns = 0;
    double seconds = 0.0;          ///< last round
    std::uint64_t launches = 0;    ///< last round
  };

  bool buildUnits(const Tree& tree) override;
  std::vector<detail::UnitError> evaluateUnits(const Tree& tree) override;
  int moveToHostCpu() override;
  std::string reassign() override;
  void buildGroupInstance(Group& group);
  void evaluateGroup(const Group& group, const Tree& tree);
  int unitOf(int resource) const;
  void rebuildBalancer();
  void maybeRebalance();

  Tree tree_;
  std::vector<PartitionSpec> specs_;  ///< models borrowed, must outlive
  PartitionOptions options_;

  // partitionResource_ is the single source of truth; groups_ is derived
  // from it on every (re)build. Units are the distinct resources
  // (unitResource_, first-appearance order).
  std::vector<Group> groups_;
  std::vector<int> partitionResource_;
  std::vector<int> partitionGroup_;
  std::unique_ptr<sched::LoadBalancer> balancer_;  ///< over active resources
  std::vector<int> balancerResources_;

  std::vector<double> partitionLogL_;
  std::vector<double> lastInstanceSeconds_;
  std::uint64_t lastKernelLaunches_ = 0;
  int peakConcurrency_ = 0;
  int rebalances_ = 0;
};

/// Assign each partition a preferred resource using the scheduler's
/// throughput estimates: partitions are ranked by predicted evaluation
/// cost (sched::estimateEvaluationSeconds over patterns, states AND rate
/// categories — a short codon partition can far outweigh a long
/// nucleotide one) and the heaviest subsets get the fastest resources
/// (round-robin over the distinct resources when there are more
/// partitions than resources). `benchmark` false seeds speeds from the
/// perf model instead of calibrating.
void autoAssignResources(std::vector<PartitionSpec>& specs, bool benchmark = true);

/// How SplitLikelihood divides patterns across shards.
enum class SplitMode {
  Equal,         ///< equal shares regardless of shard speed
  Proportional,  ///< shares proportional to calibrated/model speeds
  Adaptive       ///< proportional, plus between-round rebalancing from
                 ///< observed per-shard times
};

/// Split policy derived from BGL_FLAG_LOADBALANCE_* bits (NONE -> Equal,
/// BENCHMARK/MODEL -> Proportional, ADAPTIVE -> Adaptive; default Equal).
SplitMode splitModeFromFlags(long flags);

/// Scheduling options for SplitLikelihood.
struct SplitOptions {
  SplitMode mode = SplitMode::Equal;
  /// Per-shard speed estimates (patterns/second). Empty under
  /// Proportional/Adaptive: the scheduler calibrates each shard's
  /// (resource, flags) combination instead.
  std::vector<double> speeds;
  bool benchmark = true;       ///< false: perf-model seeds, no calibration run
  double imbalanceThreshold = 1.15;  ///< predicted max/min round-time ratio
  double ewmaAlpha = 0.4;      ///< weight of newest per-shard observation
  int settleRounds = 2;        ///< imbalanced rounds required before a re-split
  int minPatternsPerShard = 1; ///< floor for non-degenerate shards
  unsigned calibrationSeed = 0;///< 0 = BGL_SCHED_SEED / default
  bool concurrent = true;      ///< evaluate shards concurrently
  /// Failover policy: when a shard's instance fails hard (device fault,
  /// exhausted memory, lost implementation), quarantine that shard,
  /// re-apportion its patterns across the surviving shards, and retry
  /// the evaluation round. false: the error propagates to the caller.
  bool failover = true;
  /// Last resort when every shard is quarantined: rebuild shard 0 as a
  /// plain host-CPU instance carrying the full alignment. false: an
  /// all-shards failure propagates instead.
  bool cpuFallback = true;
  /// Test hook: multiply shard i's observed seconds by debugSlowdown[i]
  /// before feeding the balancer (artificially skews a homogeneous setup).
  std::vector<double> debugSlowdown;
};

/// One alignment split across several resources by site patterns
/// (multi-device execution; the conclusion's planned extension). Any
/// division preserves per-pattern weights, so the shard log likelihoods
/// add up to exactly the single-instance value in every mode.
///
/// Failover units are shards (SplitOptions::failover): a shard whose
/// instance fails hard is quarantined, its patterns are re-apportioned
/// across the surviving shards proportionally to the current speed
/// estimates, the adaptive balancer is rebuilt over the survivors, and
/// the round is retried; when every shard is quarantined, shard 0 is
/// rebuilt on the host CPU with the whole alignment. The policy is
/// detail::FailoverCore's (docs/ROBUSTNESS.md, "Failover policy").
class SplitLikelihood : private detail::FailoverCore {
 public:
  /// Equal round-robin split (the original static policy).
  /// `shardOptions[i]` selects the resource/implementation of shard i.
  SplitLikelihood(const Tree& tree, const SubstitutionModel& model,
                  const PatternSet& data,
                  const std::vector<LikelihoodOptions>& shardOptions,
                  bool concurrent = true);

  /// Scheduler-driven split. Shards may receive zero patterns (no instance
  /// is created for them); the model must outlive this object when
  /// rebalancing can occur (Adaptive mode rebuilds shard instances).
  SplitLikelihood(const Tree& tree, const SubstitutionModel& model,
                  const PatternSet& data,
                  const std::vector<LikelihoodOptions>& shardOptions,
                  const SplitOptions& split);

  double logLikelihood(const Tree& tree);

  int shardCount() const { return static_cast<int>(shards_.size()); }
  int shardPatterns(int shard) const { return shardPatterns_[shard]; }
  const std::vector<int>& shardPatternCounts() const { return shardPatterns_; }
  const std::string& implName(int shard) const;
  /// Observed seconds of shard `shard` in the last evaluation round
  /// (obs-layer timeline when available, wall time otherwise).
  double shardSeconds(int shard) const { return shardSeconds_[shard]; }
  /// Adaptive re-splits applied so far.
  int rebalanceCount() const { return rebalances_; }
  /// Failovers applied so far (each may quarantine several shards).
  int failoverCount() const { return failovers_; }
  /// Indices of shards currently quarantined by failover.
  std::vector<int> quarantinedShards() const;
  /// Error message that quarantined `shard` ("" when not quarantined).
  const std::string& shardError(int shard) const {
    return unitErrors_[static_cast<std::size_t>(shard)];
  }
  /// True once the all-shards-failed CPU fallback has been engaged.
  bool usedCpuFallback() const { return cpuFallbackUsed_; }
  /// Current per-shard speed estimates (patterns/second); empty unless
  /// Proportional/Adaptive.
  std::vector<double> shardSpeeds() const;

 private:
  bool buildUnits(const Tree& tree) override;
  std::vector<detail::UnitError> evaluateUnits(const Tree& tree) override;
  int moveToHostCpu() override;
  std::string reassign() override;
  void resetBalancer(const std::vector<double>& speeds);

  const SubstitutionModel* model_ = nullptr;  ///< borrowed, must outlive
  PatternSet data_;
  std::vector<LikelihoodOptions> shardOptions_;
  SplitOptions split_;
  std::vector<double> calibratedSpeeds_;  ///< empty under Equal
  std::unique_ptr<sched::LoadBalancer> balancer_;

  std::vector<std::unique_ptr<TreeLikelihood>> shards_;  ///< null = idle shard
  std::vector<int> shardPatterns_;
  std::vector<double> shardSeconds_;
  double roundLogL_ = 0.0;  ///< last round's sum over shards
  int rebalances_ = 0;

  // `active_` lists the non-quarantined shard indices; the balancer (when
  // present) is always sized to `active_`, so quarantined shards can never
  // be handed work again.
  std::vector<int> active_;
  std::vector<double> currentSpeeds_;   ///< full-size, observation-refreshed
};

/// Deal `data`'s patterns round-robin into `shards` subsets (weights kept).
std::vector<PatternSet> splitPatterns(const PatternSet& data, int shards);

/// Divide `data`'s patterns into len(shares) subsets of the given sizes
/// (sum of shares must equal data.patterns; shares may be zero). Patterns
/// are dealt in index order, strided across the non-empty shards to keep
/// per-shard pattern composition statistically similar.
std::vector<PatternSet> splitPatternsByShares(const PatternSet& data,
                                              const std::vector<int>& shares);

}  // namespace bgl::phylo
