#include "phylo/partition.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <functional>
#include <numeric>
#include <thread>

#include "core/defs.h"
#include "core/gamma.h"
#include "obs/journal.h"
#include "sched/sched.h"

namespace bgl::phylo {
namespace {

using Clock = std::chrono::steady_clock;

double elapsedSeconds(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

/// Calibration spec matching one shard's (model, options) combination.
sched::CalibrationSpec shardSpec(const SubstitutionModel& model,
                                 const LikelihoodOptions& options,
                                 const SplitOptions& split) {
  sched::CalibrationSpec spec;
  spec.states = model.states();
  spec.categories = options.categories;
  spec.singlePrecision = sched::resolveSinglePrecision(options.preferenceFlags,
                                                       options.requirementFlags);
  spec.preferenceFlags = options.preferenceFlags;
  spec.requirementFlags = options.requirementFlags;
  spec.seed = split.calibrationSeed;
  return spec;
}

int shardResource(const LikelihoodOptions& options) {
  return options.resources.empty() ? 0 : options.resources.front();
}

/// Failures worth failing over: the device/runtime/implementation is gone
/// or misbehaving. Programming errors (OUT_OF_RANGE, UNIMPLEMENTED,
/// FLOATING_POINT) would reproduce identically on any unit, so they are
/// never failed over.
bool isHardError(int code) {
  switch (code) {
    case BGL_ERROR_GENERAL:
    case BGL_ERROR_OUT_OF_MEMORY:
    case BGL_ERROR_UNIDENTIFIED_EXCEPTION:
    case BGL_ERROR_NO_RESOURCE:
    case BGL_ERROR_NO_IMPLEMENTATION:
    case BGL_ERROR_HARDWARE:
      return true;
    default:
      return false;
  }
}

/// See likelihood.cpp: throw with the code plus the thread-local detail.
[[noreturn]] void throwApiError(const std::string& what, int rc) {
  std::string message = what + " failed with code " + std::to_string(rc);
  if (const char* detail = bglGetLastErrorMessage(); detail != nullptr && *detail) {
    message += ": ";
    message += detail;
  }
  throw Error(message, rc);
}

/// Run fn(i) for i in [0, n) with at most `cap` concurrent executors; the
/// calling thread participates, so at most cap-1 threads are spawned no
/// matter how many work items there are. fn must not throw. Returns the
/// peak number of simultaneously running fn calls.
int runBounded(int n, int cap, const std::function<void(int)>& fn) {
  if (n <= 0) return 0;
  if (cap < 1) cap = 1;
  const int workers = std::min(cap, n);
  std::atomic<int> next{0};
  std::atomic<int> running{0};
  std::atomic<int> peak{0};
  auto body = [&] {
    for (;;) {
      const int i = next.fetch_add(1, std::memory_order_relaxed);
      if (i >= n) break;
      const int now = running.fetch_add(1, std::memory_order_relaxed) + 1;
      int seen = peak.load(std::memory_order_relaxed);
      while (now > seen &&
             !peak.compare_exchange_weak(seen, now, std::memory_order_relaxed)) {
      }
      fn(i);
      running.fetch_sub(1, std::memory_order_relaxed);
    }
  };
  std::vector<std::thread> threads;
  threads.reserve(static_cast<std::size_t>(workers - 1));
  for (int t = 1; t < workers; ++t) threads.emplace_back(body);
  body();
  for (auto& th : threads) th.join();
  return peak.load(std::memory_order_relaxed);
}

/// `maxConcurrency`, or the host's hardware concurrency when it is 0.
int concurrencyCap(int maxConcurrency) {
  if (maxConcurrency > 0) return maxConcurrency;
  const unsigned hw = std::thread::hardware_concurrency();
  return hw > 0 ? static_cast<int>(hw) : 4;
}

/// One unit's evaluation round.
struct UnitRun {
  double seconds = 0.0;        ///< modeled timeline seconds, else wall time
  std::uint64_t launches = 0;  ///< kernel launches on the timeline
  detail::UnitError error;
};

/// Run `evaluate` on unit `unit`'s `instance`, timed. The obs-layer
/// timeline is preferred: on simulated accelerator profiles its
/// roofline-modeled time is the honest per-device time base, immune to
/// host oversubscription when units run concurrently. Failures are
/// captured, not thrown: units run on worker threads, and a raw exception
/// would lose the unit identity the failover policy needs.
template <class Evaluate>
UnitRun timedEvaluate(int unit, int instance, const Evaluate& evaluate) {
  UnitRun run;
  try {
    const bool timeline = bglResetTimeline(instance) == BGL_SUCCESS;
    const auto start = Clock::now();
    evaluate();
    run.seconds = elapsedSeconds(start);
    BglTimeline tl{};
    if (timeline && bglGetTimeline(instance, &tl) == BGL_SUCCESS) {
      run.launches = tl.kernelLaunches;
      if (tl.modeledSeconds > 0.0) run.seconds = tl.modeledSeconds;
    }
  } catch (const Error& e) {
    run.error = {unit, e.code() != 0 ? e.code() : kErrGeneral, e.what()};
  } catch (const std::bad_alloc&) {
    run.error = {unit, kErrOutOfMemory, "out of host memory evaluating an instance"};
  } catch (const std::exception& e) {
    run.error = {unit, kErrGeneral, e.what()};
  }
  return run;
}

/// Last-resort host-CPU options for a unit's work. Precision requirements
/// are preserved; the failing framework/vector/threading demands are
/// dropped.
LikelihoodOptions hostFallbackOptions(const LikelihoodOptions& options) {
  const long precisionMask = BGL_FLAG_PRECISION_SINGLE | BGL_FLAG_PRECISION_DOUBLE;
  LikelihoodOptions fallback;
  fallback.categories = options.categories;
  fallback.alpha = options.alpha;
  fallback.useScaling = options.useScaling;
  fallback.requirementFlags =
      BGL_FLAG_FRAMEWORK_CPU | (options.requirementFlags & precisionMask);
  fallback.preferenceFlags = options.preferenceFlags & precisionMask;
  fallback.resources = {0};
  return fallback;
}

/// EWMA balancer options from either class's option struct.
template <class Options>
sched::LoadBalancer::Options balancerOptions(const Options& options, int minShare = 1) {
  sched::LoadBalancer::Options out;
  out.ewmaAlpha = options.ewmaAlpha;
  out.imbalanceThreshold = options.imbalanceThreshold;
  out.settleRounds = options.settleRounds;
  out.minShare = minShare;
  return out;
}

void journal(obs::JournalKind kind, const std::string& message) {
  obs::Journal::instance().append(kind, 0, /*instance=*/-1, /*resource=*/-1,
                                  /*shard=*/-1, message);
}

/// Predicted seconds of one evaluation of `spec` on `resource`; positive
/// even when the perf model has no answer for the resource.
double partitionCost(int resource, const PartitionSpec& spec) {
  const int states = spec.model != nullptr ? spec.model->states() : 4;
  const double est = sched::estimateEvaluationSeconds(
      resource, spec.data.patterns, states, spec.options.categories);
  if (est > 0.0) return est;
  return 1e-9 * spec.data.patterns * states * spec.options.categories;
}

}  // namespace

namespace detail {

void FailoverCore::build(const Tree& tree) {
  const int maxAttempts = static_cast<int>(quarantined_.size()) + 2;
  for (int attempt = 0; attempt < maxAttempts; ++attempt) {
    if (buildUnits(tree)) return;
    // buildUnits quarantined the failing unit; hand its work to the
    // survivors and retry the whole build.
    ++failovers_;
    sched::noteFailover(1);
    obs::ScopedSpan span(sched::recorder(), obs::Category::kOperation,
                         "sched.failover");
    reassignWork();
    journal(obs::JournalKind::kRetry,
            std::string("rebuilding every ") + unitName() + "'s instance, attempt " +
                std::to_string(attempt + 2) + "/" + std::to_string(maxAttempts));
  }
  fail("construction still failing after " + std::to_string(maxAttempts) +
       " failovers");
}

void FailoverCore::evaluate(const Tree& tree) {
  const int maxAttempts = static_cast<int>(quarantined_.size()) + 2;
  for (int attempt = 0; attempt < maxAttempts; ++attempt) {
    const std::vector<UnitError> failed = evaluateUnits(tree);
    for (const auto& f : failed) {
      // Programming error: reproduces on any unit, never failed over.
      if (!isHardError(f.code)) throw Error(f.message, f.code);
    }
    if (failed.empty()) return;
    if (!enabled_) throw Error(failed.front().message, failed.front().code);
    for (const auto& f : failed) quarantine(f);
    ++failovers_;
    sched::noteFailover(static_cast<std::uint64_t>(failed.size()));
    obs::ScopedSpan span(sched::recorder(), obs::Category::kOperation,
                         "sched.failover");
    reassignWork();
    build(tree);
    journal(obs::JournalKind::kRetry,
            "instances rebuilt after " + std::to_string(failed.size()) + " " +
                unitName() + " failure(s); retrying the evaluation");
  }
  fail("evaluation still failing after " + std::to_string(maxAttempts) +
       " failovers");
}

bool FailoverCore::buildUnit(int unit, const std::function<void()>& build) {
  try {
    build();
    return true;
  } catch (const Error& e) {
    if (!enabled_ || !isHardError(e.code())) throw;
    quarantine({unit, e.code(), e.what()});
  } catch (const std::bad_alloc&) {
    if (!enabled_) throw;
    quarantine({unit, kErrOutOfMemory, "out of host memory building an instance"});
  }
  return false;
}

std::vector<int> FailoverCore::survivors() const {
  std::vector<int> out;
  for (std::size_t u = 0; u < quarantined_.size(); ++u) {
    if (!quarantined_[u]) out.push_back(static_cast<int>(u));
  }
  return out;
}

void FailoverCore::quarantine(const UnitError& error) {
  const auto u = static_cast<std::size_t>(error.unit);
  quarantined_[u] = 1;
  unitErrors_[u] = error.message;
  lastFailure_ = error.message;
  lastFailureCode_ = error.code;
  const bool shard = kind_ == UnitKind::kShard;
  obs::Journal::instance().append(obs::JournalKind::kShardQuarantine, error.code,
                                  /*instance=*/-1, shard ? -1 : unitResource_[u],
                                  shard ? error.unit : -1, error.message);
}

void FailoverCore::reassignWork() {
  if (survivors().empty()) {
    if (!cpuFallback_ || cpuFallbackUsed_) {
      fail(std::string("every ") + unitName() + " is quarantined; last error");
    }
    const auto host = static_cast<std::size_t>(moveToHostCpu());
    if (host >= quarantined_.size()) {
      quarantined_.resize(host + 1);
      unitErrors_.resize(host + 1);
    }
    quarantined_[host] = 0;
    unitErrors_[host].clear();
    cpuFallbackUsed_ = true;
    obs::Journal::instance().append(
        obs::JournalKind::kCpuFallback, 0, /*instance=*/-1, /*resource=*/0,
        kind_ == UnitKind::kShard ? static_cast<int>(host) : -1,
        std::string("every ") + unitName() + " quarantined; the host CPU carries all work");
  }
  journal(obs::JournalKind::kReapportion, reassign());
}

void FailoverCore::fail(const std::string& what) const {
  throw Error(owner_ + (": " + what) + ": " + lastFailure_,
              lastFailureCode_ != 0 ? lastFailureCode_ : kErrHardware);
}

const char* FailoverCore::unitName() const {
  return kind_ == UnitKind::kShard ? "shard" : "resource";
}

}  // namespace detail

void PartitionedLikelihood::OwnedInstance::reset(int id) {
  if (id_ >= 0) bglFinalizeInstance(id_);
  id_ = id;
}

PartitionedLikelihood::PartitionedLikelihood(const Tree& tree,
                                             const std::vector<PartitionSpec>& specs,
                                             const PartitionOptions& options)
    : FailoverCore("PartitionedLikelihood", UnitKind::kResource, options.failover,
                   options.cpuFallback),
      tree_(tree),
      specs_(specs),
      options_(options) {
  if (specs_.empty()) throw Error("PartitionedLikelihood: no partitions");
  for (const auto& spec : specs_) {
    if (spec.model == nullptr) throw Error("PartitionedLikelihood: null model");
    if (spec.data.taxa != tree_.tipCount()) {
      throw Error("PartitionedLikelihood: tree/data taxon count mismatch");
    }
    if (spec.data.patterns < 1) {
      throw Error("PartitionedLikelihood: partition with no patterns");
    }
  }
  partitionLogL_.assign(specs_.size(), 0.0);
  for (const auto& spec : specs_) {
    const int resource = shardResource(spec.options);
    partitionResource_.push_back(resource);
    if (unitOf(resource) == static_cast<int>(unitResource_.size())) {
      unitResource_.push_back(resource);
    }
  }
  quarantined_.assign(unitResource_.size(), 0);
  unitErrors_.assign(unitResource_.size(), std::string());
  if (options_.adaptive) rebuildBalancer();
  build(tree_);
}

int PartitionedLikelihood::unitOf(int resource) const {
  return static_cast<int>(
      std::find(unitResource_.begin(), unitResource_.end(), resource) -
      unitResource_.begin());
}

bool PartitionedLikelihood::buildUnits(const Tree& /*tree*/) {
  groups_.clear();
  partitionGroup_.assign(specs_.size(), -1);
  // Group partitions of compatible shape per resource, first-appearance
  // order; member order within a group fixes the concatenation order of
  // the shared pattern axis.
  for (std::size_t p = 0; p < specs_.size(); ++p) {
    const auto& spec = specs_[p];
    const int resource = partitionResource_[p];
    const int states = spec.model->states();
    int slot = -1;
    for (std::size_t g = 0; g < groups_.size(); ++g) {
      const auto& group = groups_[g];
      if (group.resource == resource && group.states == states &&
          group.categories == spec.options.categories &&
          group.useScaling == spec.options.useScaling &&
          group.preferenceFlags == spec.options.preferenceFlags &&
          group.requirementFlags == spec.options.requirementFlags) {
        slot = static_cast<int>(g);
        break;
      }
    }
    if (slot < 0) {
      Group group;
      group.resource = resource;
      group.states = states;
      group.categories = spec.options.categories;
      group.useScaling = spec.options.useScaling;
      group.preferenceFlags = spec.options.preferenceFlags;
      group.requirementFlags = spec.options.requirementFlags;
      slot = static_cast<int>(groups_.size());
      groups_.push_back(std::move(group));
    }
    groups_[static_cast<std::size_t>(slot)].members.push_back(static_cast<int>(p));
    groups_[static_cast<std::size_t>(slot)].patterns += spec.data.patterns;
    partitionGroup_[p] = slot;
  }
  for (auto& group : groups_) {
    if (!buildUnit(unitOf(group.resource), [&] { buildGroupInstance(group); })) {
      return false;
    }
  }
  return true;
}

void PartitionedLikelihood::buildGroupInstance(Group& group) {
  const int tips = tree_.tipCount();
  const int edges = 2 * tips - 2;
  const int q = static_cast<int>(group.members.size());
  const int scaleBuffers = group.useScaling ? tips : 0;

  // ONE instance for the whole group: the pattern axis is the member
  // partitions' concatenation; each member owns eigen/frequency/weight/
  // rate slot s and the matrix slots [s*edges, (s+1)*edges).
  BglInstanceDetails details{};
  const int instance = bglCreateInstance(
      tips, /*partialsBufferCount=*/tips - 1, /*compactBufferCount=*/tips,
      group.states, group.patterns, /*eigenBufferCount=*/q,
      /*matrixBufferCount=*/q * edges, group.categories, scaleBuffers,
      &group.resource, 1, group.preferenceFlags, group.requirementFlags,
      &details);
  if (instance < 0) {
    throwApiError("PartitionedLikelihood: bglCreateInstance", instance);
  }
  group.instance.reset(instance);
  group.implName = details.implName;

  int rc = BGL_SUCCESS;
  for (int s = 0; rc == BGL_SUCCESS && s < q; ++s) {
    const auto& spec = specs_[static_cast<std::size_t>(group.members[s])];
    const auto es = spec.model->eigenSystem();
    rc = bglSetEigenDecomposition(instance, s, es.evec.data(), es.ivec.data(),
                                  es.eval.data());
    if (rc == BGL_SUCCESS) {
      rc = bglSetStateFrequencies(instance, s, spec.model->frequencies().data());
    }
    if (rc == BGL_SUCCESS) {
      const std::vector<double> weights(group.categories, 1.0 / group.categories);
      rc = bglSetCategoryWeights(instance, s, weights.data());
    }
    if (rc == BGL_SUCCESS) {
      const auto rates =
          group.categories > 1
              ? discreteGammaRates(spec.options.alpha, group.categories)
              : std::vector<double>{1.0};
      rc = bglSetCategoryRatesWithIndex(instance, s, rates.data());
    }
  }
  if (rc == BGL_SUCCESS) {
    std::vector<double> weights;
    std::vector<int> map;
    weights.reserve(static_cast<std::size_t>(group.patterns));
    map.reserve(static_cast<std::size_t>(group.patterns));
    for (int s = 0; s < q; ++s) {
      const auto& data = specs_[static_cast<std::size_t>(group.members[s])].data;
      weights.insert(weights.end(), data.weights.begin(), data.weights.end());
      map.insert(map.end(), static_cast<std::size_t>(data.patterns), s);
    }
    rc = bglSetPatternWeights(instance, weights.data());
    if (rc == BGL_SUCCESS) rc = bglSetPatternPartitions(instance, q, map.data());
  }
  for (int t = 0; rc == BGL_SUCCESS && t < tips; ++t) {
    std::vector<int> tipStates;
    tipStates.reserve(static_cast<std::size_t>(group.patterns));
    for (int s = 0; s < q; ++s) {
      const auto& data = specs_[static_cast<std::size_t>(group.members[s])].data;
      for (int k = 0; k < data.patterns; ++k) tipStates.push_back(data.at(t, k));
    }
    rc = bglSetTipStates(instance, t, tipStates.data());
  }
  if (rc != BGL_SUCCESS) throwApiError("PartitionedLikelihood: instance setup", rc);
}

int PartitionedLikelihood::moveToHostCpu() {
  for (auto& spec : specs_) spec.options = hostFallbackOptions(spec.options);
  std::fill(partitionResource_.begin(), partitionResource_.end(), 0);
  const int host = unitOf(0);
  if (host == static_cast<int>(unitResource_.size())) unitResource_.push_back(0);
  return host;
}

std::string PartitionedLikelihood::reassign() {
  std::vector<int> active;
  for (int u : survivors()) active.push_back(unitResource_[static_cast<std::size_t>(u)]);
  // Greedy re-home: partitions stranded on quarantined resources, heaviest
  // first, each onto the surviving resource with the smallest predicted
  // finish time (current load + this partition's cost there).
  std::vector<double> load(active.size(), 0.0);
  std::vector<std::size_t> stranded;
  for (std::size_t p = 0; p < specs_.size(); ++p) {
    if (quarantined_[static_cast<std::size_t>(unitOf(partitionResource_[p]))]) {
      stranded.push_back(p);
      continue;
    }
    for (std::size_t j = 0; j < active.size(); ++j) {
      if (active[j] == partitionResource_[p]) {
        load[j] += partitionCost(active[j], specs_[p]);
      }
    }
  }
  std::stable_sort(stranded.begin(), stranded.end(),
                   [&](std::size_t a, std::size_t b) {
                     return partitionCost(active[0], specs_[a]) >
                            partitionCost(active[0], specs_[b]);
                   });
  for (std::size_t p : stranded) {
    std::size_t best = 0;
    double bestFinish = 0.0;
    for (std::size_t j = 0; j < active.size(); ++j) {
      const double finish = load[j] + partitionCost(active[j], specs_[p]);
      if (j == 0 || finish < bestFinish) {
        best = j;
        bestFinish = finish;
      }
    }
    partitionResource_[p] = active[best];
    load[best] = bestFinish;
  }
  if (options_.adaptive) rebuildBalancer();
  return std::to_string(stranded.size()) + " partition(s) re-homed across " +
         std::to_string(active.size()) + " surviving resource(s)";
}

void PartitionedLikelihood::rebuildBalancer() {
  balancerResources_.clear();
  for (int u : survivors()) {
    balancerResources_.push_back(unitResource_[static_cast<std::size_t>(u)]);
  }
  if (balancerResources_.size() < 2) {
    balancer_.reset();
    return;
  }
  // Seed speeds from the perf model so the first rounds start near the
  // steady state; observations take over through the EWMA.
  std::vector<double> speeds;
  speeds.reserve(balancerResources_.size());
  for (int r : balancerResources_) {
    double patterns = 0.0;
    double seconds = 0.0;
    for (std::size_t p = 0; p < specs_.size(); ++p) {
      patterns += specs_[p].data.patterns;
      seconds += partitionCost(r, specs_[p]);
    }
    speeds.push_back(seconds > 0.0 ? patterns / seconds : 1.0);
  }
  balancer_ = std::make_unique<sched::LoadBalancer>(speeds, balancerOptions(options_));
}

void PartitionedLikelihood::evaluateGroup(const Group& group, const Tree& tree) {
  const int instance = group.instance.id();
  const int tips = tree.tipCount();
  const int edges = 2 * tips - 2;
  const int q = static_cast<int>(group.members.size());

  // Every member shares the tree's edge set; one batched call refreshes
  // all q model copies of every edge matrix.
  std::vector<int> matrixNodes;
  std::vector<double> lengths;
  tree.matrixUpdates(matrixNodes, lengths);
  const int perModel = static_cast<int>(matrixNodes.size());
  std::vector<int> eigenIdx(static_cast<std::size_t>(q) * perModel);
  std::vector<int> ratesIdx(static_cast<std::size_t>(q) * perModel);
  std::vector<int> probIdx(static_cast<std::size_t>(q) * perModel);
  std::vector<double> allLengths(static_cast<std::size_t>(q) * perModel);
  for (int s = 0; s < q; ++s) {
    for (int i = 0; i < perModel; ++i) {
      const std::size_t at = static_cast<std::size_t>(s) * perModel + i;
      eigenIdx[at] = s;
      ratesIdx[at] = s;
      probIdx[at] = s * edges + matrixNodes[static_cast<std::size_t>(i)];
      allLengths[at] = lengths[static_cast<std::size_t>(i)];
    }
  }
  int rc = bglUpdateTransitionMatricesWithModels(
      instance, eigenIdx.data(), ratesIdx.data(), probIdx.data(),
      allLengths.data(), q * perModel);
  if (rc != BGL_SUCCESS) throwApiError("updateTransitionMatricesWithModels", rc);

  const int cum = group.useScaling ? tips - 1 : BGL_OP_NONE;
  if (group.useScaling) {
    rc = bglResetScaleFactors(instance, cum);
    if (rc != BGL_SUCCESS) throwApiError("resetScaleFactors", rc);
  }

  // The same level-order traversal once per member; the level batcher
  // fuses all members' operations for a level into one launch set.
  const auto baseOps = tree.operations(group.useScaling);
  std::vector<BglOperationByPartition> ops;
  ops.reserve(baseOps.size() * static_cast<std::size_t>(q));
  for (int s = 0; s < q; ++s) {
    for (const auto& op : baseOps) {
      BglOperationByPartition pop;
      pop.destinationPartials = op.destinationPartials;
      pop.destinationScaleWrite = op.destinationScaleWrite;
      pop.destinationScaleRead = op.destinationScaleRead;
      pop.child1Partials = op.child1Partials;
      pop.child1TransitionMatrix = s * edges + op.child1TransitionMatrix;
      pop.child2Partials = op.child2Partials;
      pop.child2TransitionMatrix = s * edges + op.child2TransitionMatrix;
      pop.partition = s;
      ops.push_back(pop);
    }
  }
  rc = bglUpdatePartialsByPartition(instance, ops.data(),
                                    static_cast<int>(ops.size()), cum);
  if (rc != BGL_SUCCESS) throwApiError("updatePartialsByPartition", rc);

  const int root = tree.root();
  std::vector<int> roots(static_cast<std::size_t>(q), root);
  std::vector<int> slots(static_cast<std::size_t>(q));
  std::iota(slots.begin(), slots.end(), 0);
  std::vector<int> cums(static_cast<std::size_t>(q), cum);
  std::vector<int> partIdx = slots;
  std::vector<double> logLs(static_cast<std::size_t>(q), 0.0);
  double total = 0.0;
  rc = bglCalculateRootLogLikelihoodsByPartition(
      instance, roots.data(), slots.data(), slots.data(),
      group.useScaling ? cums.data() : nullptr, partIdx.data(), q,
      logLs.data(), &total);
  if (rc != BGL_SUCCESS && rc != BGL_ERROR_FLOATING_POINT) {
    throwApiError("calculateRootLogLikelihoodsByPartition", rc);
  }
  for (int s = 0; s < q; ++s) {
    partitionLogL_[static_cast<std::size_t>(group.members[s])] =
        logLs[static_cast<std::size_t>(s)];
  }
}

std::vector<detail::UnitError> PartitionedLikelihood::evaluateUnits(const Tree& tree) {
  std::vector<UnitRun> runs(groups_.size());
  const int peak = runBounded(
      static_cast<int>(groups_.size()),
      options_.concurrent ? concurrencyCap(options_.maxConcurrency) : 1, [&](int g) {
        const Group& group = groups_[static_cast<std::size_t>(g)];
        runs[static_cast<std::size_t>(g)] =
            timedEvaluate(unitOf(group.resource), group.instance.id(),
                          [&] { evaluateGroup(group, tree); });
      });
  peakConcurrency_ = std::max(peakConcurrency_, peak);
  std::vector<detail::UnitError> failed;
  for (std::size_t g = 0; g < groups_.size(); ++g) {
    groups_[g].seconds = runs[g].seconds;
    groups_[g].launches = runs[g].launches;
    if (runs[g].error.code != 0) failed.push_back(std::move(runs[g].error));
  }
  return failed;
}

void PartitionedLikelihood::maybeRebalance() {
  if (balancer_ == nullptr || balancerResources_.size() < 2) return;
  // One observation per active resource: patterns and modeled seconds
  // summed over the resource's groups.
  const std::size_t nR = balancerResources_.size();
  std::vector<double> seconds(nR, 0.0);
  std::vector<int> patterns(nR, 0);
  for (const auto& group : groups_) {
    for (std::size_t j = 0; j < nR; ++j) {
      if (balancerResources_[j] == group.resource) {
        seconds[j] += group.seconds;
        patterns[j] += group.patterns;
      }
    }
  }
  int totalPatterns = 0;
  for (std::size_t j = 0; j < nR; ++j) {
    totalPatterns += patterns[j];
    if (patterns[j] > 0 && seconds[j] > 0.0) {
      balancer_->observe(static_cast<int>(j), patterns[j], seconds[j]);
    }
  }
  if (balancer_->rebalance(totalPatterns, patterns).empty()) return;
  // The balancer votes for a re-split of the pattern axis; partitions move
  // whole, so translate the vote into an LPT assignment of per-partition
  // costs onto the observed speeds.
  std::vector<double> weights(specs_.size());
  for (std::size_t p = 0; p < specs_.size(); ++p) {
    const auto& spec = specs_[p];
    weights[p] = static_cast<double>(spec.data.patterns) *
                 spec.model->states() * spec.options.categories;
  }
  const auto assignment = sched::apportionWeightedItems(weights, balancer_->speeds());
  int migrated = 0;
  for (std::size_t p = 0; p < specs_.size(); ++p) {
    const int resource = balancerResources_[static_cast<std::size_t>(assignment[p])];
    if (resource != partitionResource_[p]) {
      ++migrated;
      partitionResource_[p] = resource;
    }
  }
  if (migrated == 0) return;
  sched::noteRebalance(static_cast<std::uint64_t>(migrated));
  journal(obs::JournalKind::kRebalance,
          "adaptive re-home migrated " + std::to_string(migrated) +
              " partition(s) across " + std::to_string(nR) + " resource(s)");
  obs::ScopedSpan span(sched::recorder(), obs::Category::kOperation,
                       "sched.rebalance");
  build(tree_);
  ++rebalances_;
}

double PartitionedLikelihood::logLikelihood(const Tree& tree) {
  if (tree.tipCount() != tree_.tipCount()) {
    throw Error("PartitionedLikelihood: taxon count changed");
  }
  tree_ = tree;
  evaluate(tree_);
  lastInstanceSeconds_.clear();
  lastKernelLaunches_ = 0;
  for (const auto& group : groups_) {
    lastInstanceSeconds_.push_back(group.seconds);
    lastKernelLaunches_ += group.launches;
  }
  if (options_.adaptive) maybeRebalance();
  double total = 0.0;
  for (double v : partitionLogL_) total += v;
  return total;
}

const std::string& PartitionedLikelihood::implName(int partition) const {
  return groups_[static_cast<std::size_t>(groupOf(partition))].implName;
}

double PartitionedLikelihood::lastModeledSeconds() const {
  double total = 0.0;
  for (double s : lastInstanceSeconds_) total += s;
  return total;
}

void autoAssignResources(std::vector<PartitionSpec>& specs, bool benchmark) {
  if (specs.empty()) return;
  const auto estimates = sched::resourceEstimates({}, {}, benchmark);
  if (estimates.empty()) return;
  // Fastest resources first.
  std::vector<const sched::ResourceEstimate*> ranked;
  ranked.reserve(estimates.size());
  for (const auto& e : estimates) ranked.push_back(&e);
  std::stable_sort(ranked.begin(), ranked.end(),
                   [](const sched::ResourceEstimate* a,
                      const sched::ResourceEstimate* b) {
                     return a->patternsPerSecond > b->patternsPerSecond;
                   });
  // Costliest partitions first, so the heaviest subsets land on the
  // fastest resources; wrap around when partitions outnumber resources.
  // Cost is the scheduler's full per-evaluation estimate — patterns AND
  // states x categories — measured against one fixed yardstick resource
  // (the fastest) so the ordering is resource-independent: a 500-pattern
  // codon partition outranks a 2000-pattern nucleotide one.
  const int yardstick = ranked.front()->resource;
  std::vector<double> costs(specs.size());
  for (std::size_t i = 0; i < specs.size(); ++i) {
    costs[i] = partitionCost(yardstick, specs[i]);
  }
  std::vector<std::size_t> order(specs.size());
  std::iota(order.begin(), order.end(), std::size_t{0});
  std::stable_sort(order.begin(), order.end(), [&](std::size_t a, std::size_t b) {
    return costs[a] > costs[b];
  });
  for (std::size_t i = 0; i < order.size(); ++i) {
    const auto* pick = ranked[i % ranked.size()];
    specs[order[i]].options.resources = {pick->resource};
  }
}

SplitMode splitModeFromFlags(long flags) {
  if (flags & BGL_FLAG_LOADBALANCE_ADAPTIVE) return SplitMode::Adaptive;
  if (flags & (BGL_FLAG_LOADBALANCE_BENCHMARK | BGL_FLAG_LOADBALANCE_MODEL)) {
    return SplitMode::Proportional;
  }
  return SplitMode::Equal;
}

std::vector<PatternSet> splitPatterns(const PatternSet& data, int shards) {
  if (shards < 1) throw Error("splitPatterns: need >= 1 shard");
  if (shards > data.patterns) shards = data.patterns;
  std::vector<int> shares(static_cast<std::size_t>(shards));
  for (int k = 0; k < data.patterns; ++k) ++shares[static_cast<std::size_t>(k % shards)];
  return splitPatternsByShares(data, shares);
}

std::vector<PatternSet> splitPatternsByShares(const PatternSet& data,
                                              const std::vector<int>& shares) {
  if (shares.empty()) throw Error("splitPatternsByShares: need >= 1 shard");
  int total = 0;
  for (int s : shares) {
    if (s < 0) throw Error("splitPatternsByShares: negative share");
    total += s;
  }
  if (total != data.patterns) {
    throw Error("splitPatternsByShares: shares sum to " + std::to_string(total) +
                ", expected " + std::to_string(data.patterns));
  }
  const int n = static_cast<int>(shares.size());
  std::vector<PatternSet> out(static_cast<std::size_t>(n));
  for (int s = 0; s < n; ++s) {
    out[s].taxa = data.taxa;
    out[s].originalSites = 0;
  }
  // Deal pattern columns in index order, strided across the shards that
  // still have capacity: shard composition stays statistically similar to
  // the full set even when shares are very unequal.
  std::vector<std::vector<int>> columns(static_cast<std::size_t>(n));
  std::vector<int> remaining = shares;
  int cursor = 0;
  for (int k = 0; k < data.patterns; ++k) {
    int probed = 0;
    while (remaining[static_cast<std::size_t>(cursor)] == 0 && probed < n) {
      cursor = (cursor + 1) % n;
      ++probed;
    }
    columns[static_cast<std::size_t>(cursor)].push_back(k);
    --remaining[static_cast<std::size_t>(cursor)];
    cursor = (cursor + 1) % n;
  }
  for (int s = 0; s < n; ++s) {
    auto& shard = out[s];
    shard.patterns = static_cast<int>(columns[s].size());
    shard.states.resize(static_cast<std::size_t>(data.taxa) * shard.patterns);
    shard.weights.reserve(shard.patterns);
    for (int j = 0; j < shard.patterns; ++j) {
      const int k = columns[s][j];
      shard.weights.push_back(data.weights[k]);
      shard.originalSites += static_cast<int>(data.weights[k]);
      for (int t = 0; t < data.taxa; ++t) {
        shard.states[static_cast<std::size_t>(t) * shard.patterns + j] =
            data.at(t, k);
      }
    }
  }
  return out;
}

SplitLikelihood::SplitLikelihood(const Tree& tree, const SubstitutionModel& model,
                                 const PatternSet& data,
                                 const std::vector<LikelihoodOptions>& shardOptions,
                                 bool concurrent)
    : SplitLikelihood(tree, model, data, shardOptions, [&] {
        SplitOptions split;
        split.mode = SplitMode::Equal;
        split.concurrent = concurrent;
        return split;
      }()) {}

SplitLikelihood::SplitLikelihood(const Tree& tree, const SubstitutionModel& model,
                                 const PatternSet& data,
                                 const std::vector<LikelihoodOptions>& shardOptions,
                                 const SplitOptions& split)
    : FailoverCore("SplitLikelihood", UnitKind::kShard, split.failover,
                   split.cpuFallback),
      model_(&model),
      data_(data),
      shardOptions_(shardOptions),
      split_(split) {
  if (shardOptions_.empty()) throw Error("SplitLikelihood: no shards");
  if (data_.patterns < 1) throw Error("SplitLikelihood: no patterns");
  const int n = static_cast<int>(shardOptions_.size());

  std::vector<double> speeds;
  if (split_.mode == SplitMode::Equal) {
    speeds.assign(static_cast<std::size_t>(n), 1.0);
  } else if (!split_.speeds.empty()) {
    if (static_cast<int>(split_.speeds.size()) != n) {
      throw Error("SplitLikelihood: speeds/shardOptions size mismatch");
    }
    speeds = split_.speeds;
    calibratedSpeeds_ = speeds;
  } else {
    // Calibrate each shard's (resource, flags) combination through the
    // scheduler; estimates are cached process-wide, so identical shard
    // configurations cost one calibration run between them.
    speeds.reserve(static_cast<std::size_t>(n));
    for (const auto& options : shardOptions_) {
      const auto estimate = sched::resourceEstimate(
          shardResource(options), shardSpec(model, options, split_),
          split_.benchmark);
      speeds.push_back(estimate.patternsPerSecond);
    }
    calibratedSpeeds_ = speeds;
  }

  currentSpeeds_ = speeds;
  quarantined_.assign(static_cast<std::size_t>(n), 0);
  unitErrors_.assign(static_cast<std::size_t>(n), std::string());
  active_.resize(static_cast<std::size_t>(n));
  std::iota(active_.begin(), active_.end(), 0);

  shardPatterns_ =
      sched::proportionalShares(data_.patterns, speeds, split_.minPatternsPerShard);
  resetBalancer(speeds);
  build(tree);
}

void SplitLikelihood::resetBalancer(const std::vector<double>& speeds) {
  if (split_.mode != SplitMode::Adaptive) return;
  balancer_ = std::make_unique<sched::LoadBalancer>(
      speeds, balancerOptions(split_, split_.minPatternsPerShard));
}

bool SplitLikelihood::buildUnits(const Tree& tree) {
  shards_.clear();
  shards_.resize(shardPatterns_.size());
  shardSeconds_.assign(shardPatterns_.size(), 0.0);
  const auto shardData = splitPatternsByShares(data_, shardPatterns_);
  for (std::size_t s = 0; s < shards_.size(); ++s) {
    if (shardPatterns_[s] <= 0) continue;  // idle or quarantined shard: no instance
    if (!buildUnit(static_cast<int>(s), [&] {
          shards_[s] = std::make_unique<TreeLikelihood>(tree, *model_, shardData[s],
                                                        shardOptions_[s]);
        })) {
      return false;
    }
  }
  return true;
}

int SplitLikelihood::moveToHostCpu() {
  // Shard 0 carries the whole alignment on a plain host-CPU instance.
  shardOptions_[0] = hostFallbackOptions(shardOptions_[0]);
  return 0;
}

std::string SplitLikelihood::reassign() {
  active_ = survivors();
  std::vector<double> speeds;
  speeds.reserve(active_.size());
  for (int i : active_) {
    const double s = currentSpeeds_[static_cast<std::size_t>(i)];
    speeds.push_back(s > 0.0 ? s : 1.0);
  }
  // The balancer must be rebuilt over the survivors only: feeding the old
  // full-size balancer would let sanitizeSpeeds resurrect dead shards.
  resetBalancer(speeds);
  const auto activeShares =
      sched::proportionalShares(data_.patterns, speeds, split_.minPatternsPerShard);
  shardPatterns_.assign(shardOptions_.size(), 0);
  for (std::size_t j = 0; j < active_.size(); ++j) {
    shardPatterns_[static_cast<std::size_t>(active_[j])] = activeShares[j];
  }
  return std::to_string(data_.patterns) + " patterns re-apportioned across " +
         std::to_string(active_.size()) + " surviving shard(s)";
}

std::vector<detail::UnitError> SplitLikelihood::evaluateUnits(const Tree& tree) {
  const std::size_t n = shards_.size();
  std::vector<UnitRun> runs(n);
  std::vector<double> logL(n, 0.0);
  runBounded(static_cast<int>(n), split_.concurrent ? concurrencyCap(0) : 1,
             [&](int i) {
               const auto at = static_cast<std::size_t>(i);
               TreeLikelihood* shard = shards_[at].get();
               if (shard == nullptr) return;
               runs[at] = timedEvaluate(i, shard->instance(),
                                        [&] { logL[at] = shard->logLikelihood(tree); });
             });
  std::vector<detail::UnitError> failed;
  roundLogL_ = 0.0;
  for (std::size_t i = 0; i < n; ++i) {
    double seconds = runs[i].seconds;
    if (i < split_.debugSlowdown.size() && split_.debugSlowdown[i] > 0.0) {
      seconds *= split_.debugSlowdown[i];
    }
    shardSeconds_[i] = seconds;
    roundLogL_ += logL[i];
    if (runs[i].error.code != 0) failed.push_back(std::move(runs[i].error));
  }
  return failed;
}

double SplitLikelihood::logLikelihood(const Tree& tree) {
  evaluate(tree);
  const double total = roundLogL_;
  if (balancer_ == nullptr) return total;
  // The balancer is indexed over active_ (the non-quarantined shards);
  // translate between balancer slots and shard indices.
  for (std::size_t j = 0; j < active_.size(); ++j) {
    const auto i = static_cast<std::size_t>(active_[j]);
    if (shardPatterns_[i] > 0 && shardSeconds_[i] > 0.0) {
      balancer_->observe(static_cast<int>(j), shardPatterns_[i], shardSeconds_[i]);
    }
  }
  const auto& observed = balancer_->speeds();
  for (std::size_t j = 0; j < active_.size() && j < observed.size(); ++j) {
    currentSpeeds_[static_cast<std::size_t>(active_[j])] = observed[j];
  }
  std::vector<int> activeShares(active_.size());
  for (std::size_t j = 0; j < active_.size(); ++j) {
    activeShares[j] = shardPatterns_[static_cast<std::size_t>(active_[j])];
  }
  const auto newActive = balancer_->rebalance(data_.patterns, activeShares);
  if (newActive.empty()) return total;
  std::vector<int> newShares(shards_.size(), 0);
  for (std::size_t j = 0; j < active_.size(); ++j) {
    newShares[static_cast<std::size_t>(active_[j])] = newActive[j];
  }
  const int migrated = sched::migratedItems(shardPatterns_, newShares);
  sched::noteRebalance(static_cast<std::uint64_t>(migrated));
  journal(obs::JournalKind::kRebalance,
          "adaptive re-split migrated " + std::to_string(migrated) +
              " patterns across " + std::to_string(active_.size()) + " shard(s)");
  obs::ScopedSpan span(sched::recorder(), obs::Category::kOperation,
                       "sched.rebalance");
  shardPatterns_ = newShares;
  build(tree);
  ++rebalances_;
  return total;
}

const std::string& SplitLikelihood::implName(int shard) const {
  static const std::string kIdle = "(idle)";
  const auto& ptr = shards_[static_cast<std::size_t>(shard)];
  return ptr == nullptr ? kIdle : ptr->implName();
}

std::vector<int> SplitLikelihood::quarantinedShards() const {
  std::vector<int> out;
  for (std::size_t i = 0; i < quarantined_.size(); ++i) {
    if (quarantined_[i]) out.push_back(static_cast<int>(i));
  }
  return out;
}

std::vector<double> SplitLikelihood::shardSpeeds() const {
  if (balancer_ == nullptr) return calibratedSpeeds_;
  // Balancer slots map to active_ shard indices; quarantined shards
  // report speed 0.
  std::vector<double> out(shards_.size(), 0.0);
  const auto& observed = balancer_->speeds();
  for (std::size_t j = 0; j < active_.size() && j < observed.size(); ++j) {
    out[static_cast<std::size_t>(active_[j])] = observed[j];
  }
  return out;
}

}  // namespace bgl::phylo
