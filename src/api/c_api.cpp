// C API shim: argument checking lives in the implementations; this layer
// owns the instance table and translates exceptions into return codes.
#include "api/bgl.h"

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <mutex>
#include <set>
#include <string>
#include <vector>

#include "api/implementation.h"
#include "api/last_error.h"
#include "api/registry.h"
#include "core/defs.h"
#include "fault/fault.h"
#include "obs/export.h"
#include "obs/journal.h"
#include "obs/metrics.h"

// The Error::code() constants in core/defs.h mirror BglReturnCode so the
// layers below the C API can attach structured codes without including
// the public header; keep the two in lockstep.
static_assert(bgl::kErrGeneral == BGL_ERROR_GENERAL);
static_assert(bgl::kErrOutOfMemory == BGL_ERROR_OUT_OF_MEMORY);
static_assert(bgl::kErrOutOfRange == BGL_ERROR_OUT_OF_RANGE);
static_assert(bgl::kErrHardware == BGL_ERROR_HARDWARE);
static_assert(bgl::kErrRejected == BGL_ERROR_REJECTED);

// BglJournalKind mirrors obs::JournalKind; keep the two in lockstep.
static_assert(BGL_JOURNAL_ERROR ==
              static_cast<int>(bgl::obs::JournalKind::kError));
static_assert(BGL_JOURNAL_FAULT_INJECTED ==
              static_cast<int>(bgl::obs::JournalKind::kFaultInjected));
static_assert(BGL_JOURNAL_STREAM_ERROR ==
              static_cast<int>(bgl::obs::JournalKind::kStreamError));
static_assert(BGL_JOURNAL_SHARD_QUARANTINE ==
              static_cast<int>(bgl::obs::JournalKind::kShardQuarantine));
static_assert(BGL_JOURNAL_REAPPORTION ==
              static_cast<int>(bgl::obs::JournalKind::kReapportion));
static_assert(BGL_JOURNAL_RETRY == static_cast<int>(bgl::obs::JournalKind::kRetry));
static_assert(BGL_JOURNAL_CPU_FALLBACK ==
              static_cast<int>(bgl::obs::JournalKind::kCpuFallback));
static_assert(BGL_JOURNAL_REBALANCE ==
              static_cast<int>(bgl::obs::JournalKind::kRebalance));
static_assert(BGL_JOURNAL_CALIBRATION_FALLBACK ==
              static_cast<int>(bgl::obs::JournalKind::kCalibrationFallback));
static_assert(BGL_JOURNAL_ADMISSION_REJECT ==
              static_cast<int>(bgl::obs::JournalKind::kAdmissionReject));
static_assert(BGL_JOURNAL_POOL_EVICT ==
              static_cast<int>(bgl::obs::JournalKind::kPoolEvict));
static_assert(BGL_JOURNAL_POOL_REINIT ==
              static_cast<int>(bgl::obs::JournalKind::kPoolReinit));
static_assert(sizeof(BglJournalRecord{}.message) ==
              bgl::obs::JournalRecord::kMessageBytes);

namespace {

struct InstanceSlot {
  /// shared_ptr so in-flight operations pin the implementation: a
  /// concurrent bglFinalizeInstance clears the slot, and destruction
  /// happens when the last operation drops its reference — never under
  /// an operation's feet.
  std::shared_ptr<bgl::Implementation> impl;
  std::string implName;
  std::string resourceName;
  int resource = -1;
  long flags = 0;
  std::string traceFile;  ///< Chrome-trace output path, written at finalize
  std::string statsFile;  ///< stats-JSON output path, written at finalize
};

std::mutex g_mutex;
std::vector<InstanceSlot> g_instances;

/// Ceiling on bglSetThreadCount (documented in api/bgl.h).
constexpr int kMaxThreadCount = 1024;

/// Detail for the most recent failed call on this thread (bglGetLastErrorMessage).
thread_local std::string t_lastError;

void setLastError(std::string message) { t_lastError = std::move(message); }

/// Map an Error's embedded code to a BglReturnCode (anything outside the
/// known range degrades to BGL_ERROR_GENERAL rather than leaking
/// arbitrary integers through the C ABI).
int returnCodeFor(const bgl::Error& error) {
  const int code = error.code();
  return (code <= BGL_SUCCESS && code >= BGL_ERROR_REJECTED) ? code
                                                             : BGL_ERROR_GENERAL;
}

/// Output paths claimed by live instances, so several instances created
/// with the same BGL_TRACE/BGL_STATS value don't clobber one file.
std::set<std::string> g_claimedPaths;

/// Claim `path` for instance `id`, uniquifying with an ".i<id>" suffix if
/// another live instance already owns it. Caller holds g_mutex.
std::string claimPathLocked(const std::string& path, int id) {
  if (path.empty()) return path;
  std::string chosen = path;
  if (g_claimedPaths.count(chosen) != 0) {
    chosen = path + ".i" + std::to_string(id);
  }
  g_claimedPaths.insert(chosen);
  return chosen;
}

void releasePathLocked(const std::string& path) {
  if (!path.empty()) g_claimedPaths.erase(path);
}

/// Pin the instance: the returned shared_ptr keeps the implementation
/// alive even if another thread finalizes the slot mid-operation.
std::shared_ptr<bgl::Implementation> lookup(int instance) {
  std::lock_guard lock(g_mutex);
  if (instance < 0 || instance >= static_cast<int>(g_instances.size())) {
    return nullptr;
  }
  return g_instances[instance].impl;
}

/// Flight-record an error the C API is about to surface, then flush the
/// instance's stats/trace files so the failure context survives even if
/// the process never reaches a clean bglFinalizeInstance.
void journalError(int instance, int code, const std::string& message) {
  bgl::obs::Journal::instance().append(bgl::obs::JournalKind::kError, code,
                                       instance, /*resource=*/-1, /*shard=*/-1,
                                       message);
  bgl::obs::ProcessRegistry::instance().snapshotInstanceFiles(instance);
}

/// Run `fn` on the instance, translating exceptions to error codes and
/// capturing their messages for bglGetLastErrorMessage.
template <typename F>
int withInstance(int instance, F&& fn) {
  t_lastError.clear();
  const std::shared_ptr<bgl::Implementation> impl = lookup(instance);
  if (impl == nullptr) {
    setLastError("instance " + std::to_string(instance) +
                 " is not a live instance id");
    return BGL_ERROR_OUT_OF_RANGE;
  }
  try {
    return fn(*impl);
  } catch (const std::bad_alloc&) {
    setLastError("allocation failed");
    journalError(instance, BGL_ERROR_OUT_OF_MEMORY, t_lastError);
    return BGL_ERROR_OUT_OF_MEMORY;
  } catch (const bgl::Error& e) {
    setLastError(e.what());
    const int code = returnCodeFor(e);
    journalError(instance, code, t_lastError);
    return code;
  } catch (const std::exception& e) {
    setLastError(e.what());
    journalError(instance, BGL_ERROR_UNIDENTIFIED_EXCEPTION, t_lastError);
    return BGL_ERROR_UNIDENTIFIED_EXCEPTION;
  } catch (...) {
    journalError(instance, BGL_ERROR_UNIDENTIFIED_EXCEPTION,
                 "unidentified exception");
    return BGL_ERROR_UNIDENTIFIED_EXCEPTION;
  }
}

/// First-use hookup of the live-metrics service from the environment
/// (BGL_METRICS = path, BGL_METRICS_MS = period), mirroring how BGL_TRACE
/// and BGL_STATS are read at instance creation.
void startMetricsFromEnvOnce() {
  static std::once_flag once;
  std::call_once(once, [] {
    const char* path = std::getenv("BGL_METRICS");
    if (path == nullptr || *path == '\0') return;
    int periodMs = 0;
    if (const char* ms = std::getenv("BGL_METRICS_MS"); ms != nullptr && *ms) {
      periodMs = std::atoi(ms);
    }
    bgl::obs::ProcessRegistry::instance().setMetricsFile(path, periodMs);
  });
}

}  // namespace

namespace bgl::api {

void setThreadLastError(std::string message) {
  setLastError(std::move(message));
}

void clearThreadLastError() { t_lastError.clear(); }

}  // namespace bgl::api

extern "C" {

const char* bglGetVersion(void) { return "1.0.0"; }

const char* bglGetCitation(void) {
  return "Reimplementation of: Ayres DL, Cummings MP (2017) Heterogeneous "
         "Hardware Support in BEAGLE, a High-Performance Computing Library "
         "for Statistical Phylogenetics. ICPP Workshops 2017.";
}

BglResourceList* bglGetResourceList(void) {
  // Per-thread snapshot: stable storage for the caller, immune to plugin
  // registration rewriting the registry's own list. Valid until this
  // thread's next call.
  thread_local bgl::Registry::ResourceSnapshot snapshot;
  bgl::Registry::instance().snapshotResources(snapshot);
  return &snapshot.list;
}

const char* bglGetLastErrorMessage(void) { return t_lastError.c_str(); }

int bglSetFaultSpec(const char* spec) {
  t_lastError.clear();
  std::string error;
  if (!bgl::fault::Injector::instance().configure(
          spec == nullptr ? "" : spec, &error)) {
    setLastError(error);
    return BGL_ERROR_OUT_OF_RANGE;
  }
  return BGL_SUCCESS;
}

int bglCreateInstance(int tipCount, int partialsBufferCount, int compactBufferCount,
                      int stateCount, int patternCount, int eigenBufferCount,
                      int matrixBufferCount, int categoryCount, int scaleBufferCount,
                      const int* resourceList, int resourceCount,
                      long preferenceFlags, long requirementFlags,
                      BglInstanceDetails* returnInfo) {
  t_lastError.clear();
  if (tipCount < 0 || partialsBufferCount < 0 || compactBufferCount < 0 ||
      stateCount < 2 || patternCount < 1 || eigenBufferCount < 1 ||
      matrixBufferCount < 1 || categoryCount < 1 || scaleBufferCount < 0 ||
      partialsBufferCount + compactBufferCount < tipCount) {
    return BGL_ERROR_OUT_OF_RANGE;
  }
  bgl::InstanceConfig cfg;
  cfg.tipCount = tipCount;
  cfg.partialsBufferCount = partialsBufferCount;
  cfg.compactBufferCount = compactBufferCount;
  cfg.stateCount = stateCount;
  cfg.patternCount = patternCount;
  cfg.eigenBufferCount = eigenBufferCount;
  cfg.matrixBufferCount = matrixBufferCount;
  cfg.categoryCount = categoryCount;
  cfg.scaleBufferCount = scaleBufferCount;

  startMetricsFromEnvOnce();

  int error = BGL_SUCCESS;
  try {
    auto result = bgl::Registry::instance().create(cfg, resourceList, resourceCount,
                                                   preferenceFlags, requirementFlags,
                                                   &error);
    if (result.impl == nullptr) {
      if (error != BGL_SUCCESS) {
        bgl::obs::Journal::instance().append(bgl::obs::JournalKind::kError, error,
                                             /*instance=*/-1, /*resource=*/-1,
                                             /*shard=*/-1, t_lastError);
      }
      return error;
    }

    int id = -1;
    std::string traceFile, statsFile;
    {
      std::lock_guard lock(g_mutex);
      for (int i = 0; i < static_cast<int>(g_instances.size()); ++i) {
        if (g_instances[i].impl == nullptr) {
          id = i;
          break;
        }
      }
      if (id < 0) {
        id = static_cast<int>(g_instances.size());
        g_instances.emplace_back();
      }
      auto& slot = g_instances[id];
      slot.impl = std::move(result.impl);
      slot.implName = result.implName;
      slot.resourceName = result.resourceName;
      slot.resource = result.resource;
      slot.flags = result.flags;
      if (const char* trace = std::getenv("BGL_TRACE"); trace != nullptr && *trace) {
        slot.traceFile = claimPathLocked(trace, id);
        slot.impl->recorder().enableEvents();
      }
      if (const char* stats = std::getenv("BGL_STATS"); stats != nullptr && *stats) {
        slot.statsFile = claimPathLocked(stats, id);
        slot.impl->recorder().enableTiming();
      }
      if (returnInfo != nullptr) {
        returnInfo->resourceNumber = slot.resource;
        returnInfo->resourceName = slot.resourceName.c_str();
        returnInfo->implName = slot.implName.c_str();
        returnInfo->flags = slot.flags;
      }
      auto& registry = bgl::obs::ProcessRegistry::instance();
      registry.add(id, std::weak_ptr<void>(slot.impl), &slot.impl->recorder(),
                   slot.implName, slot.resourceName, slot.resource);
      traceFile = slot.traceFile;
      statsFile = slot.statsFile;
    }
    bgl::obs::ProcessRegistry::instance().setFiles(id, traceFile, statsFile);
    return id;
  } catch (const std::bad_alloc&) {
    setLastError("allocation failed while creating the instance");
    journalError(-1, BGL_ERROR_OUT_OF_MEMORY, t_lastError);
    return BGL_ERROR_OUT_OF_MEMORY;
  } catch (const bgl::Error& e) {
    setLastError(e.what());
    const int code = returnCodeFor(e);
    journalError(-1, code, t_lastError);
    return code;
  } catch (const std::exception& e) {
    setLastError(e.what());
    journalError(-1, BGL_ERROR_UNIDENTIFIED_EXCEPTION, t_lastError);
    return BGL_ERROR_UNIDENTIFIED_EXCEPTION;
  } catch (...) {
    journalError(-1, BGL_ERROR_UNIDENTIFIED_EXCEPTION, "unidentified exception");
    return BGL_ERROR_UNIDENTIFIED_EXCEPTION;
  }
}

int bglFinalizeInstance(int instance) {
  t_lastError.clear();
  // Detach the slot under the lock, then export and destroy outside it:
  // trace/stats writing does file I/O, and the implementation itself may
  // only be destroyed once every in-flight operation has dropped its
  // pinning reference (which can be after this function returns — the
  // shared_ptr handles that).
  InstanceSlot slot;
  {
    std::lock_guard lock(g_mutex);
    if (instance < 0 || instance >= static_cast<int>(g_instances.size()) ||
        g_instances[instance].impl == nullptr) {
      setLastError("instance " + std::to_string(instance) +
                   " is not a live instance id");
      return BGL_ERROR_OUT_OF_RANGE;
    }
    slot = std::move(g_instances[instance]);
    g_instances[instance] = InstanceSlot{};
    releasePathLocked(slot.traceFile);
    releasePathLocked(slot.statsFile);
  }
  // Retire from the process registry first — the metrics thread must stop
  // rewriting this instance's files before the final export below — while
  // `slot.impl` still pins the recorder so the final totals fold in.
  bgl::obs::ProcessRegistry::instance().remove(instance);
  const std::string process = slot.implName + " @ " + slot.resourceName;
  if (!slot.traceFile.empty()) {
    if (!bgl::obs::writeChromeTraceFile(slot.traceFile, slot.impl->recorder(),
                                        process)) {
      std::fprintf(stderr, "bgl: could not write trace file '%s'\n",
                   slot.traceFile.c_str());
    }
  }
  if (!slot.statsFile.empty()) {
    if (!bgl::obs::writeStatsJsonFile(slot.statsFile, slot.impl->recorder(),
                                      slot.implName, slot.resourceName)) {
      std::fprintf(stderr, "bgl: could not write stats file '%s'\n",
                   slot.statsFile.c_str());
    }
  }
  return BGL_SUCCESS;
}

int bglSetTipStates(int instance, int tipIndex, const int* inStates) {
  if (inStates == nullptr) return BGL_ERROR_OUT_OF_RANGE;
  return withInstance(instance,
                      [&](auto& impl) { return impl.setTipStates(tipIndex, inStates); });
}

int bglSetTipPartials(int instance, int tipIndex, const double* inPartials) {
  if (inPartials == nullptr) return BGL_ERROR_OUT_OF_RANGE;
  return withInstance(
      instance, [&](auto& impl) { return impl.setTipPartials(tipIndex, inPartials); });
}

int bglSetPartials(int instance, int bufferIndex, const double* inPartials) {
  if (inPartials == nullptr) return BGL_ERROR_OUT_OF_RANGE;
  return withInstance(
      instance, [&](auto& impl) { return impl.setPartials(bufferIndex, inPartials); });
}

int bglGetPartials(int instance, int bufferIndex, double* outPartials) {
  if (outPartials == nullptr) return BGL_ERROR_OUT_OF_RANGE;
  return withInstance(
      instance, [&](auto& impl) { return impl.getPartials(bufferIndex, outPartials); });
}

int bglSetStateFrequencies(int instance, int stateFrequenciesIndex,
                           const double* inStateFrequencies) {
  if (inStateFrequencies == nullptr) return BGL_ERROR_OUT_OF_RANGE;
  return withInstance(instance, [&](auto& impl) {
    return impl.setStateFrequencies(stateFrequenciesIndex, inStateFrequencies);
  });
}

int bglSetCategoryWeights(int instance, int categoryWeightsIndex,
                          const double* inCategoryWeights) {
  if (inCategoryWeights == nullptr) return BGL_ERROR_OUT_OF_RANGE;
  return withInstance(instance, [&](auto& impl) {
    return impl.setCategoryWeights(categoryWeightsIndex, inCategoryWeights);
  });
}

int bglSetCategoryRates(int instance, const double* inCategoryRates) {
  if (inCategoryRates == nullptr) return BGL_ERROR_OUT_OF_RANGE;
  return withInstance(
      instance, [&](auto& impl) { return impl.setCategoryRates(inCategoryRates); });
}

int bglSetCategoryRatesWithIndex(int instance, int categoryRatesIndex,
                                 const double* inCategoryRates) {
  if (inCategoryRates == nullptr) return BGL_ERROR_OUT_OF_RANGE;
  return withInstance(instance, [&](auto& impl) -> int {
    if (categoryRatesIndex < 0 ||
        categoryRatesIndex >= impl.config().eigenBufferCount) {
      bgl::api::setThreadLastError("category-rates index " +
                                   std::to_string(categoryRatesIndex) +
                                   " outside [0, eigenBufferCount)");
      return BGL_ERROR_OUT_OF_RANGE;
    }
    return impl.setCategoryRatesWithIndex(categoryRatesIndex, inCategoryRates);
  });
}

int bglSetPatternWeights(int instance, const double* inPatternWeights) {
  if (inPatternWeights == nullptr) return BGL_ERROR_OUT_OF_RANGE;
  return withInstance(
      instance, [&](auto& impl) { return impl.setPatternWeights(inPatternWeights); });
}

int bglSetEigenDecomposition(int instance, int eigenIndex, const double* inEigenVectors,
                             const double* inInverseEigenVectors,
                             const double* inEigenValues) {
  if (inEigenVectors == nullptr || inInverseEigenVectors == nullptr ||
      inEigenValues == nullptr) {
    return BGL_ERROR_OUT_OF_RANGE;
  }
  return withInstance(instance, [&](auto& impl) {
    return impl.setEigenDecomposition(eigenIndex, inEigenVectors,
                                      inInverseEigenVectors, inEigenValues);
  });
}

int bglUpdateTransitionMatrices(int instance, int eigenIndex,
                                const int* probabilityIndices,
                                const int* firstDerivativeIndices,
                                const int* secondDerivativeIndices,
                                const double* edgeLengths, int count) {
  if (probabilityIndices == nullptr || edgeLengths == nullptr || count < 0) {
    return BGL_ERROR_OUT_OF_RANGE;
  }
  return withInstance(instance, [&](auto& impl) {
    return impl.updateTransitionMatrices(eigenIndex, probabilityIndices,
                                         firstDerivativeIndices,
                                         secondDerivativeIndices, edgeLengths, count);
  });
}

int bglUpdateTransitionMatricesWithModels(int instance, const int* eigenIndices,
                                          const int* categoryRatesIndices,
                                          const int* probabilityIndices,
                                          const double* edgeLengths, int count) {
  if (eigenIndices == nullptr || probabilityIndices == nullptr ||
      edgeLengths == nullptr || count < 0) {
    return BGL_ERROR_OUT_OF_RANGE;
  }
  return withInstance(instance, [&](auto& impl) {
    return impl.updateTransitionMatricesWithModels(
        eigenIndices, categoryRatesIndices, probabilityIndices, edgeLengths, count);
  });
}

int bglSetTransitionMatrix(int instance, int matrixIndex, const double* inMatrix,
                           double paddedValue) {
  if (inMatrix == nullptr) return BGL_ERROR_OUT_OF_RANGE;
  return withInstance(instance, [&](auto& impl) {
    return impl.setTransitionMatrix(matrixIndex, inMatrix, paddedValue);
  });
}

int bglGetTransitionMatrix(int instance, int matrixIndex, double* outMatrix) {
  if (outMatrix == nullptr) return BGL_ERROR_OUT_OF_RANGE;
  return withInstance(instance, [&](auto& impl) {
    return impl.getTransitionMatrix(matrixIndex, outMatrix);
  });
}

int bglUpdatePartials(int instance, const BglOperation* operations, int operationCount,
                      int cumulativeScaleIndex) {
  if (operations == nullptr || operationCount < 0) return BGL_ERROR_OUT_OF_RANGE;
  return withInstance(instance, [&](auto& impl) {
    return impl.updatePartials(operations, operationCount, cumulativeScaleIndex);
  });
}

int bglSetPatternPartitions(int instance, int partitionCount,
                            const int* inPatternPartitions) {
  if (partitionCount < 1) return BGL_ERROR_OUT_OF_RANGE;
  if (partitionCount > 1 && inPatternPartitions == nullptr) {
    return BGL_ERROR_OUT_OF_RANGE;
  }
  return withInstance(instance, [&](auto& impl) -> int {
    // Validate the map here so every implementation receives a
    // well-formed one: non-decreasing partition ids forming a
    // contiguous cover of [0, partitionCount) over all patterns.
    if (partitionCount > 1) {
      const int patterns = impl.config().patternCount;
      int previous = -1;
      for (int s = 0; s < patterns; ++s) {
        const int q = inPatternPartitions[s];
        if (q < 0 || q >= partitionCount || q < previous || q > previous + 1) {
          bgl::api::setThreadLastError(
              "pattern-partition map must be a non-decreasing contiguous "
              "cover of [0, partitionCount); bad id " +
              std::to_string(q) + " at pattern " + std::to_string(s));
          return BGL_ERROR_OUT_OF_RANGE;
        }
        previous = q;
      }
      if (previous != partitionCount - 1) {
        bgl::api::setThreadLastError(
            "pattern-partition map covers only partitions [0, " +
            std::to_string(previous + 1) + ") of " +
            std::to_string(partitionCount));
        return BGL_ERROR_OUT_OF_RANGE;
      }
    }
    return impl.setPatternPartitions(partitionCount, inPatternPartitions);
  });
}

int bglUpdatePartialsByPartition(int instance,
                                 const BglOperationByPartition* operations,
                                 int operationCount, int cumulativeScaleIndex) {
  if (operations == nullptr || operationCount < 0) return BGL_ERROR_OUT_OF_RANGE;
  return withInstance(instance, [&](auto& impl) -> int {
    // Implementations accept every range-table slot; the trailing one is
    // reserved for the partition-blind entry points.
    for (int i = 0; i < operationCount; ++i) {
      if (operations[i].partition < 0 ||
          operations[i].partition >= impl.partitionCount()) {
        return BGL_ERROR_OUT_OF_RANGE;
      }
    }
    return impl.updatePartialsByPartition(operations, operationCount,
                                          cumulativeScaleIndex);
  });
}

int bglAccumulateScaleFactors(int instance, const int* scaleIndices, int count,
                              int cumulativeScaleIndex) {
  if (scaleIndices == nullptr || count < 0) return BGL_ERROR_OUT_OF_RANGE;
  return withInstance(instance, [&](auto& impl) {
    return impl.accumulateScaleFactors(scaleIndices, count, cumulativeScaleIndex);
  });
}

int bglRemoveScaleFactors(int instance, const int* scaleIndices, int count,
                          int cumulativeScaleIndex) {
  if (scaleIndices == nullptr || count < 0) return BGL_ERROR_OUT_OF_RANGE;
  return withInstance(instance, [&](auto& impl) {
    return impl.removeScaleFactors(scaleIndices, count, cumulativeScaleIndex);
  });
}

int bglResetScaleFactors(int instance, int cumulativeScaleIndex) {
  return withInstance(instance, [&](auto& impl) {
    return impl.resetScaleFactors(cumulativeScaleIndex);
  });
}

int bglCalculateRootLogLikelihoods(int instance, const int* bufferIndices,
                                   const int* categoryWeightsIndices,
                                   const int* stateFrequenciesIndices,
                                   const int* cumulativeScaleIndices, int count,
                                   double* outSumLogLikelihood) {
  if (bufferIndices == nullptr || categoryWeightsIndices == nullptr ||
      stateFrequenciesIndices == nullptr || outSumLogLikelihood == nullptr ||
      count < 1) {
    return BGL_ERROR_OUT_OF_RANGE;
  }
  return withInstance(instance, [&](auto& impl) {
    return impl.calculateRootLogLikelihoods(bufferIndices, categoryWeightsIndices,
                                            stateFrequenciesIndices,
                                            cumulativeScaleIndices, count,
                                            outSumLogLikelihood);
  });
}

int bglCalculateRootLogLikelihoodsByPartition(
    int instance, const int* bufferIndices, const int* categoryWeightsIndices,
    const int* stateFrequenciesIndices, const int* cumulativeScaleIndices,
    const int* partitionIndices, int count,
    double* outSumLogLikelihoodByPartition, double* outSumLogLikelihood) {
  if (bufferIndices == nullptr || categoryWeightsIndices == nullptr ||
      stateFrequenciesIndices == nullptr || partitionIndices == nullptr ||
      outSumLogLikelihoodByPartition == nullptr || count < 1) {
    return BGL_ERROR_OUT_OF_RANGE;
  }
  return withInstance(instance, [&](auto& impl) -> int {
    for (int i = 0; i < count; ++i) {
      if (partitionIndices[i] < 0 || partitionIndices[i] >= impl.partitionCount()) {
        return BGL_ERROR_OUT_OF_RANGE;
      }
    }
    return impl.calculateRootLogLikelihoodsByPartition(
        bufferIndices, categoryWeightsIndices, stateFrequenciesIndices,
        cumulativeScaleIndices, partitionIndices, count,
        outSumLogLikelihoodByPartition, outSumLogLikelihood);
  });
}

int bglCalculateEdgeLogLikelihoods(
    int instance, const int* parentBufferIndices, const int* childBufferIndices,
    const int* probabilityIndices, const int* firstDerivativeIndices,
    const int* secondDerivativeIndices, const int* categoryWeightsIndices,
    const int* stateFrequenciesIndices, const int* cumulativeScaleIndices, int count,
    double* outSumLogLikelihood, double* outSumFirstDerivative,
    double* outSumSecondDerivative) {
  if (parentBufferIndices == nullptr || childBufferIndices == nullptr ||
      probabilityIndices == nullptr || categoryWeightsIndices == nullptr ||
      stateFrequenciesIndices == nullptr || outSumLogLikelihood == nullptr ||
      count < 1) {
    return BGL_ERROR_OUT_OF_RANGE;
  }
  return withInstance(instance, [&](auto& impl) {
    return impl.calculateEdgeLogLikelihoods(
        parentBufferIndices, childBufferIndices, probabilityIndices,
        firstDerivativeIndices, secondDerivativeIndices, categoryWeightsIndices,
        stateFrequenciesIndices, cumulativeScaleIndices, count, outSumLogLikelihood,
        outSumFirstDerivative, outSumSecondDerivative);
  });
}

int bglGetSiteLogLikelihoods(int instance, double* outLogLikelihoods) {
  if (outLogLikelihoods == nullptr) return BGL_ERROR_OUT_OF_RANGE;
  return withInstance(instance, [&](auto& impl) {
    return impl.getSiteLogLikelihoods(outLogLikelihoods);
  });
}

int bglWaitForComputation(int instance) {
  return withInstance(instance, [&](auto& impl) { return impl.waitForComputation(); });
}

int bglSetThreadCount(int instance, int threadCount) {
  // The count sizes thread pools and per-call thread teams; bound it before
  // any implementation sees it.
  if (threadCount > kMaxThreadCount) {
    setLastError("thread count " + std::to_string(threadCount) + " exceeds " +
                 std::to_string(kMaxThreadCount));
    return BGL_ERROR_OUT_OF_RANGE;
  }
  return withInstance(instance,
                      [&](auto& impl) { return impl.setThreadCount(threadCount); });
}

int bglGetTimeline(int instance, BglTimeline* outTimeline) {
  if (outTimeline == nullptr) return BGL_ERROR_OUT_OF_RANGE;
  return withInstance(instance,
                      [&](auto& impl) { return impl.getTimeline(outTimeline); });
}

int bglResetTimeline(int instance) {
  return withInstance(instance, [&](auto& impl) { return impl.resetTimeline(); });
}

int bglGetStatistics(int instance, BglStatistics* outStatistics) {
  if (outStatistics == nullptr) return BGL_ERROR_OUT_OF_RANGE;
  return withInstance(instance, [&](auto& impl) {
    using bgl::obs::Category;
    using bgl::obs::Counter;
    const auto& rec = impl.recorder();
    outStatistics->partialsOperations = rec.counter(Counter::kPartialsOperations);
    outStatistics->transitionMatrices = rec.counter(Counter::kTransitionMatrices);
    outStatistics->rootEvaluations = rec.counter(Counter::kRootEvaluations);
    outStatistics->edgeEvaluations = rec.counter(Counter::kEdgeEvaluations);
    outStatistics->rescaleEvents = rec.counter(Counter::kRescaleEvents);
    outStatistics->scaleAccumulations = rec.counter(Counter::kScaleAccumulations);
    outStatistics->kernelLaunches = rec.counter(Counter::kKernelLaunches);
    outStatistics->bytesCopiedIn = rec.counter(Counter::kBytesIn);
    outStatistics->bytesCopiedOut = rec.counter(Counter::kBytesOut);
    outStatistics->updatePartialsSeconds =
        rec.categorySeconds(Category::kUpdatePartials);
    outStatistics->updateTransitionMatricesSeconds =
        rec.categorySeconds(Category::kUpdateTransitionMatrices);
    outStatistics->rootLogLikelihoodsSeconds =
        rec.categorySeconds(Category::kRootLogLikelihoods);
    outStatistics->edgeLogLikelihoodsSeconds =
        rec.categorySeconds(Category::kEdgeLogLikelihoods);
    outStatistics->streamedLaunches = rec.counter(Counter::kStreamedLaunches);
    return BGL_SUCCESS;
  });
}

int bglResetStatistics(int instance) {
  return withInstance(instance, [&](auto& impl) {
    impl.recorder().reset();
    return BGL_SUCCESS;
  });
}

int bglSetTraceFile(int instance, const char* path) {
  std::string traceFile, statsFile;
  {
    std::lock_guard lock(g_mutex);
    if (instance < 0 || instance >= static_cast<int>(g_instances.size()) ||
        g_instances[instance].impl == nullptr) {
      return BGL_ERROR_OUT_OF_RANGE;
    }
    auto& slot = g_instances[instance];
    releasePathLocked(slot.traceFile);
    slot.traceFile.clear();
    if (path != nullptr && *path) {
      slot.traceFile = claimPathLocked(path, instance);
      slot.impl->recorder().enableEvents();
    }
    traceFile = slot.traceFile;
    statsFile = slot.statsFile;
  }
  bgl::obs::ProcessRegistry::instance().setFiles(instance, traceFile, statsFile);
  return BGL_SUCCESS;
}

int bglSetStatsFile(int instance, const char* path) {
  std::string traceFile, statsFile;
  {
    std::lock_guard lock(g_mutex);
    if (instance < 0 || instance >= static_cast<int>(g_instances.size()) ||
        g_instances[instance].impl == nullptr) {
      return BGL_ERROR_OUT_OF_RANGE;
    }
    auto& slot = g_instances[instance];
    releasePathLocked(slot.statsFile);
    slot.statsFile.clear();
    if (path != nullptr && *path) {
      slot.statsFile = claimPathLocked(path, instance);
      slot.impl->recorder().enableTiming();
    }
    traceFile = slot.traceFile;
    statsFile = slot.statsFile;
  }
  bgl::obs::ProcessRegistry::instance().setFiles(instance, traceFile, statsFile);
  return BGL_SUCCESS;
}

int bglSetWorkGroupSize(int instance, int patternsPerWorkGroup) {
  return withInstance(instance, [&](auto& impl) {
    return impl.setWorkGroupSize(patternsPerWorkGroup);
  });
}

int bglGetJournal(BglJournalRecord* outRecords, int capacity, int* outCount) {
  if (outCount == nullptr) return BGL_ERROR_OUT_OF_RANGE;
  t_lastError.clear();
  const std::vector<bgl::obs::JournalRecord> records =
      bgl::obs::Journal::instance().snapshot();
  if (outRecords == nullptr || capacity <= 0) {
    *outCount = static_cast<int>(records.size());
    return BGL_SUCCESS;
  }
  // When the caller's buffer is smaller than the retained window, keep the
  // most recent records — the useful end of a flight recording.
  const std::size_t n = std::min<std::size_t>(records.size(), capacity);
  const std::size_t first = records.size() - n;
  for (std::size_t i = 0; i < n; ++i) {
    const bgl::obs::JournalRecord& src = records[first + i];
    BglJournalRecord& dst = outRecords[i];
    dst.sequence = src.sequence;
    dst.timeNs = src.timeNs;
    dst.kind = static_cast<int>(src.kind);
    dst.code = src.code;
    dst.instance = src.instance;
    dst.resource = src.resource;
    dst.shard = src.shard;
    std::memcpy(dst.message, src.message, sizeof(dst.message));
  }
  *outCount = static_cast<int>(n);
  return BGL_SUCCESS;
}

int bglGetProcessStatistics(BglProcessStatistics* outStatistics) {
  if (outStatistics == nullptr) return BGL_ERROR_OUT_OF_RANGE;
  t_lastError.clear();
  using bgl::obs::Category;
  using bgl::obs::Counter;
  using bgl::obs::Gauge;
  const bgl::obs::ProcessAggregate agg =
      bgl::obs::ProcessRegistry::instance().aggregate();
  const auto counter = [&](Counter c) { return agg.counters[static_cast<int>(c)]; };
  const auto seconds = [&](Category c) {
    return agg.histograms[static_cast<int>(c)].totalNs * 1e-9;
  };
  *outStatistics = BglProcessStatistics{};
  outStatistics->liveInstances = agg.liveInstances;
  outStatistics->instancesCreated = agg.instancesCreated;
  outStatistics->instancesRetired = agg.instancesRetired;
  outStatistics->totals.partialsOperations = counter(Counter::kPartialsOperations);
  outStatistics->totals.transitionMatrices = counter(Counter::kTransitionMatrices);
  outStatistics->totals.rootEvaluations = counter(Counter::kRootEvaluations);
  outStatistics->totals.edgeEvaluations = counter(Counter::kEdgeEvaluations);
  outStatistics->totals.rescaleEvents = counter(Counter::kRescaleEvents);
  outStatistics->totals.scaleAccumulations = counter(Counter::kScaleAccumulations);
  outStatistics->totals.kernelLaunches = counter(Counter::kKernelLaunches);
  outStatistics->totals.bytesCopiedIn = counter(Counter::kBytesIn);
  outStatistics->totals.bytesCopiedOut = counter(Counter::kBytesOut);
  outStatistics->totals.streamedLaunches = counter(Counter::kStreamedLaunches);
  outStatistics->totals.updatePartialsSeconds = seconds(Category::kUpdatePartials);
  outStatistics->totals.updateTransitionMatricesSeconds =
      seconds(Category::kUpdateTransitionMatrices);
  outStatistics->totals.rootLogLikelihoodsSeconds =
      seconds(Category::kRootLogLikelihoods);
  outStatistics->totals.edgeLogLikelihoodsSeconds =
      seconds(Category::kEdgeLogLikelihoods);
  outStatistics->pendingDepth =
      agg.gaugeLevels[static_cast<int>(Gauge::kPendingDepth)];
  outStatistics->pendingDepthMax =
      agg.gaugeMax[static_cast<int>(Gauge::kPendingDepth)];
  outStatistics->journalRecords = bgl::obs::Journal::instance().totalAppended();
  return BGL_SUCCESS;
}

int bglSetMetricsFile(const char* path, int periodMs) {
  t_lastError.clear();
  const std::string target = path == nullptr ? "" : path;
  if (!bgl::obs::ProcessRegistry::instance().setMetricsFile(target, periodMs)) {
    setLastError("could not open metrics file '" + target + "'");
    return BGL_ERROR_GENERAL;
  }
  return BGL_SUCCESS;
}

}  // extern "C"
