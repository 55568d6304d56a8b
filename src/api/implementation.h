// Internal interface every likelihood implementation provides.
//
// This is the "implementation base-code" layer of the paper's Fig. 1/3:
// the manager selects an Implementation for a resource, and the C API
// forwards calls to it. New hardware/framework backends implement this
// interface without touching the core library or client programs.
#pragma once

#include <cmath>
#include <memory>
#include <string>
#include <vector>

#include "api/bgl.h"
#include "obs/trace.h"

namespace bgl {

/// Instance creation parameters, after flag resolution.
struct InstanceConfig {
  int tipCount = 0;
  int partialsBufferCount = 0;
  int compactBufferCount = 0;
  int stateCount = 0;
  int patternCount = 0;
  int eigenBufferCount = 0;
  int matrixBufferCount = 0;
  int categoryCount = 0;
  int scaleBufferCount = 0;
  long flags = 0;    ///< resolved instance flags
  int resource = 0;  ///< resource id the instance runs on

  int bufferCount() const { return partialsBufferCount + compactBufferCount; }
  bool doublePrecision() const { return (flags & BGL_FLAG_PRECISION_DOUBLE) != 0; }
};

/// Abstract likelihood-computation backend. All methods return a
/// BglReturnCode; buffer-index validation happens here, not in the C shim.
/// Every family has one partials-update and one root-integration path, the
/// partitioned one; the partition-blind entry points are whole-axis calls
/// onto it.
class Implementation {
 public:
  virtual ~Implementation() = default;

  const InstanceConfig& config() const { return config_; }

  /// Tracing/metrics recorder owned by this instance. Counters are always
  /// live; span timing and event retention are opt-in (see obs/trace.h).
  obs::TraceRecorder& recorder() { return recorder_; }
  const obs::TraceRecorder& recorder() const { return recorder_; }

  virtual std::string implName() const = 0;

  virtual int setTipStates(int tipIndex, const int* inStates) = 0;
  virtual int setTipPartials(int tipIndex, const double* inPartials) = 0;
  virtual int setPartials(int bufferIndex, const double* inPartials) = 0;
  virtual int getPartials(int bufferIndex, double* outPartials) = 0;

  virtual int setStateFrequencies(int index, const double* inFreqs) = 0;
  virtual int setCategoryWeights(int index, const double* inWeights) = 0;
  virtual int setCategoryRates(const double* inRates) = 0;
  virtual int setPatternWeights(const double* inWeights) = 0;

  virtual int setEigenDecomposition(int eigenIndex, const double* evec,
                                    const double* ivec, const double* eval) = 0;
  virtual int updateTransitionMatrices(int eigenIndex, const int* probIndices,
                                       const int* d1Indices, const int* d2Indices,
                                       const double* edgeLengths, int count) = 0;
  virtual int setTransitionMatrix(int matrixIndex, const double* inMatrix,
                                  double paddedValue) = 0;
  virtual int getTransitionMatrix(int matrixIndex, double* outMatrix) = 0;

  /// Partition-blind partials update: the whole pattern axis is the
  /// reserved trailing slot of the range table, so the batch runs on the
  /// partitioned path with every operation tagged with that slot.
  int updatePartials(const BglOperation* operations, int count,
                     int cumulativeScaleIndex) {
    wholeAxisOps_.resize(static_cast<std::size_t>(count));
    for (int i = 0; i < count; ++i) {
      const BglOperation& op = operations[i];
      wholeAxisOps_[i] = {op.destinationPartials,    op.destinationScaleWrite,
                          op.destinationScaleRead,   op.child1Partials,
                          op.child1TransitionMatrix, op.child2Partials,
                          op.child2TransitionMatrix, partitionCount_};
    }
    return updatePartialsByPartition(wholeAxisOps_.data(), count,
                                     cumulativeScaleIndex);
  }

  /// Multi-partition mode (bglSetPatternPartitions): convert the per-pattern
  /// map into [begin, end) ranges. Map validation (non-decreasing contiguous
  /// cover) happens in the C shim, so this receives a well-formed map.
  int setPatternPartitions(int partitionCount, const int* patternPartitions) {
    if (partitionCount < 1) return BGL_ERROR_OUT_OF_RANGE;
    const int patterns = config_.patternCount;
    std::vector<int> begin(static_cast<std::size_t>(partitionCount) + 1, 0);
    std::vector<int> end(static_cast<std::size_t>(partitionCount) + 1, patterns);
    if (partitionCount > 1) {
      for (int k = 0; k < patterns; ++k) {
        const int q = patternPartitions[k];
        if (q < 0 || q >= partitionCount) return BGL_ERROR_OUT_OF_RANGE;
        if (k == 0 || patternPartitions[k - 1] != q) begin[q] = k;
        end[q] = k + 1;
      }
    }
    partBegin_ = std::move(begin);
    partEnd_ = std::move(end);
    partitionCount_ = partitionCount;
    return BGL_SUCCESS;
  }

  /// User partitions are [0, partitionCount()); the range-table slot
  /// partitionCount() is reserved for the partition-blind entry points.
  int partitionCount() const { return partitionCount_; }

  virtual int setCategoryRatesWithIndex(int ratesIndex, const double* inRates) {
    return ratesIndex == 0 ? setCategoryRates(inRates) : BGL_ERROR_UNIMPLEMENTED;
  }
  virtual int updateTransitionMatricesWithModels(
      const int* /*eigenIndices*/, const int* /*ratesIndices*/,
      const int* /*probIndices*/, const double* /*edgeLengths*/, int /*count*/) {
    return BGL_ERROR_UNIMPLEMENTED;
  }

  /// The one partials-update path of every family. Operation partitions are
  /// range-table slots; the C shim has already rejected the reserved slot
  /// for user calls.
  virtual int updatePartialsByPartition(const BglOperationByPartition* operations,
                                        int count, int cumulativeScaleIndex) = 0;
  /// The one root-integration path of every family (slots as above).
  virtual int calculateRootLogLikelihoodsByPartition(
      const int* bufferIndices, const int* weightIndices, const int* freqIndices,
      const int* scaleIndices, const int* partitionIndices, int count,
      double* outByPartition, double* outTotal) = 0;

  virtual int accumulateScaleFactors(const int* scaleIndices, int count,
                                     int cumulativeScaleIndex) = 0;
  virtual int removeScaleFactors(const int* scaleIndices, int count,
                                 int cumulativeScaleIndex) = 0;
  virtual int resetScaleFactors(int cumulativeScaleIndex) = 0;

  /// Partition-blind root integration: every entry on the whole-axis slot.
  int calculateRootLogLikelihoods(const int* bufferIndices, const int* weightIndices,
                                  const int* freqIndices, const int* scaleIndices,
                                  int count, double* outSumLogLikelihood) {
    wholeAxisSlots_.assign(static_cast<std::size_t>(count), partitionCount_);
    wholeAxisSums_.resize(static_cast<std::size_t>(count));
    double total = 0.0;
    const int rc = calculateRootLogLikelihoodsByPartition(
        bufferIndices, weightIndices, freqIndices, scaleIndices,
        wholeAxisSlots_.data(), count, wholeAxisSums_.data(), &total);
    if (rc != BGL_SUCCESS && rc != BGL_ERROR_FLOATING_POINT) return rc;
    *outSumLogLikelihood = total;
    return std::isfinite(total) ? BGL_SUCCESS : BGL_ERROR_FLOATING_POINT;
  }
  virtual int calculateEdgeLogLikelihoods(
      const int* parentIndices, const int* childIndices, const int* probIndices,
      const int* d1Indices, const int* d2Indices, const int* weightIndices,
      const int* freqIndices, const int* scaleIndices, int count,
      double* outSumLogLikelihood, double* outSumFirstDerivative,
      double* outSumSecondDerivative) = 0;

  virtual int getSiteLogLikelihoods(double* outLogLikelihoods) = 0;

  virtual int waitForComputation() { return BGL_SUCCESS; }

  /// Set the number of host threads used by threaded implementations
  /// (benchmarking hook for the multicore scaling study, Fig. 5).
  virtual int setThreadCount(int /*threads*/) { return BGL_ERROR_UNIMPLEMENTED; }

  /// Read / reset the accelerator execution timeline (accelerator model only).
  virtual int getTimeline(BglTimeline* /*out*/) { return BGL_ERROR_UNIMPLEMENTED; }
  virtual int resetTimeline() { return BGL_ERROR_UNIMPLEMENTED; }

  /// Patterns per work-group for x86-style kernels (Table V tuning).
  virtual int setWorkGroupSize(int /*patterns*/) { return BGL_ERROR_UNIMPLEMENTED; }

 protected:
  explicit Implementation(const InstanceConfig& cfg)
      : config_(cfg),
        partBegin_{0, 0},
        partEnd_{cfg.patternCount, cfg.patternCount} {}

  /// Range-table slots: the user partitions plus the reserved whole axis.
  int slotCount() const { return partitionCount_ + 1; }
  bool validSlot(int slot) const { return slot >= 0 && slot <= partitionCount_; }

  InstanceConfig config_;
  obs::TraceRecorder recorder_;

  // Range table: slot q < partitionCount_ covers concatenated patterns
  // [partBegin_[q], partEnd_[q]); slot partitionCount_ is [0, patternCount).
  int partitionCount_ = 1;
  std::vector<int> partBegin_, partEnd_;

 private:
  // Per-call scratch of the partition-blind lowerings.
  std::vector<BglOperationByPartition> wholeAxisOps_;
  std::vector<int> wholeAxisSlots_;
  std::vector<double> wholeAxisSums_;
};

/// Factory for one implementation family. The manager interrogates
/// factories in priority order until one accepts the request.
class ImplementationFactory {
 public:
  virtual ~ImplementationFactory() = default;

  virtual std::string name() const = 0;

  /// Higher wins when several factories can serve the same request.
  virtual int priority() const = 0;

  /// Flags this factory can provide on resource `resource`.
  virtual long supportFlags(int resource) const = 0;

  /// True if the factory can serve `resource` at all.
  virtual bool servesResource(int resource) const = 0;

  /// Create an instance; returns nullptr if the request cannot be served.
  virtual std::unique_ptr<Implementation> create(const InstanceConfig& config) = 0;
};

}  // namespace bgl
