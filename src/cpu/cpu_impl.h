// Host (CPU) implementation of the Implementation interface.
//
// This is the serial "implementation base-code" of the paper's Fig. 1:
// straightforward scalar loops, with whatever auto-vectorization the
// compiler applies — the benchmarks' comparison baseline. Vectorized
// (simd_impl.h) and threaded (threaded_impl.h) implementations derive
// from this class and override the compute hooks only.
#pragma once

#include <algorithm>
#include <cmath>
#include <cstring>
#include <utility>
#include <vector>

#include "api/implementation.h"
#include "core/aligned.h"
#include "core/defs.h"
#include "cpu/cpu_kernels.h"

namespace bgl::cpu {

/// Block t of [begin, end) cut into nt equal blocks (trailing blocks may be
/// short or empty) — how the threaded implementations split a range.
inline std::pair<int, int> patternBlock(int begin, int end, int nt, int t) {
  const int block = (end - begin + nt - 1) / nt;
  const int kBegin = begin + t * block;
  return {kBegin, std::min(end, kBegin + block)};
}

template <RealScalar Real>
class CpuImpl : public Implementation {
 public:
  explicit CpuImpl(const InstanceConfig& cfg) : Implementation(cfg) {
    const auto& c = config_;
    partials_.resize(c.bufferCount());
    tipStates_.resize(c.bufferCount());
    matrices_.assign(c.matrixBufferCount,
                     AlignedVector<Real>(matrixSize(), Real(0)));
    eigenCijk_.assign(c.eigenBufferCount, {});
    eigenValues_.assign(c.eigenBufferCount, {});
    freqs_.assign(c.eigenBufferCount, AlignedVector<Real>(c.stateCount, Real(0)));
    weights_.assign(c.eigenBufferCount,
                    AlignedVector<Real>(c.categoryCount, Real(0)));
    // One rates slot per eigen slot (multi-partition mode pairs eigen
    // slot q with rates slot q); slot 0 is the legacy setCategoryRates
    // target.
    rates_.assign(c.eigenBufferCount, std::vector<double>(c.categoryCount, 1.0));
    patternWeights_.assign(c.patternCount, 1.0);
    scale_.assign(c.scaleBufferCount,
                  AlignedVector<Real>(c.patternCount, Real(0)));
    siteLogL_.assign(c.patternCount, Real(0));
    siteD1_.assign(c.patternCount, Real(0));
    siteD2_.assign(c.patternCount, Real(0));
  }

  std::string implName() const override { return "CPU-serial"; }

  // ------------------------------------------------------------------
  // Data movement
  // ------------------------------------------------------------------

  int setTipStates(int tipIndex, const int* inStates) override {
    if (tipIndex < 0 || tipIndex >= config_.tipCount) return BGL_ERROR_OUT_OF_RANGE;
    if (compactUsed_ >= config_.compactBufferCount &&
        tipStates_[tipIndex].empty()) {
      return BGL_ERROR_OUT_OF_RANGE;
    }
    if (tipStates_[tipIndex].empty()) ++compactUsed_;
    auto& buf = tipStates_[tipIndex];
    buf.resize(config_.patternCount);
    for (int k = 0; k < config_.patternCount; ++k) {
      const int s = inStates[k];
      buf[k] = (s < 0 || s >= config_.stateCount)
                   ? config_.stateCount  // any out-of-range code = ambiguity
                   : s;
    }
    recorder_.count(obs::Counter::kBytesIn,
                    static_cast<std::uint64_t>(config_.patternCount) * sizeof(int));
    return BGL_SUCCESS;
  }

  int setTipPartials(int tipIndex, const double* inPartials) override {
    if (tipIndex < 0 || tipIndex >= config_.tipCount) return BGL_ERROR_OUT_OF_RANGE;
    // Tip partials arrive pattern-major (patterns x states) and are
    // replicated across rate categories.
    auto& buf = ensurePartials(tipIndex);
    if (buf.empty()) return BGL_ERROR_OUT_OF_RANGE;
    const int p = config_.patternCount;
    const int s = config_.stateCount;
    for (int c = 0; c < config_.categoryCount; ++c) {
      Real* plane = buf.data() + static_cast<std::size_t>(c) * p * s;
      for (std::size_t i = 0; i < static_cast<std::size_t>(p) * s; ++i) {
        plane[i] = static_cast<Real>(inPartials[i]);
      }
    }
    recorder_.count(obs::Counter::kBytesIn,
                    static_cast<std::uint64_t>(p) * s * sizeof(double));
    return BGL_SUCCESS;
  }

  int setPartials(int bufferIndex, const double* inPartials) override {
    if (bufferIndex < 0 || bufferIndex >= config_.bufferCount()) {
      return BGL_ERROR_OUT_OF_RANGE;
    }
    auto& buf = ensurePartials(bufferIndex);
    if (buf.empty()) return BGL_ERROR_OUT_OF_RANGE;
    for (std::size_t i = 0; i < buf.size(); ++i) {
      buf[i] = static_cast<Real>(inPartials[i]);
    }
    recorder_.count(obs::Counter::kBytesIn, buf.size() * sizeof(double));
    return BGL_SUCCESS;
  }

  int getPartials(int bufferIndex, double* outPartials) override {
    if (bufferIndex < 0 || bufferIndex >= config_.bufferCount() ||
        partials_[bufferIndex].empty()) {
      return BGL_ERROR_OUT_OF_RANGE;
    }
    const auto& buf = partials_[bufferIndex];
    for (std::size_t i = 0; i < buf.size(); ++i) {
      outPartials[i] = static_cast<double>(buf[i]);
    }
    recorder_.count(obs::Counter::kBytesOut, buf.size() * sizeof(double));
    return BGL_SUCCESS;
  }

  int setStateFrequencies(int index, const double* inFreqs) override {
    if (index < 0 || index >= config_.eigenBufferCount) return BGL_ERROR_OUT_OF_RANGE;
    for (int s = 0; s < config_.stateCount; ++s) {
      freqs_[index][s] = static_cast<Real>(inFreqs[s]);
    }
    return BGL_SUCCESS;
  }

  int setCategoryWeights(int index, const double* inWeights) override {
    if (index < 0 || index >= config_.eigenBufferCount) return BGL_ERROR_OUT_OF_RANGE;
    for (int c = 0; c < config_.categoryCount; ++c) {
      weights_[index][c] = static_cast<Real>(inWeights[c]);
    }
    return BGL_SUCCESS;
  }

  int setCategoryRates(const double* inRates) override {
    for (int c = 0; c < config_.categoryCount; ++c) rates_[0][c] = inRates[c];
    return BGL_SUCCESS;
  }

  int setCategoryRatesWithIndex(int ratesIndex, const double* inRates) override {
    if (!validEigenSlot(ratesIndex)) return BGL_ERROR_OUT_OF_RANGE;
    for (int c = 0; c < config_.categoryCount; ++c) {
      rates_[ratesIndex][c] = inRates[c];
    }
    return BGL_SUCCESS;
  }

  int setPatternWeights(const double* inWeights) override {
    for (int k = 0; k < config_.patternCount; ++k) patternWeights_[k] = inWeights[k];
    return BGL_SUCCESS;
  }

  // ------------------------------------------------------------------
  // Transition matrices
  // ------------------------------------------------------------------

  int setEigenDecomposition(int eigenIndex, const double* evec, const double* ivec,
                            const double* eval) override {
    if (eigenIndex < 0 || eigenIndex >= config_.eigenBufferCount) {
      return BGL_ERROR_OUT_OF_RANGE;
    }
    const int s = config_.stateCount;
    // Precompute Cijk = evec[i][k] * ivec[k][j]; P(t) then reduces to a
    // dot product against exp(lambda_k * r * t) per matrix entry.
    auto& cijk = eigenCijk_[eigenIndex];
    cijk.resize(static_cast<std::size_t>(s) * s * s);
    for (int i = 0; i < s; ++i) {
      for (int j = 0; j < s; ++j) {
        double* out = cijk.data() + (static_cast<std::size_t>(i) * s + j) * s;
        for (int k = 0; k < s; ++k) {
          out[k] = evec[static_cast<std::size_t>(i) * s + k] *
                   ivec[static_cast<std::size_t>(k) * s + j];
        }
      }
    }
    eigenValues_[eigenIndex].assign(eval, eval + s);
    return BGL_SUCCESS;
  }

  int updateTransitionMatrices(int eigenIndex, const int* probIndices,
                               const int* d1Indices, const int* d2Indices,
                               const double* edgeLengths, int count) override {
    if (eigenIndex < 0 || eigenIndex >= config_.eigenBufferCount ||
        eigenCijk_[eigenIndex].empty()) {
      return BGL_ERROR_OUT_OF_RANGE;
    }
    if ((d1Indices == nullptr) != (d2Indices == nullptr)) {
      return BGL_ERROR_UNIMPLEMENTED;  // derivatives come in pairs
    }
    obs::ScopedSpan span(recorder_, obs::Category::kUpdateTransitionMatrices,
                         "updateTransitionMatrices");
    recorder_.count(obs::Counter::kTransitionMatrices,
                    static_cast<std::uint64_t>(count));
    const int s = config_.stateCount;
    const auto& cijk = eigenCijk_[eigenIndex];
    const auto& eval = eigenValues_[eigenIndex];
    std::vector<double> expl(s), lam1(s), lam2(s);

    for (int e = 0; e < count; ++e) {
      const int pi = probIndices[e];
      if (pi < 0 || pi >= config_.matrixBufferCount) return BGL_ERROR_OUT_OF_RANGE;
      Real* pd = matrices_[pi].data();
      Real* d1 = nullptr;
      Real* d2 = nullptr;
      if (d1Indices != nullptr) {
        if (d1Indices[e] < 0 || d1Indices[e] >= config_.matrixBufferCount ||
            d2Indices[e] < 0 || d2Indices[e] >= config_.matrixBufferCount) {
          return BGL_ERROR_OUT_OF_RANGE;
        }
        d1 = matrices_[d1Indices[e]].data();
        d2 = matrices_[d2Indices[e]].data();
      }
      const double t = edgeLengths[e];
      for (int c = 0; c < config_.categoryCount; ++c) {
        const double r = rates_[0][c];
        for (int k = 0; k < s; ++k) {
          const double lam = eval[k] * r;
          expl[k] = std::exp(lam * t);
          lam1[k] = lam;
          lam2[k] = lam * lam;
        }
        const std::size_t plane = static_cast<std::size_t>(c) * s * s;
        for (int i = 0; i < s; ++i) {
          for (int j = 0; j < s; ++j) {
            const double* ck = cijk.data() + (static_cast<std::size_t>(i) * s + j) * s;
            double sum = 0.0, sum1 = 0.0, sum2 = 0.0;
            for (int k = 0; k < s; ++k) {
              const double v = ck[k] * expl[k];
              sum += v;
              sum1 += v * lam1[k];
              sum2 += v * lam2[k];
            }
            const std::size_t idx = plane + static_cast<std::size_t>(i) * s + j;
            pd[idx] = static_cast<Real>(sum > 0.0 ? sum : 0.0);
            if (d1 != nullptr) {
              d1[idx] = static_cast<Real>(sum1);
              d2[idx] = static_cast<Real>(sum2);
            }
          }
        }
      }
    }
    return BGL_SUCCESS;
  }

  int updateTransitionMatricesWithModels(const int* eigenIndices,
                                         const int* ratesIndices,
                                         const int* probIndices,
                                         const double* edgeLengths,
                                         int count) override {
    obs::ScopedSpan span(recorder_, obs::Category::kUpdateTransitionMatrices,
                         "updateTransitionMatricesWithModels");
    recorder_.count(obs::Counter::kTransitionMatrices,
                    static_cast<std::uint64_t>(count));
    const int s = config_.stateCount;
    std::vector<double> expl(s);
    for (int e = 0; e < count; ++e) {
      const int ei = eigenIndices[e];
      const int ri = ratesIndices != nullptr ? ratesIndices[e] : 0;
      const int pi = probIndices[e];
      if (!validEigenSlot(ei) || eigenCijk_[ei].empty() || !validEigenSlot(ri) ||
          pi < 0 || pi >= config_.matrixBufferCount) {
        return BGL_ERROR_OUT_OF_RANGE;
      }
      const auto& cijk = eigenCijk_[ei];
      const auto& eval = eigenValues_[ei];
      const auto& rates = rates_[ri];
      Real* pd = matrices_[pi].data();
      const double t = edgeLengths[e];
      for (int c = 0; c < config_.categoryCount; ++c) {
        const double r = rates[c];
        for (int k = 0; k < s; ++k) expl[k] = std::exp((eval[k] * r) * t);
        const std::size_t plane = static_cast<std::size_t>(c) * s * s;
        for (int i = 0; i < s; ++i) {
          for (int j = 0; j < s; ++j) {
            const double* ck =
                cijk.data() + (static_cast<std::size_t>(i) * s + j) * s;
            double sum = 0.0;
            for (int k = 0; k < s; ++k) sum += ck[k] * expl[k];
            pd[plane + static_cast<std::size_t>(i) * s + j] =
                static_cast<Real>(sum > 0.0 ? sum : 0.0);
          }
        }
      }
    }
    return BGL_SUCCESS;
  }

  int setTransitionMatrix(int matrixIndex, const double* inMatrix,
                          double /*paddedValue*/) override {
    if (matrixIndex < 0 || matrixIndex >= config_.matrixBufferCount) {
      return BGL_ERROR_OUT_OF_RANGE;
    }
    auto& m = matrices_[matrixIndex];
    for (std::size_t i = 0; i < m.size(); ++i) m[i] = static_cast<Real>(inMatrix[i]);
    recorder_.count(obs::Counter::kBytesIn, m.size() * sizeof(double));
    return BGL_SUCCESS;
  }

  int getTransitionMatrix(int matrixIndex, double* outMatrix) override {
    if (matrixIndex < 0 || matrixIndex >= config_.matrixBufferCount) {
      return BGL_ERROR_OUT_OF_RANGE;
    }
    const auto& m = matrices_[matrixIndex];
    for (std::size_t i = 0; i < m.size(); ++i) outMatrix[i] = static_cast<double>(m[i]);
    recorder_.count(obs::Counter::kBytesOut, m.size() * sizeof(double));
    return BGL_SUCCESS;
  }

  // ------------------------------------------------------------------
  // Partials operations and root integration (range-table slots; see
  // Implementation)
  // ------------------------------------------------------------------

  int updatePartialsByPartition(const BglOperationByPartition* operations,
                                int count, int cumulativeScaleIndex) override {
    // SCALING_ALWAYS: the library owns the scale bookkeeping. Each
    // operation rescales into buffer (dest - tipCount); the last scale
    // buffer is the cumulative one, reset per batch and picked up
    // automatically by root/edge calculations.
    std::vector<BglOperationByPartition> rewritten;
    if ((config_.flags & BGL_FLAG_SCALING_ALWAYS) && config_.scaleBufferCount > 0) {
      rewritten.assign(operations, operations + count);
      for (auto& op : rewritten) {
        if (op.destinationScaleWrite == BGL_OP_NONE) {
          op.destinationScaleWrite = op.destinationPartials - config_.tipCount;
        }
      }
      operations = rewritten.data();
      cumulativeScaleIndex = autoCumulativeIndex();
      // One reset covers every partition: ranges are disjoint, and each
      // partition then accumulates only its own [begin, end) in op order
      // — the same FP sequence a per-partition instance would produce.
      const int rc = resetScaleFactors(cumulativeScaleIndex);
      if (rc != BGL_SUCCESS) return rc;
    }
    const int rc = validateOperations(operations, count, cumulativeScaleIndex);
    if (rc != BGL_SUCCESS) return rc;
    obs::ScopedSpan span(recorder_, obs::Category::kUpdatePartials,
                         "updatePartialsByPartition");
    recorder_.count(obs::Counter::kPartialsOperations,
                    static_cast<std::uint64_t>(count));
    executePartitionedOperations(operations, count, cumulativeScaleIndex);
    return BGL_SUCCESS;
  }

  int calculateRootLogLikelihoodsByPartition(
      const int* bufferIndices, const int* weightIndices, const int* freqIndices,
      const int* scaleIndices, const int* partitionIndices, int count,
      double* outByPartition, double* outTotal) override {
    obs::ScopedSpan span(recorder_, obs::Category::kRootLogLikelihoods,
                         "rootLogLikelihoodsByPartition");
    recorder_.count(obs::Counter::kRootEvaluations,
                    static_cast<std::uint64_t>(count));
    double total = 0.0;
    bool finite = true;
    for (int n = 0; n < count; ++n) {
      const int q = partitionIndices[n];
      if (!validSlot(q)) return BGL_ERROR_OUT_OF_RANGE;
      const int b = bufferIndices[n];
      if (b < 0 || b >= config_.bufferCount() || partials_[b].empty()) {
        return BGL_ERROR_OUT_OF_RANGE;
      }
      if (!validEigenSlot(weightIndices[n]) || !validEigenSlot(freqIndices[n])) {
        return BGL_ERROR_OUT_OF_RANGE;
      }
      const Real* cum = nullptr;
      if (scaleIndices != nullptr && scaleIndices[n] != BGL_OP_NONE) {
        if (!validScale(scaleIndices[n])) return BGL_ERROR_OUT_OF_RANGE;
        cum = scale_[scaleIndices[n]].data();
      } else if ((config_.flags & BGL_FLAG_SCALING_ALWAYS) &&
                 config_.scaleBufferCount > 0) {
        cum = scale_[autoCumulativeIndex()].data();
      }
      const int kBegin = partBegin_[q];
      const int kEnd = partEnd_[q];
      computeRootSitesRange(partials_[b].data(), freqs_[freqIndices[n]].data(),
                            weights_[weightIndices[n]].data(), cum, kBegin, kEnd);
      const double sum = weightedSiteSumRange(siteLogL_.data(), kBegin, kEnd);
      outByPartition[n] = sum;
      total += sum;
      finite = finite && std::isfinite(sum);
    }
    if (outTotal != nullptr) *outTotal = total;
    return finite ? BGL_SUCCESS : BGL_ERROR_FLOATING_POINT;
  }

  // ------------------------------------------------------------------
  // Scaling
  // ------------------------------------------------------------------

  int accumulateScaleFactors(const int* scaleIndices, int count,
                             int cumulativeScaleIndex) override {
    if (!validScale(cumulativeScaleIndex)) return BGL_ERROR_OUT_OF_RANGE;
    obs::ScopedSpan span(recorder_, obs::Category::kScaling, "accumulateScaleFactors");
    recorder_.count(obs::Counter::kScaleAccumulations,
                    static_cast<std::uint64_t>(count));
    return foldScaleFactors(scaleIndices, count, cumulativeScaleIndex, Real(1));
  }

  int removeScaleFactors(const int* scaleIndices, int count,
                         int cumulativeScaleIndex) override {
    if (!validScale(cumulativeScaleIndex)) return BGL_ERROR_OUT_OF_RANGE;
    obs::ScopedSpan span(recorder_, obs::Category::kScaling, "removeScaleFactors");
    recorder_.count(obs::Counter::kScaleAccumulations,
                    static_cast<std::uint64_t>(count));
    return foldScaleFactors(scaleIndices, count, cumulativeScaleIndex, Real(-1));
  }

  int resetScaleFactors(int cumulativeScaleIndex) override {
    if (!validScale(cumulativeScaleIndex)) return BGL_ERROR_OUT_OF_RANGE;
    std::fill(scale_[cumulativeScaleIndex].begin(),
              scale_[cumulativeScaleIndex].end(), Real(0));
    return BGL_SUCCESS;
  }

  // ------------------------------------------------------------------
  // Edge integration
  // ------------------------------------------------------------------

  int calculateEdgeLogLikelihoods(const int* parentIndices, const int* childIndices,
                                  const int* probIndices, const int* d1Indices,
                                  const int* d2Indices, const int* weightIndices,
                                  const int* freqIndices, const int* scaleIndices,
                                  int count, double* outSumLogLikelihood,
                                  double* outSumFirstDerivative,
                                  double* outSumSecondDerivative) override {
    obs::ScopedSpan span(recorder_, obs::Category::kEdgeLogLikelihoods,
                         "edgeLogLikelihoods");
    recorder_.count(obs::Counter::kEdgeEvaluations,
                    static_cast<std::uint64_t>(count));
    const bool derivs = d1Indices != nullptr && d2Indices != nullptr &&
                        outSumFirstDerivative != nullptr &&
                        outSumSecondDerivative != nullptr;
    double total = 0.0, totalD1 = 0.0, totalD2 = 0.0;
    for (int n = 0; n < count; ++n) {
      const int pb = parentIndices[n];
      const int cb = childIndices[n];
      if (pb < 0 || pb >= config_.bufferCount() || partials_[pb].empty()) {
        return BGL_ERROR_OUT_OF_RANGE;
      }
      if (cb < 0 || cb >= config_.bufferCount()) return BGL_ERROR_OUT_OF_RANGE;
      if (probIndices[n] < 0 || probIndices[n] >= config_.matrixBufferCount) {
        return BGL_ERROR_OUT_OF_RANGE;
      }
      if (!validEigenSlot(weightIndices[n]) || !validEigenSlot(freqIndices[n])) {
        return BGL_ERROR_OUT_OF_RANGE;
      }
      const Real* child = nullptr;
      const std::int32_t* childStates = nullptr;
      if (!tipStates_[cb].empty()) {
        childStates = tipStates_[cb].data();
      } else if (!partials_[cb].empty()) {
        child = partials_[cb].data();
      } else {
        return BGL_ERROR_OUT_OF_RANGE;
      }
      const Real* cum = nullptr;
      if (scaleIndices != nullptr && scaleIndices[n] != BGL_OP_NONE) {
        if (!validScale(scaleIndices[n])) return BGL_ERROR_OUT_OF_RANGE;
        cum = scale_[scaleIndices[n]].data();
      }
      const Real* d1m = derivs ? matrices_[d1Indices[n]].data() : nullptr;
      const Real* d2m = derivs ? matrices_[d2Indices[n]].data() : nullptr;
      edgeLikelihoodScalar<Real>(
          partials_[pb].data(), child, childStates, matrices_[probIndices[n]].data(),
          d1m, d2m, freqs_[freqIndices[n]].data(), weights_[weightIndices[n]].data(),
          cum, siteLogL_.data(), derivs ? siteD1_.data() : nullptr,
          derivs ? siteD2_.data() : nullptr, config_.patternCount,
          config_.categoryCount, config_.stateCount, 0, config_.patternCount);
      const int p = config_.patternCount;
      total += weightedSiteSumRange(siteLogL_.data(), 0, p);
      if (derivs) {
        totalD1 += weightedSiteSumRange(siteD1_.data(), 0, p);
        totalD2 += weightedSiteSumRange(siteD2_.data(), 0, p);
      }
    }
    *outSumLogLikelihood = total;
    if (derivs) {
      *outSumFirstDerivative = totalD1;
      *outSumSecondDerivative = totalD2;
    }
    return std::isfinite(total) ? BGL_SUCCESS : BGL_ERROR_FLOATING_POINT;
  }

  int getSiteLogLikelihoods(double* outLogLikelihoods) override {
    for (int k = 0; k < config_.patternCount; ++k) {
      outLogLikelihoods[k] = static_cast<double>(siteLogL_[k]);
    }
    recorder_.count(obs::Counter::kBytesOut,
                    static_cast<std::uint64_t>(config_.patternCount) * sizeof(double));
    return BGL_SUCCESS;
  }

  // ------------------------------------------------------------------
  // Timeline (see the bglGetTimeline contract in api/bgl.h)
  // ------------------------------------------------------------------

  int getTimeline(BglTimeline* out) override {
    if (!recorder_.timingEnabled()) return BGL_ERROR_UNIMPLEMENTED;
    const double secs = recorder_.timelineSeconds();
    // Host execution: modeled time is measured time.
    out->modeledSeconds = secs > timelineBaseSeconds_ ? secs - timelineBaseSeconds_ : 0.0;
    out->measuredSeconds = out->modeledSeconds;
    const auto ops = recorder_.counter(obs::Counter::kPartialsOperations);
    out->kernelLaunches = ops > timelineBaseOps_ ? ops - timelineBaseOps_ : 0;
    const auto bytes = recorder_.counter(obs::Counter::kBytesIn) +
                       recorder_.counter(obs::Counter::kBytesOut);
    out->bytesCopied = bytes > timelineBaseBytes_ ? bytes - timelineBaseBytes_ : 0;
    return BGL_SUCCESS;
  }

  int resetTimeline() override {
    recorder_.enableTiming();
    timelineBaseSeconds_ = recorder_.timelineSeconds();
    timelineBaseOps_ = recorder_.counter(obs::Counter::kPartialsOperations);
    timelineBaseBytes_ = recorder_.counter(obs::Counter::kBytesIn) +
                         recorder_.counter(obs::Counter::kBytesOut);
    return BGL_SUCCESS;
  }

 protected:
  // ----- hooks the vectorized / threaded subclasses override -----

  /// Kernel flavor used in trace span names ("serial", "sse", "avx", ...).
  virtual const char* kernelLabel() const { return "serial"; }

  /// Level-order batching applies unless the instance was created
  /// synchronous-only (BGL_FLAG_COMPUTATION_SYNCH without ASYNCH). The
  /// threaded subclasses fall back to the serial per-operation order in
  /// that case so --sync runs define the reference bit pattern.
  bool levelOrderEnabled() const {
    return (config_.flags & BGL_FLAG_COMPUTATION_ASYNCH) != 0 ||
           (config_.flags & BGL_FLAG_COMPUTATION_SYNCH) == 0;
  }

  /// Execute a validated batch. The serial base runs operations in order,
  /// each over its slot's pattern range — the reference FP sequence the
  /// level-order paths must reproduce.
  virtual void executePartitionedOperations(const BglOperationByPartition* ops,
                                            int count, int cumulativeScaleIndex) {
    for (int i = 0; i < count; ++i) {
      obs::ScopedSpan span(recorder_, obs::Category::kOperation, kernelLabel());
      executeWholeOperation(ops[i]);
      rescaleOperation(ops[i]);
      accumulateOperationScale(ops[i], cumulativeScaleIndex);
    }
  }

  /// Block t of the operation's slot range cut into nt equal blocks
  /// (trailing blocks may be short or empty).
  std::pair<int, int> opBlock(const BglOperationByPartition& op, int t, int nt) const {
    return patternBlock(partBegin_[op.partition], partEnd_[op.partition], nt, t);
  }

  void executeWholeOperation(const BglOperationByPartition& op) {
    executeOperation(op, partBegin_[op.partition], partEnd_[op.partition]);
  }

  /// Compute one operation over a pattern sub-range of its slot
  /// (thread-splittable).
  void executeOperation(const BglOperationByPartition& op, int kBegin, int kEnd) {
    const int p = config_.patternCount;
    const int c = config_.categoryCount;
    const int s = config_.stateCount;
    Real* dest = ensurePartials(op.destinationPartials).data();
    const Real* m1 = matrices_[op.child1TransitionMatrix].data();
    const Real* m2 = matrices_[op.child2TransitionMatrix].data();

    const bool tip1 = !tipStates_[op.child1Partials].empty();
    const bool tip2 = !tipStates_[op.child2Partials].empty();
    if (tip1 && tip2) {
      statesStates(dest, tipStates_[op.child1Partials].data(), m1,
                   tipStates_[op.child2Partials].data(), m2, p, c, s, kBegin, kEnd);
    } else if (tip1) {
      statesPartials(dest, tipStates_[op.child1Partials].data(), m1,
                     partials_[op.child2Partials].data(), m2, p, c, s, kBegin, kEnd);
    } else if (tip2) {
      statesPartials(dest, tipStates_[op.child2Partials].data(), m2,
                     partials_[op.child1Partials].data(), m1, p, c, s, kBegin, kEnd);
    } else {
      partialsPartials(dest, partials_[op.child1Partials].data(), m1,
                       partials_[op.child2Partials].data(), m2, p, c, s, kBegin,
                       kEnd);
    }
  }

  /// Rescale the operation's slot range of its destination. The level-order
  /// threaded paths run rescales at the end of each level and defer
  /// accumulateOperationScale to the end of the batch, in original
  /// operation order (the serial FP sequence — see api/levelize.h).
  void rescaleOperation(const BglOperationByPartition& op) {
    if (op.destinationScaleWrite == BGL_OP_NONE) return;
    obs::ScopedSpan span(recorder_, obs::Category::kRescale, "rescale");
    recorder_.count(obs::Counter::kRescaleEvents);
    Real* dest = partials_[op.destinationPartials].data();
    Real* scale = scale_[op.destinationScaleWrite].data();
    rescaleScalar<Real>(dest, scale, config_.patternCount, config_.categoryCount,
                        config_.stateCount, partBegin_[op.partition],
                        partEnd_[op.partition]);
  }

  void accumulateOperationScale(const BglOperationByPartition& op,
                                int cumulativeScaleIndex) {
    if (op.destinationScaleWrite == BGL_OP_NONE || cumulativeScaleIndex == BGL_OP_NONE) {
      return;
    }
    Real* cum = scale_[cumulativeScaleIndex].data();
    const Real* scale = scale_[op.destinationScaleWrite].data();
    for (int k = partBegin_[op.partition]; k < partEnd_[op.partition]; ++k) {
      cum[k] += scale[k];
    }
  }

  /// Root-site integration over one slot's pattern range. Per-pattern math
  /// is position-independent, so the scalar kernel over [kBegin, kEnd)
  /// reproduces a per-partition instance bit for bit. The thread pool
  /// overrides this (Section VI-C parallelizes the root likelihood too).
  virtual void computeRootSitesRange(const Real* partials, const Real* freqs,
                                     const Real* weights, const Real* cumScale,
                                     int kBegin, int kEnd) {
    rootLikelihoodScalar<Real>(partials, freqs, weights, cumScale,
                               siteLogL_.data(), config_.patternCount,
                               config_.categoryCount, config_.stateCount, kBegin,
                               kEnd);
  }

  // ----- inner compute kernels (vectorized subclasses override) -----

  virtual void partialsPartials(Real* dest, const Real* p1, const Real* m1,
                                const Real* p2, const Real* m2, int p, int c, int s,
                                int kBegin, int kEnd) {
    partialsPartialsScalar<Real>(dest, p1, m1, p2, m2, p, c, s, kBegin, kEnd);
  }

  virtual void statesPartials(Real* dest, const std::int32_t* s1, const Real* m1,
                              const Real* p2, const Real* m2, int p, int c, int s,
                              int kBegin, int kEnd) {
    statesPartialsScalar<Real>(dest, s1, m1, p2, m2, p, c, s, kBegin, kEnd);
  }

  virtual void statesStates(Real* dest, const std::int32_t* s1, const Real* m1,
                            const std::int32_t* s2, const Real* m2, int p, int c,
                            int s, int kBegin, int kEnd) {
    statesStatesScalar<Real>(dest, s1, m1, s2, m2, p, c, s, kBegin, kEnd);
  }

  // ----- shared helpers -----

  std::size_t partialsSize() const {
    return static_cast<std::size_t>(config_.categoryCount) * config_.patternCount *
           config_.stateCount;
  }
  std::size_t matrixSize() const {
    return static_cast<std::size_t>(config_.categoryCount) * config_.stateCount *
           config_.stateCount;
  }

  AlignedVector<Real>& ensurePartials(int bufferIndex) {
    auto& buf = partials_[bufferIndex];
    if (buf.empty()) buf.assign(partialsSize(), Real(0));
    return buf;
  }

  bool validScale(int index) const {
    return index >= 0 && index < config_.scaleBufferCount;
  }
  bool validEigenSlot(int index) const {
    return index >= 0 && index < config_.eigenBufferCount;
  }
  int autoCumulativeIndex() const { return config_.scaleBufferCount - 1; }

  /// Fold scale buffers into a cumulative one, sign * source per pattern in
  /// array order. Every index is checked before the first write, so a
  /// rejected call leaves the cumulative buffer untouched.
  int foldScaleFactors(const int* scaleIndices, int count, int cumulativeScaleIndex,
                       Real sign) {
    for (int i = 0; i < count; ++i) {
      if (!validScale(scaleIndices[i])) return BGL_ERROR_OUT_OF_RANGE;
    }
    auto& cum = scale_[cumulativeScaleIndex];
    for (int i = 0; i < count; ++i) {
      const auto& src = scale_[scaleIndices[i]];
      for (int k = 0; k < config_.patternCount; ++k) cum[k] += sign * src[k];
    }
    return BGL_SUCCESS;
  }

  /// Serial ascending weighted sum over a pattern range — a partition's
  /// patterns occupy [kBegin, kEnd) of the concatenated axis, so this is
  /// the same FP sequence a per-partition instance produces.
  double weightedSiteSumRange(const Real* site, int kBegin, int kEnd) const {
    double sum = 0.0;
    for (int k = kBegin; k < kEnd; ++k) {
      sum += patternWeights_[k] * static_cast<double>(site[k]);
    }
    return sum;
  }

  int validateOperations(const BglOperationByPartition* ops, int count,
                         int cumulativeScaleIndex) const {
    if (cumulativeScaleIndex != BGL_OP_NONE && !validScale(cumulativeScaleIndex)) {
      return BGL_ERROR_OUT_OF_RANGE;
    }
    for (int i = 0; i < count; ++i) {
      const auto& op = ops[i];
      if (!validSlot(op.partition)) return BGL_ERROR_OUT_OF_RANGE;
      if (op.destinationPartials < config_.tipCount ||
          op.destinationPartials >= config_.bufferCount()) {
        return BGL_ERROR_OUT_OF_RANGE;
      }
      for (int child : {op.child1Partials, op.child2Partials}) {
        if (child < 0 || child >= config_.bufferCount()) return BGL_ERROR_OUT_OF_RANGE;
        if (tipStates_[child].empty() && partials_[child].empty()) {
          // must have been produced by an earlier op in this batch
          bool produced = false;
          for (int j = 0; j < i; ++j) produced |= ops[j].destinationPartials == child;
          if (!produced) return BGL_ERROR_OUT_OF_RANGE;
        }
      }
      for (int m : {op.child1TransitionMatrix, op.child2TransitionMatrix}) {
        if (m < 0 || m >= config_.matrixBufferCount) return BGL_ERROR_OUT_OF_RANGE;
      }
      if (op.destinationScaleWrite != BGL_OP_NONE &&
          !validScale(op.destinationScaleWrite)) {
        return BGL_ERROR_OUT_OF_RANGE;
      }
    }
    return BGL_SUCCESS;
  }

  // ----- storage -----
  std::vector<AlignedVector<Real>> partials_;       // by buffer index (lazy)
  std::vector<std::vector<std::int32_t>> tipStates_;// by buffer index (lazy)
  int compactUsed_ = 0;
  std::vector<AlignedVector<Real>> matrices_;
  std::vector<std::vector<double>> eigenCijk_;
  std::vector<std::vector<double>> eigenValues_;
  std::vector<AlignedVector<Real>> freqs_;
  std::vector<AlignedVector<Real>> weights_;
  std::vector<std::vector<double>> rates_;  // by eigen slot
  std::vector<double> patternWeights_;
  std::vector<AlignedVector<Real>> scale_;
  AlignedVector<Real> siteLogL_, siteD1_, siteD2_;

  // Timeline baseline captured by resetTimeline().
  double timelineBaseSeconds_ = 0.0;
  std::uint64_t timelineBaseOps_ = 0;
  std::uint64_t timelineBaseBytes_ = 0;
};

}  // namespace bgl::cpu
