// The framework-independent accelerator implementation (Fig. 3's
// "accelerator model"). It speaks only to the HAL Device interface, so the
// identical code drives the CUDA-style and OpenCL-style runtimes; all
// framework- and hardware-specific behaviour lives below the interface.
//
// Minimizing host<->device traffic shapes this class, as it shaped BEAGLE:
// transition matrices, partials, scaling, root/edge integration and the
// final site-likelihood reduction all execute on the device; only scalar
// results and explicitly requested buffers cross back.
//
// Unless BGL_FLAG_COMPUTATION_SYNCH is requested (without ASYNCH), the
// device runs in asynchronous command-stream mode: launches are enqueued
// in order and execute on a stream worker, updatePartials batches are
// levelized (api/levelize.h) into one fused launch per dependency level
// and kernel kind, and root/edge results are read back with a single
// deferred transfer. The async path is bit-identical to the synchronous
// one — see docs/PERFORMANCE.md for the determinism contract.
#pragma once

#include <algorithm>
#include <cmath>
#include <cstring>
#include <memory>
#include <utility>
#include <vector>

#include "api/implementation.h"
#include "api/levelize.h"
#include "hal/hal.h"
#include "kernels/kernels.h"
#include "kernels/workload.h"

namespace bgl::accel {

template <RealScalar Real>
class AccelImpl : public Implementation {
 public:
  AccelImpl(const InstanceConfig& cfg, hal::DevicePtr device)
      : Implementation(cfg), device_(std::move(device)) {
    // The runtime emits kernel-launch and memcpy events (with device and
    // framework metadata) into this instance's recorder.
    device_->setRecorder(&recorder_);
    async_ = (cfg.flags & BGL_FLAG_COMPUTATION_ASYNCH) != 0 ||
             (cfg.flags & BGL_FLAG_COMPUTATION_SYNCH) == 0;
    // Cross-call pipelining (docs/PERFORMANCE.md): transition matrices issue
    // on a second device stream so round N+1's matrices overlap round N's
    // partials. Implies async. The hazard tracking below runs in every mode;
    // a device with fewer than two streams records no events, so in plain
    // async (or on a device that ignores setStreamCount) no fence is ever
    // enqueued and matrix launches share the one in-order stream.
    pipeline_ = async_ && (cfg.flags & BGL_FLAG_COMPUTATION_PIPELINE) != 0;
    if (async_) {
      if (pipeline_) device_->setStreamCount(2);
      device_->setAsync(true);
    }
    matrixDirty_.assign(static_cast<std::size_t>(cfg.matrixBufferCount), 0);
    matrixReadByC_.assign(static_cast<std::size_t>(cfg.matrixBufferCount), 0);
    variant_ = (cfg.flags & BGL_FLAG_KERNEL_X86_STYLE)
                   ? hal::KernelVariant::X86Style
                   : (cfg.flags & BGL_FLAG_KERNEL_GPU_STYLE)
                         ? hal::KernelVariant::GpuStyle
                         : defaultVariant();
    useFma_ = (cfg.flags & BGL_FLAG_FMA_OFF) == 0 && device_->profile().fastFma;

    const auto& c = config_;
    partials_.resize(c.bufferCount());
    tipStates_.resize(c.bufferCount());

    // One allocation per buffer family, addressed through sub-regions —
    // pointer arithmetic under CUDA, sub-buffer objects under OpenCL.
    matrixStride_ = alignUp(matrixSize() * sizeof(Real));
    matrixAlloc_ = device_->alloc(matrixStride_ * c.matrixBufferCount);
    matrices_.reserve(c.matrixBufferCount);
    for (int i = 0; i < c.matrixBufferCount; ++i) {
      matrices_.push_back(
          device_->subBuffer(matrixAlloc_, matrixStride_ * i, matrixSize() * sizeof(Real)));
    }

    if (c.scaleBufferCount > 0) {
      scaleStride_ = alignUp(static_cast<std::size_t>(c.patternCount) * sizeof(Real));
      scaleAlloc_ = device_->alloc(scaleStride_ * c.scaleBufferCount);
      scale_.reserve(c.scaleBufferCount);
      for (int i = 0; i < c.scaleBufferCount; ++i) {
        scale_.push_back(device_->subBuffer(
            scaleAlloc_, scaleStride_ * i,
            static_cast<std::size_t>(c.patternCount) * sizeof(Real)));
        // Device-side fill: no host-side zero staging vector, and on an
        // async device the fill is just another stream record.
        device_->fillZero(scale_.back(), 0,
                          static_cast<std::size_t>(c.patternCount) * sizeof(Real));
      }
    }

    cijk_.resize(c.eigenBufferCount);
    eval_.resize(c.eigenBufferCount);
    freqs_.resize(c.eigenBufferCount);
    weights_.resize(c.eigenBufferCount);
    for (int i = 0; i < c.eigenBufferCount; ++i) {
      freqs_[i] = device_->alloc(static_cast<std::size_t>(c.stateCount) * sizeof(Real));
      weights_[i] = device_->alloc(static_cast<std::size_t>(c.categoryCount) * sizeof(Real));
    }
    // One category-rates buffer per eigen slot; slot 0 doubles as the
    // legacy single-model rates (setCategoryRates).
    rates_.resize(c.eigenBufferCount);
    stagingReal_.assign(c.categoryCount, Real(1));
    for (int i = 0; i < c.eigenBufferCount; ++i) {
      rates_[i] =
          device_->alloc(static_cast<std::size_t>(c.categoryCount) * sizeof(Real));
      device_->copyToDevice(*rates_[i], 0, stagingReal_.data(),
                            stagingReal_.size() * sizeof(Real));
    }
    patternWeights_ = device_->alloc(static_cast<std::size_t>(c.patternCount) * sizeof(Real));
    {
      stagingReal_.assign(c.patternCount, Real(1));
      device_->copyToDevice(*patternWeights_, 0, stagingReal_.data(),
                            stagingReal_.size() * sizeof(Real));
    }
    siteLogL_ = device_->alloc(static_cast<std::size_t>(c.patternCount) * sizeof(Real));
    siteD1_ = device_->alloc(static_cast<std::size_t>(c.patternCount) * sizeof(Real));
    siteD2_ = device_->alloc(static_cast<std::size_t>(c.patternCount) * sizeof(Real));
    // Sized once for every reduction this instance can enqueue, so no
    // evaluation grows it: a run of disjoint partition ranges spans at most
    // reduceBlocks() + partitions blocks (each partition owns >= 1
    // pattern), and an edge's three whole-axis sections at most
    // 3 * reduceBlocks().
    reduceScratch_ = device_->alloc(
        static_cast<std::size_t>(reduceBlocks() + c.patternCount + 1) * sizeof(double));
    allocResultBuffers();
  }

  ~AccelImpl() override {
    // Drain the command stream before buffers go away; a deferred failure
    // at teardown has nowhere to surface.
    try {
      device_->finish();
    } catch (...) {
    }
    device_->setRecorder(nullptr);
  }

  std::string implName() const override {
    return device_->frameworkName() + "-" +
           (variant_ == hal::KernelVariant::X86Style ? "x86" : "GPU") + ":" +
           device_->profile().name;
  }

  hal::Device& device() { return *device_; }

  // ------------------------------------------------------------------

  int setTipStates(int tipIndex, const int* inStates) override {
    if (tipIndex < 0 || tipIndex >= config_.tipCount) return BGL_ERROR_OUT_OF_RANGE;
    auto& buf = tipStates_[tipIndex];
    if (buf == nullptr) {
      if (compactUsed_ >= config_.compactBufferCount) return BGL_ERROR_OUT_OF_RANGE;
      ++compactUsed_;
      buf = device_->alloc(static_cast<std::size_t>(config_.patternCount) *
                           sizeof(std::int32_t));
    }
    stagingInt_.resize(config_.patternCount);
    for (int k = 0; k < config_.patternCount; ++k) {
      const int s = inStates[k];
      stagingInt_[k] = (s < 0 || s >= config_.stateCount) ? config_.stateCount : s;
    }
    device_->copyToDevice(*buf, 0, stagingInt_.data(),
                          stagingInt_.size() * sizeof(std::int32_t));
    return BGL_SUCCESS;
  }

  int setTipPartials(int tipIndex, const double* inPartials) override {
    if (tipIndex < 0 || tipIndex >= config_.tipCount) return BGL_ERROR_OUT_OF_RANGE;
    ensurePartials(tipIndex);
    const int p = config_.patternCount;
    const int s = config_.stateCount;
    stagingReal_.resize(partialsSize());
    for (int c = 0; c < config_.categoryCount; ++c) {
      Real* plane = stagingReal_.data() + static_cast<std::size_t>(c) * p * s;
      for (std::size_t i = 0; i < static_cast<std::size_t>(p) * s; ++i) {
        plane[i] = static_cast<Real>(inPartials[i]);
      }
    }
    device_->copyToDevice(*partials_[tipIndex], 0, stagingReal_.data(),
                          stagingReal_.size() * sizeof(Real));
    return BGL_SUCCESS;
  }

  int setPartials(int bufferIndex, const double* inPartials) override {
    if (bufferIndex < 0 || bufferIndex >= config_.bufferCount()) {
      return BGL_ERROR_OUT_OF_RANGE;
    }
    ensurePartials(bufferIndex);
    stagingReal_.resize(partialsSize());
    for (std::size_t i = 0; i < stagingReal_.size(); ++i) {
      stagingReal_[i] = static_cast<Real>(inPartials[i]);
    }
    device_->copyToDevice(*partials_[bufferIndex], 0, stagingReal_.data(),
                          stagingReal_.size() * sizeof(Real));
    return BGL_SUCCESS;
  }

  int getPartials(int bufferIndex, double* outPartials) override {
    if (bufferIndex < 0 || bufferIndex >= config_.bufferCount() ||
        partials_[bufferIndex] == nullptr) {
      return BGL_ERROR_OUT_OF_RANGE;
    }
    stagingReal_.resize(partialsSize());
    device_->copyToHost(stagingReal_.data(), *partials_[bufferIndex], 0,
                        stagingReal_.size() * sizeof(Real));
    for (std::size_t i = 0; i < stagingReal_.size(); ++i) {
      outPartials[i] = static_cast<double>(stagingReal_[i]);
    }
    return BGL_SUCCESS;
  }

  int setStateFrequencies(int index, const double* inFreqs) override {
    if (index < 0 || index >= config_.eigenBufferCount) return BGL_ERROR_OUT_OF_RANGE;
    copyConverted(*freqs_[index], inFreqs, config_.stateCount);
    return BGL_SUCCESS;
  }

  int setCategoryWeights(int index, const double* inWeights) override {
    if (index < 0 || index >= config_.eigenBufferCount) return BGL_ERROR_OUT_OF_RANGE;
    copyConverted(*weights_[index], inWeights, config_.categoryCount);
    return BGL_SUCCESS;
  }

  int setCategoryRates(const double* inRates) override {
    copyConverted(*rates_[0], inRates, config_.categoryCount);
    return BGL_SUCCESS;
  }

  int setCategoryRatesWithIndex(int ratesIndex, const double* inRates) override {
    if (!validEigenSlot(ratesIndex)) return BGL_ERROR_OUT_OF_RANGE;
    copyConverted(*rates_[ratesIndex], inRates, config_.categoryCount);
    return BGL_SUCCESS;
  }

  int setPatternWeights(const double* inWeights) override {
    copyConverted(*patternWeights_, inWeights, config_.patternCount);
    return BGL_SUCCESS;
  }

  int setEigenDecomposition(int eigenIndex, const double* evec, const double* ivec,
                            const double* eval) override {
    if (eigenIndex < 0 || eigenIndex >= config_.eigenBufferCount) {
      return BGL_ERROR_OUT_OF_RANGE;
    }
    const int s = config_.stateCount;
    kernels::packCijk(evec, ivec, s, stagingReal_);
    const std::size_t cijkBytes = stagingReal_.size() * sizeof(Real);
    if (cijk_[eigenIndex] == nullptr) {
      cijk_[eigenIndex] = device_->alloc(cijkBytes);
      eval_[eigenIndex] = device_->alloc(static_cast<std::size_t>(s) * sizeof(Real));
    }
    device_->copyToDevice(*cijk_[eigenIndex], 0, stagingReal_.data(), cijkBytes);
    copyConverted(*eval_[eigenIndex], eval, s);
    return BGL_SUCCESS;
  }

  int updateTransitionMatrices(int eigenIndex, const int* probIndices,
                               const int* d1Indices, const int* d2Indices,
                               const double* edgeLengths, int count) override {
    if (eigenIndex < 0 || eigenIndex >= config_.eigenBufferCount ||
        cijk_[eigenIndex] == nullptr) {
      return BGL_ERROR_OUT_OF_RANGE;
    }
    if ((d1Indices == nullptr) != (d2Indices == nullptr)) {
      return BGL_ERROR_UNIMPLEMENTED;
    }
    obs::ScopedSpan span(recorder_, obs::Category::kUpdateTransitionMatrices,
                         "updateTransitionMatrices");
    recorder_.count(obs::Counter::kTransitionMatrices,
                    static_cast<std::uint64_t>(count));
    const bool derivs = d1Indices != nullptr;
    for (int e = 0; e < count; ++e) {
      if (probIndices[e] < 0 || probIndices[e] >= config_.matrixBufferCount) {
        return BGL_ERROR_OUT_OF_RANGE;
      }
      if (derivs && (d1Indices[e] < 0 || d1Indices[e] >= config_.matrixBufferCount ||
                     d2Indices[e] < 0 || d2Indices[e] >= config_.matrixBufferCount)) {
        return BGL_ERROR_OUT_OF_RANGE;
      }
    }
    if (count <= 0) return BGL_SUCCESS;

    // ONE launch computes all edges' matrices (with derivatives the index
    // array carries three count-long sections: P, P', P'').
    auto stage = std::make_shared<MatrixStage>();
    for (int e = 0; e < count; ++e) {
      stageEdge(*stage, eigenIndex, 0, edgeLengths[e], probIndices[e]);
    }
    if (derivs) {
      stage->indices.insert(stage->indices.end(), d1Indices, d1Indices + count);
      stage->indices.insert(stage->indices.end(), d2Indices, d2Indices + count);
    }
    enqueueMatrixBatch(std::move(stage), derivs);
    return BGL_SUCCESS;
  }

  /// Multi-model matrix update: edges carry per-edge eigen and rates slots
  /// (one slot per partition's substitution model). Every edge stages its
  /// own model pointers, so all models share ONE launch; each matrix is
  /// computed independently, so the bits match one launch per model.
  int updateTransitionMatricesWithModels(const int* eigenIndices,
                                         const int* ratesIndices,
                                         const int* probIndices,
                                         const double* edgeLengths,
                                         int count) override {
    for (int e = 0; e < count; ++e) {
      const int ei = eigenIndices[e];
      if (!validEigenSlot(ei) || cijk_[ei] == nullptr) return BGL_ERROR_OUT_OF_RANGE;
      const int ri = ratesIndices != nullptr ? ratesIndices[e] : 0;
      if (!validEigenSlot(ri)) return BGL_ERROR_OUT_OF_RANGE;
      if (probIndices[e] < 0 || probIndices[e] >= config_.matrixBufferCount) {
        return BGL_ERROR_OUT_OF_RANGE;
      }
    }
    if (count <= 0) return BGL_SUCCESS;
    obs::ScopedSpan span(recorder_, obs::Category::kUpdateTransitionMatrices,
                         "updateTransitionMatricesWithModels");
    recorder_.count(obs::Counter::kTransitionMatrices,
                    static_cast<std::uint64_t>(count));
    auto stage = std::make_shared<MatrixStage>();
    for (int e = 0; e < count; ++e) {
      stageEdge(*stage, eigenIndices[e], ratesIndices != nullptr ? ratesIndices[e] : 0,
                edgeLengths[e], probIndices[e]);
    }
    enqueueMatrixBatch(std::move(stage));
    return BGL_SUCCESS;
  }

  int setTransitionMatrix(int matrixIndex, const double* inMatrix,
                          double /*paddedValue*/) override {
    if (matrixIndex < 0 || matrixIndex >= config_.matrixBufferCount) {
      return BGL_ERROR_OUT_OF_RANGE;
    }
    copyConverted(*matrices_[matrixIndex], inMatrix, static_cast<int>(matrixSize()));
    return BGL_SUCCESS;
  }

  int getTransitionMatrix(int matrixIndex, double* outMatrix) override {
    if (matrixIndex < 0 || matrixIndex >= config_.matrixBufferCount) {
      return BGL_ERROR_OUT_OF_RANGE;
    }
    stagingReal_.resize(matrixSize());
    device_->copyToHost(stagingReal_.data(), *matrices_[matrixIndex], 0,
                        matrixSize() * sizeof(Real));
    for (std::size_t i = 0; i < matrixSize(); ++i) {
      outMatrix[i] = static_cast<double>(stagingReal_[i]);
    }
    return BGL_SUCCESS;
  }

  // ------------------------------------------------------------------

  /// The one partials-update path. Partitions occupy disjoint [begin, end)
  /// ranges of the concatenated pattern axis and share every node-indexed
  /// buffer; a partition-blind batch is one on the whole-axis slot.
  int updatePartialsByPartition(const BglOperationByPartition* operations,
                                int count, int cumulativeScaleIndex) override {
    // SCALING_ALWAYS: see the flag's documentation — the library assigns
    // per-operation scale buffers and maintains the final buffer as the
    // cumulative one across each batch. Partitions share per-node scale
    // buffers over disjoint pattern ranges, so ONE reset of the cumulative
    // buffer covers every partition in the batch.
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
      const int rc = resetScaleFactors(cumulativeScaleIndex);
      if (rc != BGL_SUCCESS) return rc;
    }
    if (cumulativeScaleIndex != BGL_OP_NONE && !validScale(cumulativeScaleIndex)) {
      return BGL_ERROR_OUT_OF_RANGE;
    }
    obs::ScopedSpan span(recorder_, obs::Category::kUpdatePartials,
                         "updatePartialsByPartition");
    recorder_.count(obs::Counter::kPartialsOperations,
                    static_cast<std::uint64_t>(count));
    // RAW fence: if any matrix this batch reads is still in flight on the
    // matrix stream, the compute stream waits for the matrices-ready event
    // before the batch's first launch. Out-of-range indices are skipped
    // here; validation below still rejects the batch.
    matrixReadScratch_.clear();
    for (int i = 0; i < count; ++i) {
      matrixReadScratch_.push_back(operations[i].child1TransitionMatrix);
      matrixReadScratch_.push_back(operations[i].child2TransitionMatrix);
    }
    fenceAndMarkMatrixReads(matrixReadScratch_.data(), matrixReadScratch_.size());
    // Whole-batch validation in per-op order (error codes match the serial
    // path), allocating destinations as the serial path would.
    const auto& c = config_;
    for (int i = 0; i < count; ++i) {
      const auto& op = operations[i];
      if (!validSlot(op.partition)) return BGL_ERROR_OUT_OF_RANGE;
      if (op.destinationPartials < c.tipCount ||
          op.destinationPartials >= c.bufferCount()) {
        return BGL_ERROR_OUT_OF_RANGE;
      }
      for (int m : {op.child1TransitionMatrix, op.child2TransitionMatrix}) {
        if (m < 0 || m >= c.matrixBufferCount) return BGL_ERROR_OUT_OF_RANGE;
      }
      for (int child : {op.child1Partials, op.child2Partials}) {
        if (child < 0 || child >= c.bufferCount()) return BGL_ERROR_OUT_OF_RANGE;
        if (tipStates_[child] == nullptr && partials_[child] == nullptr) {
          return BGL_ERROR_OUT_OF_RANGE;
        }
      }
      if (op.destinationScaleWrite != BGL_OP_NONE &&
          !validScale(op.destinationScaleWrite)) {
        return BGL_ERROR_OUT_OF_RANGE;
      }
      ensurePartials(op.destinationPartials);
    }
    // Deferred accumulation needs every scale target written at most once
    // per partition and batch (levelize.h); repeated targets take the
    // per-op path, which is the definition of the expected bit pattern.
    if (!async_ || !scaleWritesUniqueByPartition(operations, count)) {
      for (int i = 0; i < count; ++i) {
        const int rc =
            executePartitionedOperation(operations[i], cumulativeScaleIndex);
        if (rc != BGL_SUCCESS) return rc;
      }
      return BGL_SUCCESS;
    }
    return executeLevelizedByPartition(operations, count, cumulativeScaleIndex);
  }

  int accumulateScaleFactors(const int* scaleIndices, int count,
                             int cumulativeScaleIndex) override {
    obs::ScopedSpan span(recorder_, obs::Category::kScaling, "accumulateScaleFactors");
    recorder_.count(obs::Counter::kScaleAccumulations,
                    static_cast<std::uint64_t>(count));
    return scaleOpRanged(scaleIndices, count, cumulativeScaleIndex, +1, 0,
                         config_.patternCount, /*concurrent=*/false);
  }

  int removeScaleFactors(const int* scaleIndices, int count,
                         int cumulativeScaleIndex) override {
    obs::ScopedSpan span(recorder_, obs::Category::kScaling, "removeScaleFactors");
    recorder_.count(obs::Counter::kScaleAccumulations,
                    static_cast<std::uint64_t>(count));
    return scaleOpRanged(scaleIndices, count, cumulativeScaleIndex, -1, 0,
                         config_.patternCount, /*concurrent=*/false);
  }

  int resetScaleFactors(int cumulativeScaleIndex) override {
    if (!validScale(cumulativeScaleIndex)) return BGL_ERROR_OUT_OF_RANGE;
    hal::KernelSpec spec = baseSpec(hal::KernelId::ResetScale);
    hal::KernelArgs args;
    args.buffers[0] = scale_[cumulativeScaleIndex]->data();
    const int ppg = integratePpg();
    args.ints[0] = config_.patternCount;
    args.ints[1] = ppg;
    hal::LaunchDims dims;
    dims.numGroups = (config_.patternCount + ppg - 1) / ppg;
    device_->launch(*device_->getKernel(spec), dims, args,
                    scaleWork(/*buffers=*/1));
    return BGL_SUCCESS;
  }

  /// Per-partition root integration: ONE table-driven RootLikelihood
  /// launch and ONE segmented two-phase reduction for every entry, then a
  /// SINGLE readback of all partition sums. The phase-1 blocks are laid out
  /// from each entry's range start, so every per-partition sum brackets
  /// exactly as a standalone per-partition instance would — the bitwise
  /// contract the cross-family tests pin down.
  int calculateRootLogLikelihoodsByPartition(
      const int* bufferIndices, const int* weightIndices, const int* freqIndices,
      const int* scaleIndices, const int* partitionIndices, int count,
      double* outByPartition, double* outTotal) override {
    obs::ScopedSpan span(recorder_, obs::Category::kRootLogLikelihoods,
                         "rootLogLikelihoodsByPartition");
    recorder_.count(obs::Counter::kRootEvaluations,
                    static_cast<std::uint64_t>(count));
    flipResultBuffer();
    ensureResultSlots(count);
    for (int n = 0; n < count; ++n) {
      if (!validSlot(partitionIndices[n])) return BGL_ERROR_OUT_OF_RANGE;
      const int b = bufferIndices[n];
      if (b < 0 || b >= config_.bufferCount() || partials_[b] == nullptr) {
        return BGL_ERROR_OUT_OF_RANGE;
      }
      if (!validEigenSlot(weightIndices[n]) || !validEigenSlot(freqIndices[n])) {
        return BGL_ERROR_OUT_OF_RANGE;
      }
      if (scaleIndices != nullptr && scaleIndices[n] != BGL_OP_NONE &&
          !validScale(scaleIndices[n])) {
        return BGL_ERROR_OUT_OF_RANGE;
      }
    }
    // Entries integrate into the shared siteLogL_, so they split into
    // maximal runs of pairwise-disjoint ranges: a partition named twice, or
    // the whole-axis slot, starts a new run. Each run is one root launch and
    // one reduction, and the site buffer ends with a per-entry sequence's
    // last-writer-wins contents.
    const int whole = partitionCount_;
    slotInRun_.resize(static_cast<std::size_t>(slotCount()), 0);
    auto root = std::make_shared<PartitionStage>();
    int first = 0;
    for (int n = 0; n < count; ++n) {
      const int q = partitionIndices[n];
      if (n > first && (slotInRun_[q] != 0 || q == whole || slotInRun_[whole] != 0)) {
        enqueueRootRun(std::exchange(root, std::make_shared<PartitionStage>()), first);
        for (int i = first; i < n; ++i) slotInRun_[partitionIndices[i]] = 0;
        first = n;
      }
      slotInRun_[q] = 1;
      void* cum = nullptr;
      if (scaleIndices != nullptr && scaleIndices[n] != BGL_OP_NONE) {
        cum = scale_[scaleIndices[n]]->data();
      } else if ((config_.flags & BGL_FLAG_SCALING_ALWAYS) &&
                 config_.scaleBufferCount > 0) {
        cum = scale_[autoCumulativeIndex()]->data();
      }
      const int kBegin = partBegin_[q];
      const int kEnd = partEnd_[q];
      const int ppg = integratePpg();
      root->table.insert(root->table.end(),
                         {partials_[bufferIndices[n]]->data(),
                          freqs_[freqIndices[n]]->data(),
                          weights_[weightIndices[n]]->data(), siteLogL_->data(), cum});
      root->ranges.insert(root->ranges.end(),
                          {kBegin, kEnd, stagedGroups(*root), (kEnd - kBegin + ppg - 1) / ppg});
    }
    if (first < count) enqueueRootRun(std::move(root), first);
    for (int i = first; i < count; ++i) slotInRun_[partitionIndices[i]] = 0;
    // Single deferred readback of all sums; on an async device this is the
    // first point the API thread waits on the stream.
    std::vector<double> sums(static_cast<std::size_t>(count));
    readResults(sums);
    double total = 0.0;
    bool finite = true;
    for (int n = 0; n < count; ++n) {
      outByPartition[n] = sums[n];
      total += sums[n];
      finite = finite && std::isfinite(sums[n]);
    }
    if (outTotal != nullptr) *outTotal = total;
    return finite ? BGL_SUCCESS : BGL_ERROR_FLOATING_POINT;
  }

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
    const int slotsPer = derivs ? 3 : 1;
    flipResultBuffer();
    // Edge integration reads transition matrices on the compute stream.
    matrixReadScratch_.assign(probIndices, probIndices + count);
    if (derivs) {
      matrixReadScratch_.insert(matrixReadScratch_.end(), d1Indices,
                                d1Indices + count);
      matrixReadScratch_.insert(matrixReadScratch_.end(), d2Indices,
                                d2Indices + count);
    }
    fenceAndMarkMatrixReads(matrixReadScratch_.data(), matrixReadScratch_.size());
    ensureResultSlots(count * slotsPer);
    for (int n = 0; n < count; ++n) {
      const int pb = parentIndices[n];
      const int cb = childIndices[n];
      if (pb < 0 || pb >= config_.bufferCount() || partials_[pb] == nullptr) {
        return BGL_ERROR_OUT_OF_RANGE;
      }
      if (cb < 0 || cb >= config_.bufferCount()) return BGL_ERROR_OUT_OF_RANGE;
      if (probIndices[n] < 0 || probIndices[n] >= config_.matrixBufferCount) {
        return BGL_ERROR_OUT_OF_RANGE;
      }
      if (!validEigenSlot(weightIndices[n]) || !validEigenSlot(freqIndices[n])) {
        return BGL_ERROR_OUT_OF_RANGE;
      }
      const bool childStates = tipStates_[cb] != nullptr;
      if (!childStates && partials_[cb] == nullptr) return BGL_ERROR_OUT_OF_RANGE;

      hal::KernelSpec spec = baseSpec(derivs ? hal::KernelId::EdgeLikelihoodDerivs
                                             : hal::KernelId::EdgeLikelihood);
      hal::KernelArgs args;
      args.buffers[0] = partials_[pb]->data();
      args.buffers[1] = childStates ? tipStates_[cb]->data() : partials_[cb]->data();
      args.buffers[2] = matrices_[probIndices[n]]->data();
      args.buffers[3] = freqs_[freqIndices[n]]->data();
      args.buffers[4] = weights_[weightIndices[n]]->data();
      args.buffers[5] = siteLogL_->data();
      if (derivs) {
        if (d1Indices[n] < 0 || d1Indices[n] >= config_.matrixBufferCount ||
            d2Indices[n] < 0 || d2Indices[n] >= config_.matrixBufferCount) {
          return BGL_ERROR_OUT_OF_RANGE;
        }
        args.buffers[6] = siteD1_->data();
        args.buffers[7] = siteD2_->data();
        args.buffers[8] = matrices_[d1Indices[n]]->data();
        args.buffers[9] = matrices_[d2Indices[n]]->data();
      }
      if (scaleIndices != nullptr && scaleIndices[n] != BGL_OP_NONE) {
        if (!validScale(scaleIndices[n])) return BGL_ERROR_OUT_OF_RANGE;
        args.buffers[10] = scale_[scaleIndices[n]]->data();
      }
      const int ppg = integratePpg();
      args.ints[0] = config_.patternCount;
      args.ints[1] = config_.categoryCount;
      args.ints[2] = config_.stateCount;
      args.ints[3] = ppg;
      args.ints[4] = childStates ? 1 : 0;

      hal::LaunchDims dims;
      dims.numGroups = (config_.patternCount + ppg - 1) / ppg;
      dims.groupSize = ppg;

      perf::LaunchWork work;
      work.flops = kernels::partialsFlops(config_.patternCount, config_.categoryCount,
                                          config_.stateCount) *
                   (derivs ? 1.5 : 0.5);
      work.bytes = kernels::partialsBytes(config_.patternCount, config_.categoryCount,
                                          config_.stateCount, sizeof(Real));
      work.fmaFriendly = true;
      work.doublePrecision = !spec.singlePrecision;
      work.useFma = useFma_;
      device_->launch(*device_->getKernel(spec), dims, args, work);

      const int p = config_.patternCount;
      auto reduce = std::make_shared<PartitionStage>();
      stageReduction(*reduce, *siteLogL_, 0, p);
      if (derivs) {
        stageReduction(*reduce, *siteD1_, 0, p);
        stageReduction(*reduce, *siteD2_, 0, p);
      }
      enqueueReduction(std::move(reduce), n * slotsPer);
    }
    std::vector<double> sums(static_cast<std::size_t>(count) * slotsPer);
    readResults(sums);
    double total = 0.0, totalD1 = 0.0, totalD2 = 0.0;
    for (int n = 0; n < count; ++n) {
      total += sums[static_cast<std::size_t>(n) * slotsPer];
      if (derivs) {
        totalD1 += sums[static_cast<std::size_t>(n) * slotsPer + 1];
        totalD2 += sums[static_cast<std::size_t>(n) * slotsPer + 2];
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
    stagingReal_.resize(config_.patternCount);
    // Site likelihoods are compute-stream state; leave queued matrix work
    // for the next round running.
    device_->copyToHostFromStream(
        stagingReal_.data(), *siteLogL_, 0,
        static_cast<std::size_t>(config_.patternCount) * sizeof(Real),
        kComputeStream);
    noteComputeDrained();
    for (int k = 0; k < config_.patternCount; ++k) {
      outLogLikelihoods[k] = static_cast<double>(stagingReal_[k]);
    }
    return BGL_SUCCESS;
  }

  int waitForComputation() override {
    device_->finish();
    noteDeviceDrained();
    return BGL_SUCCESS;
  }

  int setThreadCount(int threads) override {
    if (threads < 1) return BGL_ERROR_OUT_OF_RANGE;
    // Queued work may still be executing under the old fission setting.
    device_->finish();
    noteDeviceDrained();
    device_->setFission(static_cast<unsigned>(threads));
    return BGL_SUCCESS;
  }

  int getTimeline(BglTimeline* out) override {
    device_->finish();  // the stream workers own the timeline while queued
    noteDeviceDrained();
    const auto& t = device_->timeline();
    out->modeledSeconds = t.modeledSeconds;
    out->measuredSeconds = t.measuredSeconds;
    out->kernelLaunches = t.kernelLaunches;
    out->bytesCopied = t.bytesCopied;
    return BGL_SUCCESS;
  }

  int resetTimeline() override {
    device_->finish();
    noteDeviceDrained();
    // resetTimeline (not timeline().reset()) so multi-stream devices also
    // zero their per-stream modeled clocks.
    device_->resetTimeline();
    return BGL_SUCCESS;
  }

  int setWorkGroupSize(int patterns) override {
    if (patterns < 1 || patterns > 16384) return BGL_ERROR_OUT_OF_RANGE;
    workGroupPatterns_ = patterns;
    return BGL_SUCCESS;
  }

 private:
  /// Host-side staging for one batched matrix launch, owned by the stream
  /// until the launch has executed: per edge its model's {Cijk,
  /// eigenvalues, rates} pointers, its length and its destination index.
  struct MatrixStage {
    std::vector<const void*> models;
    std::vector<Real> lengths;
    std::vector<std::int32_t> indices;
  };

  /// Host-side staging for one table-driven launch (fused partials, root
  /// integration, segmented reduction): the per-entry pointer table plus
  /// the int32[4]-per-entry range table, kept alive together by the stream.
  struct PartitionStage {
    std::vector<const void*> table;
    std::vector<std::int32_t> ranges;
  };

  hal::KernelVariant defaultVariant() const {
    return device_->profile().deviceClass == perf::DeviceClass::Gpu
               ? hal::KernelVariant::GpuStyle
               : hal::KernelVariant::X86Style;
  }

  static std::size_t alignUp(std::size_t bytes) {
    constexpr std::size_t kAlign = 128;
    return (bytes + kAlign - 1) / kAlign * kAlign;
  }

  std::size_t partialsSize() const {
    return static_cast<std::size_t>(config_.categoryCount) * config_.patternCount *
           config_.stateCount;
  }
  std::size_t matrixSize() const {
    return static_cast<std::size_t>(config_.categoryCount) * config_.stateCount *
           config_.stateCount;
  }

  void ensurePartials(int bufferIndex) {
    if (partials_[bufferIndex] == nullptr) {
      partials_[bufferIndex] = device_->alloc(partialsSize() * sizeof(Real));
    }
  }

  bool validScale(int index) const {
    return index >= 0 && index < config_.scaleBufferCount;
  }
  bool validEigenSlot(int index) const {
    return index >= 0 && index < config_.eigenBufferCount;
  }
  int autoCumulativeIndex() const { return config_.scaleBufferCount - 1; }

  void copyConverted(hal::Buffer& dst, const double* src, int n) {
    stagingReal_.resize(static_cast<std::size_t>(n));
    for (int i = 0; i < n; ++i) stagingReal_[i] = static_cast<Real>(src[i]);
    device_->copyToDevice(dst, 0, stagingReal_.data(),
                          static_cast<std::size_t>(n) * sizeof(Real));
  }

  hal::KernelSpec baseSpec(hal::KernelId id) const {
    hal::KernelSpec spec;
    spec.id = id;
    spec.states = config_.stateCount;
    spec.singlePrecision = std::is_same_v<Real, float>;
    spec.variant = variant_;
    spec.useFma = useFma_;
    return spec;
  }

  int integratePpg() const { return 128; }

  perf::LaunchWork scaleWork(int buffers) const {
    perf::LaunchWork work;
    work.flops = static_cast<double>(config_.patternCount);
    work.bytes = static_cast<double>(buffers) * config_.patternCount * sizeof(Real);
    work.doublePrecision = !std::is_same_v<Real, float>;
    return work;
  }

  /// Patterns per work-group for the partials kernels. GPU-style geometry
  /// targets states*ppg ~ 256 work-items and must respect the device's
  /// local-memory limit when staging (the AMD codon constraint of
  /// Section VII-B1); x86-style uses the Table V tuned block size.
  struct PartialsGeometry {
    int ppg;
    std::size_t localMemBytes;
  };
  PartialsGeometry partialsGeometry() const {
    const int s = config_.stateCount;
    if (variant_ == hal::KernelVariant::X86Style) {
      return {workGroupPatterns_, 0};
    }
    // GPU-style groups stage both matrices plus a block of child partials
    // in local memory (2*s^2 + 2*ppg*s reals). Devices with small local
    // memories force fewer patterns per group for high state counts, and
    // for codon models in double precision the matrices cannot be staged
    // at all on 32 KB parts (Section VII-B1).
    const std::size_t real = sizeof(Real);
    const std::size_t limit =
        static_cast<std::size_t>(device_->profile().localMemKb * 1024.0);
    const std::size_t matBytes = kernels::gpuStyleLocalMemBytes(
        s, std::is_same_v<Real, float>);
    const std::size_t perPattern = 2 * static_cast<std::size_t>(s) * real;
    int ppg = std::max(1, 256 / s);
    if (matBytes + static_cast<std::size_t>(ppg) * perPattern <= limit) {
      return {ppg, matBytes + static_cast<std::size_t>(ppg) * perPattern};
    }
    if (matBytes + perPattern <= limit) {
      ppg = static_cast<int>((limit - matBytes) / perPattern);
      return {ppg, matBytes + static_cast<std::size_t>(ppg) * perPattern};
    }
    // Matrices do not fit: partials-only staging with a reduced block.
    ppg = std::max<int>(1, static_cast<int>(std::min<std::size_t>(
                               static_cast<std::size_t>(ppg), limit / perPattern)));
    return {ppg, static_cast<std::size_t>(ppg) * perPattern};
  }

  /// States-child convention and kernel choice for one operation.
  int opKind(const BglOperationByPartition& op) const {
    const bool tip1 = tipStates_[op.child1Partials] != nullptr;
    const bool tip2 = tipStates_[op.child2Partials] != nullptr;
    return (tip1 && tip2) ? 0 : (tip1 || tip2) ? 1 : 2;
  }

  /// Append one edge, with its (eigen, rates) model, to a matrix batch.
  void stageEdge(MatrixStage& stage, int eigenIndex, int ratesIndex, double length,
                 int matrixIndex) {
    stage.models.insert(stage.models.end(), {cijk_[eigenIndex]->data(),
                                             eval_[eigenIndex]->data(),
                                             rates_[ratesIndex]->data()});
    stage.lengths.push_back(static_cast<Real>(length));
    stage.indices.push_back(matrixIndex);
  }

  /// One batched matrix launch over every staged edge, including the
  /// cross-stream hazard fencing. The stage is a host-side keep-alive owned
  /// by the stream — no device staging copies, so on an async device the
  /// launch pipelines instead of flushing.
  void enqueueMatrixBatch(std::shared_ptr<MatrixStage> stage, bool derivs = false) {
    const int s = config_.stateCount;
    const int c = config_.categoryCount;
    const int n = static_cast<int>(stage->lengths.size());
    hal::KernelSpec spec = baseSpec(derivs ? hal::KernelId::TransitionMatricesDerivs
                                           : hal::KernelId::TransitionMatrices);
    hal::Kernel* kernel = device_->getKernel(spec);

    hal::KernelArgs args;
    args.buffers[0] = matrixAlloc_->data();
    args.buffers[1] = stage->models.data();
    args.buffers[6] = stage->lengths.data();
    args.buffers[7] = stage->indices.data();
    args.ints[0] = c;
    args.ints[1] = s;
    args.ints[2] = n;
    args.ints[3] = static_cast<std::int64_t>(matrixStride_ / sizeof(Real));

    hal::LaunchDims dims;
    dims.numGroups = n * c;
    dims.groupSize = s * s;

    perf::LaunchWork work;
    work.flops = n * kernels::matrixFlops(c, s, derivs);
    work.bytes = n * kernels::matrixBytes(c, s, sizeof(Real), derivs);
    work.fmaFriendly = true;
    work.doublePrecision = !spec.singlePrecision;
    work.useFma = useFma_;
    work.numGroups = dims.numGroups;

    // WAR fence: if the compute stream has un-drained reads of any target
    // matrix, the matrix stream must wait for them before overwriting. In
    // the steady pipelined cadence (disjoint matrix halves, a compute drain
    // per round at the result readback) this never fires.
    bool hazard = false;
    for (std::size_t i = 0; i < stage->indices.size(); ++i) {
      hazard = hazard || matrixReadByC_[stage->indices[i]] != 0;
    }
    if (hazard) {
      device_->waitEvent(kMatrixStream, device_->recordEvent(kComputeStream));
      std::fill(matrixReadByC_.begin(), matrixReadByC_.end(), char(0));
    }
    hal::LaunchOptions opts;
    opts.keepAlive = stage;
    opts.stream = kMatrixStream;
    device_->launch(*kernel, dims, args, work, opts);
    // RAW edge for consumers: the next partials/edge batch that reads any of
    // these matrices waits on this event (recorded after the launch, so it
    // covers every matrix write enqueued so far).
    for (const std::int32_t m : stage->indices) matrixDirty_[m] = 1;
    matricesReady_ = device_->recordEvent(kMatrixStream);
  }

  // ------------------------------------------------------------------
  // Partials execution. Every launch below is ranged: an operation covers
  // its slot's [begin, end) of the pattern axis, the whole axis included.
  // ------------------------------------------------------------------

  /// Serial per-op execution (sync mode, or repeated scale targets): one
  /// ranged fused launch, then the op's ranged rescale and immediate ranged
  /// cumulative accumulation. Caller validated the batch.
  int executePartitionedOperation(const BglOperationByPartition& op,
                                  int cumulativeScaleIndex) {
    const auto geom = partialsGeometry();
    const int member = 0;
    enqueueFusedPartialsByPartition(&op, &member, 1, opKind(op), geom,
                                    /*concurrent=*/false);
    if (op.destinationScaleWrite != BGL_OP_NONE) {
      enqueueRescaleRanged(op, /*concurrent=*/false);
      if (cumulativeScaleIndex != BGL_OP_NONE) {
        const int idx = op.destinationScaleWrite;
        const int rc =
            scaleOpRanged(&idx, 1, cumulativeScaleIndex, +1,
                          partBegin_[op.partition], partEnd_[op.partition],
                          /*concurrent=*/false);
        if (rc != BGL_SUCCESS) return rc;
      }
    }
    return BGL_SUCCESS;
  }

  /// Level-order partitioned execution. Levels come from the (buffer,
  /// partition)-keyed analysis, so Q partitions' whole-tree batches share
  /// one set of per-level launches: launch count stays O(tree depth), not
  /// O(depth × partitions) — the point of multi-partition mode.
  int executeLevelizedByPartition(const BglOperationByPartition* ops, int count,
                                  int cum) {
    std::vector<int> level;
    const int maxLevel = levelizeOperationsByPartition(ops, count, slotCount(), level);
    const auto geom = partialsGeometry();

    std::vector<int> members;
    for (int lv = 0; lv <= maxLevel; ++lv) {
      bool firstInLevel = true;
      for (int kind = 0; kind < 3; ++kind) {
        members.clear();
        for (int i = 0; i < count; ++i) {
          if (level[i] == lv && opKind(ops[i]) == kind) members.push_back(i);
        }
        if (members.empty()) continue;
        enqueueFusedPartialsByPartition(ops, members.data(),
                                        static_cast<int>(members.size()), kind,
                                        geom, !firstInLevel);
        firstInLevel = false;
      }
      // Rescales read this level's partials (new run) and write disjoint
      // (scale buffer, pattern range) pairs — scaleWritesUniqueByPartition
      // held — so they fuse with each other.
      bool firstRescale = true;
      for (int i = 0; i < count; ++i) {
        if (level[i] != lv || ops[i].destinationScaleWrite == BGL_OP_NONE) {
          continue;
        }
        enqueueRescaleRanged(ops[i], !firstRescale);
        firstRescale = false;
      }
    }

    // Deferred cumulative accumulation: one ranged batched launch per
    // slot, sources in original batch order within the slot (the
    // per-pattern FP sequence of the per-op path). A batch's slots cover
    // disjoint ranges, so all but the first fuse onto the same run.
    if (cum != BGL_OP_NONE) {
      std::vector<int> writes;
      bool first = true;
      for (int q = 0; q < slotCount(); ++q) {
        writes.clear();
        for (int i = 0; i < count; ++i) {
          if (ops[i].partition == q &&
              ops[i].destinationScaleWrite != BGL_OP_NONE) {
            writes.push_back(ops[i].destinationScaleWrite);
          }
        }
        if (writes.empty()) continue;
        const int rc =
            scaleOpRanged(writes.data(), static_cast<int>(writes.size()), cum,
                          +1, partBegin_[q], partEnd_[q], !first);
        if (rc != BGL_SUCCESS) return rc;
        first = false;
      }
    }
    return BGL_SUCCESS;
  }

  /// One launch covering `n` same-kind operations of one level, each
  /// restricted to its partition's pattern range. Grid = sum over ops of
  /// patternBlocks(op) * categories; the int32[4]-per-op range table
  /// {rangeBegin, rangeEnd, groupOffset, patternBlocks} lets each group
  /// binary-search its operation.
  void enqueueFusedPartialsByPartition(const BglOperationByPartition* ops,
                                       const int* members, int n, int kind,
                                       const PartialsGeometry& geom,
                                       bool concurrent) {
    const auto& c = config_;
    hal::KernelSpec spec = baseSpec(kind == 0   ? hal::KernelId::StatesStates
                                    : kind == 1 ? hal::KernelId::StatesPartials
                                                : hal::KernelId::PartialsPartials);
    auto stage = std::make_shared<PartitionStage>();
    stage->table.reserve(static_cast<std::size_t>(n) * 5);
    stage->ranges.reserve(static_cast<std::size_t>(n) * 4);
    int groupOffset = 0;
    double flops = 0.0, bytes = 0.0;
    for (int m = 0; m < n; ++m) {
      const auto& op = ops[members[m]];
      const bool tip1 = tipStates_[op.child1Partials] != nullptr;
      const bool tip2 = tipStates_[op.child2Partials] != nullptr;
      int c1 = op.child1Partials, m1 = op.child1TransitionMatrix;
      int c2 = op.child2Partials, m2 = op.child2TransitionMatrix;
      if (!tip1 && tip2) {
        std::swap(c1, c2);
        std::swap(m1, m2);
      }
      stage->table.push_back(partials_[op.destinationPartials]->data());
      stage->table.push_back((tip1 || tip2) ? tipStates_[c1]->data()
                                            : partials_[c1]->data());
      stage->table.push_back(matrices_[m1]->data());
      stage->table.push_back((tip1 && tip2) ? tipStates_[c2]->data()
                                            : partials_[c2]->data());
      stage->table.push_back(matrices_[m2]->data());

      const int kBegin = partBegin_[op.partition];
      const int kEnd = partEnd_[op.partition];
      const int blocks = (kEnd - kBegin + geom.ppg - 1) / geom.ppg;
      stage->ranges.push_back(kBegin);
      stage->ranges.push_back(kEnd);
      stage->ranges.push_back(groupOffset);
      stage->ranges.push_back(blocks);
      groupOffset += blocks * c.categoryCount;
      flops += kernels::partialsFlops(kEnd - kBegin, c.categoryCount,
                                      c.stateCount);
      bytes += kernels::partialsBytes(kEnd - kBegin, c.categoryCount,
                                      c.stateCount, sizeof(Real));
    }

    hal::KernelArgs args;
    args.buffers[5] = stage->table.data();
    args.buffers[6] = stage->ranges.data();
    args.ints[0] = c.patternCount;
    args.ints[1] = c.categoryCount;
    args.ints[2] = c.stateCount;
    args.ints[3] = geom.ppg;
    args.ints[4] = n;

    hal::LaunchDims dims;
    dims.numGroups = groupOffset;
    dims.groupSize = variant_ == hal::KernelVariant::X86Style
                         ? geom.ppg
                         : geom.ppg * c.stateCount;
    dims.localMemBytes = geom.localMemBytes;

    perf::LaunchWork work;
    work.flops = flops;
    work.bytes = bytes;
    work.workingSetBytes = kernels::partialsWorkingSet(
        c.patternCount, c.categoryCount, c.stateCount, sizeof(Real));
    work.fmaFriendly = true;
    work.doublePrecision = !spec.singlePrecision;
    work.useFma = useFma_;
    work.numGroups = dims.numGroups;
    if (variant_ == hal::KernelVariant::GpuStyle &&
        device_->profile().deviceClass != perf::DeviceClass::Gpu) {
      work.variantEfficiency = perf::kGpuStyleOnCpuEfficiency;
    }

    hal::LaunchOptions opts;
    opts.keepAlive = stage;
    opts.concurrentWithPrevious = concurrent;
    device_->launch(*device_->getKernel(spec), dims, args, work, opts);
  }

  /// Ranged rescale: only the op's partition range of the destination is
  /// renormalized, writing that range of the per-node scale buffer.
  void enqueueRescaleRanged(const BglOperationByPartition& op, bool concurrent) {
    const auto& c = config_;
    recorder_.count(obs::Counter::kRescaleEvents);
    const int kBegin = partBegin_[op.partition];
    const int kEnd = partEnd_[op.partition];
    hal::KernelSpec rspec = baseSpec(hal::KernelId::RescalePartials);
    hal::KernelArgs rargs;
    rargs.buffers[0] = partials_[op.destinationPartials]->data();
    rargs.buffers[1] = scale_[op.destinationScaleWrite]->data();
    const int ppg = integratePpg();
    rargs.ints[0] = c.patternCount;
    rargs.ints[1] = c.categoryCount;
    rargs.ints[2] = c.stateCount;
    rargs.ints[3] = ppg;
    rargs.ints[4] = kBegin;
    rargs.ints[5] = kEnd;
    hal::LaunchDims rdims;
    rdims.numGroups = (kEnd - kBegin + ppg - 1) / ppg;
    rdims.groupSize = ppg;
    perf::LaunchWork rwork;
    rwork.flops =
        static_cast<double>(kEnd - kBegin) * c.categoryCount * c.stateCount;
    rwork.bytes =
        2.0 * (kEnd - kBegin) * c.categoryCount * c.stateCount * sizeof(Real);
    rwork.doublePrecision = !std::is_same_v<Real, float>;
    hal::LaunchOptions opts;
    opts.concurrentWithPrevious = concurrent;
    device_->launch(*device_->getKernel(rspec), rdims, rargs, rwork, opts);
  }

  /// Multi-source scale accumulation over one pattern range: ONE multi-group
  /// launch adds (or removes) all sources per pattern in array order — the
  /// per-element FP sequence of `count` serial launches, so the result is
  /// bit-identical.
  int scaleOpRanged(const int* scaleIndices, int count, int cumulativeScaleIndex,
                    int sign, int kBegin, int kEnd, bool concurrent) {
    if (!validScale(cumulativeScaleIndex)) return BGL_ERROR_OUT_OF_RANGE;
    for (int i = 0; i < count; ++i) {
      if (!validScale(scaleIndices[i])) return BGL_ERROR_OUT_OF_RANGE;
    }
    if (count <= 0) return BGL_SUCCESS;
    auto indices = std::make_shared<std::vector<std::int32_t>>(
        scaleIndices, scaleIndices + count);
    hal::KernelSpec spec = baseSpec(hal::KernelId::AccumulateScale);
    hal::KernelArgs args;
    args.buffers[0] = scale_[cumulativeScaleIndex]->data();
    args.buffers[1] = scaleAlloc_->data();
    args.buffers[2] = indices->data();
    const int ppg = integratePpg();
    args.ints[1] = sign;
    args.ints[2] = count;
    args.ints[3] = static_cast<std::int64_t>(scaleStride_ / sizeof(Real));
    args.ints[4] = ppg;
    args.ints[5] = kBegin;
    args.ints[6] = kEnd;
    hal::LaunchDims dims;
    dims.numGroups = (kEnd - kBegin + ppg - 1) / ppg;
    hal::LaunchOptions opts;
    opts.keepAlive = indices;
    opts.concurrentWithPrevious = concurrent;
    device_->launch(*device_->getKernel(spec), dims, args, scaleWork(count + 1),
                    opts);
    return BGL_SUCCESS;
  }

  // ------------------------------------------------------------------
  // Deferred weighted site reduction (two-phase, deterministic bracketing).
  // ------------------------------------------------------------------

  static constexpr int kReducePatternsPerBlock = 1024;
  int reduceBlocks() const {
    return (config_.patternCount + kReducePatternsPerBlock - 1) /
           kReducePatternsPerBlock;
  }

  /// Grow the per-subset result buffers. Queued reductions may still target
  /// the old allocations, so every stream drains first.
  void ensureResultSlots(int slots) {
    if (slots <= resultSlots_) return;
    device_->finish();
    noteDeviceDrained();
    resultSlots_ = std::max(slots, resultSlots_ * 2);
    allocResultBuffers();
  }

  /// Double-buffered result staging: consecutive root/edge evaluations
  /// alternate buffers so a readback of round N never has to wait for
  /// round N+1's reductions (pipelined mode; otherwise both parities alias
  /// one buffer).
  void allocResultBuffers() {
    const std::size_t bytes = static_cast<std::size_t>(resultSlots_) * sizeof(double);
    resultBuf_[0] = device_->alloc(bytes);
    resultBuf_[1] = pipeline_ ? device_->alloc(bytes) : resultBuf_[0];
    result_ = resultBuf_[resultParity_];
  }

  /// Alternate result buffers between evaluations (the parities alias one
  /// buffer unless pipelined).
  void flipResultBuffer() {
    resultParity_ ^= 1;
    result_ = resultBuf_[resultParity_];
  }

  /// Read back the leading sums.size() result slots. Pipelined mode drains
  /// only the compute stream — queued transition-matrix work for the next
  /// round keeps executing through the readback; on a single-stream device
  /// this is a plain copyToHost.
  void readResults(std::vector<double>& sums) {
    device_->copyToHostFromStream(sums.data(), *result_, 0,
                                  sums.size() * sizeof(double), kComputeStream);
    noteComputeDrained();
  }

  // ------------------------------------------------------------------
  // Cross-stream hazard tracking. The compute stream is stream 0,
  // transition matrices issue on stream 1; StreamEvents carry the
  // happens-before edges between them. The tracking runs in every mode: a
  // device with fewer than two streams returns null events, and waiting on
  // a null event enqueues nothing. See docs/PERFORMANCE.md.
  // ------------------------------------------------------------------

  /// Wait on the matrices-ready event if any matrix this compute batch
  /// reads has an un-fenced write on the matrix stream, then mark the reads
  /// (for the producer-side WAR check). The latest event covers all earlier
  /// matrix-stream writes, so one wait clears every dirty bit.
  void fenceAndMarkMatrixReads(const int* indices, std::size_t n) {
    bool hazard = false;
    for (std::size_t i = 0; i < n; ++i) {
      const int m = indices[i];
      hazard = hazard || (m >= 0 && m < config_.matrixBufferCount &&
                          matrixDirty_[m] != 0);
    }
    if (hazard) {
      device_->waitEvent(kComputeStream, matricesReady_);
      std::fill(matrixDirty_.begin(), matrixDirty_.end(), char(0));
    }
    for (std::size_t i = 0; i < n; ++i) {
      const int m = indices[i];
      if (m >= 0 && m < config_.matrixBufferCount) matrixReadByC_[m] = 1;
    }
  }

  /// The compute stream drained (stream-scoped readback): its matrix reads
  /// have retired, so the next matrix update needs no WAR fence. Without
  /// this clearing, reads accumulate forever and the WAR fence would fire
  /// every round, serializing the two streams.
  void noteComputeDrained() {
    std::fill(matrixReadByC_.begin(), matrixReadByC_.end(), char(0));
  }

  /// Every stream drained (finish()): all pending reads and writes retired.
  void noteDeviceDrained() {
    std::fill(matrixDirty_.begin(), matrixDirty_.end(), char(0));
    std::fill(matrixReadByC_.begin(), matrixReadByC_.end(), char(0));
  }

  /// One run of root entries (pairwise-disjoint ranges of siteLogL_):
  /// one table-driven root launch, then the segmented reduction of the
  /// same ranges into result slots from `firstSlot`.
  void enqueueRootRun(std::shared_ptr<PartitionStage> root, int firstSlot) {
    const auto& c = config_;
    const int entries = static_cast<int>(root->ranges.size() / 4);
    hal::KernelSpec spec = baseSpec(hal::KernelId::RootLikelihood);
    hal::KernelArgs args;
    args.buffers[5] = root->table.data();
    args.buffers[6] = root->ranges.data();
    args.ints[0] = c.patternCount;
    args.ints[1] = c.categoryCount;
    args.ints[2] = c.stateCount;
    args.ints[3] = integratePpg();
    args.ints[4] = entries;

    hal::LaunchDims dims;
    dims.numGroups = stagedGroups(*root);
    dims.groupSize = integratePpg();

    const int patterns = stagedPatterns(*root);
    perf::LaunchWork work;
    work.flops = kernels::rootFlops(patterns, c.categoryCount, c.stateCount);
    work.bytes = kernels::rootBytes(patterns, c.categoryCount, c.stateCount, sizeof(Real));
    work.fmaFriendly = true;
    work.doublePrecision = !spec.singlePrecision;
    work.useFma = useFma_;
    hal::LaunchOptions opts;
    opts.keepAlive = root;
    device_->launch(*device_->getKernel(spec), dims, args, work, opts);

    auto reduce = std::make_shared<PartitionStage>();
    for (std::size_t r = 0; r < root->ranges.size(); r += 4) {
      stageReduction(*reduce, *siteLogL_, root->ranges[r], root->ranges[r + 1]);
    }
    enqueueReduction(std::move(reduce), firstSlot);
  }

  /// Groups a stage's range table spans: the end of its last row.
  static int stagedGroups(const PartitionStage& stage) {
    return stage.ranges.empty()
               ? 0
               : stage.ranges[stage.ranges.size() - 2] + stage.ranges.back();
  }

  /// Total patterns over a stage's range table.
  static int stagedPatterns(const PartitionStage& stage) {
    int patterns = 0;
    for (std::size_t r = 0; r < stage.ranges.size(); r += 4) {
      patterns += stage.ranges[r + 1] - stage.ranges[r];
    }
    return patterns;
  }

  /// Append one (site buffer, pattern range) entry to a segmented
  /// reduction; its phase-1 blocks follow the previous entry's.
  void stageReduction(PartitionStage& stage, hal::Buffer& site, int kBegin, int kEnd) {
    const int offset = stagedGroups(stage);
    stage.table.push_back(site.data());
    stage.ranges.insert(stage.ranges.end(),
                        {kBegin, kEnd, offset,
                         (kEnd - kBegin + kReducePatternsPerBlock - 1) /
                             kReducePatternsPerBlock});
  }

  /// Enqueue the segmented weighted reduction of every staged entry, entry
  /// e into result slot firstSlot + e. Phase 1 partial-sums fixed
  /// 1024-pattern blocks laid out from each entry's range start, in one
  /// grid over all entries; phase 2 combines each entry's blocks in
  /// ascending order, one group per entry. The block size depends only on
  /// the range, so every framework and both sync/async paths bracket
  /// identically, and a partition's sum brackets exactly as a standalone
  /// per-partition buffer would.
  void enqueueReduction(std::shared_ptr<PartitionStage> stage, int firstSlot) {
    hal::KernelSpec spec = baseSpec(hal::KernelId::SumSiteLikelihoods);
    hal::Kernel* kernel = device_->getKernel(spec);
    const int entries = static_cast<int>(stage->table.size());
    const int blocks = stagedGroups(*stage);
    const int patterns = stagedPatterns(*stage);
    hal::LaunchOptions opts;
    opts.keepAlive = stage;
    {
      hal::KernelArgs args;
      args.buffers[1] = patternWeights_->data();
      args.buffers[2] = reduceScratch_->data();
      args.buffers[5] = stage->table.data();
      args.buffers[6] = stage->ranges.data();
      args.ints[1] = kReducePatternsPerBlock;
      args.ints[4] = entries;
      perf::LaunchWork work;
      work.flops = 2.0 * patterns;
      work.bytes = 2.0 * patterns * sizeof(Real);
      work.doublePrecision = true;
      device_->launch(*kernel, {blocks, 1, 0}, args, work, opts);
    }
    {
      hal::KernelArgs args;
      args.buffers[0] = reduceScratch_->data();
      args.buffers[2] = static_cast<double*>(result_->data()) + firstSlot;
      args.buffers[6] = stage->ranges.data();
      args.ints[4] = entries;
      perf::LaunchWork work;
      work.flops = static_cast<double>(blocks);
      work.bytes = static_cast<double>(blocks + entries) * sizeof(double);
      work.doublePrecision = true;
      device_->launch(*kernel, {entries, 1, 0}, args, work, opts);
    }
  }

  hal::DevicePtr device_;
  hal::KernelVariant variant_;
  bool useFma_ = true;
  bool async_ = false;
  bool pipeline_ = false;
  int workGroupPatterns_ = 256;  // Table V default
  int compactUsed_ = 0;
  int resultSlots_ = 4;

  // Stream assignment and hazard state. On a one-stream device both
  // indices clamp to stream 0.
  static constexpr int kComputeStream = 0;  // partials/scaling/root/edge
  static constexpr int kMatrixStream = 1;   // transition matrices
  std::vector<char> matrixDirty_;    // written on stream 1, not yet fenced
  std::vector<char> matrixReadByC_;  // read on stream 0 since its last drain
  hal::StreamEventPtr matricesReady_;
  std::vector<int> matrixReadScratch_;
  std::vector<char> slotInRun_;  // root-run membership per range-table slot
  int resultParity_ = 0;

  hal::BufferPtr matrixAlloc_, scaleAlloc_;
  std::size_t matrixStride_ = 0, scaleStride_ = 0;
  std::vector<hal::BufferPtr> partials_, tipStates_, matrices_, scale_;
  std::vector<hal::BufferPtr> cijk_, eval_, freqs_, weights_, rates_;
  hal::BufferPtr patternWeights_, siteLogL_, siteD1_, siteD2_;
  hal::BufferPtr reduceScratch_, result_, resultBuf_[2];

  // Persistent host staging reused across transfers (no per-call vectors).
  std::vector<Real> stagingReal_;
  std::vector<std::int32_t> stagingInt_;
};

}  // namespace bgl::accel
