// The three generations of CPU threading described in Section VI.
//
//  FuturesImpl       (VI-A) one std::async future per topology-independent
//                    partials operation; no intra-operation parallelism.
//  ThreadCreateImpl  (VI-B) threads created and joined per updatePartials
//                    call, splitting the pattern axis into equal slabs; a
//                    512-pattern minimum prevents small problems from
//                    regressing below the serial implementation.
//  ThreadPoolImpl    (VI-C) a persistent pool fed through a work queue;
//                    additionally parallelizes the root-likelihood
//                    integration across patterns. This is the shipping
//                    threaded model (Table III shows why).
//
// Thread-create and the pool share CpuImpl's one execution body (pattern
// slabs): [0, patternCount) is cut into one contiguous slab per thread, and
// each slab runs the whole batch in original operation order — execute,
// rescale, accumulate, each over the operation's slot range intersected
// with the slab. Per pattern that is the serial FP sequence, so results are
// bitwise by construction, with one fork/join per batch and no special
// case for repeated scale targets or buffers a later operation overwrites.
// The two models differ only in how the slab workers are obtained. Slabs
// cut the whole axis, so a batch covering part of it (some partitions
// only) keeps fewer workers busy; in-repo callers send whole-axis batches
// to threaded CPU instances (PartitionedLikelihood re-evaluates every
// member of a group, partition-blind calls cover the whole axis).
//
// Futures stay at operation level, as in VI-A: each dependency level
// (api/levelize.h) runs as one future per operation, rescales run at the end
// of each level and cumulative scale accumulation is deferred to the end of
// the batch in original operation order. Run as slab workers, futures
// would split operations the way thread-create does and lose the Table III
// ordering the model exists to show. Synchronous-only instances and batches
// that repeat a scale target take the one-slab body.
#pragma once

#include <functional>
#include <future>
#include <thread>
#include <utility>
#include <vector>

#include "api/levelize.h"
#include "core/thread_pool.h"
#include "cpu/cpu_impl.h"

namespace bgl::cpu {

/// Minimum pattern count before intra-operation threading engages
/// (Section VI-B).
inline constexpr int kMinPatternsForThreading = 512;

/// Slabs for a pattern range of `patterns` on `threads` threads.
inline int slabsFor(int patterns, int threads) {
  return patterns >= kMinPatternsForThreading && threads > 1 ? threads : 1;
}

template <RealScalar Real>
class FuturesImpl : public CpuImpl<Real> {
 public:
  using CpuImpl<Real>::CpuImpl;
  std::string implName() const override { return "CPU-threaded-futures"; }

  int setThreadCount(int threads) override {
    if (threads < 1) return BGL_ERROR_OUT_OF_RANGE;
    // Futures delegate scheduling to the runtime; the setting only bounds
    // how many operations are dispatched concurrently.
    maxConcurrent_ = threads;
    return BGL_SUCCESS;
  }

 protected:
  void executePartitionedOperations(const BglOperationByPartition* ops, int count,
                                    int cumulativeScaleIndex) override {
    if (!levelOrderEnabled() || !scaleWritesUniqueByPartition(ops, count)) {
      CpuImpl<Real>::executePartitionedOperations(ops, count, cumulativeScaleIndex);
      return;
    }
    this->prepareOperations(ops, count);
    std::vector<int> level;
    const int maxLevel =
        levelizeOperationsByPartition(ops, count, this->slotCount(), level);
    for (int lv = 0; lv <= maxLevel; ++lv) {
      std::vector<std::future<void>> futures;
      for (int i = 0; i < count; ++i) {
        if (level[i] != lv) continue;
        const auto [kBegin, kEnd] = slotRange(ops[i]);
        if (static_cast<int>(futures.size()) + 1 >= maxConcurrent_) {
          // Run the final member of the level inline.
          obs::ScopedSpan span(this->recorder_, obs::Category::kOperation,
                               this->kernelLabel());
          this->executeOperation(ops[i], kBegin, kEnd);
          continue;
        }
        futures.push_back(std::async(
            std::launch::async, [this, &op = ops[i], i, kBegin = kBegin, kEnd = kEnd] {
              obs::ScopedSpan span(this->recorder_, obs::Category::kWorker,
                                   this->kernelLabel(), i + 1);
              this->executeOperation(op, kBegin, kEnd);
            }));
      }
      for (auto& f : futures) f.get();
      for (int i = 0; i < count; ++i) {
        if (level[i] != lv) continue;
        const auto [kBegin, kEnd] = slotRange(ops[i]);
        this->rescaleOperation(ops[i], kBegin, kEnd);
      }
    }
    // Deferred accumulation in batch order — the serial FP sequence.
    for (int i = 0; i < count; ++i) {
      const auto [kBegin, kEnd] = slotRange(ops[i]);
      this->accumulateOperationScale(ops[i], cumulativeScaleIndex, kBegin, kEnd);
    }
  }

 private:
  /// Level order applies unless the instance was created synchronous-only
  /// (BGL_FLAG_COMPUTATION_SYNCH without ASYNCH), so --sync runs define the
  /// reference bit pattern.
  bool levelOrderEnabled() const {
    const long flags = this->config_.flags;
    return (flags & BGL_FLAG_COMPUTATION_ASYNCH) != 0 ||
           (flags & BGL_FLAG_COMPUTATION_SYNCH) == 0;
  }

  std::pair<int, int> slotRange(const BglOperationByPartition& op) const {
    return {this->partBegin_[op.partition], this->partEnd_[op.partition]};
  }

  int maxConcurrent_ = static_cast<int>(std::thread::hardware_concurrency());
};

template <RealScalar Real>
class ThreadCreateImpl : public CpuImpl<Real> {
 public:
  using CpuImpl<Real>::CpuImpl;
  std::string implName() const override { return "CPU-threaded-create"; }

  int setThreadCount(int threads) override {
    if (threads < 1) return BGL_ERROR_OUT_OF_RANGE;
    threads_ = threads;
    return BGL_SUCCESS;
  }

 protected:
  int slabCount() const override {
    return slabsFor(this->config_.patternCount, threads_);
  }

  /// One freshly created thread per slab; the calling thread runs slab 0.
  void runSlabs(int slabs, const typename CpuImpl<Real>::SlabFn& slab) override {
    std::vector<std::thread> workers;
    workers.reserve(static_cast<std::size_t>(slabs - 1));
    for (int t = 1; t < slabs; ++t) workers.emplace_back(std::cref(slab), t);
    slab(0);
    for (auto& w : workers) w.join();
  }

 private:
  int threads_ = static_cast<int>(std::thread::hardware_concurrency());
};

template <RealScalar Real>
class ThreadPoolImpl : public CpuImpl<Real> {
 public:
  explicit ThreadPoolImpl(const InstanceConfig& cfg)
      : CpuImpl<Real>(cfg),
        pool_(std::make_unique<ThreadPool>(defaultThreads())) {}

  std::string implName() const override { return "CPU-threaded-pool"; }

  int setThreadCount(int threads) override {
    if (threads < 1) return BGL_ERROR_OUT_OF_RANGE;
    threads_ = threads;
    // Recreate the pool only when growing past its size; shrinking is
    // handled by capping the workers used per parallelFor.
    if (static_cast<unsigned>(threads) > pool_->size() + 1) {
      pool_ = std::make_unique<ThreadPool>(threads - 1);
    }
    return BGL_SUCCESS;
  }

 protected:
  int slabCount() const override {
    return slabsFor(this->config_.patternCount, threads_);
  }

  /// One pool dispatch per batch; the calling thread participates.
  void runSlabs(int slabs, const typename CpuImpl<Real>::SlabFn& slab) override {
    pool_->parallelFor(slabs, slab, static_cast<unsigned>(slabs));
  }

  /// The pool approach also threads the root-likelihood integration
  /// across independent site patterns (Section VI-C).
  void computeRootSitesRange(const Real* partials, const Real* freqs,
                             const Real* weights, const Real* cumScale, int begin,
                             int end) override {
    const int slabs = slabsFor(end - begin, threads_);
    if (slabs == 1) {
      CpuImpl<Real>::computeRootSitesRange(partials, freqs, weights, cumScale, begin,
                                           end);
      return;
    }
    runSlabs(slabs, [&](int t) {
      obs::ScopedSpan span(this->recorder_, obs::Category::kWorker, "rootSites", t);
      const auto [kBegin, kEnd] = patternBlock(begin, end, slabs, t);
      CpuImpl<Real>::computeRootSitesRange(partials, freqs, weights, cumScale, kBegin,
                                           kEnd);
    });
  }

 private:
  static unsigned defaultThreads() {
    const unsigned hw = std::thread::hardware_concurrency();
    return hw > 1 ? hw - 1 : 1;  // the calling thread participates
  }

  int threads_ = static_cast<int>(std::thread::hardware_concurrency());
  std::unique_ptr<ThreadPool> pool_;
};

}  // namespace bgl::cpu
