// The three generations of CPU threading described in Section VI.
//
//  FuturesImpl       (VI-A) one std::async future per topology-independent
//                    partials operation; no intra-operation parallelism.
//  ThreadCreateImpl  (VI-B) threads created and joined per updatePartials
//                    call, splitting each operation's pattern range into
//                    equal blocks; a 512-pattern minimum prevents small
//                    problems from regressing below the serial
//                    implementation.
//  ThreadPoolImpl    (VI-C) a persistent pool fed through a work queue;
//                    additionally parallelizes the root-likelihood
//                    integration across patterns. This is the shipping
//                    threaded model (Table III shows why).
//
// Each model has one execution path, the partitioned one: a partition-blind
// batch arrives with every operation on the whole-axis slot of the range
// table (api/implementation.h). All three batch level-order (api/levelize.h)
// unless the instance was created synchronous-only or the batch repeats a
// scale target: operations of one dependency level dispatch together — for
// the intra-operation threaded models as one (operation, block-within-range)
// grid per level instead of one join per operation — rescales run at the end
// of each level, and cumulative scale accumulation is deferred to the end of
// the batch in original operation order, so results stay bit-identical to
// the serial path. Otherwise the batch runs in serial operation order, each
// operation's range still split across threads.
#pragma once

#include <algorithm>
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
    if (!this->levelOrderEnabled() || !scaleWritesUniqueByPartition(ops, count)) {
      CpuImpl<Real>::executePartitionedOperations(ops, count, cumulativeScaleIndex);
      return;
    }
    std::vector<int> level;
    const int maxLevel =
        levelizeOperationsByPartition(ops, count, this->slotCount(), level);
    for (int lv = 0; lv <= maxLevel; ++lv) {
      std::vector<std::future<void>> futures;
      for (int i = 0; i < count; ++i) {
        if (level[i] != lv) continue;
        this->ensurePartials(ops[i].destinationPartials);
        if (static_cast<int>(futures.size()) + 1 >= maxConcurrent_) {
          // Run the final member of the level inline.
          obs::ScopedSpan span(this->recorder_, obs::Category::kOperation,
                               this->kernelLabel());
          this->executeWholeOperation(ops[i]);
          continue;
        }
        futures.push_back(std::async(std::launch::async, [this, &ops, i] {
          obs::ScopedSpan span(this->recorder_, obs::Category::kWorker,
                               this->kernelLabel(), i + 1);
          this->executeWholeOperation(ops[i]);
        }));
      }
      for (auto& f : futures) f.get();
      for (int i = 0; i < count; ++i) {
        if (level[i] == lv) this->rescaleOperation(ops[i]);
      }
    }
    // Deferred accumulation in batch order — the serial FP sequence.
    for (int i = 0; i < count; ++i) {
      this->accumulateOperationScale(ops[i], cumulativeScaleIndex);
    }
  }

 private:
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
  void executePartitionedOperations(const BglOperationByPartition* ops, int count,
                                    int cumulativeScaleIndex) override {
    if (!this->levelOrderEnabled() || !scaleWritesUniqueByPartition(ops, count)) {
      executeSerialOrder(ops, count, cumulativeScaleIndex);
      return;
    }
    std::vector<int> level;
    const int maxLevel =
        levelizeOperationsByPartition(ops, count, this->slotCount(), level);
    std::vector<int> members;
    const int nt = threads_;
    for (int lv = 0; lv <= maxLevel; ++lv) {
      members.clear();
      for (int i = 0; i < count; ++i) {
        if (level[i] == lv) members.push_back(i);
      }
      for (int i : members) this->ensurePartials(ops[i].destinationPartials);
      obs::ScopedSpan opSpan(this->recorder_, obs::Category::kOperation,
                             this->kernelLabel());
      if (!threaded()) {
        for (int i : members) this->executeWholeOperation(ops[i]);
      } else {
        // One thread team per LEVEL rather than per operation: the grid is
        // (operation, block-within-range) cells, handed out round-robin, so
        // a level of small operations still costs one create/join cycle.
        const int cells = static_cast<int>(members.size()) * nt;
        const int teamSize = std::min(nt, cells);
        auto runCells = [this, &ops, &members, nt, cells](int first, int stride) {
          for (int cell = first; cell < cells; cell += stride) {
            const auto& op = ops[members[static_cast<std::size_t>(cell / nt)]];
            const auto [kBegin, kEnd] = this->opBlock(op, cell % nt, nt);
            if (kBegin < kEnd) this->executeOperation(op, kBegin, kEnd);
          }
        };
        std::vector<std::thread> workers;
        workers.reserve(teamSize - 1);
        for (int w = 1; w < teamSize; ++w) {
          workers.emplace_back([this, runCells, w, teamSize] {
            obs::ScopedSpan span(this->recorder_, obs::Category::kWorker,
                                 this->kernelLabel(), w);
            runCells(w, teamSize);
          });
        }
        runCells(0, teamSize);
        for (auto& w : workers) w.join();
      }
      for (int i : members) this->rescaleOperation(ops[i]);
    }
    for (int i = 0; i < count; ++i) {
      this->accumulateOperationScale(ops[i], cumulativeScaleIndex);
    }
  }

 private:
  bool threaded() const {
    return this->config_.patternCount >= kMinPatternsForThreading && threads_ > 1;
  }

  /// Serial operation order; each operation's range is split into equal
  /// blocks with one freshly created thread per block.
  void executeSerialOrder(const BglOperationByPartition* ops, int count,
                          int cumulativeScaleIndex) {
    const int nt = threaded() ? threads_ : 1;
    for (int i = 0; i < count; ++i) {
      const auto& op = ops[i];
      this->ensurePartials(op.destinationPartials);
      obs::ScopedSpan opSpan(this->recorder_, obs::Category::kOperation,
                             this->kernelLabel());
      std::vector<std::thread> workers;
      workers.reserve(nt - 1);
      for (int t = 1; t < nt; ++t) {
        const auto [kBegin, kEnd] = this->opBlock(op, t, nt);
        if (kBegin >= kEnd) break;
        workers.emplace_back([this, &op, t, kBegin = kBegin, kEnd = kEnd] {
          obs::ScopedSpan span(this->recorder_, obs::Category::kWorker,
                               this->kernelLabel(), t);
          this->executeOperation(op, kBegin, kEnd);
        });
      }
      const auto [kBegin, kEnd] = this->opBlock(op, 0, nt);
      this->executeOperation(op, kBegin, kEnd);
      for (auto& w : workers) w.join();
      this->rescaleOperation(op);
      this->accumulateOperationScale(op, cumulativeScaleIndex);
    }
  }

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
  void executePartitionedOperations(const BglOperationByPartition* ops, int count,
                                    int cumulativeScaleIndex) override {
    if (!this->levelOrderEnabled() || !scaleWritesUniqueByPartition(ops, count)) {
      executeSerialOrder(ops, count, cumulativeScaleIndex);
      return;
    }
    std::vector<int> level;
    const int maxLevel =
        levelizeOperationsByPartition(ops, count, this->slotCount(), level);
    std::vector<int> members;
    const int nt = threads_;
    for (int lv = 0; lv <= maxLevel; ++lv) {
      members.clear();
      for (int i = 0; i < count; ++i) {
        if (level[i] == lv) members.push_back(i);
      }
      for (int i : members) this->ensurePartials(ops[i].destinationPartials);
      obs::ScopedSpan opSpan(this->recorder_, obs::Category::kOperation,
                             this->kernelLabel());
      if (!threaded()) {
        for (int i : members) this->executeWholeOperation(ops[i]);
      } else {
        // One pool dispatch per LEVEL over (operation, block-within-range)
        // cells — the work-stealing loop balances unequal operations.
        pool_->parallelFor(
            static_cast<int>(members.size()) * nt,
            [this, &ops, &members, nt](int cell) {
              const auto& op = ops[members[static_cast<std::size_t>(cell / nt)]];
              const int t = cell % nt;
              const auto [kBegin, kEnd] = this->opBlock(op, t, nt);
              if (kBegin < kEnd) {
                obs::ScopedSpan span(this->recorder_, obs::Category::kWorker,
                                     this->kernelLabel(), t);
                this->executeOperation(op, kBegin, kEnd);
              }
            },
            static_cast<unsigned>(nt));
      }
      for (int i : members) this->rescaleOperation(ops[i]);
    }
    for (int i = 0; i < count; ++i) {
      this->accumulateOperationScale(ops[i], cumulativeScaleIndex);
    }
  }

  /// The pool approach also threads the root-likelihood integration
  /// across independent site patterns (Section VI-C).
  void computeRootSitesRange(const Real* partials, const Real* freqs,
                             const Real* weights, const Real* cumScale, int begin,
                             int end) override {
    if (end - begin < kMinPatternsForThreading || threads_ <= 1) {
      CpuImpl<Real>::computeRootSitesRange(partials, freqs, weights, cumScale, begin,
                                           end);
      return;
    }
    const int nt = threads_;
    pool_->parallelFor(
        nt,
        [this, partials, freqs, weights, cumScale, begin, end, nt](int t) {
          const auto [kBegin, kEnd] = patternBlock(begin, end, nt, t);
          if (kBegin < kEnd) {
            obs::ScopedSpan span(this->recorder_, obs::Category::kWorker,
                                 "rootSites", t);
            CpuImpl<Real>::computeRootSitesRange(partials, freqs, weights, cumScale,
                                                 kBegin, kEnd);
          }
        },
        static_cast<unsigned>(nt));
  }

 private:
  bool threaded() const {
    return this->config_.patternCount >= kMinPatternsForThreading && threads_ > 1;
  }

  /// Serial operation order; each operation's range is split across the
  /// pool.
  void executeSerialOrder(const BglOperationByPartition* ops, int count,
                          int cumulativeScaleIndex) {
    const int nt = threads_;
    for (int i = 0; i < count; ++i) {
      const auto& op = ops[i];
      this->ensurePartials(op.destinationPartials);
      obs::ScopedSpan opSpan(this->recorder_, obs::Category::kOperation,
                             this->kernelLabel());
      if (!threaded()) {
        this->executeWholeOperation(op);
      } else {
        pool_->parallelFor(
            nt,
            [this, &op, nt](int t) {
              const auto [kBegin, kEnd] = this->opBlock(op, t, nt);
              if (kBegin < kEnd) {
                obs::ScopedSpan span(this->recorder_, obs::Category::kWorker,
                                     this->kernelLabel(), t);
                this->executeOperation(op, kBegin, kEnd);
              }
            },
            static_cast<unsigned>(nt));
      }
      this->rescaleOperation(op);
      this->accumulateOperationScale(op, cumulativeScaleIndex);
    }
  }

  static unsigned defaultThreads() {
    const unsigned hw = std::thread::hardware_concurrency();
    return hw > 1 ? hw - 1 : 1;  // the calling thread participates
  }

  int threads_ = static_cast<int>(std::thread::hardware_concurrency());
  std::unique_ptr<ThreadPool> pool_;
};

}  // namespace bgl::cpu
