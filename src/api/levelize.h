// Dependency levelization for batches of partials operations.
//
// A partials batch is a post-order slice of the tree: operation i depends
// on an earlier operation j when j's destination feeds i (as a child) or i
// re-uses the same destination buffer. Grouping operations by dependency
// depth turns a batch of N per-node dispatches into one fused dispatch per
// level — O(tree depth) launches for a whole-tree update — while operations
// inside a level remain topology-independent and can run concurrently.
//
// Execution uses the partitioned analysis only: a partition-blind batch is
// a partitioned one with every operation on the whole-axis slot of the
// range table (api/implementation.h), which levels exactly as the
// unpartitioned analysis would. The accelerator path (accel/accel_impl.h)
// and the threaded CPU implementations (cpu/threaded_impl.h) share it.
// levelizeOperations, the unpartitioned analysis, remains for callers that
// levelize a plain BglOperation batch themselves (benchmarks, tests).
#pragma once

#include <algorithm>
#include <vector>

#include "api/bgl.h"

namespace bgl {

/// Assign each operation its dependency level (0 = no dependencies inside
/// the batch). `level` is resized to `count`. Returns the maximum level.
///
/// O(count) single pass over the batch: a dense table tracks, per partials
/// buffer, the level of the *latest* operation so far that writes it. That
/// is sufficient because repeated writers of one destination are forced
/// strictly upward (a later writer levels at least one above any earlier
/// writer of the same buffer), so the latest writer always carries the
/// maximum level among them — consulting it alone reproduces the max the
/// old quadratic scan took over every earlier writer. The serving layer
/// re-levelizes a batch per online update, so this pass being cheap
/// matters beyond amortized whole-tree updates.
inline int levelizeOperations(const BglOperation* ops, int count,
                              std::vector<int>& level) {
  level.assign(static_cast<std::size_t>(count > 0 ? count : 0), 0);
  if (count <= 0) return 0;

  int maxBuffer = -1;
  for (int i = 0; i < count; ++i) {
    maxBuffer = std::max({maxBuffer, ops[i].destinationPartials,
                          ops[i].child1Partials, ops[i].child2Partials});
  }

  // writerLevel[b]: level of the latest in-batch write to buffer b, or -1
  // when the batch has not written b (tip buffers, external inputs).
  std::vector<int> writerLevel(static_cast<std::size_t>(maxBuffer + 1), -1);
  int maxLevel = 0;
  for (int i = 0; i < count; ++i) {
    int lv = 0;
    const auto feeds = [&](int buffer) {
      if (buffer >= 0 && writerLevel[static_cast<std::size_t>(buffer)] >= 0) {
        lv = std::max(lv, writerLevel[static_cast<std::size_t>(buffer)] + 1);
      }
    };
    feeds(ops[i].child1Partials);
    feeds(ops[i].child2Partials);
    feeds(ops[i].destinationPartials);
    level[i] = lv;
    if (ops[i].destinationPartials >= 0) {
      writerLevel[static_cast<std::size_t>(ops[i].destinationPartials)] = lv;
    }
    maxLevel = std::max(maxLevel, lv);
  }
  return maxLevel;
}

/// Partitioned variant: dependencies are keyed on (buffer, partition).
/// Partitions occupy disjoint pattern ranges of shared buffers, so the
/// same node's update in different partitions is independent — Q
/// partitions' whole-tree batches collapse to the *tree's* depth in
/// levels, not depth × Q, which is what keeps the fused launch count
/// O(tree depth) in multi-partition mode. Every op.partition must be below
/// `partitionCount` (implementations pass the range table's slot count).
inline int levelizeOperationsByPartition(const BglOperationByPartition* ops,
                                         int count, int partitionCount,
                                         std::vector<int>& level) {
  level.assign(static_cast<std::size_t>(count > 0 ? count : 0), 0);
  if (count <= 0) return 0;
  if (partitionCount < 1) partitionCount = 1;

  int maxBuffer = -1;
  for (int i = 0; i < count; ++i) {
    maxBuffer = std::max({maxBuffer, ops[i].destinationPartials,
                          ops[i].child1Partials, ops[i].child2Partials});
  }

  // writerLevel[b * partitionCount + q]: level of the latest in-batch
  // write to buffer b in partition q, or -1 when unwritten.
  std::vector<int> writerLevel(
      static_cast<std::size_t>(maxBuffer + 1) *
          static_cast<std::size_t>(partitionCount),
      -1);
  int maxLevel = 0;
  for (int i = 0; i < count; ++i) {
    const int q = ops[i].partition;
    int lv = 0;
    const auto feeds = [&](int buffer) {
      if (buffer < 0) return;
      const std::size_t key = static_cast<std::size_t>(buffer) *
                                  static_cast<std::size_t>(partitionCount) +
                              static_cast<std::size_t>(q);
      if (writerLevel[key] >= 0) lv = std::max(lv, writerLevel[key] + 1);
    };
    feeds(ops[i].child1Partials);
    feeds(ops[i].child2Partials);
    feeds(ops[i].destinationPartials);
    level[i] = lv;
    if (ops[i].destinationPartials >= 0) {
      writerLevel[static_cast<std::size_t>(ops[i].destinationPartials) *
                      static_cast<std::size_t>(partitionCount) +
                  static_cast<std::size_t>(q)] = lv;
    }
    maxLevel = std::max(maxLevel, lv);
  }
  return maxLevel;
}

/// True when no (scale buffer, partition) pair is written by more than one
/// operation in the batch. Level-order execution defers the cumulative
/// scale accumulation to the end of the batch (in original operation order,
/// preserving the exact FP sequence of the per-op path); a repeated scale
/// target would have lost its earlier value by then, so such batches take
/// the serial-order fallback instead. Partitions cover disjoint pattern
/// ranges, so one scale buffer may be written once per partition.
inline bool scaleWritesUniqueByPartition(const BglOperationByPartition* ops,
                                         int count) {
  std::vector<std::pair<int, int>> writes;
  for (int i = 0; i < count; ++i) {
    if (ops[i].destinationScaleWrite != BGL_OP_NONE) {
      writes.emplace_back(ops[i].destinationScaleWrite, ops[i].partition);
    }
  }
  std::sort(writes.begin(), writes.end());
  return std::adjacent_find(writes.begin(), writes.end()) == writes.end();
}

}  // namespace bgl
