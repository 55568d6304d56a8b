#include "hal/workgroup_executor.h"

#include <vector>

namespace bgl::hal {

namespace {

/// The calling thread's local-memory arena, grown to at least `bytes`. It
/// only grows (to the thread's high-water mark), so a chunk allocates
/// nothing once the thread has run a group that large. Kernels write local
/// memory before reading it, so the arena is not cleared between groups.
std::byte* localArena(std::size_t bytes) {
  thread_local std::vector<std::byte> arena;
  if (arena.size() < bytes) arena.resize(bytes);
  return arena.data();
}

}  // namespace

void executeGrid(KernelFn fn, const LaunchDims& dims, const KernelArgs& args,
                 unsigned maxWorkers) {
  if (dims.numGroups <= 0) return;

  // Chunk groups so each task amortizes queue overhead; one arena per thread.
  auto& pool = globalThreadPool();
  unsigned workers = maxWorkers == 0 ? pool.size() + 1 : maxWorkers;
  const int chunks = static_cast<int>(
      std::min<std::size_t>(static_cast<std::size_t>(workers) * 4,
                            static_cast<std::size_t>(dims.numGroups)));
  const int groupsPerChunk = (dims.numGroups + chunks - 1) / chunks;

  pool.parallelFor(
      chunks,
      [&](int chunk) {
        WorkGroupCtx ctx;
        ctx.groupSize = dims.groupSize;
        ctx.numGroups = dims.numGroups;
        ctx.localMem = dims.localMemBytes ? localArena(dims.localMemBytes) : nullptr;
        ctx.localMemBytes = dims.localMemBytes;
        const int begin = chunk * groupsPerChunk;
        const int end = std::min(dims.numGroups, begin + groupsPerChunk);
        for (int g = begin; g < end; ++g) {
          ctx.groupId = g;
          fn(ctx, args);
        }
      },
      maxWorkers == 0 ? 0 : maxWorkers);
}

void executeGridBatch(const GridBatchItem* items, std::size_t count,
                      unsigned maxWorkers) {
  if (count == 0) return;
  if (count == 1) {
    executeGrid(items[0].fn, items[0].dims, *items[0].args, maxWorkers);
    return;
  }

  // Concatenate the items' group ranges into one global group space.
  std::vector<int> offsets(count + 1, 0);
  std::size_t maxLocalMem = 0;
  for (std::size_t i = 0; i < count; ++i) {
    offsets[i + 1] = offsets[i] + std::max(0, items[i].dims.numGroups);
    maxLocalMem = std::max(maxLocalMem, items[i].dims.localMemBytes);
  }
  const int totalGroups = offsets[count];
  if (totalGroups <= 0) return;

  auto& pool = globalThreadPool();
  unsigned workers = maxWorkers == 0 ? pool.size() + 1 : maxWorkers;
  const int chunks = static_cast<int>(
      std::min<std::size_t>(static_cast<std::size_t>(workers) * 4,
                            static_cast<std::size_t>(totalGroups)));
  const int groupsPerChunk = (totalGroups + chunks - 1) / chunks;

  pool.parallelFor(
      chunks,
      [&](int chunk) {
        std::byte* localMem = maxLocalMem ? localArena(maxLocalMem) : nullptr;
        const int begin = chunk * groupsPerChunk;
        const int end = std::min(totalGroups, begin + groupsPerChunk);
        std::size_t item = 0;
        for (int g = begin; g < end; ++g) {
          while (g >= offsets[item + 1]) ++item;
          const GridBatchItem& it = items[item];
          WorkGroupCtx ctx;
          ctx.groupId = g - offsets[item];
          ctx.groupSize = it.dims.groupSize;
          ctx.numGroups = it.dims.numGroups;
          ctx.localMem = it.dims.localMemBytes ? localMem : nullptr;
          ctx.localMemBytes = it.dims.localMemBytes;
          it.fn(ctx, *it.args);
        }
      },
      maxWorkers == 0 ? 0 : maxWorkers);
}

}  // namespace bgl::hal
