// Google-benchmark microbenchmarks of the innermost compute kernels,
// independent of the API layer: scalar vs SSE vs AVX partials, shared
// GPU-style vs x86-style kernel functions, and the transition-matrix
// kernel. Useful for regression-tracking the kernels themselves.
#include <benchmark/benchmark.h>

#include <cstdint>
#include <vector>

#include "core/aligned.h"
#include "cpu/cpu_kernels.h"
#include "cpu/simd_kernels.h"
#include "hal/hal.h"
#include "kernels/kernels.h"

namespace {

using namespace bgl;

struct PartialsFixture {
  int patterns;
  int categories = 4;
  int states;
  AlignedVector<double> dest, p1, p2, m1, m2;

  PartialsFixture(int patterns, int states) : patterns(patterns), states(states) {
    const std::size_t psz =
        static_cast<std::size_t>(categories) * patterns * states;
    const std::size_t msz =
        static_cast<std::size_t>(categories) * states * states;
    dest.assign(psz, 0.0);
    p1.assign(psz, 0.25);
    p2.assign(psz, 0.5);
    m1.assign(msz, 1.0 / states);
    m2.assign(msz, 1.0 / states);
  }
};

void BM_PartialsScalar4(benchmark::State& state) {
  PartialsFixture f(static_cast<int>(state.range(0)), 4);
  for (auto _ : state) {
    cpu::partialsPartialsScalar<double>(f.dest.data(), f.p1.data(), f.m1.data(),
                                        f.p2.data(), f.m2.data(), f.patterns,
                                        f.categories, 4, 0, f.patterns);
    benchmark::DoNotOptimize(f.dest.data());
  }
  state.SetItemsProcessed(state.iterations() * f.patterns * f.categories);
}
BENCHMARK(BM_PartialsScalar4)->Arg(1024)->Arg(8192);

void BM_PartialsSse4(benchmark::State& state) {
  if (!cpu::cpuSupportsSse2()) {
    state.SkipWithError("SSE2 unavailable");
    return;
  }
  PartialsFixture f(static_cast<int>(state.range(0)), 4);
  for (auto _ : state) {
    cpu::partialsPartials4Sse(f.dest.data(), f.p1.data(), f.m1.data(), f.p2.data(),
                              f.m2.data(), f.patterns, f.categories, 0, f.patterns);
    benchmark::DoNotOptimize(f.dest.data());
  }
  state.SetItemsProcessed(state.iterations() * f.patterns * f.categories);
}
BENCHMARK(BM_PartialsSse4)->Arg(1024)->Arg(8192);

void BM_PartialsAvx4(benchmark::State& state) {
  if (!cpu::cpuSupportsAvx2Fma()) {
    state.SkipWithError("AVX2+FMA unavailable");
    return;
  }
  PartialsFixture f(static_cast<int>(state.range(0)), 4);
  for (auto _ : state) {
    cpu::partialsPartials4Avx(f.dest.data(), f.p1.data(), f.m1.data(), f.p2.data(),
                              f.m2.data(), f.patterns, f.categories, 0, f.patterns);
    benchmark::DoNotOptimize(f.dest.data());
  }
  state.SetItemsProcessed(state.iterations() * f.patterns * f.categories);
}
BENCHMARK(BM_PartialsAvx4)->Arg(1024)->Arg(8192);

void BM_PartialsScalarCodon(benchmark::State& state) {
  PartialsFixture f(static_cast<int>(state.range(0)), 61);
  for (auto _ : state) {
    cpu::partialsPartialsScalar<double>(f.dest.data(), f.p1.data(), f.m1.data(),
                                        f.p2.data(), f.m2.data(), f.patterns,
                                        f.categories, 61, 0, f.patterns);
    benchmark::DoNotOptimize(f.dest.data());
  }
  state.SetItemsProcessed(state.iterations() * f.patterns * f.categories);
}
BENCHMARK(BM_PartialsScalarCodon)->Arg(256)->Arg(1024);

void runSharedKernel(benchmark::State& state, hal::KernelVariant variant,
                     int patterns, int states) {
  PartialsFixture f(patterns, states);
  hal::KernelSpec spec;
  spec.id = hal::KernelId::PartialsPartials;
  spec.states = states;
  spec.variant = variant;
  const hal::KernelFn fn = kernels::lookupKernel(spec);

  const int ppg = variant == hal::KernelVariant::X86Style ? 256 : 64;
  const int patternBlocks = (patterns + ppg - 1) / ppg;
  // One operation over the whole pattern axis: a one-entry op table and
  // range table.
  const void* table[5] = {f.dest.data(), f.p1.data(), f.m1.data(), f.p2.data(),
                          f.m2.data()};
  std::int32_t ranges[4] = {0, patterns, 0, patternBlocks};
  hal::KernelArgs args;
  args.buffers[5] = table;
  args.buffers[6] = ranges;
  args.ints[0] = patterns;
  args.ints[1] = f.categories;
  args.ints[2] = states;
  args.ints[3] = ppg;
  args.ints[4] = 1;

  // GPU-style groups stage matrices plus a 2 x ppg x states partials block.
  std::vector<std::byte> localMem(kernels::gpuStyleLocalMemBytes(states, false) +
                                  2ull * ppg * states * sizeof(double));
  hal::WorkGroupCtx ctx;
  ctx.localMem = localMem.data();
  ctx.localMemBytes = localMem.size();
  ctx.numGroups = patternBlocks * f.categories;

  for (auto _ : state) {
    for (int g = 0; g < ctx.numGroups; ++g) {
      ctx.groupId = g;
      fn(ctx, args);
    }
    benchmark::DoNotOptimize(f.dest.data());
    benchmark::ClobberMemory();
  }
  state.SetItemsProcessed(state.iterations() * patterns * f.categories);
}

void BM_SharedKernelGpuStyle(benchmark::State& state) {
  runSharedKernel(state, hal::KernelVariant::GpuStyle,
                  static_cast<int>(state.range(0)), 4);
}
BENCHMARK(BM_SharedKernelGpuStyle)->Arg(8192);

// Args: patterns, states. The 20- and 61-state points run the lane-parallel
// generic-state path; 4 states runs the scalar nucleotide specialization.
void BM_SharedKernelX86Style(benchmark::State& state) {
  runSharedKernel(state, hal::KernelVariant::X86Style,
                  static_cast<int>(state.range(0)), static_cast<int>(state.range(1)));
}
BENCHMARK(BM_SharedKernelX86Style)->Args({8192, 4})->Args({1024, 20})->Args({256, 61});

void BM_TransitionMatrixKernel(benchmark::State& state) {
  const int s = static_cast<int>(state.range(0));
  const int categories = 4;
  AlignedVector<double> dest(static_cast<std::size_t>(categories) * s * s);
  std::vector<double> evec(static_cast<std::size_t>(s) * s, 0.1);
  std::vector<double> cijk;
  kernels::packCijk(evec.data(), evec.data(), s, cijk);
  AlignedVector<double> eval(s, -1.0);
  AlignedVector<double> rates(categories, 1.0);
  double length = 0.1;
  std::int32_t matrixIndex = 0;

  hal::KernelSpec spec;
  spec.id = hal::KernelId::TransitionMatrices;
  spec.states = s;
  const hal::KernelFn fn = kernels::lookupKernel(spec);

  // A batch of one edge: one launch, `categories` groups.
  hal::KernelArgs args;
  args.buffers[0] = dest.data();
  args.buffers[1] = cijk.data();
  args.buffers[2] = eval.data();
  args.buffers[3] = rates.data();
  args.buffers[6] = &length;
  args.buffers[7] = &matrixIndex;
  args.ints[0] = categories;
  args.ints[1] = s;
  args.ints[2] = 1;
  args.ints[3] = static_cast<std::int64_t>(dest.size());

  hal::WorkGroupCtx ctx;
  ctx.numGroups = categories;
  for (auto _ : state) {
    for (int g = 0; g < categories; ++g) {
      ctx.groupId = g;
      fn(ctx, args);
    }
    benchmark::DoNotOptimize(dest.data());
    benchmark::ClobberMemory();
  }
}
BENCHMARK(BM_TransitionMatrixKernel)->Arg(4)->Arg(20)->Arg(61);

}  // namespace

BENCHMARK_MAIN();
