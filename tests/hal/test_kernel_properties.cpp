// Property tests on the shared kernels, executed directly (no API layer):
// every (precision, variant, state-count, child-kind) combination must
// match an independently computed reference on random inputs, and the two
// framework runtimes must produce byte-identical outputs.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <type_traits>
#include <vector>

#include "clsim/cl_runtime.h"
#include "core/rng.h"
#include "cudasim/cuda_device.h"
#include "kernels/kernels.h"
#include "perfmodel/device_profiles.h"

namespace bgl {
namespace {

using hal::KernelArgs;
using hal::KernelId;
using hal::KernelSpec;
using hal::KernelVariant;
using hal::WorkGroupCtx;

struct Problem {
  int patterns;
  int categories;
  int states;
  std::vector<double> p1, p2, m1, m2;
  std::vector<std::int32_t> s1, s2;

  Problem(int patterns, int categories, int states, unsigned seed)
      : patterns(patterns), categories(categories), states(states) {
    Rng rng(seed);
    const std::size_t psz =
        static_cast<std::size_t>(categories) * patterns * states;
    const std::size_t msz =
        static_cast<std::size_t>(categories) * states * states;
    p1.resize(psz);
    p2.resize(psz);
    m1.resize(msz);
    m2.resize(msz);
    for (auto& v : p1) v = rng.uniform(0.0, 1.0);
    for (auto& v : p2) v = rng.uniform(0.0, 1.0);
    for (auto& v : m1) v = rng.uniform(0.0, 0.5);
    for (auto& v : m2) v = rng.uniform(0.0, 0.5);
    s1.resize(patterns);
    s2.resize(patterns);
    for (auto& v : s1) v = rng.belowInt(states + 1);  // includes ambiguity
    for (auto& v : s2) v = rng.belowInt(states + 1);
  }
};

/// Independent reference for dest[c,k,i] with either child kind.
std::vector<double> referencePartials(const Problem& f, bool child1States,
                                      bool child2States) {
  std::vector<double> dest(f.p1.size(), 0.0);
  for (int c = 0; c < f.categories; ++c) {
    for (int k = 0; k < f.patterns; ++k) {
      for (int i = 0; i < f.states; ++i) {
        const std::size_t row =
            (static_cast<std::size_t>(c) * f.patterns + k) * f.states;
        const std::size_t mrow =
            (static_cast<std::size_t>(c) * f.states + i) * f.states;
        double sum1, sum2;
        if (child1States) {
          sum1 = f.s1[k] < f.states ? f.m1[mrow + f.s1[k]] : 1.0;
        } else {
          sum1 = 0.0;
          for (int j = 0; j < f.states; ++j) sum1 += f.m1[mrow + j] * f.p1[row + j];
        }
        if (child2States) {
          sum2 = f.s2[k] < f.states ? f.m2[mrow + f.s2[k]] : 1.0;
        } else {
          sum2 = 0.0;
          for (int j = 0; j < f.states; ++j) sum2 += f.m2[mrow + j] * f.p2[row + j];
        }
        dest[row + i] = sum1 * sum2;
      }
    }
  }
  return dest;
}

std::vector<double> runKernel(const Problem& f, KernelVariant variant, bool useFma,
                              KernelId id) {
  KernelSpec spec;
  spec.id = id;
  spec.states = f.states;
  spec.variant = variant;
  spec.useFma = useFma;
  const hal::KernelFn fn = kernels::lookupKernel(spec);

  const bool child1States =
      id == KernelId::StatesPartials || id == KernelId::StatesStates;
  const bool child2States = id == KernelId::StatesStates;

  std::vector<double> dest(f.p1.size(), -1.0);
  const int ppg = variant == KernelVariant::X86Style ? 64 : std::max(1, 256 / f.states);
  const int blocks = (f.patterns + ppg - 1) / ppg;

  // One operation over all patterns: a one-entry op table and range table.
  const void* table[5] = {
      dest.data(),
      child1States ? static_cast<const void*>(f.s1.data()) : f.p1.data(),
      f.m1.data(),
      child2States ? static_cast<const void*>(f.s2.data()) : f.p2.data(),
      f.m2.data()};
  std::int32_t ranges[4] = {0, f.patterns, 0, blocks};
  KernelArgs args;
  args.buffers[5] = table;
  args.buffers[6] = ranges;
  args.ints[0] = f.patterns;
  args.ints[1] = f.categories;
  args.ints[2] = f.states;
  args.ints[3] = ppg;
  args.ints[4] = 1;

  const std::size_t localBytes =
      kernels::gpuStyleLocalMemBytes(f.states, false) +
      2ull * ppg * f.states * sizeof(double);
  std::vector<std::byte> localMem(localBytes);
  WorkGroupCtx ctx;
  ctx.localMem = localMem.data();
  ctx.localMemBytes = localBytes;
  ctx.numGroups = blocks * f.categories;
  ctx.groupSize = ppg;
  for (int g = 0; g < ctx.numGroups; ++g) {
    ctx.groupId = g;
    fn(ctx, args);
  }
  return dest;
}

class KernelProperty
    : public ::testing::TestWithParam<std::tuple<int, int, int, int>> {};

TEST_P(KernelProperty, MatchesReferenceForAllChildKinds) {
  const auto [states, variantIdx, fmaIdx, patterns] = GetParam();
  const auto variant =
      variantIdx == 0 ? KernelVariant::GpuStyle : KernelVariant::X86Style;
  const bool useFma = fmaIdx == 1;

  Problem f(patterns, 3, states, 1000u + states + patterns);
  struct Case {
    KernelId id;
    bool c1s, c2s;
  };
  for (const Case c : {Case{KernelId::PartialsPartials, false, false},
                       Case{KernelId::StatesPartials, true, false},
                       Case{KernelId::StatesStates, true, true}}) {
    const auto expected = referencePartials(f, c.c1s, c.c2s);
    const auto actual = runKernel(f, variant, useFma, c.id);
    for (std::size_t i = 0; i < expected.size(); ++i) {
      ASSERT_NEAR(actual[i], expected[i], 1e-12)
          << "kernel " << static_cast<int>(c.id) << " entry " << i;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, KernelProperty,
    ::testing::Combine(::testing::Values(4, 7, 20, 61),  // incl. odd count
                       ::testing::Values(0, 1),          // variant
                       ::testing::Values(0, 1),          // fma
                       ::testing::Values(33, 257)));     // non-divisible sizes

TEST(KernelProperty, VariantsAgreeBitForBit) {
  // GPU-style and x86-style execute different code paths but identical
  // arithmetic: outputs must agree exactly in the FMA-off configuration
  // (FMA-on may round differently between staging orders — still equal
  // here since the arithmetic per entry is identical, but don't rely on it).
  Problem f(101, 4, 4, 5);
  const auto gpu = runKernel(f, KernelVariant::GpuStyle, false,
                             KernelId::PartialsPartials);
  const auto x86 = runKernel(f, KernelVariant::X86Style, false,
                             KernelId::PartialsPartials);
  EXPECT_EQ(gpu, x86);
}

TEST(KernelProperty, FrameworksExecuteIdenticalKernels) {
  // Launch the same spec through the CUDA and OpenCL runtimes on the host
  // device; results must be byte-identical (single shared kernel set).
  Problem f(64, 2, 4, 9);
  auto run = [&](hal::Device& dev) {
    KernelSpec spec;
    spec.id = KernelId::PartialsPartials;
    spec.states = 4;
    spec.variant = KernelVariant::X86Style;
    auto* kernel = dev.getKernel(spec);

    const std::size_t psz = f.p1.size() * sizeof(double);
    const std::size_t msz = f.m1.size() * sizeof(double);
    auto dest = dev.alloc(psz);
    auto p1 = dev.alloc(psz), p2 = dev.alloc(psz);
    auto m1 = dev.alloc(msz), m2 = dev.alloc(msz);
    dev.copyToDevice(*p1, 0, f.p1.data(), psz);
    dev.copyToDevice(*p2, 0, f.p2.data(), psz);
    dev.copyToDevice(*m1, 0, f.m1.data(), msz);
    dev.copyToDevice(*m2, 0, f.m2.data(), msz);

    const void* table[5] = {dest->data(), p1->data(), m1->data(), p2->data(),
                            m2->data()};
    std::int32_t ranges[4] = {0, f.patterns, 0, 1};
    KernelArgs args;
    args.buffers[5] = table;
    args.buffers[6] = ranges;
    args.ints[0] = f.patterns;
    args.ints[1] = f.categories;
    args.ints[2] = 4;
    args.ints[3] = 64;
    args.ints[4] = 1;
    dev.launch(*kernel, {f.categories, 64, 0}, args, {});
    std::vector<double> out(f.p1.size());
    dev.copyToHost(out.data(), *dest, 0, psz);
    return out;
  };

  auto cuda = cudasim::createDevice(perf::kHostCpu);
  auto opencl = clsim::createDeviceByProfile(perf::kHostCpu);
  EXPECT_EQ(run(*cuda), run(*opencl));
}

// ---------------------------------------------------------------------------
// Bitwise contract. Every FMA-off partials kernel (both variants), the
// x86-style generic-state partials kernels (FMA on and off) and both
// transition-matrix kernels must equal, bit for bit, a scalar reference that
// rounds each product before adding it, in the historical order: j
// ascending for partials, k ascending for matrices. Kernel layouts may
// change; these per-output operation sequences may not.
// ---------------------------------------------------------------------------

/// round(a * b), then round(+ c); the volatile keeps the compiler from
/// contracting the pair into a fused multiply-add.
template <typename Real>
Real unfusedMadd(Real a, Real b, Real c) {
  volatile Real product = a * b;
  return product + c;
}

template <typename Real>
std::vector<Real> toReal(const std::vector<double>& v) {
  return std::vector<Real>(v.begin(), v.end());
}

/// One partials operation of a launch: two children and their matrices,
/// computing patterns [kBegin, kEnd) into dest.
template <typename Real>
struct PartialsOp {
  const void* child1;
  const Real* m1;
  const void* child2;
  const Real* m2;
  int kBegin, kEnd;
  int destIndex;
};

template <typename Real>
void referenceOp(const PartialsOp<Real>& op, bool c1s, bool c2s, int patterns,
                 int categories, int states, std::vector<Real>& dest) {
  for (int c = 0; c < categories; ++c) {
    const Real* m1 = op.m1 + static_cast<std::size_t>(c) * states * states;
    const Real* m2 = op.m2 + static_cast<std::size_t>(c) * states * states;
    for (int k = op.kBegin; k < op.kEnd; ++k) {
      const std::size_t row = (static_cast<std::size_t>(c) * patterns + k) * states;
      for (int i = 0; i < states; ++i) {
        const Real* mrow1 = m1 + static_cast<std::size_t>(i) * states;
        const Real* mrow2 = m2 + static_cast<std::size_t>(i) * states;
        Real sum1 = Real(0), sum2 = Real(0);
        if (c1s) {
          const int s = static_cast<const std::int32_t*>(op.child1)[k];
          sum1 = s < states ? mrow1[s] : Real(1);
        } else {
          const Real* p = static_cast<const Real*>(op.child1) + row;
          for (int j = 0; j < states; ++j) sum1 = unfusedMadd(mrow1[j], p[j], sum1);
        }
        if (c2s) {
          const int s = static_cast<const std::int32_t*>(op.child2)[k];
          sum2 = s < states ? mrow2[s] : Real(1);
        } else {
          const Real* p = static_cast<const Real*>(op.child2) + row;
          for (int j = 0; j < states; ++j) sum2 = unfusedMadd(mrow2[j], p[j], sum2);
        }
        dest[row + i] = sum1 * sum2;
      }
    }
  }
}

enum class LaunchMode { Plain, FusedLevel, Ranged };

/// Launches one partials kernel in `mode` and returns its destination
/// buffers next to the reference's. Plain: one op over all patterns.
/// FusedLevel: two ops into two destinations in one launch (ints[4] = 2).
/// Ranged: two ops on disjoint, block-misaligned pattern ranges of one
/// destination, each with its own matrices. Every mode is a range table.
template <typename Real>
void runPartialsBitwise(const Problem& f, KernelVariant variant, bool useFma,
                        KernelId id, LaunchMode mode) {
  const bool c1s = id == KernelId::StatesPartials || id == KernelId::StatesStates;
  const bool c2s = id == KernelId::StatesStates;
  const auto p1 = toReal<Real>(f.p1), p2 = toReal<Real>(f.p2);
  const auto m1 = toReal<Real>(f.m1), m2 = toReal<Real>(f.m2);
  const void* a1 = c1s ? static_cast<const void*>(f.s1.data()) : p1.data();
  const void* a2 = c2s ? static_cast<const void*>(f.s2.data()) : p2.data();
  const void* b1 = c1s ? static_cast<const void*>(f.s2.data()) : p2.data();
  const void* b2 = c2s ? static_cast<const void*>(f.s1.data()) : p1.data();
  const int split = f.patterns / 3;

  std::vector<PartialsOp<Real>> ops;
  switch (mode) {
    case LaunchMode::Plain:
      ops = {{a1, m1.data(), a2, m2.data(), 0, f.patterns, 0}};
      break;
    case LaunchMode::FusedLevel:
      ops = {{a1, m1.data(), a2, m2.data(), 0, f.patterns, 0},
             {b1, m2.data(), b2, m1.data(), 0, f.patterns, 1}};
      break;
    case LaunchMode::Ranged:
      ops = {{a1, m1.data(), a2, m2.data(), 0, split, 0},
             {b1, m2.data(), b2, m1.data(), split, f.patterns, 0}};
      break;
  }
  const int destCount = mode == LaunchMode::FusedLevel ? 2 : 1;
  std::vector<std::vector<Real>> actual(destCount, std::vector<Real>(f.p1.size(), Real(-1)));
  std::vector<std::vector<Real>> expected = actual;
  for (const auto& op : ops) {
    referenceOp(op, c1s, c2s, f.patterns, f.categories, f.states, expected[op.destIndex]);
  }

  KernelSpec spec;
  spec.id = id;
  spec.states = f.states;
  spec.singlePrecision = std::is_same_v<Real, float>;
  spec.variant = variant;
  spec.useFma = useFma;
  const hal::KernelFn fn = kernels::lookupKernel(spec);
  const int ppg = variant == KernelVariant::X86Style ? 64 : std::max(1, 256 / f.states);

  KernelArgs args;
  args.ints[0] = f.patterns;
  args.ints[1] = f.categories;
  args.ints[2] = f.states;
  args.ints[3] = ppg;
  std::vector<const void*> table;
  std::vector<std::int32_t> ranges;
  int numGroups = 0;
  for (const auto& op : ops) {
    table.insert(table.end(), {actual[op.destIndex].data(), op.child1, op.m1,
                               op.child2, op.m2});
    const int opBlocks = (op.kEnd - op.kBegin + ppg - 1) / ppg;
    ranges.insert(ranges.end(), {op.kBegin, op.kEnd, numGroups, opBlocks});
    numGroups += opBlocks * f.categories;
  }
  args.ints[4] = static_cast<std::int64_t>(ops.size());
  args.buffers[5] = table.data();
  args.buffers[6] = ranges.data();

  const std::size_t localBytes = kernels::gpuStyleLocalMemBytes(f.states, spec.singlePrecision) +
                                 2ull * ppg * f.states * sizeof(Real);
  std::vector<std::byte> localMem(localBytes);
  WorkGroupCtx ctx;
  ctx.localMem = localMem.data();
  ctx.localMemBytes = localBytes;
  ctx.numGroups = numGroups;
  ctx.groupSize = ppg;
  for (int g = 0; g < numGroups; ++g) {
    ctx.groupId = g;
    fn(ctx, args);
  }

  for (int d = 0; d < destCount; ++d) {
    for (std::size_t i = 0; i < expected[d].size(); ++i) {
      ASSERT_EQ(actual[d][i], expected[d][i])
          << "kernel " << static_cast<int>(id) << " variant " << static_cast<int>(variant)
          << " fma " << useFma << " mode " << static_cast<int>(mode) << " dest " << d
          << " entry " << i;
    }
  }
}

class KernelPropertyBitwise
    : public ::testing::TestWithParam<std::tuple<int, bool, int>> {};

INSTANTIATE_TEST_SUITE_P(
    Sweep, KernelPropertyBitwise,
    ::testing::Combine(::testing::Values(4, 7, 20, 61, 64),
                       ::testing::Bool(),             // single precision
                       ::testing::Values(33, 257)));  // non-divisible sizes

TEST_P(KernelPropertyBitwise, PartialsMatchUnfusedReference) {
  const auto [states, single, patterns] = GetParam();
  const Problem f(patterns, 3, states, 2000u + states + patterns);
  struct Config {
    KernelVariant variant;
    bool useFma;
  };
  std::vector<Config> configs = {{KernelVariant::GpuStyle, false},
                                 {KernelVariant::X86Style, false}};
  // The 4-state x86 specialization contracts under FMA; it keeps the
  // tolerance check of MatchesReferenceForAllChildKinds.
  if (states != 4) configs.push_back({KernelVariant::X86Style, true});
  for (const auto mode : {LaunchMode::Plain, LaunchMode::FusedLevel, LaunchMode::Ranged}) {
    for (const auto id : {KernelId::PartialsPartials, KernelId::StatesPartials,
                          KernelId::StatesStates}) {
      for (const auto& cfg : configs) {
        if (single) {
          runPartialsBitwise<float>(f, cfg.variant, cfg.useFma, id, mode);
        } else {
          runPartialsBitwise<double>(f, cfg.variant, cfg.useFma, id, mode);
        }
        if (HasFatalFailure()) return;
      }
    }
  }
}

/// Transition matrices (and optionally derivatives) for `count` edges in
/// one batched launch, against the unfused k-ascending reference.
template <typename Real>
void runMatricesBitwise(int states, bool derivs, bool useFma, int count) {
  const int categories = 3;
  const auto s = static_cast<std::size_t>(states);
  Rng rng(3000u + states + count);
  std::vector<double> evec(s * s), ivec(s * s);
  for (auto& v : evec) v = rng.uniform(-1.0, 1.0);
  for (auto& v : ivec) v = rng.uniform(-1.0, 1.0);
  std::vector<Real> eval(s), rates(categories), lengths(count);
  for (std::size_t k = 0; k < s; ++k) eval[k] = static_cast<Real>(k == 0 ? 0.0 : rng.uniform(-3.0, 0.0));
  for (auto& v : rates) v = static_cast<Real>(rng.uniform(0.1, 2.5));
  for (auto& v : lengths) v = static_cast<Real>(rng.uniform(0.001, 1.0));
  std::vector<Real> cijk;
  kernels::packCijk(evec.data(), ivec.data(), states, cijk);

  // Matrix pool with P, P' and P'' sections, P written in reverse edge order.
  const std::size_t stride = categories * s * s + 5;
  const int sections = derivs ? 3 : 1;
  std::vector<Real> pool(stride * sections * count, Real(-7));
  std::vector<std::int32_t> indices(static_cast<std::size_t>(sections) * count);
  for (int e = 0; e < count; ++e) {
    indices[e] = count - 1 - e;
    if (derivs) {
      indices[count + e] = count + e;
      indices[2 * count + e] = 2 * count + e;
    }
  }

  std::vector<Real> expected = pool;
  for (int e = 0; e < count; ++e) {
    const double t = static_cast<double>(lengths[e]);
    for (int c = 0; c < categories; ++c) {
      std::vector<Real> expl(s), lam1(s), lam2(s);
      for (std::size_t k = 0; k < s; ++k) {
        const double lam = static_cast<double>(eval[k]) * static_cast<double>(rates[c]);
        expl[k] = static_cast<Real>(std::exp(lam * t));
        lam1[k] = static_cast<Real>(lam);
        lam2[k] = static_cast<Real>(lam * lam);
      }
      const std::size_t mat = c * s * s;
      Real* p = expected.data() + indices[e] * stride + mat;
      for (std::size_t i = 0; i < s; ++i) {
        for (std::size_t j = 0; j < s; ++j) {
          Real sum = Real(0), sum1 = Real(0), sum2 = Real(0);
          for (std::size_t k = 0; k < s; ++k) {
            const Real cv = static_cast<Real>(evec[i * s + k] * ivec[k * s + j]);
            sum = unfusedMadd(cv, expl[k], sum);
            const Real ev = cv * expl[k];
            sum1 = unfusedMadd(ev, lam1[k], sum1);
            sum2 = unfusedMadd(ev, lam2[k], sum2);
          }
          p[i * s + j] = sum > Real(0) ? sum : Real(0);
          if (derivs) {
            expected[indices[count + e] * stride + mat + i * s + j] = sum1;
            expected[indices[2 * count + e] * stride + mat + i * s + j] = sum2;
          }
        }
      }
    }
  }

  KernelSpec spec;
  spec.id = derivs ? KernelId::TransitionMatricesDerivs : KernelId::TransitionMatrices;
  spec.states = states;
  spec.singlePrecision = std::is_same_v<Real, float>;
  spec.useFma = useFma;
  const hal::KernelFn fn = kernels::lookupKernel(spec);
  // Every edge names the one model in the per-edge {Cijk, eval, rates} table.
  std::vector<const void*> models;
  for (int e = 0; e < count; ++e) {
    models.insert(models.end(), {cijk.data(), eval.data(), rates.data()});
  }
  KernelArgs args;
  args.buffers[0] = pool.data();
  args.buffers[1] = models.data();
  args.buffers[6] = lengths.data();
  args.buffers[7] = indices.data();
  args.ints[0] = categories;
  args.ints[1] = states;
  args.ints[2] = count;
  args.ints[3] = static_cast<std::int64_t>(stride);
  WorkGroupCtx ctx;
  ctx.numGroups = count * categories;
  for (int g = 0; g < ctx.numGroups; ++g) {
    ctx.groupId = g;
    fn(ctx, args);
  }
  for (std::size_t i = 0; i < pool.size(); ++i) {
    ASSERT_EQ(pool[i], expected[i]) << "derivs " << derivs << " fma " << useFma
                                    << " count " << count << " entry " << i;
  }
}

class KernelPropertyMatrixBitwise
    : public ::testing::TestWithParam<std::tuple<int, bool>> {};

TEST_P(KernelPropertyMatrixBitwise, MatchesUnfusedReference) {
  const auto [states, single] = GetParam();
  for (const bool derivs : {false, true}) {
    for (const bool useFma : {false, true}) {
      for (const int count : {1, 3}) {
        if (single) {
          runMatricesBitwise<float>(states, derivs, useFma, count);
        } else {
          runMatricesBitwise<double>(states, derivs, useFma, count);
        }
        if (HasFatalFailure()) return;
      }
    }
  }
}

/// One launch over edges of two interleaved models against one launch per
/// model: every matrix is computed from its own edge's table entry, so the
/// pools agree bit for bit.
template <typename Real>
void runMixedModelMatrices(int states, bool derivs) {
  const int categories = 3;
  const int count = 5;  // edges alternate model 0, 1, 0, 1, 0
  const auto s = static_cast<std::size_t>(states);
  Rng rng(3100u + states);
  struct Model {
    std::vector<Real> cijk, eval, rates;
  } models[2];
  for (Model& m : models) {
    std::vector<double> evec(s * s), ivec(s * s);
    for (auto& v : evec) v = rng.uniform(-1.0, 1.0);
    for (auto& v : ivec) v = rng.uniform(-1.0, 1.0);
    kernels::packCijk(evec.data(), ivec.data(), states, m.cijk);
    m.eval.resize(s);
    for (std::size_t k = 0; k < s; ++k) {
      m.eval[k] = static_cast<Real>(k == 0 ? 0.0 : rng.uniform(-3.0, 0.0));
    }
    m.rates.resize(categories);
    for (auto& v : m.rates) v = static_cast<Real>(rng.uniform(0.1, 2.5));
  }
  std::vector<Real> lengths(count);
  for (auto& v : lengths) v = static_cast<Real>(rng.uniform(0.001, 1.0));

  const std::size_t stride = categories * s * s;
  const int sections = derivs ? 3 : 1;
  KernelSpec spec;
  spec.id = derivs ? KernelId::TransitionMatricesDerivs : KernelId::TransitionMatrices;
  spec.states = states;
  spec.singlePrecision = std::is_same_v<Real, float>;
  const hal::KernelFn fn = kernels::lookupKernel(spec);

  // Launch the given edges (into the same pool slots either way).
  auto launch = [&](const std::vector<int>& edges, std::vector<Real>& pool) {
    const int n = static_cast<int>(edges.size());
    std::vector<const void*> table;
    std::vector<Real> edgeLengths;
    std::vector<std::int32_t> indices(static_cast<std::size_t>(sections) * n);
    for (int i = 0; i < n; ++i) {
      const int e = edges[static_cast<std::size_t>(i)];
      const Model& m = models[e % 2];
      table.insert(table.end(), {m.cijk.data(), m.eval.data(), m.rates.data()});
      edgeLengths.push_back(lengths[static_cast<std::size_t>(e)]);
      for (int sec = 0; sec < sections; ++sec) indices[sec * n + i] = sec * count + e;
    }
    KernelArgs args;
    args.buffers[0] = pool.data();
    args.buffers[1] = table.data();
    args.buffers[6] = edgeLengths.data();
    args.buffers[7] = indices.data();
    args.ints[0] = categories;
    args.ints[1] = states;
    args.ints[2] = n;
    args.ints[3] = static_cast<std::int64_t>(stride);
    WorkGroupCtx ctx;
    ctx.numGroups = n * categories;
    for (int g = 0; g < ctx.numGroups; ++g) {
      ctx.groupId = g;
      fn(ctx, args);
    }
  };
  std::vector<Real> mixed(stride * sections * count, Real(-7));
  std::vector<Real> perModel = mixed;
  launch({0, 1, 2, 3, 4}, mixed);
  launch({0, 2, 4}, perModel);
  launch({1, 3}, perModel);
  for (std::size_t i = 0; i < mixed.size(); ++i) {
    ASSERT_EQ(mixed[i], perModel[i]) << "derivs " << derivs << " entry " << i;
  }
}

TEST_P(KernelPropertyMatrixBitwise, MixedModelsMatchPerModelLaunches) {
  const auto [states, single] = GetParam();
  for (const bool derivs : {false, true}) {
    if (single) {
      runMixedModelMatrices<float>(states, derivs);
    } else {
      runMixedModelMatrices<double>(states, derivs);
    }
    if (HasFatalFailure()) return;
  }
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, KernelPropertyMatrixBitwise,
    ::testing::Combine(::testing::Values(4, 7, 20, 61, 64),
                       ::testing::Bool()));  // single precision

}  // namespace
}  // namespace bgl
