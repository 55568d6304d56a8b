// Shared kernel implementations (see kernels.h for the slot layout).
//
// These templates are the "single set of kernels" both framework runtimes
// execute. Work-groups map onto the problem as a 1-D grid:
//   partials kernels:  group = (pattern block, category)
//   integrate kernels: group = pattern block (categories looped inside)
//   matrix kernels:    group = (edge, category)
// A kernel function runs one whole work-group; phases that would be
// separated by barriers on a GPU appear as consecutive loops.
#pragma once

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstring>

#include "hal/hal.h"
#include "kernels/kernels.h"

namespace bgl::kernels::detail {

using hal::KernelArgs;
using hal::KernelVariant;
using hal::WorkGroupCtx;

constexpr int kMaxStates = 64;

/// Optimization barrier on a rounded product: with -ffp-contract the
/// compiler would otherwise fuse it into the following add.
template <typename T>
inline void keepRounded(T& product) {
#if defined(__x86_64__) || defined(_M_X64)
#if defined(__AVX__)
  constexpr bool kOneRegister = true;
#else
  // Without AVX there is no FMA instruction to fuse into, and a 32-byte
  // lane vector has no single register to pin.
  constexpr bool kOneRegister = sizeof(T) <= 16;
#endif
  if constexpr (kOneRegister) asm volatile("" : "+x"(product));
#else
  if constexpr (sizeof(T) > sizeof(double)) {
    asm volatile("" : "+m"(product));
  } else {
    asm volatile("" : "+r"(product));
  }
#endif
}

/// Fused or split multiply-add, matching the FP_FAST_FMA toggle the paper
/// flips for AMD devices (Section VII-B1). The non-FMA path keeps the
/// product rounded before the add, so the toggle is not a no-op on
/// FMA-capable hosts.
template <typename Real, bool UseFma>
inline Real madd(Real a, Real b, Real c) {
  if constexpr (UseFma) {
    return a * b + c;  // contraction allowed: compiles to one FMA
  } else {
    Real product = a * b;
    keepRounded(product);
    return product + c;
  }
}

// ---------------------------------------------------------------------------
// Lane-parallel dot products: the SIMD core of the transition-matrix and
// x86-style generic-state partials kernels. Each lane owns one output value
// and performs exactly the scalar sequence that value had before: products
// rounded, then added in ascending reduction order. The GCC/Clang vector
// extension is lane-wise IEEE arithmetic, so only the schedule changes —
// kLanes independent add chains instead of one.
// ---------------------------------------------------------------------------

template <typename Real>
struct LaneVec;
template <>
struct LaneVec<double> {
  typedef double type __attribute__((vector_size(kLanes * sizeof(double))));
};
template <>
struct LaneVec<float> {
  typedef float type __attribute__((vector_size(kLanes * sizeof(float))));
};

/// out[l] = sum over r < n of a[r * stride + l] * coef[r] (unfused, r
/// ascending) for the B * kLanes lanes starting at a. With Derivs, also
/// out1/out2 = sum of round(a * coef) * lam1[r] / lam2[r]: the transition
/// matrix's first and second derivative sums.
template <typename Real, int B, bool Derivs>
inline void laneDotBlock(const Real* a, std::size_t stride, const Real* coef,
                         const Real* lam1, const Real* lam2, int n, Real* out,
                         Real* out1, Real* out2) {
  static_assert(kLanes == 4, "splat below spells out four lanes");
  using V = typename LaneVec<Real>::type;
  V acc[B] = {}, acc1[B] = {}, acc2[B] = {};
  for (int r = 0; r < n; ++r) {
    const Real* ar = a + static_cast<std::size_t>(r) * stride;
    const V c = {coef[r], coef[r], coef[r], coef[r]};
    for (int b = 0; b < B; ++b) {
      V e;
      std::memcpy(&e, ar + b * kLanes, sizeof e);
      e *= c;
      keepRounded(e);
      acc[b] = e + acc[b];
      if constexpr (Derivs) {
        V e1 = e * V{lam1[r], lam1[r], lam1[r], lam1[r]};
        V e2 = e * V{lam2[r], lam2[r], lam2[r], lam2[r]};
        keepRounded(e1);
        keepRounded(e2);
        acc1[b] = e1 + acc1[b];
        acc2[b] = e2 + acc2[b];
      }
    }
  }
  for (int b = 0; b < B; ++b) {
    std::memcpy(out + b * kLanes, &acc[b], sizeof(V));
    if constexpr (Derivs) {
      std::memcpy(out1 + b * kLanes, &acc1[b], sizeof(V));
      std::memcpy(out2 + b * kLanes, &acc2[b], sizeof(V));
    }
  }
}

/// laneDotBlock for the final `rem` < B vectors of a row.
template <typename Real, bool Derivs, int B>
inline void laneDotRemainder(int rem, const Real* a, std::size_t stride,
                             const Real* coef, const Real* lam1, const Real* lam2,
                             int n, Real* out, Real* out1, Real* out2) {
  if constexpr (B > 0) {
    if (rem == B) {
      laneDotBlock<Real, B, Derivs>(a, stride, coef, lam1, lam2, n, out, out1, out2);
    } else {
      laneDotRemainder<Real, Derivs, B - 1>(rem, a, stride, coef, lam1, lam2, n, out,
                                           out1, out2);
    }
  }
}

/// laneDotBlock over `nvec` lane vectors, four at a time: enough
/// independent add chains to hide the add latency.
template <typename Real, bool Derivs = false>
inline void laneDot(const Real* a, std::size_t stride, const Real* coef, int n,
                    int nvec, Real* out, const Real* lam1 = nullptr,
                    const Real* lam2 = nullptr, Real* out1 = nullptr,
                    Real* out2 = nullptr) {
  constexpr int B = 4;
  int o = 0;
  for (; o + B * kLanes <= nvec * kLanes; o += B * kLanes) {
    laneDotBlock<Real, B, Derivs>(a + o, stride, coef, lam1, lam2, n, out + o,
                                  Derivs ? out1 + o : nullptr,
                                  Derivs ? out2 + o : nullptr);
  }
  laneDotRemainder<Real, Derivs, B - 1>(nvec - o / kLanes, a + o, stride, coef, lam1,
                                        lam2, n, out + o, Derivs ? out1 + o : nullptr,
                                        Derivs ? out2 + o : nullptr);
}

template <int StatesT>
inline int stateCount(const KernelArgs& args) {
  if constexpr (StatesT > 0) {
    return StatesT;
  } else {
    return static_cast<int>(args.ints[2]);
  }
}

// ---------------------------------------------------------------------------
// Partials kernels (the Eq. 1 core).
// ---------------------------------------------------------------------------

enum class ChildKind { Partials, States };

template <typename Real, int StatesT, KernelVariant Variant, bool UseFma,
          ChildKind Child1, ChildKind Child2>
void partialsKernel(const WorkGroupCtx& wg, const KernelArgs& args) {
  const int patterns = static_cast<int>(args.ints[0]);
  const int categories = static_cast<int>(args.ints[1]);
  const int states = stateCount<StatesT>(args);
  const int ppg = static_cast<int>(args.ints[3]);

  // A launch covers ints[4] operations, each over its own pattern range
  // [begin, end) (the whole axis or one partition of a concatenated axis),
  // so ops contribute a VARIABLE number of groups. buffers[5] holds each
  // op's five pointers; buffers[6] holds int32[4] per op: {rangeBegin,
  // rangeEnd, groupOffset, patternBlocks}. The group id is decoded by binary
  // search over the monotone groupOffset column. Every group computes
  // exactly what a standalone launch for its op would, so fusing a level's
  // operations stays bit-identical to the per-op sequence.
  const int batchOps = static_cast<int>(args.ints[4]);
  const int gid = wg.groupId;
  const auto* ranges = static_cast<const std::int32_t*>(args.buffers[6]);
  int lo = 0, hi = batchOps - 1;
  while (lo < hi) {
    const int mid = (lo + hi + 1) / 2;
    if (static_cast<int>(ranges[4 * mid + 2]) <= gid) {
      lo = mid;
    } else {
      hi = mid - 1;
    }
  }
  const int op = lo;
  const int local = gid - static_cast<int>(ranges[4 * op + 2]);
  const int opBlocks = static_cast<int>(ranges[4 * op + 3]);
  if (local < 0 || local >= opBlocks * categories) return;
  const int pb = local % opBlocks;
  const int c = local / opBlocks;
  const int kBegin = static_cast<int>(ranges[4 * op]) + pb * ppg;
  const int kEnd = std::min(static_cast<int>(ranges[4 * op + 1]), kBegin + ppg);
  const void* const* tbl = static_cast<const void* const*>(args.buffers[5]) +
                           static_cast<std::size_t>(op) * 5;
  Real* BGL_RESTRICT dest = static_cast<Real*>(const_cast<void*>(tbl[0]));
  const void* child1 = tbl[1];
  const Real* BGL_RESTRICT gm1 = static_cast<const Real*>(tbl[2]);
  const void* child2 = tbl[3];
  const Real* BGL_RESTRICT gm2 = static_cast<const Real*>(tbl[4]);

  const std::size_t matStride = static_cast<std::size_t>(states) * states;
  const Real* m1 = gm1 + static_cast<std::size_t>(c) * matStride;
  const Real* m2 = gm2 + static_cast<std::size_t>(c) * matStride;

  const std::size_t planeOffset =
      static_cast<std::size_t>(c) * patterns * states;

  if constexpr (Variant == KernelVariant::GpuStyle) {
    // GPU-style execution: one work-item per (pattern, state), the exact
    // structure of the GPU kernel, with barriers lowered to phase
    // boundaries. Child partials are staged into local memory element by
    // element by the items that will consume them, and — when it fits —
    // the transition matrices are staged cooperatively too. On a CPU this
    // item-level structure (index decode per item, local-memory round
    // trips, light work per item) is exactly what makes the GPU variant a
    // poor fit, which Table V quantifies.
    auto* lm = reinterpret_cast<Real*>(wg.localMem);
    const int items = ppg * states;
    const std::size_t partialsStage =
        (Child1 == ChildKind::Partials ? static_cast<std::size_t>(ppg) * states : 0) +
        (Child2 == ChildKind::Partials ? static_cast<std::size_t>(ppg) * states : 0);
    const bool stageMatrices =
        wg.localMemBytes >= (2 * matStride + partialsStage) * sizeof(Real);

    Real* lmMat = lm;
    Real* lmP1 = lm + (stageMatrices ? 2 * matStride : 0);
    Real* lmP2 = lmP1 + (Child1 == ChildKind::Partials
                             ? static_cast<std::size_t>(ppg) * states
                             : 0);

    // Phase A (cooperative): stage both matrices, strided by item id.
    if (stageMatrices) {
      for (int item = 0; item < items; ++item) {
        for (std::size_t idx = item; idx < 2 * matStride;
             idx += static_cast<std::size_t>(items)) {
          lmMat[idx] = idx < matStride ? m1[idx] : m2[idx - matStride];
        }
      }
      m1 = lmMat;
      m2 = lmMat + matStride;
    }

    // Phase B: each item copies its own child-partials element.
    for (int item = 0; item < items; ++item) {
      const int kk = item / states;
      const int i = item % states;
      const int k = kBegin + kk;
      if (k >= kEnd) continue;
      const std::size_t row = planeOffset + static_cast<std::size_t>(k) * states;
      if constexpr (Child1 == ChildKind::Partials) {
        lmP1[static_cast<std::size_t>(kk) * states + i] =
            static_cast<const Real*>(child1)[row + i];
      }
      if constexpr (Child2 == ChildKind::Partials) {
        lmP2[static_cast<std::size_t>(kk) * states + i] =
            static_cast<const Real*>(child2)[row + i];
      }
    }

    // Phase C: compute, one (pattern, state) entry per item.
    for (int item = 0; item < items; ++item) {
      const int kk = item / states;
      const int i = item % states;
      const int k = kBegin + kk;
      if (k >= kEnd) continue;
      const std::size_t row = planeOffset + static_cast<std::size_t>(k) * states;
      Real sum1, sum2;
      if constexpr (Child1 == ChildKind::Partials) {
        sum1 = Real(0);
        const Real* mrow = m1 + static_cast<std::size_t>(i) * states;
        const Real* p1 = lmP1 + static_cast<std::size_t>(kk) * states;
        for (int j = 0; j < states; ++j) {
          sum1 = madd<Real, UseFma>(mrow[j], p1[j], sum1);
        }
      } else {
        const int s1 = static_cast<const std::int32_t*>(child1)[k];
        sum1 = (s1 < states) ? m1[static_cast<std::size_t>(i) * states + s1] : Real(1);
      }
      if constexpr (Child2 == ChildKind::Partials) {
        sum2 = Real(0);
        const Real* mrow = m2 + static_cast<std::size_t>(i) * states;
        const Real* p2 = lmP2 + static_cast<std::size_t>(kk) * states;
        for (int j = 0; j < states; ++j) {
          sum2 = madd<Real, UseFma>(mrow[j], p2[j], sum2);
        }
      } else {
        const int s2 = static_cast<const std::int32_t*>(child2)[k];
        sum2 = (s2 < states) ? m2[static_cast<std::size_t>(i) * states + s2] : Real(1);
      }
      dest[row + i] = sum1 * sum2;
    }
    return;
  }

  // x86-style execution: one work-item per pattern, looping over the state
  // space with no explicit local memory (Section VII-B2's key change: more
  // work per item, let the cache hierarchy serve reuse).
  if constexpr (Variant == KernelVariant::X86Style && StatesT == 0) {
    // Generic state counts: the group stages its category's two matrices
    // transposed, [j][ipad] zero-padded, so lane i of a vector holds
    // M[i][j]. Each pattern then accumulates every output i at once in one
    // j-ascending pass — per output the same rounded products and adds as
    // the scalar dot product — and a tip's column M[.][s] is one staged row.
    // Products round before the add under both FMA settings.
    const int spad = paddedStates(states);
    alignas(32) Real mt1[kMaxStates * kMaxStates];
    alignas(32) Real mt2[kMaxStates * kMaxStates];
    alignas(32) Real sum1[kMaxStates], sum2[kMaxStates], ones[kMaxStates];
    for (int j = 0; j < states; ++j) {
      for (int i = 0; i < spad; ++i) {
        const bool in = i < states;
        mt1[j * spad + i] = in ? m1[static_cast<std::size_t>(i) * states + j] : Real(0);
        mt2[j * spad + i] = in ? m2[static_cast<std::size_t>(i) * states + j] : Real(0);
      }
    }
    std::fill(ones, ones + spad, Real(1));
    for (int k = kBegin; k < kEnd; ++k) {
      const std::size_t row = planeOffset + static_cast<std::size_t>(k) * states;
      const Real* r1 = sum1;
      const Real* r2 = sum2;
      if constexpr (Child1 == ChildKind::Partials) {
        laneDot(mt1, spad, static_cast<const Real*>(child1) + row, states,
                spad / kLanes, sum1);
      } else {
        const int s1 = static_cast<const std::int32_t*>(child1)[k];
        r1 = s1 < states ? mt1 + s1 * spad : ones;
      }
      if constexpr (Child2 == ChildKind::Partials) {
        laneDot(mt2, spad, static_cast<const Real*>(child2) + row, states,
                spad / kLanes, sum2);
      } else {
        const int s2 = static_cast<const std::int32_t*>(child2)[k];
        r2 = s2 < states ? mt2 + s2 * spad : ones;
      }
      for (int i = 0; i < states; ++i) dest[row + i] = r1[i] * r2[i];
    }
    return;
  }
  // The 4-state specialization keeps its scalar loop: under UseFma the
  // compiler contracts it into FMAs, and the parity suites pin those bits.
  for (int k = kBegin; k < kEnd; ++k) {
    const std::size_t row = planeOffset + static_cast<std::size_t>(k) * states;
    const Real* p1 = nullptr;
    const Real* p2 = nullptr;
    int s1 = 0, s2 = 0;
    if constexpr (Child1 == ChildKind::Partials) {
      p1 = static_cast<const Real*>(child1) + row;
    } else {
      s1 = static_cast<const std::int32_t*>(child1)[k];
    }
    if constexpr (Child2 == ChildKind::Partials) {
      p2 = static_cast<const Real*>(child2) + row;
    } else {
      s2 = static_cast<const std::int32_t*>(child2)[k];
    }
    for (int i = 0; i < states; ++i) {
      Real sum1, sum2;
      if constexpr (Child1 == ChildKind::Partials) {
        sum1 = Real(0);
        const Real* mrow = m1 + static_cast<std::size_t>(i) * states;
        for (int j = 0; j < states; ++j) sum1 = madd<Real, UseFma>(mrow[j], p1[j], sum1);
      } else {
        sum1 = (s1 < states) ? m1[static_cast<std::size_t>(i) * states + s1] : Real(1);
      }
      if constexpr (Child2 == ChildKind::Partials) {
        sum2 = Real(0);
        const Real* mrow = m2 + static_cast<std::size_t>(i) * states;
        for (int j = 0; j < states; ++j) sum2 = madd<Real, UseFma>(mrow[j], p2[j], sum2);
      } else {
        sum2 = (s2 < states) ? m2[static_cast<std::size_t>(i) * states + s2] : Real(1);
      }
      dest[row + i] = sum1 * sum2;
    }
  }
}

// ---------------------------------------------------------------------------
// Transition-probability kernels: P(t) from the precomputed Cijk tensor.
// ---------------------------------------------------------------------------

template <typename Real, int StatesT, bool UseFma, bool WithDerivs>
void transitionMatrixKernel(const WorkGroupCtx& wg, const KernelArgs& args) {
  // One launch covers a batch of `count` edges (ints[2]) with per-edge
  // lengths in buffers[6] and destination matrix-pool indices in
  // buffers[7] (stride ints[3] reals) — a single kernel launch per
  // updateTransitionMatrices call, which keeps launch-overhead-dominated
  // devices viable. The state count is in ints[1].
  const int states = (StatesT > 0) ? StatesT : static_cast<int>(args.ints[1]);
  const int categories = static_cast<int>(args.ints[0]);
  const int batchCount = static_cast<int>(args.ints[2]);
  const int edge = wg.groupId / categories;
  if (edge >= batchCount) return;
  const int c = wg.groupId % categories;
  const auto* lengths = static_cast<const Real*>(args.buffers[6]);
  const auto* indices = static_cast<const std::int32_t*>(args.buffers[7]);
  const double t = static_cast<double>(lengths[edge]);
  const std::size_t stride = static_cast<std::size_t>(args.ints[3]);
  const std::size_t matStride = static_cast<std::size_t>(states) * states;
  Real* const pool = static_cast<Real*>(args.buffers[0]);
  Real* p = pool + static_cast<std::size_t>(indices[edge]) * stride + c * matStride;
  Real* d1 = nullptr;
  Real* d2 = nullptr;
  if constexpr (WithDerivs) {
    // Derivative batch: indices carries three count-long sections —
    // probability, d1 and d2 matrix-pool indices.
    d1 = pool + static_cast<std::size_t>(indices[batchCount + edge]) * stride + c * matStride;
    d2 = pool + static_cast<std::size_t>(indices[2 * batchCount + edge]) * stride +
         c * matStride;
  }

  const Real* BGL_RESTRICT cijk = static_cast<const Real*>(args.buffers[1]);
  const Real* BGL_RESTRICT eval = static_cast<const Real*>(args.buffers[2]);
  const Real* BGL_RESTRICT rates = static_cast<const Real*>(args.buffers[3]);

  // exp(lambda_k * r_c * t) per eigenvalue, staged on the stack (the GPU
  // kernel stages this in local memory). The association must be
  // exp((lambda_k * r_c) * t), matching the host-CPU implementations: any
  // other grouping rounds differently for some (eigenvalue, rate, length)
  // triples and breaks the cross-implementation bitwise-logL contract.
  Real expl[kMaxStates];
  Real lam1[kMaxStates];
  Real lam2[kMaxStates];
  for (int k = 0; k < states; ++k) {
    const double lam = static_cast<double>(eval[k]) * static_cast<double>(rates[c]);
    expl[k] = static_cast<Real>(std::exp(lam * t));
    if constexpr (WithDerivs) {
      lam1[k] = static_cast<Real>(lam);
      lam2[k] = static_cast<Real>(lam * lam);
    }
  }

  // Row i of Cijk is [k][jpad]: lane j of each vector accumulates P[i][j]
  // over k ascending. The dot products are unfused regardless of the
  // UseFma toggle: the host-CPU reference computes `v = ck*expl;
  // sum += v` with `v` reused for the derivative sums, which no compiler
  // contracts into an FMA. Fusing here would put every accelerator matrix
  // one ulp away from the reference and break the cross-implementation
  // bitwise-logL contract.
  const int jpad = paddedStates(states);
  alignas(32) Real row[kMaxStates], row1[kMaxStates], row2[kMaxStates];
  for (int i = 0; i < states; ++i) {
    const Real* ci = cijk + static_cast<std::size_t>(i) * states * jpad;
    laneDot<Real, WithDerivs>(ci, jpad, expl, states, jpad / kLanes, row, lam1, lam2,
                              row1, row2);
    // Tiny negative values from round-off would poison log() later.
    for (int j = 0; j < states; ++j) p[i * states + j] = row[j] > Real(0) ? row[j] : Real(0);
    if constexpr (WithDerivs) {
      std::memcpy(d1 + i * states, row1, states * sizeof(Real));
      std::memcpy(d2 + i * states, row2, states * sizeof(Real));
    }
  }
}

// ---------------------------------------------------------------------------
// Root-likelihood integration.
// ---------------------------------------------------------------------------

template <typename Real, int StatesT, bool UseFma>
void rootLikelihoodKernel(const WorkGroupCtx& wg, const KernelArgs& args) {
  const int patterns = static_cast<int>(args.ints[0]);
  const int categories = static_cast<int>(args.ints[1]);
  const int states = stateCount<StatesT>(args);
  const int ppg = static_cast<int>(args.ints[3]);

  const Real* BGL_RESTRICT partials = static_cast<const Real*>(args.buffers[0]);
  const Real* BGL_RESTRICT freqs = static_cast<const Real*>(args.buffers[1]);
  const Real* BGL_RESTRICT weights = static_cast<const Real*>(args.buffers[2]);
  Real* BGL_RESTRICT siteOut = static_cast<Real*>(args.buffers[3]);
  const Real* BGL_RESTRICT cumScale = static_cast<const Real*>(args.buffers[4]);

  // Pattern range [ints[4], ints[5]): the whole axis or one partition of
  // a concatenated axis. The per-pattern math is position-independent, so
  // a partition's range matches a standalone instance bit for bit.
  const int kBegin = static_cast<int>(args.ints[4]) + wg.groupId * ppg;
  const int kEnd = std::min(static_cast<int>(args.ints[5]), kBegin + ppg);

  for (int k = kBegin; k < kEnd; ++k) {
    Real lik = Real(0);
    for (int c = 0; c < categories; ++c) {
      const Real* row = partials +
          (static_cast<std::size_t>(c) * patterns + k) * states;
      Real sum = Real(0);
      for (int s = 0; s < states; ++s) sum = madd<Real, UseFma>(freqs[s], row[s], sum);
      lik = madd<Real, UseFma>(weights[c], sum, lik);
    }
    Real logL = std::log(lik);
    if (cumScale != nullptr) logL += cumScale[k];
    siteOut[k] = logL;
  }
}

// ---------------------------------------------------------------------------
// Edge-likelihood integration (optionally with derivatives).
// ---------------------------------------------------------------------------

template <typename Real, int StatesT, bool UseFma, bool WithDerivs>
void edgeLikelihoodKernel(const WorkGroupCtx& wg, const KernelArgs& args) {
  const int patterns = static_cast<int>(args.ints[0]);
  const int categories = static_cast<int>(args.ints[1]);
  const int states = stateCount<StatesT>(args);
  const int ppg = static_cast<int>(args.ints[3]);
  const bool childIsStates = args.ints[4] != 0;

  const Real* BGL_RESTRICT parent = static_cast<const Real*>(args.buffers[0]);
  const void* child = args.buffers[1];
  const Real* BGL_RESTRICT pmat = static_cast<const Real*>(args.buffers[2]);
  const Real* BGL_RESTRICT freqs = static_cast<const Real*>(args.buffers[3]);
  const Real* BGL_RESTRICT weights = static_cast<const Real*>(args.buffers[4]);
  Real* BGL_RESTRICT siteOut = static_cast<Real*>(args.buffers[5]);
  Real* BGL_RESTRICT siteD1 = static_cast<Real*>(args.buffers[6]);
  Real* BGL_RESTRICT siteD2 = static_cast<Real*>(args.buffers[7]);
  const Real* BGL_RESTRICT mat1 = static_cast<const Real*>(args.buffers[8]);
  const Real* BGL_RESTRICT mat2 = static_cast<const Real*>(args.buffers[9]);
  const Real* BGL_RESTRICT cumScale = static_cast<const Real*>(args.buffers[10]);

  const std::size_t matStride = static_cast<std::size_t>(states) * states;
  const int kBegin = wg.groupId * ppg;
  const int kEnd = std::min(patterns, kBegin + ppg);

  for (int k = kBegin; k < kEnd; ++k) {
    Real lik = Real(0), num1 = Real(0), num2 = Real(0);
    for (int c = 0; c < categories; ++c) {
      const std::size_t row = (static_cast<std::size_t>(c) * patterns + k) *
                              static_cast<std::size_t>(states);
      const Real* prow = parent + row;
      const Real* m = pmat + static_cast<std::size_t>(c) * matStride;
      const Real* childRow = nullptr;
      int cs = 0;
      if (childIsStates) {
        cs = static_cast<const std::int32_t*>(child)[k];
      } else {
        childRow = static_cast<const Real*>(child) + row;
      }
      Real catSum = Real(0), catSum1 = Real(0), catSum2 = Real(0);
      for (int i = 0; i < states; ++i) {
        Real inner;
        if (childIsStates) {
          inner = (cs < states) ? m[static_cast<std::size_t>(i) * states + cs] : Real(1);
        } else {
          inner = Real(0);
          const Real* mrow = m + static_cast<std::size_t>(i) * states;
          for (int j = 0; j < states; ++j)
            inner = madd<Real, UseFma>(mrow[j], childRow[j], inner);
        }
        const Real pf = freqs[i] * prow[i];
        catSum = madd<Real, UseFma>(pf, inner, catSum);
        if constexpr (WithDerivs) {
          const Real* m1c = mat1 + static_cast<std::size_t>(c) * matStride;
          const Real* m2c = mat2 + static_cast<std::size_t>(c) * matStride;
          Real inner1, inner2;
          if (childIsStates) {
            inner1 = (cs < states) ? m1c[static_cast<std::size_t>(i) * states + cs] : Real(0);
            inner2 = (cs < states) ? m2c[static_cast<std::size_t>(i) * states + cs] : Real(0);
          } else {
            inner1 = Real(0);
            inner2 = Real(0);
            const Real* m1row = m1c + static_cast<std::size_t>(i) * states;
            const Real* m2row = m2c + static_cast<std::size_t>(i) * states;
            for (int j = 0; j < states; ++j) {
              inner1 = madd<Real, UseFma>(m1row[j], childRow[j], inner1);
              inner2 = madd<Real, UseFma>(m2row[j], childRow[j], inner2);
            }
          }
          catSum1 = madd<Real, UseFma>(pf, inner1, catSum1);
          catSum2 = madd<Real, UseFma>(pf, inner2, catSum2);
        }
      }
      lik = madd<Real, UseFma>(weights[c], catSum, lik);
      if constexpr (WithDerivs) {
        num1 = madd<Real, UseFma>(weights[c], catSum1, num1);
        num2 = madd<Real, UseFma>(weights[c], catSum2, num2);
      }
    }
    Real logL = std::log(lik);
    if (cumScale != nullptr) logL += cumScale[k];
    siteOut[k] = logL;
    if constexpr (WithDerivs) {
      // d/dt log L and d2/dt2 log L for this site.
      siteD1[k] = num1 / lik;
      siteD2[k] = (num2 * lik - num1 * num1) / (lik * lik);
    }
  }
}

// ---------------------------------------------------------------------------
// Scaling kernels.
// ---------------------------------------------------------------------------

template <typename Real, int StatesT>
void rescalePartialsKernel(const WorkGroupCtx& wg, const KernelArgs& args) {
  const int patterns = static_cast<int>(args.ints[0]);
  const int categories = static_cast<int>(args.ints[1]);
  const int states = stateCount<StatesT>(args);
  const int ppg = static_cast<int>(args.ints[3]);

  Real* BGL_RESTRICT partials = static_cast<Real*>(args.buffers[0]);
  Real* BGL_RESTRICT scale = static_cast<Real*>(args.buffers[1]);

  // Rescale the pattern range [ints[4], ints[5]) only.
  const int kBegin = static_cast<int>(args.ints[4]) + wg.groupId * ppg;
  const int kEnd = std::min(static_cast<int>(args.ints[5]), kBegin + ppg);

  for (int k = kBegin; k < kEnd; ++k) {
    Real maxv = Real(0);
    for (int c = 0; c < categories; ++c) {
      const Real* row = partials +
          (static_cast<std::size_t>(c) * patterns + k) * states;
      for (int s = 0; s < states; ++s) maxv = std::max(maxv, row[s]);
    }
    if (maxv > Real(0)) {
      const Real inv = Real(1) / maxv;
      for (int c = 0; c < categories; ++c) {
        Real* row = partials + (static_cast<std::size_t>(c) * patterns + k) * states;
        for (int s = 0; s < states; ++s) row[s] *= inv;
      }
      scale[k] = std::log(maxv);
    } else {
      scale[k] = Real(0);
    }
  }
}

template <typename Real>
void accumulateScaleKernel(const WorkGroupCtx& wg, const KernelArgs& args) {
  // Multi-source, multi-group: buffers[1] is the scale pool base,
  // buffers[2] an int32 array of ints[2] scale-buffer indices (stride
  // ints[3] reals), grid = pattern blocks of ints[4] patterns over the
  // range [ints[5], ints[6]). Each pattern accumulates its sources in array
  // order — the same per-element FP sequence as serial single-source
  // launches, so the result is bit-identical.
  Real* BGL_RESTRICT cum = static_cast<Real*>(args.buffers[0]);
  const Real sign = static_cast<Real>(args.ints[1]);
  const int count = static_cast<int>(args.ints[2]);
  const Real* BGL_RESTRICT pool = static_cast<const Real*>(args.buffers[1]);
  const auto* BGL_RESTRICT idx = static_cast<const std::int32_t*>(args.buffers[2]);
  const std::size_t stride = static_cast<std::size_t>(args.ints[3]);
  const int ppg = static_cast<int>(args.ints[4]);
  const int kBegin = static_cast<int>(args.ints[5]) + wg.groupId * ppg;
  const int kEnd = std::min(static_cast<int>(args.ints[6]), kBegin + ppg);
  for (int k = kBegin; k < kEnd; ++k) {
    Real acc = cum[k];
    for (int i = 0; i < count; ++i) {
      acc += sign * pool[static_cast<std::size_t>(idx[i]) * stride + k];
    }
    cum[k] = acc;
  }
}

template <typename Real>
void resetScaleKernel(const WorkGroupCtx& wg, const KernelArgs& args) {
  const int patterns = static_cast<int>(args.ints[0]);
  Real* BGL_RESTRICT cum = static_cast<Real*>(args.buffers[0]);
  // Multi-group mode (ints[1] = patterns per group); legacy single-group
  // launches (ints[1] == 0) zero the whole buffer from group 0.
  const int ppg = static_cast<int>(args.ints[1]);
  if (ppg > 0) {
    const int kBegin = wg.groupId * ppg;
    const int kEnd = std::min(patterns, kBegin + ppg);
    for (int k = kBegin; k < kEnd; ++k) cum[k] = Real(0);
    return;
  }
  if (wg.groupId != 0) return;
  for (int k = 0; k < patterns; ++k) cum[k] = Real(0);
}

template <typename Real>
void sumSiteLikelihoodsKernel(const WorkGroupCtx& wg, const KernelArgs& args) {
  // Two-phase multi-group reduction. Phase 1 (ints[1] = block size > 0):
  // group g writes the partial sum of its pattern block to out[g], blocks
  // laid out from the range start [ints[3], ints[4]) — block b of a
  // partition's range sums exactly the patterns that block b of a
  // standalone per-partition buffer would. Phase 2 (ints[2] = block count):
  // group 0 combines the partials at buffers[0] in ascending block order.
  // The block size is fixed, so every implementation and both sync/async
  // paths produce the identical bracketing.
  const int blockSize = static_cast<int>(args.ints[1]);
  double* BGL_RESTRICT out = static_cast<double*>(args.buffers[2]);
  if (blockSize > 0) {
    const Real* BGL_RESTRICT site = static_cast<const Real*>(args.buffers[0]);
    const Real* BGL_RESTRICT weights = static_cast<const Real*>(args.buffers[1]);
    const int kBegin = static_cast<int>(args.ints[3]) + wg.groupId * blockSize;
    const int kEnd = std::min(static_cast<int>(args.ints[4]), kBegin + blockSize);
    if (kBegin >= kEnd) return;
    double sum = 0.0;
    for (int k = kBegin; k < kEnd; ++k)
      sum += static_cast<double>(weights[k]) * static_cast<double>(site[k]);
    out[wg.groupId] = sum;
    return;
  }
  if (wg.groupId != 0) return;
  const int blockCount = static_cast<int>(args.ints[2]);
  const double* BGL_RESTRICT partial = static_cast<const double*>(args.buffers[0]);
  double sum = 0.0;
  for (int b = 0; b < blockCount; ++b) sum += partial[b];
  out[0] = sum;
}

}  // namespace bgl::kernels::detail
