// The single shared kernel set used by BOTH framework runtimes.
//
// Section VII-A of the paper: "There is a single set of kernels for both
// frameworks, with keywords for each being defined at the pre-processor
// stage." Here the sharing is structural: kernels are host function
// templates instantiated per (precision, state count, hardware variant)
// and both cudasim and clsim obtain them through lookupKernel(). The
// framework-specific part — buffer models, sub-region addressing, launch
// mechanics, overhead profile — lives entirely in the runtimes.
//
// Hardware-specific variants (Section VII-B):
//  * GpuStyle — one work-item per (pattern, state); transition matrices are
//    staged into local memory per work-group before the compute phase.
//  * X86Style — one work-item per pattern, looping over the state space,
//    no explicit local-memory staging (the cache hierarchy serves reuse),
//    and much larger work-groups (Table V tunes this size). For generic
//    state counts each SIMD lane owns one output state (kernels_impl.h).
//
// Argument slot layout per kernel (buffers `b`, ints `i`, reals `r`):
//
//  PartialsPartials / StatesPartials / StatesStates
//    b0 dest partials [C][P][S]
//    b1 child1 partials (Real*) or states (int32*)
//    b2 child1 transition matrices [C][S][S]
//    b3 child2 partials (Real*) or states (int32*)
//    b4 child2 transition matrices [C][S][S]
//    i0 patterns  i1 categories  i2 states  i3 patternsPerGroup
//    Fused level batch (i4 = op count > 0): b0..b4 are ignored; b5 is a
//    pointer table with 5 entries per op (dest, child1, m1, child2, m2)
//    and the grid is opCount * patternBlocks * categories groups.
//    Partitioned fused batch (i4 > 0 AND i5 != 0): additionally b6 is an
//    int32 table with 4 entries per op {rangeBegin, rangeEnd, groupOffset,
//    patternBlocks}; each op spans patternBlocks * categories groups
//    starting at its groupOffset and computes only its pattern range.
//
//  TransitionMatrices / TransitionMatricesDerivs (one launch per edge batch)
//    b0 matrix pool base; each edge writes P [C][S][S] at its index
//    b1 Cijk    [i][k][jpad] = evec[i][k] * ivec[k][j], j zero-padded to
//       jpad = paddedStates(S) (packCijk)
//    b2 eigenvalues [S]
//    b3 category rates [C]
//    b6 per-edge lengths (Real[count])
//    b7 int32 matrix-pool indices, stride i3 reals; for derivs three
//       count-long sections (P, P', P'')
//    i0 categories  i1 states  i2 edge count  i3 matrix stride
//    grid = count * categories
//
//  RootLikelihood
//    b0 root partials [C][P][S]
//    b1 state frequencies [S]
//    b2 category weights [C]
//    b3 site log-likelihoods out [P] (Real)
//    b4 cumulative scale factors [P] or null
//    i0 patterns  i1 categories  i2 states  i3 patternsPerGroup
//    Ranged (i5 = range end > 0): integrate patterns [i4, i5) only, with
//    block 0 at i4 (one partition of a concatenated pattern axis).
//
//  EdgeLikelihood
//    b0 parent partials [C][P][S]
//    b1 child partials (Real*) or states (int32*)
//    b2 transition matrices [C][S][S]
//    b3 state frequencies [S]
//    b4 category weights [C]
//    b5 site log-likelihoods out [P]
//    b6 site d1 out [P] or null       b7 site d2 out [P] or null
//    b8 d1 matrices or null           b9 d2 matrices or null
//    b10 cumulative scale factors [P] or null
//    i0 patterns  i1 categories  i2 states  i3 patternsPerGroup
//    i4 child-is-states flag
//
//  RescalePartials
//    b0 partials [C][P][S] (in/out)
//    b1 scale factors out [P] (log space)
//    i0 patterns  i1 categories  i2 states  i3 patternsPerGroup
//    Ranged (i5 = range end > 0): rescale patterns [i4, i5) only.
//
//  AccumulateScale
//    b0 cumulative [P]  b1 source [P]  i0 patterns  i1 sign (+1/-1)
//    Batched multi-group (i2 = source count > 0): b1 is the scale pool
//    base, b2 int32 scale-buffer indices with stride i3 reals, grid =
//    pattern blocks of i4 patterns; sources accumulate in array order
//    (bit-identical to the serial single-source sequence). Ranged batched
//    (i6 = range end > 0): accumulate patterns [i5, i6) only.
//
//  ResetScale
//    b0 cumulative [P]  i0 patterns
//    Multi-group (i1 = patterns per group > 0): grid over pattern blocks.
//
//  SumSiteLikelihoods
//    b0 site log-likelihoods [P] (Real)
//    b1 pattern weights [P] (Real)
//    b2 out (double[1])
//    i0 patterns
//    Two-phase: phase 1 (i1 = block size > 0) writes per-block partial
//    sums to b2[group]; phase 2 (i2 = block count > 0) has group 0 sum
//    the doubles at b0 in ascending order into b2[0]. Fixed block size
//    per pattern count => deterministic bracketing everywhere. Ranged
//    phase 1 (i4 = range end > 0): blocks laid out from i3, covering
//    patterns [i3, i4) — per-partition sums match a standalone
//    per-partition buffer's bracketing exactly.
#pragma once

#include <cstddef>
#include <vector>

#include "hal/hal.h"

namespace bgl::kernels {

/// SIMD lane count of the matrix and x86-style partials kernels: one lane
/// per output value, so padded axes round up to a multiple of it.
inline constexpr int kLanes = 4;

/// `states` rounded up to a whole number of lane vectors (4 stays 4).
constexpr int paddedStates(int states) {
  return (states + kLanes - 1) / kLanes * kLanes;
}

/// Pack Cijk = evec[i][k] * ivec[k][j] (rounded to Real) into the layout
/// the TransitionMatrices kernels read: [i][k][jpad], j zero-padded to
/// paddedStates(states). The one definition of that layout, shared by the
/// accelerator upload and the kernel tests.
template <typename Real>
void packCijk(const double* evec, const double* ivec, int states,
              std::vector<Real>& out) {
  const auto s = static_cast<std::size_t>(states);
  const auto jpad = static_cast<std::size_t>(paddedStates(states));
  out.assign(s * s * jpad, Real(0));
  for (std::size_t i = 0; i < s; ++i) {
    for (std::size_t k = 0; k < s; ++k) {
      for (std::size_t j = 0; j < s; ++j) {
        out[(i * s + k) * jpad + j] = static_cast<Real>(evec[i * s + k] * ivec[k * s + j]);
      }
    }
  }
}

/// Resolve the kernel function for a spec; throws bgl::Error for
/// unsupported combinations. Both framework runtimes use this — the code
/// they execute is identical; only the runtime around it differs.
hal::KernelFn lookupKernel(const hal::KernelSpec& spec);

/// Local-memory bytes the GPU-style partials kernel wants per work-group
/// (two staged transition matrices).
std::size_t gpuStyleLocalMemBytes(int states, bool singlePrecision);

}  // namespace bgl::kernels
