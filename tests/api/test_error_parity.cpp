// Cross-implementation error-path parity: the same invalid call must
// produce the same structured return code on every implementation — the
// serial CPU baseline, the vectorized and threaded variants, and both
// simulated accelerator runtimes. Client error handling written against
// one backend must keep working on all of them.
#include <gtest/gtest.h>

#include <ostream>
#include <string>
#include <vector>

#include "api/bgl.h"

namespace {

struct Config {
  const char* name;
  long requirementFlags;
};

// Without this gtest prints the parameter as raw bytes — including the
// address of `name` — so the discovered ctest names would change per build.
void PrintTo(const Config& config, std::ostream* os) { *os << config.name; }

class ErrorParity : public ::testing::TestWithParam<Config> {
 protected:
  void SetUp() override {
    const int resource = 0;
    instance_ = bglCreateInstance(
        /*tips=*/4, /*partials=*/3, /*compact=*/4, /*states=*/4,
        /*patterns=*/16, /*eigen=*/1, /*matrices=*/6, /*categories=*/2,
        /*scale=*/0, &resource, 1, 0,
        GetParam().requirementFlags | BGL_FLAG_PRECISION_DOUBLE, nullptr);
    if (instance_ < 0) {
      GTEST_SKIP() << GetParam().name << " not available on this host (code "
                   << instance_ << ")";
    }
  }
  void TearDown() override {
    if (instance_ >= 0) bglFinalizeInstance(instance_);
  }
  int instance_ = -1;
};

TEST_P(ErrorParity, InvalidIndicesAreOutOfRange) {
  std::vector<int> states(16, 0);
  EXPECT_EQ(bglSetTipStates(instance_, 99, states.data()),
            BGL_ERROR_OUT_OF_RANGE);
  EXPECT_EQ(bglSetTipStates(instance_, -1, states.data()),
            BGL_ERROR_OUT_OF_RANGE);
  std::vector<double> freqs(4, 0.25);
  EXPECT_EQ(bglSetStateFrequencies(instance_, 7, freqs.data()),
            BGL_ERROR_OUT_OF_RANGE);
  std::vector<double> matrix(2 * 16, 0.0);
  EXPECT_EQ(bglSetTransitionMatrix(instance_, 42, matrix.data(), 1.0),
            BGL_ERROR_OUT_OF_RANGE);
  EXPECT_EQ(bglGetTransitionMatrix(instance_, 42, matrix.data()),
            BGL_ERROR_OUT_OF_RANGE);
  std::vector<double> partials(2 * 16 * 4, 0.0);
  EXPECT_EQ(bglSetPartials(instance_, 99, partials.data()),
            BGL_ERROR_OUT_OF_RANGE);
  EXPECT_EQ(bglGetPartials(instance_, 99, partials.data()),
            BGL_ERROR_OUT_OF_RANGE);
}

TEST_P(ErrorParity, NullPointersAreOutOfRange) {
  EXPECT_EQ(bglSetTipStates(instance_, 0, nullptr), BGL_ERROR_OUT_OF_RANGE);
  EXPECT_EQ(bglSetPartials(instance_, 0, nullptr), BGL_ERROR_OUT_OF_RANGE);
  EXPECT_EQ(bglSetCategoryRates(instance_, nullptr), BGL_ERROR_OUT_OF_RANGE);
  EXPECT_EQ(bglSetPatternWeights(instance_, nullptr), BGL_ERROR_OUT_OF_RANGE);
  EXPECT_EQ(bglUpdatePartials(instance_, nullptr, 1, BGL_OP_NONE),
            BGL_ERROR_OUT_OF_RANGE);
  EXPECT_EQ(bglGetSiteLogLikelihoods(instance_, nullptr),
            BGL_ERROR_OUT_OF_RANGE);
}

TEST_P(ErrorParity, BadEigenIndexIsOutOfRange) {
  const int index = 1;
  const double length = 0.1;
  EXPECT_EQ(bglUpdateTransitionMatrices(instance_, /*eigenIndex=*/5, &index,
                                        nullptr, nullptr, &length, 1),
            BGL_ERROR_OUT_OF_RANGE);
}

TEST_P(ErrorParity, UnknownInstanceIdsAreOutOfRange) {
  double buf[64] = {};
  EXPECT_EQ(bglSetCategoryRates(123456, buf), BGL_ERROR_OUT_OF_RANGE);
  EXPECT_EQ(bglWaitForComputation(-2), BGL_ERROR_OUT_OF_RANGE);
  EXPECT_NE(std::string(bglGetLastErrorMessage()).find("instance"),
            std::string::npos);
}

INSTANTIATE_TEST_SUITE_P(
    Implementations, ErrorParity,
    ::testing::Values(
        Config{"cpu_serial", BGL_FLAG_FRAMEWORK_CPU | BGL_FLAG_THREADING_NONE |
                                 BGL_FLAG_VECTOR_NONE},
        Config{"cpu_sse", BGL_FLAG_FRAMEWORK_CPU | BGL_FLAG_VECTOR_SSE},
        Config{"cpu_avx", BGL_FLAG_FRAMEWORK_CPU | BGL_FLAG_VECTOR_AVX},
        Config{"cpu_pool",
               BGL_FLAG_FRAMEWORK_CPU | BGL_FLAG_THREADING_THREAD_POOL},
        Config{"cudasim", BGL_FLAG_FRAMEWORK_CUDA},
        Config{"clsim", BGL_FLAG_FRAMEWORK_OPENCL}),
    [](const ::testing::TestParamInfo<Config>& info) {
      return std::string(info.param.name);
    });

}  // namespace
