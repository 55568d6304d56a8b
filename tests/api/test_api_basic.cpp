// C API surface: resource enumeration, instance lifecycle, argument
// validation, and implementation selection by flags.
#include <gtest/gtest.h>

#include <cstring>
#include <string>
#include <vector>

#include "api/bgl.h"
#include "perfmodel/device_profiles.h"

namespace {

int makeSmallInstance(long pref = 0, long req = 0, BglInstanceDetails* info = nullptr,
                      const int* resources = nullptr, int resourceCount = 0) {
  return bglCreateInstance(/*tips=*/4, /*partials=*/3, /*compact=*/4, /*states=*/4,
                           /*patterns=*/16, /*eigen=*/1, /*matrices=*/6,
                           /*categories=*/2, /*scale=*/0, resources, resourceCount,
                           pref, req, info);
}

TEST(CApi, VersionAndCitation) {
  EXPECT_STREQ(bglGetVersion(), "1.0.0");
  EXPECT_NE(std::string(bglGetCitation()).find("BEAGLE"), std::string::npos);
}

TEST(CApi, ResourceListMatchesDeviceRegistry) {
  BglResourceList* list = bglGetResourceList();
  ASSERT_NE(list, nullptr);
  ASSERT_EQ(list->length,
            static_cast<int>(bgl::perf::deviceRegistry().size()));
  EXPECT_STREQ(list->list[0].name, "Host CPU");
  for (int i = 0; i < list->length; ++i) {
    EXPECT_NE(list->list[i].supportFlags, 0) << list->list[i].name;
  }
}

TEST(CApi, HostResourceSupportsCpuAndBothFrameworks) {
  const long flags = bglGetResourceList()->list[0].supportFlags;
  EXPECT_TRUE(flags & BGL_FLAG_FRAMEWORK_CPU);
  EXPECT_TRUE(flags & BGL_FLAG_FRAMEWORK_CUDA);
  EXPECT_TRUE(flags & BGL_FLAG_FRAMEWORK_OPENCL);
  EXPECT_TRUE(flags & BGL_FLAG_PRECISION_SINGLE);
  EXPECT_TRUE(flags & BGL_FLAG_PRECISION_DOUBLE);
}

TEST(CApi, GpuResourceNotServedByCpuImplementations) {
  const long flags =
      bglGetResourceList()->list[bgl::perf::kRadeonR9Nano].supportFlags;
  EXPECT_FALSE(flags & BGL_FLAG_FRAMEWORK_CPU);
  EXPECT_TRUE(flags & BGL_FLAG_FRAMEWORK_OPENCL);
  EXPECT_FALSE(flags & BGL_FLAG_FRAMEWORK_CUDA);  // AMD device
}

TEST(CApi, CreateAndFinalizeInstance) {
  BglInstanceDetails info{};
  const int inst = makeSmallInstance(0, 0, &info);
  ASSERT_GE(inst, 0);
  EXPECT_NE(info.implName, nullptr);
  EXPECT_NE(info.resourceName, nullptr);
  EXPECT_EQ(bglFinalizeInstance(inst), BGL_SUCCESS);
  EXPECT_EQ(bglFinalizeInstance(inst), BGL_ERROR_OUT_OF_RANGE);  // double free
}

TEST(CApi, InstanceIdsAreRecycled) {
  const int a = makeSmallInstance();
  ASSERT_GE(a, 0);
  bglFinalizeInstance(a);
  const int b = makeSmallInstance();
  EXPECT_EQ(a, b);
  bglFinalizeInstance(b);
}

TEST(CApi, RejectsInvalidCreateArguments) {
  EXPECT_EQ(bglCreateInstance(-1, 3, 4, 4, 16, 1, 6, 2, 0, nullptr, 0, 0, 0, nullptr),
            BGL_ERROR_OUT_OF_RANGE);
  EXPECT_EQ(bglCreateInstance(4, 3, 4, 1, 16, 1, 6, 2, 0, nullptr, 0, 0, 0, nullptr),
            BGL_ERROR_OUT_OF_RANGE);  // states < 2
  EXPECT_EQ(bglCreateInstance(4, 3, 4, 4, 0, 1, 6, 2, 0, nullptr, 0, 0, 0, nullptr),
            BGL_ERROR_OUT_OF_RANGE);  // no patterns
  EXPECT_EQ(bglCreateInstance(8, 3, 4, 4, 16, 1, 6, 2, 0, nullptr, 0, 0, 0, nullptr),
            BGL_ERROR_OUT_OF_RANGE);  // buffers < tips
}

TEST(CApi, InvalidResourceIdRejected) {
  const int bad = 999;
  EXPECT_EQ(makeSmallInstance(0, 0, nullptr, &bad, 1), BGL_ERROR_OUT_OF_RANGE);
}

TEST(CApi, UnsatisfiableRequirementsRejected) {
  // SSE is double-precision only in this library (as in the paper).
  const int rc = makeSmallInstance(
      0, BGL_FLAG_VECTOR_SSE | BGL_FLAG_PRECISION_SINGLE | BGL_FLAG_THREADING_NONE);
  EXPECT_EQ(rc, BGL_ERROR_NO_IMPLEMENTATION);
}

TEST(CApi, OperationsOnUnknownInstanceFail) {
  double buf[64] = {};
  EXPECT_EQ(bglSetCategoryRates(12345, buf), BGL_ERROR_OUT_OF_RANGE);
  EXPECT_EQ(bglGetSiteLogLikelihoods(-1, buf), BGL_ERROR_OUT_OF_RANGE);
  EXPECT_EQ(bglWaitForComputation(9999), BGL_ERROR_OUT_OF_RANGE);
}

TEST(CApi, NullPointersRejected) {
  const int inst = makeSmallInstance();
  ASSERT_GE(inst, 0);
  EXPECT_EQ(bglSetTipStates(inst, 0, nullptr), BGL_ERROR_OUT_OF_RANGE);
  EXPECT_EQ(bglSetPartials(inst, 0, nullptr), BGL_ERROR_OUT_OF_RANGE);
  EXPECT_EQ(bglUpdatePartials(inst, nullptr, 1, BGL_OP_NONE), BGL_ERROR_OUT_OF_RANGE);
  bglFinalizeInstance(inst);
}

TEST(CApi, IndexValidationOnBuffers) {
  const int inst = makeSmallInstance();
  ASSERT_GE(inst, 0);
  std::vector<int> states(16, 0);
  EXPECT_EQ(bglSetTipStates(inst, 7, states.data()), BGL_ERROR_OUT_OF_RANGE);
  std::vector<double> freqs(4, 0.25);
  EXPECT_EQ(bglSetStateFrequencies(inst, 3, freqs.data()), BGL_ERROR_OUT_OF_RANGE);
  std::vector<double> m(2 * 16, 0.0);
  EXPECT_EQ(bglSetTransitionMatrix(inst, 17, m.data(), 1.0), BGL_ERROR_OUT_OF_RANGE);
  double out[1024];
  EXPECT_EQ(bglGetPartials(inst, 99, out), BGL_ERROR_OUT_OF_RANGE);
  bglFinalizeInstance(inst);
}

TEST(CApi, UpdatePartialsValidatesOperations) {
  const int inst = makeSmallInstance();
  ASSERT_GE(inst, 0);
  std::vector<int> states(16, 1);
  for (int t = 0; t < 4; ++t) bglSetTipStates(inst, t, states.data());

  BglOperation op{};
  op.destinationPartials = 2;  // a tip: invalid destination
  op.destinationScaleWrite = BGL_OP_NONE;
  op.destinationScaleRead = BGL_OP_NONE;
  op.child1Partials = 0;
  op.child1TransitionMatrix = 0;
  op.child2Partials = 1;
  op.child2TransitionMatrix = 1;
  EXPECT_EQ(bglUpdatePartials(inst, &op, 1, BGL_OP_NONE), BGL_ERROR_OUT_OF_RANGE);

  op.destinationPartials = 4;
  op.child1TransitionMatrix = 42;  // matrix out of range
  EXPECT_EQ(bglUpdatePartials(inst, &op, 1, BGL_OP_NONE), BGL_ERROR_OUT_OF_RANGE);

  op.child1TransitionMatrix = 0;
  op.child1Partials = 5;  // uninitialized internal buffer as child
  EXPECT_EQ(bglUpdatePartials(inst, &op, 1, BGL_OP_NONE), BGL_ERROR_OUT_OF_RANGE);
  bglFinalizeInstance(inst);
}

TEST(CApi, ScalingIndicesValidated) {
  const int inst = bglCreateInstance(4, 3, 4, 4, 16, 1, 6, 2, /*scale=*/2, nullptr, 0,
                                     0, 0, nullptr);
  ASSERT_GE(inst, 0);
  const int good = 0;
  EXPECT_EQ(bglResetScaleFactors(inst, 1), BGL_SUCCESS);
  EXPECT_EQ(bglResetScaleFactors(inst, 5), BGL_ERROR_OUT_OF_RANGE);
  EXPECT_EQ(bglAccumulateScaleFactors(inst, &good, 1, 9), BGL_ERROR_OUT_OF_RANGE);
  bglFinalizeInstance(inst);
}

TEST(CApi, FlagSelectionRoutesToRequestedImplementation) {
  struct Case {
    long req;
    const char* expectSubstring;
  };
  const Case cases[] = {
      {BGL_FLAG_THREADING_NONE | BGL_FLAG_VECTOR_NONE, "CPU-serial"},
      {BGL_FLAG_THREADING_FUTURES, "futures"},
      {BGL_FLAG_THREADING_THREAD_CREATE, "create"},
      {BGL_FLAG_THREADING_THREAD_POOL | BGL_FLAG_VECTOR_NONE, "pool"},
      {BGL_FLAG_FRAMEWORK_CUDA, "CUDA"},
      {BGL_FLAG_FRAMEWORK_OPENCL, "OpenCL"},
  };
  for (const auto& c : cases) {
    BglInstanceDetails info{};
    const int host = 0;
    const int inst = makeSmallInstance(0, c.req, &info, &host, 1);
    ASSERT_GE(inst, 0) << c.expectSubstring;
    EXPECT_NE(std::string(info.implName).find(c.expectSubstring), std::string::npos)
        << "got " << info.implName;
    bglFinalizeInstance(inst);
  }
}

TEST(CApi, PreferenceFlagsAreSoft) {
  // Preferring SSE with a codon model silently falls back (codon has no
  // vector kernels), while requiring it fails.
  BglInstanceDetails info{};
  const int inst =
      bglCreateInstance(4, 3, 4, 61, 16, 1, 6, 1, 0, nullptr, 0,
                        /*pref=*/BGL_FLAG_VECTOR_SSE, /*req=*/0, &info);
  ASSERT_GE(inst, 0);
  bglFinalizeInstance(inst);
}

TEST(CApi, ThreadCountControl) {
  const int host = 0;
  const int inst = makeSmallInstance(0, BGL_FLAG_THREADING_THREAD_POOL, nullptr,
                                     &host, 1);
  ASSERT_GE(inst, 0);
  EXPECT_EQ(bglSetThreadCount(inst, 2), BGL_SUCCESS);
  EXPECT_EQ(bglSetThreadCount(inst, 0), BGL_ERROR_OUT_OF_RANGE);
  // Above the documented 1024 ceiling the shim rejects the count before the
  // pool could try to create that many threads; the instance stays usable.
  EXPECT_EQ(bglSetThreadCount(inst, 1 << 20), BGL_ERROR_OUT_OF_RANGE);
  EXPECT_EQ(bglSetThreadCount(inst, 2), BGL_SUCCESS);
  bglFinalizeInstance(inst);

  const int serial = makeSmallInstance(0, BGL_FLAG_THREADING_NONE |
                                              BGL_FLAG_VECTOR_NONE);
  ASSERT_GE(serial, 0);
  EXPECT_EQ(bglSetThreadCount(serial, 2), BGL_ERROR_UNIMPLEMENTED);
  bglFinalizeInstance(serial);
}

TEST(CApi, TimelineOnlyOnAcceleratorInstances) {
  BglTimeline t{};
  const int host = 0;
  const int accel = makeSmallInstance(0, BGL_FLAG_FRAMEWORK_OPENCL, nullptr, &host, 1);
  ASSERT_GE(accel, 0);
  EXPECT_EQ(bglGetTimeline(accel, &t), BGL_SUCCESS);
  EXPECT_EQ(bglResetTimeline(accel), BGL_SUCCESS);
  bglFinalizeInstance(accel);

  const int cpu = makeSmallInstance(0, BGL_FLAG_THREADING_NONE);
  ASSERT_GE(cpu, 0);
  EXPECT_EQ(bglGetTimeline(cpu, &t), BGL_ERROR_UNIMPLEMENTED);
  bglFinalizeInstance(cpu);
}

TEST(CApi, SetGetTransitionMatrixRoundTrip) {
  const int inst = makeSmallInstance();
  ASSERT_GE(inst, 0);
  std::vector<double> m(2 * 16);
  for (std::size_t i = 0; i < m.size(); ++i) m[i] = 0.01 * static_cast<double>(i);
  ASSERT_EQ(bglSetTransitionMatrix(inst, 3, m.data(), 1.0), BGL_SUCCESS);
  std::vector<double> out(2 * 16, -1.0);
  ASSERT_EQ(bglGetTransitionMatrix(inst, 3, out.data()), BGL_SUCCESS);
  for (std::size_t i = 0; i < m.size(); ++i) EXPECT_DOUBLE_EQ(out[i], m[i]);
  bglFinalizeInstance(inst);
}

TEST(CApi, WorkGroupSizeControl) {
  const int host = 0;
  const int accel = makeSmallInstance(0, BGL_FLAG_FRAMEWORK_OPENCL, nullptr, &host, 1);
  ASSERT_GE(accel, 0);
  EXPECT_EQ(bglSetWorkGroupSize(accel, 128), BGL_SUCCESS);
  EXPECT_EQ(bglSetWorkGroupSize(accel, 0), BGL_ERROR_OUT_OF_RANGE);
  EXPECT_EQ(bglSetWorkGroupSize(accel, 1 << 20), BGL_ERROR_OUT_OF_RANGE);
  bglFinalizeInstance(accel);
}

}  // namespace
