// Multi-partition C API surface (PR 10): pattern-partition maps, per-slot
// category rates, model-batched transition-matrix updates, partition-
// restricted partials operations, and the per-partition root reduction —
// argument validation plus a full two-partition evaluation through the raw
// C entry points.
#include <gtest/gtest.h>

#include <cmath>
#include <string>
#include <vector>

#include "api/bgl.h"

namespace {

constexpr int kTips = 4;
constexpr int kPatterns = 16;
constexpr int kPartitions = 2;
constexpr int kCategories = 2;
constexpr int kEdges = 2 * kTips - 2;  // matrices per partition

/// Two-partition instance: eigen/rates/weights/frequency slot per
/// partition, one matrix block of kEdges per partition.
int makePartitionedInstance() {
  return bglCreateInstance(kTips, /*partials=*/kTips - 1, /*compact=*/kTips,
                           /*states=*/4, kPatterns, /*eigen=*/kPartitions,
                           /*matrices=*/kPartitions * kEdges, kCategories,
                           /*scale=*/0, nullptr, 0, 0, 0, nullptr);
}

std::vector<int> contiguousMap() {
  std::vector<int> map(kPatterns, 0);
  for (int s = 10; s < kPatterns; ++s) map[s] = 1;  // 10 + 6 patterns
  return map;
}

void setTips(int inst) {
  for (int t = 0; t < kTips; ++t) {
    std::vector<int> states(kPatterns);
    for (int s = 0; s < kPatterns; ++s) states[s] = (s + t) % 4;
    ASSERT_EQ(bglSetTipStates(inst, t, states.data()), BGL_SUCCESS);
  }
}

/// Jukes-Cantor eigensystem (the textbook nucleotide model): transition
/// matrices mix states, so every pattern keeps a positive site likelihood.
void setModelSlot(int inst, int slot, const double* rates) {
  const double vectors[16] = {1.0, 2.0, 0.0, 0.5,    //
                              1.0, -2.0, 0.5, 0.0,   //
                              1.0, 2.0, 0.0, -0.5,   //
                              1.0, -2.0, -0.5, 0.0};
  const double inverse[16] = {0.25, 0.25, 0.25, 0.25,        //
                              0.125, -0.125, 0.125, -0.125,  //
                              0.0, 1.0, 0.0, -1.0,           //
                              1.0, 0.0, -1.0, 0.0};
  const double values[4] = {0.0, -4.0 / 3.0, -4.0 / 3.0, -4.0 / 3.0};
  ASSERT_EQ(bglSetEigenDecomposition(inst, slot, vectors, inverse, values),
            BGL_SUCCESS);
  const std::vector<double> freqs(4, 0.25);
  ASSERT_EQ(bglSetStateFrequencies(inst, slot, freqs.data()), BGL_SUCCESS);
  const std::vector<double> weights(kCategories, 1.0 / kCategories);
  ASSERT_EQ(bglSetCategoryWeights(inst, slot, weights.data()), BGL_SUCCESS);
  ASSERT_EQ(bglSetCategoryRatesWithIndex(inst, slot, rates), BGL_SUCCESS);
}

TEST(PartitionApi, PatternPartitionMapValidation) {
  const int inst = makePartitionedInstance();
  ASSERT_GE(inst, 0);
  const auto good = contiguousMap();
  EXPECT_EQ(bglSetPatternPartitions(inst, kPartitions, good.data()), BGL_SUCCESS);

  EXPECT_EQ(bglSetPatternPartitions(inst, 0, good.data()), BGL_ERROR_OUT_OF_RANGE);
  EXPECT_EQ(bglSetPatternPartitions(inst, kPartitions, nullptr),
            BGL_ERROR_OUT_OF_RANGE);
  EXPECT_EQ(bglSetPatternPartitions(99999, kPartitions, good.data()),
            BGL_ERROR_OUT_OF_RANGE);

  auto decreasing = good;
  decreasing[4] = 1;  // 1 then back to 0: not non-decreasing
  EXPECT_EQ(bglSetPatternPartitions(inst, kPartitions, decreasing.data()),
            BGL_ERROR_OUT_OF_RANGE);

  std::vector<int> skipping(kPatterns, 0);
  for (int s = 10; s < kPatterns; ++s) skipping[s] = 2;  // jumps 0 -> 2
  EXPECT_EQ(bglSetPatternPartitions(inst, 3, skipping.data()),
            BGL_ERROR_OUT_OF_RANGE);

  std::vector<int> startsAtOne(kPatterns, 1);
  EXPECT_EQ(bglSetPatternPartitions(inst, kPartitions, startsAtOne.data()),
            BGL_ERROR_OUT_OF_RANGE);

  const std::vector<int> incomplete(kPatterns, 0);  // never reaches 1
  EXPECT_EQ(bglSetPatternPartitions(inst, kPartitions, incomplete.data()),
            BGL_ERROR_OUT_OF_RANGE);
  EXPECT_NE(std::string(bglGetLastErrorMessage()).find("covers only"),
            std::string::npos);

  // partitionCount == 1 (map ignored, may be NULL) restores the
  // single-partition state.
  EXPECT_EQ(bglSetPatternPartitions(inst, 1, nullptr), BGL_SUCCESS);
  bglFinalizeInstance(inst);
}

TEST(PartitionApi, CategoryRatesSlotValidation) {
  const int inst = makePartitionedInstance();
  ASSERT_GE(inst, 0);
  const std::vector<double> rates(kCategories, 1.0);
  EXPECT_EQ(bglSetCategoryRatesWithIndex(inst, 0, nullptr), BGL_ERROR_OUT_OF_RANGE);
  EXPECT_EQ(bglSetCategoryRatesWithIndex(inst, -1, rates.data()),
            BGL_ERROR_OUT_OF_RANGE);
  EXPECT_EQ(bglSetCategoryRatesWithIndex(inst, kPartitions, rates.data()),
            BGL_ERROR_OUT_OF_RANGE);  // == eigenBufferCount
  EXPECT_EQ(bglSetCategoryRatesWithIndex(inst, 1, rates.data()), BGL_SUCCESS);
  // Slot 0 aliases the legacy global-rates entry point.
  EXPECT_EQ(bglSetCategoryRates(inst, rates.data()), BGL_SUCCESS);
  bglFinalizeInstance(inst);
}

TEST(PartitionApi, TransitionMatricesWithModelsValidation) {
  const int inst = makePartitionedInstance();
  ASSERT_GE(inst, 0);
  const std::vector<double> rates(kCategories, 1.0);
  setModelSlot(inst, 0, rates.data());

  const int eigen[2] = {0, 0};
  const int prob[2] = {0, 1};
  const double lengths[2] = {0.1, 0.2};
  EXPECT_EQ(bglUpdateTransitionMatricesWithModels(inst, nullptr, nullptr, prob,
                                                  lengths, 2),
            BGL_ERROR_OUT_OF_RANGE);
  EXPECT_EQ(bglUpdateTransitionMatricesWithModels(inst, eigen, nullptr, nullptr,
                                                  lengths, 2),
            BGL_ERROR_OUT_OF_RANGE);
  EXPECT_EQ(bglUpdateTransitionMatricesWithModels(inst, eigen, nullptr, prob,
                                                  nullptr, 2),
            BGL_ERROR_OUT_OF_RANGE);
  EXPECT_EQ(bglUpdateTransitionMatricesWithModels(inst, eigen, nullptr, prob,
                                                  lengths, -1),
            BGL_ERROR_OUT_OF_RANGE);

  const int badEigen[2] = {0, kPartitions};  // slot out of range
  EXPECT_EQ(bglUpdateTransitionMatricesWithModels(inst, badEigen, nullptr, prob,
                                                  lengths, 2),
            BGL_ERROR_OUT_OF_RANGE);
  const int badProb[2] = {0, kPartitions * kEdges};  // matrix out of range
  EXPECT_EQ(bglUpdateTransitionMatricesWithModels(inst, eigen, nullptr, badProb,
                                                  lengths, 2),
            BGL_ERROR_OUT_OF_RANGE);
  const int badRates[2] = {0, kPartitions};  // rates slot out of range
  EXPECT_EQ(bglUpdateTransitionMatricesWithModels(inst, eigen, badRates, prob,
                                                  lengths, 2),
            BGL_ERROR_OUT_OF_RANGE);

  // NULL categoryRatesIndices: every edge uses slot 0 (legacy rates).
  EXPECT_EQ(bglUpdateTransitionMatricesWithModels(inst, eigen, nullptr, prob,
                                                  lengths, 2),
            BGL_SUCCESS);
  bglFinalizeInstance(inst);
}

TEST(PartitionApi, UpdatePartialsByPartitionValidation) {
  const int inst = makePartitionedInstance();
  ASSERT_GE(inst, 0);
  setTips(inst);
  const auto map = contiguousMap();
  ASSERT_EQ(bglSetPatternPartitions(inst, kPartitions, map.data()), BGL_SUCCESS);
  const std::vector<double> rates(kCategories, 1.0);
  setModelSlot(inst, 0, rates.data());
  std::vector<int> eigen(kEdges, 0), prob(kEdges);
  std::vector<double> lengths(kEdges, 0.1);
  for (int e = 0; e < kEdges; ++e) prob[e] = e;
  ASSERT_EQ(bglUpdateTransitionMatricesWithModels(inst, eigen.data(), nullptr,
                                                  prob.data(), lengths.data(),
                                                  kEdges),
            BGL_SUCCESS);

  BglOperationByPartition op{};
  op.destinationPartials = kTips;  // first internal buffer
  op.destinationScaleWrite = BGL_OP_NONE;
  op.destinationScaleRead = BGL_OP_NONE;
  op.child1Partials = 0;
  op.child1TransitionMatrix = 0;
  op.child2Partials = 1;
  op.child2TransitionMatrix = 1;
  op.partition = 0;

  EXPECT_EQ(bglUpdatePartialsByPartition(inst, nullptr, 1, BGL_OP_NONE),
            BGL_ERROR_OUT_OF_RANGE);

  BglOperationByPartition bad = op;
  bad.partition = kPartitions;  // partition index out of range
  EXPECT_EQ(bglUpdatePartialsByPartition(inst, &bad, 1, BGL_OP_NONE),
            BGL_ERROR_OUT_OF_RANGE);
  bad = op;
  bad.partition = -1;
  EXPECT_EQ(bglUpdatePartialsByPartition(inst, &bad, 1, BGL_OP_NONE),
            BGL_ERROR_OUT_OF_RANGE);
  bad = op;
  bad.destinationPartials = 0;  // a tip as destination
  EXPECT_EQ(bglUpdatePartialsByPartition(inst, &bad, 1, BGL_OP_NONE),
            BGL_ERROR_OUT_OF_RANGE);
  bad = op;
  bad.child1TransitionMatrix = kPartitions * kEdges;  // matrix out of range
  EXPECT_EQ(bglUpdatePartialsByPartition(inst, &bad, 1, BGL_OP_NONE),
            BGL_ERROR_OUT_OF_RANGE);

  EXPECT_EQ(bglUpdatePartialsByPartition(inst, &op, 1, BGL_OP_NONE), BGL_SUCCESS);
  bglFinalizeInstance(inst);
}

// The range table behind every instance carries one slot past the user
// partitions, reserved for the partition-blind entry points: a user call
// naming partition == partitionCount must stay out of range, on the CPU and
// both accelerator families, before and after repartitioning.
TEST(PartitionApi, PartitionIndexEqualToCountIsOutOfRange) {
  for (const long family : {BGL_FLAG_FRAMEWORK_CPU, BGL_FLAG_FRAMEWORK_CUDA,
                            BGL_FLAG_FRAMEWORK_OPENCL}) {
    const int inst = bglCreateInstance(
        kTips, kTips - 1, kTips, 4, kPatterns, kPartitions, kPartitions * kEdges,
        kCategories, 0, nullptr, 0, 0, family | BGL_FLAG_PRECISION_DOUBLE, nullptr);
    ASSERT_GE(inst, 0) << family;
    setTips(inst);
    const std::vector<double> rates(kCategories, 1.0);
    setModelSlot(inst, 0, rates.data());
    std::vector<int> eigen(kEdges, 0), prob(kEdges);
    std::vector<double> lengths(kEdges, 0.1);
    for (int e = 0; e < kEdges; ++e) prob[e] = e;
    ASSERT_EQ(bglUpdateTransitionMatricesWithModels(inst, eigen.data(), nullptr,
                                                    prob.data(), lengths.data(),
                                                    kEdges),
              BGL_SUCCESS);

    BglOperationByPartition op{};
    op.destinationPartials = kTips;
    op.destinationScaleWrite = BGL_OP_NONE;
    op.destinationScaleRead = BGL_OP_NONE;
    op.child1Partials = 0;
    op.child1TransitionMatrix = 0;
    op.child2Partials = 1;
    op.child2TransitionMatrix = 1;
    const int root = kTips;
    const int slot = 0;
    double logL = 0.0;
    auto expectCount = [&](int count) {
      op.partition = count;
      EXPECT_EQ(bglUpdatePartialsByPartition(inst, &op, 1, BGL_OP_NONE),
                BGL_ERROR_OUT_OF_RANGE)
          << family << " partitions " << count;
      op.partition = count - 1;
      EXPECT_EQ(bglUpdatePartialsByPartition(inst, &op, 1, BGL_OP_NONE), BGL_SUCCESS)
          << family << " partitions " << count;
      const int reserved = count;
      EXPECT_EQ(bglCalculateRootLogLikelihoodsByPartition(
                    inst, &root, &slot, &slot, nullptr, &reserved, 1, &logL, nullptr),
                BGL_ERROR_OUT_OF_RANGE)
          << family << " partitions " << count;
    };

    expectCount(1);  // a fresh instance has one partition
    const auto map = contiguousMap();
    ASSERT_EQ(bglSetPatternPartitions(inst, kPartitions, map.data()), BGL_SUCCESS);
    expectCount(kPartitions);
    ASSERT_EQ(bglSetPatternPartitions(inst, 1, nullptr), BGL_SUCCESS);
    expectCount(1);
    bglFinalizeInstance(inst);
  }
}

TEST(PartitionApi, FullTwoPartitionEvaluation) {
  const int inst = makePartitionedInstance();
  ASSERT_GE(inst, 0);
  setTips(inst);
  std::vector<double> weights(kPatterns, 1.0);
  ASSERT_EQ(bglSetPatternWeights(inst, weights.data()), BGL_SUCCESS);
  const auto map = contiguousMap();
  ASSERT_EQ(bglSetPatternPartitions(inst, kPartitions, map.data()), BGL_SUCCESS);

  // Each partition gets its own model slot and rate distribution.
  const double rates0[kCategories] = {1.0, 1.0};
  const double rates1[kCategories] = {0.5, 1.5};
  setModelSlot(inst, 0, rates0);
  setModelSlot(inst, 1, rates1);

  // One matrix block per partition, indexed by child node id.
  std::vector<int> eigen, ratesIdx, prob;
  std::vector<double> lengths;
  for (int q = 0; q < kPartitions; ++q) {
    for (int e = 0; e < kEdges; ++e) {
      eigen.push_back(q);
      ratesIdx.push_back(q);
      prob.push_back(q * kEdges + e);
      lengths.push_back(0.1 * (e + 1));
    }
  }
  ASSERT_EQ(bglUpdateTransitionMatricesWithModels(
                inst, eigen.data(), ratesIdx.data(), prob.data(), lengths.data(),
                static_cast<int>(prob.size())),
            BGL_SUCCESS);

  // Balanced 4-tip tree: (0,1)->4, (2,3)->5, (4,5)->6, for both partitions.
  std::vector<BglOperationByPartition> ops;
  for (int q = 0; q < kPartitions; ++q) {
    const int joins[3][3] = {{4, 0, 1}, {5, 2, 3}, {6, 4, 5}};
    for (const auto& j : joins) {
      BglOperationByPartition op{};
      op.destinationPartials = j[0];
      op.destinationScaleWrite = BGL_OP_NONE;
      op.destinationScaleRead = BGL_OP_NONE;
      op.child1Partials = j[1];
      op.child1TransitionMatrix = q * kEdges + j[1];
      op.child2Partials = j[2];
      op.child2TransitionMatrix = q * kEdges + j[2];
      op.partition = q;
      ops.push_back(op);
    }
  }
  ASSERT_EQ(bglUpdatePartialsByPartition(inst, ops.data(),
                                         static_cast<int>(ops.size()), BGL_OP_NONE),
            BGL_SUCCESS);

  const int roots[kPartitions] = {6, 6};
  const int slots[kPartitions] = {0, 1};
  const int parts[kPartitions] = {0, 1};
  double byPartition[kPartitions] = {0.0, 0.0};
  double total = 0.0;

  EXPECT_EQ(bglCalculateRootLogLikelihoodsByPartition(
                inst, nullptr, slots, slots, nullptr, parts, kPartitions,
                byPartition, &total),
            BGL_ERROR_OUT_OF_RANGE);
  EXPECT_EQ(bglCalculateRootLogLikelihoodsByPartition(
                inst, roots, slots, slots, nullptr, parts, kPartitions, nullptr,
                &total),
            BGL_ERROR_OUT_OF_RANGE);
  EXPECT_EQ(bglCalculateRootLogLikelihoodsByPartition(
                inst, roots, slots, slots, nullptr, nullptr, kPartitions,
                byPartition, &total),
            BGL_ERROR_OUT_OF_RANGE);
  const int badPart[kPartitions] = {0, kPartitions};
  EXPECT_EQ(bglCalculateRootLogLikelihoodsByPartition(
                inst, roots, slots, slots, nullptr, badPart, kPartitions,
                byPartition, &total),
            BGL_ERROR_OUT_OF_RANGE);

  ASSERT_EQ(bglCalculateRootLogLikelihoodsByPartition(
                inst, roots, slots, slots, nullptr, parts, kPartitions,
                byPartition, &total),
            BGL_SUCCESS);
  EXPECT_TRUE(std::isfinite(byPartition[0]));
  EXPECT_TRUE(std::isfinite(byPartition[1]));
  EXPECT_LT(byPartition[0], 0.0);
  EXPECT_LT(byPartition[1], 0.0);
  EXPECT_EQ(total, byPartition[0] + byPartition[1]);

  // The total output pointer is optional.
  EXPECT_EQ(bglCalculateRootLogLikelihoodsByPartition(
                inst, roots, slots, slots, nullptr, parts, kPartitions,
                byPartition, nullptr),
            BGL_SUCCESS);
  bglFinalizeInstance(inst);
}

}  // namespace
