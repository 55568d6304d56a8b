// Process-wide metrics registry (src/obs/metrics.*): log2-histogram
// quantile estimation at bucket boundaries, bglGetProcessStatistics parity
// against the sum of per-instance bglGetStatistics across every
// implementation family, the background JSON-lines metrics service, and the
// abnormal-teardown guarantee that an error flushes the instance stats file
// (journal included) before anyone calls bglFinalizeInstance.
#include <gtest/gtest.h>

#include <chrono>
#include <cstdio>
#include <fstream>
#include <iterator>
#include <memory>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "api/bgl.h"
#include "obs/journal.h"
#include "obs/trace.h"
#include "perfmodel/device_profiles.h"
#include "phylo/likelihood.h"
#include "tests/test_util.h"

namespace bgl {
namespace {

// ---------------------------------------------------------------- quantiles

TEST(ObsHistogramQuantile, EmptyHistogramIsZero) {
  obs::DurationHistogram h;
  EXPECT_EQ(obs::histogramQuantile(h, 0.0), 0.0);
  EXPECT_EQ(obs::histogramQuantile(h, 0.5), 0.0);
  EXPECT_EQ(obs::histogramQuantile(h, 1.0), 0.0);
}

TEST(ObsHistogramQuantile, SingleValueClampsEveryQuantile) {
  obs::DurationHistogram h;
  for (int i = 0; i < 10; ++i) h.record(100);
  // All mass in one bucket with min == max == 100: interpolation inside the
  // [64, 128) bucket must clamp to the observed extremes at every q.
  for (double q : {0.0, 0.01, 0.5, 0.95, 0.99, 1.0}) {
    EXPECT_DOUBLE_EQ(obs::histogramQuantile(h, q), 100.0) << "q=" << q;
  }
}

TEST(ObsHistogramQuantile, ZeroDurationLandsInBucketZero) {
  obs::DurationHistogram h;
  h.record(0);
  h.record(1);  // bucket 0 spans [0, 2)
  EXPECT_GE(obs::histogramQuantile(h, 0.5), 0.0);
  EXPECT_LE(obs::histogramQuantile(h, 0.5), 1.0);  // clamped to max
  EXPECT_DOUBLE_EQ(obs::histogramQuantile(h, 1.0), 1.0);
}

TEST(ObsHistogramQuantile, BimodalBucketBoundaries) {
  obs::DurationHistogram h;
  // 100 samples at 2 ns (bucket 1: [2, 4)) and 100 at 1024 ns (bucket 10:
  // [1024, 2048)).
  for (int i = 0; i < 100; ++i) h.record(2);
  for (int i = 0; i < 100; ++i) h.record(1024);
  const double p25 = obs::histogramQuantile(h, 0.25);
  const double p50 = obs::histogramQuantile(h, 0.50);
  const double p95 = obs::histogramQuantile(h, 0.95);
  // Low quantiles interpolate inside the low bucket...
  EXPECT_GE(p25, 2.0);
  EXPECT_LT(p25, 4.0);
  // ...high quantiles land in the high bucket, clamped to the observed max.
  EXPECT_DOUBLE_EQ(p95, 1024.0);
  // Monotone in q.
  EXPECT_LE(p25, p50);
  EXPECT_LE(p50, p95);
}

TEST(ObsHistogramQuantile, MergePreservesCountsAndExtremes) {
  obs::DurationHistogram a, b;
  for (int i = 0; i < 50; ++i) a.record(8);
  for (int i = 0; i < 50; ++i) b.record(4096);
  a.merge(b);
  EXPECT_EQ(a.count, 100u);
  EXPECT_EQ(a.minNs, 8u);
  EXPECT_EQ(a.maxNs, 4096u);
  EXPECT_EQ(a.totalNs, 50u * 8 + 50u * 4096);
  EXPECT_DOUBLE_EQ(obs::histogramQuantile(a, 0.99), 4096.0);
  EXPECT_GE(obs::histogramQuantile(a, 0.25), 8.0);
  EXPECT_LT(obs::histogramQuantile(a, 0.25), 16.0);
}

// ----------------------------------------------- process-statistics parity

struct FamilyConfig {
  const char* label;
  long requirementFlags;
  int resource;
};

// One instance per implementation family, same roster the counter suite
// exercises: serial, SSE, futures, thread-create, thread-pool, CUDA, OpenCL.
const FamilyConfig kFamilies[] = {
    {"serial", BGL_FLAG_THREADING_NONE | BGL_FLAG_VECTOR_NONE, perf::kHostCpu},
    {"sse", BGL_FLAG_VECTOR_SSE | BGL_FLAG_THREADING_NONE, perf::kHostCpu},
    {"futures", BGL_FLAG_THREADING_FUTURES, perf::kHostCpu},
    {"thread_create", BGL_FLAG_THREADING_THREAD_CREATE, perf::kHostCpu},
    {"thread_pool", BGL_FLAG_THREADING_THREAD_POOL, perf::kHostCpu},
    {"cuda_host", BGL_FLAG_FRAMEWORK_CUDA, perf::kHostCpu},
    {"opencl_p5000", BGL_FLAG_FRAMEWORK_OPENCL, perf::kQuadroP5000},
};

TEST(ObsProcessStatistics, AggregateMatchesSumOfInstancesAcrossFamilies) {
  // The registry is process-wide (it has seen every instance this binary
  // created), so everything is measured as a delta from a baseline.
  BglProcessStatistics base{};
  ASSERT_EQ(bglGetProcessStatistics(&base), BGL_SUCCESS);

  auto problem = test::makeNucleotideProblem(/*taxa=*/8, /*sites=*/40, 811);
  std::vector<std::unique_ptr<phylo::TreeLikelihood>> likes;
  for (const FamilyConfig& family : kFamilies) {
    phylo::LikelihoodOptions opts;
    opts.categories = 2;
    opts.requirementFlags = family.requirementFlags;
    opts.resources = {family.resource};
    likes.push_back(std::make_unique<phylo::TreeLikelihood>(
        problem.tree, *problem.model, problem.data, opts));
  }
  for (auto& like : likes) {
    like->logLikelihood();
    like->logLikelihood();
  }

  BglStatistics sum{};
  for (auto& like : likes) {
    BglStatistics s{};
    ASSERT_EQ(bglGetStatistics(like->instance(), &s), BGL_SUCCESS);
    sum.partialsOperations += s.partialsOperations;
    sum.transitionMatrices += s.transitionMatrices;
    sum.rootEvaluations += s.rootEvaluations;
    sum.edgeEvaluations += s.edgeEvaluations;
    sum.rescaleEvents += s.rescaleEvents;
    sum.scaleAccumulations += s.scaleAccumulations;
    sum.kernelLaunches += s.kernelLaunches;
    sum.bytesCopiedIn += s.bytesCopiedIn;
    sum.bytesCopiedOut += s.bytesCopiedOut;
    sum.streamedLaunches += s.streamedLaunches;
    sum.updatePartialsSeconds += s.updatePartialsSeconds;
  }
  EXPECT_GT(sum.partialsOperations, 0u);
  EXPECT_GT(sum.kernelLaunches, 0u);  // the two accelerator families

  BglProcessStatistics now{};
  ASSERT_EQ(bglGetProcessStatistics(&now), BGL_SUCCESS);
  EXPECT_EQ(now.liveInstances - base.liveInstances,
            static_cast<int>(std::size(kFamilies)));
  EXPECT_EQ(now.instancesCreated - base.instancesCreated, std::size(kFamilies));
  EXPECT_EQ(now.instancesRetired, base.instancesRetired);

  const auto delta = [&](auto field) {
    return now.totals.*field - base.totals.*field;
  };
  EXPECT_EQ(delta(&BglStatistics::partialsOperations), sum.partialsOperations);
  EXPECT_EQ(delta(&BglStatistics::transitionMatrices), sum.transitionMatrices);
  EXPECT_EQ(delta(&BglStatistics::rootEvaluations), sum.rootEvaluations);
  EXPECT_EQ(delta(&BglStatistics::edgeEvaluations), sum.edgeEvaluations);
  EXPECT_EQ(delta(&BglStatistics::rescaleEvents), sum.rescaleEvents);
  EXPECT_EQ(delta(&BglStatistics::scaleAccumulations), sum.scaleAccumulations);
  EXPECT_EQ(delta(&BglStatistics::kernelLaunches), sum.kernelLaunches);
  EXPECT_EQ(delta(&BglStatistics::bytesCopiedIn), sum.bytesCopiedIn);
  EXPECT_EQ(delta(&BglStatistics::bytesCopiedOut), sum.bytesCopiedOut);
  EXPECT_EQ(delta(&BglStatistics::streamedLaunches), sum.streamedLaunches);
  EXPECT_NEAR(now.totals.updatePartialsSeconds - base.totals.updatePartialsSeconds,
              sum.updatePartialsSeconds, 1e-9);

  // Retiring the instances folds their totals into the retired aggregate:
  // the process view must not shrink.
  const unsigned long long createdBefore = now.instancesCreated;
  likes.clear();
  ASSERT_EQ(bglGetProcessStatistics(&now), BGL_SUCCESS);
  EXPECT_EQ(now.liveInstances, base.liveInstances);
  EXPECT_EQ(now.instancesCreated, createdBefore);
  EXPECT_EQ(now.instancesRetired - base.instancesRetired, std::size(kFamilies));
  EXPECT_EQ(delta(&BglStatistics::partialsOperations), sum.partialsOperations);
  EXPECT_EQ(delta(&BglStatistics::kernelLaunches), sum.kernelLaunches);
}

TEST(ObsProcessStatistics, IdleAsyncInstancesReportZeroPendingDepth) {
  // The pending-depth gauge is a level, not a high-water mark: once an
  // instance's streams drain (here at the root readback) it must read 0
  // again. A gauge refreshed only at enqueue would leave each idle instance
  // at its last queue depth, and the process sum would grow with the
  // number of idle instances.
  auto problem = test::makeNucleotideProblem(/*taxa=*/10, /*sites=*/64, 812);
  std::vector<std::unique_ptr<phylo::TreeLikelihood>> likes;
  for (int i = 0; i < 6; ++i) {
    phylo::LikelihoodOptions opts;
    opts.categories = 2;
    opts.requirementFlags = BGL_FLAG_FRAMEWORK_CUDA | BGL_FLAG_COMPUTATION_ASYNCH;
    opts.resources = {perf::kQuadroP5000};
    likes.push_back(std::make_unique<phylo::TreeLikelihood>(
        problem.tree, *problem.model, problem.data, opts));
    likes.back()->logLikelihood();
  }
  BglProcessStatistics now{};
  ASSERT_EQ(bglGetProcessStatistics(&now), BGL_SUCCESS);
  EXPECT_GT(now.pendingDepthMax, 0u);  // the streams did queue work
  EXPECT_EQ(now.pendingDepth, 0u);
}

// ------------------------------------------------- metrics service (JSONL)

std::vector<std::string> readLines(const std::string& path) {
  std::ifstream in(path);
  std::vector<std::string> lines;
  std::string line;
  while (std::getline(in, line)) {
    if (!line.empty()) lines.push_back(line);
  }
  return lines;
}

TEST(ObsMetricsService, WritesPeriodicJsonLinesSnapshots) {
  const std::string path =
      ::testing::TempDir() + "/bgl_metrics_service.jsonl";
  std::remove(path.c_str());
  ASSERT_EQ(bglSetMetricsFile(path.c_str(), 20), BGL_SUCCESS);

  {
    auto problem = test::makeNucleotideProblem(6, 24, 407);
    phylo::LikelihoodOptions opts;
    opts.requirementFlags = BGL_FLAG_THREADING_NONE;
    opts.resources = {perf::kHostCpu};
    phylo::TreeLikelihood like(problem.tree, *problem.model, problem.data,
                               opts);
    for (int i = 0; i < 4; ++i) {
      like.logLikelihood();
      std::this_thread::sleep_for(std::chrono::milliseconds(30));
    }
  }
  // Disabling the service appends one final snapshot and stops the thread.
  ASSERT_EQ(bglSetMetricsFile(nullptr, 0), BGL_SUCCESS);

  const auto lines = readLines(path);
  ASSERT_GE(lines.size(), 2u) << "expected periodic snapshots plus the final";
  for (std::size_t i = 0; i < lines.size(); ++i) {
    EXPECT_NE(lines[i].find("\"schema\":2"), std::string::npos) << lines[i];
    EXPECT_NE(lines[i].find("\"seq\":" + std::to_string(i)),
              std::string::npos)
        << "snapshot sequence must be dense";
    EXPECT_NE(lines[i].find("\"counters\""), std::string::npos);
    EXPECT_NE(lines[i].find("\"deltas\""), std::string::npos);
    EXPECT_NE(lines[i].find("\"gauges\""), std::string::npos);
    EXPECT_NE(lines[i].find("\"journalTotal\""), std::string::npos);
  }
  // The work above must be visible in the final snapshot's cumulative
  // counters (JSON numbers have no leading zeros, so a first digit of '0'
  // means the count is exactly zero).
  const std::string& last = lines.back();
  const std::string key = "\"partialsOperations\":";
  const auto cpos = last.find("\"counters\":{");
  ASSERT_NE(cpos, std::string::npos);
  const auto ppos = last.find(key, cpos);
  ASSERT_NE(ppos, std::string::npos);
  EXPECT_NE(last[ppos + key.size()], '0');
  std::remove(path.c_str());
}

// -------------------------------------------- abnormal-teardown regression

TEST(ObsMetricsService, ErrorFlushesStatsFileBeforeFinalize) {
  const std::string path = ::testing::TempDir() + "/bgl_abnormal_stats.json";
  std::remove(path.c_str());

  const int resource = 0;
  const int inst = bglCreateInstance(
      /*tips=*/4, /*partials=*/3, /*compact=*/4, /*states=*/4, /*patterns=*/16,
      /*eigen=*/1, /*matrices=*/6, /*categories=*/2, /*scale=*/0, &resource, 1,
      0, BGL_FLAG_FRAMEWORK_CUDA | BGL_FLAG_PRECISION_DOUBLE, nullptr);
  ASSERT_GE(inst, 0);
  ASSERT_EQ(bglSetStatsFile(inst, path.c_str()), BGL_SUCCESS);

  std::vector<double> evec(16, 0.0), ivec(16, 0.0), eval(4, 0.0);
  for (int i = 0; i < 4; ++i) evec[i * 4 + i] = ivec[i * 4 + i] = 1.0;
  ASSERT_EQ(
      bglSetEigenDecomposition(inst, 0, evec.data(), ivec.data(), eval.data()),
      BGL_SUCCESS);

  ASSERT_EQ(bglSetFaultSpec("cuda:launch:1"), BGL_SUCCESS);
  const int index = 1;
  const double length = 0.1;
  EXPECT_EQ(bglUpdateTransitionMatrices(inst, 0, &index, nullptr, nullptr,
                                        &length, 1),
            BGL_ERROR_HARDWARE);
  ASSERT_EQ(bglSetFaultSpec(""), BGL_SUCCESS);

  // The contract under test: the error itself flushed the stats file. A
  // client that crashes right now (never calling bglFinalizeInstance) still
  // has a snapshot on disk, journal included.
  std::ostringstream content;
  {
    std::ifstream in(path);
    ASSERT_TRUE(in.good()) << "stats file missing before finalize";
    content << in.rdbuf();
  }
  const std::string json = content.str();
  EXPECT_NE(json.find("\"schema\":2"), std::string::npos);
  EXPECT_NE(json.find("\"journal\""), std::string::npos);
  EXPECT_NE(json.find("faultInjected"), std::string::npos)
      << "fault firing must be in the flushed journal";
  EXPECT_NE(json.find("\"error\""), std::string::npos)
      << "API-surface error record must be in the flushed journal";

  EXPECT_EQ(bglFinalizeInstance(inst), BGL_SUCCESS);
  std::remove(path.c_str());
}

}  // namespace
}  // namespace bgl
