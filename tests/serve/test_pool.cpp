// Serving-layer pool and admission control (src/serve/): free-list
// recycling, grow-on-demand reinit, idle eviction, per-tenant quotas,
// backpressure and load shedding, and the host:alloc fault checkpoint.
// The pool is process-global and its counters are monotone, so every
// assertion below works on deltas taken inside the test.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdio>
#include <fstream>
#include <string>
#include <vector>

#include "perfmodel/device_profiles.h"
#include "serve/admission.h"
#include "serve/pool.h"
#include "tests/serve/serve_test_util.h"

namespace bgl {
namespace {

using serve_test::addRandomTaxa;
using serve_test::resetServing;
using serve_test::setDefaultModel;

class ServePool : public ::testing::Test {
 protected:
  void SetUp() override { resetServing(); }
  void TearDown() override {
    ASSERT_EQ(bglSetFaultSpec(""), BGL_SUCCESS);
    resetServing();
  }

  static BglPoolStatistics stats() {
    BglPoolStatistics s{};
    EXPECT_EQ(bglPoolGetStatistics(&s), BGL_SUCCESS);
    return s;
  }

  /// Journal records appended after `sinceSequence` with the given kind.
  static int journalCountSince(int kind, unsigned long long sinceSequence) {
    int total = 0;
    if (bglGetJournal(nullptr, 0, &total) != BGL_SUCCESS || total == 0) return 0;
    std::vector<BglJournalRecord> records(static_cast<std::size_t>(total));
    int count = 0;
    if (bglGetJournal(records.data(), total, &count) != BGL_SUCCESS) return 0;
    int matches = 0;
    for (int i = 0; i < count; ++i) {
      // Sequences are zero-based: with N records ever appended, the next
      // one gets sequence N.
      if (records[i].kind == kind && records[i].sequence >= sinceSequence) {
        ++matches;
      }
    }
    return matches;
  }

  static unsigned long long journalHead() {
    BglProcessStatistics process{};
    EXPECT_EQ(bglGetProcessStatistics(&process), BGL_SUCCESS);
    return process.journalRecords;
  }
};

TEST_F(ServePool, QuantizesTipCapacityToPowerOfTwoBuckets) {
  EXPECT_EQ(serve::quantizeTipCapacity(0), serve::kMinTipCapacity);
  EXPECT_EQ(serve::quantizeTipCapacity(1), 8);
  EXPECT_EQ(serve::quantizeTipCapacity(8), 8);
  EXPECT_EQ(serve::quantizeTipCapacity(9), 16);
  EXPECT_EQ(serve::quantizeTipCapacity(17), 32);
  EXPECT_EQ(serve::quantizeTipCapacity(33), 64);
}

TEST_F(ServePool, RecyclesFreedInstancesByShapeClass) {
  const auto before = stats();

  const int a = bglSessionOpen("alpha", 4, 64, 2, 0, 0, 0);
  ASSERT_GE(a, 0);
  BglSessionDetails details{};
  ASSERT_EQ(bglSessionGetDetails(a, &details), BGL_SUCCESS);
  const int firstInstance = details.instance;
  ASSERT_EQ(bglSessionClose(a), BGL_SUCCESS);

  // Same shape class: the freed instance is recycled (LIFO), not re-created.
  const int b = bglSessionOpen("beta", 4, 64, 2, 0, 0, 0);
  ASSERT_GE(b, 0);
  ASSERT_EQ(bglSessionGetDetails(b, &details), BGL_SUCCESS);
  EXPECT_EQ(details.instance, firstInstance);

  // A different shape class must NOT reuse it.
  const int c = bglSessionOpen("gamma", 4, 128, 2, 0, 0, 0);
  ASSERT_GE(c, 0);
  BglSessionDetails other{};
  ASSERT_EQ(bglSessionGetDetails(c, &other), BGL_SUCCESS);
  EXPECT_NE(other.instance, firstInstance);

  const auto after = stats();
  EXPECT_EQ(after.instancesRecycled - before.instancesRecycled, 1u);
  EXPECT_EQ(after.instancesCreated - before.instancesCreated, 2u);
  ASSERT_EQ(bglSessionClose(b), BGL_SUCCESS);
  ASSERT_EQ(bglSessionClose(c), BGL_SUCCESS);
}

TEST_F(ServePool, GrowOnDemandReinitKeepsLikelihoodBitIdentical) {
  const auto before = stats();
  const unsigned long long journalBefore = journalHead();

  const int s = bglSessionOpen("grower", 4, 48, 2, 0, 0, 0);
  ASSERT_GE(s, 0);
  ASSERT_EQ(setDefaultModel(s, 4, 2, 5), BGL_SUCCESS);
  ASSERT_EQ(addRandomTaxa(s, 6, 48, 4, 77), BGL_SUCCESS);

  BglSessionDetails details{};
  ASSERT_EQ(bglSessionGetDetails(s, &details), BGL_SUCCESS);
  EXPECT_EQ(details.tipCapacity, serve::kMinTipCapacity);

  // Past the 8-tip bucket: the lease is re-created larger and the session
  // replays its state into the new instance. (The instance id itself may
  // repeat — the registry recycles ids after finalize — so the capacity
  // and the journal record are the observable evidence.)
  ASSERT_EQ(addRandomTaxa(s, 5, 48, 4, 78), BGL_SUCCESS);
  ASSERT_EQ(bglSessionGetDetails(s, &details), BGL_SUCCESS);
  EXPECT_EQ(details.taxa, 11);
  EXPECT_EQ(details.tipCapacity, 16);

  double online = 0.0, full = 0.0;
  ASSERT_EQ(bglSessionLogLikelihood(s, &online), BGL_SUCCESS);
  ASSERT_EQ(bglSessionFullLogLikelihood(s, &full), BGL_SUCCESS);
  EXPECT_TRUE(std::isfinite(online));
  EXPECT_EQ(online, full);  // bitwise

  const auto after = stats();
  EXPECT_EQ(after.reinitGrows - before.reinitGrows, 1u);
  EXPECT_EQ(journalCountSince(BGL_JOURNAL_POOL_REINIT, journalBefore), 1);
  ASSERT_EQ(bglSessionClose(s), BGL_SUCCESS);
}

TEST_F(ServePool, TrimEvictsIdleInstancesAndJournalsThem) {
  const auto before = stats();
  const unsigned long long journalBefore = journalHead();

  const int a = bglSessionOpen("alpha", 4, 80, 1, 0, 0, 0);
  const int b = bglSessionOpen("beta", 20, 40, 2, 0, 0, 0);
  ASSERT_GE(a, 0);
  ASSERT_GE(b, 0);
  ASSERT_EQ(bglSessionClose(a), BGL_SUCCESS);
  ASSERT_EQ(bglSessionClose(b), BGL_SUCCESS);

  auto mid = stats();
  EXPECT_EQ(mid.freeInstances, 2);
  EXPECT_EQ(mid.liveSessions, 0);

  // idleMs 0 sweeps everything regardless of idle time.
  EXPECT_EQ(bglPoolTrim(0), 2);
  const auto after = stats();
  EXPECT_EQ(after.freeInstances, 0);
  EXPECT_EQ(after.pooledInstances, 0);
  EXPECT_EQ(after.evictions - before.evictions, 2u);
  EXPECT_EQ(journalCountSince(BGL_JOURNAL_POOL_EVICT, journalBefore), 2);
}

TEST_F(ServePool, GlobalSessionQuotaRejectsWithStructuredError) {
  BglPoolConfig config{};
  config.maxSessions = 2;
  ASSERT_EQ(bglPoolConfigure(&config), BGL_SUCCESS);
  const auto before = stats();
  const unsigned long long journalBefore = journalHead();

  const int a = bglSessionOpen("t1", 4, 32, 1, 0, 0, 0);
  const int b = bglSessionOpen("t2", 4, 32, 1, 0, 0, 0);
  ASSERT_GE(a, 0);
  ASSERT_GE(b, 0);

  const int c = bglSessionOpen("t3", 4, 32, 1, 0, 0, 0);
  EXPECT_EQ(c, BGL_ERROR_REJECTED);
  EXPECT_NE(std::string(bglGetLastErrorMessage()).find("quota"),
            std::string::npos);

  const auto after = stats();
  EXPECT_EQ(after.rejectedQuota - before.rejectedQuota, 1u);
  EXPECT_EQ(after.admitted - before.admitted, 2u);
  EXPECT_EQ(journalCountSince(BGL_JOURNAL_ADMISSION_REJECT, journalBefore), 1);

  // Closing one frees a slot; the next open is admitted again.
  ASSERT_EQ(bglSessionClose(a), BGL_SUCCESS);
  const int d = bglSessionOpen("t3", 4, 32, 1, 0, 0, 0);
  EXPECT_GE(d, 0);
  ASSERT_EQ(bglSessionClose(b), BGL_SUCCESS);
  ASSERT_EQ(bglSessionClose(d), BGL_SUCCESS);
}

TEST_F(ServePool, PerTenantQuotaIsIndependentAcrossTenants) {
  BglPoolConfig config{};
  config.maxSessionsPerTenant = 1;
  ASSERT_EQ(bglPoolConfigure(&config), BGL_SUCCESS);

  const int a = bglSessionOpen("alpha", 4, 32, 1, 0, 0, 0);
  ASSERT_GE(a, 0);
  EXPECT_EQ(bglSessionOpen("alpha", 4, 32, 1, 0, 0, 0), BGL_ERROR_REJECTED);
  EXPECT_NE(std::string(bglGetLastErrorMessage()).find("tenant"),
            std::string::npos);

  // A different tenant is not affected by alpha's quota.
  const int b = bglSessionOpen("beta", 4, 32, 1, 0, 0, 0);
  EXPECT_GE(b, 0);
  ASSERT_EQ(bglSessionClose(a), BGL_SUCCESS);
  ASSERT_EQ(bglSessionClose(b), BGL_SUCCESS);
}

TEST_F(ServePool, LoadSheddingUsesCalibratedEstimates) {
  // Learn this shape's calibrated load unit from a probe session, then set
  // the ceiling so exactly one such session fits.
  const int probe = bglSessionOpen("probe", 4, 512, 4, 0, 0, 0);
  ASSERT_GE(probe, 0);
  const double unit = stats().estimatedLoadSeconds;
  ASSERT_EQ(bglSessionClose(probe), BGL_SUCCESS);
  ASSERT_GT(unit, 0.0);

  BglPoolConfig config{};
  config.maxEstimatedLoad = unit * 1.5;
  ASSERT_EQ(bglPoolConfigure(&config), BGL_SUCCESS);
  const auto before = stats();

  const int a = bglSessionOpen("t", 4, 512, 4, 0, 0, 0);
  ASSERT_GE(a, 0);
  EXPECT_EQ(bglSessionOpen("t", 4, 512, 4, 0, 0, 0), BGL_ERROR_REJECTED);
  EXPECT_NE(std::string(bglGetLastErrorMessage()).find("load"),
            std::string::npos);

  const auto after = stats();
  EXPECT_EQ(after.rejectedLoad - before.rejectedLoad, 1u);
  ASSERT_EQ(bglSessionClose(a), BGL_SUCCESS);
  // Closing releases the charged load again.
  EXPECT_LT(stats().estimatedLoadSeconds, unit * 0.5);
}

TEST_F(ServePool, BackpressureRejectionPath) {
  // The C API clamps non-positive maxPendingDepth to the default, so the
  // controller is exercised directly: any pending depth (including zero)
  // exceeds a negative limit.
  serve::AdmissionController controller;
  serve::AdmissionConfig config;
  config.maxPendingDepth = -1;
  controller.setConfig(config);

  std::string reason;
  EXPECT_FALSE(controller.admit("tenant", 0.0, &reason));
  EXPECT_NE(reason.find("backpressure"), std::string::npos);
  EXPECT_EQ(controller.counters().rejectedBackpressure, 1u);
  EXPECT_EQ(controller.liveSessions(), 0);
}

TEST_F(ServePool, IdlePooledAcceleratorInstancesDoNotTriggerBackpressure) {
  // Regression: backpressure sums the pending-depth gauges of live
  // instances. Those gauges used to be set only at enqueue, so every idle
  // pooled instance kept its last depth (about 13 launches here) and, under
  // default limits, opens on the simulated Quadro were refused from roughly
  // the 317th session on. Each session grows past the 8-tip bucket, so its
  // instance returns to a free list no later open matches: idle instances
  // accumulate for the whole loop.
  const auto before = stats();
  for (int i = 0; i < 400; ++i) {
    const int s = bglSessionOpen("burst", 4, 32, 2, perf::kQuadroP5000, 0, 0);
    ASSERT_GE(s, 0) << "session " << i << ": " << bglGetLastErrorMessage();
    ASSERT_EQ(setDefaultModel(s, 4, 2, 11), BGL_SUCCESS);
    ASSERT_EQ(addRandomTaxa(s, 10, 32, 4, 100 + i), BGL_SUCCESS);
    double logL = 0.0;
    ASSERT_EQ(bglSessionLogLikelihood(s, &logL), BGL_SUCCESS);
    ASSERT_EQ(bglSessionClose(s), BGL_SUCCESS);
  }
  EXPECT_EQ(stats().rejectedBackpressure, before.rejectedBackpressure);
}

TEST_F(ServePool, RejectedTenantLeavesNoQuotaEntry) {
  // Regression: the per-tenant quota check used operator[] on the tenant
  // map, so a rejected never-admitted tenant left a permanent zero entry
  // behind — an unbounded-growth leak under a stream of unique rejected
  // tenant names. The check must be read-only on refusal.
  serve::AdmissionController controller;
  serve::AdmissionConfig config;
  config.maxSessions = 0;  // reject everyone at the global quota
  controller.setConfig(config);

  std::string reason;
  for (int i = 0; i < 16; ++i) {
    EXPECT_FALSE(controller.admit("drive-by-" + std::to_string(i), 0.0, &reason));
  }
  EXPECT_EQ(controller.trackedTenants(), 0u);
  EXPECT_EQ(controller.liveSessions(), 0);

  // Same for a per-tenant quota refusal: with maxSessionsPerTenant == 0
  // the tenant is refused before ever being tracked, and the refusal must
  // not start tracking it.
  config.maxSessions = 64;
  config.maxSessionsPerTenant = 0;
  controller.setConfig(config);
  EXPECT_FALSE(controller.admit("untracked", 0.0, &reason));
  EXPECT_NE(reason.find("quota"), std::string::npos);
  EXPECT_EQ(controller.trackedTenants(), 0u);

  // An admitted tenant is tracked, and release at zero erases the entry.
  config.maxSessionsPerTenant = 8;
  controller.setConfig(config);
  EXPECT_TRUE(controller.admit("real", 0.0, &reason));
  EXPECT_EQ(controller.trackedTenants(), 1u);
  controller.releaseSession("real", 0.0);
  EXPECT_EQ(controller.trackedTenants(), 0u);
}

TEST_F(ServePool, HostAllocFaultFailsPooledCreationOnce) {
  const unsigned long long journalBefore = journalHead();
  // The free list is empty (SetUp trims), so this open must create — and
  // the armed one-shot host allocation fault fails exactly that creation.
  ASSERT_EQ(bglSetFaultSpec("host:alloc:1"), BGL_SUCCESS);
  EXPECT_EQ(bglSessionOpen("faulty", 4, 32, 1, 0, 0, 0),
            BGL_ERROR_OUT_OF_MEMORY);
  EXPECT_NE(std::string(bglGetLastErrorMessage()).find("fault"),
            std::string::npos);
  EXPECT_EQ(journalCountSince(BGL_JOURNAL_FAULT_INJECTED, journalBefore), 1);

  // One-shot: the retry creates successfully.
  const int s = bglSessionOpen("faulty", 4, 32, 1, 0, 0, 0);
  EXPECT_GE(s, 0);
  ASSERT_EQ(bglSessionClose(s), BGL_SUCCESS);
}

TEST_F(ServePool, HostAllocFaultFailsGrowReinit) {
  const int s = bglSessionOpen("grower", 4, 32, 1, 0, 0, 0);
  ASSERT_GE(s, 0);
  ASSERT_EQ(setDefaultModel(s, 4, 1, 3), BGL_SUCCESS);
  ASSERT_EQ(addRandomTaxa(s, 8, 32, 4, 31), BGL_SUCCESS);

  // The 9th taxon needs a grow reinit; its creation is the next host
  // allocation checkpoint.
  ASSERT_EQ(bglSetFaultSpec("host:alloc:1"), BGL_SUCCESS);
  std::vector<int> tip(32, 0);
  EXPECT_EQ(bglSessionAddTaxon(s, tip.data(), 0, 0.1, 0.1),
            BGL_ERROR_OUT_OF_MEMORY);
  ASSERT_EQ(bglSetFaultSpec(""), BGL_SUCCESS);
  // The grow path finalizes the old instance before creating the larger
  // one, so the session is dead after the failure; close still succeeds.
  EXPECT_EQ(bglSessionClose(s), BGL_SUCCESS);
}

TEST_F(ServePool, HostFaultGrammarOnlySupportsAlloc) {
  EXPECT_EQ(bglSetFaultSpec("host:alloc:2"), BGL_SUCCESS);
  EXPECT_EQ(bglSetFaultSpec(""), BGL_SUCCESS);
  EXPECT_EQ(bglSetFaultSpec("host:launch:1"), BGL_ERROR_OUT_OF_RANGE);
  EXPECT_NE(std::string(bglGetLastErrorMessage()).find("alloc"),
            std::string::npos);
  EXPECT_EQ(bglSetFaultSpec("host:memcpy:1"), BGL_ERROR_OUT_OF_RANGE);
  // Device-scoped directives must not fire at the host checkpoint: arm a
  // cuda alloc budget and create through the pool with a CPU-serial
  // requirement (flags 0 could select a simulated-accelerator impl whose
  // own device-alloc checkpoint would consume the budget).
  ASSERT_EQ(bglSetFaultSpec("cuda:alloc:1"), BGL_SUCCESS);
  const int s = bglSessionOpen("host", 4, 32, 1, 0, 0,
                               BGL_FLAG_THREADING_NONE | BGL_FLAG_VECTOR_NONE);
  EXPECT_GE(s, 0) << bglGetLastErrorMessage();
  ASSERT_EQ(bglSessionClose(s), BGL_SUCCESS);
}

TEST_F(ServePool, PoolConfigureNullRestoresDefaults) {
  BglPoolConfig config{};
  config.maxSessions = 1;
  ASSERT_EQ(bglPoolConfigure(&config), BGL_SUCCESS);
  const int a = bglSessionOpen("t", 4, 32, 1, 0, 0, 0);
  ASSERT_GE(a, 0);
  EXPECT_EQ(bglSessionOpen("t", 4, 32, 1, 0, 0, 0), BGL_ERROR_REJECTED);

  ASSERT_EQ(bglPoolConfigure(nullptr), BGL_SUCCESS);
  const int b = bglSessionOpen("t", 4, 32, 1, 0, 0, 0);
  EXPECT_GE(b, 0);
  ASSERT_EQ(bglSessionClose(a), BGL_SUCCESS);
  ASSERT_EQ(bglSessionClose(b), BGL_SUCCESS);
}

TEST_F(ServePool, MetricsSnapshotsCarryTheServeObject) {
  // Metrics schema 2 (docs/OBSERVABILITY.md): once the serving layer has
  // been used, every JSON-lines snapshot carries a "serve" object with the
  // pool gauges and admission counters.
  const std::string path = ::testing::TempDir() + "/bgl_serve_metrics.jsonl";
  std::remove(path.c_str());

  const int s = bglSessionOpen("metrics", 4, 32, 1, 0, 0, 0);
  ASSERT_GE(s, 0);
  ASSERT_EQ(bglSetMetricsFile(path.c_str(), 20), BGL_SUCCESS);
  ASSERT_EQ(bglSessionClose(s), BGL_SUCCESS);
  ASSERT_EQ(bglSetMetricsFile(nullptr, 0), BGL_SUCCESS);

  std::ifstream in(path);
  ASSERT_TRUE(in.is_open());
  std::string line, last;
  bool sawServe = false;
  while (std::getline(in, line)) {
    if (!line.empty()) last = line;
    if (line.find("\"serve\":{") != std::string::npos) sawServe = true;
  }
  EXPECT_TRUE(sawServe) << last;
  EXPECT_NE(last.find("\"schema\":2"), std::string::npos) << last;
  EXPECT_NE(last.find("\"admitted\":"), std::string::npos) << last;
  EXPECT_NE(last.find("\"pooledInstances\":"), std::string::npos) << last;
  std::remove(path.c_str());
}

TEST_F(ServePool, SessionApiValidatesArguments) {
  EXPECT_EQ(bglSessionClose(12345), BGL_ERROR_OUT_OF_RANGE);
  double logL = 0.0;
  EXPECT_EQ(bglSessionLogLikelihood(9876, &logL), BGL_ERROR_OUT_OF_RANGE);
  EXPECT_EQ(bglSessionOpen("t", 1, 32, 1, 0, 0, 0), BGL_ERROR_OUT_OF_RANGE);
  EXPECT_EQ(bglSessionOpen("t", 4, 32, 1, 999, 0, 0), BGL_ERROR_OUT_OF_RANGE);

  const int s = bglSessionOpen("t", 4, 32, 1, 0, 0, 0);
  ASSERT_GE(s, 0);
  // Too few taxa / no model yet.
  EXPECT_EQ(bglSessionLogLikelihood(s, &logL), BGL_ERROR_OUT_OF_RANGE);
  EXPECT_EQ(bglSessionSetBranch(s, 0, 0.1), BGL_ERROR_OUT_OF_RANGE);
  EXPECT_EQ(bglSessionAddTaxon(s, nullptr, 0, 0.1, 0.1), BGL_ERROR_OUT_OF_RANGE);
  ASSERT_EQ(bglSessionClose(s), BGL_SUCCESS);
  // Double close: the id is dead.
  EXPECT_EQ(bglSessionClose(s), BGL_ERROR_OUT_OF_RANGE);
}

}  // namespace
}  // namespace bgl
