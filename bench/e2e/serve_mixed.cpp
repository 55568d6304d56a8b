// serve-mixed: two closed-loop tenants replaying seeded analysis sessions
// against the serving layer (bglSession*) on the host resource.
//
// Each session opens one of the three shape classes of
// bench/traces/mixed_clients.trace (states x patterns x categories 4x300x4,
// 4x200x1, 20x120x2; THREADING_NONE), sets a model, grows its tree one taxon
// at a time with an online eval after each (6-15 taxa), moves 10 branches
// with an eval after each, recomputes in full once and closes. Writes
// interleave with reads, about half the sessions outgrow the pool's 8-tip
// bucket and reinit, and the kernels stay tiny: pool recycling,
// grow-on-demand and admission set the time.
#include <barrier>
#include <memory>
#include <stdexcept>
#include <thread>

#include "api/levelize.h"
#include "bench/e2e/e2e.h"
#include "core/gamma.h"
#include "core/model.h"
#include "kernels/workload.h"
#include "phylo/seqsim.h"
#include "phylo/tree.h"

namespace bgl::e2e {
namespace {

struct Shape {
  int states, patterns, categories;
};
constexpr Shape kShapes[] = {{4, 300, 4}, {4, 200, 1}, {20, 120, 2}};
constexpr int kShapeCount = 3;
constexpr int kTenants = 2;
constexpr int kMinTaxa = 6;
constexpr int kMaxTaxa = 15;
constexpr int kBranchMoves = 10;
constexpr int kWarmupSessions = 200;
constexpr long kFlags = BGL_FLAG_THREADING_NONE | BGL_FLAG_PRECISION_DOUBLE;
// A session that grows past 8 tips returns a 16-tip instance to the free
// list, where opens (always 8-tip) never match it. Under the default 30 s
// idle eviction those instances pile up to thousands within one run, so
// the pool evicts after 100 ms here and memory stays flat.
constexpr int kIdleEvictMs = 100;

/// One session's inputs, generated before anything is timed.
struct Script {
  Shape shape;
  int taxa = 0;
  std::vector<double> evec, ivec, eval, freqs, weights, rates;
  std::vector<int> tips;       ///< taxa x patterns
  std::uint64_t moveSeed = 0;  ///< attach points, branch choices and lengths
};

Script makeScript(Rng& rng, int shape, int taxa) {
  Script s;
  s.shape = kShapes[shape];
  s.taxa = taxa;
  const auto model = defaultModelForStates(s.shape.states, rng.next());
  auto es = model->eigenSystem();
  s.evec = std::move(es.evec);
  s.ivec = std::move(es.ivec);
  s.eval = std::move(es.eval);
  s.freqs = model->frequencies();
  s.weights.assign(s.shape.categories, 1.0 / s.shape.categories);
  s.rates = s.shape.categories > 1 ? discreteGammaRates(0.5, s.shape.categories)
                                   : std::vector<double>{1.0};
  s.tips = phylo::randomStates(taxa, s.shape.patterns, s.shape.states, rng);
  s.moveSeed = rng.next();
  return s;
}

/// A tenant's session scripts: every (shape class, taxon count) pair twice,
/// in seeded order. The mix is the same for every seed, so seeds change the
/// data and the trees but not how many heavy sessions a run holds.
std::vector<Script> tenantScripts(Rng& rng) {
  std::vector<Script> scripts;
  for (int copy = 0; copy < 2; ++copy) {
    for (int shape = 0; shape < kShapeCount; ++shape) {
      for (int taxa = kMinTaxa; taxa <= kMaxTaxa; ++taxa) {
        scripts.push_back(makeScript(rng, shape, taxa));
      }
    }
  }
  for (std::size_t i = scripts.size() - 1; i > 0; --i) {
    std::swap(scripts[i], scripts[rng.below(i + 1)]);
  }
  return scripts;
}

enum Call { kOpen, kSetModel, kAddTaxon, kSetBranch, kOnlineEval, kFullEval, kClose,
            kCallKinds };
constexpr const char* kCallNames[kCallKinds] = {
    "open", "set_model", "add_taxon", "set_branch", "online_eval", "full_eval", "close"};

/// What one tenant measured in one phase.
struct Tally {
  Window window;                    ///< one latency per completed session
  std::vector<double> onlineMs;     ///< one write plus the eval after it
  std::vector<double> callMs[kCallKinds];  ///< traced phase only
  double partialsFlops = 0, partialsBytes = 0, matrixFlops = 0, modeledSeconds = 0;
  long sessions = 0, failed = 0, refused = 0, mismatches = 0;
  std::string error;
};

/// Counters and timeline of the instance a session leases right now.
struct Probe {
  BglStatistics stats{};
  BglTimeline timeline{};
};

Probe probe(int session) {
  Probe p;
  BglSessionDetails details{};
  bglSessionGetDetails(session, &details);
  bglGetStatistics(details.instance, &p.stats);
  bglGetTimeline(details.instance, &p.timeline);
  return p;
}

/// Run one scripted session. Traced sessions also time every call and
/// probe the leased instance around each eval; probe time is left out of
/// the session's latency.
void runSession(const Script& s, const char* tenant, bool traced, Tally& out) {
  const auto start = Clock::now();
  double probeSeconds = 0.0;
  const auto timed = [&](Call kind, auto&& call) {
    const auto t0 = Clock::now();
    const int rc = call();
    if (traced) out.callMs[kind].push_back(secondsBetween(t0, Clock::now()) * 1e3);
    return rc;
  };
  const Shape& shape = s.shape;
  const int session = timed(kOpen, [&] {
    return bglSessionOpen(tenant, shape.states, shape.patterns, shape.categories, 0, 0,
                          kFlags);
  });
  if (session == BGL_ERROR_REJECTED) {
    ++out.refused;
    return;
  }
  if (session < 0) {
    ++out.failed;
    if (out.error.empty()) out.error = apiError("bglSessionOpen", session);
    return;
  }
  const auto evaluate = [&](Call kind, double* logL) {
    Probe before;
    if (traced) {
      const auto p0 = Clock::now();
      before = probe(session);
      probeSeconds += secondsBetween(p0, Clock::now());
    }
    const int rc = timed(kind, [&] {
      return kind == kOnlineEval ? bglSessionLogLikelihood(session, logL)
                                 : bglSessionFullLogLikelihood(session, logL);
    });
    if (traced) {
      const auto p0 = Clock::now();
      const Probe after = probe(session);
      const double ops = static_cast<double>(after.stats.partialsOperations -
                                             before.stats.partialsOperations);
      out.partialsFlops +=
          ops * kernels::partialsFlops(shape.patterns, shape.categories, shape.states);
      out.partialsBytes += ops * kernels::partialsBytes(shape.patterns, shape.categories,
                                                        shape.states, sizeof(double));
      out.matrixFlops += static_cast<double>(after.stats.transitionMatrices -
                                             before.stats.transitionMatrices) *
                         kernels::matrixFlops(shape.categories, shape.states, false);
      out.modeledSeconds += after.timeline.modeledSeconds - before.timeline.modeledSeconds;
      probeSeconds += secondsBetween(p0, Clock::now());
    }
    return rc;
  };
  // Latency of one online update: the write plus the eval after it.
  const auto online = [&](Clock::time_point writeStart, double probeBefore) {
    out.onlineMs.push_back(
        (secondsBetween(writeStart, Clock::now()) - (probeSeconds - probeBefore)) * 1e3);
  };

  Rng moves(s.moveSeed);
  double onlineLogL = 0.0;
  int rc = timed(kSetModel, [&] {
    return bglSessionSetModel(session, s.evec.data(), s.ivec.data(), s.eval.data(),
                              s.freqs.data(), s.weights.data(), s.rates.data(), nullptr);
  });
  for (int t = 0; rc >= 0 && t < s.taxa; ++t) {
    const auto w0 = Clock::now();
    const double p0 = probeSeconds;
    rc = timed(kAddTaxon, [&] {
      BglSessionDetails details{};
      bglSessionGetDetails(session, &details);
      const int attach = details.nodes > 0 ? moves.belowInt(details.nodes) : 0;
      const double distal = moves.uniform(0.01, 0.3);
      const double pendant = moves.uniform(0.01, 0.3);
      return bglSessionAddTaxon(
          session, s.tips.data() + static_cast<std::size_t>(t) * shape.patterns, attach,
          distal, pendant);
    });
    if (rc >= 0 && t >= 1) {
      rc = evaluate(kOnlineEval, &onlineLogL);
      online(w0, p0);
    }
  }
  for (int m = 0; rc >= 0 && m < kBranchMoves; ++m) {
    const auto w0 = Clock::now();
    const double p0 = probeSeconds;
    rc = timed(kSetBranch, [&] {
      BglSessionDetails details{};
      bglSessionGetDetails(session, &details);
      int node = details.root;
      while (node == details.root) node = moves.belowInt(details.nodes);
      return bglSessionSetBranch(session, node, moves.uniform(0.01, 0.5));
    });
    if (rc >= 0) {
      rc = evaluate(kOnlineEval, &onlineLogL);
      online(w0, p0);
    }
  }
  double fullLogL = 0.0;
  if (rc >= 0) rc = evaluate(kFullEval, &fullLogL);
  if (rc < 0 && out.error.empty()) out.error = apiError("session call", rc);
  const int closed = timed(kClose, [&] { return bglSessionClose(session); });
  if (rc < 0 || closed != BGL_SUCCESS) {
    ++out.failed;
    return;
  }
  // Output check: the last online (dirty-path) eval saw the same tree as the
  // full recompute, so the two must agree bitwise.
  if (fullLogL != onlineLogL) {
    ++out.mismatches;
    return;
  }
  ++out.sessions;
  out.window.latencyMs.push_back(
      (secondsBetween(start, Clock::now()) - probeSeconds) * 1e3);
  out.window.done.push_back(Clock::now());
  out.window.units += 1;
}

/// Set-up on a cold pool: one full session of every shape class, each
/// growing to the largest tree, so it pays every first-use instance
/// creation and reinit.
double coldStart(const std::vector<Script>& firstUse, Tally& out) {
  bglPoolTrim(0);
  const auto t0 = Clock::now();
  for (const Script& s : firstUse) runSession(s, "setup", false, out);
  return secondsBetween(t0, Clock::now());
}

Window merge(const Tally* tallies, Clock::time_point start) {
  Window w;
  w.start = start;
  w.end = start;
  for (int t = 0; t < kTenants; ++t) {
    const Window& part = tallies[t].window;
    w.latencyMs.insert(w.latencyMs.end(), part.latencyMs.begin(), part.latencyMs.end());
    w.done.insert(w.done.end(), part.done.begin(), part.done.end());
    w.units += part.units;
    for (const auto& at : part.done) w.end = std::max(w.end, at);
  }
  return w;
}

}  // namespace

void runServeMixed(const RunConfig& config, Report& report) {
  BglPoolConfig pool{};
  pool.idleEvictMs = kIdleEvictMs;
  bglPoolConfigure(&pool);
  report.work("tenants", kTenants);
  report.work("min_taxa", kMinTaxa);
  report.work("max_taxa", kMaxTaxa);
  report.work("branch_moves", kBranchMoves);
  report.work("warmup_sessions", kWarmupSessions / config.warmupDivisor);
  report.work("idle_evict_ms", kIdleEvictMs);

  std::vector<Script> scripts[kTenants];
  for (int t = 0; t < kTenants; ++t) {
    Rng rng = stream(config.seed, 10 + t);
    scripts[t] = tenantScripts(rng);
  }
  std::vector<Script> firstUse;
  Rng setupRng = stream(config.seed, 20);
  for (int shape = 0; shape < kShapeCount; ++shape) {
    firstUse.push_back(makeScript(setupRng, shape, kMaxTaxa));
  }
  Tally cold;
  std::vector<double> setup = {coldStart(firstUse, cold)};

  // Phases: warm-up, the untraced window, then (traced runs) the traced
  // window. Both tenants wait at the barrier between phases; its completion
  // step opens the next window, so both see the same start and deadline.
  Tally warm[kTenants], untraced[kTenants], traced[kTenants];
  Clock::time_point windowStart[2], deadline;
  std::unique_ptr<TraceWindow> trace;
  std::string traceError;
  BglPoolStatistics poolBefore{};
  int phase = 0;
  const auto nextPhase = [&]() noexcept {
    if (phase == 1) {
      try {
        trace = std::make_unique<TraceWindow>(config.outDir);
      } catch (const std::exception& e) {
        traceError = e.what();
      }
      bglPoolGetStatistics(&poolBefore);
    }
    const double seconds = phase == 0 ? config.untracedSeconds() : config.tracedSeconds();
    windowStart[phase] = Clock::now();
    deadline = windowStart[phase] + std::chrono::duration_cast<Clock::duration>(
                                        std::chrono::duration<double>(seconds));
    ++phase;
  };
  std::barrier sync(kTenants, nextPhase);

  const auto tenant = [&](int t) {
    const std::string name = "tenant" + std::to_string(t);
    std::size_t next = 0;
    const auto session = [&](bool tracedCall, Tally& out) {
      runSession(scripts[t][next++ % scripts[t].size()], name.c_str(), tracedCall, out);
    };
    // Every tenant must reach each barrier, whatever a phase throws.
    const auto guarded = [&](Tally& out, auto&& body) {
      try {
        body();
      } catch (const std::exception& e) {
        ++out.failed;
        if (out.error.empty()) out.error = e.what();
      }
    };
    guarded(warm[t], [&] {
      for (int i = 0; i < kWarmupSessions / kTenants / config.warmupDivisor; ++i) {
        session(false, warm[t]);
      }
    });
    sync.arrive_and_wait();
    guarded(untraced[t], [&] {
      do session(false, untraced[t]);
      while (Clock::now() < deadline);
    });
    if (!config.traced) return;
    sync.arrive_and_wait();
    guarded(traced[t], [&] {
      do session(true, traced[t]);
      while (Clock::now() < deadline);
    });
  };
  {
    std::vector<std::jthread> threads;
    for (int t = 0; t < kTenants; ++t) threads.emplace_back(tenant, t);
  }
  if (!traceError.empty()) throw std::runtime_error(traceError);

  const Window untracedWindow = merge(untraced, windowStart[0]);
  reportEndToEnd(untracedWindow, 25, 1.0, report);
  std::vector<double> onlineMs;
  for (const Tally& tally : untraced) {
    onlineMs.insert(onlineMs.end(), tally.onlineMs.begin(), tally.onlineMs.end());
  }
  report.set("online_p50_ms", quantile(onlineMs, 0.50), "ms");
  report.set("online_p99_ms", quantile(onlineMs, 0.99), "ms");

  if (config.traced) {
    trace->stop();
    BglPoolStatistics poolAfter{};
    bglPoolGetStatistics(&poolAfter);
    const Window tracedWindow = merge(traced, windowStart[1]);
    const double wall = latencySeconds(tracedWindow);
    const double sessionsTraced = tracedWindow.units;

    LayerInputs layers;
    layers.units = sessionsTraced;
    layers.unitWallSeconds = wall;
    layers.glueMetric = "serve.glue_share";
    double modeled = 0.0;
    for (const Tally& tally : traced) {
      for (int c = 0; c < kCallKinds; ++c) {
        for (double ms : tally.callMs[c]) layers.entryCallSeconds += ms * 1e-3;
      }
      layers.partialsFlops += tally.partialsFlops;
      layers.partialsBytes += tally.partialsBytes;
      layers.matrixFlops += tally.matrixFlops;
      modeled += tally.modeledSeconds;
    }
    reportLayers(*trace, layers, report);
    reportTraceOverhead(untracedWindow, tracedWindow, report);
    report.set("accel.modeled_device_ms", modeled * 1e3 / sessionsTraced, "ms", "modeled");

    for (int c = 0; c < kCallKinds; ++c) {
      std::vector<double> ms;
      for (const Tally& tally : traced) {
        ms.insert(ms.end(), tally.callMs[c].begin(), tally.callMs[c].end());
      }
      double total = 0.0;
      for (double v : ms) total += v;
      const std::string name = std::string("serve.") + kCallNames[c];
      report.set(name + "_share", total * 1e-3 / wall, "share");
      report.set(name + "_ms_p50", quantile(ms, 0.50), "ms");
      report.set(name + "_ms_p99", quantile(ms, 0.99), "ms");
    }
    const double admitted = static_cast<double>(poolAfter.admitted - poolBefore.admitted);
    report.set("serve.recycle_ratio",
               admitted > 0 ? static_cast<double>(poolAfter.instancesRecycled -
                                                  poolBefore.instancesRecycled) /
                                  admitted
                            : 0.0,
               "ratio");
    report.set("serve.reinit_grows_per_session",
               static_cast<double>(poolAfter.reinitGrows - poolBefore.reinitGrows) /
                   sessionsTraced,
               "count");
    report.set("serve.pooled_instances_end", poolAfter.pooledInstances, "count");
    report.set("serve.rejected_quota",
               static_cast<double>(poolAfter.rejectedQuota - poolBefore.rejectedQuota),
               "count");
    report.set("serve.rejected_backpressure",
               static_cast<double>(poolAfter.rejectedBackpressure -
                                   poolBefore.rejectedBackpressure),
               "count");
    report.set("serve.rejected_load",
               static_cast<double>(poolAfter.rejectedLoad - poolBefore.rejectedLoad),
               "count");

    // The batch a full recompute of the largest session tree levelizes.
    Rng treeRng = stream(config.seed, 30);
    const auto batch = phylo::Tree::random(kMaxTaxa, treeRng).operations();
    std::vector<int> level;
    report.set("api.levelize_us", medianCallMicros([&] {
                 levelizeOperations(batch.data(), static_cast<int>(batch.size()), level);
                 keep(level.data());
               }),
               "us");
  }

  while (static_cast<int>(setup.size()) < config.setupReps) {
    setup.push_back(coldStart(firstUse, cold));
  }
  report.set("setup_s", median(setup), "s");

  long failed = 0, refused = 0, mismatches = 0, sessions = 0;
  std::string error;
  std::vector<const Tally*> tallies = {&cold};
  for (int t = 0; t < kTenants; ++t) {
    tallies.insert(tallies.end(), {&warm[t], &untraced[t], &traced[t]});
  }
  for (const Tally* tally : tallies) {
    failed += tally->failed;
    refused += tally->refused;
    mismatches += tally->mismatches;
    sessions += tally->sessions + tally->failed + tally->refused + tally->mismatches;
    if (error.empty()) error = tally->error;
  }
  report.attempted += sessions;
  report.failed += failed + refused + mismatches;
  report.check("every session opened, ran and closed", failed == 0 && refused == 0,
               std::to_string(failed) + " failed, " + std::to_string(refused) +
                   " refused" + (error.empty() ? "" : "; first error: " + error));
  report.check("last online eval bitwise equal to the full recompute", mismatches == 0,
               std::to_string(mismatches) + " of " + std::to_string(sessions) +
                   " sessions differ");
}

}  // namespace bgl::e2e
