// genomictest — the library's synthetic benchmarking and validation tool
// (Section V-A of the paper): generates random datasets of arbitrary size
// and reports partial-likelihoods throughput in effective GFLOPS for any
// implementation/resource combination.
//
// Examples:
//   genomictest --list
//   genomictest --tips 16 --patterns 10000 --states 4 --reps 5
//   genomictest --states 61 --framework opencl --resource 2 --single
//   genomictest --threading pool --threads 8
//   genomictest --framework opencl --kernel x86 --workgroup 512
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <string>
#include <vector>

#include "api/bgl.h"
#include "harness/genomictest.h"
#include "harness/serve_trace.h"
#include "tools/argparse.h"
#include "tools/watch.h"

namespace {

void printUsage(const char* program) {
  std::printf(
      "usage: %s [options]\n"
      "  --list                 list hardware resources and exit\n"
      "  --tips N               taxa (default 16)\n"
      "  --patterns N           unique site patterns (default 10000)\n"
      "  --states N             4 (nucleotide), 20 (amino acid), 61 (codon)\n"
      "  --categories N         rate categories (default 4)\n"
      "  --reps N               timed repetitions, best-of (default 5)\n"
      "  --single               single precision (default double)\n"
      "  --resource N           resource id (default 0 = host CPU)\n"
      "  --framework F          cpu | cuda | opencl\n"
      "  --threading T          none | futures | create | pool\n"
      "  --vector V             none | sse | avx\n"
      "  --kernel K             gpu | x86 (accelerator kernel variant)\n"
      "  --threads N            thread count / device fission\n"
      "  --workgroup N          patterns per work-group (x86 kernels)\n"
      "  --no-fma               disable fused-multiply-add kernels\n"
      "  --async                require the asynchronous command-stream /\n"
      "                         level-order batched execution path (default\n"
      "                         behavior when neither toggle is given)\n"
      "  --sync                 require the synchronous per-operation path\n"
      "                         (the bit-identical reference; see\n"
      "                         docs/PERFORMANCE.md)\n"
      "  --pipelined            run the multi-round cross-call pipelined\n"
      "                         workload (implies --async; round N+1 matrices\n"
      "                         overlap round N partials on a second stream)\n"
      "  --rounds N             rounds for --pipelined (default 6)\n"
      "  --seed N               RNG seed (default 1234)\n"
      "  --trace FILE           write a Chrome trace (chrome://tracing) JSON\n"
      "  --stats-json FILE      write per-operation counters/timings as JSON\n"
      "  --auto-resource        benchmark all resources, run on the fastest\n"
      "  --model-estimate       with --auto-resource: rank by perf model\n"
      "                         instead of running calibrations\n"
      "  --partitions N         evaluate N gene partitions (each with its own\n"
      "                         substitution model and a slice of --patterns)\n"
      "                         batched into one multi-partition instance\n"
      "                         (fused level-order launches; see\n"
      "                         docs/PERFORMANCE.md, Multi-partition\n"
      "                         evaluation)\n"
      "  --validate-partitions  with --partitions: compare every partition's\n"
      "                         logL bitwise against a single-partition\n"
      "                         instance with the same options (mismatch\n"
      "                         exits nonzero)\n"
      "  --split N              split patterns across N instances (alternating\n"
      "                         threaded / serial CPU shards; with --fault,\n"
      "                         even shards run on the CUDA runtime instead)\n"
      "  --balance MODE         equal | prop | adaptive split (default equal)\n"
      "  --rebalance            shorthand for --balance adaptive\n"
      "  --watch MS             print live process statistics every MS\n"
      "                         milliseconds and a journal summary at exit\n"
      "  --metrics-file FILE    stream periodic JSON-lines metrics snapshots\n"
      "                         to FILE (period from --watch, default 500 ms;\n"
      "                         see docs/OBSERVABILITY.md)\n"
      "  --fault SPEC           arm deterministic fault injection before the\n"
      "                         run ([cuda:|opencl:|host:]launch|memcpy|alloc:N,\n"
      "                         comma-separated; see docs/ROBUSTNESS.md)\n"
      "  --serve FILE           replay a serving-layer trace file (many\n"
      "                         tenants, online tree updates) through the\n"
      "                         bglPool*/bglSession* API and print replay\n"
      "                         statistics; see docs/SERVING.md\n"
      "  --serve-verbose        with --serve: print one line per command\n"
      "  --max-sessions N       with --serve: global session quota\n"
      "  --max-per-tenant N     with --serve: per-tenant session quota\n"
      "  --max-load SECONDS     with --serve: estimated-load shedding limit\n"
      "  --validate-split       with --split: also run a serial host-CPU\n"
      "                         single-instance reference and compare logL\n"
      "                         (implied by --fault; mismatch exits nonzero)\n",
      program);
}

}  // namespace

int main(int argc, char** argv) {
  using namespace bgl;
  tools::Args args(argc, argv);

  if (args.has("help")) {
    printUsage(args.program().c_str());
    return 0;
  }
  if (args.has("list")) {
    BglResourceList* list = bglGetResourceList();
    std::printf("%-4s %-28s %s\n", "id", "name", "description");
    for (int r = 0; r < list->length; ++r) {
      std::printf("%-4d %-28s %s\n", r, list->list[r].name,
                  list->list[r].description);
    }
    return 0;
  }

  harness::ProblemSpec spec;
  spec.tips = args.getInt("tips", 16);
  spec.patterns = args.getInt("patterns", 10000);
  spec.states = args.getInt("states", 4);
  spec.categories = args.getInt("categories", 4);
  spec.reps = args.getInt("reps", 5);
  spec.singlePrecision = args.has("single");
  spec.resource = args.getInt("resource", 0);
  spec.threadCount = args.getInt("threads", 0);
  spec.workGroupSize = args.getInt("workgroup", 0);
  spec.seed = static_cast<unsigned>(args.getInt("seed", 1234));
  spec.traceFile = args.get("trace");
  spec.statsFile = args.get("stats-json");

  const std::string framework = args.get("framework");
  if (framework == "cpu") spec.requirementFlags |= BGL_FLAG_FRAMEWORK_CPU;
  if (framework == "cuda") spec.requirementFlags |= BGL_FLAG_FRAMEWORK_CUDA;
  if (framework == "opencl") spec.requirementFlags |= BGL_FLAG_FRAMEWORK_OPENCL;

  const std::string threading = args.get("threading");
  if (threading == "none") spec.requirementFlags |= BGL_FLAG_THREADING_NONE;
  if (threading == "futures") spec.requirementFlags |= BGL_FLAG_THREADING_FUTURES;
  if (threading == "create")
    spec.requirementFlags |= BGL_FLAG_THREADING_THREAD_CREATE;
  if (threading == "pool") spec.requirementFlags |= BGL_FLAG_THREADING_THREAD_POOL;

  const std::string vector = args.get("vector");
  if (vector == "none") spec.requirementFlags |= BGL_FLAG_VECTOR_NONE;
  if (vector == "sse") spec.requirementFlags |= BGL_FLAG_VECTOR_SSE;
  if (vector == "avx") spec.requirementFlags |= BGL_FLAG_VECTOR_AVX;

  const std::string kernel = args.get("kernel");
  if (kernel == "gpu") spec.requirementFlags |= BGL_FLAG_KERNEL_GPU_STYLE;
  if (kernel == "x86") spec.requirementFlags |= BGL_FLAG_KERNEL_X86_STYLE;
  if (args.has("no-fma")) spec.requirementFlags |= BGL_FLAG_FMA_OFF;

  if (args.has("async") && args.has("sync")) {
    std::fprintf(stderr, "error: --async and --sync are mutually exclusive\n");
    return 1;
  }
  if (args.has("pipelined") && args.has("sync")) {
    std::fprintf(stderr, "error: --pipelined and --sync are mutually exclusive\n");
    return 1;
  }
  if (args.has("async")) spec.requirementFlags |= BGL_FLAG_COMPUTATION_ASYNCH;
  if (args.has("sync")) spec.requirementFlags |= BGL_FLAG_COMPUTATION_SYNCH;
  if (args.has("pipelined")) {
    spec.requirementFlags |=
        BGL_FLAG_COMPUTATION_ASYNCH | BGL_FLAG_COMPUTATION_PIPELINE;
  }

  std::printf("genomictest: %d tips, %d patterns, %d states, %d categories, %s\n",
              spec.tips, spec.patterns, spec.states, spec.categories,
              spec.singlePrecision ? "single precision" : "double precision");

  const int watchMs = args.getInt("watch", 0);
  const std::string metricsFile = args.get("metrics-file");
  tools::StatsWatch watch(watchMs, metricsFile);

  const std::string faultSpec = args.get("fault");
  const bool faultArmed = !faultSpec.empty();
  if (faultArmed) {
    if (bglSetFaultSpec(faultSpec.c_str()) != BGL_SUCCESS) {
      std::fprintf(stderr, "error: bad --fault spec '%s': %s\n",
                   faultSpec.c_str(), bglGetLastErrorMessage());
      return 1;
    }
    std::printf("fault injection armed: %s\n", faultSpec.c_str());
  }

  if (const std::string traceFile = args.get("serve"); !traceFile.empty()) {
    BglPoolConfig config{};
    config.maxSessions = args.getInt("max-sessions", 0);
    config.maxSessionsPerTenant = args.getInt("max-per-tenant", 0);
    config.maxEstimatedLoad = args.getDouble("max-load", 0.0);
    if (bglPoolConfigure(&config) != BGL_SUCCESS) {
      std::fprintf(stderr, "error: bglPoolConfigure failed: %s\n",
                   bglGetLastErrorMessage());
      return 1;
    }
    harness::ReplayOptions options;
    options.verbose = args.has("serve-verbose");
    try {
      const auto replay = harness::replayServeTraceFile(traceFile, options);
      BglPoolStatistics pool{};
      bglPoolGetStatistics(&pool);
      std::printf("serve replay: %s\n", traceFile.c_str());
      std::printf(
          "  commands %d  opens %d  rejected %d  skipped %d  taxa %d"
          "  branches %d\n",
          replay.commands, replay.opens, replay.rejected, replay.skipped,
          replay.taxaAdded, replay.branchSets);
      std::printf("  evals %d  fulls %d  closes %d  last logL %.6f\n",
                  replay.evals, replay.fulls, replay.closes, replay.lastLogL);
      std::printf("  pool: created %llu  recycled %llu  grows %llu  "
                  "evicted %llu  (now %d pooled, %d free)\n",
                  pool.instancesCreated, pool.instancesRecycled,
                  pool.reinitGrows, pool.evictions, pool.pooledInstances,
                  pool.freeInstances);
      if (replay.mismatches != 0) {
        std::fprintf(stderr,
                     "error: %d online/full log-likelihood mismatch(es)\n",
                     replay.mismatches);
        watch.stop();
        return 1;
      }
    } catch (const std::exception& e) {
      std::fprintf(stderr, "error: %s\n", e.what());
      watch.stop();
      return 1;
    }
    watch.stop();
    return 0;
  }

  if (args.has("auto-resource")) {
    // Benchmark every resource on a short calibration workload and run the
    // real problem on the fastest (beagleBenchmarkResources-style).
    long reqFlags = spec.requirementFlags;
    if (args.has("model-estimate")) reqFlags |= BGL_FLAG_LOADBALANCE_MODEL;
    BglResourceList* list = bglGetResourceList();
    std::vector<BglBenchmarkedResource> bench(
        static_cast<std::size_t>(list->length));
    int count = 0;
    const int rc = bglBenchmarkResources(
        nullptr, 0, spec.states, 0, spec.categories, spec.preferenceFlags,
        reqFlags, bench.data(), &count);
    if (rc != BGL_SUCCESS || count == 0) {
      std::fprintf(stderr, "error: resource benchmarking failed (code %d)\n", rc);
      return 1;
    }
    std::printf("%-4s %-28s %12s %12s %s\n", "id", "resource", "GFLOPS",
                "seconds", "source");
    int best = bench[0].resourceNumber;
    double bestPerf = -1.0;
    for (int i = 0; i < count; ++i) {
      const auto& b = bench[static_cast<std::size_t>(i)];
      std::printf("%-4d %-28s %12.2f %12.6f %s\n", b.resourceNumber,
                  list->list[b.resourceNumber].name, b.performance, b.seconds,
                  b.measured ? "benchmarked" : "perf model");
      if (b.performance > bestPerf) {
        bestPerf = b.performance;
        best = b.resourceNumber;
      }
    }
    spec.resource = best;
    std::printf("auto-selected resource %d (%s)\n", best, list->list[best].name);
  }

  const int partitionCount = args.getInt("partitions", 0);
  if (partitionCount > 0) {
    try {
      const auto result = harness::runPartitionedThroughput(
          spec, partitionCount, phylo::PartitionOptions{},
          args.has("validate-partitions"));
      std::printf("partitions: %d across %d instance(s) (batched multi-partition layout)\n",
                  result.partitions, result.instances);
      std::printf("implementation: %s\n",
                  result.implNames.empty() ? "?" : result.implNames.front().c_str());
      std::printf("time per evaluation: %.6f s (device time base)\n", result.seconds);
      std::printf("throughput: %.2f GFLOPS effective\n", result.gflops);
      std::printf("kernel launches per round: %llu\n",
                  static_cast<unsigned long long>(result.kernelLaunches));
      if (result.failovers > 0) {
        std::printf("failovers applied: %d\n", result.failovers);
      }
      std::printf("validation logL: %.6f (sum over %d partitions)\n", result.logL,
                  result.partitions);
      if (result.referenceComputed) {
        std::printf("reference logL:  %.6f (per-instance, same implementation): %s\n",
                    result.referenceLogL,
                    result.referenceExact ? "bit-identical" : "MISMATCH");
        if (!result.referenceExact) {
          std::fprintf(stderr, "error: partitioned logL %.17g != reference %.17g\n",
                       result.logL, result.referenceLogL);
          watch.stop();
          return 1;
        }
      }
    } catch (const std::exception& e) {
      std::fprintf(stderr, "error: %s\n", e.what());
      watch.stop();
      return 1;
    }
    watch.stop();
    return 0;
  }

  const int splitShards = args.getInt("split", 0);
  if (splitShards > 0) {
    phylo::SplitOptions split;
    const std::string balance = args.get("balance", "equal");
    if (balance == "prop") {
      split.mode = phylo::SplitMode::Proportional;
    } else if (balance == "adaptive") {
      split.mode = phylo::SplitMode::Adaptive;
    } else if (balance != "equal") {
      std::fprintf(stderr, "error: unknown --balance mode '%s' (expected equal, prop or adaptive)\n",
                   balance.c_str());
      return 1;
    }
    if (args.has("rebalance")) split.mode = phylo::SplitMode::Adaptive;
    split.calibrationSeed = spec.seed;

    // Heterogeneous-by-construction shards: even shards use the threaded
    // pool (preferring AVX), odd shards the serial scalar implementation —
    // the two-unequal-backends setup of the conclusion's load-balancing
    // scenario, realizable on any host. Under --fault, even shards run on
    // the simulated CUDA runtime instead, so injected launch/memcpy/alloc
    // faults land on device-backed shards and exercise the failover path.
    std::vector<phylo::LikelihoodOptions> shardOptions(
        static_cast<std::size_t>(splitShards));
    for (int s = 0; s < splitShards; ++s) {
      auto& o = shardOptions[static_cast<std::size_t>(s)];
      o.categories = spec.categories;
      o.resources = {spec.resource};
      if (spec.singlePrecision) o.requirementFlags |= BGL_FLAG_PRECISION_SINGLE;
      if (s % 2 == 0) {
        if (faultArmed) {
          o.requirementFlags |= BGL_FLAG_FRAMEWORK_CUDA;
        } else {
          o.requirementFlags |= BGL_FLAG_THREADING_THREAD_POOL;
          o.preferenceFlags |= BGL_FLAG_VECTOR_AVX;
        }
      } else {
        o.requirementFlags |= BGL_FLAG_THREADING_NONE | BGL_FLAG_VECTOR_NONE;
      }
    }
    spec.validateSplitReference = faultArmed || args.has("validate-split");

    try {
      const auto result = harness::runSplitThroughput(spec, shardOptions, split);
      const char* modeName = split.mode == phylo::SplitMode::Equal ? "equal"
                             : split.mode == phylo::SplitMode::Proportional
                                 ? "proportional"
                                 : "adaptive";
      std::printf("split: %d shards, %s balancing\n", splitShards, modeName);
      for (std::size_t s = 0; s < result.shardPatterns.size(); ++s) {
        std::printf("  shard %zu: %6d patterns  %s\n", s, result.shardPatterns[s],
                    result.implNames[s].c_str());
      }
      std::printf("time per evaluation: %.6f s (wall, all shards)\n",
                  result.seconds);
      std::printf("throughput: %.2f GFLOPS effective\n", result.gflops);
      if (split.mode == phylo::SplitMode::Adaptive) {
        std::printf("rebalances applied: %d\n", result.rebalances);
      }
      if (result.failovers > 0 || faultArmed) {
        std::printf("failovers applied: %d\n", result.failovers);
        for (int q : result.quarantined) {
          std::printf("  shard %d quarantined: %s\n", q,
                      result.shardErrors[static_cast<std::size_t>(q)].c_str());
        }
        if (result.cpuFallback) {
          std::printf("  host-CPU fallback engaged (all shards had failed)\n");
        }
      }
      std::printf("validation logL: %.6f\n", result.logL);
      if (result.referenceComputed) {
        std::printf("reference logL:  %.6f (serial host-CPU single instance): %s\n",
                    result.referenceLogL,
                    result.referenceExact ? "bit-identical" : "MISMATCH");
        if (!result.referenceExact) {
          std::fprintf(stderr,
                       "error: split logL %.17g != reference %.17g\n",
                       result.logL, result.referenceLogL);
          return 1;
        }
      }
    } catch (const std::exception& e) {
      std::fprintf(stderr, "error: %s\n", e.what());
      watch.stop();
      return 1;
    }
    watch.stop();
    return 0;
  }

  if (args.has("pipelined")) {
    // Multi-round workload: round N+1's transition matrices are enqueued on
    // the matrix stream while round N's partials drain on the compute
    // stream (docs/PERFORMANCE.md, "Cross-call pipelining").
    try {
      const int rounds = args.getInt("rounds", 6);
      const auto result = harness::runPipelinedThroughput(spec, rounds);
      std::printf("implementation: %s on %s\n", result.implName.c_str(),
                  result.resourceName.c_str());
      std::printf("time for %d pipelined rounds: %.6f s (%s)\n", rounds,
                  result.seconds, result.modeled ? "roofline-modeled" : "measured");
      std::printf("throughput: %.2f GFLOPS effective\n", result.gflops);
      for (std::size_t r = 0; r < result.roundLogL.size(); ++r) {
        std::printf("round %zu logL: %.6f\n", r, result.roundLogL[r]);
      }
    } catch (const std::exception& e) {
      std::fprintf(stderr, "error: %s\n", e.what());
      watch.stop();
      return 1;
    }
    watch.stop();
    return 0;
  }

  try {
    const auto result = harness::runThroughput(spec);
    std::printf("implementation: %s on %s\n", result.implName.c_str(),
                result.resourceName.c_str());
    std::printf("time per evaluation: %.6f s (%s)\n", result.seconds,
                result.modeled ? "roofline-modeled" : "measured");
    std::printf("throughput: %.2f GFLOPS effective\n", result.gflops);
    std::printf("validation logL: %.6f\n", result.logL);
    // The library warns on stderr if an export could not be written; only
    // claim success for files that actually exist.
    if (!spec.traceFile.empty() && std::filesystem::exists(spec.traceFile)) {
      std::printf("trace written: %s\n", spec.traceFile.c_str());
    }
    if (!spec.statsFile.empty() && std::filesystem::exists(spec.statsFile)) {
      std::printf("stats written: %s\n", spec.statsFile.c_str());
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    watch.stop();
    return 1;
  }
  watch.stop();
  return 0;
}
