// bench_e2e: the repository's end-to-end benchmark.
//
//   bench_e2e --workload NAME --seed N [--seconds S] [--trace 0|1]
//             [--out FILE] [--commit SHA] [--dirty 0|1]
//   bench_e2e --smoke
//
// One process runs one workload, so peak_rss_mb belongs to it alone. The
// seed is the only input: every tree, alignment, model and session script
// is generated from it. A run times its set-up several times, warms up,
// measures a closed-loop window of --seconds, and checks the outputs. It
// prints one "name value unit" line per metric and appends one JSON record
// (provenance, checks, metrics) to --out; bench/e2e/run.py builds this
// program and turns the record into the benchmark's result line. The exit
// status is nonzero when any check fails.
//
// --smoke runs every workload traced for a fiftieth of the default window,
// with all output checks, in one process (the bench_e2e_smoke ctest).
#include <sched.h>

#include <cstdio>
#include <cstring>
#include <fstream>
#include <string>
#include <thread>

#include "bench/e2e/e2e.h"
#include "obs/export.h"

#ifndef BGL_E2E_BUILD_TYPE
#define BGL_E2E_BUILD_TYPE "unknown"
#endif

namespace {

using namespace bgl::e2e;

struct Workload {
  const char* name;
  void (*run)(const RunConfig&, Report&);
};

constexpr Workload kWorkloads[] = {
    {"fig4-nuc", runFig4Nuc},
    {"mc3-codon", runMc3Codon},
    {"partitions-cuda", runPartitionsCuda},
    {"serve-mixed", runServeMixed},
};

constexpr double kDefaultSeconds = 10.0;

struct Provenance {
  std::string commit = "unknown";
  bool dirty = false;
};

std::string cpuModel() {
  std::ifstream cpuinfo("/proc/cpuinfo");
  std::string line;
  while (std::getline(cpuinfo, line)) {
    if (line.rfind("model name", 0) == 0) {
      const std::size_t colon = line.find(':');
      if (colon != std::string::npos) return line.substr(line.find_first_not_of(' ', colon + 1));
    }
  }
  return "unknown";
}

/// CPUs this process may run on, as nproc counts them.
int usableCpus() {
  cpu_set_t set;
  if (sched_getaffinity(0, sizeof(set), &set) == 0) return CPU_COUNT(&set);
  return static_cast<int>(std::thread::hardware_concurrency());
}

std::string compiler() {
#if defined(__clang__)
  return std::string("clang ") + __clang_version__;
#elif defined(__GNUC__)
  return std::string("gcc ") + __VERSION__;
#else
  return "unknown";
#endif
}

Report execute(const Workload& workload, const RunConfig& config) {
  Report report(config.traced);
  try {
    workload.run(config, report);
  } catch (const std::exception& e) {
    report.check("workload ran to completion", false, e.what());
  }
  return report;
}

void print(const Report& report) {
  for (const auto& [name, metric] : report.metrics()) {
    std::printf("%s %.9g %s\n", name.c_str(), metric.value, metric.unit.c_str());
  }
  for (const auto& check : report.checks()) {
    std::printf("check %s: %s (%s)\n", check.ok ? "ok" : "FAILED", check.name.c_str(),
                check.detail.c_str());
  }
  std::fflush(stdout);
}

void writeRecord(std::ostream& os, const char* workload, const RunConfig& config,
                 const Provenance& provenance, const Report& report) {
  bgl::obs::JsonWriter w(os);
  w.beginObject();
  w.field("schema", 1);
  w.field("workload", workload);
  w.field("seed", static_cast<std::uint64_t>(config.seed));
  w.field("seconds", config.seconds);
  w.field("traced", config.traced);
  w.field("correct", report.correct());
  w.field("attempted", static_cast<std::int64_t>(report.attempted));
  w.field("failed", static_cast<std::int64_t>(report.failed));

  w.key("provenance").beginObject();
  w.field("commit", provenance.commit);
  w.field("dirty", provenance.dirty);
  w.field("build_type", BGL_E2E_BUILD_TYPE);
  w.field("compiler", compiler());
  w.field("cpu_model", cpuModel());
  w.field("nproc", usableCpus());
  w.field("library", bglGetVersion());
  w.key("work").beginObject();
  for (const auto& [key, value] : report.workSize()) w.field(key, value);
  w.endObject();
  for (const auto& [key, value] : report.notes()) w.field(key, value);
  w.endObject();

  w.key("checks").beginArray();
  for (const auto& check : report.checks()) {
    w.beginObject();
    w.field("name", check.name);
    w.field("ok", check.ok);
    w.field("detail", check.detail);
    w.endObject();
  }
  w.endArray();

  w.key("metrics").beginObject();
  for (const auto& [name, metric] : report.metrics()) {
    w.key(name).beginObject();
    w.field("value", metric.value);
    w.field("unit", metric.unit);
    w.field("clock", metric.clock);
    w.endObject();
  }
  w.endObject();
  w.endObject();
  os << '\n';
}

int smoke() {
  int failures = 0;
  for (const Workload& workload : kWorkloads) {
    RunConfig config;
    config.seconds = kDefaultSeconds / 50;
    config.traced = true;
    config.setupReps = 1;
    config.warmupDivisor = 10;
    const auto t0 = Clock::now();
    const Report report = execute(workload, config);
    std::printf("== %s: %s in %.2f s\n", workload.name,
                report.correct() ? "ok" : "FAILED", secondsBetween(t0, Clock::now()));
    print(report);
    if (!report.correct()) ++failures;
  }
  return failures == 0 ? 0 : 1;
}

int usage(const char* message) {
  std::fprintf(stderr,
               "bench_e2e: %s\n"
               "usage: bench_e2e --workload NAME --seed N [--seconds S] "
               "[--trace 0|1] [--out FILE] [--commit SHA] [--dirty 0|1]\n"
               "       bench_e2e --smoke\n"
               "workloads: fig4-nuc mc3-codon partitions-cuda serve-mixed\n",
               message);
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  RunConfig config;
  config.seconds = kDefaultSeconds;
  Provenance provenance;
  const Workload* workload = nullptr;
  std::string out;
  bool seeded = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--smoke") return smoke();
    if (i + 1 >= argc) return usage(("missing value for " + arg).c_str());
    const char* value = argv[++i];
    if (arg == "--workload") {
      for (const Workload& w : kWorkloads) {
        if (std::strcmp(w.name, value) == 0) workload = &w;
      }
      if (workload == nullptr) return usage("unknown workload");
    } else if (arg == "--seed") {
      char* end = nullptr;
      config.seed = std::strtoull(value, &end, 10);
      if (end == value || *end != '\0') return usage("--seed takes an integer");
      seeded = true;
    } else if (arg == "--seconds") {
      config.seconds = std::strtod(value, nullptr);
      if (!(config.seconds > 0.0 && config.seconds <= 600.0)) {
        return usage("--seconds takes a value in (0, 600]");
      }
    } else if (arg == "--trace") {
      config.traced = std::strcmp(value, "1") == 0;
    } else if (arg == "--out") {
      out = value;
    } else if (arg == "--commit") {
      provenance.commit = value;
    } else if (arg == "--dirty") {
      provenance.dirty = std::strcmp(value, "1") == 0;
    } else {
      return usage(("unknown option " + arg).c_str());
    }
  }
  if (workload == nullptr || !seeded) return usage("--workload and --seed are required");
  if (!out.empty()) {
    const std::size_t slash = out.find_last_of('/');
    config.outDir = slash == std::string::npos ? "." : out.substr(0, slash);
  }

  const Report report = execute(*workload, config);
  print(report);
  if (!out.empty()) {
    std::ofstream record(out, std::ios::app);
    writeRecord(record, workload->name, config, provenance, report);
    if (!record) {
      std::fprintf(stderr, "bench_e2e: cannot write %s\n", out.c_str());
      return 1;
    }
  }
  return report.correct() ? 0 : 1;
}
