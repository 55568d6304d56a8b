// Exporter tests: the Chrome-trace file must be valid JSON with balanced
// begin/end events per thread, and the stats JSON must reproduce the
// counter values the instance accumulated.
#include <gtest/gtest.h>

#include <cctype>
#include <cstdio>
#include <fstream>
#include <memory>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#include "api/bgl.h"
#include "obs/export.h"
#include "obs/trace.h"
#include "perfmodel/device_profiles.h"
#include "phylo/likelihood.h"
#include "tests/test_util.h"

namespace bgl {
namespace {

// ---------------------------------------------------------------------------
// Minimal recursive-descent JSON reader. Only what the tests need: validate
// syntax and surface objects/arrays/strings/numbers as a generic tree.
// ---------------------------------------------------------------------------

struct JsonValue {
  enum Kind { kNull, kBool, kNumber, kString, kArray, kObject } kind = kNull;
  bool boolean = false;
  double number = 0.0;
  std::string text;
  std::vector<JsonValue> items;                          // kArray
  std::vector<std::pair<std::string, JsonValue>> fields; // kObject

  const JsonValue* get(const std::string& key) const {
    for (const auto& [k, v] : fields) {
      if (k == key) return &v;
    }
    return nullptr;
  }
};

class JsonReader {
 public:
  explicit JsonReader(const std::string& text) : s_(text) {}

  bool parse(JsonValue* out) {
    skipWs();
    if (!parseValue(out)) return false;
    skipWs();
    return pos_ == s_.size();  // no trailing garbage
  }

 private:
  void skipWs() {
    while (pos_ < s_.size() && (s_[pos_] == ' ' || s_[pos_] == '\t' ||
                                s_[pos_] == '\n' || s_[pos_] == '\r')) {
      ++pos_;
    }
  }

  bool literal(const char* word) {
    const std::size_t n = std::string(word).size();
    if (s_.compare(pos_, n, word) != 0) return false;
    pos_ += n;
    return true;
  }

  bool parseValue(JsonValue* out) {
    if (pos_ >= s_.size()) return false;
    switch (s_[pos_]) {
      case '{': return parseObject(out);
      case '[': return parseArray(out);
      case '"': out->kind = JsonValue::kString; return parseString(&out->text);
      case 't': out->kind = JsonValue::kBool; out->boolean = true; return literal("true");
      case 'f': out->kind = JsonValue::kBool; out->boolean = false; return literal("false");
      case 'n': out->kind = JsonValue::kNull; return literal("null");
      default: return parseNumber(out);
    }
  }

  bool parseString(std::string* out) {
    if (s_[pos_] != '"') return false;
    ++pos_;
    out->clear();
    while (pos_ < s_.size()) {
      char c = s_[pos_++];
      if (c == '"') return true;
      if (c == '\\') {
        if (pos_ >= s_.size()) return false;
        char e = s_[pos_++];
        switch (e) {
          case '"': out->push_back('"'); break;
          case '\\': out->push_back('\\'); break;
          case '/': out->push_back('/'); break;
          case 'b': out->push_back('\b'); break;
          case 'f': out->push_back('\f'); break;
          case 'n': out->push_back('\n'); break;
          case 'r': out->push_back('\r'); break;
          case 't': out->push_back('\t'); break;
          case 'u': {
            if (pos_ + 4 > s_.size()) return false;
            for (int i = 0; i < 4; ++i) {
              if (!std::isxdigit(static_cast<unsigned char>(s_[pos_ + i]))) return false;
            }
            pos_ += 4;
            out->push_back('?');  // tests never inspect escaped chars
            break;
          }
          default: return false;
        }
      } else {
        out->push_back(c);
      }
    }
    return false;  // unterminated
  }

  bool parseNumber(JsonValue* out) {
    const std::size_t start = pos_;
    if (pos_ < s_.size() && s_[pos_] == '-') ++pos_;
    while (pos_ < s_.size() &&
           (std::isdigit(static_cast<unsigned char>(s_[pos_])) || s_[pos_] == '.' ||
            s_[pos_] == 'e' || s_[pos_] == 'E' || s_[pos_] == '+' || s_[pos_] == '-')) {
      ++pos_;
    }
    if (pos_ == start) return false;
    try {
      out->number = std::stod(s_.substr(start, pos_ - start));
    } catch (...) {
      return false;
    }
    out->kind = JsonValue::kNumber;
    return true;
  }

  bool parseObject(JsonValue* out) {
    out->kind = JsonValue::kObject;
    ++pos_;  // '{'
    skipWs();
    if (pos_ < s_.size() && s_[pos_] == '}') { ++pos_; return true; }
    while (true) {
      skipWs();
      std::string key;
      if (!parseString(&key)) return false;
      skipWs();
      if (pos_ >= s_.size() || s_[pos_] != ':') return false;
      ++pos_;
      skipWs();
      JsonValue v;
      if (!parseValue(&v)) return false;
      out->fields.emplace_back(std::move(key), std::move(v));
      skipWs();
      if (pos_ >= s_.size()) return false;
      if (s_[pos_] == ',') { ++pos_; continue; }
      if (s_[pos_] == '}') { ++pos_; return true; }
      return false;
    }
  }

  bool parseArray(JsonValue* out) {
    out->kind = JsonValue::kArray;
    ++pos_;  // '['
    skipWs();
    if (pos_ < s_.size() && s_[pos_] == ']') { ++pos_; return true; }
    while (true) {
      skipWs();
      JsonValue v;
      if (!parseValue(&v)) return false;
      out->items.push_back(std::move(v));
      skipWs();
      if (pos_ >= s_.size()) return false;
      if (s_[pos_] == ',') { ++pos_; continue; }
      if (s_[pos_] == ']') { ++pos_; return true; }
      return false;
    }
  }

  const std::string& s_;
  std::size_t pos_ = 0;
};

std::string slurp(const std::string& path) {
  std::ifstream in(path);
  std::ostringstream ss;
  ss << in.rdbuf();
  return ss.str();
}

std::string tempPath(const char* stem) {
  return ::testing::TempDir() + "/" + stem;
}

/// Parses a Chrome trace file and checks the trace-event invariants:
/// every "B" has a matching later "E" on the same tid (properly nested),
/// timestamps are monotone per tid, and the categories set is returned.
void checkChromeTrace(const std::string& path, std::map<std::string, int>* categories) {
  const std::string text = slurp(path);
  ASSERT_FALSE(text.empty()) << path;
  JsonValue root;
  ASSERT_TRUE(JsonReader(text).parse(&root)) << "invalid JSON in " << path;
  ASSERT_EQ(root.kind, JsonValue::kObject);
  const JsonValue* events = root.get("traceEvents");
  ASSERT_NE(events, nullptr);
  ASSERT_EQ(events->kind, JsonValue::kArray);

  std::map<double, std::vector<std::string>> stacks;  // tid -> open span names
  std::map<double, double> lastTs;
  std::map<double, int> flowStarts;  // flow id -> "s" events seen
  int begins = 0, ends = 0;
  for (const auto& ev : events->items) {
    ASSERT_EQ(ev.kind, JsonValue::kObject);
    const JsonValue* ph = ev.get("ph");
    ASSERT_NE(ph, nullptr);
    if (ph->text == "M") continue;  // metadata (process_name)
    if (ph->text == "s" || ph->text == "f") {
      // Chrome flow events tying the enqueue span to the execution span:
      // every flow opens ("s") before it lands ("f"), keyed by id.
      const JsonValue* id = ev.get("id");
      ASSERT_NE(id, nullptr) << "flow event without id";
      if (ph->text == "s") {
        ++flowStarts[id->number];
      } else {
        EXPECT_GT(flowStarts[id->number], 0)
            << "flow finish without a start, id " << id->number;
      }
      continue;
    }
    const JsonValue* name = ev.get("name");
    const JsonValue* ts = ev.get("ts");
    const JsonValue* tid = ev.get("tid");
    ASSERT_NE(name, nullptr);
    ASSERT_NE(ts, nullptr);
    ASSERT_NE(tid, nullptr);
    double& last = lastTs[tid->number];
    EXPECT_GE(ts->number, last) << "timestamps must be monotone per tid";
    last = ts->number;
    auto& stack = stacks[tid->number];
    if (ph->text == "B") {
      ++begins;
      stack.push_back(name->text);
      if (const JsonValue* args = ev.get("args")) {
        if (const JsonValue* cat = args->get("category")) ++(*categories)[cat->text];
      }
    } else {
      ASSERT_EQ(ph->text, "E") << "unexpected phase";
      ++ends;
      ASSERT_FALSE(stack.empty()) << "E without open B on tid " << tid->number;
      EXPECT_EQ(stack.back(), name->text) << "E must close the innermost B";
      stack.pop_back();
    }
  }
  EXPECT_EQ(begins, ends);
  EXPECT_GT(begins, 0);
  for (const auto& [tid, stack] : stacks) {
    EXPECT_TRUE(stack.empty()) << "unclosed spans on tid " << tid;
  }
}

TEST(ObsTraceExport, CpuTraceIsValidAndBalanced) {
  const std::string path = tempPath("bgl_cpu_trace.json");
  std::remove(path.c_str());
  {
    auto p = test::makeNucleotideProblem(8, 60, 601);
    phylo::LikelihoodOptions opts;
    opts.requirementFlags = BGL_FLAG_THREADING_THREAD_POOL;
    opts.resources = {perf::kHostCpu};
    phylo::TreeLikelihood like(p.tree, *p.model, p.data, opts);
    ASSERT_EQ(bglSetTraceFile(like.instance(), path.c_str()), BGL_SUCCESS);
    like.logLikelihood();
    like.logLikelihood();
  }  // destructor finalizes the instance, which writes the trace

  std::map<std::string, int> categories;
  checkChromeTrace(path, &categories);
  EXPECT_GT(categories["updatePartials"], 0);
  EXPECT_GT(categories["updateTransitionMatrices"], 0);
  EXPECT_GT(categories["rootLogLikelihoods"], 0);
  std::remove(path.c_str());
}

TEST(ObsTraceExport, AcceleratorTraceHasKernelAndMemcpySpans) {
  const std::string path = tempPath("bgl_accel_trace.json");
  std::remove(path.c_str());
  {
    auto p = test::makeNucleotideProblem(8, 60, 602);
    phylo::LikelihoodOptions opts;
    opts.requirementFlags = BGL_FLAG_FRAMEWORK_CUDA;
    opts.resources = {perf::kQuadroP5000};
    phylo::TreeLikelihood like(p.tree, *p.model, p.data, opts);
    ASSERT_EQ(bglSetTraceFile(like.instance(), path.c_str()), BGL_SUCCESS);
    like.logLikelihood();
  }

  std::map<std::string, int> categories;
  checkChromeTrace(path, &categories);
  EXPECT_GT(categories["kernel"], 0);
  EXPECT_GT(categories["memcpy"], 0);
  EXPECT_GT(categories["updatePartials"], 0);
  std::remove(path.c_str());
}

TEST(ObsTraceExport, StatsJsonMatchesCounters) {
  const std::string path = tempPath("bgl_stats.json");
  std::remove(path.c_str());
  unsigned long long wantOps = 0;
  {
    auto p = test::makeNucleotideProblem(6, 40, 603);
    phylo::LikelihoodOptions opts;
    opts.requirementFlags = BGL_FLAG_THREADING_NONE | BGL_FLAG_VECTOR_NONE;
    opts.resources = {perf::kHostCpu};
    phylo::TreeLikelihood like(p.tree, *p.model, p.data, opts);
    ASSERT_EQ(bglSetStatsFile(like.instance(), path.c_str()), BGL_SUCCESS);
    like.logLikelihood();
    BglStatistics stats{};
    ASSERT_EQ(bglGetStatistics(like.instance(), &stats), BGL_SUCCESS);
    wantOps = stats.partialsOperations;
    EXPECT_GT(wantOps, 0u);
  }

  const std::string text = slurp(path);
  ASSERT_FALSE(text.empty()) << path;
  JsonValue root;
  ASSERT_TRUE(JsonReader(text).parse(&root)) << "invalid JSON in " << path;
  const JsonValue* counters = root.get("counters");
  ASSERT_NE(counters, nullptr);
  const JsonValue* ops = counters->get("partialsOperations");
  ASSERT_NE(ops, nullptr);
  EXPECT_EQ(static_cast<unsigned long long>(ops->number), wantOps);
  // Stats mode enables span timing, so category timings must be present.
  const JsonValue* catObj = root.get("categories");
  ASSERT_NE(catObj, nullptr);
  EXPECT_NE(catObj->get("updatePartials"), nullptr);
  const JsonValue* impl = root.get("implementation");
  ASSERT_NE(impl, nullptr);
  EXPECT_FALSE(impl->text.empty());
  std::remove(path.c_str());
}

TEST(ObsTraceExport, DuplicateTracePathsAreUniquified) {
  const std::string path = tempPath("bgl_dup_trace.json");
  std::remove(path.c_str());
  auto p = test::makeNucleotideProblem(6, 30, 604);
  phylo::LikelihoodOptions opts;
  opts.requirementFlags = BGL_FLAG_THREADING_NONE | BGL_FLAG_VECTOR_NONE;
  opts.resources = {perf::kHostCpu};

  auto a = std::make_unique<phylo::TreeLikelihood>(p.tree, *p.model, p.data, opts);
  auto b = std::make_unique<phylo::TreeLikelihood>(p.tree, *p.model, p.data, opts);
  ASSERT_EQ(bglSetTraceFile(a->instance(), path.c_str()), BGL_SUCCESS);
  ASSERT_EQ(bglSetTraceFile(b->instance(), path.c_str()), BGL_SUCCESS);
  const std::string uniquified = path + ".i" + std::to_string(b->instance());
  a->logLikelihood();
  b->logLikelihood();
  a.reset();
  b.reset();

  EXPECT_FALSE(slurp(path).empty());
  EXPECT_FALSE(slurp(uniquified).empty()) << uniquified;
  std::remove(path.c_str());
  std::remove(uniquified.c_str());
}

TEST(ObsTraceExport, UnsetCancelsExport) {
  const std::string path = tempPath("bgl_cancelled_trace.json");
  std::remove(path.c_str());
  {
    auto p = test::makeNucleotideProblem(6, 30, 605);
    phylo::LikelihoodOptions opts;
    opts.requirementFlags = BGL_FLAG_THREADING_NONE | BGL_FLAG_VECTOR_NONE;
    opts.resources = {perf::kHostCpu};
    phylo::TreeLikelihood like(p.tree, *p.model, p.data, opts);
    ASSERT_EQ(bglSetTraceFile(like.instance(), path.c_str()), BGL_SUCCESS);
    like.logLikelihood();
    ASSERT_EQ(bglSetTraceFile(like.instance(), nullptr), BGL_SUCCESS);
  }
  EXPECT_TRUE(slurp(path).empty()) << "cancelled trace must not be written";
}

/// Stream placement of one accelerator instance's retained spans over the
/// multi-round rebranch sequence of SyncAsyncParity: re-set every branch
/// length and re-evaluate, four rounds, scaling on.
struct StreamSpans {
  int streamSync = 0;
  int kernels = 0;
  std::map<int, int> kernelsByStream;
};

StreamSpans traceRebranchRounds(long flags, int resource, const std::string& path) {
  std::remove(path.c_str());
  {
    Rng rng(5151);
    auto tree = phylo::Tree::random(12, rng, 0.1);
    HKY85Model model(2.0, {0.3, 0.25, 0.2, 0.25});
    auto data = phylo::simulatePatterns(tree, model, 400, rng);
    phylo::LikelihoodOptions opts;
    opts.categories = 4;
    opts.requirementFlags = flags;
    opts.resources = {resource};
    opts.useScaling = true;
    phylo::TreeLikelihood like(tree, model, data, opts);
    EXPECT_EQ(bglSetTraceFile(like.instance(), path.c_str()), BGL_SUCCESS);
    for (int r = 0; r < 4; ++r) {
      phylo::Tree scaled = tree;
      for (int i = 0; i < scaled.nodeCount(); ++i) {
        scaled.node(i).length = tree.node(i).length * (1.0 + 0.15 * r);
      }
      like.logLikelihood(scaled);
    }
  }  // finalizing the instance writes the trace

  StreamSpans out;
  const std::string text = slurp(path);
  std::remove(path.c_str());
  JsonValue root;
  EXPECT_TRUE(JsonReader(text).parse(&root)) << "invalid JSON in " << path;
  const JsonValue* events = root.get("traceEvents");
  if (events == nullptr) return out;
  for (const auto& ev : events->items) {
    const JsonValue* ph = ev.get("ph");
    const JsonValue* args = ev.get("args");
    if (ph == nullptr || ph->text != "B" || args == nullptr) continue;
    const JsonValue* cat = args->get("category");
    if (cat == nullptr) continue;
    if (cat->text == "stream.sync") ++out.streamSync;
    if (cat->text == "kernel") {
      ++out.kernels;
      const JsonValue* stream = args->get("stream");
      ++out.kernelsByStream[stream != nullptr ? static_cast<int>(stream->number) : -1];
    }
  }
  return out;
}

// Plain async mode runs the same cross-stream hazard tracking as pipelined
// mode, but on its one in-order stream no fence is needed: it must enqueue
// no Signal/Wait record, and matrix launches share stream 1 with every
// other kernel. The pipelined run proves the trace can show fences at all.
TEST(ObsTraceExport, PlainAsyncAcceleratorEnqueuesNoStreamSync) {
  const struct {
    const char* label;
    long flags;
    int resource;
  } configs[] = {{"cuda", BGL_FLAG_FRAMEWORK_CUDA, perf::kQuadroP5000},
                 {"opencl", BGL_FLAG_FRAMEWORK_OPENCL, perf::kRadeonR9Nano}};
  for (const auto& c : configs) {
    const StreamSpans plain =
        traceRebranchRounds(c.flags | BGL_FLAG_COMPUTATION_ASYNCH, c.resource,
                            tempPath("bgl_plain_async_trace.json"));
    EXPECT_EQ(plain.streamSync, 0) << c.label;
    EXPECT_GT(plain.kernels, 0) << c.label;
    EXPECT_EQ(plain.kernelsByStream, (std::map<int, int>{{1, plain.kernels}}))
        << c.label;

    const StreamSpans pipelined = traceRebranchRounds(
        c.flags | BGL_FLAG_COMPUTATION_ASYNCH | BGL_FLAG_COMPUTATION_PIPELINE,
        c.resource, tempPath("bgl_pipelined_trace.json"));
    EXPECT_GT(pipelined.streamSync, 0) << c.label;
  }
}

// Direct exporter test without the C API: empty recorder still produces a
// valid (if boring) document, and the JsonWriter escapes control characters.
TEST(ObsTraceExport, EmptyRecorderStillValid) {
  obs::TraceRecorder recorder;
  std::ostringstream trace;
  obs::writeChromeTrace(trace, recorder, "empty \"proc\"\n");
  JsonValue root;
  std::string text = trace.str();
  ASSERT_TRUE(JsonReader(text).parse(&root)) << text;

  std::ostringstream stats;
  obs::writeStatsJson(stats, recorder, "none", "none");
  text = stats.str();
  ASSERT_TRUE(JsonReader(text).parse(&root)) << text;
}

}  // namespace
}  // namespace bgl
