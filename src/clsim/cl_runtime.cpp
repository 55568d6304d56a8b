#include "clsim/cl_runtime.h"

#include <algorithm>
#include <chrono>
#include <cstring>
#include <mutex>

#include "fault/fault.h"
#include "hal/command_stream.h"
#include "hal/workgroup_executor.h"
#include "kernels/kernels.h"
#include "obs/trace.h"

namespace bgl::clsim {
namespace {

using Clock = std::chrono::steady_clock;

class ClBuffer final : public hal::Buffer {
 public:
  explicit ClBuffer(std::size_t bytes)
      : storage_(new std::byte[bytes]), data_(storage_.get()), size_(bytes) {}

  /// Sub-buffer object: references the parent region, enforcing the
  /// origin-alignment rule real OpenCL devices impose.
  ClBuffer(std::shared_ptr<hal::Buffer> parent, std::size_t offset, std::size_t bytes)
      : parent_(std::move(parent)),
        data_(static_cast<std::byte*>(parent_->data()) + offset),
        size_(bytes) {}

  bool isSubBuffer() const { return parent_ != nullptr; }
  std::size_t size() const override { return size_; }
  void* data() override { return data_; }
  const void* data() const override { return data_; }

 private:
  std::shared_ptr<hal::Buffer> parent_;
  std::unique_ptr<std::byte[]> storage_;
  std::byte* data_ = nullptr;
  std::size_t size_ = 0;
};

class ClKernel final : public hal::Kernel {
 public:
  ClKernel(const hal::KernelSpec& spec, hal::KernelFn fn) : spec_(spec), fn_(fn) {}
  const hal::KernelSpec& spec() const override { return spec_; }
  hal::KernelFn fn() const { return fn_; }

 private:
  hal::KernelSpec spec_;
  hal::KernelFn fn_;
};

class ClDevice final : public hal::Device {
 public:
  ClDevice(const Platform& platform, int profileIndex)
      : platform_(platform), profile_(perf::deviceRegistry().at(profileIndex)) {
    // Non-vendor drivers (Section VII-B3): reduced performance surfaces as
    // inflated launch overhead and reduced achievable efficiency.
    profile_.launchOverheadUsOpenCl *= platform_.overheadMultiplier;
    profile_.computeEfficiency /= platform_.overheadMultiplier;
    profile_.bandwidthEfficiency /= platform_.overheadMultiplier;
  }

  const perf::DeviceProfile& profile() const override { return profile_; }
  std::string frameworkName() const override { return "OpenCL"; }
  const Platform& platform() const { return platform_; }

  hal::BufferPtr alloc(std::size_t bytes) override {
    fault::Injector::instance().onAlloc("opencl", bytes);
    return std::make_shared<ClBuffer>(bytes);
  }

  hal::BufferPtr subBuffer(const hal::BufferPtr& parent, std::size_t offset,
                           std::size_t bytes) override {
    if (offset + bytes > parent->size()) {
      throw Error("clsim: CL_INVALID_VALUE (sub-buffer out of bounds)", kErrOutOfRange);
    }
    if (offset % kSubBufferAlign != 0) {
      throw Error("clsim: CL_MISALIGNED_SUB_BUFFER_OFFSET", kErrOutOfRange);
    }
    if (static_cast<const ClBuffer*>(parent.get())->isSubBuffer()) {
      throw Error("clsim: CL_INVALID_MEM_OBJECT (sub-buffer of sub-buffer)", kErrOutOfRange);
    }
    return std::make_shared<ClBuffer>(parent, offset, bytes);
  }

  void copyToDevice(hal::Buffer& dst, std::size_t dstOffset, const void* src,
                    std::size_t bytes) override {
    if (dstOffset + bytes > dst.size()) {
      throw Error("clsim: write out of bounds", kErrOutOfRange);
    }
    syncStream();  // in-order queue: queued launches complete before the copy
    fault::Injector::instance().onMemcpy("opencl", bytes);
    const auto t0 = Clock::now();
    std::memcpy(static_cast<std::byte*>(dst.data()) + dstOffset, src, bytes);
    accountCopy(perf::modeledCopySeconds(profile_, static_cast<double>(bytes)),
                bytes);
    if (recorder_ != nullptr) {
      recorder_->count(obs::Counter::kBytesIn, bytes);
      recordCopy("HtoD", t0, bytes);
    }
  }

  void copyToHost(void* dst, const hal::Buffer& src, std::size_t srcOffset,
                  std::size_t bytes) override {
    if (srcOffset + bytes > src.size()) {
      throw Error("clsim: read out of bounds", kErrOutOfRange);
    }
    syncStream();  // in-order queue: queued launches complete before the copy
    fault::Injector::instance().onMemcpy("opencl", bytes);
    const auto t0 = Clock::now();
    std::memcpy(dst, static_cast<const std::byte*>(src.data()) + srcOffset, bytes);
    accountCopy(perf::modeledCopySeconds(profile_, static_cast<double>(bytes)),
                bytes);
    if (recorder_ != nullptr) {
      recorder_->count(obs::Counter::kBytesOut, bytes);
      recordCopy("DtoH", t0, bytes);
    }
  }

  void copyToHostFromStream(void* dst, const hal::Buffer& src,
                            std::size_t srcOffset, std::size_t bytes,
                            int stream) override {
    if (streams_.size() < 2) {
      copyToHost(dst, src, srcOffset, bytes);
      return;
    }
    if (srcOffset + bytes > src.size()) {
      throw Error("clsim: read out of bounds", kErrOutOfRange);
    }
    const int idx = clampStream(stream);
    streams_[idx].stream->flush();  // drain only the owning queue
    publishPendingDepth();
    fault::Injector::instance().onMemcpy("opencl", bytes);
    const auto t0 = Clock::now();
    std::memcpy(dst, static_cast<const std::byte*>(src.data()) + srcOffset, bytes);
    {
      std::lock_guard lock(timelineMutex_);
      timeline_.bytesCopied += bytes;
      if (!profile_.hostMeasured) {
        auto& slot = streams_[idx];
        slot.clock +=
            perf::modeledCopySeconds(profile_, static_cast<double>(bytes));
        timeline_.modeledSeconds =
            std::max(timeline_.modeledSeconds, slot.clock);
      }
    }
    if (recorder_ != nullptr) {
      recorder_->count(obs::Counter::kBytesOut, bytes);
      recordCopy("DtoH", t0, bytes, 1 + idx);
    }
  }

  hal::Kernel* getKernel(const hal::KernelSpec& spec) override {
    std::lock_guard lock(mutex_);
    for (auto& k : kernels_) {
      if (k->spec() == spec) return k.get();
    }
    kernels_.push_back(std::make_unique<ClKernel>(spec, kernels::lookupKernel(spec)));
    return kernels_.back().get();
  }

  void launch(hal::Kernel& kernel, const hal::LaunchDims& dims,
              const hal::KernelArgs& args, const perf::LaunchWork& work,
              const hal::LaunchOptions& opts = {}) override {
    // clEnqueueNDRangeKernel validates resources at enqueue in both modes.
    if (dims.localMemBytes > profile_.localMemKb * 1024.0) {
      throw Error("clsim: CL_OUT_OF_RESOURCES (local memory request of " +
                  std::to_string(dims.localMemBytes) + " bytes exceeds " +
                  std::to_string(static_cast<int>(profile_.localMemKb)) +
                  " KB local memory)",
                  kErrOutOfMemory);
    }
    // Fault hook fires at enqueue time in both modes; injected launch
    // failures surface at the enqueuing API call (docs/ROBUSTNESS.md).
    fault::Injector::instance().onLaunch("opencl");
    auto& k = static_cast<ClKernel&>(kernel);
    if (!streams_.empty()) {
      const int idx = clampStream(opts.stream);
      hal::LaunchRecord rec;
      rec.fn = k.fn();
      rec.spec = k.spec();
      rec.dims = dims;
      rec.args = args;
      rec.work = work;
      rec.keepAlive = opts.keepAlive;
      rec.concurrentWithPrevious = opts.concurrentWithPrevious;
      const bool timing = recorder_ != nullptr && recorder_->timingEnabled();
      const char* kernelName = hal::kernelIdName(k.spec().id);
      std::uint64_t groups = static_cast<std::uint64_t>(dims.numGroups);
      std::uint64_t enqueueBeginNs = 0;
      if (timing) {
        rec.enqueueNs = recorder_->nowNs();
        rec.flowId = obs::nextFlowId();
        enqueueBeginNs = rec.enqueueNs;
      }
      const std::uint64_t flowId = rec.flowId;
      if (recorder_ != nullptr) {
        recorder_->count(obs::Counter::kKernelLaunches);
        recorder_->count(obs::Counter::kStreamedLaunches);
      }
      streams_[idx].stream->enqueue(std::move(rec));
      if (recorder_ != nullptr) {
        // Exported gauge: queue depth the API thread observed right after
        // this enqueue, summed across queues (high-water kept by the
        // recorder).
        publishPendingDepth();
        if (timing) {
          obs::TraceEvent ev;
          ev.category = obs::Category::kEnqueue;
          ev.name = kernelName;
          ev.beginNs = enqueueBeginNs;
          ev.durNs = recorder_->nowNs() - enqueueBeginNs;
          ev.tid = 0;  // API thread
          ev.stream = 1 + idx;
          ev.groups = groups;
          ev.device = profile_.name;
          ev.framework = "OpenCL";
          ev.flowId = flowId;
          ev.flowPhase = 1;  // flow starts at the enqueue span
          recorder_->recordEvent(std::move(ev));
        }
      }
      return;
    }
    const auto t0 = Clock::now();
    hal::executeGrid(k.fn(), dims, args, fission_);
    const auto t1 = Clock::now();
    const double measured = std::chrono::duration<double>(t1 - t0).count();
    timeline_.measuredSeconds += measured;
    timeline_.modeledSeconds +=
        profile_.hostMeasured
            ? measured
            : perf::modeledKernelSeconds(profile_, work, /*openCl=*/true);
    ++timeline_.kernelLaunches;
    if (recorder_ != nullptr) {
      recorder_->count(obs::Counter::kKernelLaunches);
      if (recorder_->timingEnabled()) {
        obs::TraceEvent ev;
        ev.category = obs::Category::kKernel;
        ev.name = hal::kernelIdName(k.spec().id);
        ev.beginNs = recorder_->sinceEpochNs(t0);
        ev.durNs = recorder_->sinceEpochNs(t1) - ev.beginNs;
        ev.stream = 0;  // one in-order command queue in the simulation
        ev.groups = static_cast<std::uint64_t>(dims.numGroups);
        ev.device = profile_.name;
        ev.framework = "OpenCL";
        recorder_->recordEvent(std::move(ev));
      }
    }
  }

  void fillZero(const hal::BufferPtr& buf, std::size_t offset,
                std::size_t bytes) override {
    if (offset + bytes > buf->size()) {
      throw Error("clsim: fill out of bounds", kErrOutOfRange);
    }
    if (!streams_.empty()) {
      // Fills always land on queue 0 (the compute queue); every fill target
      // in the accel layer is compute-queue-ordered state.
      hal::LaunchRecord rec;
      rec.kind = hal::LaunchRecord::Kind::Fill;
      rec.fillBuf = buf;
      rec.fillOffset = offset;
      rec.fillBytes = bytes;
      streams_[0].stream->enqueue(std::move(rec));
      return;
    }
    std::memset(static_cast<std::byte*>(buf->data()) + offset, 0, bytes);
  }

  void finish() override {
    if (streams_.empty()) return;  // synchronous mode: nothing queued, ever
    if (recorder_ != nullptr) {
      obs::ScopedSpan span(*recorder_, obs::Category::kStreamFlush, "stream.flush");
      syncAll();
    } else {
      syncAll();
    }
  }

  void setAsync(bool enabled) override {
    if (enabled && streams_.empty()) {
      for (int i = 0; i < streamCount_; ++i) addStream();
    } else if (!enabled && !streams_.empty()) {
      syncAll();
      streams_.clear();
    }
  }
  bool asyncEnabled() const override { return !streams_.empty(); }

  int streamCount() const override { return static_cast<int>(streams_.size()); }

  void setStreamCount(int n) override {
    n = std::min(std::max(n, 1), kMaxStreams);
    streamCount_ = n;
    if (streams_.empty()) return;  // applied on the next setAsync(true)
    if (static_cast<int>(streams_.size()) == n) return;
    syncAll();  // a global sync point; no queued record may be orphaned
    while (static_cast<int>(streams_.size()) > n) streams_.pop_back();
    while (static_cast<int>(streams_.size()) < n) addStream();
  }

  hal::StreamEventPtr recordEvent(int stream) override {
    if (streams_.empty()) return nullptr;
    const int idx = clampStream(stream);
    auto event = std::make_shared<hal::StreamEvent>();
    if (recorder_ != nullptr && recorder_->timingEnabled()) {
      event->flowId = obs::nextFlowId();
    }
    hal::LaunchRecord rec;
    rec.kind = hal::LaunchRecord::Kind::Signal;
    rec.event = event;
    streams_[idx].stream->enqueue(std::move(rec));
    return event;
  }

  void waitEvent(int stream, const hal::StreamEventPtr& event) override {
    if (streams_.empty() || !event) return;
    const int idx = clampStream(stream);
    hal::LaunchRecord rec;
    rec.kind = hal::LaunchRecord::Kind::Wait;
    rec.event = event;
    streams_[idx].stream->enqueue(std::move(rec));
  }

  void resetTimeline() override {
    std::lock_guard lock(timelineMutex_);
    timeline_.reset();
    for (auto& slot : streams_) slot.clock = 0.0;
  }

  void setFission(unsigned n) override { fission_ = n; }

 private:
  static constexpr int kMaxStreams = 8;

  /// One in-order command queue plus its modeled clock; see the CUDA
  /// runtime for the critical-path timeline model the clocks implement.
  struct StreamSlot {
    std::unique_ptr<hal::CommandStream> stream;
    double clock = 0.0;
  };

  int clampStream(int s) const {
    const int last = static_cast<int>(streams_.size()) - 1;
    return std::min(std::max(s, 0), last);
  }

  void addStream() {
    const std::size_t idx = streams_.size();
    StreamSlot slot;
    slot.clock = timeline_.modeledSeconds;
    slot.stream = std::make_unique<hal::CommandStream>(
        [this, idx](const hal::LaunchRecord* recs, std::size_t n) {
          executeRun(idx, recs, n);
        });
    streams_.push_back(std::move(slot));
  }

  void syncAll() {
    std::exception_ptr first;
    for (auto& slot : streams_) {
      try {
        slot.stream->flush();
      } catch (...) {
        if (!first) first = std::current_exception();
      }
    }
    publishPendingDepth();
    if (first) std::rethrow_exception(first);
  }

  std::size_t totalPendingDepth() const {
    std::size_t total = 0;
    for (const auto& slot : streams_) total += slot.stream->pendingDepth();
    return total;
  }

  /// Export the summed queue depth. Set at every enqueue AND after every
  /// drain: a gauge refreshed only at enqueue would leave an idle instance
  /// reporting its last depth forever, and serve admission sums these
  /// levels against maxPendingDepth.
  void publishPendingDepth() {
    if (recorder_ != nullptr) {
      recorder_->setGauge(obs::Gauge::kPendingDepth, totalPendingDepth());
    }
  }

  /// Full-flush copy: a global sync point — every queue clock advances to
  /// the common barrier plus the copy time.
  void accountCopy(double seconds, std::size_t bytes) {
    std::lock_guard lock(timelineMutex_);
    timeline_.bytesCopied += bytes;
    if (profile_.hostMeasured) return;
    if (streams_.empty()) {
      timeline_.modeledSeconds += seconds;
      return;
    }
    double maxClock = timeline_.modeledSeconds;
    for (const auto& slot : streams_) maxClock = std::max(maxClock, slot.clock);
    for (auto& slot : streams_) slot.clock = maxClock + seconds;
    timeline_.modeledSeconds = maxClock + seconds;
  }

  void executeRun(std::size_t streamIdx, const hal::LaunchRecord* recs,
                  std::size_t n) {
    if (recs[0].kind == hal::LaunchRecord::Kind::Signal ||
        recs[0].kind == hal::LaunchRecord::Kind::Wait) {
      executeSync(streamIdx, recs[0]);
      return;
    }
    if (recorder_ != nullptr) {
      recorder_->setGauge(obs::Gauge::kInFlight, n);
    }
    const auto t0 = Clock::now();
    if (n == 1 && recs[0].kind == hal::LaunchRecord::Kind::Fill) {
      std::memset(static_cast<std::byte*>(recs[0].fillBuf->data()) +
                      recs[0].fillOffset,
                  0, recs[0].fillBytes);
      return;
    }
    std::vector<hal::GridBatchItem> items(n);
    for (std::size_t i = 0; i < n; ++i) {
      items[i] = {recs[i].fn, recs[i].dims, &recs[i].args};
    }
    hal::executeGridBatch(items.data(), n, fission_);
    const auto t1 = Clock::now();
    const double measured = std::chrono::duration<double>(t1 - t0).count();
    double runModeled = 0.0;
    for (std::size_t i = 0; i < n; ++i) {
      runModeled += profile_.hostMeasured
                        ? measured / static_cast<double>(n)
                        : perf::modeledKernelSeconds(profile_, recs[i].work,
                                                     /*openCl=*/true);
    }
    {
      std::lock_guard lock(timelineMutex_);
      timeline_.measuredSeconds += measured;
      timeline_.kernelLaunches += n;
      auto& slot = streams_[streamIdx];
      slot.clock += runModeled;
      timeline_.modeledSeconds = std::max(timeline_.modeledSeconds, slot.clock);
    }
    if (recorder_ != nullptr && recorder_->timingEnabled()) {
      for (std::size_t i = 0; i < n; ++i) {
        obs::TraceEvent ev;
        ev.category = obs::Category::kKernel;
        ev.name = hal::kernelIdName(recs[i].spec.id);
        ev.beginNs = recorder_->sinceEpochNs(t0);
        ev.durNs = recorder_->sinceEpochNs(t1) - ev.beginNs;
        ev.tid = 1 + static_cast<int>(streamIdx);  // per-queue worker
        ev.stream = 1 + static_cast<int>(streamIdx);
        ev.groups = static_cast<std::uint64_t>(recs[i].dims.numGroups);
        ev.device = profile_.name;
        ev.framework = "OpenCL";
        if (recs[i].flowId != 0) {
          ev.flowId = recs[i].flowId;
          ev.flowPhase = 2;  // flow lands on the execution span
          if (ev.beginNs > recs[i].enqueueNs) {
            ev.queuedNs = ev.beginNs - recs[i].enqueueNs;
          }
        }
        recorder_->recordEvent(std::move(ev));
      }
    }
    if (recorder_ != nullptr) {
      recorder_->setGauge(obs::Gauge::kInFlight, 0);
    }
  }

  /// Signal/Wait accounting; see the CUDA runtime twin for the contract.
  void executeSync(std::size_t streamIdx, const hal::LaunchRecord& rec) {
    const auto t0 = Clock::now();
    const bool isSignal = rec.kind == hal::LaunchRecord::Kind::Signal;
    {
      std::lock_guard lock(timelineMutex_);
      auto& slot = streams_[streamIdx];
      if (isSignal) {
        if (rec.event) rec.event->stampModeled(slot.clock);
      } else if (rec.event) {
        slot.clock = std::max(slot.clock, rec.event->modeledAt());
        timeline_.modeledSeconds =
            std::max(timeline_.modeledSeconds, slot.clock);
      }
    }
    if (recorder_ != nullptr && recorder_->timingEnabled() && rec.event) {
      obs::TraceEvent ev;
      ev.category = obs::Category::kStreamSync;
      ev.name = isSignal ? "EventSignal" : "EventWait";
      ev.beginNs = recorder_->sinceEpochNs(t0);
      ev.durNs = recorder_->nowNs() - ev.beginNs;
      ev.tid = 1 + static_cast<int>(streamIdx);
      ev.stream = 1 + static_cast<int>(streamIdx);
      ev.device = profile_.name;
      ev.framework = "OpenCL";
      if (rec.event->flowId != 0) {
        ev.flowId = rec.event->flowId;
        ev.flowPhase = isSignal ? 1 : 2;  // flow: signal span -> wait span
      }
      recorder_->recordEvent(std::move(ev));
    }
  }

  void syncStream() { syncAll(); }

  void recordCopy(const char* name, Clock::time_point t0, std::size_t bytes,
                  int stream = 0) {
    if (!recorder_->timingEnabled()) return;
    obs::TraceEvent ev;
    ev.category = obs::Category::kMemcpy;
    ev.name = name;
    ev.beginNs = recorder_->sinceEpochNs(t0);
    ev.durNs = recorder_->nowNs() - ev.beginNs;
    ev.stream = stream;
    ev.bytes = bytes;
    ev.device = profile_.name;
    ev.framework = "OpenCL";
    recorder_->recordEvent(std::move(ev));
  }

  Platform platform_;
  perf::DeviceProfile profile_;
  unsigned fission_ = 0;  // 0 = all compute units
  std::mutex mutex_;
  std::mutex timelineMutex_;  // orders queue workers on timeline_/clocks
  std::vector<std::unique_ptr<ClKernel>> kernels_;
  std::vector<StreamSlot> streams_;
  int streamCount_ = 1;  // queues to create on the next setAsync(true)
};

}  // namespace

const std::vector<Platform>& platforms() {
  static const std::vector<Platform> list = [] {
    std::vector<Platform> v;
    // Vendor drivers: best performance, one per vendor (Table I lists the
    // NVIDIA, AMD and Intel OpenCL drivers of the paper's systems).
    v.push_back({"NVIDIA OpenCL (vendor driver)", "NVIDIA Corporation", 1.0,
                 {perf::kQuadroP5000}});
    v.push_back({"AMD APP (vendor driver)", "Advanced Micro Devices", 1.0,
                 {perf::kRadeonR9Nano, perf::kFireProS9170}});
    v.push_back({"Intel OpenCL CPU Runtime (vendor driver)", "Intel Corporation",
                 1.0,
                 {perf::kHostCpu, perf::kXeonPhi7210, perf::kDualXeonE5}});
    // A generic (macOS-style) driver for the same hardware: demonstrates
    // ICD-based driver selection with reduced performance.
    v.push_back({"Generic OpenCL (portable driver)", "Portable Computing", 1.35,
                 {perf::kHostCpu, perf::kQuadroP5000, perf::kRadeonR9Nano,
                  perf::kFireProS9170}});
    return v;
  }();
  return list;
}

hal::DevicePtr createDevice(const Platform& platform, int profileIndex) {
  bool ok = false;
  for (int v : platform.deviceProfiles) ok = ok || v == profileIndex;
  if (!ok) {
    throw Error("clsim: device not exposed by platform " + platform.name,
                kErrOutOfRange);
  }
  return std::make_shared<ClDevice>(platform, profileIndex);
}

hal::DevicePtr createDeviceByProfile(int profileIndex) {
  // Prefer vendor drivers (lowest overhead multiplier).
  const Platform* best = nullptr;
  for (const auto& p : platforms()) {
    for (int v : p.deviceProfiles) {
      if (v == profileIndex &&
          (best == nullptr || p.overheadMultiplier < best->overheadMultiplier)) {
        best = &p;
      }
    }
  }
  if (best == nullptr) {
    throw Error("clsim: no platform exposes requested device", kErrOutOfRange);
  }
  return createDevice(*best, profileIndex);
}

}  // namespace bgl::clsim
