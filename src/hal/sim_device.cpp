#include "hal/sim_device.h"

#include <cstring>
#include <string>

#include "fault/fault.h"
#include "hal/workgroup_executor.h"
#include "kernels/kernels.h"
#include "obs/trace.h"

namespace bgl::hal {

void SimDevice::checkRange(std::size_t offset, std::size_t bytes,
                           std::size_t size, const char* what) const {
  if (offset + bytes > size) {
    throw Error(std::string(framework_.errorPrefix) + what + " out of bounds",
                kErrOutOfRange);
  }
}

BufferPtr SimDevice::alloc(std::size_t bytes) {
  fault::Injector::instance().onAlloc(framework_.faultTag, bytes);
  return std::make_shared<SimBuffer>(bytes);
}

void SimDevice::copyToDevice(Buffer& dst, std::size_t dstOffset, const void* src,
                             std::size_t bytes) {
  checkRange(dstOffset, bytes, dst.size(), "HtoD copy");
  syncAll();  // stream-ordered: queued launches complete before the copy
  fault::Injector::instance().onMemcpy(framework_.faultTag, bytes);
  const auto t0 = Clock::now();
  std::memcpy(static_cast<std::byte*>(dst.data()) + dstOffset, src, bytes);
  accountCopy(perf::modeledCopySeconds(profile_, static_cast<double>(bytes)),
              bytes);
  if (recorder_ != nullptr) {
    recorder_->count(obs::Counter::kBytesIn, bytes);
    recordCopy("HtoD", t0, bytes, 0);
  }
}

void SimDevice::copyToHost(void* dst, const Buffer& src, std::size_t srcOffset,
                           std::size_t bytes) {
  checkRange(srcOffset, bytes, src.size(), "DtoH copy");
  syncAll();  // stream-ordered: queued launches complete before the copy
  fault::Injector::instance().onMemcpy(framework_.faultTag, bytes);
  const auto t0 = Clock::now();
  std::memcpy(dst, static_cast<const std::byte*>(src.data()) + srcOffset, bytes);
  accountCopy(perf::modeledCopySeconds(profile_, static_cast<double>(bytes)),
              bytes);
  if (recorder_ != nullptr) {
    recorder_->count(obs::Counter::kBytesOut, bytes);
    recordCopy("DtoH", t0, bytes, 0);
  }
}

void SimDevice::copyToHostFromStream(void* dst, const Buffer& src,
                                     std::size_t srcOffset, std::size_t bytes,
                                     int stream) {
  if (streams_.size() < 2) {
    copyToHost(dst, src, srcOffset, bytes);
    return;
  }
  checkRange(srcOffset, bytes, src.size(), "DtoH copy");
  const int idx = clampStream(stream);
  streams_[idx].stream->flush();  // drain only the owning stream
  publishPendingDepth();
  fault::Injector::instance().onMemcpy(framework_.faultTag, bytes);
  const auto t0 = Clock::now();
  std::memcpy(dst, static_cast<const std::byte*>(src.data()) + srcOffset, bytes);
  {
    std::lock_guard lock(timelineMutex_);
    timeline_.bytesCopied += bytes;
    if (!profile_.hostMeasured) {
      auto& slot = streams_[idx];
      slot.clock += perf::modeledCopySeconds(profile_, static_cast<double>(bytes));
      timeline_.modeledSeconds = std::max(timeline_.modeledSeconds, slot.clock);
    }
  }
  if (recorder_ != nullptr) {
    recorder_->count(obs::Counter::kBytesOut, bytes);
    recordCopy("DtoH", t0, bytes, 1 + idx);
  }
}

Kernel* SimDevice::getKernel(const KernelSpec& spec) {
  std::lock_guard lock(kernelsMutex_);
  for (auto& k : kernels_) {
    if (k->spec() == spec) return k.get();
  }
  kernels_.push_back(std::make_unique<SimKernel>(spec, kernels::lookupKernel(spec)));
  return kernels_.back().get();
}

void SimDevice::launch(Kernel& kernel, const LaunchDims& dims,
                       const KernelArgs& args, const perf::LaunchWork& work,
                       const LaunchOptions& opts) {
  // The fault hook fires at enqueue time in both modes, so injected launch
  // failures surface at the enqueuing API call and counting stays
  // deterministic regardless of stream depth (docs/ROBUSTNESS.md).
  fault::Injector::instance().onLaunch(framework_.faultTag);
  auto& k = static_cast<SimKernel&>(kernel);
  if (!streams_.empty()) {
    const int idx = clampStream(opts.stream);
    LaunchRecord rec;
    rec.fn = k.fn();
    rec.spec = k.spec();
    rec.dims = dims;
    rec.args = args;
    rec.work = work;
    rec.keepAlive = opts.keepAlive;
    rec.concurrentWithPrevious = opts.concurrentWithPrevious;
    const bool timing = recorder_ != nullptr && recorder_->timingEnabled();
    if (timing) {
      rec.enqueueNs = recorder_->nowNs();
      rec.flowId = obs::nextFlowId();
    }
    const std::uint64_t enqueueBeginNs = rec.enqueueNs;
    const std::uint64_t flowId = rec.flowId;
    if (recorder_ != nullptr) {
      recorder_->count(obs::Counter::kKernelLaunches);
      recorder_->count(obs::Counter::kStreamedLaunches);
    }
    streams_[idx].stream->enqueue(std::move(rec));
    if (recorder_ != nullptr) {
      // Exported gauge: queue depth the API thread observed right after
      // this enqueue, summed across streams (high-water kept by the
      // recorder).
      publishPendingDepth();
      if (timing) {
        obs::TraceEvent ev;
        ev.category = obs::Category::kEnqueue;
        ev.name = kernelIdName(k.spec().id);
        ev.beginNs = enqueueBeginNs;
        ev.durNs = recorder_->nowNs() - enqueueBeginNs;
        ev.tid = 0;  // API thread
        ev.stream = 1 + idx;
        ev.groups = static_cast<std::uint64_t>(dims.numGroups);
        ev.device = profile_.name;
        ev.framework = framework_.name;
        ev.flowId = flowId;
        ev.flowPhase = 1;  // flow starts at the enqueue span
        recorder_->recordEvent(std::move(ev));
      }
    }
    return;
  }
  const auto t0 = Clock::now();
  executeGrid(k.fn(), dims, args, fission_);
  const auto t1 = Clock::now();
  const double measured = std::chrono::duration<double>(t1 - t0).count();
  timeline_.measuredSeconds += measured;
  timeline_.modeledSeconds +=
      profile_.hostMeasured
          ? measured
          : perf::modeledKernelSeconds(profile_, work, framework_.openCl);
  ++timeline_.kernelLaunches;
  if (recorder_ != nullptr) {
    recorder_->count(obs::Counter::kKernelLaunches);
    if (recorder_->timingEnabled()) {
      obs::TraceEvent ev;
      ev.category = obs::Category::kKernel;
      ev.name = kernelIdName(k.spec().id);
      ev.beginNs = recorder_->sinceEpochNs(t0);
      ev.durNs = recorder_->sinceEpochNs(t1) - ev.beginNs;
      ev.stream = 0;  // synchronous mode: the single default stream
      ev.groups = static_cast<std::uint64_t>(dims.numGroups);
      ev.device = profile_.name;
      ev.framework = framework_.name;
      recorder_->recordEvent(std::move(ev));
    }
  }
}

void SimDevice::fillZero(const BufferPtr& buf, std::size_t offset,
                         std::size_t bytes) {
  checkRange(offset, bytes, buf->size(), "fill");
  if (streams_.empty()) {
    std::memset(static_cast<std::byte*>(buf->data()) + offset, 0, bytes);
    return;
  }
  // Fills always land on stream 0 (the compute stream): fillZero has no
  // stream routing, and every fill target in the accel layer is
  // compute-stream-ordered state (staging, cumulative scale buffers).
  LaunchRecord rec;
  rec.kind = LaunchRecord::Kind::Fill;
  rec.fillBuf = buf;
  rec.fillOffset = offset;
  rec.fillBytes = bytes;
  streams_[0].stream->enqueue(std::move(rec));
}

void SimDevice::finish() {
  if (streams_.empty()) return;  // synchronous mode: nothing queued, ever
  if (recorder_ != nullptr) {
    obs::ScopedSpan span(*recorder_, obs::Category::kStreamFlush, "stream.flush");
    syncAll();
  } else {
    syncAll();
  }
}

void SimDevice::setAsync(bool enabled) {
  if (enabled && streams_.empty()) {
    for (int i = 0; i < streamCount_; ++i) addStream();
  } else if (!enabled && !streams_.empty()) {
    syncAll();
    streams_.clear();
  }
}

void SimDevice::setStreamCount(int n) {
  n = std::min(std::max(n, 1), kMaxStreams);
  streamCount_ = n;
  if (streams_.empty()) return;  // applied on the next setAsync(true)
  if (static_cast<int>(streams_.size()) == n) return;
  // Drain everything first: resizing must not orphan queued records, and
  // a global sync point makes the per-stream clocks directly comparable.
  syncAll();
  while (static_cast<int>(streams_.size()) > n) streams_.pop_back();
  while (static_cast<int>(streams_.size()) < n) addStream();
}

StreamEventPtr SimDevice::recordEvent(int stream) {
  if (streams_.size() < 2) return nullptr;
  auto event = std::make_shared<StreamEvent>();
  if (recorder_ != nullptr && recorder_->timingEnabled()) {
    event->flowId = obs::nextFlowId();
  }
  LaunchRecord rec;
  rec.kind = LaunchRecord::Kind::Signal;
  rec.event = event;
  streams_[clampStream(stream)].stream->enqueue(std::move(rec));
  return event;
}

void SimDevice::waitEvent(int stream, const StreamEventPtr& event) {
  if (streams_.empty() || !event) return;
  LaunchRecord rec;
  rec.kind = LaunchRecord::Kind::Wait;
  rec.event = event;
  streams_[clampStream(stream)].stream->enqueue(std::move(rec));
}

void SimDevice::resetTimeline() {
  std::lock_guard lock(timelineMutex_);
  timeline_.reset();
  for (auto& slot : streams_) slot.clock = 0.0;
}

void SimDevice::addStream() {
  const std::size_t idx = streams_.size();
  StreamSlot slot;
  // A stream born mid-run starts at the device's current modeled time: it
  // cannot retroactively overlap work that already happened.
  slot.clock = timeline_.modeledSeconds;
  slot.stream = std::make_unique<CommandStream>(
      [this, idx](const LaunchRecord* recs, std::size_t n) {
        executeRun(idx, recs, n);
      });
  streams_.push_back(std::move(slot));
}

/// Drain every stream, then rethrow the first latched error (all streams
/// drain even when one failed, so no queued work is left behind a throw).
void SimDevice::syncAll() {
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

/// Export the summed queue depth. Set at every enqueue AND after every
/// drain: a gauge refreshed only at enqueue would leave an idle instance
/// reporting its last depth forever, and serve admission sums these levels
/// against maxPendingDepth.
void SimDevice::publishPendingDepth() {
  if (recorder_ == nullptr) return;
  std::size_t total = 0;
  for (const auto& slot : streams_) total += slot.stream->pendingDepth();
  recorder_->setGauge(obs::Gauge::kPendingDepth, total);
}

/// Modeled-copy accounting for a full-flush copy: a global sync point, so
/// every stream clock advances to the common barrier plus the copy time.
void SimDevice::accountCopy(double seconds, std::size_t bytes) {
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

/// Worker-side execution of one maximal run of fused records. Owns all
/// timeline/trace accounting for async launches; `timelineMutex_` orders
/// concurrent workers, and the API thread only reads the timeline after a
/// flush, which the stream mutexes order after every update made here.
void SimDevice::executeRun(std::size_t streamIdx, const LaunchRecord* recs,
                           std::size_t n) {
  if (recs[0].kind == LaunchRecord::Kind::Signal ||
      recs[0].kind == LaunchRecord::Kind::Wait) {
    executeSync(streamIdx, recs[0]);
    return;
  }
  // The gauge drops back to 0 on every exit, a kernel that throws included.
  struct InFlight {
    obs::TraceRecorder* recorder;
    InFlight(obs::TraceRecorder* r, std::size_t n) : recorder(r) {
      if (recorder != nullptr) recorder->setGauge(obs::Gauge::kInFlight, n);
    }
    ~InFlight() {
      if (recorder != nullptr) recorder->setGauge(obs::Gauge::kInFlight, 0);
    }
  } inFlight(recorder_, n);
  if (recs[0].kind == LaunchRecord::Kind::Fill) {  // fills never fuse: n == 1
    std::memset(static_cast<std::byte*>(recs[0].fillBuf->data()) +
                    recs[0].fillOffset,
                0, recs[0].fillBytes);
    return;
  }
  const auto t0 = Clock::now();
  // Only this stream's worker touches its item buffer; it grows only at a
  // new fused-run high-water mark.
  auto& items = streams_[streamIdx].items;
  if (items.size() < n) items.resize(n);
  for (std::size_t i = 0; i < n; ++i) {
    items[i] = {recs[i].fn, recs[i].dims, &recs[i].args};
  }
  executeGridBatch(items.data(), n, fission_);
  const auto t1 = Clock::now();
  const double measured = std::chrono::duration<double>(t1 - t0).count();
  double runModeled = 0.0;
  for (std::size_t i = 0; i < n; ++i) {
    runModeled += profile_.hostMeasured
                      ? measured / static_cast<double>(n)
                      : perf::modeledKernelSeconds(profile_, recs[i].work,
                                                   framework_.openCl);
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
    // The members of a fused run share one dispatch: each gets an equal
    // slice of it, staggered from t0, so the kernel spans of a run add up
    // to its measured time once rather than n times.
    const std::uint64_t runBeginNs = recorder_->sinceEpochNs(t0);
    const std::uint64_t runNs = recorder_->sinceEpochNs(t1) - runBeginNs;
    for (std::size_t i = 0; i < n; ++i) {
      obs::TraceEvent ev;
      ev.category = obs::Category::kKernel;
      ev.name = kernelIdName(recs[i].spec.id);
      ev.beginNs = runBeginNs + runNs * i / n;
      ev.durNs = runBeginNs + runNs * (i + 1) / n - ev.beginNs;
      ev.tid = 1 + static_cast<int>(streamIdx);  // per-stream worker
      ev.stream = 1 + static_cast<int>(streamIdx);
      ev.groups = static_cast<std::uint64_t>(recs[i].dims.numGroups);
      ev.device = profile_.name;
      ev.framework = framework_.name;
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
}

/// Signal: stamp the producer clock into the event (the stream signals it
/// after we return). Wait: the stream already blocked until the signal, so
/// merge the producer's clock — the consumer cannot be earlier on the
/// modeled timeline than the work it just waited for.
void SimDevice::executeSync(std::size_t streamIdx, const LaunchRecord& rec) {
  const auto t0 = Clock::now();
  const bool isSignal = rec.kind == LaunchRecord::Kind::Signal;
  {
    std::lock_guard lock(timelineMutex_);
    auto& slot = streams_[streamIdx];
    if (isSignal) {
      if (rec.event) rec.event->stampModeled(slot.clock);
    } else if (rec.event) {
      slot.clock = std::max(slot.clock, rec.event->modeledAt());
      timeline_.modeledSeconds = std::max(timeline_.modeledSeconds, slot.clock);
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
    ev.framework = framework_.name;
    if (rec.event->flowId != 0) {
      ev.flowId = rec.event->flowId;
      ev.flowPhase = isSignal ? 1 : 2;  // flow: signal span -> wait span
    }
    recorder_->recordEvent(std::move(ev));
  }
}

void SimDevice::recordCopy(const char* name, Clock::time_point t0,
                           std::size_t bytes, int stream) {
  if (!recorder_->timingEnabled()) return;
  obs::TraceEvent ev;
  ev.category = obs::Category::kMemcpy;
  ev.name = name;
  ev.beginNs = recorder_->sinceEpochNs(t0);
  ev.durNs = recorder_->nowNs() - ev.beginNs;
  ev.stream = stream;
  ev.bytes = bytes;
  ev.device = profile_.name;
  ev.framework = framework_.name;
  recorder_->recordEvent(std::move(ev));
}

}  // namespace bgl::hal
