// Semantics of the asynchronous in-order command stream (the PR's launch
// model): enqueue order is execution order, maximal concurrent runs fuse
// into one dispatch, flush() drains and surfaces deferred errors, and the
// device-level async mode defers work until finish()/readback.
#include <gtest/gtest.h>

#include <atomic>
#include <future>
#include <memory>
#include <mutex>
#include <stdexcept>
#include <thread>
#include <vector>

#include "clsim/cl_runtime.h"
#include "cudasim/cuda_device.h"
#include "hal/command_stream.h"
#include "hal/sim_device.h"
#include "obs/trace.h"
#include "perfmodel/device_profiles.h"

namespace bgl {
namespace {

hal::LaunchRecord kernelRecord(int id, bool concurrent) {
  hal::LaunchRecord rec;
  rec.kind = hal::LaunchRecord::Kind::Kernel;
  rec.args.ints[0] = id;
  rec.concurrentWithPrevious = concurrent;
  return rec;
}

/// Collects the (id, run-length) structure the worker delivers. A `gate`
/// promise lets tests hold the worker inside the first run so subsequent
/// enqueues deterministically pile up behind it.
struct RunLog {
  std::vector<std::vector<int>> runs;
  std::promise<void> gate;

  hal::CommandStream::RunExecutor executor() {
    return [this](const hal::LaunchRecord* recs, std::size_t n) {
      std::vector<int> run;
      for (std::size_t i = 0; i < n; ++i) {
        run.push_back(static_cast<int>(recs[i].args.ints[0]));
      }
      if (!run.empty() && run.front() == -1) gate.get_future().wait();
      runs.push_back(std::move(run));
    };
  }
};

TEST(CommandStream, ExecutesInEnqueueOrder) {
  RunLog log;
  {
    hal::CommandStream stream(log.executor());
    for (int i = 0; i < 16; ++i) stream.enqueue(kernelRecord(i, false));
    stream.flush();
  }
  std::vector<int> flat;
  for (const auto& run : log.runs) flat.insert(flat.end(), run.begin(), run.end());
  ASSERT_EQ(flat.size(), 16u);
  for (int i = 0; i < 16; ++i) EXPECT_EQ(flat[static_cast<std::size_t>(i)], i);
}

TEST(CommandStream, ConcurrentRunsCoalesceIntoOneDispatch) {
  RunLog log;
  hal::CommandStream stream(log.executor());
  // Hold the worker in the gate record so the level below queues up whole.
  stream.enqueue(kernelRecord(-1, false));
  stream.enqueue(kernelRecord(0, false));
  stream.enqueue(kernelRecord(1, true));
  stream.enqueue(kernelRecord(2, true));
  stream.enqueue(kernelRecord(3, false));  // new run: not concurrent
  stream.enqueue(kernelRecord(4, true));
  log.gate.set_value();
  stream.flush();
  ASSERT_EQ(log.runs.size(), 3u);
  EXPECT_EQ(log.runs[0], std::vector<int>({-1}));
  EXPECT_EQ(log.runs[1], std::vector<int>({0, 1, 2}));
  EXPECT_EQ(log.runs[2], std::vector<int>({3, 4}));
}

TEST(CommandStream, FillRecordsNeverFuse) {
  RunLog log;
  hal::CommandStream stream(log.executor());
  stream.enqueue(kernelRecord(-1, false));
  stream.enqueue(kernelRecord(0, false));
  hal::LaunchRecord fill;
  fill.kind = hal::LaunchRecord::Kind::Fill;
  fill.args.ints[0] = 100;
  fill.concurrentWithPrevious = true;  // must be ignored for fills
  stream.enqueue(fill);
  stream.enqueue(kernelRecord(1, true));  // cannot fuse across the fill
  log.gate.set_value();
  stream.flush();
  ASSERT_EQ(log.runs.size(), 4u);
  EXPECT_EQ(log.runs[1], std::vector<int>({0}));
  EXPECT_EQ(log.runs[2], std::vector<int>({100}));
  EXPECT_EQ(log.runs[3], std::vector<int>({1}));
}

TEST(CommandStream, TracksQueueDepthHighWaterMark) {
  RunLog log;
  hal::CommandStream stream(log.executor());
  stream.enqueue(kernelRecord(-1, false));
  for (int i = 0; i < 8; ++i) stream.enqueue(kernelRecord(i, false));
  EXPECT_GE(stream.pendingDepth(), 8u);
  log.gate.set_value();
  stream.flush();
  EXPECT_EQ(stream.pendingDepth(), 0u);
  EXPECT_GE(stream.maxDepth(), 8u);
}

TEST(CommandStream, FlushRethrowsDeferredErrorAndDropsLaterRecords) {
  std::vector<int> executed;
  hal::CommandStream stream([&executed](const hal::LaunchRecord* recs,
                                        std::size_t n) {
    for (std::size_t i = 0; i < n; ++i) {
      const int id = static_cast<int>(recs[i].args.ints[0]);
      if (id == 13) throw std::runtime_error("injected worker failure");
      executed.push_back(id);
    }
  });
  stream.enqueue(kernelRecord(1, false));
  stream.enqueue(kernelRecord(13, false));
  stream.enqueue(kernelRecord(2, false));  // enqueued after the failure: dropped
  EXPECT_THROW(stream.flush(), std::runtime_error);
  // The error is cleared: the stream remains usable afterwards.
  stream.enqueue(kernelRecord(3, false));
  EXPECT_NO_THROW(stream.flush());
  EXPECT_EQ(executed, std::vector<int>({1, 3}));
}

TEST(CommandStream, DestructorDrainsWithoutFlush) {
  std::vector<int> executed;
  {
    hal::CommandStream stream(
        [&executed](const hal::LaunchRecord* recs, std::size_t n) {
          for (std::size_t i = 0; i < n; ++i) {
            executed.push_back(static_cast<int>(recs[i].args.ints[0]));
          }
        });
    stream.enqueue(kernelRecord(7, false));
    stream.enqueue(kernelRecord(8, true));
  }
  EXPECT_EQ(executed, std::vector<int>({7, 8}));
}

// ---------------------------------------------------------------------
// failed_ error-latch thread-safety regression (the PR 9 bugfix): the
// worker thread polls the latch while another thread latches and clears
// it through flush(). Before failed_ became atomic this was a data race
// TSan flags (CI runs this suite under -fsanitize=thread).
// ---------------------------------------------------------------------

TEST(CommandStream, ErrorLatchIsThreadSafeUnderConcurrentFlush) {
  std::atomic<int> executed{0};
  hal::CommandStream stream(
      [&executed](const hal::LaunchRecord* recs, std::size_t n) {
        for (std::size_t i = 0; i < n; ++i) {
          if (recs[i].args.ints[0] < 0) throw std::runtime_error("injected");
          executed.fetch_add(1, std::memory_order_relaxed);
        }
      });
  std::atomic<bool> stop{false};
  // One thread flushes in a loop (clearing the latch each time an injected
  // failure surfaces) while this thread keeps enqueuing records that keep
  // re-latching it on the worker.
  std::thread flusher([&stream, &stop] {
    while (!stop.load(std::memory_order_relaxed)) {
      try {
        stream.flush();
      } catch (const std::runtime_error&) {
      }
    }
  });
  for (int i = 0; i < 4000; ++i) {
    stream.enqueue(kernelRecord(i % 7 == 0 ? -1 : i, false));
  }
  stop.store(true, std::memory_order_relaxed);
  flusher.join();
  try {
    stream.flush();
  } catch (const std::runtime_error&) {
  }
  // flush() cleared whatever was latched: the stream must be usable again.
  const int before = executed.load();
  stream.enqueue(kernelRecord(1, false));
  EXPECT_NO_THROW(stream.flush());
  EXPECT_EQ(executed.load(), before + 1);
}

// ---------------------------------------------------------------------
// Cross-stream events: Signal/Wait records, their ordering guarantees,
// and the no-deadlock error-path contract.
// ---------------------------------------------------------------------

hal::LaunchRecord signalRecord(const hal::StreamEventPtr& event) {
  hal::LaunchRecord rec;
  rec.kind = hal::LaunchRecord::Kind::Signal;
  rec.event = event;
  return rec;
}

hal::LaunchRecord waitRecord(const hal::StreamEventPtr& event) {
  hal::LaunchRecord rec;
  rec.kind = hal::LaunchRecord::Kind::Wait;
  rec.event = event;
  return rec;
}

TEST(CommandStream, WaitOrdersWorkAfterSignalingStream) {
  const auto event = std::make_shared<hal::StreamEvent>();
  std::vector<int> order;
  std::mutex orderMutex;
  std::promise<void> gate;
  auto gateFuture = gate.get_future().share();
  const auto logger = [&order, &orderMutex, gateFuture](int tag) {
    return [&order, &orderMutex, gateFuture, tag](const hal::LaunchRecord* recs,
                                                  std::size_t n) {
      for (std::size_t i = 0; i < n; ++i) {
        if (recs[i].kind != hal::LaunchRecord::Kind::Kernel) continue;
        const int id = static_cast<int>(recs[i].args.ints[0]);
        if (id == -1) {
          gateFuture.wait();  // hold this worker until the test releases it
          continue;
        }
        std::lock_guard lock(orderMutex);
        order.push_back(tag * 100 + id);
      }
    };
  };

  hal::CommandStream producer(logger(1));
  hal::CommandStream consumer(logger(2));

  // Hold the producer in a gate so the Signal provably has not fired while
  // the consumer's Wait is already pending on its worker.
  producer.enqueue(kernelRecord(-1, false));
  producer.enqueue(kernelRecord(1, false));
  producer.enqueue(signalRecord(event));
  consumer.enqueue(waitRecord(event));
  consumer.enqueue(kernelRecord(2, false));

  EXPECT_FALSE(event->signaled());
  gate.set_value();
  producer.flush();
  consumer.flush();
  EXPECT_TRUE(event->signaled());

  std::lock_guard lock(orderMutex);
  ASSERT_EQ(order.size(), 2u);
  // Producer's payload kernel (101) retired before the consumer's (202).
  EXPECT_EQ(order[0], 101);
  EXPECT_EQ(order[1], 202);
}

TEST(CommandStream, SignalStillFiresWhenExecutorThrows) {
  const auto event = std::make_shared<hal::StreamEvent>();
  hal::CommandStream stream([](const hal::LaunchRecord*, std::size_t) {
    throw std::runtime_error("every record fails");
  });
  stream.enqueue(signalRecord(event));
  EXPECT_THROW(stream.flush(), std::runtime_error);
  // A dependent stream waiting on this event must not deadlock.
  EXPECT_TRUE(event->signaled());
}

TEST(CommandStream, SignalStillFiresOnErrorDropPath) {
  const auto event = std::make_shared<hal::StreamEvent>();
  hal::CommandStream stream([](const hal::LaunchRecord* recs, std::size_t n) {
    for (std::size_t i = 0; i < n; ++i) {
      if (recs[i].args.ints[0] == 13) throw std::runtime_error("injected");
    }
  });
  stream.enqueue(kernelRecord(13, false));
  // Enqueued after the failure latches: the record is dropped, but its
  // signal must still fire or a waiting stream would hang forever.
  stream.enqueue(signalRecord(event));
  EXPECT_THROW(stream.flush(), std::runtime_error);
  EXPECT_TRUE(event->signaled());
}

TEST(CommandStream, WaitsAreSkippedAfterErrorLatches) {
  // A Wait on a never-signaled event after the latch must not block the
  // worker: the error-drop path skips waits entirely.
  const auto neverSignaled = std::make_shared<hal::StreamEvent>();
  hal::CommandStream stream([](const hal::LaunchRecord* recs, std::size_t n) {
    for (std::size_t i = 0; i < n; ++i) {
      if (recs[i].args.ints[0] == 13) throw std::runtime_error("injected");
    }
  });
  stream.enqueue(kernelRecord(13, false));
  stream.enqueue(waitRecord(neverSignaled));
  stream.enqueue(kernelRecord(1, false));
  EXPECT_THROW(stream.flush(), std::runtime_error);  // returns: no deadlock
  EXPECT_FALSE(neverSignaled->signaled());
}

TEST(CommandStream, SignalAndWaitNeverFuseWithKernels) {
  RunLog log;
  const auto event = std::make_shared<hal::StreamEvent>();
  hal::CommandStream stream(log.executor());
  stream.enqueue(kernelRecord(-1, false));
  stream.enqueue(kernelRecord(0, false));
  auto sig = signalRecord(event);
  sig.concurrentWithPrevious = true;  // must be ignored for signals
  stream.enqueue(std::move(sig));
  stream.enqueue(kernelRecord(1, true));  // cannot fuse across the signal
  log.gate.set_value();
  stream.flush();
  ASSERT_EQ(log.runs.size(), 4u);
  EXPECT_EQ(log.runs[1], std::vector<int>({0}));
  EXPECT_EQ(log.runs[2].size(), 1u);  // the signal, alone
  EXPECT_EQ(log.runs[3], std::vector<int>({1}));
  EXPECT_TRUE(event->signaled());
}

// ---------------------------------------------------------------------
// Device-level async mode: both simulated frameworks defer launches onto
// the stream and drain at finish() / host readback, with identical results
// and the same launch accounting as the synchronous mode.
// ---------------------------------------------------------------------

void exerciseAsyncDevice(hal::Device& dev) {
  dev.setAsync(true);
  EXPECT_TRUE(dev.asyncEnabled());

  hal::KernelSpec spec;
  spec.id = hal::KernelId::ResetScale;
  spec.states = 4;
  auto* kernel = dev.getKernel(spec);

  std::vector<double> ones(256, 1.0);
  auto buf = dev.alloc(256 * sizeof(double));
  dev.copyToDevice(*buf, 0, ones.data(), 256 * sizeof(double));

  hal::KernelArgs args;
  args.buffers[0] = buf->data();
  args.ints[0] = 256;
  dev.launch(*kernel, {1, 1, 0}, args, {});
  dev.launch(*kernel, {1, 1, 0}, args, {});
  dev.finish();
  EXPECT_EQ(dev.timeline().kernelLaunches, 2u);

  // Readback drains the stream implicitly: the data is the kernel's output.
  std::vector<double> out(256, -1.0);
  dev.copyToHost(out.data(), *buf, 0, 256 * sizeof(double));
  for (double v : out) EXPECT_DOUBLE_EQ(v, 0.0);

  // fillZero is a stream record too, ordered after the launches.
  dev.copyToDevice(*buf, 0, ones.data(), 256 * sizeof(double));
  dev.fillZero(buf, 0, 128 * sizeof(double));
  dev.copyToHost(out.data(), *buf, 0, 256 * sizeof(double));
  for (int i = 0; i < 128; ++i) EXPECT_DOUBLE_EQ(out[static_cast<std::size_t>(i)], 0.0);
  for (int i = 128; i < 256; ++i) {
    EXPECT_DOUBLE_EQ(out[static_cast<std::size_t>(i)], 1.0);
  }
}

TEST(AsyncDevice, CudaRuntimeDefersAndDrains) {
  auto dev = cudasim::createDevice(perf::kHostCpu);
  exerciseAsyncDevice(*dev);
}

TEST(AsyncDevice, OpenClRuntimeDefersAndDrains) {
  auto dev = clsim::createDeviceByProfile(perf::kHostCpu);
  exerciseAsyncDevice(*dev);
}

TEST(AsyncDevice, SynchronousRemainsTheDefault) {
  auto dev = cudasim::createDevice(perf::kHostCpu);
  EXPECT_FALSE(dev->asyncEnabled());
}

// The in-flight gauge is the number of records a stream worker holds right
// now, so an idle device reads 0 even when its last record was a fill (an
// accelerator instance with scale buffers ends its constructor on one).
TEST(AsyncDevice, InFlightGaugeClearsAfterTrailingFill) {
  for (const auto& dev : {cudasim::createDevice(perf::kHostCpu),
                          clsim::createDeviceByProfile(perf::kHostCpu)}) {
    obs::TraceRecorder recorder;
    dev->setRecorder(&recorder);
    dev->setAsync(true);
    hal::KernelSpec spec;
    spec.id = hal::KernelId::ResetScale;
    spec.states = 4;
    auto buf = dev->alloc(256 * sizeof(double));
    hal::KernelArgs args;
    args.buffers[0] = buf->data();
    args.ints[0] = 256;
    dev->launch(*dev->getKernel(spec), {1, 1, 0}, args, {});
    dev->fillZero(buf, 0, 256 * sizeof(double));
    dev->finish();
    EXPECT_EQ(recorder.gauge(obs::Gauge::kInFlight), 0u) << dev->frameworkName();
    EXPECT_GE(recorder.gaugeMax(obs::Gauge::kInFlight), 1u) << dev->frameworkName();
    dev->setRecorder(nullptr);
  }
}

void throwingKernel(const hal::WorkGroupCtx&, const hal::KernelArgs&) {
  throw std::runtime_error("kernel fault on the stream worker");
}

// A kernel that throws on the stream worker must not leave the gauge at
// the size of its run: the error surfaces at the next drain, and the idle
// device reads 0.
TEST(AsyncDevice, InFlightGaugeClearsAfterWorkerThrow) {
  for (const auto& dev : {cudasim::createDevice(perf::kHostCpu),
                          clsim::createDeviceByProfile(perf::kHostCpu)}) {
    obs::TraceRecorder recorder;
    dev->setRecorder(&recorder);
    dev->setAsync(true);
    hal::KernelSpec spec;
    spec.id = hal::KernelId::ResetScale;
    spec.states = 4;
    hal::SimKernel thrower(spec, &throwingKernel);
    dev->launch(thrower, {1, 1, 0}, {}, {});
    EXPECT_THROW(dev->finish(), std::runtime_error) << dev->frameworkName();
    EXPECT_EQ(recorder.gauge(obs::Gauge::kInFlight), 0u) << dev->frameworkName();
    EXPECT_GE(recorder.gaugeMax(obs::Gauge::kInFlight), 1u) << dev->frameworkName();
    dev->setRecorder(nullptr);
  }
}

std::atomic<bool> gGateOpen{false};

/// Holds the stream worker until the test opens the gate.
void gateKernel(const hal::WorkGroupCtx&, const hal::KernelArgs&) {
  while (!gGateOpen.load()) std::this_thread::yield();
}

// The members of a fused run share one dispatch, so their kernel spans
// must add up to the run's measured time once, not once per member:
// the kernel-category seconds equal the timeline's measured seconds.
TEST(AsyncDevice, FusedRunCountsKernelTimeOnce) {
  constexpr int kFused = 8;
  for (const auto& dev : {cudasim::createDevice(perf::kHostCpu),
                          clsim::createDeviceByProfile(perf::kHostCpu)}) {
    obs::TraceRecorder recorder;
    recorder.enableTiming();
    dev->setRecorder(&recorder);
    dev->setAsync(true);
    hal::KernelSpec spec;
    spec.id = hal::KernelId::ResetScale;
    spec.states = 4;
    auto buf = dev->alloc(4096 * sizeof(double));
    hal::KernelArgs args;
    args.buffers[0] = buf->data();
    args.ints[0] = 4096;
    args.ints[1] = 64;
    // The gate holds the worker, so the launches behind it queue up whole
    // and retire as one run of kFused.
    gGateOpen = false;
    hal::SimKernel gate(spec, &gateKernel);
    dev->launch(gate, {1, 1, 0}, args, {});
    hal::Kernel* reset = dev->getKernel(spec);
    for (int i = 0; i < kFused; ++i) {
      hal::LaunchOptions opts;
      opts.concurrentWithPrevious = i > 0;
      dev->launch(*reset, {64, 1, 0}, args, {}, opts);
    }
    gGateOpen = true;
    dev->finish();
    ASSERT_EQ(recorder.gaugeMax(obs::Gauge::kInFlight), static_cast<std::uint64_t>(kFused))
        << dev->frameworkName();
    EXPECT_EQ(recorder.categoryCount(obs::Category::kKernel), kFused + 1u);
    EXPECT_NEAR(recorder.categorySeconds(obs::Category::kKernel),
                dev->timeline().measuredSeconds, 1e-9)
        << dev->frameworkName();
    dev->setRecorder(nullptr);
  }
}

// ---------------------------------------------------------------------
// Multi-stream device model: several in-order streams per device, event
// fences between them, stream-scoped readbacks, per-stream modeled clocks.
// ---------------------------------------------------------------------

void exerciseMultiStreamDevice(hal::Device& dev) {
  dev.setStreamCount(2);
  dev.setAsync(true);
  ASSERT_EQ(dev.streamCount(), 2);

  hal::KernelSpec spec;
  spec.id = hal::KernelId::ResetScale;
  spec.states = 4;
  auto* kernel = dev.getKernel(spec);

  std::vector<double> ones(256, 1.0);
  auto buf = dev.alloc(256 * sizeof(double));
  dev.copyToDevice(*buf, 0, ones.data(), 256 * sizeof(double));

  // Producer kernel on stream 1 zeroes the buffer; the consumer readback on
  // stream 0 is fenced behind it by an event. Correct data through the
  // stream-scoped readback proves the Wait ordered the cross-stream edge.
  hal::KernelArgs args;
  args.buffers[0] = buf->data();
  args.ints[0] = 256;
  hal::LaunchOptions opts;
  opts.stream = 1;
  dev.launch(*kernel, {1, 1, 0}, args, {}, opts);
  const auto ready = dev.recordEvent(1);
  ASSERT_NE(ready, nullptr);
  dev.waitEvent(0, ready);

  std::vector<double> out(256, -1.0);
  dev.copyToHostFromStream(out.data(), *buf, 0, 256 * sizeof(double), 0);
  for (double v : out) EXPECT_DOUBLE_EQ(v, 0.0);
  EXPECT_TRUE(ready->signaled());

  // Same-stream Signal-then-Wait retires in order: a pipelined caller on a
  // degraded 1-stream device must not deadlock.
  dev.setStreamCount(1);
  EXPECT_EQ(dev.streamCount(), 1);
  dev.waitEvent(0, dev.recordEvent(0));
  dev.finish();

  // Out-of-range stream indices clamp instead of crashing.
  opts.stream = 7;
  dev.launch(*kernel, {1, 1, 0}, args, {}, opts);
  dev.finish();

  // resetTimeline() zeroes the device timeline and every stream clock.
  dev.resetTimeline();
  EXPECT_EQ(dev.timeline().modeledSeconds, 0.0);
  EXPECT_EQ(dev.timeline().kernelLaunches, 0u);

  // Stream counts clamp to the supported range.
  dev.setStreamCount(64);
  EXPECT_LE(dev.streamCount(), 8);
  dev.setStreamCount(0);
  EXPECT_EQ(dev.streamCount(), 1);
}

TEST(MultiStreamDevice, CudaRuntimeFencesAcrossStreams) {
  auto dev = cudasim::createDevice(perf::kHostCpu);
  exerciseMultiStreamDevice(*dev);
}

TEST(MultiStreamDevice, OpenClRuntimeFencesAcrossStreams) {
  auto dev = clsim::createDeviceByProfile(perf::kHostCpu);
  exerciseMultiStreamDevice(*dev);
}

TEST(MultiStreamDevice, SynchronousDeviceHasNoStreamsOrEvents) {
  auto dev = cudasim::createDevice(perf::kHostCpu);
  EXPECT_EQ(dev->streamCount(), 0);
  EXPECT_EQ(dev->recordEvent(0), nullptr);
  // waitEvent on a sync device is a no-op, not a crash.
  dev->waitEvent(0, nullptr);
}

// One in-order stream already orders every record, so an async device
// with a single stream records no events (and so enqueues no Signal).
TEST(MultiStreamDevice, SingleStreamDeviceReturnsNoEvents) {
  for (const auto& dev : {cudasim::createDevice(perf::kHostCpu),
                          clsim::createDeviceByProfile(perf::kHostCpu)}) {
    dev->setAsync(true);
    ASSERT_EQ(dev->streamCount(), 1) << dev->frameworkName();
    EXPECT_EQ(dev->recordEvent(0), nullptr) << dev->frameworkName();
    EXPECT_EQ(dev->recordEvent(1), nullptr) << dev->frameworkName();
    dev->waitEvent(0, nullptr);  // a null event is a no-op
    dev->finish();
  }
}

TEST(MultiStreamDevice, ModeledClocksTakeCriticalPathNotSum) {
  // On a simulated profile the timeline is the roofline model. Two streams
  // each running one identical kernel must advance the device's modeled
  // time by ~one kernel, not two: the clocks run concurrently and
  // modeledSeconds is their max (the critical path). Both frameworks: the
  // Quadro through CUDA and through its vendor OpenCL platform.
  const auto runTwoKernels = [](hal::Device& dev, int secondStream) {
    dev.setStreamCount(2);
    dev.setAsync(true);
    hal::KernelSpec spec;
    spec.id = hal::KernelId::ResetScale;
    spec.states = 4;
    auto* kernel = dev.getKernel(spec);
    auto buf = dev.alloc(4096 * sizeof(double));
    hal::KernelArgs args;
    args.buffers[0] = buf->data();
    args.ints[0] = 4096;
    perf::LaunchWork work;
    work.flops = 1e7;
    work.bytes = 4096 * sizeof(double);
    work.numGroups = 8;
    hal::LaunchOptions opts;
    opts.stream = 0;
    dev.launch(*kernel, {8, 64, 0}, args, work, opts);
    opts.stream = secondStream;
    dev.launch(*kernel, {8, 64, 0}, args, work, opts);
    dev.finish();
    return dev.timeline().modeledSeconds;
  };

  for (const auto& make :
       {+[] { return cudasim::createDevice(perf::kQuadroP5000); },
        +[] { return clsim::createDeviceByProfile(perf::kQuadroP5000); }}) {
    auto serial = make();
    auto parallel = make();
    const double sumSeconds = runTwoKernels(*serial, 0);    // same stream
    const double maxSeconds = runTwoKernels(*parallel, 1);  // split streams
    EXPECT_GT(sumSeconds, 0.0) << serial->frameworkName();
    // The split run models the two kernels as overlapped: it must cost
    // about half the serial run (allow slack for launch-overhead terms).
    EXPECT_LT(maxSeconds, 0.75 * sumSeconds) << serial->frameworkName();
  }
}

}  // namespace
}  // namespace bgl
