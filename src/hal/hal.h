// HAL: the single internal hardware interface of the accelerator model.
//
// This layer corresponds to the "hardware interface" box in Fig. 3 of the
// paper: the framework-independent accelerator implementation talks only to
// this interface, and one concrete Device exists per (framework, device)
// pair — cudasim provides the CUDA-style one, clsim the OpenCL-style one,
// both thin leaves over the shared simulated-device core (sim_device.h).
// The interface covers kernel loading/compilation keyed by analysis
// parameters (state count, precision, hardware variant), kernel execution,
// data movement, and device characteristics.
#pragma once

#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <memory>
#include <mutex>
#include <string>

#include "core/defs.h"
#include "perfmodel/device_profiles.h"

namespace bgl::obs {
class TraceRecorder;
}

namespace bgl::hal {

/// Identifiers for the shared kernel set (one source set, both frameworks).
enum class KernelId : int {
  PartialsPartials = 0,   ///< two partials children (Eq. 1 core)
  StatesPartials,         ///< one compact-state child, one partials child
  StatesStates,           ///< two compact-state children
  TransitionMatrices,     ///< P(t) from eigendecomposition
  TransitionMatricesDerivs,///< P(t), P'(t), P''(t)
  RootLikelihood,         ///< integrate root partials -> site log-likelihoods
  EdgeLikelihood,         ///< edge likelihood
  EdgeLikelihoodDerivs,   ///< edge likelihood with 1st/2nd derivatives
  RescalePartials,        ///< find per-pattern max and rescale
  AccumulateScale,        ///< add log scale factors into cumulative buffer
  ResetScale,             ///< zero a cumulative scale buffer
  SumSiteLikelihoods,     ///< weighted reduction of site log-likelihoods
  kCount
};

/// Stable kernel names used in trace output.
inline const char* kernelIdName(KernelId id) {
  switch (id) {
    case KernelId::PartialsPartials: return "PartialsPartials";
    case KernelId::StatesPartials: return "StatesPartials";
    case KernelId::StatesStates: return "StatesStates";
    case KernelId::TransitionMatrices: return "TransitionMatrices";
    case KernelId::TransitionMatricesDerivs: return "TransitionMatricesDerivs";
    case KernelId::RootLikelihood: return "RootLikelihood";
    case KernelId::EdgeLikelihood: return "EdgeLikelihood";
    case KernelId::EdgeLikelihoodDerivs: return "EdgeLikelihoodDerivs";
    case KernelId::RescalePartials: return "RescalePartials";
    case KernelId::AccumulateScale: return "AccumulateScale";
    case KernelId::ResetScale: return "ResetScale";
    case KernelId::SumSiteLikelihoods: return "SumSiteLikelihoods";
    case KernelId::kCount: break;
  }
  return "Unknown";
}

/// Hardware-specific kernel variants (Section VII-B): GPU-style kernels
/// parallelize across (pattern, state) with local-memory staging; x86-style
/// kernels loop over states inside each work-item and avoid explicit local
/// memory, with much larger work-groups.
enum class KernelVariant : int { GpuStyle = 0, X86Style = 1 };

/// Key under which compiled kernels are cached.
struct KernelSpec {
  KernelId id = KernelId::PartialsPartials;
  int states = 4;
  bool singlePrecision = false;
  KernelVariant variant = KernelVariant::GpuStyle;
  bool useFma = true;

  bool operator==(const KernelSpec&) const = default;
};

/// Execution geometry of one launch: 1-D grid of work-groups.
struct LaunchDims {
  int numGroups = 1;
  int groupSize = 1;          ///< work-items per group
  std::size_t localMemBytes = 0;
};

/// Untyped argument pack; each kernel documents its slot layout.
struct KernelArgs {
  static constexpr int kMaxBuffers = 12;
  static constexpr int kMaxInts = 12;
  static constexpr int kMaxReals = 4;
  void* buffers[kMaxBuffers] = {};
  std::int64_t ints[kMaxInts] = {};
  double reals[kMaxReals] = {};
};

/// Work-group context handed to kernel functions by the executing runtime.
struct WorkGroupCtx {
  int groupId = 0;
  int groupSize = 1;
  int numGroups = 1;
  std::byte* localMem = nullptr;
  std::size_t localMemBytes = 0;
};

/// A kernel is a host function executed once per work-group; it loops over
/// its work-items internally (barriers are phase boundaries, the standard
/// loop-fission lowering CPU OpenCL drivers use).
using KernelFn = void (*)(const WorkGroupCtx&, const KernelArgs&);

/// Per-launch options for command-stream execution.
struct LaunchOptions {
  /// Host-side storage referenced by the KernelArgs (index tables, pointer
  /// tables). The stream keeps it alive until the launch has executed.
  std::shared_ptr<const void> keepAlive;
  /// When true, this launch writes no memory the *immediately preceding*
  /// launch reads or writes, so an async stream may fuse the two into one
  /// grid dispatch. Ignored by synchronous devices.
  bool concurrentWithPrevious = false;
  /// Which of the device's in-order command streams receives the launch.
  /// Out-of-range indices clamp to the last stream; synchronous devices
  /// (and devices with a single stream) ignore this.
  int stream = 0;
};

/// Cross-stream synchronization point. Recorded (enqueued) on a producer
/// stream via Device::recordEvent and waited on by a consumer stream via
/// Device::waitEvent: the consumer's worker blocks until every record the
/// producer enqueued before the event has executed — a happens-before edge
/// between two in-order streams without a full flush. Events are single-use
/// and sticky: once signaled they stay signaled, so a late waiter never
/// blocks. `modeledAt` carries the producer stream's modeled clock at
/// signal time so the device timeline can account cross-stream critical
/// paths (see docs/PERFORMANCE.md, "Cross-call pipelining").
class StreamEvent {
 public:
  /// Stamp the producer's modeled clock; called by the device executor just
  /// before signal(). Not synchronized on its own — the signal publishes it.
  void stampModeled(double seconds) { modeledAt_ = seconds; }

  void signal() {
    {
      std::lock_guard lock(mutex_);
      signaled_ = true;
    }
    cv_.notify_all();
  }

  void wait() const {
    std::unique_lock lock(mutex_);
    cv_.wait(lock, [this] { return signaled_; });
  }

  bool signaled() const {
    std::lock_guard lock(mutex_);
    return signaled_;
  }

  /// Valid after wait()/signaled(); 0.0 if the producer dropped the signal
  /// record on an error path (the signal itself still fires — see
  /// command_stream.cpp — so waiters never deadlock on a failed stream).
  double modeledAt() const { return modeledAt_; }

  /// Chrome-trace flow id linking the signal span to its wait spans; set by
  /// the recording device when span timing is enabled.
  std::uint64_t flowId = 0;

 private:
  mutable std::mutex mutex_;
  mutable std::condition_variable cv_;
  bool signaled_ = false;
  double modeledAt_ = 0.0;
};
using StreamEventPtr = std::shared_ptr<StreamEvent>;

/// Device memory allocation handle.
class Buffer {
 public:
  virtual ~Buffer() = default;
  virtual std::size_t size() const = 0;
  /// Host-visible backing storage (the runtimes execute on the host).
  virtual void* data() = 0;
  virtual const void* data() const = 0;
};
using BufferPtr = std::shared_ptr<Buffer>;

/// Compiled kernel handle.
class Kernel {
 public:
  virtual ~Kernel() = default;
  virtual const KernelSpec& spec() const = 0;
};

/// Accumulated execution record for a device. `modeledSeconds` comes from
/// the roofline model (or equals measured time on host-measured devices);
/// `measuredSeconds` is always the real host wall time.
struct Timeline {
  double modeledSeconds = 0.0;
  double measuredSeconds = 0.0;
  std::uint64_t kernelLaunches = 0;
  std::uint64_t bytesCopied = 0;

  void reset() { *this = Timeline{}; }
};

/// The hardware interface. One instance per (framework, physical device).
class Device {
 public:
  virtual ~Device() = default;

  virtual const perf::DeviceProfile& profile() const = 0;
  virtual std::string frameworkName() const = 0;  ///< "CUDA" or "OpenCL"

  virtual BufferPtr alloc(std::size_t bytes) = 0;

  /// Sub-region addressing. The OpenCL runtime implements this with
  /// sub-buffer objects (clCreateSubBuffer semantics: alignment-checked,
  /// parent-owning); the CUDA runtime with plain pointer arithmetic —
  /// the exact distinction Section VII-A had to bridge.
  virtual BufferPtr subBuffer(const BufferPtr& parent, std::size_t offset,
                              std::size_t bytes) = 0;

  virtual void copyToDevice(Buffer& dst, std::size_t dstOffset, const void* src,
                            std::size_t bytes) = 0;
  virtual void copyToHost(void* dst, const Buffer& src, std::size_t srcOffset,
                          std::size_t bytes) = 0;

  /// Stream-scoped readback: drains only `stream` before copying, so other
  /// streams keep executing (the double-buffered root-result readback path).
  /// The caller guarantees no other stream has outstanding writes to the
  /// source region. Default: full-flush copyToHost (synchronous devices and
  /// single-stream devices lose nothing).
  virtual void copyToHostFromStream(void* dst, const Buffer& src,
                                    std::size_t srcOffset, std::size_t bytes,
                                    int /*stream*/) {
    copyToHost(dst, src, srcOffset, bytes);
  }

  /// Fetch (compiling and caching on first use) the kernel for `spec`.
  virtual Kernel* getKernel(const KernelSpec& spec) = 0;

  /// Launch a kernel. `work` feeds the device performance model. In the
  /// default synchronous mode the kernel has completed when this returns;
  /// with async mode enabled (setAsync) it is an enqueue onto the device's
  /// in-order command stream and errors may surface at a later launch,
  /// copy, or finish().
  virtual void launch(Kernel& kernel, const LaunchDims& dims,
                      const KernelArgs& args, const perf::LaunchWork& work,
                      const LaunchOptions& opts = {}) = 0;

  /// Zero `bytes` bytes of `buf` starting at `offset` on the device, without
  /// staging a host-side source. Default: direct memset of backing storage.
  /// Async devices may defer the fill; the shared_ptr pins the allocation.
  virtual void fillZero(const BufferPtr& buf, std::size_t offset,
                        std::size_t bytes) {
    std::memset(static_cast<std::byte*>(buf->data()) + offset, 0, bytes);
  }

  /// Block until all queued work completes.
  virtual void finish() = 0;

  /// Switch the device into (or out of) asynchronous command-stream mode.
  /// Devices without stream support ignore this and stay synchronous.
  virtual void setAsync(bool /*enabled*/) {}
  virtual bool asyncEnabled() const { return false; }

  /// Number of in-order command streams currently live (0 when synchronous).
  virtual int streamCount() const { return asyncEnabled() ? 1 : 0; }

  /// Request `n` in-order streams (clamped to the device's supported range).
  /// Only meaningful in async mode; existing queued work is drained first.
  /// Devices without multi-stream support keep a single stream.
  virtual void setStreamCount(int /*n*/) {}

  /// Enqueue a signal record on `stream` and return the event. Every record
  /// enqueued on `stream` before this call happens-before the signal.
  /// Returns null, and enqueues nothing, whenever fewer than two streams
  /// are live: a synchronous device or a single in-order stream already
  /// orders every record, so there is no cross-stream edge to fence.
  virtual StreamEventPtr recordEvent(int /*stream*/) { return nullptr; }

  /// Enqueue a wait record on `stream`: records enqueued on `stream` after
  /// this call execute only once `event` has signaled. Null events (see
  /// recordEvent) and synchronous devices are no-ops, so callers may fence
  /// unconditionally. Callers must only wait on events whose signal record
  /// is already enqueued, which keeps the cross-stream wait-for graph
  /// acyclic (edges point backward in global enqueue order).
  virtual void waitEvent(int /*stream*/, const StreamEventPtr& /*event*/) {}

  /// Restrict execution to `n` host workers (OpenCL device fission;
  /// ignored by devices that do not support it).
  virtual void setFission(unsigned /*n*/) {}

  Timeline& timeline() { return timeline_; }
  const Timeline& timeline() const { return timeline_; }

  /// Zero the timeline. Multi-stream devices also reset their per-stream
  /// modeled clocks, which a plain `timeline().reset()` cannot reach.
  virtual void resetTimeline() { timeline_.reset(); }

  /// Attach the owning instance's trace recorder; the runtimes then emit
  /// kernel-launch and memcpy events (with device/framework/stream
  /// metadata) into it. Null detaches.
  void setRecorder(obs::TraceRecorder* recorder) { recorder_ = recorder; }
  obs::TraceRecorder* recorder() const { return recorder_; }

 protected:
  Timeline timeline_;
  obs::TraceRecorder* recorder_ = nullptr;
};

using DevicePtr = std::shared_ptr<Device>;

}  // namespace bgl::hal
