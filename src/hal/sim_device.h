// The simulated-device core shared by the CUDA-style and OpenCL-style
// runtimes (src/cudasim, src/clsim).
//
// Everything a simulated framework does that does not depend on the
// framework lives here once: owning buffers and views, the kernel cache,
// copies and stream-scoped readback, launches (synchronous, or enqueued on
// in-order command streams), device-side fills, per-stream modeled clocks,
// Signal/Wait events and the worker-side run accounting and trace output.
// A framework leaf passes its identity in as data (SimFramework) and keeps
// only what really differs: sub-region addressing, enumeration, and on
// OpenCL the driver overhead, the local-memory launch check and fission.
//
// Execution is functional-on-host: results are real; wall time on non-host
// device profiles is supplied by the roofline model (see DESIGN.md).
#pragma once

#include <algorithm>
#include <chrono>
#include <memory>
#include <mutex>
#include <vector>

#include "hal/command_stream.h"
#include "hal/hal.h"
#include "hal/workgroup_executor.h"

namespace bgl::hal {

/// Framework identity, fixed per leaf. Plain data, so the shared launch
/// and run paths never call back into the leaf.
struct SimFramework {
  const char* name;         ///< frameworkName() and trace span metadata
  const char* faultTag;     ///< fault::Injector framework tag
  const char* errorPrefix;  ///< prefix of bgl::Error messages
  bool openCl;              ///< roofline launch-overhead term to apply
};

/// Device memory: an owning flat allocation, or a view into a parent
/// allocation that keeps the parent alive.
class SimBuffer final : public Buffer {
 public:
  explicit SimBuffer(std::size_t bytes)
      : storage_(new std::byte[bytes]), data_(storage_.get()), size_(bytes) {}
  SimBuffer(BufferPtr parent, std::size_t offset, std::size_t bytes)
      : parent_(std::move(parent)),
        data_(static_cast<std::byte*>(parent_->data()) + offset),
        size_(bytes) {}

  bool isView() const { return parent_ != nullptr; }
  std::size_t size() const override { return size_; }
  void* data() override { return data_; }
  const void* data() const override { return data_; }

 private:
  BufferPtr parent_;                      // views only
  std::unique_ptr<std::byte[]> storage_;  // owning allocations only
  std::byte* data_ = nullptr;
  std::size_t size_ = 0;
};

/// A compiled kernel: the shared kernel set's host function for one spec.
class SimKernel final : public Kernel {
 public:
  SimKernel(const KernelSpec& spec, KernelFn fn) : spec_(spec), fn_(fn) {}
  const KernelSpec& spec() const override { return spec_; }
  KernelFn fn() const { return fn_; }

 private:
  KernelSpec spec_;
  KernelFn fn_;
};

class SimDevice : public Device {
 public:
  SimDevice(const SimFramework& framework, const perf::DeviceProfile& profile)
      : framework_(framework), profile_(profile) {}

  const perf::DeviceProfile& profile() const final { return profile_; }
  std::string frameworkName() const final { return framework_.name; }

  BufferPtr alloc(std::size_t bytes) final;
  void copyToDevice(Buffer& dst, std::size_t dstOffset, const void* src,
                    std::size_t bytes) final;
  void copyToHost(void* dst, const Buffer& src, std::size_t srcOffset,
                  std::size_t bytes) final;
  void copyToHostFromStream(void* dst, const Buffer& src, std::size_t srcOffset,
                            std::size_t bytes, int stream) final;
  Kernel* getKernel(const KernelSpec& spec) final;
  void launch(Kernel& kernel, const LaunchDims& dims, const KernelArgs& args,
              const perf::LaunchWork& work, const LaunchOptions& opts = {}) override;
  void fillZero(const BufferPtr& buf, std::size_t offset, std::size_t bytes) final;
  void finish() final;

  void setAsync(bool enabled) final;
  bool asyncEnabled() const final { return !streams_.empty(); }
  int streamCount() const final { return static_cast<int>(streams_.size()); }
  void setStreamCount(int n) final;

  /// Null below two live streams: one in-order stream already orders every
  /// record, so there is no cross-stream edge to fence.
  StreamEventPtr recordEvent(int stream) final;
  void waitEvent(int stream, const StreamEventPtr& event) final;

  void resetTimeline() final;

 protected:
  /// Bounds check for a sub-region request; throws kErrOutOfRange.
  void checkRange(std::size_t offset, std::size_t bytes, std::size_t size,
                  const char* what) const;

  const SimFramework framework_;
  perf::DeviceProfile profile_;  // leaves may derate it at construction
  unsigned fission_ = 0;         // host workers per grid; 0 = all

 private:
  using Clock = std::chrono::steady_clock;
  static constexpr int kMaxStreams = 8;

  /// One in-order command stream plus its modeled clock: the point on the
  /// device's modeled timeline this stream's last retired record finished
  /// at. `timeline_.modeledSeconds` is the max over stream clocks — the
  /// critical path through the cross-stream happens-before graph — while
  /// `measuredSeconds` stays the summed real host wall time of the workers.
  struct StreamSlot {
    std::unique_ptr<CommandStream> stream;
    double clock = 0.0;
    std::vector<GridBatchItem> items;  // the worker's reusable run buffer
  };

  int clampStream(int s) const {
    const int last = static_cast<int>(streams_.size()) - 1;
    return std::min(std::max(s, 0), last);
  }
  void addStream();
  void syncAll();
  void publishPendingDepth();
  void accountCopy(double seconds, std::size_t bytes);
  void executeRun(std::size_t streamIdx, const LaunchRecord* recs, std::size_t n);
  void executeSync(std::size_t streamIdx, const LaunchRecord& rec);
  void recordCopy(const char* name, Clock::time_point t0, std::size_t bytes,
                  int stream);

  std::mutex kernelsMutex_;
  std::vector<std::unique_ptr<SimKernel>> kernels_;
  std::mutex timelineMutex_;  // orders stream workers on timeline_/clocks
  int streamCount_ = 1;       // streams to create on the next setAsync(true)
  // Last member: destroyed first, so every worker joins while the state
  // its executor touches is still alive.
  std::vector<StreamSlot> streams_;
};

}  // namespace bgl::hal
