#include "clsim/cl_runtime.h"

#include <string>

#include "hal/sim_device.h"

namespace bgl::clsim {
namespace {

constexpr hal::SimFramework kOpenCl{"OpenCL", "opencl", "clsim: ", /*openCl=*/true};

class ClDevice final : public hal::SimDevice {
 public:
  ClDevice(const Platform& platform, int profileIndex)
      : SimDevice(kOpenCl, perf::deviceRegistry().at(profileIndex)) {
    // Non-vendor drivers (Section VII-B3): reduced performance surfaces as
    // inflated launch overhead and reduced achievable efficiency.
    profile_.launchOverheadUsOpenCl *= platform.overheadMultiplier;
    profile_.computeEfficiency /= platform.overheadMultiplier;
    profile_.bandwidthEfficiency /= platform.overheadMultiplier;
  }

  hal::BufferPtr subBuffer(const hal::BufferPtr& parent, std::size_t offset,
                           std::size_t bytes) override {
    checkRange(offset, bytes, parent->size(), "CL_INVALID_VALUE: sub-buffer");
    if (offset % kSubBufferAlign != 0) {
      throw Error("clsim: CL_MISALIGNED_SUB_BUFFER_OFFSET", kErrOutOfRange);
    }
    if (static_cast<const hal::SimBuffer&>(*parent).isView()) {
      throw Error("clsim: CL_INVALID_MEM_OBJECT (sub-buffer of sub-buffer)", kErrOutOfRange);
    }
    return std::make_shared<hal::SimBuffer>(parent, offset, bytes);
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
    SimDevice::launch(kernel, dims, args, work, opts);
  }

  void setFission(unsigned n) override { fission_ = n; }
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
