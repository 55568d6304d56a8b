// OpenCL-framework runtime (simulated).
//
// A framework leaf over hal::SimDevice (hal/sim_device.h), which owns
// buffers, the kernel cache, copies, launches, command streams, events and
// timeline accounting for both frameworks. This leaf keeps the parts of
// OpenCL that shaped the paper's design:
//  * an Installable-Client-Driver-style loader exposing multiple platforms
//    (drivers), possibly several for the same physical device, with
//    driver-dependent performance (Section VII-B3);
//  * buffer objects whose sub-regions must be created as *sub-buffer
//    objects* with an alignment rule (CL_DEVICE_MEM_BASE_ADDR_ALIGN) —
//    unlike CUDA's pointer arithmetic (Section VII-A);
//  * NDRange launches with work-group size and local-memory limits;
//  * device fission, which the multicore scaling benchmark (Fig. 5) uses
//    to restrict a CPU device to a subset of its compute units.
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "hal/hal.h"

namespace bgl::clsim {

/// Minimum alignment (bytes) for sub-buffer origins, as real OpenCL
/// devices require (CL_DEVICE_MEM_BASE_ADDR_ALIGN is commonly 1024 bits).
inline constexpr std::size_t kSubBufferAlign = 128;

/// An OpenCL platform = one installed driver.
struct Platform {
  std::string name;                ///< e.g. "AMD APP (vendor driver)"
  std::string vendor;
  double overheadMultiplier = 1.0; ///< non-vendor drivers run slower
  std::vector<int> deviceProfiles; ///< perf-registry indices it exposes
};

/// Enumerate installed platforms (the ICD loader view).
const std::vector<Platform>& platforms();

/// Create an OpenCL-framework hal::Device for a device of a platform.
/// Launches whose local-memory request exceeds the profile's local memory
/// fail with CL_OUT_OF_RESOURCES.
hal::DevicePtr createDevice(const Platform& platform, int profileIndex);

/// Convenience: create a device through the best (vendor) platform.
hal::DevicePtr createDeviceByProfile(int profileIndex);

}  // namespace bgl::clsim
