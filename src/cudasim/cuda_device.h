// CUDA-framework runtime (simulated).
//
// Follows the CUDA Driver API model the paper's original GPU implementation
// used: flat device memory addressed by pointer arithmetic (sub-regions are
// plain offsets into the parent allocation, at any offset), kernel handles
// fetched by analysis parameters, and stream-ordered launches.
//
// A framework leaf over hal::SimDevice (hal/sim_device.h), which owns
// buffers, the kernel cache, copies, launches, command streams, events and
// timeline accounting for both frameworks. This leaf adds only the CUDA
// identity (framework name, fault tag, roofline overhead term), the
// pointer-arithmetic subBuffer and device enumeration. Device fission is an
// OpenCL feature; CUDA devices ignore setFission.
#pragma once

#include <memory>
#include <vector>

#include "hal/hal.h"

namespace bgl::cudasim {

/// Enumerate devices visible to the CUDA framework (NVIDIA profiles only,
/// as in the paper's systems; the host CPU is exposed too so the runtime is
/// testable with measured timing).
std::vector<int> visibleDeviceProfiles();

/// Create a CUDA-framework hal::Device for a perf-registry profile index.
/// Throws bgl::Error if the profile is not CUDA-capable.
hal::DevicePtr createDevice(int profileIndex);

}  // namespace bgl::cudasim
