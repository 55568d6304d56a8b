#include "cudasim/cuda_device.h"

#include "hal/sim_device.h"

namespace bgl::cudasim {
namespace {

constexpr hal::SimFramework kCuda{"CUDA", "cuda", "cudasim: ", /*openCl=*/false};

class CudaDevice final : public hal::SimDevice {
 public:
  explicit CudaDevice(int profileIndex)
      : SimDevice(kCuda, perf::deviceRegistry().at(profileIndex)) {}

  hal::BufferPtr subBuffer(const hal::BufferPtr& parent, std::size_t offset,
                           std::size_t bytes) override {
    checkRange(offset, bytes, parent->size(), "sub-region");
    // CUDA: no object, no alignment rule — just pointer arithmetic, at any
    // offset and into any region, views included.
    return std::make_shared<hal::SimBuffer>(parent, offset, bytes);
  }
};

}  // namespace

std::vector<int> visibleDeviceProfiles() {
  std::vector<int> out;
  const auto& reg = perf::deviceRegistry();
  for (int i = 0; i < static_cast<int>(reg.size()); ++i) {
    // CUDA framework: NVIDIA devices, plus the host for measured testing.
    if (reg[i].vendor.find("NVIDIA") != std::string::npos || reg[i].hostMeasured) {
      out.push_back(i);
    }
  }
  return out;
}

hal::DevicePtr createDevice(int profileIndex) {
  const auto visible = visibleDeviceProfiles();
  bool ok = false;
  for (int v : visible) ok = ok || v == profileIndex;
  if (!ok) throw Error("cudasim: device profile not CUDA-capable", kErrOutOfRange);
  return std::make_shared<CudaDevice>(profileIndex);
}

}  // namespace bgl::cudasim
