// Simulated OpenCL device. The library has no real GPU underneath it; the
// gpusim module provides an execution-driven simulator with the OpenCL
// platform model of the paper's §III-A: compute units (CUs) running
// work-groups, processing elements running work-items in lockstep
// wavefronts, a global memory with 128-byte coalescing transactions, and a
// fast local memory per CU. Kernels really execute (their numerics are
// tested against references); alongside the arithmetic they record an event
// trace (transactions, issue slots, barriers) from which a timing model
// estimates runtime. SpMV is bandwidth/transaction bound, so the relative
// performance of storage formats — what the paper's figures compare — is a
// function of exactly the traffic this model counts.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "common/error.hpp"
#include "common/types.hpp"

namespace crsd::gpusim {

/// Hardware description used by the executor and timing model.
struct DeviceSpec {
  std::string name;
  int num_compute_units = 14;     ///< CUs (SMs in CUDA terms)
  int wavefront_size = 32;        ///< lockstep width (warp)
  int max_workgroup_size = 1024;
  size64_t global_mem_bytes = 3ull << 30;
  int transaction_bytes = 128;    ///< global-memory coalescing granule

  double core_clock_ghz = 1.15;
  double peak_gflops_single = 1030.0;
  double peak_gflops_double = 515.0;
  double global_bandwidth_gbps = 144.0;   ///< GB/s, device-wide
  double local_bandwidth_gbps = 1030.0;   ///< GB/s, all CUs combined
  size64_t local_mem_bytes_per_cu = 48 << 10;

  /// Read-only data cache in front of global memory (texture path on Fermi)
  /// used for source-vector reads. Per CU.
  size64_t cache_bytes_per_cu = 16 << 10;
  int cache_ways = 8;

  /// Wavefronts per CU needed to hide global latency; fewer means the
  /// bandwidth term is derated (occupancy model).
  int latency_hiding_wavefronts = 16;

  /// Cycles one barrier costs a work-group.
  double barrier_cycles = 40.0;
  /// Host-side kernel launch overhead.
  double launch_overhead_seconds = 5e-6;

  double peak_gflops(bool double_precision) const {
    return double_precision ? peak_gflops_double : peak_gflops_single;
  }

  /// The paper's evaluation GPU (Table IV): Tesla C2050, 448 CUDA cores in
  /// 14 SMs at 1.15 GHz, 3 GB device memory.
  static DeviceSpec tesla_c2050();

  /// Bell & Garland's evaluation GPU: GeForce GTX 280 (30 SMs of 8 lanes —
  /// modeled as 30 CUs with 32-wide wavefronts — 141.7 GB/s, 1 GB, weak
  /// double precision, no read-only data cache worth the name).
  static DeviceSpec geforce_gtx280();

  /// An AMD OpenCL device of the paper's future-work list: Radeon HD 5870
  /// ("Cypress", 20 CUs, 64-wide wavefronts, 153.6 GB/s, 1 GB). The 64-wide
  /// wavefront doubles the minimum legal mrows.
  static DeviceSpec amd_cypress();
};

/// A device-resident allocation. `vbase` is a virtual device address,
/// 128-byte aligned, so coalescing analysis is independent of host layout.
struct Buffer {
  size64_t vbase = 0;
  size64_t bytes = 0;
};

/// Allocation bookkeeping for one simulated device. Exceeding global memory
/// throws (that is how the paper's DIA out-of-memory rows reproduce).
class Device {
 public:
  explicit Device(DeviceSpec spec) : spec_(std::move(spec)) {}

  const DeviceSpec& spec() const { return spec_; }
  size64_t allocated_bytes() const { return allocated_; }

  /// Reserves `bytes` of device memory; throws crsd::Error when the total
  /// would exceed the device's global memory.
  Buffer alloc(size64_t bytes) {
    CRSD_CHECK_MSG(allocated_ + bytes <= spec_.global_mem_bytes,
                   "device out of memory on " << spec_.name << ": "
                       << allocated_ << " + " << bytes << " > "
                       << spec_.global_mem_bytes);
    Buffer b;
    b.vbase = next_vbase_;
    b.bytes = bytes;
    allocated_ += bytes;
    // Keep every buffer 128-byte aligned in the virtual address space.
    const size64_t aligned =
        (bytes + spec_.transaction_bytes - 1) /
        spec_.transaction_bytes * spec_.transaction_bytes;
    next_vbase_ += aligned + spec_.transaction_bytes;
    return b;
  }

  void free(const Buffer& b) {
    CRSD_ASSERT(allocated_ >= b.bytes);
    allocated_ -= b.bytes;
  }

 private:
  DeviceSpec spec_;
  size64_t allocated_ = 0;
  size64_t next_vbase_ = 1 << 20;  // nonzero base: catches "buffer 0" misuse
};

/// Scoped owner of one launch's device buffers: everything alloc()ed
/// through it is freed when it goes out of scope, on every exit path, so a
/// launch that throws part-way (an allocation past global memory, a failed
/// check) leaves the device's accounting as it found it.
class DeviceBuffers {
 public:
  explicit DeviceBuffers(Device& dev) : dev_(dev) {}
  DeviceBuffers(const DeviceBuffers&) = delete;
  DeviceBuffers& operator=(const DeviceBuffers&) = delete;
  ~DeviceBuffers() {
    for (const Buffer& b : owned_) dev_.free(b);
  }

  Buffer alloc(size64_t bytes) {
    // Record an empty slot first: if the device throws, the slot frees
    // nothing, and a buffer the device did hand out is always recorded.
    owned_.emplace_back();
    owned_.back() = dev_.alloc(bytes);
    return owned_.back();
  }

 private:
  Device& dev_;
  std::vector<Buffer> owned_;
};

}  // namespace crsd::gpusim
