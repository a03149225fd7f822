// Simulated GPU high-bandwidth memory: a capacity-accounted arena of real
// host allocations. NVMe queues, the AGILE software cache, and user device
// buffers all live here, mirroring the paper's GPU-resident data structures
// (§3.1: queues and cache are pinned, physically contiguous HBM ranges that
// the SSDs DMA into).
//
// Each allocation is its own anonymous mapping: it reads as zero (a fresh CQ
// ring's phase-0 entries mean "not yet posted") and is backed by host pages
// only when first written, so resident memory follows the cache lines and
// buffers a run actually fills, not the capacity it reserves.
//
// Allocations are stable for the lifetime of the arena; the simulator's SSD
// controller "DMAs" into them with plain memcpy at completion time.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "common/check.h"
#include "common/types.h"

namespace agile::gpu {

class Hbm {
 public:
  // Largest alignment allocBytes honours for the host pointer: mappings
  // start on a page boundary.
  static constexpr std::uint64_t kMaxAlign = 4096;

  explicit Hbm(std::uint64_t capacityBytes);

  // Allocate `bytes` zero-filled, aligned to `align` (a power of two up to
  // kMaxAlign); aborts if over capacity (mirrors cudaMalloc failure being
  // fatal in the paper's setup).
  std::byte* allocBytes(std::uint64_t bytes, std::uint64_t align = 64);

  template <class T>
  std::span<T> alloc(std::uint64_t count) {
    auto* p = allocBytes(count * sizeof(T), alignof(T) < 64 ? 64 : alignof(T));
    return {reinterpret_cast<T*>(p), count};
  }

  std::uint64_t capacity() const { return capacity_; }
  std::uint64_t used() const { return used_; }
  std::uint64_t free() const { return capacity_ - used_; }

  // Simulated physical address of a pointer inside the arena (used when
  // registering queue/cache addresses with the simulated SSD BARs, standing
  // in for the GDRCopy pin+translate step of §3.1).
  std::uint64_t physAddr(const void* p) const;
  std::byte* fromPhysAddr(std::uint64_t addr) const;

 private:
  struct Unmap {
    std::size_t length;
    void operator()(std::byte* p) const;
  };
  struct Chunk {
    std::unique_ptr<std::byte, Unmap> data;
    std::uint64_t size;
    std::uint64_t base;  // simulated physical base address
  };

  // First entry of byHost_ whose chunk starts above hostAddr.
  std::vector<std::uint32_t>::const_iterator firstAbove(
      std::uintptr_t hostAddr) const;

  std::uint64_t capacity_;
  std::uint64_t used_ = 0;
  std::uint64_t nextBase_ = 0x1000;  // avoid 0 looking like a null PRP
  std::vector<Chunk> chunks_;  // ascending base (allocation order)
  std::vector<std::uint32_t> byHost_;  // chunk indices, ascending host address
};

}  // namespace agile::gpu
