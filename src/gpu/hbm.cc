#include "gpu/hbm.h"

#include <sanitizer/asan_interface.h>
#include <sys/mman.h>

#include <algorithm>
#include <cstdint>
#include <iterator>

namespace agile::gpu {

namespace {

std::uintptr_t addrOf(const void* p) {
  return reinterpret_cast<std::uintptr_t>(p);
}

}  // namespace

void Hbm::Unmap::operator()(std::byte* p) const {
  ASAN_UNPOISON_MEMORY_REGION(p, length);  // the range may be mapped again
  ::munmap(p, length);
}

Hbm::Hbm(std::uint64_t capacityBytes) : capacity_(capacityBytes) {}

std::vector<std::uint32_t>::const_iterator Hbm::firstAbove(
    std::uintptr_t hostAddr) const {
  return std::upper_bound(byHost_.begin(), byHost_.end(), hostAddr,
                          [&](std::uintptr_t a, std::uint32_t i) {
                            return a < addrOf(chunks_[i].data.get());
                          });
}

std::byte* Hbm::allocBytes(std::uint64_t bytes, std::uint64_t align) {
  AGILE_CHECK(bytes > 0);
  AGILE_CHECK(isPowerOfTwo(align));
  AGILE_CHECK_MSG(align <= kMaxAlign, "HBM alignment above page size");
  const std::uint64_t padded = (bytes + align - 1) & ~(align - 1);
  AGILE_CHECK_MSG(used_ + padded <= capacity_, "simulated HBM exhausted");
  used_ += padded;

  // Anonymous pages are zero-filled by the kernel and backed on first touch.
  const std::size_t length = (padded + kMaxAlign - 1) & ~(kMaxAlign - 1);
  void* m = ::mmap(nullptr, length, PROT_READ | PROT_WRITE,
                   MAP_PRIVATE | MAP_ANONYMOUS, -1, 0);
  AGILE_CHECK_MSG(m != MAP_FAILED, "mmap of simulated HBM chunk failed");
  auto* p = static_cast<std::byte*>(m);
  // Past `padded` the page is only rounding: keep ASan's overflow check at
  // the chunk end, as it was for heap allocations.
  ASAN_POISON_MEMORY_REGION(p + padded, length - padded);

  Chunk c{std::unique_ptr<std::byte, Unmap>(p, Unmap{length}), padded,
          nextBase_};
  nextBase_ += padded + 4096;  // guard gap between chunks
  byHost_.insert(firstAbove(addrOf(p)),
                 narrowCast<std::uint32_t>(chunks_.size()));
  chunks_.push_back(std::move(c));
  return p;
}

std::uint64_t Hbm::physAddr(const void* p) const {
  const std::uintptr_t a = addrOf(p);
  const auto it = firstAbove(a);  // its predecessor is the only candidate
  if (it != byHost_.begin()) {
    const Chunk& c = chunks_[*std::prev(it)];
    const std::uintptr_t start = addrOf(c.data.get());
    if (a - start < c.size) return c.base + (a - start);
  }
  AGILE_CHECK_MSG(false, "pointer not inside simulated HBM");
  return 0;
}

std::byte* Hbm::fromPhysAddr(std::uint64_t addr) const {
  const auto it = std::upper_bound(
      chunks_.begin(), chunks_.end(), addr,
      [](std::uint64_t x, const Chunk& c) { return x < c.base; });
  // The chunk before the first one based above addr is the only candidate.
  if (it != chunks_.begin()) {
    const Chunk& c = *std::prev(it);
    if (addr - c.base < c.size) return c.data.get() + (addr - c.base);
  }
  AGILE_CHECK_MSG(false, "physical address not inside simulated HBM");
  return nullptr;
}

}  // namespace agile::gpu
