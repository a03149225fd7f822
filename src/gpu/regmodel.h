// Static register-pressure model (stands in for `nvcc` register allocation,
// which this reproduction cannot run). A kernel's per-thread register count
// is modeled as
//
//     regs = base(kernel body) + max over I/O-API paths used(path footprint)
//
// where each footprint is the number of 32-bit words of state the
// corresponding implementation keeps live across its longest potential stall
// (audited from the code in src/core and src/bam):
//
//  - BaM synchronous read keeps the cache probe state, its SQE slot/CID, the
//    full inline CQ-polling context (head, phase, mask, doorbell shadow) and
//    retry counters live while it waits — the heaviest path.
//  - AGILE's async paths hand the completion context to the service kernel
//    and keep only a buffer pointer and barrier handle live, so they are
//    markedly lighter; the windowed variant (multiple outstanding buffers)
//    pays for its window bookkeeping.
//
// The Fig. 12 bench reports these modeled counts next to the paper's
// measured ones.
#pragma once

#include <cstdint>
#include <initializer_list>
#include <string>

namespace agile::gpu {

enum class IoApiPath : std::uint8_t {
  kNone,
  kBamSyncRead,
  kBamSyncWrite,
  kAgileArrayRead,          // sync array API (probe + barrier wait)
  kAgilePrefetchArrayRead,  // prefetch then hit-path array read
  kAgileAsyncRead,          // async_issue into a user buffer
  kAgileAsyncReadWindowed,  // async_issue with a multi-buffer window
  kAgileAsyncWrite,
  kAgileBatchSubmit,        // IoBatch descriptor pass, one doorbell
  kAgileGatherPipelined,    // depth-K prefetch-ahead gather
};

// Live 32-bit words held across the longest stall of each API path.
std::uint32_t ioApiFootprint(IoApiPath path);

// Register count for a kernel with the given base body footprint using the
// given API paths.
std::uint32_t kernelRegisters(std::uint32_t baseBody,
                              std::initializer_list<IoApiPath> paths);

// Fixed footprint of the AGILE service kernel (Algorithm 1 polling loop).
std::uint32_t serviceKernelRegisters();

std::string ioApiPathName(IoApiPath path);

}  // namespace agile::gpu
