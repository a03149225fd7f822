// Figure 12: per-thread register usage of the Vector-Mean / BFS / SpMV
// kernels under BaM vs AGILE, plus the AGILE service kernel, from the
// audited static register model (see gpu/regmodel.h — `nvcc`
// is unavailable in this reproduction, so the counts are modeled, not
// compiled). Paper: BaM 56/56/74 vs AGILE 54/46/56; service kernel 37.
#include <cstdio>
#include <cstring>

#include "bench/bench_util.h"
#include "gpu/exec.h"
#include "gpu/regmodel.h"

using namespace agile;

namespace {

// Kernel-body base footprints (live words excluding the I/O API), audited
// from the kernels in src/apps:
//  - VectorMean: loop counter/stride/accumulator/partial ptr + window ring
//    bookkeeping it uses with the async API.
//  - BFS: frontier/dist pointers, level, edge cursor.
//  - SpMV: row bounds, col/val cursors, x/y pointers, accumulator.
constexpr std::uint32_t kVecMeanBase = 22;
constexpr std::uint32_t kBfsBase = 24;
constexpr std::uint32_t kSpmvBase = 40;

}  // namespace

int main(int argc, char** argv) {
  // --all additionally prints the batch-submit and gather paths of the
  // async API; the default output is the paper's figure, byte-stable.
  bool all = false;
  for (int i = 1; i < argc; ++i) all |= std::strcmp(argv[i], "--all") == 0;

  bench::printHeader("Figure 12",
                     "modeled per-thread register usage across CUDA kernels");

  struct Row {
    const char* kernel;
    std::uint32_t base;
    gpu::IoApiPath bamPath;
    gpu::IoApiPath agilePath;
    std::uint32_t paperBam, paperAgile;
  };
  const Row rows[] = {
      {"VectorMean", kVecMeanBase, gpu::IoApiPath::kBamSyncRead,
       gpu::IoApiPath::kAgileAsyncReadWindowed, 56, 54},
      {"BFS", kBfsBase, gpu::IoApiPath::kBamSyncRead,
       gpu::IoApiPath::kAgilePrefetchArrayRead, 56, 46},
      {"SpMV", kSpmvBase, gpu::IoApiPath::kBamSyncRead,
       gpu::IoApiPath::kAgileAsyncRead, 74, 56},
  };

  TablePrinter table({"kernel", "BaM regs", "AGILE regs", "reduction",
                      "paper BaM", "paper AGILE", "AGILE path"});
  gpu::GpuConfig gcfg;
  sim::Engine eng;
  gpu::Gpu gpu(eng, gcfg);
  for (const auto& r : rows) {
    const auto bamRegs = gpu::kernelRegisters(r.base, {r.bamPath});
    const auto agileRegs = gpu::kernelRegisters(r.base, {r.agilePath});
    table.addRow({r.kernel, std::to_string(bamRegs),
                  std::to_string(agileRegs),
                  TablePrinter::fmt(static_cast<double>(bamRegs) / agileRegs),
                  std::to_string(r.paperBam), std::to_string(r.paperAgile),
                  gpu::ioApiPathName(r.agilePath)});
    // Occupancy impact at 256-thread blocks.
    gpu::LaunchConfig bamLc{.gridDim = 1, .blockDim = 256,
                            .regsPerThread = bamRegs};
    gpu::LaunchConfig agLc{.gridDim = 1, .blockDim = 256,
                           .regsPerThread = agileRegs};
    std::printf("%-10s occupancy (blocks/SM, 256-thr blocks): BaM %u, "
                "AGILE %u\n",
                r.kernel, gpu.occupancyBlocksPerSm(bamLc),
                gpu.occupancyBlocksPerSm(agLc));
  }
  table.print();
  std::printf("AGILE service kernel: %u registers/thread (paper: 37)\n",
              gpu::serviceKernelRegisters());

  if (all) {
    // Footprints of the async surface (no paper counterpart —
    // audited from core/ctrl.h like the original rows).
    const gpu::IoApiPath extra[] = {
        gpu::IoApiPath::kAgileBatchSubmit,
        gpu::IoApiPath::kAgileGatherPipelined,
    };
    TablePrinter ext({"API path", "footprint (32-bit words)",
                      "SpMV-body regs", "occupancy (blocks/SM)"});
    for (auto p : extra) {
      const auto regs = gpu::kernelRegisters(kSpmvBase, {p});
      gpu::LaunchConfig lc{.gridDim = 1, .blockDim = 256,
                           .regsPerThread = regs};
      ext.addRow({gpu::ioApiPathName(p),
                  std::to_string(gpu::ioApiFootprint(p)),
                  std::to_string(regs),
                  std::to_string(gpu.occupancyBlocksPerSm(lc))});
    }
    ext.print();
  }
  return 0;
}
