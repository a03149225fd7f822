// Ablation: number of AGILE service warps vs. random-read
// throughput. The paper argues a small number of polling warps suffices
// (§3.2.2, warp-centric polling with round-robin CQ rotation); this sweep
// shows where completion processing starts to bottleneck.
#include <cstdio>
#include <vector>

#include "bench/bench_util.h"
#include "core/ctrl.h"

using namespace agile;

namespace {

double runWithWarps(std::uint32_t warps, std::uint64_t requests) {
  using Ctrl = core::AgileCtrl<core::ClockPolicy, core::NeverSharePolicy>;
  bench::TestbedConfig tb;
  tb.queuePairsPerSsd = 32;
  tb.queueDepth = 256;
  tb.serviceWarps = warps;
  tb.payloadBytes = 64;
  auto host = bench::makeHost(tb);
  Ctrl ctrl(*host, core::CtrlConfig{.cacheLines = 64});
  host->startAgile();

  const std::uint32_t threads = 4096;
  auto bufMem = host->gpu().hbm().allocBytes(
      static_cast<std::uint64_t>(threads) * nvme::kLbaBytes);
  std::vector<core::AgileBuf> bufs(threads);
  for (std::uint32_t i = 0; i < threads; ++i) {
    bufs[i].bind(bufMem + static_cast<std::uint64_t>(i) * nvme::kLbaBytes);
  }
  const std::uint64_t capacity = host->ssd(0).flash().capacityLbas();
  const SimTime start = host->engine().now();
  AGILE_CHECK(host->runKernel(
      {.gridDim = 32, .blockDim = 128, .name = "svc-ablate"},
      [&](gpu::KernelCtx& ctx) -> gpu::GpuTask<void> {
        core::AgileLockChain chain;
        const std::uint32_t tid = ctx.globalThreadIdx();
        core::AgileBufPtr buf(bufs[tid]);
        for (std::uint64_t r = tid; r < requests; r += threads) {
          std::uint64_t h = r * 0x9e3779b97f4a7c15ull;
          h ^= h >> 29;
          co_await ctrl.asyncRead(ctx, 0, h % capacity, buf, chain);
          co_await ctrl.waitBuf(ctx, buf);
        }
      }));
  AGILE_CHECK(host->drainIo());
  const SimTime ns = host->engine().now() - start;
  host->stopAgile();
  return static_cast<double>(requests) * nvme::kLbaBytes /
         (static_cast<double>(ns) / 1e9);
}

}  // namespace

int main(int argc, char** argv) {
  const bool quick = bench::quickMode(argc, argv);
  bench::printHeader("Ablation", "AGILE service warp count vs read bandwidth");
  const std::uint64_t requests = quick ? 16384 : 65536;
  TablePrinter table({"service warps", "bandwidth (GB/s)"});
  for (std::uint32_t w : {1u, 2u, 4u, 8u}) {
    table.addRow({std::to_string(w),
                  TablePrinter::fmtGiBps(runWithWarps(w, requests))});
  }
  table.print();
  return 0;
}
