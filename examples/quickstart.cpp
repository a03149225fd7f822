// Quickstart: the complete AGILE lifecycle of the paper's Listing 1 —
// configure a host, add NVMe devices, initialize queues in (simulated) HBM,
// start the service kernel, and use all three device-side access methods
// from a GPU kernel: prefetch, async_issue with a user buffer, and the
// array-like synchronous view — plus the batch token: a batched submit
// covered by one SQ doorbell, polled and awaited through its IoToken. Build
// target: examples/quickstart.
#include <cstdio>

#include "core/ctrl.h"
#include "core/host.h"
#include "nvme/flash_store.h"

using namespace agile;

int main() {
  // --- host-side setup (Listing 1 lines 22-40) ---
  core::HostConfig hostCfg;
  hostCfg.queuePairsPerSsd = 8;
  hostCfg.queueDepth = 64;
  core::AgileHost host(hostCfg);

  nvme::SsdConfig ssdCfg;
  ssdCfg.name = "AGILE-nvme0";
  ssdCfg.capacityLbas = 1u << 16;  // 256 MiB simulated SSD
  host.addNvmeDev(ssdCfg);
  host.initNvme();

  // Cache/share policies are compile-time template parameters (CRTP):
  // DefaultCtrl = AgileCtrl<ClockPolicy, DefaultSharePolicy>.
  core::DefaultCtrl ctrl(host, core::CtrlConfig{.cacheLines = 256});
  host.startAgile();  // launch the lightweight service kernel

  // Seed the "SSD" with some recognizable data.
  std::byte page[nvme::kLbaBytes] = {};
  auto* words = reinterpret_cast<std::uint64_t*>(page);
  for (int i = 0; i < 8; ++i) words[i] = 1000 + i;
  host.ssd(0).flash().writePage(/*lba=*/7, page);
  words[0] = 2000;
  host.ssd(0).flash().writePage(/*lba=*/8, page);

  // Device buffers for the async_issue and token paths.
  auto* bufMem = host.gpu().hbm().allocBytes(nvme::kLbaBytes);
  core::AgileBuf buf(bufMem);
  auto* wrMem = host.gpu().hbm().allocBytes(nvme::kLbaBytes);
  core::AgileBuf wrBuf(wrMem);
  auto* tokMem = host.gpu().hbm().allocBytes(nvme::kLbaBytes);
  core::AgileBuf tokBuf(tokMem);

  std::uint64_t viaArray = 0, viaBuffer = 0, viaPrefetch = 0;
  std::uint64_t viaWrite = 0, viaBatch = 0;
  std::uint64_t pollSpins = 0;

  // --- device-side kernel (Listing 1 lines 3-20) ---
  const bool ok = host.runKernel(
      {.gridDim = 1, .blockDim = 32, .name = "quickstart"},
      [&](gpu::KernelCtx& ctx) -> gpu::GpuTask<void> {
        core::AgileLockChain chain;

        // Method 1: prefetch a page, then read it through the cache.
        co_await ctrl.prefetch(ctx, /*dev=*/0, /*lba=*/7, chain);
        if (ctx.threadIdx() == 0) {
          viaPrefetch = co_await ctrl.arrayRead<std::uint64_t>(
              ctx, 7 * 512 + 1, chain);  // word 1 of page 7

          // Method 2: async_issue into a user buffer + barrier wait.
          core::AgileBufPtr ptr(buf);
          co_await ctrl.asyncRead(ctx, 0, 7, ptr, chain);
          const bool ready = co_await ctrl.waitBuf(ctx, ptr);
          AGILE_CHECK(ready);
          viaBuffer = ptr.as<std::uint64_t>()[2];

          // ...and async_issue from a user buffer. The payload is staged,
          // so the buffer is reusable at once; buf.wait() reports the
          // SSD write, after which the page reads back through the cache.
          core::AgileBufPtr wrPtr(wrBuf);
          wrPtr.as<std::uint64_t>()[0] = 5150;
          co_await ctrl.asyncWrite(ctx, 0, /*lba=*/10, wrPtr, chain);
          const bool written = co_await ctrl.waitBuf(ctx, wrPtr);
          AGILE_CHECK(written);
          viaWrite = co_await ctrl.arrayRead<std::uint64_t>(ctx, 10 * 512,
                                                            chain);

          // Method 3: array-like synchronous view of the SSD.
          viaArray = co_await ctrl.arrayRead<std::uint64_t>(
              ctx, 7 * 512 + 3, chain);

          // Writes go through the same cache coherently.
          co_await ctrl.arrayWrite<std::uint64_t>(ctx, 7 * 512 + 4,
                                                  4242, chain);

          // The batch token (beyond Listing 1). A batch submits N
          // descriptors with one resolve pass and a single SQ doorbell;
          // the returned IoToken is polled (non-blocking) and awaited.
          core::AgileBufPtr tokPtr(tokBuf);
          core::IoBatch batch;
          batch.addRead(0, 8, tokPtr);     // page 8 -> tokBuf
          batch.addPrefetch(0, 9);         // warm page 9 in the cache
          core::IoToken bt = co_await ctrl.submitBatch(ctx, batch, chain);
          while (ctrl.poll(ctx, bt) == core::IoStatus::kPending) {
            ++pollSpins;  // overlap window: compute would go here
            co_await ctx.backoff(2000);
          }
          const bool batchOk = co_await ctrl.wait(ctx, bt);
          AGILE_CHECK(batchOk);
          viaBatch = tokPtr.as<std::uint64_t>()[0];
        }
        co_return;
      });
  AGILE_CHECK(ok);

  host.stopAgile();
  host.closeNvme();

  std::printf("prefetch+array read : %llu (expect 1001)\n",
              (unsigned long long)viaPrefetch);
  std::printf("asyncRead buffer    : %llu (expect 1002)\n",
              (unsigned long long)viaBuffer);
  std::printf("asyncWrite readback : %llu (expect 5150)\n",
              (unsigned long long)viaWrite);
  std::printf("array read          : %llu (expect 1003)\n",
              (unsigned long long)viaArray);
  std::printf("batch token read    : %llu (expect 2000, %llu poll spins)\n",
              (unsigned long long)viaBatch, (unsigned long long)pollSpins);
  std::printf("cache hits=%llu misses=%llu, SSD reads=%llu, "
              "batch doorbells=%llu\n",
              (unsigned long long)ctrl.cache().stats().hits,
              (unsigned long long)ctrl.cache().stats().misses,
              (unsigned long long)host.ssd(0).readsCompleted(),
              (unsigned long long)ctrl.stats().batchDoorbells);
  const bool pass = viaPrefetch == 1001 && viaBuffer == 1002 &&
                    viaWrite == 5150 && viaArray == 1003 && viaBatch == 2000;
  std::printf("%s\n", pass ? "QUICKSTART OK" : "QUICKSTART FAILED");
  return pass ? 0 : 1;
}
