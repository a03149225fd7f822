// Tests for the batch token surface: IoToken lifecycle (submit / poll /
// wait / retire), IoBatch submission with single-doorbell coverage, and
// IoOpPool slot recycling / generation checks.
#include <gtest/gtest.h>

#include <cstring>
#include <vector>

#include "core/ctrl.h"
#include "nvme/flash_store.h"

namespace agile::core {
namespace {

struct TokenFixture : ::testing::Test {
  std::unique_ptr<AgileHost> host;
  std::unique_ptr<DefaultCtrl> ctrl;

  void build(std::uint32_t cacheLines = 64, std::uint32_t qps = 2,
             std::uint32_t depth = 64) {
    HostConfig cfg;
    cfg.queuePairsPerSsd = qps;
    cfg.queueDepth = depth;
    cfg.stagingPages = 64;
    host = std::make_unique<AgileHost>(cfg);
    nvme::SsdConfig ssd;
    ssd.capacityLbas = 65536;
    host->addNvmeDev(ssd);
    host->initNvme();
    ctrl = std::make_unique<DefaultCtrl>(*host,
                                         CtrlConfig{.cacheLines = cacheLines});
    host->startAgile();
  }

  void TearDown() override {
    if (host && host->serviceRunning()) host->stopAgile();
  }
};

TEST_F(TokenFixture, RetireRefusedWhileWaiterParked) {
  // retire() on a token with a parked wait()er must be a no-op: the waiter
  // owns the observation. Recycling under it would strand the continuation
  // (simulation hang) or wake it spuriously from a later op. Two lanes, in
  // separate blocks so the submit's warp election is single-lane, wait on
  // one batch token; the first to wake retires it.
  build();
  IoBatch batch;
  batch.addPrefetch(0, 91);
  IoToken shared;
  bool waitResult[2] = {false, false};
  ASSERT_TRUE(host->runKernel(
      {.gridDim = 2, .blockDim = 1, .name = "tok-retire-race"},
      [&](gpu::KernelCtx& ctx) -> gpu::GpuTask<void> {
        AgileLockChain chain;
        const std::uint32_t b = ctx.blockIdx();
        if (b == 0) {
          shared = co_await ctrl->submitBatch(ctx, batch, chain);
          co_await gpu::compute(ctx, 4000);  // block 1 is parked by now
          ctrl->tokens().retire(shared);     // must be refused
          EXPECT_EQ(ctrl->poll(ctx, shared), IoStatus::kPending);
        } else {
          co_await gpu::compute(ctx, 1000);
        }
        waitResult[b] = co_await ctrl->wait(ctx, shared);
      }));
  ASSERT_TRUE(host->drainIo());
  EXPECT_TRUE(waitResult[0]);  // the fill completed normally
  EXPECT_TRUE(waitResult[1]);
  EXPECT_EQ(host->ssd(0).readsCompleted(), 1u);
  EXPECT_EQ(ctrl->tokens().liveOps(), 0u);  // a waiter retired the slot
}

TEST_F(TokenFixture, ReusedBufPtrDropsStaleShareRedirect) {
  // An AgileBufPtr that was redirected to a peer's buffer by a Share-Table
  // hit and then reused for a fresh read must track its own buffer again:
  // the stale peer barrier (already quiesced) must not make waitBuf()
  // report completion while the new fill is still in flight.
  build();
  auto* memA = host->gpu().hbm().allocBytes(nvme::kLbaBytes);
  auto* memB = host->gpu().hbm().allocBytes(nvme::kLbaBytes);
  std::uint64_t wordAfterWait = 0;
  // Thread 1 share-hits onto thread 0's buffer, so both buffers must
  // outlive both lanes: a coroutine-frame local would be destroyed when
  // thread 0 finishes while thread 1 still waits on its barrier.
  AgileBuf bufA(memA), bufB(memB);
  ASSERT_TRUE(host->runKernel(
      {.gridDim = 1, .blockDim = 2, .name = "tok-reuse"},
      [&](gpu::KernelCtx& ctx) -> gpu::GpuTask<void> {
        AgileLockChain chain;
        AgileBuf& buf = ctx.threadIdx() == 0 ? bufA : bufB;
        AgileBufPtr ptr(buf);
        if (ctx.threadIdx() == 1) co_await gpu::compute(ctx, 2000);
        co_await ctrl->asyncRead(ctx, 0, 55, ptr, chain);
        co_await ctrl->waitBuf(ctx, ptr);
        if (ctx.threadIdx() == 1) {
          // Thread 1 share-hit onto thread 0's buffer; release and reuse
          // the same handle for a *miss* read of another page.
          EXPECT_TRUE(ptr.isShared());
          // agile-lint: allow(share-owner-reuse): peer-side release (isShared() asserted above); the owner-reuse hazard is owner-side only
          co_await ctrl->releaseBuf(ctx, ptr, chain);
          co_await ctrl->asyncRead(ctx, 0, 56, ptr, chain);
          const bool ok = co_await ctrl->waitBuf(ctx, ptr);
          EXPECT_TRUE(ok);
          // Data must be present the moment waitBuf() returns.
          wordAfterWait = ptr.as<std::uint64_t>()[0];
          EXPECT_EQ(ptr.data(), memB);  // tracking its own buffer again
        }
      }));
  EXPECT_EQ(wordAfterWait, nvme::FlashStore::patternWord(56, 0));
}

TEST_F(TokenFixture, BatchMixedSubmitsWithOneDoorbell) {
  build();
  auto* memA = host->gpu().hbm().allocBytes(nvme::kLbaBytes);
  auto* memB = host->gpu().hbm().allocBytes(nvme::kLbaBytes);
  bool ok = false;
  std::uint64_t viaCacheA = 0, viaCacheB = 0;
  ASSERT_TRUE(host->runKernel(
      {.gridDim = 1, .blockDim = 1, .name = "tok-batch"},
      [&](gpu::KernelCtx& ctx) -> gpu::GpuTask<void> {
        AgileLockChain chain;
        AgileBuf bufA(memA), bufB(memB);
        AgileBufPtr ptrA(bufA), ptrB(bufB);
        IoBatch batch;
        EXPECT_TRUE(batch.addRead(0, 101, ptrA));
        EXPECT_TRUE(batch.addRead(0, 102, ptrB));
        EXPECT_TRUE(batch.addPrefetch(0, 103));
        EXPECT_TRUE(batch.addPrefetch(0, 104));
        EXPECT_TRUE(batch.addPrefetch(0, 103));  // duplicate: coalesced away
        IoToken t = co_await ctrl->submitBatch(ctx, batch, chain);
        ok = co_await ctrl->wait(ctx, t);
        viaCacheA = co_await ctrl->arrayRead<std::uint64_t>(ctx, 103 * 512,
                                                            chain);
        viaCacheB = co_await ctrl->arrayRead<std::uint64_t>(ctx, 104 * 512,
                                                            chain);
      }));
  EXPECT_TRUE(ok);
  // 2 direct reads + 2 fills (dup prefetch coalesced), one doorbell run.
  EXPECT_EQ(host->ssd(0).readsCompleted(), 4u);
  EXPECT_EQ(ctrl->stats().batchSubmits, 1u);
  EXPECT_EQ(ctrl->stats().batchRequests, 5u);
  EXPECT_EQ(ctrl->stats().batchDoorbells, 1u);
  std::byte expect[nvme::kLbaBytes];
  nvme::FlashStore::defaultPattern(101, expect);
  EXPECT_EQ(std::memcmp(memA, expect, nvme::kLbaBytes), 0);
  nvme::FlashStore::defaultPattern(102, expect);
  EXPECT_EQ(std::memcmp(memB, expect, nvme::kLbaBytes), 0);
  EXPECT_EQ(viaCacheA, nvme::FlashStore::patternWord(103, 0));
  EXPECT_EQ(viaCacheB, nvme::FlashStore::patternWord(104, 0));
}

TEST_F(TokenFixture, BatchWritesRoundTrip) {
  build();
  auto* memA = host->gpu().hbm().allocBytes(nvme::kLbaBytes);
  auto* memB = host->gpu().hbm().allocBytes(nvme::kLbaBytes);
  bool ok = false;
  ASSERT_TRUE(host->runKernel(
      {.gridDim = 1, .blockDim = 1, .name = "tok-batchw"},
      [&](gpu::KernelCtx& ctx) -> gpu::GpuTask<void> {
        AgileLockChain chain;
        AgileBuf bufA(memA), bufB(memB);
        AgileBufPtr ptrA(bufA), ptrB(bufB);
        ptrA.as<std::uint64_t>()[0] = 0xaaaa;
        ptrB.as<std::uint64_t>()[0] = 0xbbbb;
        IoBatch batch;
        EXPECT_TRUE(batch.addWrite(0, 201, ptrA));
        EXPECT_TRUE(batch.addWrite(0, 202, ptrB));
        IoToken t = co_await ctrl->submitBatch(ctx, batch, chain);
        ok = co_await ctrl->wait(ctx, t);
      }));
  EXPECT_TRUE(ok);
  std::byte page[nvme::kLbaBytes];
  std::uint64_t word;
  ASSERT_TRUE(host->ssd(0).flash().readPage(201, page));
  std::memcpy(&word, page, sizeof word);
  EXPECT_EQ(word, 0xaaaau);
  ASSERT_TRUE(host->ssd(0).flash().readPage(202, page));
  std::memcpy(&word, page, sizeof word);
  EXPECT_EQ(word, 0xbbbbu);
  EXPECT_EQ(ctrl->stats().batchDoorbells, 1u);
}

TEST_F(TokenFixture, BatchRunLongerThanRingIssuesInRounds) {
  // One queue pair of depth 8 holds 7 commands, so a 12-write run cannot
  // sit in the ring at once: it fills the ring and rings, parks until the
  // service frees entries, and rings again for each remainder.
  build(64, /*qps=*/1, /*depth=*/8);
  constexpr std::uint32_t kWrites = 12;
  auto* mem = host->gpu().hbm().allocBytes(kWrites * nvme::kLbaBytes);
  AgileBuf bufs[kWrites];
  AgileBufPtr ptrs[kWrites];
  for (std::uint32_t i = 0; i < kWrites; ++i) {
    bufs[i].bind(mem + i * nvme::kLbaBytes);
    ptrs[i].bindOwn(bufs[i]);
    ptrs[i].as<std::uint64_t>()[0] = 0xc000 + i;
  }
  bool ok = false;
  ASSERT_TRUE(host->runKernel(
      {.gridDim = 1, .blockDim = 1, .name = "tok-batch-rounds"},
      [&](gpu::KernelCtx& ctx) -> gpu::GpuTask<void> {
        AgileLockChain chain;
        IoBatch batch;
        for (std::uint32_t i = 0; i < kWrites; ++i) {
          EXPECT_TRUE(batch.addWrite(0, 300 + i, ptrs[i]));
        }
        IoToken t = co_await ctrl->submitBatch(ctx, batch, chain);
        ok = co_await ctrl->wait(ctx, t);
      }));
  ASSERT_TRUE(host->drainIo());
  EXPECT_TRUE(ok);
  std::byte page[nvme::kLbaBytes];
  for (std::uint32_t i = 0; i < kWrites; ++i) {
    ASSERT_TRUE(host->ssd(0).flash().readPage(300 + i, page));
    std::uint64_t word;
    std::memcpy(&word, page, sizeof word);
    EXPECT_EQ(word, 0xc000u + i) << "write " << i;
  }
  EXPECT_EQ(ctrl->stats().batchDoorbells, 3u);
  EXPECT_EQ(host->staging().available(), 64u);
  EXPECT_EQ(ctrl->tokens().liveOps(), 0u);
}

TEST_F(TokenFixture, BatchCoalescesAcrossWarpLanes) {
  build();
  // 32 lanes submit the identical prefetch-only batch: the warp pass elects
  // one leader, so only its prefetches reach the cache/SSD.
  ASSERT_TRUE(host->runKernel(
      {.gridDim = 1, .blockDim = 32, .name = "tok-warp"},
      [&](gpu::KernelCtx& ctx) -> gpu::GpuTask<void> {
        AgileLockChain chain;
        IoBatch batch;
        batch.addPrefetch(0, 301);
        batch.addPrefetch(0, 302);
        IoToken t = co_await ctrl->submitBatch(ctx, batch, chain);
        (void)co_await ctrl->wait(ctx, t);
      }));
  ASSERT_TRUE(host->drainIo());
  EXPECT_EQ(host->ssd(0).readsCompleted(), 2u);  // 2 pages, 32 lanes
  EXPECT_EQ(ctrl->stats().batchSubmits, 32u);
  // 31 follower lanes x 2 entries coalesced at the warp level.
  EXPECT_EQ(ctrl->stats().prefetchCoalesced, 62u);
}

TEST_F(TokenFixture, ReadErrorSurfacesThroughTokenWait) {
  build();
  host->ssd(0).injectFault(61);
  auto* mem = host->gpu().hbm().allocBytes(nvme::kLbaBytes);
  bool ok = true;
  IoStatus polled = IoStatus::kPending;
  ASSERT_TRUE(host->runKernel(
      {.gridDim = 1, .blockDim = 1, .name = "tok-err"},
      [&](gpu::KernelCtx& ctx) -> gpu::GpuTask<void> {
        AgileLockChain chain;
        AgileBuf buf(mem);
        AgileBufPtr ptr(buf);
        IoBatch batch;
        batch.addRead(0, 61, ptr);
        IoToken t = co_await ctrl->submitBatch(ctx, batch, chain);
        // Busy-poll until terminal, then wait (covers both observers).
        for (;;) {
          polled = ctrl->poll(ctx, t);
          if (polled != IoStatus::kPending) break;
          co_await ctx.backoff(1000);
        }
        ok = co_await ctrl->wait(ctx, t);
      }));
  EXPECT_EQ(polled, IoStatus::kFailed);
  EXPECT_FALSE(ok);
}

TEST_F(TokenFixture, StaleTokensAreSafeNoOps) {
  build();
  ASSERT_TRUE(host->runKernel(
      {.gridDim = 1, .blockDim = 1, .name = "tok-stale"},
      [&](gpu::KernelCtx& ctx) -> gpu::GpuTask<void> {
        AgileLockChain chain;
        IoBatch batch;
        batch.addPrefetch(0, 7);
        IoToken t = co_await ctrl->submitBatch(ctx, batch, chain);
        (void)co_await ctrl->wait(ctx, t);     // retires
        EXPECT_EQ(ctrl->poll(ctx, t), IoStatus::kRetired);
        ctrl->tokens().retire(t);               // double retire: no-op
        const bool staleWait = co_await ctrl->wait(ctx, t);
        EXPECT_TRUE(staleWait);
        IoToken invalid;
        EXPECT_FALSE(static_cast<bool>(invalid));
        EXPECT_EQ(ctrl->poll(ctx, invalid), IoStatus::kRetired);
      }));
}

TEST_F(TokenFixture, PoolRecyclesSlotsAcrossGenerations) {
  build();
  ASSERT_TRUE(host->runKernel(
      {.gridDim = 1, .blockDim = 1, .name = "tok-pool"},
      [&](gpu::KernelCtx& ctx) -> gpu::GpuTask<void> {
        AgileLockChain chain;
        for (std::uint64_t i = 0; i < 16; ++i) {
          IoBatch batch;
          batch.addPrefetch(0, 1000 + i);
          IoToken t = co_await ctrl->submitBatch(ctx, batch, chain);
          (void)co_await ctrl->wait(ctx, t);
        }
      }));
  EXPECT_EQ(ctrl->tokens().liveOps(), 0u);
  EXPECT_EQ(ctrl->tokens().stats().allocated, 16u);
  EXPECT_EQ(ctrl->tokens().stats().retired, 16u);
  // Sequential submit/wait never needs more than one live op.
  EXPECT_EQ(ctrl->tokens().stats().highWater, 1u);
}

}  // namespace
}  // namespace agile::core
