// Tests for the unified async surface: IoToken lifecycle (submit / poll /
// wait / retire), speculative prefetch cancellation through the timer
// wheel, IoBatch submission with single-doorbell coverage, and IoOpPool
// slot recycling / generation checks.
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

TEST_F(TokenFixture, SubmitReadPollsAndWaits) {
  build();
  auto* mem = host->gpu().hbm().allocBytes(nvme::kLbaBytes);
  IoStatus atSubmit = IoStatus::kRetired;
  IoStatus afterWait = IoStatus::kRetired;
  bool ok = false;
  ASSERT_TRUE(host->runKernel(
      {.gridDim = 1, .blockDim = 1, .name = "tok-read"},
      [&](gpu::KernelCtx& ctx) -> gpu::GpuTask<void> {
        AgileLockChain chain;
        AgileBuf buf(mem);
        AgileBufPtr ptr(buf);
        IoToken t = co_await ctrl->submitRead(ctx, 0, 21, ptr, chain);
        EXPECT_TRUE(static_cast<bool>(t));
        atSubmit = ctrl->poll(ctx, t);
        ok = co_await ctrl->wait(ctx, t);
        afterWait = ctrl->poll(ctx, t);  // retired by the wait
      }));
  EXPECT_EQ(atSubmit, IoStatus::kPending);  // direct read was in flight
  EXPECT_TRUE(ok);
  EXPECT_EQ(afterWait, IoStatus::kRetired);
  std::byte expect[nvme::kLbaBytes];
  nvme::FlashStore::defaultPattern(21, expect);
  EXPECT_EQ(std::memcmp(mem, expect, nvme::kLbaBytes), 0);
  EXPECT_EQ(ctrl->stats().tokenSubmits, 1u);
  EXPECT_EQ(ctrl->tokens().liveOps(), 0u);  // slot recycled
}

TEST_F(TokenFixture, SubmitWritePersists) {
  build();
  auto* mem = host->gpu().hbm().allocBytes(nvme::kLbaBytes);
  bool ok = false;
  ASSERT_TRUE(host->runKernel(
      {.gridDim = 1, .blockDim = 1, .name = "tok-write"},
      [&](gpu::KernelCtx& ctx) -> gpu::GpuTask<void> {
        AgileLockChain chain;
        AgileBuf buf(mem);
        AgileBufPtr ptr(buf);
        ptr.as<std::uint64_t>()[0] = 0xfeedbeef;
        IoToken t = co_await ctrl->submitWrite(ctx, 0, 50, ptr, chain);
        ok = co_await ctrl->wait(ctx, t);
      }));
  EXPECT_TRUE(ok);
  std::byte page[nvme::kLbaBytes];
  ASSERT_TRUE(host->ssd(0).flash().readPage(50, page));
  std::uint64_t word;
  std::memcpy(&word, page, sizeof word);
  EXPECT_EQ(word, 0xfeedbeefu);
}

TEST_F(TokenFixture, SubmitPrefetchImmediateThenHit) {
  build();
  std::uint64_t got = 0;
  bool ok = false;
  ASSERT_TRUE(host->runKernel(
      {.gridDim = 1, .blockDim = 1, .name = "tok-pf"},
      [&](gpu::KernelCtx& ctx) -> gpu::GpuTask<void> {
        AgileLockChain chain;
        IoToken t = co_await ctrl->submitPrefetch(ctx, 0, 9, chain);
        ok = co_await ctrl->wait(ctx, t);
        got = co_await ctrl->arrayRead<std::uint64_t>(ctx, 9 * 512, chain);
      }));
  EXPECT_TRUE(ok);
  EXPECT_EQ(got, nvme::FlashStore::patternWord(9, 0));
  EXPECT_EQ(host->ssd(0).readsCompleted(), 1u);  // the fill; read was a hit
}

TEST_F(TokenFixture, SpeculativeCancelIssuesNoReadAndLeaksNoLine) {
  build();
  bool cancelled = false;
  IoStatus after = IoStatus::kPending;
  ASSERT_TRUE(host->runKernel(
      {.gridDim = 1, .blockDim = 1, .name = "tok-cancel"},
      [&](gpu::KernelCtx& ctx) -> gpu::GpuTask<void> {
        AgileLockChain chain;
        IoToken t = co_await ctrl->submitPrefetch(ctx, 0, 33, chain,
                                                  /*speculativeDelayNs=*/10000);
        cancelled = ctrl->cancel(ctx, t);
        after = ctrl->poll(ctx, t);
      }));
  ASSERT_TRUE(host->drainIo());
  EXPECT_TRUE(cancelled);
  EXPECT_EQ(after, IoStatus::kRetired);  // cancel observed + recycled
  // The SSD never saw the read and the claimed line was fully released.
  EXPECT_EQ(host->ssd(0).readsCompleted(), 0u);
  EXPECT_EQ(ctrl->cache().busyLines(), 0u);
  EXPECT_EQ(ctrl->cache().findLine(makeTag(0, 33)), DefaultCtrl::Cache::npos);
  EXPECT_EQ(ctrl->stats().prefetchCancelled, 1u);
  EXPECT_EQ(ctrl->stats().speculativePrefetches, 1u);
  EXPECT_EQ(ctrl->stats().deferredIssues, 0u);
  EXPECT_EQ(ctrl->cache().stats().cancelledClaims, 1u);
  EXPECT_EQ(ctrl->tokens().liveOps(), 0u);
}

TEST_F(TokenFixture, SpeculativeUncancelledFillsTheCache) {
  build();
  bool ok = false;
  std::uint64_t got = 0;
  ASSERT_TRUE(host->runKernel(
      {.gridDim = 1, .blockDim = 1, .name = "tok-spec"},
      [&](gpu::KernelCtx& ctx) -> gpu::GpuTask<void> {
        AgileLockChain chain;
        IoToken t = co_await ctrl->submitPrefetch(ctx, 0, 12, chain,
                                                  /*speculativeDelayNs=*/2000);
        ok = co_await ctrl->wait(ctx, t);
        got = co_await ctrl->arrayRead<std::uint64_t>(ctx, 12 * 512, chain);
      }));
  EXPECT_TRUE(ok);
  EXPECT_EQ(got, nvme::FlashStore::patternWord(12, 0));
  EXPECT_EQ(host->ssd(0).readsCompleted(), 1u);
  EXPECT_EQ(ctrl->stats().deferredIssues, 1u);
  EXPECT_EQ(ctrl->stats().prefetchCancelled, 0u);
}

TEST_F(TokenFixture, CancelAfterWindowClosesReturnsFalse) {
  build();
  bool cancelled = true;
  ASSERT_TRUE(host->runKernel(
      {.gridDim = 1, .blockDim = 1, .name = "tok-late"},
      [&](gpu::KernelCtx& ctx) -> gpu::GpuTask<void> {
        AgileLockChain chain;
        IoToken t = co_await ctrl->submitPrefetch(ctx, 0, 5, chain,
                                                  /*speculativeDelayNs=*/500);
        co_await gpu::compute(ctx, 200000);  // let the window close + fill land
        cancelled = ctrl->cancel(ctx, t);
        ctrl->retire(t);
      }));
  EXPECT_FALSE(cancelled);
  EXPECT_EQ(host->ssd(0).readsCompleted(), 1u);  // the deferred fill fired
}

TEST_F(TokenFixture, CancelRefusedWhenDemandAttached) {
  build();
  bool cancelled = true;
  std::uint64_t got = 0;
  ASSERT_TRUE(host->runKernel(
      {.gridDim = 1, .blockDim = 2, .name = "tok-demand"},
      [&](gpu::KernelCtx& ctx) -> gpu::GpuTask<void> {
        AgileLockChain chain;
        if (ctx.threadIdx() == 0) {
          IoToken t = co_await ctrl->submitPrefetch(
              ctx, 0, 77, chain, /*speculativeDelayNs=*/20000);
          // Give thread 1 time to park on the BUSY line, then try to cancel.
          co_await gpu::compute(ctx, 5000);
          cancelled = ctrl->cancel(ctx, t);
          ctrl->retire(t);
        } else {
          co_await gpu::compute(ctx, 1000);
          // Demand read of the same page: parks on the pending fill.
          got = co_await ctrl->arrayRead<std::uint64_t>(ctx, 77 * 512, chain);
        }
      }));
  EXPECT_FALSE(cancelled);  // a reader was riding the fill
  EXPECT_EQ(got, nvme::FlashStore::patternWord(77, 0));
  EXPECT_EQ(host->ssd(0).readsCompleted(), 1u);
}

TEST_F(TokenFixture, WaiterObservesConcurrentCancelAsFailure) {
  // A lane parked in wait() while another cancels the speculative prefetch
  // must wake, observe kCancelled, and report failure — not success.
  build();
  bool cancelled = false;
  bool waitResult = true;
  ASSERT_TRUE(host->runKernel(
      {.gridDim = 1, .blockDim = 2, .name = "tok-race"},
      [&, shared = IoToken{}](gpu::KernelCtx& ctx) mutable
          -> gpu::GpuTask<void> {
        // One KernelFn instance is shared by all lanes, so the mutable
        // capture is common state: lane 0 publishes the token, lane 1 waits.
        AgileLockChain chain;
        if (ctx.threadIdx() == 0) {
          shared = co_await ctrl->submitPrefetch(
              ctx, 0, 88, chain, /*speculativeDelayNs=*/50000);
          co_await gpu::compute(ctx, 4000);  // let thread 1 park in wait()
          cancelled = ctrl->cancel(ctx, shared);
        } else {
          co_await gpu::compute(ctx, 1000);
          waitResult = co_await ctrl->wait(ctx, shared);
        }
      }));
  ASSERT_TRUE(host->drainIo());
  EXPECT_TRUE(cancelled);
  EXPECT_FALSE(waitResult);  // cancelled, so the wait must not claim success
  EXPECT_EQ(host->ssd(0).readsCompleted(), 0u);
  EXPECT_EQ(ctrl->tokens().liveOps(), 0u);  // the waiter retired the slot
}

TEST_F(TokenFixture, RetireRefusedWhileWaiterParked) {
  // retire() on a token with a parked wait()er must be a no-op: the waiter
  // owns the observation. Recycling under it would strand the continuation
  // (simulation hang) or wake it spuriously from a later op.
  build();
  bool waitResult = false;
  ASSERT_TRUE(host->runKernel(
      {.gridDim = 1, .blockDim = 2, .name = "tok-retire-race"},
      [&, shared = IoToken{}](gpu::KernelCtx& ctx) mutable
          -> gpu::GpuTask<void> {
        AgileLockChain chain;
        if (ctx.threadIdx() == 0) {
          shared = co_await ctrl->submitPrefetch(
              ctx, 0, 91, chain, /*speculativeDelayNs=*/20000);
          co_await gpu::compute(ctx, 4000);  // thread 1 is parked by now
          ctrl->retire(shared);              // must be refused
        } else {
          co_await gpu::compute(ctx, 1000);
          waitResult = co_await ctrl->wait(ctx, shared);
        }
      }));
  ASSERT_TRUE(host->drainIo());
  EXPECT_TRUE(waitResult);  // the deferred fill completed normally
  EXPECT_EQ(host->ssd(0).readsCompleted(), 1u);
  EXPECT_EQ(ctrl->tokens().liveOps(), 0u);  // the waiter retired the slot
}

TEST_F(TokenFixture, ReusedBufPtrDropsStaleShareRedirect) {
  // An AgileBufPtr that was redirected to a peer's buffer by a Share-Table
  // hit and then reused for a fresh read must track its own buffer again:
  // the stale peer barrier (already quiesced) must not make wait() report
  // completion while the new fill is still in flight.
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
          IoToken t = co_await ctrl->submitRead(ctx, 0, 56, ptr, chain);
          EXPECT_TRUE(co_await ctrl->wait(ctx, t));
          // Data must be present the moment wait() returns.
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
        IoToken t = co_await ctrl->submitRead(ctx, 0, 61, ptr, chain);
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
        IoToken t = co_await ctrl->submitPrefetch(ctx, 0, 7, chain);
        (void)co_await ctrl->wait(ctx, t);     // retires
        EXPECT_EQ(ctrl->poll(ctx, t), IoStatus::kRetired);
        EXPECT_FALSE(ctrl->cancel(ctx, t));
        ctrl->retire(t);                        // double retire: no-op
        EXPECT_TRUE(co_await ctrl->wait(ctx, t));
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
          IoToken t = co_await ctrl->submitPrefetch(ctx, 0, 1000 + i, chain);
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
