// Integration tests for AgileCtrl: the three API methods of §3.5 (prefetch,
// async_issue, array view), two-level coalescing, the Share Table, error
// propagation, and write coherency.
#include <gtest/gtest.h>

#include <cstring>
#include <optional>
#include <vector>

#include "bam/bam_ctrl.h"
#include "core/ctrl.h"
#include "nvme/flash_store.h"

namespace agile::core {
namespace {

struct CtrlFixture : ::testing::Test {
  std::unique_ptr<AgileHost> host;
  std::unique_ptr<DefaultCtrl> ctrl;
  StripeMap stripe;  // the array view's layout; set before build()
  // Nonzero: the last SSD's read latency (set before build()). Fills to it
  // hold cache lines BUSY while the other SSDs answer at the default speed.
  SimTime lastSsdReadNs = 0;

  void build(std::uint32_t cacheLines = 64, std::uint32_t qps = 2,
             std::uint32_t depth = 64, std::uint32_t ssds = 1,
             SimTime kernelTimeout = HostConfig{}.kernelTimeout,
             const nvme::FaultPlan* fault = nullptr) {
    HostConfig cfg;
    cfg.kernelTimeout = kernelTimeout;
    cfg.queuePairsPerSsd = qps;
    cfg.queueDepth = depth;
    cfg.stagingPages = 64;
    host = std::make_unique<AgileHost>(cfg);
    for (std::uint32_t i = 0; i < ssds; ++i) {
      nvme::SsdConfig ssd;
      ssd.name = "nvme" + std::to_string(i);
      ssd.capacityLbas = 65536;
      if (fault != nullptr) ssd.fault = *fault;
      if (lastSsdReadNs != 0 && i + 1 == ssds) {
        ssd.readLatencyNs = lastSsdReadNs;
      }
      host->addNvmeDev(ssd);
    }
    host->initNvme();
    ctrl = std::make_unique<DefaultCtrl>(
        *host, CtrlConfig{.cacheLines = cacheLines, .stripe = stripe});
    host->startAgile();
  }

  void TearDown() override {
    if (host && host->serviceRunning()) host->stopAgile();
  }

  std::uint64_t expectWord(std::uint64_t lba, std::uint32_t wordIdx) {
    return nvme::FlashStore::patternWord(lba, wordIdx);
  }
};

TEST_F(CtrlFixture, ArrayReadReturnsFlashContent) {
  build();
  std::uint64_t got = 0;
  ASSERT_TRUE(host->runKernel(
      {.gridDim = 1, .blockDim = 1, .name = "read"},
      [&](gpu::KernelCtx& ctx) -> gpu::GpuTask<void> {
        AgileLockChain chain;
        got = co_await ctrl->arrayRead<std::uint64_t>(ctx, 5, chain);
      }));
  EXPECT_EQ(got, expectWord(0, 5));  // element 5 lives in page 0, word 5
}

TEST_F(CtrlFixture, ArrayReadCrossesPages) {
  build();
  std::vector<std::uint64_t> got(4);
  ASSERT_TRUE(host->runKernel(
      {.gridDim = 1, .blockDim = 1, .name = "read4"},
      [&](gpu::KernelCtx& ctx) -> gpu::GpuTask<void> {
        AgileLockChain chain;
        for (int i = 0; i < 4; ++i) {
          // One element per page: element i*512 is word 0 of page i.
          got[i] = co_await ctrl->arrayRead<std::uint64_t>(
              ctx, static_cast<std::uint64_t>(i) * 512, chain);
        }
      }));
  for (std::uint64_t i = 0; i < 4; ++i) EXPECT_EQ(got[i], expectWord(i, 0));
}

TEST_F(CtrlFixture, SecondReadHitsCache) {
  build();
  ASSERT_TRUE(host->runKernel(
      {.gridDim = 1, .blockDim = 1, .name = "hit"},
      [&](gpu::KernelCtx& ctx) -> gpu::GpuTask<void> {
        AgileLockChain chain;
        (void)co_await ctrl->arrayRead<std::uint64_t>(ctx, 3, chain);
        (void)co_await ctrl->arrayRead<std::uint64_t>(ctx, 4, chain);
      }));
  // The first read re-probes (hit) after its fill lands; the second hits
  // directly — and only one page fill reached the SSD.
  EXPECT_EQ(ctrl->cache().stats().hits, 2u);
  EXPECT_EQ(host->ssd(0).readsCompleted(), 1u);  // one page fill only
}

TEST_F(CtrlFixture, PrefetchHidesFillLatency) {
  build();
  ASSERT_TRUE(host->runKernel(
      {.gridDim = 1, .blockDim = 32, .name = "pf"},
      [&](gpu::KernelCtx& ctx) -> gpu::GpuTask<void> {
        AgileLockChain chain;
        co_await ctrl->prefetch(ctx, 0, ctx.laneId() / 8, chain);
        // 32 lanes request 4 distinct pages: warp coalescing must collapse
        // them to 4 fills.
      }));
  ASSERT_TRUE(host->drainIo());
  EXPECT_EQ(host->ssd(0).readsCompleted(), 4u);
  EXPECT_EQ(ctrl->stats().prefetchCoalesced, 28u);
}

TEST_F(CtrlFixture, PrefetchThenReadIsHit) {
  build();
  std::uint64_t got = 0;
  ASSERT_TRUE(host->runKernel(
      {.gridDim = 1, .blockDim = 1, .name = "pf-read"},
      [&](gpu::KernelCtx& ctx) -> gpu::GpuTask<void> {
        AgileLockChain chain;
        co_await ctrl->prefetch(ctx, 0, 9, chain);
        got = co_await ctrl->arrayRead<std::uint64_t>(ctx, 9 * 512, chain);
      }));
  EXPECT_EQ(got, expectWord(9, 0));
  // Exactly one fill: the array read coalesced onto the prefetch.
  EXPECT_EQ(host->ssd(0).readsCompleted(), 1u);
}

TEST_F(CtrlFixture, ArrayWriteReadBack) {
  build();
  std::uint64_t got = 0;
  ASSERT_TRUE(host->runKernel(
      {.gridDim = 1, .blockDim = 1, .name = "rw"},
      [&](gpu::KernelCtx& ctx) -> gpu::GpuTask<void> {
        AgileLockChain chain;
        co_await ctrl->arrayWrite<std::uint64_t>(ctx, 7, 0xabcdef, chain);
        got = co_await ctrl->arrayRead<std::uint64_t>(ctx, 7, chain);
      }));
  EXPECT_EQ(got, 0xabcdefu);
}

TEST_F(CtrlFixture, DirtyEvictionPersistsToFlash) {
  build(/*cacheLines=*/1);  // single line forces eviction
  std::uint64_t got = 0;
  ASSERT_TRUE(host->runKernel(
      {.gridDim = 1, .blockDim = 1, .name = "dirty"},
      [&](gpu::KernelCtx& ctx) -> gpu::GpuTask<void> {
        AgileLockChain chain;
        co_await ctrl->arrayWrite<std::uint64_t>(ctx, 7, 0x1111, chain);
        // Touch another page: evicts page 0 (writeback).
        (void)co_await ctrl->arrayRead<std::uint64_t>(ctx, 512, chain);
        // Read page 0 again: must come back from flash with our value.
        got = co_await ctrl->arrayRead<std::uint64_t>(ctx, 7, chain);
      }));
  EXPECT_EQ(got, 0x1111u);
  EXPECT_GE(host->ssd(0).writesCompleted(), 1u);
}

TEST_F(CtrlFixture, AsyncReadIntoBuffer) {
  build();
  auto* mem = host->gpu().hbm().allocBytes(nvme::kLbaBytes);
  bool ok = false;
  ASSERT_TRUE(host->runKernel(
      {.gridDim = 1, .blockDim = 1, .name = "aread"},
      [&](gpu::KernelCtx& ctx) -> gpu::GpuTask<void> {
        AgileLockChain chain;
        AgileBuf buf(mem);
        AgileBufPtr ptr(buf);
        co_await ctrl->asyncRead(ctx, 0, 21, ptr, chain);
        ok = co_await ctrl->waitBuf(ctx, ptr);
      }));
  EXPECT_TRUE(ok);
  std::byte expect[nvme::kLbaBytes];
  nvme::FlashStore::defaultPattern(21, expect);
  EXPECT_EQ(std::memcmp(mem, expect, nvme::kLbaBytes), 0);
  EXPECT_EQ(ctrl->stats().directReads, 1u);
}

// SQ selection starts from the issuing warp's queue pair, and warps never
// span blocks: two single-lane blocks are two warps, so their reads land on
// two different SQs instead of both on queue pair 0.
TEST_F(CtrlFixture, SingleLaneBlocksTakeDifferentSqs) {
  build(/*cacheLines=*/64, /*qps=*/2);
  auto* mem = host->gpu().hbm().allocBytes(2 * nvme::kLbaBytes);
  int ok = 0;
  ASSERT_TRUE(host->runKernel(
      {.gridDim = 2, .blockDim = 1, .name = "two-blocks"},
      [&](gpu::KernelCtx& ctx) -> gpu::GpuTask<void> {
        AgileLockChain chain;
        AgileBuf buf(mem + ctx.blockIdx() * nvme::kLbaBytes);
        AgileBufPtr ptr(buf);
        co_await ctrl->asyncRead(ctx, 0, 40 + ctx.blockIdx(), ptr, chain);
        ok += co_await ctrl->waitBuf(ctx, ptr) ? 1 : 0;
      }));
  EXPECT_EQ(ok, 2);
  const auto& sqs = host->queuePairs().sqs;
  ASSERT_EQ(sqs.size(), 2u);
  EXPECT_EQ(sqs[0]->totalIssued, 1u);
  EXPECT_EQ(sqs[1]->totalIssued, 1u);
}

TEST_F(CtrlFixture, AsyncReadHitCopiesFromCache) {
  build();
  auto* mem = host->gpu().hbm().allocBytes(nvme::kLbaBytes);
  bool ok = false;
  ASSERT_TRUE(host->runKernel(
      {.gridDim = 1, .blockDim = 1, .name = "ahit"},
      [&](gpu::KernelCtx& ctx) -> gpu::GpuTask<void> {
        AgileLockChain chain;
        // Pull page 3 into the cache, then asyncRead it: no new SSD I/O.
        (void)co_await ctrl->arrayRead<std::uint64_t>(ctx, 3 * 512, chain);
        AgileBuf buf(mem);
        AgileBufPtr ptr(buf);
        co_await ctrl->asyncRead(ctx, 0, 3, ptr, chain);
        ok = co_await ctrl->waitBuf(ctx, ptr);
      }));
  EXPECT_TRUE(ok);
  EXPECT_EQ(host->ssd(0).readsCompleted(), 1u);
  std::byte expect[nvme::kLbaBytes];
  nvme::FlashStore::defaultPattern(3, expect);
  EXPECT_EQ(std::memcmp(mem, expect, nvme::kLbaBytes), 0);
}

TEST_F(CtrlFixture, AsyncReadRidesBusyFill) {
  build();
  auto* mem = host->gpu().hbm().allocBytes(nvme::kLbaBytes);
  bool ok = false;
  ASSERT_TRUE(host->runKernel(
      {.gridDim = 1, .blockDim = 1, .name = "abusy"},
      [&](gpu::KernelCtx& ctx) -> gpu::GpuTask<void> {
        AgileLockChain chain;
        // Prefetch puts the line in BUSY; asyncRead must append its buffer
        // to the line's waiter list instead of issuing a second read.
        co_await ctrl->prefetch(ctx, 0, 11, chain);
        AgileBuf buf(mem);
        AgileBufPtr ptr(buf);
        co_await ctrl->asyncRead(ctx, 0, 11, ptr, chain);
        ok = co_await ctrl->waitBuf(ctx, ptr);
      }));
  EXPECT_TRUE(ok);
  EXPECT_EQ(host->ssd(0).readsCompleted(), 1u);  // coalesced
  std::byte expect[nvme::kLbaBytes];
  nvme::FlashStore::defaultPattern(11, expect);
  EXPECT_EQ(std::memcmp(mem, expect, nvme::kLbaBytes), 0);
}

TEST_F(CtrlFixture, ShareTableSharesBuffers) {
  build();
  auto* memA = host->gpu().hbm().allocBytes(nvme::kLbaBytes);
  auto* memB = host->gpu().hbm().allocBytes(nvme::kLbaBytes);
  bool sharedHit = false;
  // A share-redirected peer references the owner's buffer, so the buffers
  // must outlive both lanes (not live in a coroutine frame that may be
  // destroyed while the peer still waits on the owner's barrier).
  AgileBuf bufA(memA), bufB(memB);
  ASSERT_TRUE(host->runKernel(
      {.gridDim = 1, .blockDim = 2, .name = "share"},
      [&](gpu::KernelCtx& ctx) -> gpu::GpuTask<void> {
        AgileLockChain chain;
        AgileBuf& buf = ctx.threadIdx() == 0 ? bufA : bufB;
        AgileBufPtr ptr(buf);
        if (ctx.threadIdx() == 1) {
          // Let thread 0 win the race and own the entry.
          co_await gpu::compute(ctx, 2000);
        }
        co_await ctrl->asyncRead(ctx, 0, 33, ptr, chain);
        co_await ctrl->waitBuf(ctx, ptr);
        if (ctx.threadIdx() == 1) {
          sharedHit = ptr.isShared();
          // Thread 1's pointer must reference thread 0's buffer.
          if (sharedHit) {
            EXPECT_EQ(ptr.data(), memA);
            co_await ctrl->releaseBuf(ctx, ptr, chain);
          }
        }
      }));
  EXPECT_TRUE(sharedHit);
  EXPECT_EQ(host->ssd(0).readsCompleted(), 1u);  // single fill for two readers
  EXPECT_EQ(ctrl->shareTable().stats().hits, 1u);
}

TEST_F(CtrlFixture, ShareDisabledDuplicatesReads) {
  // Same scenario with NeverSharePolicy: two direct reads (the cache-BUSY
  // path would coalesce, but direct buffer reads bypass the cache miss).
  HostConfig cfg;
  cfg.queuePairsPerSsd = 2;
  cfg.queueDepth = 64;
  host = std::make_unique<AgileHost>(cfg);
  nvme::SsdConfig ssd;
  ssd.capacityLbas = 65536;
  host->addNvmeDev(ssd);
  host->initNvme();
  AgileCtrl<ClockPolicy, NeverSharePolicy> noshare(
      *host, CtrlConfig{.cacheLines = 64});
  host->startAgile();

  auto* memA = host->gpu().hbm().allocBytes(nvme::kLbaBytes);
  auto* memB = host->gpu().hbm().allocBytes(nvme::kLbaBytes);
  ASSERT_TRUE(host->runKernel(
      {.gridDim = 1, .blockDim = 2, .name = "noshare"},
      [&](gpu::KernelCtx& ctx) -> gpu::GpuTask<void> {
        AgileLockChain chain;
        AgileBuf buf(ctx.threadIdx() == 0 ? memA : memB);
        AgileBufPtr ptr(buf);
        if (ctx.threadIdx() == 1) co_await gpu::compute(ctx, 2000);
        co_await noshare.asyncRead(ctx, 0, 33, ptr, chain);
        co_await noshare.waitBuf(ctx, ptr);
        EXPECT_FALSE(ptr.isShared());
      }));
  EXPECT_EQ(host->ssd(0).readsCompleted(), 2u);
}

TEST_F(CtrlFixture, ModifiedShareePropagatesOnRelease) {
  build();
  auto* memA = host->gpu().hbm().allocBytes(nvme::kLbaBytes);
  auto* memB = host->gpu().hbm().allocBytes(nvme::kLbaBytes);
  std::uint64_t reread = 0;
  ASSERT_TRUE(host->runKernel(
      {.gridDim = 1, .blockDim = 2, .name = "moesi"},
      [&](gpu::KernelCtx& ctx) -> gpu::GpuTask<void> {
        AgileLockChain chain;
        AgileBuf buf(ctx.threadIdx() == 0 ? memA : memB);
        AgileBufPtr ptr(buf);
        if (ctx.threadIdx() == 1) co_await gpu::compute(ctx, 2000);
        co_await ctrl->asyncRead(ctx, 0, 40, ptr, chain);
        co_await ctrl->waitBuf(ctx, ptr);
        if (ctx.threadIdx() == 1) {
          // Write through the shared pointer; the entry turns Modified.
          ptr.as<std::uint64_t>()[0] = 0xfeed;
          ctrl->markBufModified(ptr);
          co_await ctrl->releaseBuf(ctx, ptr, chain);
          co_await gpu::compute(ctx, 1000);
        } else {
          co_await gpu::compute(ctx, 8000);  // release after thread 1
          co_await ctrl->releaseOwned(ctx, 0, 40, ptr, chain);
          // Last release propagated to the software cache: a fresh array
          // read must observe the new value without an SSD fetch.
          reread = co_await ctrl->arrayRead<std::uint64_t>(
              ctx, 40 * 512, chain);
        }
      }));
  EXPECT_EQ(reread, 0xfeedu);
  EXPECT_EQ(ctrl->shareTable().stats().propagations, 1u);
  // The owner's direct read is the only SSD read: the propagation filled
  // the line from the buffer and the reread hit it.
  EXPECT_EQ(host->ssd(0).readsCompleted(), 1u);
}

TEST_F(CtrlFixture, ModifiedShareePropagatesIntoReadyLine) {
  // The page is already READY in the software cache when the last holder
  // of a Modified shared buffer releases it: the propagation overwrites
  // the line in place and marks it MODIFIED, with no further SSD read.
  build();
  auto* memA = host->gpu().hbm().allocBytes(nvme::kLbaBytes);
  auto* memB = host->gpu().hbm().allocBytes(nvme::kLbaBytes);
  std::uint64_t filled = 0;
  std::uint64_t reread = 0;
  ASSERT_TRUE(host->runKernel(
      {.gridDim = 1, .blockDim = 2, .name = "moesi-hit"},
      [&](gpu::KernelCtx& ctx) -> gpu::GpuTask<void> {
        AgileLockChain chain;
        AgileBuf buf(ctx.threadIdx() == 0 ? memA : memB);
        AgileBufPtr ptr(buf);
        if (ctx.threadIdx() == 1) co_await gpu::compute(ctx, 2000);
        co_await ctrl->asyncRead(ctx, 0, 40, ptr, chain);
        co_await ctrl->waitBuf(ctx, ptr);
        if (ctx.threadIdx() == 1) {
          co_await gpu::compute(ctx, 4000);  // after the owner's cache fill
          ptr.as<std::uint64_t>()[0] = 0xfeed;
          ctrl->markBufModified(ptr);
          co_await ctrl->releaseBuf(ctx, ptr, chain);
        } else {
          // Fill the page into the cache beside the shared buffer.
          filled = co_await ctrl->arrayRead<std::uint64_t>(ctx, 40 * 512,
                                                           chain);
          co_await ctrl->releaseOwned(ctx, 0, 40, ptr, chain);
          reread = co_await ctrl->arrayRead<std::uint64_t>(
              ctx, 40 * 512, chain);
        }
      }));
  EXPECT_EQ(filled, expectWord(40, 0));
  EXPECT_EQ(reread, 0xfeedu);
  EXPECT_EQ(ctrl->shareTable().stats().propagations, 1u);
  // The owner's asyncRead probe and the fill missed; the propagation hit.
  EXPECT_EQ(ctrl->cache().stats().misses, 2u);
  // The owner's direct read plus the fill that made the line READY.
  EXPECT_EQ(host->ssd(0).readsCompleted(), 2u);
}

// releaseOwned() with a buffer that owns no entry for the page (its read
// resolved from the cache or a BUSY line) must leave a peer's owner entry
// alone: erasing it while the peer's DMA is in flight would drop the
// owner's registration and dangle any attached holder's entry pointer.
TEST_F(CtrlFixture, ReleaseOwnedSparesPeerEntry) {
  build();
  auto* memPeer = host->gpu().hbm().allocBytes(nvme::kLbaBytes);
  auto* memOther = host->gpu().hbm().allocBytes(nvme::kLbaBytes);
  AgileBuf peer(memPeer), other(memOther);
  const std::uint64_t tag = makeTag(0, 7);
  bool survived = false;
  AgileBuf* entryBuf = nullptr;
  std::size_t afterPeer = 1;
  ASSERT_TRUE(host->runKernel(
      {.gridDim = 1, .blockDim = 1, .name = "spare"},
      [&](gpu::KernelCtx& ctx) -> gpu::GpuTask<void> {
        AgileLockChain chain;
        AgileBufPtr peerPtr(peer);
        co_await ctrl->asyncRead(ctx, 0, 7, peerPtr, chain);  // miss: owner
        AgileBufPtr otherPtr(other);  // never read page 7
        co_await ctrl->releaseOwned(ctx, 0, 7, otherPtr, chain);
        const ShareEntry* e = ctrl->shareTable().find(tag);
        survived = e != nullptr;
        entryBuf = survived ? e->buf : nullptr;
        co_await ctrl->waitBuf(ctx, peerPtr);
        co_await ctrl->releaseOwned(ctx, 0, 7, peerPtr, chain);
        afterPeer = ctrl->shareTable().size();
      }));
  EXPECT_TRUE(survived);
  EXPECT_EQ(entryBuf, &peer);
  EXPECT_EQ(afterPeer, 0u);
}

// The last release of a clean owned buffer demotes its page into the
// software cache: the next asyncRead of the page copies it from HBM instead
// of reading flash, and the demotion probe counts as no demand lookup.
TEST_F(CtrlFixture, CleanOwnerReleaseDemotesToCache) {
  build();
  auto* memA = host->gpu().hbm().allocBytes(nvme::kLbaBytes);
  auto* memB = host->gpu().hbm().allocBytes(nvme::kLbaBytes);
  AgileBuf bufA(memA), bufB(memB);
  bool ok = false;
  ASSERT_TRUE(host->runKernel(
      {.gridDim = 1, .blockDim = 1, .name = "demote"},
      [&](gpu::KernelCtx& ctx) -> gpu::GpuTask<void> {
        AgileLockChain chain;
        AgileBufPtr a(bufA);
        co_await ctrl->asyncRead(ctx, 0, 40, a, chain);  // miss: owner
        (void)co_await ctrl->waitBuf(ctx, a);
        co_await ctrl->releaseOwned(ctx, 0, 40, a, chain);
        AgileBufPtr b(bufB);
        co_await ctrl->asyncRead(ctx, 0, 40, b, chain);
        ok = co_await ctrl->waitBuf(ctx, b);
      }));
  EXPECT_TRUE(ok);
  std::byte expect[nvme::kLbaBytes];
  nvme::FlashStore::defaultPattern(40, expect);
  EXPECT_EQ(std::memcmp(memB, expect, nvme::kLbaBytes), 0);
  EXPECT_EQ(host->ssd(0).readsCompleted(), 1u);
  EXPECT_EQ(ctrl->shareTable().stats().demotions, 1u);
  EXPECT_EQ(ctrl->shareTable().stats().propagations, 0u);
  EXPECT_EQ(ctrl->shareTable().size(), 0u);
  // The owner's probe missed and the reread hit; the demotion is neither.
  EXPECT_EQ(ctrl->cache().stats().misses, 1u);
  EXPECT_EQ(ctrl->cache().stats().hits, 1u);
}

// A read that failed leaves no trustworthy bytes in the buffer: its release
// must not install them in the cache.
TEST_F(CtrlFixture, FailedReadIsNotDemoted) {
  nvme::FaultPlan fault;
  fault.enabled = true;
  fault.readErrorRate = 1.0;  // retries are off: the error reaches waitBuf
  build(/*cacheLines=*/64, /*qps=*/2, /*depth=*/64, /*ssds=*/1,
        HostConfig{}.kernelTimeout, &fault);
  auto* mem = host->gpu().hbm().allocBytes(nvme::kLbaBytes);
  AgileBuf buf(mem);
  bool ok = true;
  ASSERT_TRUE(host->runKernel(
      {.gridDim = 1, .blockDim = 1, .name = "demote-fail"},
      [&](gpu::KernelCtx& ctx) -> gpu::GpuTask<void> {
        AgileLockChain chain;
        AgileBufPtr ptr(buf);
        co_await ctrl->asyncRead(ctx, 0, 40, ptr, chain);
        ok = co_await ctrl->waitBuf(ctx, ptr);
        co_await ctrl->releaseOwned(ctx, 0, 40, ptr, chain);
      }));
  EXPECT_FALSE(ok);
  EXPECT_EQ(ctrl->shareTable().stats().demotions, 0u);
  EXPECT_EQ(ctrl->shareTable().size(), 0u);
  EXPECT_EQ(ctrl->cache().findLine(makeTag(0, 40)), DefaultCtrl::Cache::npos);
}

// A write that lands between the owner's read and its release makes the
// buffer stale: the release demotes nothing, and a reread returns the
// written word from flash.
TEST_F(CtrlFixture, WriteBeforeReleaseBlocksDemotion) {
  build();
  auto* memA = host->gpu().hbm().allocBytes(nvme::kLbaBytes);
  auto* memW = host->gpu().hbm().allocBytes(nvme::kLbaBytes);
  auto* memC = host->gpu().hbm().allocBytes(nvme::kLbaBytes);
  AgileBuf bufA(memA), bufW(memW), bufC(memC);
  std::uint64_t reread = 0;
  ASSERT_TRUE(host->runKernel(
      {.gridDim = 1, .blockDim = 1, .name = "demote-write"},
      [&](gpu::KernelCtx& ctx) -> gpu::GpuTask<void> {
        AgileLockChain chain;
        AgileBufPtr a(bufA);
        co_await ctrl->asyncRead(ctx, 0, 40, a, chain);
        (void)co_await ctrl->waitBuf(ctx, a);
        AgileBufPtr w(bufW);
        w.as<std::uint64_t>()[0] = 0xbeef;
        co_await ctrl->asyncWrite(ctx, 0, 40, w, chain);
        (void)co_await ctrl->waitBuf(ctx, w);
        co_await ctrl->releaseOwned(ctx, 0, 40, a, chain);
        AgileBufPtr c(bufC);
        co_await ctrl->asyncRead(ctx, 0, 40, c, chain);
        (void)co_await ctrl->waitBuf(ctx, c);
        reread = c.as<std::uint64_t>()[0];
        co_await ctrl->releaseOwned(ctx, 0, 40, c, chain);
      }));
  EXPECT_EQ(reread, 0xbeefu);
  // Only the reread's clean release demotes.
  EXPECT_EQ(ctrl->shareTable().stats().demotions, 1u);
  EXPECT_EQ(host->ssd(0).readsCompleted(), 2u);
  EXPECT_EQ(ctrl->shareTable().size(), 0u);
}

// With every line BUSY the demotion is dropped on the spot: a release that
// parked for a free line would wait out fills it has no part in. Both lines
// are held BUSY by fills to a 10 ms SSD while the read of page 40 and its
// release finish on a fast one.
TEST_F(CtrlFixture, AllBusyCacheDropsDemotion) {
  lastSsdReadNs = 10_ms;
  build(/*cacheLines=*/2, 2, 64, /*ssds=*/2);
  auto* mem = host->gpu().hbm().allocBytes(nvme::kLbaBytes);
  AgileBuf buf(mem);
  SimTime releasedAt = 0;
  std::uint32_t busyAtRelease = 0;
  ASSERT_TRUE(host->runKernel(
      {.gridDim = 1, .blockDim = 1, .name = "demote-stall"},
      [&](gpu::KernelCtx& ctx) -> gpu::GpuTask<void> {
        AgileLockChain chain;
        co_await ctrl->prefetch(ctx, /*dev=*/1, 1, chain);
        co_await ctrl->prefetch(ctx, /*dev=*/1, 2, chain);
        AgileBufPtr ptr(buf);
        co_await ctrl->asyncRead(ctx, 0, 40, ptr, chain);
        (void)co_await ctrl->waitBuf(ctx, ptr);
        busyAtRelease = ctrl->cache().busyLines();
        co_await ctrl->releaseOwned(ctx, 0, 40, ptr, chain);
        releasedAt = ctx.now();
      }));
  EXPECT_EQ(busyAtRelease, 2u);
  EXPECT_LT(releasedAt, 1_ms);  // the release did not park on the fills
  EXPECT_EQ(ctrl->shareTable().stats().demotions, 0u);
  EXPECT_EQ(ctrl->cache().stats().victimStalls, 1u);
  EXPECT_EQ(ctrl->shareTable().size(), 0u);
  EXPECT_EQ(host->ssd(0).readsCompleted(), 1u);
  ASSERT_TRUE(host->drainIo());
  EXPECT_EQ(ctrl->cache().busyLines(), 0u);
  EXPECT_EQ(host->ssd(1).readsCompleted(), 2u);
}

// Regression: asyncWrite invalidating a page whose Share-Table entry still
// has holders. Erasing the entry there makes the attached peer's releaseBuf
// read freed memory and lets the owner's releaseOwned return without
// draining the peer. The entry must stay alive until its last holder
// releases, keep the owner parked until the peer detaches, and hand nothing
// down to the cache (the write is newer).
TEST_F(CtrlFixture, WriteInvalidatesHeldShareEntrySafely) {
  build();
  auto* memA = host->gpu().hbm().allocBytes(nvme::kLbaBytes);
  auto* memB = host->gpu().hbm().allocBytes(nvme::kLbaBytes);
  auto* memW = host->gpu().hbm().allocBytes(nvme::kLbaBytes);
  // The peer reads through the owner's buffer: keep both outside the
  // coroutine frames.
  AgileBuf bufA(memA), bufB(memB), bufW(memW);
  bool peerShared = false;
  SimTime peerReleasedAt = 0, ownerReleasedAt = 0;
  std::uint64_t reread = 0;
  ASSERT_TRUE(host->runKernel(
      {.gridDim = 1, .blockDim = 3, .name = "share-invalidate"},
      [&](gpu::KernelCtx& ctx) -> gpu::GpuTask<void> {
        AgileLockChain chain;
        switch (ctx.threadIdx()) {
          case 0: {  // owner
            AgileBufPtr a(bufA);
            co_await ctrl->asyncRead(ctx, 0, 40, a, chain);
            (void)co_await ctrl->waitBuf(ctx, a);
            co_await gpu::compute(ctx, 90'000);  // after the write
            co_await ctrl->releaseOwned(ctx, 0, 40, a, chain);
            ownerReleasedAt = ctx.engine().now();
            break;
          }
          case 1: {  // peer, attached to the owner's entry
            co_await gpu::compute(ctx, 2000);
            AgileBufPtr b(bufB);
            co_await ctrl->asyncRead(ctx, 0, 40, b, chain);
            peerShared = b.isShared();
            (void)co_await ctrl->waitBuf(ctx, b);
            co_await gpu::compute(ctx, 150'000);  // after the owner parks
            peerReleasedAt = ctx.engine().now();
            co_await ctrl->releaseBuf(ctx, b, chain);
            break;
          }
          default: {  // writer, once the owner's read has landed
            co_await gpu::compute(ctx, 80'000);
            AgileBufPtr w(bufW);
            w.as<std::uint64_t>()[0] = 0xbeef;
            co_await ctrl->asyncWrite(ctx, 0, 40, w, chain);
            (void)co_await ctrl->waitBuf(ctx, w);
            break;
          }
        }
      }));
  ASSERT_TRUE(peerShared);
  EXPECT_GE(ownerReleasedAt, peerReleasedAt);  // the owner was drained
  EXPECT_EQ(ctrl->shareTable().size(), 0u);
  EXPECT_EQ(ctrl->shareTable().stats().demotions, 0u);
  EXPECT_EQ(ctrl->shareTable().stats().propagations, 0u);
  EXPECT_EQ(ctrl->cache().findLine(makeTag(0, 40)), DefaultCtrl::Cache::npos);
  ASSERT_TRUE(host->runKernel(
      {.gridDim = 1, .blockDim = 1, .name = "reread"},
      [&](gpu::KernelCtx& ctx) -> gpu::GpuTask<void> {
        AgileLockChain chain;
        reread = co_await ctrl->arrayRead<std::uint64_t>(ctx, 40 * 512, chain);
      }));
  EXPECT_EQ(reread, 0xbeefu);
}

TEST_F(CtrlFixture, AsyncWritePersistsAndKeepsCacheCoherent) {
  build();
  auto* mem = host->gpu().hbm().allocBytes(nvme::kLbaBytes);
  std::uint64_t cached = 0, direct = 0;
  ASSERT_TRUE(host->runKernel(
      {.gridDim = 1, .blockDim = 1, .name = "awrite"},
      [&](gpu::KernelCtx& ctx) -> gpu::GpuTask<void> {
        AgileLockChain chain;
        // Warm the cache with page 50's flash content.
        (void)co_await ctrl->arrayRead<std::uint64_t>(ctx, 50 * 512, chain);
        // Write new content through asyncWrite.
        AgileBuf buf(mem);
        AgileBufPtr ptr(buf);
        ptr.as<std::uint64_t>()[0] = 0xbeef;
        co_await ctrl->asyncWrite(ctx, 0, 50, ptr, chain);
        // Cache must reflect the write immediately (coherency, §3.4).
        cached = co_await ctrl->arrayRead<std::uint64_t>(ctx, 50 * 512, chain);
        co_await ctrl->waitBuf(ctx, ptr);  // write durable
      }));
  // Verify flash content directly.
  std::byte page[nvme::kLbaBytes];
  ASSERT_TRUE(host->ssd(0).flash().readPage(50, page));
  std::memcpy(&direct, page, sizeof direct);
  EXPECT_EQ(cached, 0xbeefu);
  EXPECT_EQ(direct, 0xbeefu);
}

TEST_F(CtrlFixture, AsyncReadErrorSurfacesThroughWait) {
  build();
  host->ssd(0).injectFault(77);
  auto* mem = host->gpu().hbm().allocBytes(nvme::kLbaBytes);
  bool ok = true;
  ASSERT_TRUE(host->runKernel(
      {.gridDim = 1, .blockDim = 1, .name = "aerr"},
      [&](gpu::KernelCtx& ctx) -> gpu::GpuTask<void> {
        AgileLockChain chain;
        AgileBuf buf(mem);
        AgileBufPtr ptr(buf);
        co_await ctrl->asyncRead(ctx, 0, 77, ptr, chain);
        ok = co_await ctrl->waitBuf(ctx, ptr);
      }));
  EXPECT_FALSE(ok);
}

TEST_F(CtrlFixture, AsyncWriteWaitsOutInFlightFill) {
  // Write-after-write through the cache: an asyncWrite hitting a BUSY line
  // (fill in flight) must wait the fill out so the older I/O cannot clobber
  // the update (§3.4 coherency).
  build();
  auto* mem = host->gpu().hbm().allocBytes(nvme::kLbaBytes);
  std::uint64_t cached = 0;
  ASSERT_TRUE(host->runKernel(
      {.gridDim = 1, .blockDim = 1, .name = "waw-fill"},
      [&](gpu::KernelCtx& ctx) -> gpu::GpuTask<void> {
        AgileLockChain chain;
        // Line goes BUSY (fill in flight), then the write targets it.
        co_await ctrl->prefetch(ctx, 0, 13, chain);
        AgileBuf buf(mem);
        AgileBufPtr ptr(buf);
        ptr.as<std::uint64_t>()[0] = 0xd00d;
        co_await ctrl->asyncWrite(ctx, 0, 13, ptr, chain);
        co_await ctrl->waitBuf(ctx, ptr);
        // The cached copy must hold the new data, not the older fill's.
        cached = co_await ctrl->arrayRead<std::uint64_t>(ctx, 13 * 512, chain);
      }));
  EXPECT_EQ(cached, 0xd00du);
  std::byte page[nvme::kLbaBytes];
  ASSERT_TRUE(host->ssd(0).flash().readPage(13, page));
  std::uint64_t direct = 0;
  std::memcpy(&direct, page, sizeof direct);
  EXPECT_EQ(direct, 0xd00du);
}

TEST_F(CtrlFixture, AsyncWriteWaitsOutInFlightWriteback) {
  // The other wait-out flavor: the target line is BUSY *evicting* (its
  // writeback is on the wire). The second writer parks on freedWaiters and
  // must issue its SSD write only after the older write completed, so flash
  // ends with the newer data.
  build(/*cacheLines=*/1);
  auto* mem = host->gpu().hbm().allocBytes(nvme::kLbaBytes);
  std::uint64_t reread = 0;
  ASSERT_TRUE(host->runKernel(
      {.gridDim = 1, .blockDim = 2, .name = "waw-evict"},
      [&](gpu::KernelCtx& ctx) -> gpu::GpuTask<void> {
        AgileLockChain chain;
        if (ctx.threadIdx() == 0) {
          // Dirty page 5, then touch page 6: the single line starts a
          // writeback of page 5 and refills with page 6.
          co_await ctrl->arrayWrite<std::uint64_t>(ctx, 5 * 512, 0x01d, chain);
          (void)co_await ctrl->arrayRead<std::uint64_t>(ctx, 6 * 512, chain);
        } else {
          // Arrive while page 5's writeback is in flight (the fill takes
          // ~60 us, the writeback starts right after and takes ~20 us).
          co_await gpu::compute(ctx, 70000);
          AgileBuf buf(mem);
          AgileBufPtr ptr(buf);
          ptr.as<std::uint64_t>()[0] = 0x2e2;
          co_await ctrl->asyncWrite(ctx, 0, 5, ptr, chain);
          co_await ctrl->waitBuf(ctx, ptr);
          // Fresh fill from flash must observe the *newer* write.
          reread = co_await ctrl->arrayRead<std::uint64_t>(ctx, 5 * 512, chain);
        }
      }));
  EXPECT_EQ(reread, 0x2e2u);
  EXPECT_GE(host->ssd(0).writesCompleted(), 2u);
}

TEST_F(CtrlFixture, ArrayWriteWaitsOutBusyLineThenLands) {
  // arrayWrite's BUSY wait-out: a store to a page whose fill is in flight
  // parks on readyWaiters, then retries and lands in the READY line.
  build();
  std::uint64_t got = 0;
  ASSERT_TRUE(host->runKernel(
      {.gridDim = 1, .blockDim = 2, .name = "aw-busy"},
      [&](gpu::KernelCtx& ctx) -> gpu::GpuTask<void> {
        AgileLockChain chain;
        if (ctx.threadIdx() == 0) {
          // Divergent-safe flavor: no warp collective, so the two lanes can
          // take different paths. The line goes BUSY with the fill.
          co_await ctrl->prefetchDivergent(ctx, 0, 44, chain);
        } else {
          co_await gpu::compute(ctx, 500);
          // Store into the page while its fill is still in flight.
          co_await ctrl->arrayWrite<std::uint64_t>(ctx, 44 * 512 + 2,
                                                   0xabc, chain);
          got = co_await ctrl->arrayRead<std::uint64_t>(ctx, 44 * 512 + 2,
                                                        chain);
        }
      }));
  EXPECT_EQ(got, 0xabcu);
  EXPECT_EQ(host->ssd(0).readsCompleted(), 1u);  // the write rode the fill
}

TEST_F(CtrlFixture, ReadOrFillHitReturnsWord) {
  build();
  std::optional<std::uint64_t> got;
  ASSERT_TRUE(host->runKernel(
      {.gridDim = 1, .blockDim = 1, .name = "rof-hit"},
      [&](gpu::KernelCtx& ctx) -> gpu::GpuTask<void> {
        AgileLockChain chain;
        (void)co_await ctrl->arrayRead<std::uint64_t>(ctx, 9 * 512, chain);
        got = co_await ctrl->arrayReadOrFill<std::uint64_t>(ctx, 9 * 512 + 7,
                                                            chain);
      }));
  ASSERT_TRUE(got.has_value());
  EXPECT_EQ(*got, expectWord(9, 7));
  EXPECT_EQ(host->ssd(0).readsCompleted(), 1u);
}

TEST_F(CtrlFixture, ReadOrFillMissIssuesOneFill) {
  build();
  std::optional<std::uint64_t> got = 0;
  ASSERT_TRUE(host->runKernel(
      {.gridDim = 1, .blockDim = 1, .name = "rof-miss"},
      [&](gpu::KernelCtx& ctx) -> gpu::GpuTask<void> {
        AgileLockChain chain;
        got = co_await ctrl->arrayReadOrFill<std::uint64_t>(ctx, 9 * 512 + 7,
                                                            chain);
      }));
  EXPECT_FALSE(got.has_value());
  ASSERT_TRUE(host->drainIo());
  EXPECT_EQ(host->ssd(0).readsCompleted(), 1u);
  const std::uint32_t li = ctrl->cache().findLine(makeTag(0, 9));
  ASSERT_NE(li, DefaultCtrl::Cache::npos);
  EXPECT_EQ(ctrl->cache().line(li).state, LineState::kReady);
}

TEST_F(CtrlFixture, ReadOrFillBusyLineIssuesNoSecondRead) {
  build();
  std::optional<std::uint64_t> first = 0, second = 0;
  ASSERT_TRUE(host->runKernel(
      {.gridDim = 1, .blockDim = 1, .name = "rof-busy"},
      [&](gpu::KernelCtx& ctx) -> gpu::GpuTask<void> {
        AgileLockChain chain;
        first = co_await ctrl->arrayReadOrFill<std::uint64_t>(ctx, 9 * 512,
                                                              chain);
        // The fill is still in flight: the line is BUSY.
        second = co_await ctrl->arrayReadOrFill<std::uint64_t>(
            ctx, 9 * 512 + 1, chain);
      }));
  EXPECT_FALSE(first.has_value());
  EXPECT_FALSE(second.has_value());
  ASSERT_TRUE(host->drainIo());
  EXPECT_EQ(host->ssd(0).readsCompleted(), 1u);
  EXPECT_EQ(ctrl->cache().stats().misses, 1u);
  EXPECT_EQ(ctrl->cache().stats().busyHits, 1u);
}

TEST_F(CtrlFixture, ReadOrFillCoalescesOnePageToOneProbe) {
  build();
  ASSERT_TRUE(host->runKernel(
      {.gridDim = 1, .blockDim = 1, .name = "rof-warm"},
      [&](gpu::KernelCtx& ctx) -> gpu::GpuTask<void> {
        AgileLockChain chain;
        (void)co_await ctrl->arrayRead<std::uint64_t>(ctx, 4 * 512, chain);
      }));
  ctrl->resetStats();
  std::vector<std::optional<std::uint64_t>> got(32);
  ASSERT_TRUE(host->runKernel(
      {.gridDim = 1, .blockDim = 32, .name = "rof-warp"},
      [&](gpu::KernelCtx& ctx) -> gpu::GpuTask<void> {
        AgileLockChain chain;
        got[ctx.laneId()] = co_await ctrl->arrayReadOrFill<std::uint64_t>(
            ctx, 4 * 512 + ctx.laneId(), chain);
      }));
  for (std::uint32_t i = 0; i < 32; ++i) {
    ASSERT_TRUE(got[i].has_value()) << "lane " << i;
    EXPECT_EQ(*got[i], expectWord(4, i)) << "lane " << i;
  }
  const CacheStats cs = ctrl->cache().stats();
  EXPECT_EQ(cs.hits + cs.misses + cs.busyHits, 1u);
  EXPECT_EQ(ctrl->stats().prefetches, 32u);
  EXPECT_EQ(ctrl->stats().prefetchCoalesced, 31u);
  EXPECT_EQ(host->ssd(0).readsCompleted(), 1u);
}

TEST_F(CtrlFixture, ReadOrFillLineEvictedBeforePeerReadReturnsNothing) {
  // Two lines, one shard. Page 1 is READY in one line; a prefetch of page 2
  // on a 1 ms SSD holds the other BUSY. In one warp, lanes 0-1
  // read page 1 (lane 0 leads and probes a hit), lane 2 misses page 3 and
  // evicts page 1's line for its fill, and lane 3 misses page 4 with both
  // lines BUSY, so it stalls until page 3 lands and then claims that line.
  // Only then does the shuffle hand lane 0's line index to lane 1: the line
  // now holds page 3's data under page 4's tag.
  lastSsdReadNs = 1_ms;
  build(/*cacheLines=*/2, 2, 64, /*ssds=*/2);
  ASSERT_EQ(ctrl->cache().shardCount(), 1u);
  ASSERT_TRUE(host->runKernel(
      {.gridDim = 1, .blockDim = 1, .name = "rof-setup"},
      [&](gpu::KernelCtx& ctx) -> gpu::GpuTask<void> {
        AgileLockChain chain;
        (void)co_await ctrl->arrayRead<std::uint64_t>(ctx, 1 * 512, chain);
        co_await ctrl->prefetch(ctx, /*dev=*/1, 2, chain);
      }));
  std::vector<std::optional<std::uint64_t>> got(4);
  ASSERT_TRUE(host->runKernel(
      {.gridDim = 1, .blockDim = 4, .name = "rof-evict"},
      [&](gpu::KernelCtx& ctx) -> gpu::GpuTask<void> {
        AgileLockChain chain;
        const std::uint32_t lane = ctx.laneId();
        const std::uint64_t page = lane < 2 ? 1 : lane + 1;
        got[lane] = co_await ctrl->arrayReadOrFill<std::uint64_t>(
            ctx, page * 512 + lane, chain);
      }));
  for (std::uint32_t lane = 0; lane < 4; ++lane) {
    EXPECT_FALSE(got[lane].has_value()) << "lane " << lane;
    if (got[lane].has_value() && lane < 2) {
      EXPECT_EQ(*got[lane], expectWord(1, lane)) << "wrong word, lane " << lane;
    }
  }
  ASSERT_TRUE(host->drainIo());
}

TEST_F(CtrlFixture, StalledClaimantFindingPagePresentHandsOnAdmission) {
  // One line, BUSY with page 1's fill. Lanes 0 and 1 want page 2 and lane 2
  // page 3; all three stall, in lane order. Page 1 landing admits lane 0,
  // which claims the line for page 2; page 2 landing admits lane 1, which
  // finds its page READY and takes no line. Unless lane 1 hands the
  // admission on, lane 2 sleeps beside a READY line until the watchdog.
  build(/*cacheLines=*/1, 2, 64, 1, /*kernelTimeout=*/10_ms);
  ASSERT_TRUE(host->runKernel(
      {.gridDim = 1, .blockDim = 1, .name = "stall-setup"},
      [&](gpu::KernelCtx& ctx) -> gpu::GpuTask<void> {
        AgileLockChain chain;
        co_await ctrl->prefetch(ctx, 0, 1, chain);
      }));
  ASSERT_TRUE(host->runKernel(
      {.gridDim = 1, .blockDim = 3, .name = "stall-admit"},
      [&](gpu::KernelCtx& ctx) -> gpu::GpuTask<void> {
        AgileLockChain chain;
        co_await ctrl->prefetchDivergent(ctx, 0, ctx.laneId() < 2 ? 2 : 3,
                                         chain);
      }));
  ASSERT_TRUE(host->drainIo());
  EXPECT_EQ(host->ssd(0).readsCompleted(), 3u);
  EXPECT_EQ(ctrl->stats().prefetchDropped, 0u);
}

TEST_F(CtrlFixture, ElemAddrMatchesArrayMapping) {
  // The shared element->LBA helper must agree with the array API's own
  // mapping: a page prefetched via elemAddr makes the element read a pure
  // cache hit (single fill), including for elements deep inside a page.
  build();
  std::uint64_t got = 0;
  ASSERT_TRUE(host->runKernel(
      {.gridDim = 1, .blockDim = 1, .name = "elemaddr"},
      [&](gpu::KernelCtx& ctx) -> gpu::GpuTask<void> {
        AgileLockChain chain;
        const std::uint64_t idx = 9 * 512 + 317;  // word 317 of page 9
        const ElemAddr at = elemAddr<std::uint64_t>(idx);
        co_await ctrl->prefetch(ctx, 0, at.lba, chain);
        got = co_await ctrl->arrayRead<std::uint64_t>(ctx, idx, chain);
      }));
  EXPECT_EQ(got, nvme::FlashStore::patternWord(9, 317));
  EXPECT_EQ(host->ssd(0).readsCompleted(), 1u);  // read coalesced on prefetch
  static_assert(elemAddr<std::uint64_t>(9 * 512 + 317).lba == 9);
  static_assert(elemAddr<std::uint64_t>(9 * 512 + 317).byteOff == 317 * 8);
  static_assert(elemAddr<std::uint32_t>(1024).lba == 1);
  static_assert(elemAddr<float>(5).byteOff == 20);
}

TEST_F(CtrlFixture, SnapshotAndResetStats) {
  build();
  ASSERT_TRUE(host->runKernel(
      {.gridDim = 1, .blockDim = 1, .name = "snap"},
      [&](gpu::KernelCtx& ctx) -> gpu::GpuTask<void> {
        AgileLockChain chain;
        (void)co_await ctrl->arrayRead<std::uint64_t>(ctx, 3, chain);
        co_await ctrl->prefetch(ctx, 0, 8, chain);
      }));
  ASSERT_TRUE(host->drainIo());
  const CtrlSnapshot snap = ctrl->snapshot();
  EXPECT_EQ(snap.ctrl.arrayReads, 1u);
  EXPECT_EQ(snap.ctrl.prefetches, 1u);
  EXPECT_GT(snap.cache.misses, 0u);
  ctrl->resetStats();
  EXPECT_EQ(ctrl->stats().arrayReads, 0u);
  EXPECT_EQ(ctrl->cache().stats().misses, 0u);
  // The snapshot is an independent copy, untouched by the reset.
  EXPECT_EQ(snap.ctrl.arrayReads, 1u);
}

TEST_F(CtrlFixture, ManyThreadsManyPagesComplete) {
  build(/*cacheLines=*/32, /*qps=*/2, /*depth=*/64);
  int done = 0;
  ASSERT_TRUE(host->runKernel(
      {.gridDim = 4, .blockDim = 64, .name = "storm"},
      [&](gpu::KernelCtx& ctx) -> gpu::GpuTask<void> {
        AgileLockChain chain;
        const auto tid = ctx.globalThreadIdx();
        std::uint64_t sum = 0;
        for (int i = 0; i < 4; ++i) {
          sum += co_await ctrl->arrayRead<std::uint64_t>(
              ctx, (tid * 7 + i * 131) % 4096, chain);
        }
        (void)sum;
        ++done;
      }));
  EXPECT_EQ(done, 256);
  EXPECT_EQ(host->pendingTransactions(), 0u);
}

TEST_F(CtrlFixture, MultiSsdInterleaving) {
  stripe = {3, 1, 0};
  build(/*cacheLines=*/64, /*qps=*/2, /*depth=*/64, /*ssds=*/3);
  bool ok = true;
  ASSERT_TRUE(host->runKernel(
      {.gridDim = 1, .blockDim = 96, .name = "multidev"},
      [&](gpu::KernelCtx& ctx) -> gpu::GpuTask<void> {
        AgileLockChain chain;
        // Logical page 3 * page + dev lands on SSD dev at LBA page.
        const std::uint32_t dev = ctx.globalThreadIdx() % 3;
        const std::uint64_t page = ctx.globalThreadIdx() / 3 + 1;
        const auto v = co_await ctrl->arrayRead<std::uint64_t>(
            ctx, (3 * page + dev) * 512, chain);
        ok &= v == nvme::FlashStore::patternWord(page, 0);
      }));
  EXPECT_TRUE(ok);
  for (std::uint32_t d = 0; d < 3; ++d) {
    EXPECT_GT(host->ssd(d).readsCompleted(), 0u) << "ssd " << d;
  }
}

}  // namespace
}  // namespace agile::core
