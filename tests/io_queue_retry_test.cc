// Tests for the robustness subsystem: the seeded device-side fault injector
// (transient retryable errors, swallowed completions, latency storms) and
// the host-side bounded retry / backoff / failover tier layered on the
// per-command I/O watchdog — including the interactions the design hinges
// on: admin aborts making re-issue DMA-safe, cache fill frames staying BUSY
// across attempts, write staging pages pinned until the final settle, and
// queue-pair quarantine/cooldown transitions.
#include <gtest/gtest.h>

#include <cstring>
#include <vector>

#include "core/ctrl.h"
#include "core/host.h"
#include "nvme/flash_store.h"
#include "sq_issue.h"

namespace agile::core {
namespace {

struct RetryFixture : ::testing::Test {
  std::unique_ptr<AgileHost> host;
  std::unique_ptr<DefaultCtrl> ctrl;

  struct BuildOpts {
    nvme::FaultPlan fault;
    RetryPolicy retry;
    SimTime ioTimeoutNs = 0;
    std::uint32_t qps = 2;
    std::uint32_t depth = 64;
    SimTime readLatencyNs = 0;
    bool startService = true;
    std::uint32_t cacheLines = 64;
    std::uint32_t stagingPages = 8;
    qos::QosConfig qos;
    SimTime kernelTimeout = HostConfig{}.kernelTimeout;
  };

  void build(const BuildOpts& o) {
    HostConfig cfg;
    cfg.queuePairsPerSsd = o.qps;
    cfg.queueDepth = o.depth;
    cfg.stagingPages = o.stagingPages;
    cfg.ioTimeoutNs = o.ioTimeoutNs;
    cfg.retry = o.retry;
    cfg.qos = o.qos;
    cfg.kernelTimeout = o.kernelTimeout;
    host = std::make_unique<AgileHost>(cfg);
    nvme::SsdConfig ssd;
    ssd.capacityLbas = 1u << 16;
    ssd.fault = o.fault;
    if (o.readLatencyNs != 0) ssd.readLatencyNs = o.readLatencyNs;
    host->addNvmeDev(ssd);
    host->initNvme();
    if (o.startService) {
      ctrl = std::make_unique<DefaultCtrl>(
          *host, CtrlConfig{.cacheLines = o.cacheLines});
      host->startAgile();
    }
  }

  void TearDown() override {
    if (host && host->serviceRunning()) host->stopAgile();
  }

  nvme::Sqe readCmd(std::uint64_t lba, std::byte* mem) {
    nvme::Sqe cmd;
    cmd.opcode = static_cast<std::uint8_t>(nvme::Opcode::kRead);
    cmd.slba = lba;
    cmd.prp1 = host->gpu().hbm().physAddr(mem);
    return cmd;
  }

  // Manual CQ drain for service-less tests: consume posted CQEs exactly as
  // an Algorithm-1 lane would, including the head doorbell write.
  std::uint32_t drainCq(std::uint32_t qp) {
    AgileCq& cq = *host->queuePairs().cqs[qp];
    AgileSq& sq = *host->queuePairs().sqs[qp];
    std::uint32_t n = 0;
    for (;;) {
      const nvme::Cqe cqe = cq.ring[cq.head];
      if (cqe.phase() != cq.phase) break;
      applyCompletion(host->engine(), sq, cqe.cid, cqe.status());
      cq.head = (cq.head + 1) % cq.depth;
      if (cq.head == 0) cq.phase = !cq.phase;
      ++n;
    }
    if (n != 0) cq.ssd->writeCqDoorbell(cq.qid, cq.head);
    return n;
  }

  // Index of the cache line currently mapped to (dev 0, lba), or kNoSlot.
  std::uint32_t findLine(std::uint64_t lba, std::uint32_t cacheLines) {
    const std::uint64_t tag = makeTag(0, lba);
    for (std::uint32_t i = 0; i < cacheLines; ++i) {
      if (ctrl->cache().line(i).tag == tag) return i;
    }
    return kNoSlot;
  }
};

// Same plan, same seed: the injector's per-command decision stream and the
// storm/brownout schedule are identical across instances, and extraLatency
// is a pure function of (time, qid) — independent of query order.
TEST_F(RetryFixture, FaultInjectorIsDeterministic) {
  nvme::FaultPlan plan;
  plan.enabled = true;
  plan.seed = 1234;
  plan.readErrorRate = 0.2;
  plan.writeErrorRate = 0.1;
  plan.dropRate = 0.05;
  plan.gcPauseIntervalNs = 100'000;
  plan.gcPauseDurationNs = 10'000;
  plan.brownoutStride = 2;
  plan.brownoutPeriodNs = 50'000;
  plan.brownoutDurationNs = 5'000;
  plan.brownoutExtraNs = 2'000;

  nvme::FaultInjector a(plan);
  nvme::FaultInjector b(plan);
  for (int i = 0; i < 200; ++i) {
    EXPECT_EQ(a.shouldDrop(), b.shouldDrop());
    EXPECT_EQ(a.adjudicate(i % 2 == 0), b.adjudicate(i % 2 == 0));
  }
  // Pure-function storm schedule: query in opposite orders.
  const SimTime t1 = a.extraLatency(123'456, 1);
  const SimTime t2 = a.extraLatency(99'000, 2);
  EXPECT_EQ(b.extraLatency(99'000, 2), t2);
  EXPECT_EQ(b.extraLatency(123'456, 1), t1);
  // A GC pause window exists somewhere in the first few intervals.
  bool sawPause = false;
  for (SimTime t = 0; t < 500'000; t += 1'000) {
    if (a.extraLatency(t, 1) > 0) sawPause = true;
  }
  EXPECT_TRUE(sawPause);
}

// Transient retryable read errors at a 25% rate: with the retry tier on,
// every arrayRead still returns correct data — failed fills are re-issued
// with backoff while the cache line stays BUSY — and the health stats show
// rescues but no aborts.
TEST_F(RetryFixture, RetryRescuesTransientReadErrors) {
  BuildOpts o;
  o.fault.enabled = true;
  o.fault.seed = 42;
  o.fault.readErrorRate = 0.25;
  o.retry.maxAttempts = 10;
  o.retry.backoffBaseNs = 10'000;
  build(o);

  constexpr std::uint32_t kReads = 64;
  std::vector<std::uint64_t> got(kReads, 0);
  ASSERT_TRUE(host->runKernel(
      {.gridDim = 1, .blockDim = kReads, .name = "retry-reads"},
      [&](gpu::KernelCtx& ctx) -> gpu::GpuTask<void> {
        AgileLockChain chain;
        const std::uint32_t tid = ctx.globalThreadIdx();
        // One distinct page per thread (512 u64 words per 4K page).
        got[tid] = co_await ctrl->arrayRead<std::uint64_t>(
            ctx, static_cast<std::uint64_t>(tid) * 512, chain);
      }));
  ASSERT_TRUE(host->drainIo());

  for (std::uint32_t i = 0; i < kReads; ++i) {
    EXPECT_EQ(got[i], nvme::FlashStore::patternWord(i, 0)) << "lba " << i;
  }
  const IoHealthStats h = host->ioHealth();
  EXPECT_GT(h.retries, 0u);
  EXPECT_GT(h.rescued, 0u);
  EXPECT_EQ(h.aborted, 0u);
  EXPECT_EQ(h.pendingRetries, 0u);
  EXPECT_GT(host->ssd(0).injectedErrors(), 0u);
  EXPECT_EQ(host->pendingTransactions(), 0u);
  EXPECT_EQ(ctrl->stats().exhaustedRetries, 0u);
}

// Retries off (maxAttempts == 0) is the retry tier with no budget, not a
// second expiry path: a cache fill whose completion the device swallows is
// admin-aborted at the watchdog deadline and its line released, so the
// reader re-probes and refetches instead of parking on a BUSY line until
// the kernel timeout.
TEST_F(RetryFixture, SwallowedFillWithRetriesOffDoesNotWedge) {
  BuildOpts o;
  o.fault.enabled = true;
  o.fault.seed = 5;
  o.fault.dropRate = 0.2;
  o.ioTimeoutNs = 200'000;
  o.kernelTimeout = 50'000'000;  // 50 ms, ~50x the expected makespan
  build(o);
  ASSERT_EQ(host->config().retry.maxAttempts, 0u);

  constexpr std::uint32_t kReads = 32;
  std::vector<std::uint64_t> got(kReads, 0);
  ASSERT_TRUE(host->runKernel(
      {.gridDim = 1, .blockDim = kReads, .name = "swallowed-fills"},
      [&](gpu::KernelCtx& ctx) -> gpu::GpuTask<void> {
        AgileLockChain chain;
        const std::uint32_t tid = ctx.globalThreadIdx();
        got[tid] = co_await ctrl->arrayRead<std::uint64_t>(
            ctx, static_cast<std::uint64_t>(tid) * 512, chain);
      }));
  ASSERT_TRUE(host->drainIo());

  EXPECT_GT(host->ssd(0).droppedCompletions(), 0u);
  EXPECT_EQ(ctrl->cache().busyLines(), 0u);
  for (std::uint32_t i = 0; i < kReads; ++i) {
    EXPECT_EQ(got[i], nvme::FlashStore::patternWord(i, 0)) << "lba " << i;
  }
  const IoHealthStats h = host->ioHealth();
  EXPECT_EQ(h.retries, 0u);
  EXPECT_EQ(h.aborted, host->ssd(0).droppedCompletions());
  EXPECT_EQ(h.watchdogTimeouts, h.aborted);
  EXPECT_EQ(h.parkedSlots, 0u);
  EXPECT_EQ(host->pendingTransactions(), 0u);
}

// A watchdog expiry whose original completion is already posted (but not
// yet consumed) gets AbortResult::kMissing: the CID parks as kTimedOut, the
// retry re-issues after backoff, and the late original is reclaimed without
// settling the transaction a second time — the barrier completes exactly
// once, from the retry attempt.
TEST_F(RetryFixture, LateOriginalCompletionMidBackoff) {
  BuildOpts o;
  o.retry.maxAttempts = 2;
  o.retry.backoffBaseNs = 200'000;  // reissue at ~700us
  o.retry.quarantineAfter = 0;
  o.ioTimeoutNs = 500'000;    // watchdog at 500us...
  o.readLatencyNs = 100'000;  // ...but the device answered at ~100us
  o.qps = 1;
  o.startService = false;  // nobody drains the CQ until we do
  build(o);

  auto* mem = host->gpu().hbm().allocBytes(nvme::kLbaBytes);
  AgileBuf buf(mem);
  Transaction txn;
  txn.kind = TxnKind::kBufRead;
  txn.buf = &buf;
  buf.barrier().addPending();
  ASSERT_TRUE(hostIssueOn(host->queuePairs(), 0, host->engine().now(),
                          readCmd(21, mem), txn));

  // Run past the watchdog but not up to the re-issue: mid-backoff.
  host->engine().runFor(host->engine().now() + 600'000);
  EXPECT_EQ(host->ssd(0).abortsHonored(), 0u);  // kMissing, not kAborted
  IoHealthStats h = host->ioHealth();
  EXPECT_EQ(h.retries, 1u);
  EXPECT_EQ(h.parkedSlots, 1u);
  EXPECT_EQ(h.pendingRetries, 1u);
  EXPECT_EQ(host->pendingTransactions(), 1u);
  EXPECT_EQ(buf.barrier().pending(), 1u);  // the retry carries the barrier

  // Let the re-issue land and the device answer it (t ~= 800us), then drain
  // before the retry's own watchdog would fire at 1.2ms: the parked
  // original reclaims its CID silently, the retry settles the barrier.
  host->engine().runFor(host->engine().now() + 300'000);
  EXPECT_EQ(drainCq(0), 2u);
  EXPECT_TRUE(buf.barrier().ready());
  EXPECT_FALSE(buf.barrier().failed());
  std::byte expect[nvme::kLbaBytes];
  nvme::FlashStore::defaultPattern(21, expect);
  EXPECT_EQ(std::memcmp(mem, expect, nvme::kLbaBytes), 0);
  h = host->ioHealth();
  EXPECT_EQ(h.rescued, 1u);
  EXPECT_EQ(h.parkedSlots, 0u);
  EXPECT_EQ(h.aborted, 0u);
  EXPECT_EQ(host->pendingTransactions(), 0u);
}

// A cache fill that fails with a retryable error keeps its frame BUSY and
// tag-mapped across the backoff window (the retry re-issues into the same
// frame; parked readers keep waiting), and the eventual success fills it
// with correct data.
TEST_F(RetryFixture, CacheFillRetryKeepsLineBusy) {
  BuildOpts o;
  o.retry.maxAttempts = 4;
  o.retry.backoffBaseNs = 200'000;
  o.cacheLines = 8;
  build(o);
  host->ssd(0).injectFault(42);  // every read of LBA 42 fails until cleared

  std::uint64_t got = 0;
  auto k = host->launchKernel(
      {.gridDim = 1, .blockDim = 1, .name = "busy-fill"},
      [&](gpu::KernelCtx& ctx) -> gpu::GpuTask<void> {
        AgileLockChain chain;
        got = co_await ctrl->arrayRead<std::uint64_t>(ctx, 42 * 512, chain);
      });
  ASSERT_TRUE(host->engine().runUntil(
      [&] { return host->ioHealth().retries >= 1; }));

  // Mid-backoff: the frame is still BUSY and mapped to the tag.
  const std::uint32_t line = findLine(42, 8);
  ASSERT_NE(line, kNoSlot);
  EXPECT_EQ(ctrl->cache().line(line).state, LineState::kBusy);
  EXPECT_EQ(host->ioHealth().pendingRetries, 1u);

  host->ssd(0).clearInjectedFaults();
  ASSERT_TRUE(host->wait(k));
  EXPECT_EQ(got, nvme::FlashStore::patternWord(42, 0));
  EXPECT_EQ(ctrl->cache().line(line).state, LineState::kReady);
  EXPECT_EQ(host->ioHealth().rescued, 1u);
  EXPECT_EQ(host->ioHealth().aborted, 0u);
}

// Swallowed write completions: the staging page stays pinned across the
// watchdog expiry, the failover re-issue, and the second expiry; it returns
// to the pool only when the exhausted transaction settles. The caller's
// barrier reports the failure (kCommandAborted) instead of the host
// crashing or leaking the page.
TEST_F(RetryFixture, WriteStagingPinnedAcrossFailoverUntilExhaustion) {
  BuildOpts o;
  o.fault.enabled = true;
  o.fault.seed = 7;
  o.fault.dropRate = 1.0;  // the device never answers anything
  o.retry.maxAttempts = 1;
  o.retry.backoffBaseNs = 100'000;
  o.retry.quarantineAfter = 0;
  o.ioTimeoutNs = 500'000;
  o.stagingPages = 8;
  build(o);

  bool writeOk = true;
  auto* mem = host->gpu().hbm().allocBytes(nvme::kLbaBytes);
  auto k = host->launchKernel(
      {.gridDim = 1, .blockDim = 1, .name = "doomed-write"},
      [&](gpu::KernelCtx& ctx) -> gpu::GpuTask<void> {
        AgileLockChain chain;
        AgileBuf buf(mem);
        AgileBufPtr ptr(buf);
        ptr.as<std::uint64_t>()[0] = 0xdeadd00d;
        co_await ctrl->asyncWrite(ctx, 0, 5, ptr, chain);
        writeOk = co_await ctrl->waitBuf(ctx, ptr);
      });

  // After the first expiry the command is between attempts (failing over),
  // and its staging page is still checked out.
  ASSERT_TRUE(host->engine().runUntil(
      [&] { return host->ioHealth().retries >= 1; }));
  EXPECT_EQ(host->staging().available(), 7u);
  EXPECT_EQ(host->ioHealth().aborted, 0u);

  ASSERT_TRUE(host->wait(k));
  EXPECT_FALSE(writeOk);
  const IoHealthStats h = host->ioHealth();
  EXPECT_EQ(h.retries, 1u);
  EXPECT_EQ(h.failovers, 1u);
  EXPECT_EQ(h.aborted, 1u);
  EXPECT_EQ(h.rescued, 0u);
  EXPECT_EQ(h.parkedSlots, 0u);  // kLost frees the CID immediately
  EXPECT_EQ(host->staging().available(), 8u);  // recycled at the settle
  EXPECT_EQ(host->ssd(0).droppedCompletions(), 2u);
  EXPECT_EQ(host->pendingTransactions(), 0u);
  ASSERT_TRUE(host->drainIo());
}

// Consecutive watchdog timeouts quarantine the queue pair; retries fail
// over to the healthy sibling; after the cooldown the next probe lifts the
// quarantine and counts as the re-probe.
TEST_F(RetryFixture, QuarantineAndCooldownTransitions) {
  BuildOpts o;
  o.fault.enabled = true;
  o.fault.seed = 9;
  o.fault.dropRate = 1.0;
  o.retry.maxAttempts = 1;
  o.retry.backoffBaseNs = 100'000;
  o.retry.quarantineAfter = 2;
  o.retry.quarantineCooldownNs = 1'000'000;
  o.ioTimeoutNs = 200'000;
  o.startService = false;  // no CQEs will ever arrive anyway
  build(o);

  auto* mem = host->gpu().hbm().allocBytes(2 * nvme::kLbaBytes);
  AgileBuf bufA(mem);
  AgileBuf bufB(mem + nvme::kLbaBytes);
  AgileSq& sq0 = *host->queuePairs().sqs[0];
  for (AgileBuf* b : {&bufA, &bufB}) {
    Transaction txn;
    txn.kind = TxnKind::kBufRead;
    txn.buf = b;
    b->barrier().addPending();
    ASSERT_TRUE(hostIssueOn(host->queuePairs(), 0, host->engine().now(),
                            readCmd(b == &bufA ? 3 : 4, b->data()), txn));
  }

  // Two expiries on QP0 -> quarantine; the retries fail over to QP1, are
  // swallowed again, and exhaust — QP1 collects two strikes of its own.
  host->engine().runFor(host->engine().now() + 2'000'000);
  const IoHealthStats h = host->ioHealth();
  EXPECT_EQ(h.quarantines, 2u);
  EXPECT_EQ(h.retries, 2u);
  EXPECT_EQ(h.failovers, 2u);
  EXPECT_EQ(h.aborted, 2u);
  EXPECT_TRUE(bufA.barrier().ready());
  EXPECT_TRUE(bufA.barrier().failed());
  EXPECT_EQ(bufA.barrier().lastStatus(), nvme::Status::kCommandAborted);
  EXPECT_TRUE(bufB.barrier().failed());
  EXPECT_EQ(host->pendingTransactions(), 0u);

  // Past the cooldown the QPs stop counting as quarantined, and the next
  // selection probe lifts the state and records the re-probe.
  EXPECT_EQ(host->ioHealth().quarantinedQps, 0u);
  EXPECT_FALSE(qpQuarantined(sq0, host->engine().now()));
  EXPECT_EQ(host->ioHealth().cooldownProbes, 1u);
  EXPECT_EQ(sq0.quarantinedUntil, 0u);
  // A fresh timeout on a lifted QP re-quarantines immediately (the strike
  // count survives the cooldown; only a success clears it).
  EXPECT_EQ(sq0.consecTimeouts, 2u);
}

// A batch prefetch whose fill is mid-retry polls kPending, and its token
// completes exactly once, from the attempt that finally succeeds.
TEST_F(RetryFixture, BatchPrefetchCompletesOnceFromRescuedRetry) {
  BuildOpts o;
  o.retry.maxAttempts = 4;
  o.retry.backoffBaseNs = 300'000;
  o.cacheLines = 8;
  build(o);
  host->ssd(0).injectFault(7);

  IoBatch batch;
  batch.addPrefetch(0, 7);
  IoToken tok;
  ASSERT_TRUE(host->runKernel(
      {.gridDim = 1, .blockDim = 1, .name = "pf-submit"},
      [&](gpu::KernelCtx& ctx) -> gpu::GpuTask<void> {
        AgileLockChain chain;
        tok = co_await ctrl->submitBatch(ctx, batch, chain);
      }));
  ASSERT_TRUE(host->engine().runUntil(
      [&] { return host->ioHealth().retries >= 1; }));
  host->ssd(0).clearInjectedFaults();

  IoStatus midRetry = IoStatus::kRetired;
  bool ok = false;
  ASSERT_TRUE(host->runKernel(
      {.gridDim = 1, .blockDim = 1, .name = "pf-wait"},
      [&](gpu::KernelCtx& ctx) -> gpu::GpuTask<void> {
        midRetry = ctrl->poll(ctx, tok);
        ok = co_await ctrl->wait(ctx, tok);
      }));
  EXPECT_EQ(midRetry, IoStatus::kPending);
  EXPECT_TRUE(ok);
  EXPECT_EQ(host->ioHealth().rescued, 1u);
  EXPECT_EQ(ctrl->tokens().liveOps(), 0u);
  // The rescued fill is a normal READY line serving hits.
  const std::uint32_t line = findLine(7, 8);
  ASSERT_NE(line, kNoSlot);
  EXPECT_EQ(ctrl->cache().line(line).state, LineState::kReady);
}

// Under active WFQ, lanes that find the SQ full park on their tenant's WFQ
// list, so every slot release must go through WFQ arbitration, including
// the retry tier's watchdog-expiry frees. With every completion swallowed
// those frees are the only ones: all lanes must still finish, with their
// aborts reported, long before the kernel timeout.
TEST_F(RetryFixture, WatchdogFreesWakeWfqParkedLanes) {
  BuildOpts o;
  o.fault.enabled = true;
  o.fault.seed = 11;
  o.fault.dropRate = 1.0;  // the device never answers anything
  o.retry.maxAttempts = 1;
  o.retry.backoffBaseNs = 100'000;
  o.retry.quarantineAfter = 0;
  o.ioTimeoutNs = 200'000;
  o.qps = 1;
  o.depth = 8;  // 7 usable slots for 32 lanes
  o.qos.enabled = true;
  o.qos.tenants.push_back({"heavy", 4.0});
  o.qos.tenants.push_back({"light", 1.0});
  o.kernelTimeout = 50'000'000;  // 50 ms, ~20x the expected makespan
  build(o);
  ASSERT_TRUE(host->qosManager()->wfqActive());

  constexpr std::uint32_t kLanes = 32;
  auto* mem = host->gpu().hbm().allocBytes(kLanes * nvme::kLbaBytes);
  std::uint32_t finished = 0;
  std::uint32_t failed = 0;
  ASSERT_TRUE(host->runKernel(
      {.gridDim = 1, .blockDim = kLanes, .name = "wfq-aborts"},
      [&](gpu::KernelCtx& ctx) -> gpu::GpuTask<void> {
        AgileLockChain chain;
        const std::uint32_t tid = ctx.globalThreadIdx();
        const qos::TenantId tenant{static_cast<std::uint16_t>(tid % 2)};
        AgileBuf buf(mem + tid * nvme::kLbaBytes);
        AgileBufPtr ptr(buf);
        co_await ctrl->asyncRead(ctx, 0, tid, ptr, chain, tenant);
        const bool ok = co_await ctrl->waitBuf(ctx, ptr);
        if (!ok) ++failed;
        ++finished;
      }));
  EXPECT_EQ(finished, kLanes);
  EXPECT_EQ(failed, kLanes);
  const IoHealthStats h = host->ioHealth();
  EXPECT_EQ(h.retries, kLanes);
  EXPECT_EQ(h.aborted, kLanes);
  EXPECT_EQ(h.pendingRetries, 0u);
  EXPECT_EQ(host->pendingTransactions(), 0u);
}

// GC-pause storms only stretch latency: everything still completes, and a
// stormy run takes strictly longer than a calm one.
TEST_F(RetryFixture, GcPauseStormStretchesLatencyWithoutLosses) {
  auto run = [&](bool storm) {
    BuildOpts o;
    if (storm) {
      o.fault.enabled = true;
      o.fault.seed = 77;
      // Short interval => the first window's jittered start (< interval/4)
      // lands inside the read burst; the long pause then delays most of it.
      o.fault.gcPauseIntervalNs = 50'000;
      o.fault.gcPauseDurationNs = 100'000;
    }
    build(o);
    constexpr std::uint32_t kReads = 32;
    EXPECT_TRUE(host->runKernel(
        {.gridDim = 1, .blockDim = kReads, .name = "storm-reads"},
        [&](gpu::KernelCtx& ctx) -> gpu::GpuTask<void> {
          AgileLockChain chain;
          const std::uint32_t tid = ctx.globalThreadIdx();
          const std::uint64_t v = co_await ctrl->arrayRead<std::uint64_t>(
              ctx, static_cast<std::uint64_t>(tid) * 512, chain);
          EXPECT_EQ(v, nvme::FlashStore::patternWord(tid, 0));
        }));
    EXPECT_TRUE(host->drainIo());
    const SimTime t = host->engine().now();
    if (host->serviceRunning()) host->stopAgile();
    host.reset();
    ctrl.reset();
    return t;
  };
  const SimTime calm = run(false);
  const SimTime stormy = run(true);
  EXPECT_GT(stormy, calm);
}

}  // namespace
}  // namespace agile::core
