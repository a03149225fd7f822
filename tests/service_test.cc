// Tests for the AGILE service (Algorithm 1): warp-centric window semantics,
// CQ doorbell cadence, phase-bit survival across ring laps, multi-warp CQ
// partitioning, and lifecycle.
#include <gtest/gtest.h>

#include "core/ctrl.h"
#include "core/host.h"
#include "sq_issue.h"

namespace agile::core {
namespace {

struct ServiceFixture : ::testing::Test {
  std::unique_ptr<AgileHost> host;

  void build(std::uint32_t qps, std::uint32_t depth,
             std::uint32_t serviceWarps = 2, SimTime ioTimeoutNs = 0,
             SimTime readLatencyNs = 0) {
    HostConfig cfg;
    cfg.queuePairsPerSsd = qps;
    cfg.queueDepth = depth;
    cfg.service.warps = serviceWarps;
    cfg.ioTimeoutNs = ioTimeoutNs;
    host = std::make_unique<AgileHost>(cfg);
    nvme::SsdConfig ssd;
    ssd.capacityLbas = 1u << 16;
    if (readLatencyNs != 0) ssd.readLatencyNs = readLatencyNs;
    host->addNvmeDev(ssd);
    host->initNvme();
    host->startAgile();
  }

  void TearDown() override {
    if (host && host->serviceRunning()) host->stopAgile();
  }

  // Let the service run a few poll rounds past the last app kernel (window
  // advance and CQ doorbells happen on the round after the final
  // completion is consumed).
  void settle() { host->engine().runFor(host->engine().now() + 500_us); }

  // Issue `n` reads from `threads` GPU threads and wait for all of them.
  void traffic(std::uint32_t n) {
    auto* mem = host->gpu().hbm().allocBytes(nvme::kLbaBytes);
    const bool ok = host->runKernel(
        {.gridDim = std::max(1u, n / 64), .blockDim = std::min(n, 64u),
         .name = "traffic"},
        [&, n](gpu::KernelCtx& ctx) -> gpu::GpuTask<void> {
          AgileLockChain chain;
          if (ctx.globalThreadIdx() >= n) co_return;
          AgileBuf tmp(mem);
          nvme::Sqe cmd;
          cmd.opcode = static_cast<std::uint8_t>(nvme::Opcode::kRead);
          cmd.slba = ctx.globalThreadIdx() % 512;
          cmd.prp1 = host->gpu().hbm().physAddr(mem);
          Transaction txn;
          txn.kind = TxnKind::kBufRead;
          txn.buf = &tmp;
          tmp.barrier().addPending();
          const std::uint32_t qp =
              ctx.globalThreadIdx() % host->queuePairs().count();
          co_await laneIssueOn(ctx, host->queuePairs(), qp, cmd, txn, chain);
          co_await barrierWait(ctx, tmp.barrier());
        });
    ASSERT_TRUE(ok);
  }
};

// --- per-command I/O watchdog (HostConfig::ioTimeoutNs) -------------------

// Healthy traffic with the watchdog armed: every command's timer is
// cancelled by its completion; nothing times out, and the timers ride the
// wheel's O(1) cancel path.
TEST_F(ServiceFixture, WatchdogCancelledOnCompletion) {
  build(2, 64, 2, /*ioTimeoutNs=*/100_ms);
  const std::uint64_t cancelledBefore = host->engine().cancelledEvents();
  traffic(128);
  settle();
  EXPECT_EQ(host->ioTimeouts(), 0u);
  EXPECT_EQ(host->service().stats().completions, 128u);
  // One armed-and-cancelled watchdog per command.
  EXPECT_GE(host->engine().cancelledEvents() - cancelledBefore, 128u);
  EXPECT_EQ(host->pendingTransactions(), 0u);
}

// A command that exceeds the timeout is admin-aborted by the watchdog
// (retries are off by default: the attempt budget is 0). The caller errors
// at the deadline, the device drops the command, and the slot is free at
// once — nothing is parked awaiting a late answer.
TEST_F(ServiceFixture, WatchdogErrorsSlowCommand) {
  // 5 ms device latency vs a 500 us timeout: every command times out first.
  build(1, 64, 2, /*ioTimeoutNs=*/500_us, /*readLatencyNs=*/5_ms);
  auto* mem = host->gpu().hbm().allocBytes(nvme::kLbaBytes);
  bool readOk = true;
  SimTime erroredAt = 0;
  const bool ok = host->runKernel(
      {.gridDim = 1, .blockDim = 1, .name = "slow-read"},
      [&](gpu::KernelCtx& ctx) -> gpu::GpuTask<void> {
        AgileLockChain chain;
        AgileBuf tmp(mem);
        nvme::Sqe cmd;
        cmd.opcode = static_cast<std::uint8_t>(nvme::Opcode::kRead);
        cmd.slba = 7;
        cmd.prp1 = host->gpu().hbm().physAddr(mem);
        Transaction txn;
        txn.kind = TxnKind::kBufRead;
        txn.buf = &tmp;
        tmp.barrier().addPending();
        co_await laneIssueOn(ctx, host->queuePairs(), 0, cmd, txn, chain);
        readOk = co_await barrierWait(ctx, tmp.barrier());
        erroredAt = ctx.now();
      });
  ASSERT_TRUE(ok);
  EXPECT_FALSE(readOk);  // errored by the watchdog, not the device
  EXPECT_LT(erroredAt, 1_ms);
  EXPECT_EQ(host->ioTimeouts(), 1u);
  EXPECT_EQ(host->ssd(0).abortsHonored(), 1u);  // kAborted: dead on device
  const IoHealthStats h = host->ioHealth();
  EXPECT_EQ(h.aborted, 1u);
  EXPECT_EQ(h.retries, 0u);
  EXPECT_EQ(h.parkedSlots, 0u);
  EXPECT_EQ(host->queuePairs().sqs[0]->inFlight(), 0u);
  EXPECT_EQ(host->pendingTransactions(), 0u);
  // The aborted command never answers; nothing is settled a second time.
  host->engine().runFor(host->engine().now() + 20_ms);
  EXPECT_EQ(host->service().stats().completions, 0u);
  EXPECT_EQ(host->ioHealth().parkedSlots, 0u);
  EXPECT_EQ(host->ioTimeouts(), 1u);
}

// A timed-out cache fill is aborted on the device and settled with
// kCommandAborted: the token errors at the deadline and the frame is
// released at once (no DMA can reach it after the abort), so later
// readers of the page re-probe instead of parking on a BUSY line.
TEST_F(ServiceFixture, WatchdogErrorsCacheFill) {
  build(1, 64, 2, /*ioTimeoutNs=*/500_us, /*readLatencyNs=*/5_ms);
  DefaultCtrl ctrl(*host, CtrlConfig{.cacheLines = 8});
  IoBatch batch;
  batch.addPrefetch(0, 3);
  bool waitOk = true;
  const bool ok = host->runKernel(
      {.gridDim = 1, .blockDim = 1, .name = "slow-prefetch"},
      [&](gpu::KernelCtx& ctx) -> gpu::GpuTask<void> {
        AgileLockChain chain;
        const IoToken token = co_await ctrl.submitBatch(ctx, batch, chain);
        waitOk = co_await ctrl.wait(ctx, token);
      });
  ASSERT_TRUE(ok);
  EXPECT_FALSE(waitOk);  // token errored at the deadline
  EXPECT_EQ(host->ioTimeouts(), 1u);
  EXPECT_EQ(ctrl.cache().busyLines(), 0u);
  EXPECT_EQ(host->ioHealth().parkedSlots, 0u);
  EXPECT_EQ(host->pendingTransactions(), 0u);
}

// A timed-out asyncWrite is aborted on the device, so its staging page —
// the DMA source — can never be read again and returns to the pool with
// the caller's error, not on a device answer that may never come.
TEST_F(ServiceFixture, WatchdogRecyclesStagingOnWriteTimeout) {
  build(1, 64, 2, /*ioTimeoutNs=*/500_us, /*readLatencyNs=*/5_ms);
  auto* payload = host->gpu().hbm().allocBytes(nvme::kLbaBytes);
  const std::size_t stagingBefore = host->staging().available();
  std::byte* staging = host->staging().tryGet();
  ASSERT_NE(staging, nullptr);
  AgileBuf buf(payload);
  const bool ok = host->runKernel(
      {.gridDim = 1, .blockDim = 1, .name = "slow-write"},
      [&](gpu::KernelCtx& ctx) -> gpu::GpuTask<void> {
        AgileLockChain chain;
        nvme::Sqe cmd;
        // A *read* opcode so the 5 ms latency applies, but carried by a
        // kBufWrite transaction — exercising exactly the staging-recycle
        // path under timeout.
        cmd.opcode = static_cast<std::uint8_t>(nvme::Opcode::kRead);
        cmd.slba = 9;
        cmd.prp1 = host->gpu().hbm().physAddr(staging);
        Transaction txn;
        txn.kind = TxnKind::kBufWrite;
        txn.staging = staging;
        txn.stagingPool = &host->staging();
        txn.barrier = &buf.barrier();
        buf.barrier().addPending();
        co_await laneIssueOn(ctx, host->queuePairs(), 0, cmd, txn, chain);
        (void)co_await barrierWait(ctx, buf.barrier());
      });
  ASSERT_TRUE(ok);
  EXPECT_EQ(host->ioTimeouts(), 1u);
  EXPECT_TRUE(buf.barrier().failed());
  EXPECT_EQ(host->staging().available(), stagingBefore);
  EXPECT_EQ(host->ioHealth().parkedSlots, 0u);
  EXPECT_EQ(host->pendingTransactions(), 0u);
}

TEST_F(ServiceFixture, ProcessesAllCompletions) {
  build(2, 64);
  traffic(256);
  EXPECT_EQ(host->service().stats().completions, 256u);
  EXPECT_EQ(host->pendingTransactions(), 0u);
}

TEST_F(ServiceFixture, SnapshotAndResetStats) {
  build(2, 64);
  traffic(64);
  const ServiceStats snap = host->service().snapshot();
  EXPECT_EQ(snap.completions, 64u);
  EXPECT_GT(snap.pollRounds, 0u);
  host->service().resetStats();
  EXPECT_EQ(host->service().stats().completions, 0u);
  // The snapshot is an independent copy; a second traffic window measures
  // only its own completions.
  traffic(32);
  EXPECT_EQ(host->service().stats().completions, 32u);
  EXPECT_EQ(snap.completions, 64u);
}

TEST_F(ServiceFixture, WindowsAdvanceOnlyWhenFull) {
  build(1, 64);  // window = 32
  // 16 completions: fewer than one window — resources released but the
  // window must NOT advance (and no CQ doorbell written).
  traffic(16);
  settle();
  EXPECT_EQ(host->service().stats().completions, 16u);
  EXPECT_EQ(host->service().stats().windowsAdvanced, 0u);
  EXPECT_EQ(host->queuePairs().cqs[0]->mask, 0xFFFFu);
  // 16 more fill the window: it advances and the doorbell is rung.
  traffic(16);
  settle();
  EXPECT_EQ(host->service().stats().windowsAdvanced, 1u);
  EXPECT_GE(host->service().stats().cqDoorbells, 1u);
  EXPECT_EQ(host->queuePairs().cqs[0]->offset, 32u);
  EXPECT_EQ(host->queuePairs().cqs[0]->mask, 0u);
}

TEST_F(ServiceFixture, PhaseFlipsAcrossLaps) {
  build(1, 64);
  AgileCq& cq = *host->queuePairs().cqs[0];
  EXPECT_TRUE(cq.phase);
  traffic(64);  // exactly one CQ lap
  settle();
  EXPECT_EQ(cq.offset, 0u);
  EXPECT_FALSE(cq.phase);  // lap completed, phase flipped
  traffic(64);  // second lap
  settle();
  EXPECT_TRUE(cq.phase);
  EXPECT_EQ(host->service().stats().completions, 128u);
}

TEST_F(ServiceFixture, ManyLapsNoLostCompletions) {
  build(2, 32);  // window = 16
  for (int round = 0; round < 5; ++round) traffic(128);
  EXPECT_EQ(host->service().stats().completions, 640u);
  EXPECT_EQ(host->pendingTransactions(), 0u);
}

TEST_F(ServiceFixture, WarpsPartitionCqs) {
  build(4, 64, /*serviceWarps=*/2);
  traffic(256);
  // All four CQs drained even though each service warp owns only half.
  for (std::uint32_t i = 0; i < 4; ++i) {
    EXPECT_EQ(host->queuePairs().sqs[i]->inFlight(), 0u) << i;
  }
  EXPECT_EQ(host->service().stats().completions, 256u);
}

TEST_F(ServiceFixture, SingleWarpHandlesEverything) {
  build(4, 64, /*serviceWarps=*/1);
  traffic(256);
  EXPECT_EQ(host->service().stats().completions, 256u);
}

TEST_F(ServiceFixture, IdleServiceSkipsQuietQueues) {
  build(4, 64);
  // Let the service spin a while with zero traffic: the fast-skip path must
  // keep full window polls (pollRounds) near zero.
  host->engine().runFor(host->engine().now() + 2_ms);
  EXPECT_EQ(host->service().stats().completions, 0u);
  EXPECT_LE(host->service().stats().pollRounds, 8u);
}

TEST_F(ServiceFixture, StopQuiescesPromptly) {
  build(2, 64);
  traffic(64);
  host->stopAgile();
  EXPECT_FALSE(host->serviceRunning());
  // Restarting works.
  host->startAgile();
  traffic(64);
  EXPECT_EQ(host->service().stats().completions, 64u);
}

TEST_F(ServiceFixture, ServiceRegistersMatchPaper) {
  build(1, 64);
  EXPECT_EQ(host->service().launchConfig(false).regsPerThread, 37u);
}

}  // namespace
}  // namespace agile::core
