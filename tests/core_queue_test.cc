// Tests for the SQE state machine and the Algorithm-2 serialization process:
// ring allocation, UPDATED→ISSUED doorbell coverage, completion release, and
// the §2.3.1 full-queue behaviour (deadlock without a reaper, progress with
// one).
#include <gtest/gtest.h>

#include <cstring>
#include <vector>

#include "core/host.h"
#include "core/io_queues.h"
#include "gpu/exec.h"
#include "nvme/defs.h"
#include "sq_issue.h"

namespace agile::core {
namespace {

core::HostConfig smallHost(std::uint32_t qps = 1, std::uint32_t depth = 32) {
  HostConfig cfg;
  cfg.queuePairsPerSsd = qps;
  cfg.queueDepth = depth;
  cfg.stagingPages = 16;
  return cfg;
}

nvme::SsdConfig smallSsd() {
  nvme::SsdConfig cfg;
  cfg.capacityLbas = 4096;
  return cfg;
}

struct QueueFixture : ::testing::Test {
  void build(std::uint32_t qps = 1, std::uint32_t depth = 32) {
    host = std::make_unique<AgileHost>(smallHost(qps, depth));
    host->addNvmeDev(smallSsd());
    host->initNvme();
  }
  std::unique_ptr<AgileHost> host;
};

TEST_F(QueueFixture, RingAllocationIsInOrder) {
  build();
  AgileSq& sq = *host->queuePairs().sqs[0];
  EXPECT_EQ(sq.tryAlloc(), 0u);
  EXPECT_EQ(sq.tryAlloc(), 1u);
  EXPECT_EQ(sq.tryAlloc(), 2u);
  EXPECT_EQ(sq.state[0], SqeState::kHeld);
  EXPECT_EQ(sq.inFlight(), 3u);
}

TEST_F(QueueFixture, FullRingReturnsNoSlot) {
  build(1, 32);
  AgileSq& sq = *host->queuePairs().sqs[0];
  // One slot stays empty so a full ring is distinguishable from an empty
  // one; a depth-32 SQ therefore holds at most 31 commands.
  for (std::uint32_t i = 0; i < 31; ++i) EXPECT_NE(sq.tryAlloc(), kNoSlot);
  EXPECT_EQ(sq.tryAlloc(), kNoSlot);
  EXPECT_EQ(sq.inFlight(), 31u);
}

TEST_F(QueueFixture, IssueCommandCompletesViaService) {
  build();
  host->startAgile();
  auto* buf = host->gpu().hbm().allocBytes(nvme::kLbaBytes);
  AgileTxBarrier barrier;
  bool ok = false;
  const bool ran = host->runKernel(
      {.gridDim = 1, .blockDim = 1, .name = "issue"},
      [&](gpu::KernelCtx& ctx) -> gpu::GpuTask<void> {
        AgileLockChain chain;
        nvme::Sqe cmd;
        cmd.opcode = static_cast<std::uint8_t>(nvme::Opcode::kRead);
        cmd.slba = 17;
        cmd.prp1 = host->gpu().hbm().physAddr(buf);
        AgileBuf tmp(buf);
        Transaction txn;
        txn.kind = TxnKind::kBufRead;
        txn.buf = &tmp;
        tmp.barrier().addPending();
        co_await laneIssueOn(ctx, host->queuePairs(), 0, cmd, txn, chain);
        ok = co_await barrierWait(ctx, tmp.barrier());
      });
  ASSERT_TRUE(ran);
  EXPECT_TRUE(ok);
  // Data landed from flash.
  std::byte expect[nvme::kLbaBytes];
  nvme::FlashStore::defaultPattern(17, expect);
  EXPECT_EQ(std::memcmp(buf, expect, nvme::kLbaBytes), 0);
  // SQE released by the service.
  EXPECT_EQ(host->pendingTransactions(), 0u);
  host->stopAgile();
}

TEST_F(QueueFixture, DoorbellCoversBatches) {
  // Many threads issuing concurrently: every command must complete and every
  // SQE return to EMPTY, exercising UPDATED→ISSUED scans over batches.
  build(1, 64);
  host->startAgile();
  auto* bufs = host->gpu().hbm().allocBytes(nvme::kLbaBytes * 128);
  int done = 0;
  const bool ran = host->runKernel(
      {.gridDim = 2, .blockDim = 64, .name = "many"},
      [&](gpu::KernelCtx& ctx) -> gpu::GpuTask<void> {
        AgileLockChain chain;
        const auto tid = ctx.globalThreadIdx();
        AgileBuf tmp(bufs + (tid % 128) * nvme::kLbaBytes);
        nvme::Sqe cmd;
        cmd.opcode = static_cast<std::uint8_t>(nvme::Opcode::kRead);
        cmd.slba = tid % 512;
        cmd.prp1 = host->gpu().hbm().physAddr(tmp.data());
        Transaction txn;
        txn.kind = TxnKind::kBufRead;
        txn.buf = &tmp;
        tmp.barrier().addPending();
        co_await laneIssueOn(ctx, host->queuePairs(), 0, cmd, txn, chain);
        co_await barrierWait(ctx, tmp.barrier());
        ++done;
      });
  ASSERT_TRUE(ran);
  EXPECT_EQ(done, 128);
  EXPECT_EQ(host->pendingTransactions(), 0u);
  host->stopAgile();
}

TEST_F(QueueFixture, MoreRequestsThanQueueDepth) {
  // 256 threads over a 32-deep queue: issuers must park on the full SQ and
  // resume as the service frees entries — the paper's deadlock scenario,
  // resolved.
  build(1, 32);
  host->startAgile();
  auto* bufs = host->gpu().hbm().allocBytes(nvme::kLbaBytes * 256);
  int done = 0;
  const bool ran = host->runKernel(
      {.gridDim = 4, .blockDim = 64, .name = "overcommit"},
      [&](gpu::KernelCtx& ctx) -> gpu::GpuTask<void> {
        AgileLockChain chain;
        const auto tid = ctx.globalThreadIdx();
        AgileBuf tmp(bufs + tid * nvme::kLbaBytes);
        nvme::Sqe cmd;
        cmd.opcode = static_cast<std::uint8_t>(nvme::Opcode::kRead);
        cmd.slba = tid;
        cmd.prp1 = host->gpu().hbm().physAddr(tmp.data());
        Transaction txn;
        txn.kind = TxnKind::kBufRead;
        txn.buf = &tmp;
        tmp.barrier().addPending();
        co_await laneIssueOn(ctx, host->queuePairs(), 0, cmd, txn, chain);
        co_await barrierWait(ctx, tmp.barrier());
        ++done;
      });
  ASSERT_TRUE(ran);
  EXPECT_EQ(done, 256);
  host->stopAgile();
}

TEST_F(QueueFixture, DeadlocksWithoutService) {
  // The §2.3.1 scenario reproduced: no service runs, so nothing ever
  // releases SQEs. With more requests than SQ entries, issuers park forever
  // and the virtual-time watchdog reports the hang.
  build(1, 32);  // NOTE: no startAgile()
  auto* bufs = host->gpu().hbm().allocBytes(nvme::kLbaBytes * 64);
  const bool ran = host->runKernel(
      {.gridDim = 1, .blockDim = 64, .name = "deadlock"},
      [&](gpu::KernelCtx& ctx) -> gpu::GpuTask<void> {
        AgileLockChain chain;
        const auto tid = ctx.globalThreadIdx();
        AgileBuf tmp(bufs + tid * nvme::kLbaBytes);
        // Each thread issues TWO commands — with 64 threads × 2 > 32 slots,
        // some threads fill the queue and then wait for completions that
        // nothing processes.
        for (int i = 0; i < 2; ++i) {
          nvme::Sqe cmd;
          cmd.opcode = static_cast<std::uint8_t>(nvme::Opcode::kRead);
          cmd.slba = tid * 2 + i;
          cmd.prp1 = host->gpu().hbm().physAddr(tmp.data());
          Transaction txn;
          txn.kind = TxnKind::kBufRead;
          txn.buf = &tmp;
          tmp.barrier().addPending();
          co_await laneIssueOn(ctx, host->queuePairs(), 0, cmd, txn, chain);
        }
        co_await barrierWait(ctx, tmp.barrier());
      });
  EXPECT_FALSE(ran);  // watchdog: simulated deadlock detected
}

TEST_F(QueueFixture, HostWriteBehindHeldLaneSlotSharesItsDoorbell) {
  // Algorithm 2 with mixed submitters on one SQ: a lane claims slot k and is
  // suspended before writing it, while a host event (the speculative pump,
  // a retry) claims and writes k+1. The host's scan must stop at the HELD
  // slot — the doorbell never passes an unwritten SQE — and the lane's own
  // write-and-ring then covers both commands with one doorbell write.
  build();  // no service: the device's completions stay in the CQ
  QueuePairSet& qps = host->queuePairs();
  AgileSq& sq = *qps.sqs[0];
  const nvme::QueuePair& devQp = host->ssd(0).queuePair(sq.qid);
  auto* mem = host->gpu().hbm().allocBytes(2 * nvme::kLbaBytes);
  AgileBuf laneBuf(mem);
  AgileBuf hostBuf(mem + nvme::kLbaBytes);
  auto readInto = [&](AgileBuf& b, std::uint64_t lba, nvme::Sqe* cmd,
                      Transaction* txn) {
    cmd->opcode = static_cast<std::uint8_t>(nvme::Opcode::kRead);
    cmd->slba = lba;
    cmd->prp1 = host->gpu().hbm().physAddr(b.data());
    txn->kind = TxnKind::kBufRead;
    txn->buf = &b;
    b.barrier().addPending();
  };
  nvme::Sqe laneCmd;
  nvme::Sqe hostCmd;
  Transaction laneTxn;
  Transaction hostTxn;
  readInto(laneBuf, 5, &laneCmd, &laneTxn);
  readInto(hostBuf, 6, &hostCmd, &hostTxn);

  std::uint32_t laneSlot = kNoSlot;
  std::uint32_t laneCovered = 0;
  auto k = host->launchKernel(
      {.gridDim = 1, .blockDim = 1, .name = "held"},
      [&](gpu::KernelCtx& ctx) -> gpu::GpuTask<void> {
        AgileLockChain chain;
        const SlotGrant g = qps.acquireSlot({0, 1}, 0, ctx.engine().now());
        laneSlot = g.slot;
        co_await ctx.backoff(10'000);  // suspended with the slot HELD
        laneCovered =
            writeAndRing(ctx, chain, *g.sq, &g.slot, &laneCmd, &laneTxn, 1);
      });
  ASSERT_TRUE(host->engine().runUntil([&] { return laneSlot != kNoSlot; }));
  ASSERT_EQ(sq.state[laneSlot], SqeState::kHeld);

  // The host submitter runs between the lane's segments.
  const SlotGrant g = qps.acquireSlot({0, 1}, 0, host->engine().now());
  ASSERT_TRUE(g);
  EXPECT_EQ(g.slot, laneSlot + 1);
  EXPECT_EQ(writeAndRing(*g.sq, &g.slot, &hostCmd, &hostTxn, 1), 0u);
  EXPECT_EQ(sq.state[g.slot], SqeState::kUpdated);
  EXPECT_EQ(sq.issueTail, laneSlot);
  EXPECT_EQ(devQp.sqTailDoorbell, laneSlot);

  ASSERT_TRUE(host->wait(k));
  EXPECT_EQ(laneCovered, 2u);  // one scan, one doorbell write, both SQEs
  EXPECT_EQ(sq.state[laneSlot], SqeState::kIssued);
  EXPECT_EQ(sq.state[g.slot], SqeState::kIssued);
  EXPECT_EQ(sq.issueTail, g.slot + 1);
  EXPECT_EQ(devQp.sqTailDoorbell, g.slot + 1);
  // The device fetched and served both commands.
  host->engine().runFor(host->engine().now() + 1'000'000);
  EXPECT_EQ(host->ssd(0).readsCompleted(), 2u);
}

TEST_F(QueueFixture, CompletionReleasesSqe) {
  build();
  AgileSq& sq = *host->queuePairs().sqs[0];
  const std::uint32_t slot = sq.tryAlloc();
  sq.state[slot] = SqeState::kIssued;  // as if doorbell covered it
  auto* mem = host->gpu().hbm().allocBytes(nvme::kLbaBytes);
  AgileBuf buf(mem);
  buf.barrier().addPending();
  sq.txn[slot] = Transaction{.kind = TxnKind::kBufRead, .buf = &buf};
  applyCompletion(host->engine(), sq, slot, nvme::Status::kSuccess);
  EXPECT_EQ(sq.state[slot], SqeState::kEmpty);
  EXPECT_TRUE(buf.barrier().ready());
  EXPECT_EQ(sq.txn[slot].kind, TxnKind::kNone);
}

TEST_F(QueueFixture, CompletionReturnsStagingToPool) {
  build();
  AgileSq& sq = *host->queuePairs().sqs[0];
  StagingPool& pool = host->staging();
  const auto before = pool.available();
  auto* page = pool.tryGet();
  ASSERT_NE(page, nullptr);
  EXPECT_EQ(pool.available(), before - 1);

  const std::uint32_t slot = sq.tryAlloc();
  sq.state[slot] = SqeState::kIssued;
  sq.txn[slot] = Transaction{
      .kind = TxnKind::kBufWrite, .staging = page, .stagingPool = &pool};
  applyCompletion(host->engine(), sq, slot, nvme::Status::kSuccess);
  EXPECT_EQ(pool.available(), before);
}

TEST_F(QueueFixture, ErrorStatusPropagatesToBarrier) {
  build();
  host->ssd(0).injectFault(99);
  host->startAgile();
  auto* mem = host->gpu().hbm().allocBytes(nvme::kLbaBytes);
  bool ok = true;
  const bool ran = host->runKernel(
      {.gridDim = 1, .blockDim = 1, .name = "err"},
      [&](gpu::KernelCtx& ctx) -> gpu::GpuTask<void> {
        AgileLockChain chain;
        AgileBuf tmp(mem);
        nvme::Sqe cmd;
        cmd.opcode = static_cast<std::uint8_t>(nvme::Opcode::kRead);
        cmd.slba = 99;
        cmd.prp1 = host->gpu().hbm().physAddr(mem);
        Transaction txn;
        txn.kind = TxnKind::kBufRead;
        txn.buf = &tmp;
        tmp.barrier().addPending();
        co_await laneIssueOn(ctx, host->queuePairs(), 0, cmd, txn, chain);
        ok = co_await barrierWait(ctx, tmp.barrier());
      });
  ASSERT_TRUE(ran);
  EXPECT_FALSE(ok);
  host->stopAgile();
}

TEST_F(QueueFixture, MultiQueueDistribution) {
  // With 4 queue pairs, concurrent warps spread across SQs.
  build(4, 32);
  host->startAgile();
  auto* bufs = host->gpu().hbm().allocBytes(nvme::kLbaBytes * 256);
  const bool ran = host->runKernel(
      {.gridDim = 4, .blockDim = 64, .name = "spread"},
      [&](gpu::KernelCtx& ctx) -> gpu::GpuTask<void> {
        AgileLockChain chain;
        const auto tid = ctx.globalThreadIdx();
        AgileBuf tmp(bufs + tid * nvme::kLbaBytes);
        nvme::Sqe cmd;
        cmd.opcode = static_cast<std::uint8_t>(nvme::Opcode::kRead);
        cmd.slba = tid;
        cmd.prp1 = host->gpu().hbm().physAddr(tmp.data());
        Transaction txn;
        txn.kind = TxnKind::kBufRead;
        txn.buf = &tmp;
        tmp.barrier().addPending();
        const std::uint32_t qp = (tid / 32) % 4;
        co_await laneIssueOn(ctx, host->queuePairs(), qp, cmd, txn, chain);
        co_await barrierWait(ctx, tmp.barrier());
      });
  ASSERT_TRUE(ran);
  // All four queues saw traffic and every command completed.
  EXPECT_EQ(host->ssd(0).readsCompleted(), 256u);
  for (std::uint32_t q = 0; q < 4; ++q) {
    EXPECT_EQ(host->queuePairs().sqs[q]->totalIssued, 64u) << q;
  }
  host->stopAgile();
}

TEST_F(QueueFixture, ServiceStatsAdvance) {
  build();
  host->startAgile();
  auto* mem = host->gpu().hbm().allocBytes(nvme::kLbaBytes);
  const bool ran = host->runKernel(
      {.gridDim = 1, .blockDim = 32, .name = "stats"},
      [&](gpu::KernelCtx& ctx) -> gpu::GpuTask<void> {
        AgileLockChain chain;
        AgileBuf tmp(mem);
        nvme::Sqe cmd;
        cmd.opcode = static_cast<std::uint8_t>(nvme::Opcode::kRead);
        cmd.slba = ctx.threadIdx();
        cmd.prp1 = host->gpu().hbm().physAddr(mem);
        Transaction txn;
        txn.kind = TxnKind::kBufRead;
        txn.buf = &tmp;
        tmp.barrier().addPending();
        co_await laneIssueOn(ctx, host->queuePairs(), 0, cmd, txn, chain);
        co_await barrierWait(ctx, tmp.barrier());
      });
  ASSERT_TRUE(ran);
  EXPECT_EQ(host->service().stats().completions, 32u);
  EXPECT_GT(host->service().stats().pollRounds, 0u);
  host->stopAgile();
}

}  // namespace
}  // namespace agile::core
