// BaM baseline: a synchronous GPU-centric I/O library in the style of
// Qureshi et al. [48], built on the same simulated substrates as AGILE so
// comparisons isolate the I/O-model and API-implementation differences the
// paper evaluates:
//
//  - Synchronous model: a thread that misses the cache issues the NVMe
//    command itself and then *polls completions inline* until its own
//    request finishes — burning SM issue slots for the whole SSD latency
//    (the §2 critique) and serializing with other pollers on a per-CQ lock.
//  - Fixed clock-replacement cache with BaM's heavier per-op costs
//    (bamCacheCosts) per the §4.5 overhead analysis.
//  - No service kernel, no Share Table, no asynchronous APIs.
//
// The register-model counterpart of this design is IoApiPath::kBamSyncRead /
// kBamSyncWrite (all polling state lives in the calling thread).
#pragma once

#include <cstdint>
#include <cstring>

#include "common/annotations.h"
#include "common/check.h"
#include "core/cache.h"
#include "core/cost_model.h"
#include "core/ctrl.h"
#include "core/host.h"
#include "core/io_queues.h"
#include "core/lock.h"
#include "gpu/exec.h"
#include "nvme/defs.h"

namespace agile::bam {

struct BamConfig {
  std::uint32_t cacheLines = 1024;
  // Cache shard count; 0 = power-of-two default derived from cacheLines
  // (see core::SoftwareCache). BaM shares the sharded container, so the
  // baseline's heavier per-op costs stay comparable at scale.
  std::uint32_t cacheShards = 0;
};

struct BamStats {
  std::uint64_t reads = 0;
  std::uint64_t writes = 0;
  std::uint64_t pollRounds = 0;
  std::uint64_t completionsDrained = 0;
  // Claim loops that spent their whole probe budget (degraded access: the
  // element read returns a default value / the write is dropped).
  std::uint64_t exhaustedRetries = 0;
};

template <class CachePolicy = core::ClockPolicy>
class BamCtrl {
 public:
  using Cache = core::SoftwareCache<CachePolicy>;

  BamCtrl(core::AgileHost& host, BamConfig cfg = {})
      : host_(&host),
        cache_(host.gpu().hbm(), cfg.cacheLines, core::bamCacheCosts(),
               cfg.cacheShards) {
    AGILE_CHECK_MSG(host.nvmeReady(), "BamCtrl requires initNvme()");
    AGILE_CHECK_MSG(!host.serviceRunning(),
                    "BaM polls inline; do not start the AGILE service");
  }

  Cache& cache() { return cache_; }
  const BamStats& stats() const { return stats_; }

  // Synchronous element read: returns only when the value is in HBM.
  // Elements are addressed by core::elemAddr with the default (one-device)
  // stripe, so a BaM array lives on SSD 0.
  template <class T>
  gpu::GpuTask<T> readElem(gpu::KernelCtx& ctx, std::uint64_t elemIdx,
                           core::AgileLockChain& chain) {
    ++stats_.reads;
    const auto [dev, lba, off] = core::elemAddr<T>(elemIdx);
    AGILE_CHECK(off + sizeof(T) <= nvme::kLbaBytes);

    const std::uint32_t line = co_await acquireReadyLine(ctx, dev, lba, chain);
    if (line == core::kNoSlot) co_return T{};  // budget exhausted
    ctx.charge(cache_.costs().word);
    T v;
    std::memcpy(&v, cache_.line(line).data + off, sizeof(T));
    co_return v;
  }

  // Synchronous element write (read-modify-write; dirty line written back on
  // eviction, as in BaM's write-back cache mode).
  template <class T>
  gpu::GpuTask<void> writeElem(gpu::KernelCtx& ctx, std::uint64_t elemIdx,
                               T value, core::AgileLockChain& chain) {
    ++stats_.writes;
    const auto [dev, lba, off] = core::elemAddr<T>(elemIdx);
    AGILE_CHECK(off + sizeof(T) <= nvme::kLbaBytes);

    const std::uint32_t line = co_await acquireReadyLine(ctx, dev, lba, chain);
    if (line == core::kNoSlot) co_return;  // budget exhausted; write dropped
    ctx.charge(cache_.costs().word);
    std::memcpy(cache_.line(line).data + off, &value, sizeof(T));
    cache_.markModified(line);
    co_return;
  }

  // Synchronous whole-page read into caller memory.
  gpu::GpuTask<void> readPage(gpu::KernelCtx& ctx, std::uint32_t dev,
                              std::uint64_t lba, std::byte* out,
                              core::AgileLockChain& chain) {
    ++stats_.reads;
    const std::uint32_t line = co_await acquireReadyLine(ctx, dev, lba, chain);
    if (line == core::kNoSlot) co_return;  // budget exhausted; out untouched
    ctx.charge(cache_.costs().lineCopy);
    std::memcpy(out, cache_.line(line).data, nvme::kLbaBytes);
    co_return;
  }

 private:
  // Probe budget of acquireReadyLine; only a cache wedged by faults spends
  // it, and the access then degrades (stats().exhaustedRetries).
  static constexpr std::uint32_t kMaxClaimRounds = 100000;

  // Probe-or-fetch until the line for (dev, lba) is READY/MODIFIED; the
  // calling thread performs all completion processing itself.
  AGILE_NODISCARD("the returned line index is pinned for this access")
  gpu::GpuTask<std::uint32_t> acquireReadyLine(gpu::KernelCtx& ctx,
                                               std::uint32_t dev,
                                               std::uint64_t lba,
                                               core::AgileLockChain& chain) {
    const std::uint64_t tag = core::makeTag(dev, lba);
    for (std::uint32_t attempt = 0; attempt < kMaxClaimRounds; ++attempt) {
      const core::ProbeResult r = cache_.probeOrClaim(ctx, tag);
      switch (r.outcome) {
        case core::ProbeOutcome::kHit:
          co_return r.line;
        case core::ProbeOutcome::kBusy:
          // Synchronous model: spin-poll the CQ until the fill (possibly
          // another thread's) lands. This is the stall AGILE's async APIs
          // avoid.
          co_await pollUntil(ctx, dev, cache_.line(r.line), chain);
          break;
        case core::ProbeOutcome::kClaimed:
          co_await issueSync(ctx, dev, lba, cache_.line(r.line),
                             core::TxnKind::kCacheFill, chain);
          break;
        case core::ProbeOutcome::kNeedWriteback:
          co_await issueSync(ctx, dev, core::tagLba(cache_.line(r.line).tag),
                             cache_.line(r.line), core::TxnKind::kCacheWriteback,
                             chain);
          break;
        case core::ProbeOutcome::kStall:
          drainCq(ctx, dev, chain);
          co_await ctx.backoff(cost::kBamPollInterval);
          break;
      }
    }
    // Budget exhausted: degrade instead of crashing. Callers observe the
    // kNoSlot sentinel (and stats) and skip the access.
    ++stats_.exhaustedRetries;
    co_return core::kNoSlot;
  }

  // Issue a fill/writeback for `line` and poll inline until it completes.
  gpu::GpuTask<void> issueSync(gpu::KernelCtx& ctx, std::uint32_t dev,
                               std::uint64_t lba, core::CacheLine& line,
                               core::TxnKind kind,
                               core::AgileLockChain& chain) {
    nvme::Sqe cmd;
    cmd.opcode = static_cast<std::uint8_t>(kind == core::TxnKind::kCacheFill
                                               ? nvme::Opcode::kRead
                                               : nvme::Opcode::kWrite);
    cmd.slba = lba;
    cmd.nlb = 0;
    cmd.prp1 = host_->gpu().hbm().physAddr(line.data);

    core::Transaction txn;
    txn.kind = kind;
    txn.line = &line;

    core::QueuePairSet& qps = host_->queuePairs();
    const core::QpSlice all = qps.slice(dev);
    const std::uint32_t preferred = ctx.globalWarpIdx() % all.count;

    // Claim a slot; on full queues a BaM thread must drain completions
    // itself (no service exists to do it), so it keeps its own
    // drain-then-backoff loop instead of parking through slotWaiters.
    core::SlotGrant g;
    for (;;) {
      g = qps.acquireSlot(all, preferred, ctx.now());
      ctx.charge(g.probes * cost::kBamSqeIssue);
      if (g) break;
      drainCq(ctx, dev, chain);
      co_await ctx.backoff(cost::kBamPollInterval);
    }
    core::writeAndRing(ctx, chain, *g.sq, &g.slot, &cmd, &txn, 1);
    co_await pollUntil(ctx, dev, line, chain);
  }

  // Spin on the device's CQs until `line` leaves the BUSY state.
  gpu::GpuTask<void> pollUntil(gpu::KernelCtx& ctx, std::uint32_t dev,
                               core::CacheLine& line,
                               core::AgileLockChain& chain) {
    while (line.state == core::LineState::kBusy) {
      drainCq(ctx, dev, chain);
      if (line.state != core::LineState::kBusy) break;
      co_await ctx.backoff(cost::kBamPollInterval);
    }
    co_return;
  }

  // One inline completion-drain pass over this thread's CQ (serialized on
  // the CQ lock; contenders pay and retry later).
  void drainCq(gpu::KernelCtx& ctx, std::uint32_t dev,
               core::AgileLockChain& chain) {
    ++stats_.pollRounds;
    ctx.chargeSerialized(cost::kBamPollRound);  // CQ-lock section
    core::QueuePairSet& qps = host_->queuePairs();
    const core::QpSlice all = qps.slice(dev);
    const std::uint32_t pairIdx = all.first + ctx.globalWarpIdx() % all.count;
    core::AgileCq& cq = *qps.cqs[pairIdx];
    core::AgileSq& sq = *qps.sqs[pairIdx];

    if (!cq.cqLock.tryAcquire(ctx, chain)) {
      ctx.charge(cost::kBamCqLockRetry);
      return;
    }
    std::uint32_t drained = 0;
    for (;;) {
      const nvme::Cqe cqe = cq.ring[cq.head];
      if (cqe.phase() != cq.phase) break;
      ctx.chargeSerialized(cost::kBamCqeProcess);  // held under the CQ lock
      core::applyCompletion(ctx.engine(), sq, cqe.cid, cqe.status());
      cq.head = (cq.head + 1) % cq.depth;
      if (cq.head == 0) cq.phase = !cq.phase;
      ++drained;
    }
    if (drained != 0) {
      ctx.charge(cost::kDoorbellWrite);
      cq.ssd->writeCqDoorbell(cq.qid, cq.head);
      stats_.completionsDrained += drained;
    }
    cq.cqLock.release(ctx, chain);
  }

  core::AgileHost* host_;
  Cache cache_;
  BamStats stats_;
};

using DefaultBamCtrl = BamCtrl<core::ClockPolicy>;

}  // namespace agile::bam
