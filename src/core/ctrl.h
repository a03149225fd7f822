// AgileCtrl — the device-side API surface of AGILE (§3.5, Listing 1).
//
// The paper's Listing-1 calls:
//   Method-1  prefetch(dev, lba, chain)           — fill the software cache
//   Method-2  asyncRead / asyncWrite(dev, lba, buf, chain)  — async_issue
//             with user-specified buffers; buf.wait() via waitBuf()
//   Method-3  arrayRead / arrayWrite / arrayReadOrFill(idx) — array view of
//             the SSDs; each element resolves through cfg.stripe
//
// Beyond Listing 1, submitBatch submits N descriptors (reads, writes, cache
// prefetches) with one warp-coalesced resolve pass and a single SQ doorbell
// per target SSD, and returns a generation-checked IoToken
// (core/io_token.h) that supports poll() and co_await wait().
//
// Every lane-side SSD command goes through issueRun (Algorithm 2, §3.3.1);
// a single command is a run of one, a batch one run per target SSD.
//
// Template parameters select the software-cache replacement policy and the
// Share Table policy at compile time (the paper's CRTP customization). All
// potentially-stalling calls are coroutines: a simulated GPU thread composes
// them with co_await exactly where a CUDA thread would block or poll.
//
// Request coalescing is two-level (§3.3.2): prefetch, the read-or-fill array
// read and the prefetch entries of submitBatch use warp match-any
// (warpLeader) to elect one leader per distinct page or batch, and the
// software cache's BUSY state absorbs the rest (second level). asyncRead
// performs no warp-level coalescing, matching the paper; duplicates are
// caught by the Share Table and the cache only.
//
// Every cache access runs on one of two probe/claim loops: claimLine for
// prefetch-flavoured callers and demandLine for the array API and Share-Table
// propagation (see their comments for why they differ). The one exception is
// the Share-Table demotion, a single probe that never waits (demoteToCache).
#pragma once

#include <bit>
#include <cstdint>
#include <cstring>
#include <optional>
#include <span>
#include <utility>

#include "common/check.h"
#include "core/barrier.h"
#include "core/buf.h"
#include "core/cache.h"
#include "core/cost_model.h"
#include "core/host.h"
#include "core/io_queues.h"
#include "core/io_token.h"
#include "core/lock.h"
#include "core/share_table.h"
#include "gpu/exec.h"
#include "nvme/defs.h"
#include "qos/qos.h"
#include "qos/tenant.h"

namespace agile::core {

// Striped element -> device layout. Logical LBAs are dealt round-robin in
// `stripeLbas`-sized units across `devices` controllers starting at
// `baseDev`:
//
//   unit  = logicalLba / stripeLbas
//   dev   = baseDev + unit % devices
//   lba   = (unit / devices) * stripeLbas + logicalLba % stripeLbas
//
// devices == 1 reduces to the identity mapping (dev = baseDev,
// lba = logicalLba) regardless of stripeLbas — the single-device path is
// bit-exactly the pre-stripe layout.
struct StripeMap {
  std::uint32_t devices = 1;     // stripe width (number of controllers)
  std::uint32_t stripeLbas = 1;  // contiguous LBAs per stripe unit
  std::uint32_t baseDev = 0;     // first device of the stripe group
};

struct CtrlConfig {
  std::uint32_t cacheLines = 1024;
  // Cache shard count; 0 derives a power-of-two default from cacheLines
  // (SoftwareCache::autoShardCount — caches under 32 Ki lines stay at one
  // shard, the paper's fully-associative design; the DLRM benches' default
  // 32,768 lines runs two).
  std::uint32_t cacheShards = 0;
  bool warpCoalescing = true;
  // Element->device striping of every array, accessor and app access. The
  // default (devices = 1) is the paper's single-device layout; widening it
  // deals stripe units round-robin across the host's SSDs (see StripeMap).
  StripeMap stripe;
};

struct CtrlStats {
  std::uint64_t prefetches = 0;
  std::uint64_t prefetchCoalesced = 0;  // first-level (warp) hits
  std::uint64_t asyncReads = 0;
  std::uint64_t asyncWrites = 0;
  std::uint64_t arrayReads = 0;
  std::uint64_t directReads = 0;  // SSD -> user buffer, bypassing the cache
  std::uint64_t prefetchDropped = 0;
  // --- batch token surface ---
  std::uint64_t speculativePrefetches = 0;  // always 0; perfbench reads it
  std::uint64_t prefetchCancelled = 0;      // always 0; perfbench reads it
  std::uint64_t batchSubmits = 0;
  std::uint64_t batchRequests = 0;   // descriptors across all batches
  std::uint64_t batchDoorbells = 0;  // doorbell writes covering batch runs
  // --- robustness ---
  // Demand loops that spent their whole probe budget without landing the
  // access (degraded: the read returns a default value, the write or the
  // propagation is dropped).
  std::uint64_t exhaustedRetries = 0;
};

// Element index -> (device, LBA, byte offset) mapping of the array view. One
// shared helper so the array API and the accessors' prefetch paths cannot
// drift, and the single choke point where striping happens: all
// element->device routing must go through here (agile-lint: device-literal).
struct ElemAddr {
  std::uint32_t dev;
  std::uint64_t lba;
  std::uint32_t byteOff;
};

template <class T>
constexpr ElemAddr elemAddr(std::uint64_t elemIdx, const StripeMap& map = {}) {
  const std::uint64_t byteOff = elemIdx * sizeof(T);
  const std::uint64_t logicalLba = byteOff / nvme::kLbaBytes;
  const auto off = static_cast<std::uint32_t>(byteOff % nvme::kLbaBytes);
  if (map.devices <= 1) return {map.baseDev, logicalLba, off};
  const std::uint64_t unit = logicalLba / map.stripeLbas;
  const auto dev =
      map.baseDev + static_cast<std::uint32_t>(unit % map.devices);
  const std::uint64_t devLba =
      (unit / map.devices) * map.stripeLbas + logicalLba % map.stripeLbas;
  return {dev, devLba, off};
}

// Combined point-in-time statistics snapshot (copyable; pairs with
// resetStats() for per-phase measurement windows, e.g. sweep points).
struct CtrlSnapshot {
  CtrlStats ctrl;
  CacheStats cache;
  ShareStats share;
  IoOpPoolStats tokens;
};

template <class CachePolicy = ClockPolicy,
          class SharePolicy = DefaultSharePolicy>
class AgileCtrl {
 public:
  using Cache = SoftwareCache<CachePolicy>;
  using Share = ShareTable<SharePolicy>;

  AgileCtrl(AgileHost& host, CtrlConfig cfg = {})
      : host_(&host),
        cfg_(cfg),
        cache_(host.gpu().hbm(), cfg.cacheLines, agileCacheCosts(),
               cfg.cacheShards) {
    AGILE_CHECK_MSG(host.nvmeReady(), "AgileCtrl requires initNvme()");
  }

  Cache& cache() { return cache_; }
  Share& shareTable() { return share_; }
  IoOpPool& tokens() { return ops_; }
  const CtrlStats& stats() const { return stats_; }
  const StripeMap& stripe() const { return cfg_.stripe; }

  CtrlSnapshot snapshot() const {
    return {stats_, cache_.stats(), share_.stats(), ops_.stats()};
  }
  void resetStats() {
    stats_ = {};
    cache_.resetStats();
    share_.resetStats();
    ops_.resetStats();
    // Per-tenant QoS counters and latency sketches belong to the same
    // measurement window as the controller's own stats.
    if (qos::QosManager* q = host_->qosManager()) q->resetStats();
  }

  // ------------------------------------------------------- Method 1 ----

  // Asynchronously pull (dev, lba) into the software cache. Fire-and-forget:
  // the caller later reads through the array API (or hits the cache).
  gpu::GpuTask<void> prefetch(gpu::KernelCtx& ctx, std::uint32_t dev,
                              std::uint64_t lba, AgileLockChain& chain) {
    ++stats_.prefetches;
    if (cfg_.warpCoalescing) {
      // First-level coalescing: one leader per distinct page per warp.
      const std::uint32_t leader = co_await warpLeader(ctx, makeTag(dev, lba));
      if (ctx.laneId() != leader) {
        ++stats_.prefetchCoalesced;
        co_return;
      }
    }
    (void)co_await fillCacheLine(ctx, dev, lba, chain);
  }

  // Divergence-safe prefetch: no warp collective, so it may be called from
  // lanes on divergent control paths (per-row pipelines). First-level
  // coalescing is skipped; the cache's BUSY state (second level) still
  // absorbs duplicates.
  gpu::GpuTask<void> prefetchDivergent(gpu::KernelCtx& ctx, std::uint32_t dev,
                                       std::uint64_t lba,
                                       AgileLockChain& chain) {
    ++stats_.prefetches;
    (void)co_await fillCacheLine(ctx, dev, lba, chain);
  }

  // ------------------------------------------------------- Method 2 ----

  // async_issue(src=SSD, dst=user buffer). Never blocks on the cache: a miss
  // goes SSD -> buffer directly (no line lock is held, §3.1), a BUSY line
  // appends the buffer to the line's waiter list (§3.4 case (c)). Shares its
  // resolve step with submitBatch's read entries.
  gpu::GpuTask<void> asyncRead(gpu::KernelCtx& ctx, std::uint32_t dev,
                               std::uint64_t lba, AgileBufPtr& buf,
                               AgileLockChain& chain,
                               qos::TenantId tenant = qos::kHostTenant) {
    nvme::Sqe cmd;
    Transaction txn;
    if (resolveRead(ctx, dev, lba, buf, &cmd, &txn)) {
      txn.tenant = tenant;
      co_await issueToSsd(ctx, dev, cmd, txn, chain);
    }
  }

  // async_issue(src=user buffer, dst=SSD). The payload is snapshotted into a
  // staging page so the caller's buffer is reusable immediately (§3.5); the
  // software cache is updated for coherency before the command is issued.
  gpu::GpuTask<void> asyncWrite(gpu::KernelCtx& ctx, std::uint32_t dev,
                                std::uint64_t lba, AgileBufPtr& buf,
                                AgileLockChain& chain,
                                qos::TenantId tenant = qos::kHostTenant) {
    nvme::Sqe cmd;
    Transaction txn;
    co_await prepareWrite(ctx, dev, lba, buf, &cmd, &txn);
    txn.tenant = tenant;
    co_await issueToSsd(ctx, dev, cmd, txn, chain);
  }

  // buf.wait(): true on success, false if any transaction failed.
  gpu::GpuTask<bool> waitBuf(gpu::KernelCtx& ctx, AgileBufPtr& buf) {
    AGILE_CHECK(buf.active() != nullptr);
    co_return co_await barrierWait(ctx, buf.active()->barrier());
  }

  // Detach a pointer that was redirected to a peer's buffer by the Share
  // Table. The last holder hands the page down to the software cache (the
  // L2 of §3.4.1, see settleLastRelease) before the memory is considered
  // free; a holder that leaves only the owner attached wakes it. Owners
  // release with releaseOwned().
  gpu::GpuTask<void> releaseBuf(gpu::KernelCtx& ctx, AgileBufPtr& buf,
                                AgileLockChain& chain) {
    if constexpr (Share::kEnabled) {
      if (buf.isShared()) {
        ShareEntry* e = buf.shareEntry();
        AGILE_CHECK_MSG(e->buf != nullptr, "corrupt share entry");
        AGILE_CHECK_MSG(buf.active()->barrier().ready(),
                        "release while transfer in flight");
        const std::uint64_t tag = e->tag;
        const ShareRelease rel = share_.release(ctx, *e);
        if (rel != ShareRelease::kHeld) {
          co_await settleLastRelease(ctx, tag, *buf.active(), rel, chain);
        } else if (e->refCount == 1) {
          // Only the owner's reference remains; wake it if it is parked in
          // releaseOwned() waiting to reclaim the buffer.
          e->drainWaiters.notifyAll(host_->engine());
        }
      }
    }
    co_return;
  }

  // Owner-side release, keyed by the page the buffer holds. If sharers are
  // still attached to this buffer the owner parks until they detach, so the
  // buffer memory is safe to reuse the moment this returns; the owner is
  // then the last holder and hands the page down (settleLastRelease). An
  // entry a write detached is still found here, so its sharers are drained
  // all the same. A buffer whose read resolved from the cache or a BUSY line
  // owns no entry: a peer's entry for the same page is left alone (its DMA
  // may still be in flight).
  gpu::GpuTask<void> releaseOwned(gpu::KernelCtx& ctx, std::uint32_t dev,
                                  std::uint64_t lba, AgileBufPtr& buf,
                                  AgileLockChain& chain) {
    if constexpr (Share::kEnabled) {
      const std::uint64_t tag = makeTag(dev, lba);
      ShareEntry* e = share_.findOwned(tag, buf.own());
      while (e != nullptr && e->refCount > 1) {
        co_await ctx.parkOn(e->drainWaiters);
        e = share_.findOwned(tag, buf.own());
      }
      if (e != nullptr) {
        AGILE_CHECK(buf.own()->barrier().ready());
        const ShareRelease rel = share_.release(ctx, *e);
        co_await settleLastRelease(ctx, tag, *buf.own(), rel, chain);
      }
    }
    co_return;
  }

  // Hand a page whose write to (dev, lba) from `buf` just completed to the
  // software cache, so the next read of it hits HBM instead of reading it
  // back from flash. The Share-Table demotion's single probe
  // (demoteToCache): a no-op when the page is cached or in flight.
  gpu::GpuTask<void> installWritten(gpu::KernelCtx& ctx, std::uint32_t dev,
                                    std::uint64_t lba, const AgileBuf& buf,
                                    AgileLockChain& chain) {
    co_await demoteToCache(ctx, makeTag(dev, lba), buf, chain);
  }

  // Mark a shared buffer dirty (MOESI Modified, §3.4.1).
  void markBufModified(AgileBufPtr& buf) {
    if constexpr (Share::kEnabled) {
      if (buf.shareEntry() != nullptr) {
        share_.markModified(*buf.shareEntry());
      }
    }
  }

  // ------------------------------------------------------- Method 3 ----
  //
  // The array view (the paper's agileArr[dev][idx]). The device is not the
  // caller's: every element resolves to its (device, LBA, byte offset)
  // through cfg.stripe (core::elemAddr), so an array spans the stripe
  // group. T must not straddle SSD pages.

  // Synchronous element read through the software cache: the one-element
  // case of the page-run read below.
  template <class T>
  gpu::GpuTask<T> arrayRead(gpu::KernelCtx& ctx, std::uint64_t elemIdx,
                            AgileLockChain& chain) {
    T v;
    co_await arrayRead<T>(ctx, std::span<const std::uint64_t>(&elemIdx, 1),
                          std::span<T>(&v, 1), chain);
    co_return v;
  }

  // Synchronous read of a page run: every element of `elemIdxs` lies on one
  // SSD page, resolved by one demand probe (counted as one arrayRead).
  // Each element then pays one word access and one copy, all in the probe's
  // segment with no await in between, so the line cannot be evicted or
  // refilled under the run.
  template <class T>
  gpu::GpuTask<void> arrayRead(gpu::KernelCtx& ctx,
                               std::span<const std::uint64_t> elemIdxs,
                               std::span<T> out, AgileLockChain& chain) {
    AGILE_CHECK(!elemIdxs.empty() && out.size() == elemIdxs.size());
    ++stats_.arrayReads;
    const ElemAddr page = elemAddr<T>(elemIdxs[0], cfg_.stripe);
    const std::uint32_t li =
        co_await demandLine(ctx, makeTag(page.dev, page.lba), chain);
    for (std::size_t k = 0; k < elemIdxs.size(); ++k) {
      const ElemAddr at = elemAddr<T>(elemIdxs[k], cfg_.stripe);
      AGILE_CHECK_MSG(at.byteOff + sizeof(T) <= nvme::kLbaBytes,
                      "element straddles SSD pages");
      AGILE_CHECK_MSG(at.dev == page.dev && at.lba == page.lba,
                      "page run spans more than one SSD page");
      // Budget exhausted: degrade instead of crashing. The caller observes
      // stats().exhaustedRetries (and, for fault runs, host ioHealth()).
      if (li == Cache::npos) {
        out[k] = T{};
        continue;
      }
      ctx.charge(cache_.costs().word);
      std::memcpy(&out[k], cache_.line(li).data + at.byteOff, sizeof(T));
    }
  }

  // Read if cached, else fill: the element when its page is READY in the
  // software cache, nothing otherwise. A miss claims the line and issues its
  // fill, bounded exactly like prefetch(); a BUSY line already has its fill
  // in flight. Either way the caller reads the element later (arrayRead).
  // With cfg.warpCoalescing one leader per distinct page probes and shuffles
  // the line index to its peers, so lanes must be converged.
  template <class T>
  gpu::GpuTask<std::optional<T>> arrayReadOrFill(gpu::KernelCtx& ctx,
                                                 std::uint64_t elemIdx,
                                                 AgileLockChain& chain) {
    ++stats_.prefetches;
    const ElemAddr at = elemAddr<T>(elemIdx, cfg_.stripe);
    AGILE_CHECK_MSG(at.byteOff + sizeof(T) <= nvme::kLbaBytes,
                    "element straddles SSD pages");
    const std::uint64_t tag = makeTag(at.dev, at.lba);
    std::uint32_t leader = ctx.laneId();
    if (cfg_.warpCoalescing) leader = co_await warpLeader(ctx, tag);
    std::uint32_t hitLine = Cache::npos;
    if (ctx.laneId() == leader) {
      hitLine = co_await fillCacheLine(ctx, at.dev, at.lba, chain);
    } else {
      ++stats_.prefetchCoalesced;
    }
    if (cfg_.warpCoalescing) {
      hitLine = static_cast<std::uint32_t>(
          co_await gpu::warpShfl(ctx, hitLine, leader));
    }
    if (hitLine == Cache::npos) co_return std::nullopt;
    // The line may have been evicted, or refilled for another page, while
    // this lane was suspended since the leader's probe: re-check it.
    const CacheLine& l = cache_.line(hitLine);
    if (l.tag != tag ||
        (l.state != LineState::kReady && l.state != LineState::kModified)) {
      co_return std::nullopt;
    }
    ctx.charge(cache_.costs().word);
    T v;
    std::memcpy(&v, l.data + at.byteOff, sizeof(T));
    co_return v;
  }

  // Synchronous element store (read-modify-write through the cache; the
  // line turns MODIFIED and is written back on eviction).
  template <class T>
  gpu::GpuTask<void> arrayWrite(gpu::KernelCtx& ctx, std::uint64_t elemIdx,
                                T value, AgileLockChain& chain) {
    const ElemAddr at = elemAddr<T>(elemIdx, cfg_.stripe);
    AGILE_CHECK(at.byteOff + sizeof(T) <= nvme::kLbaBytes);
    const std::uint64_t tag = makeTag(at.dev, at.lba);
    const std::uint32_t li = co_await demandLine(ctx, tag, chain);
    if (li == Cache::npos) co_return;  // degraded: the write is dropped
    ctx.charge(cache_.costs().word);
    std::memcpy(cache_.line(li).data + at.byteOff, &value, sizeof(T));
    cache_.markModified(li);
    if constexpr (Share::kEnabled) share_.invalidate(tag);
  }

  // ------------------------------------- unified async surface (tokens) ----

  // Submit a descriptor batch: one coalesced resolve pass over the entries,
  // then every command that must reach an SSD is placed on a single SQ and
  // covered by one doorbell write per target device (§3.3 batching). The
  // IoBatch object must outlive the returned token. Lanes of a warp whose
  // batches are identical elect a leader for the prefetch portion; demand
  // entries (reads/writes) always run, their duplicates are absorbed by the
  // Share Table and the cache's BUSY state.
  AGILE_NODISCARD("the token is the only poll/wait handle")
  gpu::GpuTask<IoToken> submitBatch(gpu::KernelCtx& ctx, IoBatch& batch,
                                    AgileLockChain& chain) {
    ctx.charge(cost::kTokenAlloc);
    const IoToken t = ops_.alloc(IoOpKind::kBatch);
    ++stats_.batchSubmits;
    stats_.batchRequests += batch.size();
    ops_.get(t)->batch = &batch;

    bool prefetchLeader = true;
    if (cfg_.warpCoalescing && !batch.empty()) {
      const std::uint32_t leader = co_await warpLeader(ctx, batch.signature());
      prefetchLeader = ctx.laneId() == leader;
    }

    // Pass 1: resolve every entry; collect the commands that need the SSD.
    PendingCmd cmds[IoBatch::kMaxEntries];
    std::uint32_t nCmds = 0;
    for (std::uint32_t i = 0; i < batch.size(); ++i) {
      const IoBatch::Entry& e = batch.entry(i);
      ctx.charge(cost::kBatchEntryScan);
      switch (e.kind) {
        case IoOpKind::kRead: {
          AGILE_CHECK(e.buf != nullptr);
          PendingCmd& pc = cmds[nCmds];
          pc.dev = e.dev;
          if (resolveRead(ctx, e.dev, e.lba, *e.buf, &pc.cmd, &pc.txn)) {
            pc.txn.tenant = batch.tenant();
            ++nCmds;
          }
          break;
        }
        case IoOpKind::kWrite: {
          AGILE_CHECK(e.buf != nullptr);
          PendingCmd& pc = cmds[nCmds];
          pc.dev = e.dev;
          co_await prepareWrite(ctx, e.dev, e.lba, *e.buf, &pc.cmd, &pc.txn);
          pc.txn.tenant = batch.tenant();
          ++nCmds;
          break;
        }
        case IoOpKind::kPrefetch: {
          if (!prefetchLeader || duplicatePrefetch(batch, i)) {
            ++stats_.prefetchCoalesced;
            break;
          }
          ++stats_.prefetches;
          // A claimed line's fill joins the batched doorbell; a page that
          // is present, in flight or dropped needs no command.
          std::uint32_t line = 0;
          const ClaimResult r = co_await claimLine(
              ctx, makeTag(e.dev, e.lba), chain, kPrefetchClaimBudget, &line);
          if (r != ClaimResult::kClaimed) break;
          noteLineOwner(cache_.line(line), batch.tenant());
          cmds[nCmds++] = fillCmd(e.dev, e.lba, cache_.line(line),
                                  ops_.ref(t), batch.tenant());
          ++ops_.get(t)->pendingFills;
          break;
        }
        default:
          AGILE_CHECK_MSG(false, "empty batch entry");
      }
    }

    // Pass 2: each target SSD's commands, in batch order, form one run on
    // a width-1 slice at the warp-preferred queue pair: one SQ, and one
    // doorbell unless the ring fills.
    QueuePairSet& qps = host_->queuePairs();
    for (std::uint32_t dev = 0, issued = 0; issued < nCmds; ++dev) {
      nvme::Sqe devCmds[IoBatch::kMaxEntries];
      Transaction devTxns[IoBatch::kMaxEntries];
      std::uint32_t devN = 0;
      for (std::uint32_t i = 0; i < nCmds; ++i) {
        if (cmds[i].dev != dev) continue;
        devCmds[devN] = cmds[i].cmd;
        devTxns[devN++] = cmds[i].txn;
      }
      if (devN == 0) continue;
      const QpSlice all = qps.slice(dev);
      const QpSlice one{all.first + ctx.globalWarpIdx() % all.count, 1};
      stats_.batchDoorbells +=
          co_await issueRun(ctx, one, 0, devCmds, devTxns, devN, chain);
      issued += devN;
    }
    co_return t;
  }

  // Non-blocking batch-token status. Stale tokens (already observed terminal
  // and recycled) report kRetired.
  IoStatus poll(gpu::KernelCtx& ctx, const IoToken& t) {
    ctx.charge(cost::kTokenPoll);
    IoOp* op = ops_.get(t);
    if (op == nullptr) return IoStatus::kRetired;
    if (op->pendingFills > 0 || !op->batch->buffersReady()) {
      return IoStatus::kPending;
    }
    return (op->sawError || op->batch->anyBufferFailed()) ? IoStatus::kFailed
                                                          : IoStatus::kDone;
  }

  // Block (event-driven) until every entry of the batch is terminal; true
  // iff all completed without NVMe errors. Observing the terminal state
  // retires the token: its slot recycles and later poll()s report kRetired.
  gpu::GpuTask<bool> wait(gpu::KernelCtx& ctx, IoToken t) {
    for (;;) {
      ctx.charge(cost::kBarrierCheck);
      IoOp* op = ops_.get(t);
      if (op == nullptr) co_return true;  // observed elsewhere already
      IoBatch* batch = op->batch;
      for (std::uint32_t i = 0; i < batch->size(); ++i) {
        const IoBatch::Entry& e = batch->entry(i);
        if (e.buf != nullptr && e.buf->active() != nullptr) {
          (void)co_await barrierWait(ctx, e.buf->active()->barrier());
        }
      }
      op = ops_.get(t);
      if (op == nullptr) co_return true;
      if (op->pendingFills > 0) {
        co_await ctx.parkOn(op->waiters);
        continue;
      }
      const bool ok = !op->sawError && !batch->anyBufferFailed();
      ops_.retire(t);
      co_return ok;
    }
  }

 private:
  // Bounded claim-and-fill behind prefetch, prefetchDivergent and the
  // read-or-fill leader. Returns the line when the page is already READY or
  // MODIFIED, npos otherwise (fill issued, in flight, or dropped).
  gpu::GpuTask<std::uint32_t> fillCacheLine(gpu::KernelCtx& ctx,
                                            std::uint32_t dev,
                                            std::uint64_t lba,
                                            AgileLockChain& chain) {
    std::uint32_t line = 0;
    const ClaimResult r = co_await claimLine(ctx, makeTag(dev, lba), chain,
                                             kPrefetchClaimBudget, &line);
    switch (r) {
      case ClaimResult::kHit:
        co_return line;
      case ClaimResult::kBusy:       // already in flight (second level)
      case ClaimResult::kExhausted:  // dropped; demand fetches it later
        break;
      case ClaimResult::kClaimed:
        co_await issueFill(ctx, dev, lba, cache_.line(line), chain);
        break;
    }
    co_return Cache::npos;
  }

  gpu::GpuTask<void> issueFill(gpu::KernelCtx& ctx, std::uint32_t dev,
                               std::uint64_t lba, CacheLine& line,
                               AgileLockChain& chain) {
    noteLineOwner(line, qos::kHostTenant);
    PendingCmd fill = fillCmd(dev, lba, line, {}, qos::kHostTenant);
    // Fills stay shard-local: the line's home shard selects its affine QP
    // slice on the target device (no-op at one shard).
    co_await issueToSsd(ctx, dev, fill.cmd, fill.txn, chain,
                        cache_.shardOfTag(makeTag(dev, lba)),
                        cache_.shardCount());
  }

  gpu::GpuTask<void> issueWriteback(gpu::KernelCtx& ctx, CacheLine& line,
                                    AgileLockChain& chain) {
    AGILE_CHECK(line.state == LineState::kBusy && line.evicting);
    const std::uint32_t dev = tagDev(line.tag);
    const std::uint64_t lba = tagLba(line.tag);
    nvme::Sqe cmd = makeCmd(nvme::Opcode::kWrite, lba,
                            host_->gpu().hbm().physAddr(line.data));
    Transaction txn;
    txn.kind = TxnKind::kCacheWriteback;
    txn.line = &line;
    // Writebacks follow the evicted line's shard so the eviction traffic of
    // one shard cannot fill another shard's queues.
    co_await issueToSsd(ctx, dev, cmd, txn, chain,
                        cache_.shardOfTag(line.tag), cache_.shardCount());
  }

  // A single command is a run of one on its shard's slice of the device,
  // starting from the warp-indexed queue pair (§3.3.1). Cache-originated
  // traffic (fills, writebacks) passes its shard identity and probes only
  // that shard's slice of the device's queue pairs (QueuePairSet::slice);
  // shardTotal <= 1 selects over the device's full QP range.
  gpu::GpuTask<std::uint32_t> issueToSsd(gpu::KernelCtx& ctx,
                                         std::uint32_t dev, nvme::Sqe& cmd,
                                         Transaction& txn,
                                         AgileLockChain& chain,
                                         std::uint32_t shard = 0,
                                         std::uint32_t shardTotal = 1) {
    const QpSlice slice = host_->queuePairs().slice(dev, shard, shardTotal);
    return issueRun(ctx, slice, ctx.globalWarpIdx() % slice.count, &cmd, &txn,
                    1, chain);
  }

  // Issue cmds[0, n) to one SSD; returns the doorbells rung. QoS admits
  // the whole run at once (one run, one tenant; a reject settles it all).
  // Each round takes its first SQE from `slice` rotating from `start`, the
  // rest from the queue pair that granted it, and rings once; a full ring
  // ends the round. With the slice full, the lane parks until the service
  // (not another user thread) frees an entry — no §2.3.1 deadlock — in
  // tenant virtual-time order under WFQ.
  gpu::GpuTask<std::uint32_t> issueRun(gpu::KernelCtx& ctx, QpSlice slice,
                                       std::uint32_t start,
                                       const nvme::Sqe* cmds,
                                       Transaction* txns, std::uint32_t n,
                                       AgileLockChain& chain) {
    AGILE_CHECK(n >= 1 && n <= IoBatch::kMaxEntries);
    const SimTime submitNs = host_->engine().now();
    for (std::uint32_t i = 0; i < n; ++i) txns[i].submitNs = submitNs;
    const qos::TenantId tenant = txns[0].tenant;
    qos::QosManager* q = host_->qosManager();
    if (q != nullptr) {
      const bool admitted = co_await admitSubmission(
          ctx, tenant, n * static_cast<std::uint32_t>(nvme::kLbaBytes));
      if (!admitted) {
        for (std::uint32_t i = 0; i < n; ++i) {
          settleTransaction(host_->engine(), txns[i],
                            nvme::Status::kCommandAborted);
        }
        co_return 0;
      }
    }
    QueuePairSet& qps = host_->queuePairs();
    std::uint32_t rings = 0;
    for (std::uint32_t done = 0; done < n;) {
      SlotGrant g = qps.acquireSlot(slice, start, host_->engine().now());
      ctx.charge(g.probes * cost::kSqeAlloc);
      if (!g) {
        co_await ctx.parkOn(
            slotWaiters(*qps.sqs[slice.first + start], tenant));
        continue;
      }
      AgileSq& sq = *g.sq;
      const QpSlice granted{slice.first + g.index, 1};
      std::uint32_t slots[IoBatch::kMaxEntries];
      std::uint32_t got = 0;
      slots[got++] = g.slot;
      while (done + got < n) {
        g = qps.acquireSlot(granted, 0, host_->engine().now());
        ctx.charge(g.probes * cost::kSqeAlloc);
        if (!g) break;
        slots[got++] = g.slot;
      }
      if (q != nullptr) {
        q->onGrant(tenant, got * static_cast<std::uint32_t>(nvme::kLbaBytes));
      }
      writeAndRing(ctx, chain, sq, slots, cmds + done, txns + done, got);
      ++rings;
      done += got;
    }
    co_return rings;
  }

  struct PendingCmd {
    std::uint32_t dev = 0;
    nvme::Sqe cmd;
    Transaction txn;
  };

  // Retry budget of bounded (prefetch-flavor) claim loops: a prefetch that
  // cannot claim a line in this many probe rounds is dropped, and demand
  // fetches the page later.
  static constexpr std::uint32_t kPrefetchClaimBudget = 64;
  // Probe budget of the demand loop (array reads/writes, propagation): only
  // a cache wedged by faults spends it, and the access then degrades.
  static constexpr std::uint32_t kDemandClaimBudget = 100000;

  enum class ClaimResult : std::uint8_t {
    kHit,        // READY or MODIFIED: *outLine holds the data now
    kBusy,       // fill already in flight (second-level coalesce)
    kClaimed,    // *outLine claimed BUSY for this tag; caller owns the fill
    kExhausted,  // retry budget spent with every candidate BUSY
  };

  // The probe/claim retry state machine shared by every prefetch-flavor
  // path (fillCacheLine, batch prefetch entries): handles dirty-victim
  // writebacks and all-BUSY stalls with awaits between attempts. Unlike
  // demandLine it returns on a BUSY line (the fill in flight serves the
  // prefetch) and hands a stall admission it did not use on. A spent budget
  // drops the prefetch, counted here in prefetchDropped.
  AGILE_NODISCARD("kClaimed hands back a BUSY line the caller must settle")
  gpu::GpuTask<ClaimResult> claimLine(gpu::KernelCtx& ctx, std::uint64_t tag,
                                      AgileLockChain& chain,
                                      std::uint32_t budget,
                                      std::uint32_t* outLine) {
    // A line leaving BUSY admits one stalled claimant of its shard
    // (CacheLine::stallWaiters). An admitted claimant that takes no line,
    // because its page turned up present or its budget ran out, hands the
    // admission on; otherwise the shard's other stalled claimants could
    // sleep beside READY lines forever.
    bool admitted = false;
    for (std::uint32_t attempt = 0; attempt < budget; ++attempt) {
      const ProbeResult r = cache_.probeOrClaim(ctx, tag);
      if (std::exchange(admitted, false) &&
          (r.outcome == ProbeOutcome::kHit ||
           r.outcome == ProbeOutcome::kBusy)) {
        cache_.stallWaiters(r.shard).notifyOne(host_->engine());
      }
      switch (r.outcome) {
        case ProbeOutcome::kHit:
          *outLine = r.line;
          co_return ClaimResult::kHit;
        case ProbeOutcome::kBusy:
          co_return ClaimResult::kBusy;
        case ProbeOutcome::kClaimed:
          *outLine = r.line;
          co_return ClaimResult::kClaimed;
        case ProbeOutcome::kNeedWriteback:
          co_await issueWriteback(ctx, cache_.line(r.line), chain);
          break;
        case ProbeOutcome::kStall:
          // Every candidate line is BUSY: park until a completion frees one
          // (timed backoff would melt down under cache thrash, §4.4/Fig 10).
          co_await ctx.parkOn(cache_.stallWaiters(r.shard));
          admitted = true;
          break;
      }
    }
    if (admitted) {
      cache_.stallWaiters(cache_.shardOfTag(tag)).notifyOne(host_->engine());
    }
    ++stats_.prefetchDropped;  // cache too contended; demand fetches it later
    co_return ClaimResult::kExhausted;
  }

  // The demand probe/claim loop behind arrayRead, arrayWrite and Share-Table
  // propagation: waits out BUSY lines, writes back dirty victims and parks on
  // all-BUSY stalls until the page is READY or MODIFIED, and returns that
  // line (npos once the budget is spent, counted in exhaustedRetries). A
  // claimed line is filled from the SSD, or, with fillFrom, locally from that
  // buffer (no SSD round trip): the caller then writes the same bytes as on a
  // hit and pays the one line copy. Unlike claimLine it hands no stall
  // admission on; doing so would change fig10's AGILE-sync column.
  gpu::GpuTask<std::uint32_t> demandLine(gpu::KernelCtx& ctx,
                                         std::uint64_t tag,
                                         AgileLockChain& chain,
                                         const AgileBuf* fillFrom = nullptr) {
    for (std::uint32_t attempt = 0; attempt < kDemandClaimBudget; ++attempt) {
      const ProbeResult r = cache_.probeOrClaim(ctx, tag);
      switch (r.outcome) {
        case ProbeOutcome::kHit:
          co_return r.line;
        case ProbeOutcome::kBusy:
          co_await ctx.parkOn(cache_.line(r.line).readyWaiters);
          break;
        case ProbeOutcome::kClaimed: {
          CacheLine& l = cache_.line(r.line);
          if (fillFrom == nullptr) {
            co_await issueFill(ctx, tagDev(tag), tagLba(tag), l, chain);
            break;
          }
          fillLineFrom(ctx, l, *fillFrom);
          co_return r.line;
        }
        case ProbeOutcome::kNeedWriteback:
          co_await issueWriteback(ctx, cache_.line(r.line), chain);
          break;
        case ProbeOutcome::kStall:
          // Every candidate line is BUSY: park until a completion frees one
          // (timed backoff would melt down under cache thrash, §4.4/Fig 10).
          co_await ctx.parkOn(cache_.stallWaiters(r.shard));
          break;
      }
    }
    ++stats_.exhaustedRetries;
    co_return Cache::npos;
  }

  // First-level coalescing (§3.3.2): the lowest lane of the warp whose key
  // matches this lane's. Requires converged lanes. Keep the await in its own
  // statement (agile-lint: co-await-short-circuit).
  gpu::GpuTask<std::uint32_t> warpLeader(gpu::KernelCtx& ctx,
                                         std::uint64_t key) {
    ctx.charge(cost::kCoalesceMatch);
    const std::uint32_t peers = co_await gpu::warpMatchAny(ctx, key);
    co_return static_cast<std::uint32_t>(std::countr_zero(peers));
  }

  // The SSD -> cache-line read command for a claimed line, and the
  // transaction that settles it.
  PendingCmd fillCmd(std::uint32_t dev, std::uint64_t lba, CacheLine& line,
                     IoOpRef op, qos::TenantId tenant) const {
    PendingCmd f;
    f.dev = dev;
    f.cmd = makeCmd(nvme::Opcode::kRead, lba,
                    host_->gpu().hbm().physAddr(line.data));
    f.txn.kind = TxnKind::kCacheFill;
    f.txn.line = &line;
    f.txn.op = op;
    f.txn.tenant = tenant;
    return f;
  }

  // Resolve an async read against the Share Table and the software cache.
  // Returns true when a direct SSD -> buffer command must be issued (written
  // to *outCmd / *outTxn); false when the request resolved locally (share
  // hit, cache hit, or attached to an in-flight fill).
  bool resolveRead(gpu::KernelCtx& ctx, std::uint32_t dev, std::uint64_t lba,
                   AgileBufPtr& buf, nvme::Sqe* outCmd, Transaction* outTxn) {
    ++stats_.asyncReads;
    const std::uint64_t tag = makeTag(dev, lba);
    AGILE_CHECK_MSG(buf.own() != nullptr && buf.own()->data() != nullptr,
                    "asyncRead requires a bound buffer");
    // A reused handle may still point at a peer's buffer from an earlier
    // Share-Table redirect; this read tracks the caller's own buffer unless
    // the attach below redirects it again.
    buf.bindOwn(*buf.own());

    // Share Table first (§3.4.1: highest priority in the hierarchy).
    if constexpr (Share::kEnabled) {
      if (ShareEntry* e = share_.attach(ctx, tag)) {
        buf.pointAt(*e->buf, e);
        return false;  // data (or its in-flight barrier) is the owner's
      }
    }

    // Fall back to the software cache.
    const ProbeResult r = cache_.probeOnly(ctx, tag);
    if (r.outcome == ProbeOutcome::kHit) {
      ctx.charge(cache_.costs().lineCopy);
      std::memcpy(buf.own()->data(), cache_.line(r.line).data,
                  nvme::kLbaBytes);
      return false;
    }
    if (r.outcome == ProbeOutcome::kBusy) {
      // Second-level coalescing: ride the in-flight fill.
      ctx.charge(cost::kBufAttach);
      cache_.line(r.line).appendBufWaiter(*buf.own());
      return false;
    }

    // Miss: direct SSD -> user buffer, registered in the Share Table so
    // concurrent readers of the same page share this buffer.
    ++stats_.directReads;
    if constexpr (Share::kEnabled) {
      // Registration is the side effect; the release path recovers the
      // owner's entry by tag (ShareTable::find), so the handle is
      // deliberately not kept here.
      static_cast<void>(share_.registerOwner(ctx, tag, *buf.own()));
    }
    if (buf.own()->barrier().ready()) buf.own()->barrier().reset();
    buf.own()->barrier().addPending();
    *outCmd = makeCmd(nvme::Opcode::kRead, lba,
                      host_->gpu().hbm().physAddr(buf.own()->data()));
    outTxn->kind = TxnKind::kBufRead;
    outTxn->buf = buf.own();
    return true;
  }

  // Stage an async write's payload, keep the cache coherent, and build the
  // SSD command (always needed; issue is the caller's). May park on the
  // staging pool and on BUSY lines (write-after-write through the SSD).
  gpu::GpuTask<void> prepareWrite(gpu::KernelCtx& ctx, std::uint32_t dev,
                                  std::uint64_t lba, AgileBufPtr& buf,
                                  nvme::Sqe* outCmd, Transaction* outTxn) {
    ++stats_.asyncWrites;
    const std::uint64_t tag = makeTag(dev, lba);
    AGILE_CHECK(buf.own() != nullptr && buf.own()->data() != nullptr);

    std::byte* staging;
    for (;;) {
      staging = host_->staging().tryGet();
      if (staging != nullptr) break;
      co_await ctx.parkOn(host_->staging().waiters());
    }
    ctx.charge(cache_.costs().lineCopy);
    std::memcpy(staging, buf.own()->data(), nvme::kLbaBytes);

    // Coherency: land the new data in any cached copy of this page. A line
    // whose fill or writeback is in flight is waited out so the older I/O
    // cannot clobber the update (write-after-write through the SSD).
    for (;;) {
      const std::uint32_t li = cache_.findLine(tag);
      if (li == Cache::npos) break;
      CacheLine& l = cache_.line(li);
      if (l.state == LineState::kBusy) {
        co_await ctx.parkOn(l.evicting ? l.freedWaiters : l.readyWaiters);
        continue;
      }
      if (l.state == LineState::kReady || l.state == LineState::kModified) {
        ctx.charge(cache_.costs().lineCopy);
        std::memcpy(l.data, staging, nvme::kLbaBytes);
        // Written through: the cached copy matches what will be on flash.
        l.state = LineState::kReady;
      }
      break;
    }
    if constexpr (Share::kEnabled) share_.invalidate(tag);

    if (buf.own()->barrier().ready()) buf.own()->barrier().reset();
    buf.own()->barrier().addPending();
    *outCmd = makeCmd(nvme::Opcode::kWrite, lba,
                      host_->gpu().hbm().physAddr(staging));
    outTxn->kind = TxnKind::kBufWrite;
    outTxn->staging = staging;
    outTxn->stagingPool = &host_->staging();
    outTxn->barrier = &buf.own()->barrier();
  }

  // True when an earlier batch entry already prefetches the same page.
  static bool duplicatePrefetch(const IoBatch& batch, std::uint32_t idx) {
    const IoBatch::Entry& e = batch.entry(idx);
    for (std::uint32_t j = 0; j < idx; ++j) {
      const IoBatch::Entry& p = batch.entry(j);
      if (p.kind == IoOpKind::kPrefetch && p.dev == e.dev && p.lba == e.lba) {
        return true;
      }
    }
    return false;
  }

  // Land `src` in a line claimed BUSY for its page, with no SSD round trip:
  // the line turns READY and wakes anyone parked on it.
  void fillLineFrom(gpu::KernelCtx& ctx, CacheLine& l, const AgileBuf& src) {
    noteLineOwner(l, qos::kHostTenant);
    std::memcpy(l.data, src.data(), nvme::kLbaBytes);
    l.clearBusy(LineState::kReady);
    l.readyWaiters.notifyAll(ctx.engine());
  }

  // The epilogue of every Share-Table release (releaseBuf, releaseOwned):
  // the last holder hands the page down one level, into the software cache.
  // A Modified buffer is propagated; a clean one whose read succeeded is
  // demoted (both callers have checked that the barrier is ready). A
  // detached entry hands nothing down: the write that detached it is newer
  // than the buffer.
  gpu::GpuTask<void> settleLastRelease(gpu::KernelCtx& ctx, std::uint64_t tag,
                                       AgileBuf& buf, ShareRelease rel,
                                       AgileLockChain& chain) {
    switch (rel) {
      case ShareRelease::kLastModified:
        co_await propagateToCache(ctx, tag, buf, chain);
        break;
      case ShareRelease::kLastClean:
        if (!buf.barrier().failed()) {
          const bool demoted = co_await demoteToCache(ctx, tag, buf, chain);
          if (demoted) share_.noteDemotion();
        }
        break;
      case ShareRelease::kHeld:
      case ShareRelease::kLastDetached:
        break;
    }
  }

  // Demote a clean page leaving the Share Table into the software cache
  // (the line ends READY), so the next reader of the page hits HBM instead
  // of flash. One probe, kept out of the demand hit/miss counts, and no
  // suspension before the install, so no write can land between the
  // release and the copy. A page already present or in flight needs
  // nothing; an all-BUSY shard drops the demotion rather than park; a
  // dirty victim is written back and the demotion dropped. True when the
  // page was installed.
  gpu::GpuTask<bool> demoteToCache(gpu::KernelCtx& ctx, std::uint64_t tag,
                                   const AgileBuf& buf, AgileLockChain& chain) {
    const ProbeResult r =
        cache_.probeOrClaim(ctx, tag, /*countLookup=*/false);
    if (r.outcome == ProbeOutcome::kClaimed) {
      ctx.charge(cache_.costs().lineCopy);
      fillLineFrom(ctx, cache_.line(r.line), buf);
      co_return true;
    }
    if (r.outcome == ProbeOutcome::kNeedWriteback) {
      co_await issueWriteback(ctx, cache_.line(r.line), chain);
    }
    co_return false;
  }

  // Propagate a Modified shared buffer into the software cache (becomes a
  // MODIFIED line; the normal eviction path writes it to flash).
  gpu::GpuTask<void> propagateToCache(gpu::KernelCtx& ctx, std::uint64_t tag,
                                      AgileBuf& buf, AgileLockChain& chain) {
    const std::uint32_t li = co_await demandLine(ctx, tag, chain, &buf);
    if (li == Cache::npos) co_return;  // degraded: the propagation is dropped
    ctx.charge(cache_.costs().lineCopy);
    std::memcpy(cache_.line(li).data, buf.data(), nvme::kLbaBytes);
    cache_.markModified(li);
  }

  // Token-bucket admission loop: park-and-retry until the tenant's bucket
  // covers `bytes`, or the per-submission defer budget runs out (false =
  // rejected; the caller settles the transaction with the admission error).
  gpu::GpuTask<bool> admitSubmission(gpu::KernelCtx& ctx, qos::TenantId tenant,
                                     std::uint32_t bytes) {
    qos::QosManager* q = host_->qosManager();
    AGILE_CHECK(q != nullptr);
    std::uint32_t defers = 0;
    for (;;) {
      SimTime readyAt = 0;
      switch (q->tryAdmit(tenant, bytes, defers, &readyAt)) {
        case qos::Admission::kAdmit:
          co_return true;
        case qos::Admission::kReject:
          co_return false;
        case qos::Admission::kDefer:
          ++defers;
          q->armAdmitTimer(tenant, readyAt);
          co_await ctx.parkOn(q->admitWaiters(tenant));
          break;
      }
    }
  }

  // d4n-style cache-space accounting: a line's owner changes exactly when a
  // tenant claims it (fill, propagation, demotion), so
  // QosManager::cacheLines(t) counts the lines a tenant currently holds in
  // the shared cache. No-op (beyond the stored owner id) without QoS.
  void noteLineOwner(CacheLine& line, qos::TenantId t) {
    if (qos::QosManager* q = host_->qosManager()) {
      q->onCacheLineOwner(line.tenant, t.value);
    }
    line.tenant = t.value;
  }

  static nvme::Sqe makeCmd(nvme::Opcode op, std::uint64_t lba,
                           std::uint64_t prp1) {
    nvme::Sqe cmd;
    cmd.opcode = static_cast<std::uint8_t>(op);
    cmd.prp1 = prp1;
    cmd.slba = lba;
    cmd.nlb = 0;
    return cmd;
  }

  AgileHost* host_;
  CtrlConfig cfg_;
  Cache cache_;
  Share share_;
  CtrlStats stats_;
  IoOpPool ops_;
};

using DefaultCtrl = AgileCtrl<ClockPolicy, DefaultSharePolicy>;

}  // namespace agile::core
