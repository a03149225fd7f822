// Template implementation of the DLRM pipeline runner (included from
// dlrm.h). Kept separate so dlrm.h stays readable.
#pragma once

#include <algorithm>
#include <optional>

#include "nvme/flash_store.h"

namespace agile::apps {
namespace detail {

// Row id -> element index of the embedding word array (16 uint64 words per
// 128 B row).
inline std::uint64_t rowToElem(const DlrmConfig& cfg, std::uint64_t row) {
  return row * (cfg.embDim * sizeof(float) / sizeof(std::uint64_t));
}

inline gpu::LaunchConfig gatherLaunch(std::uint32_t batch, const char* name) {
  const std::uint32_t blockDim = std::min<std::uint32_t>(128, batch);
  const std::uint32_t gridDim =
      std::min<std::uint32_t>(64, ceilDiv(batch, blockDim));
  return {.gridDim = gridDim, .blockDim = blockDim, .name = name};
}

}  // namespace detail

template <class AgileCtrlT>
DlrmRunResult runDlrm(core::AgileHost& host, const DlrmConfig& cfg,
                      DlrmTrace& trace, DlrmMode mode, AgileCtrlT* ctrl,
                      bam::DefaultBamCtrl* bamCtrl, std::uint32_t batch,
                      std::uint32_t epochs, std::uint32_t warmupEpochs,
                      std::uint32_t gatherDepth) {
  AGILE_CHECK(mode == DlrmMode::kBam ? bamCtrl != nullptr : ctrl != nullptr);
  const std::uint32_t tables = cfg.numTables;
  const std::uint32_t totalEpochs = epochs + warmupEpochs;
  auto& engine = host.engine();

  // The embedding word array is laid out over the AGILE controller's stripe
  // (BaM reads it unstriped); every lookup resolves through this one map.
  const core::StripeMap stripe =
      mode == DlrmMode::kBam ? core::StripeMap{} : ctrl->stripe();
  const auto rowAddr = [&](std::uint64_t row) {
    return core::elemAddr<std::uint64_t>(detail::rowToElem(cfg, row), stripe);
  };
  const auto ssdReads = [&host] {
    std::uint64_t n = 0;
    for (std::uint32_t d = 0; d < host.ssdCount(); ++d) {
      n += host.ssd(d).readsCompleted();
    }
    return n;
  };

  std::uint64_t ssdReadsBefore = ssdReads();
  const std::uint64_t abortsBefore =
      host.ioTimeouts() + host.ioHealth().aborted;
  std::uint64_t hitsBefore = 0, missesBefore = 0;
  auto snapshotStats = [&] {
    ssdReadsBefore = ssdReads();
    if (mode == DlrmMode::kBam) {
      hitsBefore = bamCtrl->cache().stats().hits;
      missesBefore = bamCtrl->cache().stats().misses;
    } else {
      hitsBefore = ctrl->cache().stats().hits;
      missesBefore = ctrl->cache().stats().misses;
    }
  };

  // Per-epoch row buffers (current and, for async, next).
  std::vector<std::uint64_t> cur = trace.epochRows(0, batch);
  const std::size_t slots = cur.size();
  // The gathered word of every (sample, table) slot of the epoch in flight,
  // and (async) whether the gather-ahead left the slot for the residual
  // gather. The MLP model consumes no values, so one array serves the
  // epoch being gathered ahead and the one being computed.
  std::vector<std::uint64_t> words(slots);
  std::vector<std::uint8_t> pending(
      mode == DlrmMode::kAgileAsync ? slots : 0);

  // Gather: one thread per sample; each reads its `tables` embedding rows.
  // With `pendingOnly` (the async residual gather) only the slots the
  // gather-ahead left pending are read. With gatherDepth > 0 (AGILE modes),
  // each thread runs a depth-K pipeline over its own (sample, table)
  // sequence: the page of the row `gatherDepth` positions ahead is
  // prefetched while the current row is read, so the embedding gather
  // overlaps SSD latency instead of blocking per row.
  auto makeGather = [&](const std::vector<std::uint64_t>& rows,
                        bool pendingOnly) {
    return [&, rowsPtr = rows.data(), pendingOnly](
               gpu::KernelCtx& ctx) -> gpu::GpuTask<void> {
      core::AgileLockChain chain;
      const std::uint32_t stride = ctx.gridDim() * ctx.blockDim();
      const auto wanted = [&](std::size_t slot) {
        return !pendingOnly || pending[slot] != 0;
      };
      for (std::uint32_t s = ctx.globalThreadIdx(); s < batch; s += stride) {
        for (std::uint32_t t = 0; t < tables; ++t) {
          const std::size_t slot = std::size_t{s} * tables + t;
          ctx.charge(cost::kWordAccess);  // trace lookup / pending flag
          if (!wanted(slot)) continue;
          if (mode != DlrmMode::kBam && gatherDepth > 0) {
            // Lookahead position within this thread's gather sequence.
            const std::uint32_t tAhead = t + gatherDepth;
            const std::uint32_t sAhead = s + (tAhead / tables) * stride;
            if (sAhead < batch) {
              ctx.charge(cost::kWordAccess);  // lookahead trace lookup
              const std::size_t ahead =
                  std::size_t{sAhead} * tables + tAhead % tables;
              if (wanted(ahead)) {
                const core::ElemAddr pf = rowAddr(rowsPtr[ahead]);
                co_await ctrl->prefetchDivergent(ctx, pf.dev, pf.lba, chain);
              }
            }
          }
          const std::uint64_t elem = detail::rowToElem(cfg, rowsPtr[slot]);
          if (mode == DlrmMode::kBam) {
            words[slot] = co_await bamCtrl->template readElem<std::uint64_t>(
                ctx, elem, chain);
          } else {
            words[slot] = co_await ctrl->template arrayRead<std::uint64_t>(
                ctx, elem, chain);
          }
          ctx.charge(kEmbRowCopyNs);  // rest of the 128 B row copy
        }
        co_await ctx.yield();
      }
    };
  };

  // Gather-ahead of the next epoch (AGILE async only), launched beside the
  // MLP: one warp-coalesced probe per (sample, table) slot. A cached row is
  // read now; anything else gets its fill issued (or rides one in flight)
  // and is left pending for the residual gather.
  auto makeGatherAhead = [&](const std::vector<std::uint64_t>& rows) {
    return [&, rowsPtr = rows.data()](
               gpu::KernelCtx& ctx) -> gpu::GpuTask<void> {
      core::AgileLockChain chain;
      const std::uint32_t stride = ctx.gridDim() * ctx.blockDim();
      for (std::uint32_t s = ctx.globalThreadIdx(); s < batch; s += stride) {
        for (std::uint32_t t = 0; t < tables; ++t) {
          const std::size_t slot = std::size_t{s} * tables + t;
          ctx.charge(cost::kWordAccess);  // trace lookup
          const std::optional<std::uint64_t> word =
              co_await ctrl->template arrayReadOrFill<std::uint64_t>(
                  ctx, detail::rowToElem(cfg, rowsPtr[slot]), chain);
          pending[slot] = word ? 0 : 1;
          if (word) {
            words[slot] = *word;
            ctx.charge(kEmbRowCopyNs);  // rest of the 128 B row copy
          }
        }
        co_await ctx.yield();
      }
    };
  };

  // Host-side data check of a gathered epoch (uncharged): every word must be
  // the flash pattern of its element.
  std::uint64_t wrongWords = 0;
  auto checkWords = [&](const std::vector<std::uint64_t>& rows) {
    for (std::size_t i = 0; i < slots; ++i) {
      const core::ElemAddr at = rowAddr(rows[i]);
      wrongWords += words[i] != nvme::FlashStore::patternWord(
                                    at.lba, at.byteOff / sizeof(std::uint64_t));
    }
  };

  // MLP: occupy every SM for the virtual GEMM duration.
  const SimTime mlpNs = cfg.mlpNs(batch);
  auto mlpKernel = [&, mlpNs](gpu::KernelCtx& ctx) -> gpu::GpuTask<void> {
    co_await gpu::compute(ctx, mlpNs, /*chunk=*/5000);
  };
  const gpu::LaunchConfig mlpLaunch{.gridDim = host.gpu().computeSms(),
                                    .blockDim = 32,
                                    .name = "dlrm-mlp"};

  SimTime start = engine.now();

  if (mode == DlrmMode::kAgileAsync) {
    // Warm the pipeline: gather ahead epoch 0, then steady-state overlap.
    const bool ok = host.runKernel(
        detail::gatherLaunch(batch, "dlrm-gather-ahead"),
        makeGatherAhead(cur));
    AGILE_CHECK_MSG(ok, "dlrm gather-ahead hung");
  }

  std::uint64_t pendingSlots = 0;
  std::vector<std::uint64_t> next;
  for (std::uint32_t e = 0; e < totalEpochs; ++e) {
    if (e == warmupEpochs) {
      // Steady state reached: timing and stats start here.
      start = engine.now();
      snapshotStats();
    }
    if (mode == DlrmMode::kAgileAsync) {
      // Residual gather(e): only the rows gather-ahead(e) left pending.
      AGILE_CHECK(host.runKernel(detail::gatherLaunch(batch, "dlrm-gather"),
                                 makeGather(cur, /*pendingOnly=*/true)));
      checkWords(cur);
      if (e >= warmupEpochs) {
        pendingSlots += static_cast<std::uint64_t>(
            std::count(pending.begin(), pending.end(), std::uint8_t{1}));
      }
      // Overlap: MLP(e) computes while gather-ahead(e+1) probes and streams.
      auto mlp = host.launchKernel(mlpLaunch, mlpKernel);
      gpu::KernelHandle ahead;
      if (e + 1 < totalEpochs) {
        next = trace.epochRows(e + 1, batch);
        ahead = host.launchKernel(
            detail::gatherLaunch(batch, "dlrm-gather-ahead"),
            makeGatherAhead(next));
      }
      AGILE_CHECK(host.wait(mlp));
      if (ahead) AGILE_CHECK(host.wait(ahead));
      if (e + 1 < totalEpochs) cur = next;
    } else {
      // Synchronous epoch: fetch, then compute (§4.4: "request data and
      // perform computation on the requested data within the same epoch").
      AGILE_CHECK(host.runKernel(detail::gatherLaunch(batch, "dlrm-gather"),
                                 makeGather(cur, /*pendingOnly=*/false)));
      checkWords(cur);
      AGILE_CHECK(host.runKernel(mlpLaunch, mlpKernel));
      if (e + 1 < totalEpochs) cur = trace.epochRows(e + 1, batch);
    }
  }
  AGILE_CHECK(host.drainIo());

  DlrmRunResult res;
  res.totalNs = engine.now() - start;
  res.perEpochNs = res.totalNs / std::max(1u, epochs);
  res.ssdReads = ssdReads() - ssdReadsBefore;
  if (mode == DlrmMode::kBam) {
    res.cacheHits = bamCtrl->cache().stats().hits - hitsBefore;
    res.cacheMisses = bamCtrl->cache().stats().misses - missesBefore;
  } else {
    res.cacheHits = ctrl->cache().stats().hits - hitsBefore;
    res.cacheMisses = ctrl->cache().stats().misses - missesBefore;
  }
  res.ioAborted = host.ioTimeouts() + host.ioHealth().aborted - abortsBefore;
  res.wrongWords = wrongWords;
  res.pendingSlots = pendingSlots;
  return res;
}

}  // namespace agile::apps
