// Storage accessors: a compile-time abstraction that lets one application
// kernel (BFS, SpMV, vector-mean, DLRM gather) run unchanged over
//   - NativeAccessor : data resident in HBM (the "Kernel time" baseline of
//                      the §4.5 three-step methodology),
//   - AgileAccessor  : AGILE's synchronous array API plus divergence-safe
//                      prefetch and the depth-K prefetch-ahead gather,
//   - BamAccessor    : BaM's synchronous reads.
// This mirrors how the paper swaps the underlying I/O library while keeping
// kernels identical for fair API-overhead comparison. Kernels detect the
// asynchronous capabilities through the PrefetchableAccessor concept, so
// the pipelined paths compile away for backends without them.
#pragma once

#include <cstdint>
#include <span>

#include "bam/bam_ctrl.h"
#include "core/ctrl.h"
#include "core/lock.h"
#include "gpu/exec.h"

namespace agile::apps {

// How an application driver run ended. Drivers that report it distinguish
// a simulated hang (virtual-time kernel watchdog) from a run that finished
// but had I/O errored out after the bounded retry tier spent its budget —
// results exist in the latter case but may contain default-valued elements.
enum class AppRunStatus : std::uint8_t {
  kOk,          // completed, no I/O given up on
  kKernelHung,  // kernel watchdog expired; no results
  kIoDegraded,  // completed, but some I/O was aborted after retries
};

// Monotone signature of given-up I/O on `host`: retry-tier budget
// exhaustions plus watchdog expiries that errored a transaction (the two
// overlap when an exhausted command also times out, so this is a change
// detector for before/after comparison, not an exact failure count).
inline std::uint64_t ioAbortSignature(core::AgileHost& host) {
  return host.ioHealth().aborted + host.ioTimeouts();
}

// Accessors that can warm the software cache ahead of a synchronous read
// from divergent lanes (the depth-K pipelined kernels key off this).
template <class Acc>
concept PrefetchableAccessor =
    requires(Acc a, gpu::KernelCtx& ctx, core::AgileLockChain& chain) {
      a.prefetchElemDivergent(ctx, std::uint64_t{}, chain);
    };

// Data resident in simulated HBM; charges only the plain word-access cost.
template <class T>
class NativeAccessor {
 public:
  explicit NativeAccessor(std::span<const T> data) : data_(data) {}

  gpu::GpuTask<T> read(gpu::KernelCtx& ctx, std::uint64_t idx,
                       core::AgileLockChain&) {
    ctx.charge(cost::kWordAccess);
    co_return data_[idx];
  }

 private:
  std::span<const T> data_;
};

// AGILE array view over the controller's stripe group: synchronous reads
// plus prefetch-ahead. Every element->(device, page)
// resolution goes through core::elemAddr over ctrl.stripe(), the map the
// controller's own array API uses, so the sync and async paths cannot drift
// and the same kernel spreads over N devices unchanged.
template <class T, class Ctrl = core::DefaultCtrl>
class AgileAccessor {
 public:
  explicit AgileAccessor(Ctrl& ctrl) : ctrl_(&ctrl) {}

  gpu::GpuTask<T> read(gpu::KernelCtx& ctx, std::uint64_t idx,
                       core::AgileLockChain& chain) {
    co_return co_await ctrl_->template arrayRead<T>(ctx, idx, chain);
  }

  // Divergence-safe prefetch (no warp collective) for per-row pipelines.
  gpu::GpuTask<void> prefetchElemDivergent(gpu::KernelCtx& ctx,
                                           std::uint64_t idx,
                                           core::AgileLockChain& chain) {
    const auto at = addr(idx);
    co_await ctrl_->prefetchDivergent(ctx, at.dev, at.lba, chain);
  }

  // Pressure threshold of the adaptive pipeline: stop extending the
  // prefetch window while the target line's shard is >= 3/4 BUSY. Past that
  // point prefetch-ahead is evicting its own working set, so the pipeline
  // degrades toward the synchronous loop instead of cliffing
  // (bench/async_gather documents the cliff past threads x (K+1) ~ lines).
  static constexpr std::uint32_t kPressureNum = 3;
  static constexpr std::uint32_t kPressureDen = 4;

  // True when the shard that would hold element `idx`'s page is saturated
  // with in-flight fills/writebacks. One O(1) counter read, charged as a
  // single word access.
  bool shardSaturated(gpu::KernelCtx& ctx, std::uint64_t idx) {
    auto& cache = ctrl_->cache();
    const auto at = addr(idx);
    const std::uint32_t s = cache.shardOfTag(core::makeTag(at.dev, at.lba));
    ctx.charge(cost::kWordAccess);
    return cache.busyLines(s) * kPressureDen >=
           cache.shardLineCount(s) * kPressureNum;
  }

  // True when the page holding element `idx` is in the cache, landed or
  // in flight. One tag lookup, charged as a single word access.
  bool resident(gpu::KernelCtx& ctx, std::uint64_t idx) {
    const auto at = addr(idx);
    ctx.charge(cost::kWordAccess);
    return ctrl_->cache().findLine(core::makeTag(at.dev, at.lba)) !=
           Ctrl::Cache::npos;
  }

  // Depth-K pipelined gather over page runs: maximal runs of consecutive
  // idxs on one SSD page. Each run is resolved by one demand probe (the
  // page-run arrayRead) and the prefetch window counts pages, not
  // elements: runs [r, r + depth) are prefetched before run r is read, so
  // SSD latency hides behind the reads instead of serializing per page. depth == 0 degenerates to the plain synchronous loop (the
  // comparison baseline). With `adaptive` set (the default) `depth` is a
  // ceiling: the effective window is throttled by live per-shard cache
  // pressure, so an over-deep pipeline on an undersized cache degrades to
  // sync instead of thrashing. Scattered idxs form one-element runs: one
  // prefetch and one demand probe per element.
  gpu::GpuTask<void> gather(gpu::KernelCtx& ctx,
                            std::span<const std::uint64_t> idxs,
                            std::span<T> out, core::AgileLockChain& chain,
                            std::uint32_t depth = 8, bool adaptive = true) {
    const std::size_t n = idxs.size();
    std::size_t ahead = 0;     // first element of the next run to prefetch
    std::size_t aheadRun = 0;  // its run number
    std::size_t run = 0;       // run number of the run being read
    for (std::size_t i = 0; i < n; ++run) {
      if (depth > 0) {
        for (; ahead < n && aheadRun < run + depth;
             ahead = runEnd(idxs, ahead), ++aheadRun) {
          if (adaptive && aheadRun > run &&
              shardSaturated(ctx, idxs[ahead])) {
            break;  // shard full: issuing more would evict our own window
          }
          co_await prefetchElemDivergent(ctx, idxs[ahead], chain);
        }
      }
      const std::size_t end = runEnd(idxs, i);
      co_await ctrl_->template arrayRead<T>(ctx, idxs.subspan(i, end - i),
                                            out.subspan(i, end - i), chain);
      i = end;
    }
  }

 private:
  core::ElemAddr addr(std::uint64_t idx) const {
    return core::elemAddr<T>(idx, ctrl_->stripe());
  }

  // One past the last element of the page run starting at idxs[i]
  // (uncharged index math, like the address resolution it repeats).
  std::size_t runEnd(std::span<const std::uint64_t> idxs,
                     std::size_t i) const {
    const core::ElemAddr page = addr(idxs[i]);
    std::size_t j = i + 1;
    for (; j < idxs.size(); ++j) {
      const core::ElemAddr at = addr(idxs[j]);
      if (at.dev != page.dev || at.lba != page.lba) break;
    }
    return j;
  }

  Ctrl* ctrl_;
};

// BaM synchronous reads over one SSD (see BamCtrl::readElem).
template <class T, class Bam = bam::DefaultBamCtrl>
class BamAccessor {
 public:
  explicit BamAccessor(Bam& bam) : bam_(&bam) {}

  gpu::GpuTask<T> read(gpu::KernelCtx& ctx, std::uint64_t idx,
                       core::AgileLockChain& chain) {
    co_return co_await bam_->template readElem<T>(ctx, idx, chain);
  }

 private:
  Bam* bam_;
};

}  // namespace agile::apps
