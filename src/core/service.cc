#include "core/service.h"

#include <algorithm>

namespace agile::core {

gpu::GpuTask<bool> AgileService::pollWindow(gpu::KernelCtx& ctx,
                                            std::uint32_t pairIdx) {
  AgileCq& cq = *qps_->cqs[pairIdx];
  AgileSq& sq = *qps_->sqs[pairIdx];
  const std::uint32_t lane = ctx.laneId();
  const std::uint32_t window = cq.windowLanes;
  // Fast skip: nothing in flight on this pair and no half-consumed window —
  // one shared-state load instead of a full window scan.
  if (sq.live == 0 && cq.mask == 0) {
    ctx.charge(cost::kSqeStateCheck);
    co_return false;
  }
  // Algorithm 1 line 2: load offset / mask / phase.
  ctx.charge(cost::kServicePollRound);
  if (lane == 0) ++stats_.pollRounds;

  bool found = false;
  if (lane < window && (cq.mask & (1u << lane)) == 0) {
    const std::uint32_t pos = (cq.offset + lane) % cq.depth;
    const nvme::Cqe cqe = cq.ring[pos];
    if (cqe.phase() == cq.phase) {
      // Lines 5-6: valid completion — process it and set the mask bit. Each
      // lane releases its own completion's resources in parallel.
      ctx.charge(cost::kServiceCqeProcess);
      AGILE_CHECK(cqe.sqId == sq.qid);
      applyCompletion(ctx.engine(), sq, cqe.cid, cqe.status());
      cq.mask |= 1u << lane;
      ++stats_.completions;
      found = true;
    }
  }

  // Warp-synchronous point: all lanes finished their slot checks.
  const std::uint32_t anyMask = co_await gpu::warpBallot(ctx, found);

  // Lines 8-11: window fully processed — advance, flip phase on wrap, and
  // notify the SSD through the CQ head doorbell so it can reuse the entries.
  const std::uint32_t fullMask =
      window == 32 ? 0xffffffffu : ((1u << window) - 1u);
  if (lane == 0 && cq.mask == fullMask) {
    cq.mask = 0;
    cq.offset += window;
    if (cq.offset == cq.depth) {
      cq.offset = 0;
      cq.phase = !cq.phase;
    }
    cq.head = cq.offset;
    ctx.charge(cost::kDoorbellWrite);
    cq.ssd->writeCqDoorbell(cq.qid, cq.head);
    ++stats_.cqDoorbells;
    ++stats_.windowsAdvanced;
  }
  co_return anyMask != 0;
}

gpu::GpuTask<void> AgileService::laneBody(gpu::KernelCtx& ctx) {
  const std::uint32_t warp = ctx.warpId();
  const std::uint32_t warps = cfg_.warps;
  while (!stop_) {
    bool any = false;
    for (std::uint32_t pairIdx = warp; pairIdx < qps_->count();
         pairIdx += warps) {
      any |= co_await pollWindow(ctx, pairIdx);
    }
    // Adaptive idle backoff: busy CQs are polled at the minimum interval,
    // quiet ones progressively less often. Lane 0 updates the shared value
    // first in the segment; all lanes of the warp then sleep the same time.
    // Each lane's sleep is a timer on the engine's hierarchical wheel
    // (Lane::suspendSleep → Engine::scheduleAfter): at production line
    // counts the service contributes thousands of concurrent backoff
    // timers per poll generation, all O(1) wheel inserts.
    if (ctx.laneId() == 0) {
      idlePerWarp_[warp] = any ? cost::kServiceIdleMin
                               : std::min(idlePerWarp_[warp] * 2,
                                          cost::kServiceIdleMax);
    }
    co_await ctx.backoff(idlePerWarp_[warp]);
  }
}

}  // namespace agile::core
