// Test-side submitters pinned to one queue pair, composed from the two
// Algorithm-2 primitives every library submitter uses
// (QueuePairSet::acquireSlot and writeAndRing). The library picks the
// queue pair itself; these let a test target one directly.
#pragma once

#include <cstdint>

#include "core/cost_model.h"
#include "core/io_queues.h"
#include "gpu/exec.h"

namespace agile::core {

// Lane submitter: claims a slot on queue pair `qp` (parking while its SQ is
// full), writes the command, and rings the doorbell. Returns the slot.
inline gpu::GpuTask<std::uint32_t> laneIssueOn(gpu::KernelCtx& ctx,
                                               QueuePairSet& qps,
                                               std::uint32_t qp,
                                               nvme::Sqe cmd, Transaction txn,
                                               AgileLockChain& chain) {
  for (;;) {
    const SlotGrant g = qps.acquireSlot({qp, 1}, 0, ctx.engine().now());
    ctx.charge(g.probes * cost::kSqeAlloc);
    if (g) {
      writeAndRing(ctx, chain, *g.sq, &g.slot, &cmd, &txn, 1);
      co_return g.slot;
    }
    co_await ctx.parkOn(slotWaiters(*qps.sqs[qp], txn.tenant));
  }
}

// Host-event submitter on queue pair `qp`: false when its SQ is full.
inline bool hostIssueOn(QueuePairSet& qps, std::uint32_t qp, SimTime now,
                        const nvme::Sqe& cmd, const Transaction& txn) {
  const SlotGrant g = qps.acquireSlot({qp, 1}, 0, now);
  if (!g) return false;
  writeAndRing(*g.sq, &g.slot, &cmd, &txn, 1);
  return true;
}

}  // namespace agile::core
