// The AGILE service (§3.2): a lightweight persistent kernel that polls all
// registered completion queues with the warp-centric strategy of Algorithm 1
// and releases shared resources (SQEs, cache lines, transaction barriers) on
// behalf of user threads — eliminating the §2.3.1 deadlock, since a thread
// blocked on a full SQ no longer depends on other user threads to drain
// completions.
//
// Each service warp owns the CQs whose index is congruent to its warp id and
// rotates across them round-robin. Within a CQ, lane i of the warp checks
// the CQE at (offset + i): completions are processed in parallel by the
// lanes, the per-CQ mask accumulates progress, and the window advances (and
// the CQ doorbell is written) only when all 32 entries of the window have
// been consumed — a faithful transcription of Algorithm 1.
#pragma once

#include <cstdint>
#include <vector>

#include "common/types.h"
#include "core/cost_model.h"
#include "core/io_queues.h"
#include "gpu/exec.h"
#include "gpu/regmodel.h"

namespace agile::core {

struct ServiceConfig {
  std::uint32_t warps = 2;
};

struct ServiceStats {
  std::uint64_t completions = 0;
  std::uint64_t pollRounds = 0;
  std::uint64_t cqDoorbells = 0;
  std::uint64_t windowsAdvanced = 0;
};

class AgileService {
 public:
  AgileService(QueuePairSet& qps, ServiceConfig cfg)
      : qps_(&qps), cfg_(cfg), idlePerWarp_(cfg.warps, cost::kServiceIdleMin) {}

  const ServiceConfig& config() const { return cfg_; }
  const ServiceStats& stats() const { return stats_; }
  // Copyable point-in-time snapshot; pairs with resetStats() for per-phase
  // measurement windows (sweep points, steady-state epochs).
  ServiceStats snapshot() const { return stats_; }
  void resetStats() { stats_ = {}; }
  void requestStop() { stop_ = true; }

  // Launch configuration for the persistent service kernel.
  gpu::LaunchConfig launchConfig(bool onReservedSm) const {
    return {.gridDim = 1,
            .blockDim = cfg_.warps * gpu::kWarpSize,
            .regsPerThread = gpu::serviceKernelRegisters(),
            .onReservedSm = onReservedSm,
            .name = "agile-service"};
  }

  // Device body for every service lane.
  gpu::GpuTask<void> laneBody(gpu::KernelCtx& ctx);

 private:
  // One Algorithm-1 polling pass of this lane over `cq`. Returns whether any
  // new completion was consumed by this warp on this CQ.
  gpu::GpuTask<bool> pollWindow(gpu::KernelCtx& ctx, std::uint32_t pairIdx);

  QueuePairSet* qps_;
  ServiceConfig cfg_;
  ServiceStats stats_;
  std::vector<SimTime> idlePerWarp_;
  bool stop_ = false;
};

}  // namespace agile::core
