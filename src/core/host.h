// AgileHost: the host-side orchestration of Listing 1 — device discovery
// (addNvmeDev), queue-pair initialization in HBM (initNvme), starting and
// stopping the AGILE service kernel, and launching application kernels.
//
// In the simulator the GDRCopy pin/translate and BAR mmap steps of §3.1
// collapse into Hbm::physAddr + SsdController::attachHbm, but the sequence
// (allocate rings in HBM → register with SSDs → register doorbells → start
// service → run kernels → stop service → close) is preserved.
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "common/check.h"
#include "common/types.h"
#include "core/io_queues.h"
#include "core/service.h"
#include "gpu/exec.h"
#include "nvme/ssd.h"
#include "sim/engine.h"

namespace agile::core {

struct HostConfig {
  gpu::GpuConfig gpu;
  std::uint32_t queuePairsPerSsd = 8;
  std::uint32_t queueDepth = 256;
  std::uint32_t stagingPages = 1024;
  ServiceConfig service;
  // Virtual-time watchdog for runKernel: a kernel exceeding this is treated
  // as hung (deadlock tests rely on it).
  SimTime kernelTimeout = 30_s;
  // Per-command I/O timeout: every issued NVMe command arms a timer-wheel
  // watchdog that is cancelled (O(1)) by its completion; on expiry the
  // retry tier admin-aborts the command and re-issues or settles it (see
  // `retry`). 0 disables arming entirely (the default — figure
  // reproductions schedule no extra timers).
  SimTime ioTimeoutNs = 0;
  // Bounded retry/backoff/failover budget for watchdog expiries (which
  // need ioTimeoutNs != 0) and retryable media errors. The default,
  // maxAttempts == 0, is "retries off": the first failure settles the
  // command with kCommandAborted.
  RetryPolicy retry;
  // Multi-tenant QoS (admission control, WFQ, per-tenant SLO telemetry);
  // inactive by default — no QosManager is built, every hook stays null,
  // and figure reproductions are byte-identical.
  qos::QosConfig qos;
};

// Aggregated I/O robustness telemetry (see AgileHost::ioHealth).
struct IoHealthStats {
  std::uint64_t watchdogTimeouts = 0;  // expiries that errored a transaction
  std::uint64_t retries = 0;           // re-issues scheduled
  std::uint64_t failovers = 0;         // re-issues that moved to another QP
  std::uint64_t rescued = 0;           // transactions saved by a retry
  std::uint64_t aborted = 0;           // budget exhausted -> kCommandAborted
  std::uint64_t quarantines = 0;       // QP quarantine transitions
  std::uint64_t cooldownProbes = 0;    // quarantines lifted by re-probe
  std::uint32_t quarantinedQps = 0;    // currently quarantined
  std::uint32_t parkedSlots = 0;       // CIDs awaiting a late device answer
  std::uint32_t pendingRetries = 0;    // commands between attempts
  // QoS admission outcomes, aggregated across tenants (0 when QoS is off).
  std::uint64_t admissionDefers = 0;   // park-and-retry admission waits
  std::uint64_t admissionRejects = 0;  // defer budget exhausted -> aborted
};

class AgileHost {
 public:
  explicit AgileHost(HostConfig cfg = {});
  ~AgileHost();
  AgileHost(const AgileHost&) = delete;
  AgileHost& operator=(const AgileHost&) = delete;

  sim::Engine& engine() { return engine_; }
  gpu::Gpu& gpu() { return gpu_; }
  const HostConfig& config() const { return cfg_; }

  // --- device management ---
  std::uint32_t addNvmeDev(nvme::SsdConfig cfg);
  std::uint32_t ssdCount() const {
    return static_cast<std::uint32_t>(ssds_.size());
  }
  nvme::SsdController& ssd(std::uint32_t i) { return *ssds_[i]; }

  // Allocate SQ/CQ rings in HBM and register them with every SSD.
  void initNvme();
  bool nvmeReady() const { return nvmeReady_; }
  QueuePairSet& queuePairs() { return qps_; }
  StagingPool& staging() {
    AGILE_CHECK(staging_ != nullptr);
    return *staging_;
  }

  // --- AGILE service lifecycle ---
  void startAgile();
  void stopAgile();
  bool serviceRunning() const { return serviceKernel_ != nullptr; }
  AgileService& service() {
    AGILE_CHECK(service_ != nullptr);
    return *service_;
  }

  // --- kernels ---
  gpu::KernelHandle launchKernel(gpu::LaunchConfig cfg, gpu::KernelFn fn) {
    return gpu_.launch(std::move(cfg), std::move(fn));
  }
  // Launch and run to completion; false on virtual-time watchdog expiry
  // (simulated deadlock/hang).
  bool runKernel(gpu::LaunchConfig cfg, gpu::KernelFn fn);
  bool wait(const gpu::KernelHandle& k) {
    return gpu_.wait(k, engine_.now() + cfg_.kernelTimeout);
  }

  // Run the engine until all in-flight NVMe transactions drain.
  bool drainIo();

  void closeNvme();

  // Total in-flight AGILE transactions across all SQs, including commands
  // between retry attempts (backoff / parked on a full queue) and excluding
  // parked kTimedOut CIDs, whose transaction was already settled or handed
  // to a retry.
  std::uint32_t pendingTransactions() const;

  // Commands errored by the per-command I/O watchdog, across all SQs.
  std::uint64_t ioTimeouts() const;

  // Aggregated robustness telemetry (retries, failovers, quarantined QPs).
  IoHealthStats ioHealth() const;

  // Null unless HostConfig::qos.active(); built by initNvme().
  qos::QosManager* qosManager() { return qos_.get(); }

  // Reset measurement-window state: per-tenant QoS counters and latency
  // sketches (control state — bucket commitments, WFQ virtual time, cache
  // occupancy — is preserved; see QosManager::resetStats).
  void resetStats();

 private:
  HostConfig cfg_;
  sim::Engine engine_;
  gpu::Gpu gpu_;
  std::vector<std::unique_ptr<nvme::SsdController>> ssds_;
  QueuePairSet qps_;
  RetryController retry_;
  std::unique_ptr<qos::QosManager> qos_;
  std::unique_ptr<StagingPool> staging_;
  std::unique_ptr<AgileService> service_;
  gpu::KernelHandle serviceKernel_;
  bool nvmeReady_ = false;
};

}  // namespace agile::core
