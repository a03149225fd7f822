// Multi-tenant QoS: host-side admission control (per-tenant token buckets
// generalizing sim/token_bucket from its device-side rate model), weighted
// fair queueing at SQ-slot arbitration, and per-tenant SLO telemetry
// (submit-to-settle latency sketches, achieved bytes, admission
// defers/rejects, d4n-style cache-space accounting).
//
// Integration contract (see core/ctrl.h issueRun and
// core/io_queues.h applyCompletion):
//
//   * Admission — before SQ selection, a submission reserves `bytes` from
//     its tenant's token bucket. kAdmit consumes the tokens; kDefer parks
//     the issuing lane on admitWaiters(t) with a deterministic retry timer
//     armed on the engine's wheel at the bucket's readyAt; after
//     maxAdmissionDefers consecutive defers the submission is rejected and
//     its transaction settled with kCommandAborted.
//   * WFQ — when wfqActive() (QoS on AND weights unequal), submitters that
//     find every SQ of their target SSD full park on sqWaiters(tenant, dev)
//     instead of the SQ's FIFO freeWaiters (core::slotWaiters); each slot
//     grant charges the tenant's virtual time by bytes/weight, and each
//     freed slot (core::releaseSlot) wakes the backlogged tenant with the
//     minimum virtual time (ties to the lowest tenant id, so replay is
//     deterministic). With QoS off or all weights equal nothing attaches
//     and the round-robin path is byte-identical.
//   * Stats — applyCompletion records submit-to-settle latency and bytes
//     per tenant whenever a QosManager is attached; AgileCtrl reports
//     cache-line ownership transitions for per-tenant space accounting.
//
// QosManager lives on the AgileHost (one per simulated machine) and is
// engine-single-threaded like everything else in the simulator.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "common/quantile.h"
#include "common/types.h"
#include "qos/tenant.h"
#include "sim/engine.h"
#include "sim/token_bucket.h"

namespace agile::qos {

struct TenantConfig {
  std::string name = "tenant";
  // WFQ weight; shares converge to weight/sum(weights) under saturation.
  double weight = 1.0;
  // Admission token bucket: sustained bytes/sec (0 = unlimited, no
  // admission control for this tenant) and instantaneous burst allowance.
  double rateBytesPerSec = 0.0;
  double burstBytes = 256.0 * 1024.0;
};

struct QosConfig {
  bool enabled = false;
  // Index in this vector == TenantId::value.
  std::vector<TenantConfig> tenants;
  // Deferred-retry budget per submission before admission rejects it.
  std::uint32_t maxAdmissionDefers = 16;

  bool active() const { return enabled && !tenants.empty(); }
};

enum class Admission : std::uint8_t { kAdmit, kDefer, kReject };

struct TenantStats {
  std::uint64_t admitted = 0;
  std::uint64_t admissionDefers = 0;
  std::uint64_t admissionRejects = 0;
  std::uint64_t completedIos = 0;
  std::uint64_t completedBytes = 0;
  // Submit-to-settle latency in virtual ns (p50/p99/p999 via quantile()).
  QuantileSketch latencyNs;
};

class QosManager {
 public:
  QosManager(sim::Engine& engine, const QosConfig& cfg, std::uint32_t devices);

  const QosConfig& config() const { return cfg_; }
  std::uint32_t tenantCount() const {
    return static_cast<std::uint32_t>(tenants_.size());
  }
  bool wfqActive() const { return wfqActive_; }

  // ---- admission control -------------------------------------------------
  bool admissionLimited(TenantId t) const {
    return state(t).bucket != nullptr;
  }
  // One admission attempt for `bytes` at engine-now. priorDefers is the
  // caller-held defer count of this submission (budget is per submission,
  // not per tenant). On kDefer, *readyAt holds the bucket's earliest
  // admit time; the caller arms the retry via armAdmitTimer and parks on
  // admitWaiters.
  Admission tryAdmit(TenantId t, std::uint32_t bytes,
                     std::uint32_t priorDefers, SimTime* readyAt);
  sim::WaitList& admitWaiters(TenantId t) { return state(t).admitWaiters; }
  // Arm (or pull earlier) the tenant's admission retry timer; fires on the
  // engine wheel at readyAt and wakes every deferred submission of the
  // tenant (FIFO park order keeps the replay deterministic).
  void armAdmitTimer(TenantId t, SimTime readyAt);

  // ---- weighted fair queueing at SQ selection ----------------------------
  sim::WaitList& sqWaiters(TenantId t, std::uint32_t dev) {
    return state(t).sqWaiters[dev];
  }
  // Called before parking on sqWaiters: a tenant re-entering backlog after
  // idling forfeits the virtual time it "saved" while idle (standard WFQ
  // no-memory property), so it cannot monopolize grants to catch up.
  void noteBacklog(TenantId t);
  // Charge the tenant's virtual time for one granted SQ slot.
  void onGrant(TenantId t, std::uint32_t bytes);
  // A slot freed on device `dev`: wake the backlogged tenant with minimum
  // virtual time, else fall through to the SQ's FIFO freeWaiters.
  void onSlotFree(sim::Engine& engine, std::uint32_t dev,
                  sim::WaitList& fallback);

  // ---- per-tenant telemetry ----------------------------------------------
  void onComplete(TenantId t, std::uint32_t bytes, SimTime latencyNs);
  // Cache-line ownership transition (d4n-style space accounting): prevOwner
  // loses one line, newOwner gains one; kNoTenantValue sides are skipped.
  void onCacheLineOwner(std::uint16_t prevOwner, std::uint16_t newOwner);

  const TenantStats& tenantStats(TenantId t) const { return state(t).stats; }
  std::int64_t cacheLines(TenantId t) const { return state(t).cacheLines; }
  double virtualTime(TenantId t) const { return state(t).virt; }
  std::uint64_t totalAdmissionDefers() const;
  std::uint64_t totalAdmissionRejects() const;

  // Reset per-tenant counters and latency sketches. Control state (token
  // bucket commitments, WFQ virtual time) and live cache-line occupancy are
  // deliberately kept: they describe the present, not a measurement window.
  void resetStats();

 private:
  struct TenantState {
    TenantConfig cfg;
    std::unique_ptr<sim::TokenBucket> bucket;  // null = unlimited
    sim::WaitList admitWaiters;
    sim::TimerId admitTimer;
    SimTime admitWakeAt = 0;
    std::vector<sim::WaitList> sqWaiters;  // one per device
    double virt = 0.0;                     // WFQ virtual time
    std::int64_t cacheLines = 0;           // lines currently owned
    TenantStats stats;

    TenantState(const TenantConfig& c, std::uint32_t devices);
    bool anyBacklog() const;
  };

  TenantState& state(TenantId t) {
    AGILE_CHECK_MSG(t.value < tenants_.size(), "unknown TenantId");
    return *tenants_[t.value];
  }
  const TenantState& state(TenantId t) const {
    AGILE_CHECK_MSG(t.value < tenants_.size(), "unknown TenantId");
    return *tenants_[t.value];
  }

  sim::Engine* engine_;
  QosConfig cfg_;
  std::vector<std::unique_ptr<TenantState>> tenants_;
  bool wfqActive_ = false;
};

}  // namespace agile::qos
