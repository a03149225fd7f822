// Simulated NVMe SSD controller.
//
// Functional model: I/O queue pairs are real SQ/CQ rings living in simulated
// GPU HBM (registered through the host "admin" path, mirroring §3.1 of the
// paper). A doorbell write schedules a controller fetch event; fetched
// commands execute against the flash store with a latency + token-bucket
// service model and post phase-tagged CQEs back into the CQ ring — including
// CQ backpressure: if the host never advances the CQ head doorbell, the
// controller stalls exactly like the paper describes in §2.1.
//
// Data movement is real: reads DMA flash content into the PRP1 target in
// HBM, writes capture buffer contents at completion time.
#pragma once

#include <cstdint>
#include <deque>
#include <memory>
#include <string>
#include <vector>

#include "common/annotations.h"
#include "common/types.h"
#include "gpu/hbm.h"
#include "nvme/defs.h"
#include "nvme/fault.h"
#include "nvme/flash_store.h"
#include "sim/engine.h"
#include "sim/token_bucket.h"

namespace agile::nvme {

struct SsdConfig {
  std::string name = "nvme0";
  std::uint64_t capacityLbas = 1ull << 20;  // 4 GiB at 4 KiB pages
  // Gen4 consumer NVMe class (Samsung 990 Pro): ~60 us 4K read at moderate
  // queue depth, ~20 us buffered write.
  SimTime readLatencyNs = 60_us;
  SimTime writeLatencyNs = 20_us;
  double readIops = 925000.0;   // ≈ 3.7 GB/s of 4 KiB pages
  double writeIops = 550000.0;  // ≈ 2.2 GB/s of 4 KiB pages
  double iopsBurst = 8.0;       // pages the device absorbs instantly
  SimTime doorbellFetchNs = 800;  // doorbell write → fetch begins
  SimTime cmdFetchNs = 100;       // per-command fetch/decode, serial per QP
  double latencyJitter = 0.03;    // deterministic per-command jitter fraction
  std::uint32_t maxQueuePairs = 128;
  // If nonzero, DMA copies only this many bytes per page (timing unchanged);
  // large bandwidth sweeps use it to bound host memory.
  std::uint32_t payloadBytes = 0;
  // Opt-in deterministic fault injection (transient errors, dropped
  // completions, latency storms). Disabled by default; see nvme/fault.h.
  FaultPlan fault;
  // --- network-attached ("remote flash") tier ---
  // Nonzero fabricLatencyNs models an NVMe-oF style device: every command
  // pays an extra fabric round-trip on top of media latency, with its own
  // seeded deterministic jitter (fabricJitter fraction of the base, hashed
  // from fabricSeed and the command identity). 0 = direct-attached, and the
  // timing path is bit-exactly the local model. Remote devices slot into a
  // stripe group transparently — same queue pairs, same IoToken surface.
  SimTime fabricLatencyNs = 0;
  double fabricJitter = 0.0;
  std::uint64_t fabricSeed = 0x5eedfab;
};

// A ~100 us-RTT remote-flash latency profile layered over `base`: the
// stock local device plus a jittery fabric round trip.
inline SsdConfig remoteFlashConfig(SsdConfig base = {}) {
  base.fabricLatencyNs = 100_us;
  base.fabricJitter = 0.10;
  return base;
}

// One registered I/O queue pair as seen from the device side.
struct QueuePair {
  std::uint32_t qid = 0;
  Sqe* sq = nullptr;
  Cqe* cq = nullptr;
  std::uint32_t depth = 0;
  // Device-side ring state.
  std::uint32_t sqHead = 0;        // next SQE to fetch
  std::uint32_t sqTailDoorbell = 0;
  std::uint32_t cqTail = 0;        // next CQE slot to post
  std::uint32_t cqHeadDoorbell = 0;
  bool cqPhase = true;             // phase tag for the current CQ lap
  SimTime fetchBusyUntil = 0;      // serializes per-QP command fetch
  std::deque<Cqe> backpressured;   // completions waiting for CQ space
};

class SsdController {
 public:
  SsdController(sim::Engine& engine, SsdConfig cfg);

  const SsdConfig& config() const { return cfg_; }
  FlashStore& flash() { return flash_; }
  sim::Engine& engine() { return *engine_; }

  // "PCIe BAR mapping": give the controller access to GPU HBM so PRP
  // addresses can be translated for DMA.
  void attachHbm(gpu::Hbm& hbm) { hbm_ = &hbm; }

  // Admin path: register an I/O queue pair whose rings live in HBM.
  // Returns the qid (1-based, qid 0 is the admin queue which the simulation
  // models implicitly).
  std::uint32_t createQueuePair(Sqe* sq, Cqe* cq, std::uint32_t depth);
  void destroyQueuePairs();
  const QueuePair& queuePair(std::uint32_t qid) const;

  // Doorbell registers (devices expose these in their BAR; device code calls
  // them through the registered doorbell objects in src/core).
  void writeSqDoorbell(std::uint32_t qid, std::uint32_t newTail);
  void writeCqDoorbell(std::uint32_t qid, std::uint32_t newHead);

  // Fault injection: force media errors on a specific LBA.
  void injectFault(std::uint64_t lba) { faultLbas_.push_back(lba); }
  void clearInjectedFaults() { faultLbas_.clear(); }
  // Admin abort (NVMe Abort command, modeled as instantaneous): ask the
  // device to cancel command `cid` on queue `qid`. The result tells the
  // host-side retry tier whether the command's DMA can still happen:
  //   kAborted — the command was still queued/executing; it is marked dead
  //              and will never DMA nor post a CQE.
  //   kMissing — the device has already executed it; its CQE is posted (or
  //              backpressured) and will reach the host. No future DMA.
  //   kLost    — the completion was swallowed by the fault injector; the
  //              command is gone and will never answer. No future DMA.
  // In every case the host is guaranteed no DMA after the call returns,
  // which is what makes re-issuing into the same buffers safe.
  enum class AbortResult : std::uint8_t { kAborted, kMissing, kLost };
  AbortResult abortCommand(std::uint32_t qid, std::uint16_t cid);

  // --- stats ---
  std::uint64_t readsCompleted() const { return readsCompleted_; }
  std::uint64_t writesCompleted() const { return writesCompleted_; }
  std::uint64_t bytesRead() const { return bytesRead_; }
  std::uint64_t bytesWritten() const { return bytesWritten_; }
  std::uint64_t errorsReturned() const { return errorsReturned_; }
  std::uint64_t maxObservedOutstanding() const { return maxOutstanding_; }
  std::uint64_t droppedCompletions() const { return droppedCompletions_; }
  std::uint64_t abortsHonored() const { return abortsHonored_; }
  std::uint64_t injectedErrors() const { return injectedErrors_; }

 private:
  // An in-flight command parked between its fetch, execute, and completion
  // events. The 64-byte SQE lives here rather than in the timer captures,
  // so every latency timer the controller schedules captures only
  // {this, slot} and rides the engine's inline event payload — the wheel's
  // O(1) schedule path with zero per-command heap allocation.
  struct Inflight {
    Sqe sqe;
    std::uint32_t qid = 0;
    bool active = false;   // slot holds a live command (not on the free list)
    bool aborted = false;  // admin abort landed; pending events are no-ops
  };

  AGILE_NODISCARD("the slot index must be released via releaseSlot")
  std::uint32_t acquireSlot(const Sqe& sqe, std::uint32_t qid);
  void releaseSlot(std::uint32_t slot);
  void fetchFrom(std::uint32_t qid);
  void executeCommand(std::uint32_t slot, SimTime fetchTime);
  // DMA + completion at the command's service-done time.
  void finishCommand(std::uint32_t slot);
  // Post the slot's completion and recycle it.
  void completeSlot(std::uint32_t slot, Status status);
  void complete(std::uint32_t qid, const Sqe& sqe, Status status);
  void tryPost(QueuePair& qp);
  bool cqHasSpace(const QueuePair& qp) const;
  Status doDma(const Sqe& sqe);
  SimTime jitteredLatency(SimTime base, std::uint64_t key);
  // Extra fabric round-trip of the remote tier (0 when direct-attached).
  SimTime fabricDelay(std::uint64_t key);

  sim::Engine* engine_;
  SsdConfig cfg_;
  FlashStore flash_;
  gpu::Hbm* hbm_ = nullptr;
  sim::TokenBucket readBucket_;
  sim::TokenBucket writeBucket_;
  std::vector<std::unique_ptr<QueuePair>> qps_;
  std::vector<Inflight> inflight_;
  std::vector<std::uint32_t> freeSlots_;
  std::vector<std::uint64_t> faultLbas_;
  std::unique_ptr<FaultInjector> fault_;
  // (qid << 16 | cid) keys of commands whose completion the injector
  // swallowed; abortCommand reports these as kLost and forgets them.
  std::vector<std::uint64_t> droppedKeys_;

  std::uint64_t readsCompleted_ = 0;
  std::uint64_t writesCompleted_ = 0;
  std::uint64_t bytesRead_ = 0;
  std::uint64_t bytesWritten_ = 0;
  std::uint64_t errorsReturned_ = 0;
  std::uint64_t outstanding_ = 0;
  std::uint64_t maxOutstanding_ = 0;
  std::uint64_t droppedCompletions_ = 0;
  std::uint64_t abortsHonored_ = 0;
  std::uint64_t injectedErrors_ = 0;
};

}  // namespace agile::nvme
