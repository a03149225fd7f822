// AGILE-side NVMe queue state: the SQE lock state machine (EMPTY → HELD →
// UPDATED → ISSUED → EMPTY, §3.3.1 / Algorithm 2), per-slot transaction
// records the service uses to release resources on completion (§3.2), and
// the CQ polling state of Algorithm 1.
//
// The command identifier (CID) of every command equals its SQE slot index,
// which makes it unique within the SQ batch exactly as §3.2.1 requires and
// lets the service map completions back to transactions in O(1).
#pragma once

#include <cstdint>
#include <limits>
#include <memory>
#include <vector>

#include "common/annotations.h"
#include "common/check.h"
#include "core/buf.h"
#include "core/cache.h"
#include "core/io_token.h"
#include "core/lock.h"
#include "nvme/defs.h"
#include "nvme/ssd.h"
#include "qos/qos.h"
#include "qos/tenant.h"
#include "sim/engine.h"

namespace agile::core {

enum class SqeState : std::uint8_t {
  kEmpty,    // free for allocation
  kHeld,     // allocated, command being written
  kUpdated,  // command visible in memory, not yet covered by the doorbell
  kIssued,   // doorbell covers it; waiting for completion
};

enum class TxnKind : std::uint8_t {
  kNone,
  kCacheFill,       // read SSD -> cache line (prefetch / array miss)
  kCacheWriteback,  // write cache line -> SSD (dirty eviction)
  kBufRead,         // read SSD -> user buffer (asyncRead miss path)
  kBufWrite,        // write staging -> SSD (asyncWrite)
  kTimedOut,        // watchdog aborted the command after its CQE was
                    // posted; the late completion only reclaims the slot
};

class StagingPool;
class RetryController;

struct Transaction {
  TxnKind kind = TxnKind::kNone;
  CacheLine* line = nullptr;
  AgileBuf* buf = nullptr;
  AgileTxBarrier* barrier = nullptr;
  std::byte* staging = nullptr;
  StagingPool* stagingPool = nullptr;
  // Optional token-op notification (batch prefetch fills): completion
  // decrements the op's outstanding-fill count. Generation-checked, so a
  // ref outliving its op is harmless.
  IoOpRef op;
  // Re-issue count of the bounded retry tier; rides the transaction across
  // re-issues so the budget is per logical command, not per attempt.
  std::uint8_t attempt = 0;
  // Multi-tenant QoS: the submitting tenant and the virtual submit time.
  // Both ride the transaction across retries/failovers, so per-tenant
  // latency is submit-to-settle of the logical command, not of an attempt.
  qos::TenantId tenant = qos::kHostTenant;
  SimTime submitNs = 0;
};

// Bounded retry / backoff / failover policy layered on the per-command
// watchdog (HostConfig::retry). "Retries off" is maxAttempts == 0 (the
// default): the first watchdog expiry or retryable media error aborts and
// settles the command with kCommandAborted, down the same path a retry
// takes once its budget is spent.
struct RetryPolicy {
  // Re-issues allowed per logical command after its first attempt.
  std::uint32_t maxAttempts = 0;
  // Exponential backoff between attempts, scheduled on the timer wheel.
  SimTime backoffBaseNs = 20'000;       // 20 us before the first re-issue
  double backoffMultiplier = 2.0;
  SimTime backoffMaxNs = 2'000'000;     // 2 ms cap
  // Quarantine a queue pair after this many consecutive watchdog timeouts;
  // issue-side selection skips it until the cooldown elapses, after which
  // the next command through is the re-probe (0 = never quarantine).
  std::uint32_t quarantineAfter = 4;
  SimTime quarantineCooldownNs = 5'000'000;  // 5 ms
};

// Statuses worth re-issuing: transient media errors. Host-synthesized
// aborts and programming errors (invalid opcode/field, out of range) are
// final.
constexpr bool isRetryableStatus(nvme::Status s) {
  return s == nvme::Status::kUnrecoveredReadError ||
         s == nvme::Status::kWriteFault;
}

inline constexpr std::uint32_t kNoSlot = std::numeric_limits<std::uint32_t>::max();

// One submission queue as managed by AGILE (ring lives in HBM, registered
// with the SSD).
struct AgileSq {
  nvme::SsdController* ssd = nullptr;
  std::uint32_t ssdIdx = 0;
  std::uint32_t qid = 0;  // device-side queue id
  nvme::Sqe* ring = nullptr;
  std::uint32_t depth = 0;
  std::vector<SqeState> state;
  std::vector<Transaction> txn;
  std::uint32_t allocCursor = 0;  // next ring slot to hand out
  std::uint32_t issueTail = 0;    // ring tail covered by the SQ doorbell
  std::uint32_t live = 0;         // SQEs not in the EMPTY state
  std::uint64_t totalIssued = 0;  // lifetime commands allocated on this SQ
  AgileLock dbLock{"sq-doorbell"};
  sim::WaitList freeWaiters;  // parked issuers; service notifies on release

  // --- I/O watchdog (HostConfig::ioTimeoutNs; 0 = disabled) ---
  // Every command arms a timer-wheel TimerId when the SQ doorbell covers
  // it; the completion path cancels it (O(1)). If the timer fires first,
  // RetryController::onWatchdogExpiry admin-aborts the command, then
  // re-issues it after backoff or, with the budget spent, settles it with
  // Status::kCommandAborted.
  SimTime ioTimeoutNs = 0;
  sim::Engine* engine = nullptr;   // armed/cancelled through the host engine
  std::vector<sim::TimerId> watchdog;
  std::vector<std::uint64_t> cmdGen;  // bumped per alloc; guards stale fires
  std::uint64_t timeouts = 0;         // commands errored by the watchdog

  // --- bounded retry tier (HostConfig::retry; set by initNvme) ---
  RetryController* retry = nullptr;
  // --- multi-tenant QoS (HostConfig::qos; null when inactive) ---
  // Owned by the AgileHost; completions report per-tenant latency/bytes and
  // route slot-free wakeups through WFQ arbitration when weights differ.
  qos::QosManager* qos = nullptr;
  std::uint32_t qpIndex = 0;          // this SQ's index in QueuePairSet::sqs
  // Consecutive watchdog expiries; reset by any successful completion.
  std::uint32_t consecTimeouts = 0;
  // Nonzero while quarantined: issue-side selection skips this QP until the
  // deadline passes (the next command through is the cooldown re-probe).
  SimTime quarantinedUntil = 0;
  // kTimedOut slots whose CID is parked awaiting a late device answer.
  std::uint32_t parked = 0;
  std::uint64_t quarantines = 0;      // times this QP entered quarantine

  // Claim the next ring slot if it is EMPTY. Ring order allocation matches
  // NVMe SQ semantics: the tail cannot pass a slot whose command has not
  // completed (precisely the §2.3.1 full-queue hazard), and one slot always
  // stays empty so a full ring is distinguishable from an empty one
  // (tail == head means empty on the wire).
  AGILE_NODISCARD(
      "the slot is HELD on success; it must be issued or freed, and "
      "kNoSlot must reroute the caller")
  std::uint32_t tryAlloc() {
    if (live == depth - 1) return kNoSlot;
    const std::uint32_t slot = allocCursor;
    if (state[slot] != SqeState::kEmpty) return kNoSlot;
    state[slot] = SqeState::kHeld;
    if (!cmdGen.empty()) ++cmdGen[slot];
    ++live;
    ++totalIssued;
    allocCursor = (allocCursor + 1) % depth;
    return slot;
  }

  std::uint32_t inFlight() const { return live; }

  // Arm the per-command watchdog; called exactly when the doorbell first
  // covers `slot` (the command is in flight from that point).
  void armWatchdog(std::uint32_t slot) {
    if (ioTimeoutNs == 0) return;
    const std::uint64_t gen = cmdGen[slot];
    watchdog[slot] = engine->scheduleAfter(
        ioTimeoutNs, [this, slot, gen] { onTimeout(slot, gen); });
  }
  void disarmWatchdog(std::uint32_t slot) {
    if (ioTimeoutNs == 0) return;
    if (watchdog[slot]) {
      engine->cancel(watchdog[slot]);
      watchdog[slot] = sim::TimerId{};
    }
  }
  // Watchdog expiry: drop stale fires, hand the rest to the retry tier.
  void onTimeout(std::uint32_t slot, std::uint64_t gen);
};

// One completion queue plus the persisted Algorithm-1 polling state.
struct AgileCq {
  nvme::SsdController* ssd = nullptr;
  std::uint32_t ssdIdx = 0;
  std::uint32_t qid = 0;
  nvme::Cqe* ring = nullptr;
  std::uint32_t depth = 0;
  // Poll window state (Algorithm 1: offset / mask / phase live in global
  // memory and are re-loaded each service round).
  std::uint32_t offset = 0;
  std::uint32_t mask = 0;
  bool phase = true;
  std::uint32_t head = 0;  // CQ head doorbell shadow
  std::uint32_t windowLanes = 32;
  // Used only by the BaM baseline, whose user threads serialize on the CQ
  // while consuming completions inline (§2.3.3 / §4.5).
  AgileLock cqLock{"cq-lock"};
};

// A contiguous run of queue pairs in QueuePairSet order: all of one SSD's
// pairs, or one cache shard's affine share of them.
struct QpSlice {
  std::uint32_t first = 0;
  std::uint32_t count = 0;
};

// Result of QueuePairSet::acquireSlot. On a grant, `slot` is HELD on `sq`,
// the `index`-th queue pair of the slice. `probes` counts the tryAlloc
// calls made, granted or not: a lane pays cost::kSqeAlloc for each.
struct SlotGrant {
  AgileSq* sq = nullptr;
  std::uint32_t slot = kNoSlot;
  std::uint32_t index = 0;
  std::uint32_t probes = 0;
  explicit operator bool() const { return sq != nullptr; }
};

// All queue pairs the host registered, across SSDs. sqs[i] pairs with
// cqs[i]; the device-side qid of both is identical.
struct QueuePairSet {
  std::vector<std::unique_ptr<AgileSq>> sqs;
  std::vector<std::unique_ptr<AgileCq>> cqs;

  // Per-device {first index, count} tables. Queue pairs are registered in
  // SSD-major contiguous order (initNvme), so the lookup every submission
  // performs is O(1). buildDeviceTables() is called once after
  // registration.
  std::vector<std::uint32_t> devFirst;
  std::vector<std::uint32_t> devCount;

  std::uint32_t count() const {
    return static_cast<std::uint32_t>(sqs.size());
  }

  void buildDeviceTables() {
    devFirst.clear();
    devCount.clear();
    for (std::uint32_t i = 0; i < sqs.size(); ++i) {
      const std::uint32_t dev = sqs[i]->ssdIdx;
      if (dev >= devFirst.size()) {
        devFirst.resize(dev + 1, kNoSlot);
        devCount.resize(dev + 1, 0);
      }
      if (devFirst[dev] == kNoSlot) devFirst[dev] = i;
      AGILE_CHECK_MSG(devFirst[dev] + devCount[dev] == i,
                      "queue pairs of one SSD must be contiguous");
      ++devCount[dev];
    }
  }

  // The queue pairs SSD `dev` serves submitter shard `shard` of
  // `shardTotal` from: shard s owns [s*n/S, (s+1)*n/S) of the device's n
  // pairs (never empty), so one cache shard's fills, completions, and
  // full-queue parks never touch another shard's queues. shardTotal <= 1
  // is the device's full range.
  QpSlice slice(std::uint32_t dev, std::uint32_t shard = 0,
                std::uint32_t shardTotal = 1) const {
    AGILE_CHECK_MSG(dev < devCount.size() && devCount[dev] != 0,
                    "no queue pair registered for SSD");
    QpSlice s{devFirst[dev], devCount[dev]};
    if (shardTotal > 1 && s.count > 1) {
      const auto off = static_cast<std::uint32_t>(
          std::uint64_t{shard} * s.count / shardTotal);
      const auto end = static_cast<std::uint32_t>(
          std::uint64_t{shard + 1} * s.count / shardTotal);
      s.first += off;
      s.count = end > off ? end - off : 1;
    }
    return s;
  }

  // Claim an SQE in `slice`, walking its queue pairs in rotation from
  // `start`. Quarantined pairs are skipped unless every pair of the slice
  // is quarantined; then all of them are tried anyway, since waiting out a
  // cooldown with the command in hand would stall the caller (and a
  // quarantined-but-empty queue has no completion to wake it).
  AGILE_NODISCARD(
      "a granted slot is HELD and must be written with writeAndRing")
  SlotGrant acquireSlot(QpSlice slice, std::uint32_t start, SimTime now);
};

// Fixed pool of page-sized staging buffers for asyncWrite (§3.5: the buffer
// is reusable "right away", so the write payload is snapshotted here and
// returned to the pool by the service at completion time).
class StagingPool {
 public:
  StagingPool(gpu::Hbm& hbm, std::uint32_t pages) {
    AGILE_CHECK(pages >= 1);
    slab_ = hbm.allocBytes(static_cast<std::uint64_t>(pages) *
                           nvme::kLbaBytes);
    for (std::uint32_t i = 0; i < pages; ++i) {
      free_.push_back(slab_ + static_cast<std::uint64_t>(i) * nvme::kLbaBytes);
    }
  }

  AGILE_NODISCARD("a non-null page is checked out until put() returns it")
  std::byte* tryGet() {
    if (free_.empty()) return nullptr;
    auto* p = free_.back();
    free_.pop_back();
    return p;
  }

  void put(sim::Engine& engine, std::byte* page) {
    free_.push_back(page);
    waiters_.notifyOne(engine);
  }

  sim::WaitList& waiters() { return waiters_; }
  std::size_t available() const { return free_.size(); }

 private:
  std::byte* slab_ = nullptr;
  std::vector<std::byte*> free_;
  sim::WaitList waiters_;
};

// Bounded retry / backoff / failover tier. One instance per AgileHost,
// shared by every SQ (a retry may fail over to a different queue pair of
// the same SSD), and the only code that acts on an expired command.
// Triggered from two places:
//   - applyCompletion, when a command completes with a retryable media
//     error: the transaction is taken over and re-issued after backoff;
//   - AgileSq::onTimeout, when the per-command watchdog expires: the
//     original command is admin-aborted on the device (so its DMA can never
//     race the retry's — see SsdController::abortCommand), the slot is
//     freed (or parked as kTimedOut when the completion is already on its
//     way), and the command is re-issued after backoff.
// Cache fill frames stay BUSY and tag-mapped across re-issues, write
// staging pages move to the retry attempt unrecycled, and token ops are
// notified exactly once — by whichever attempt finally settles.
// Once the attempt budget is spent (at once, with retries off) the
// transaction is settled with nvme::Status::kCommandAborted, which
// releases its fill line or staging page like any other completion.
class AGILE_CAPABILITY("retry-controller") RetryController {
 public:
  RetryController(sim::Engine& engine, QueuePairSet& qps, RetryPolicy policy)
      : engine_(&engine), qps_(&qps), policy_(policy) {}

  const RetryPolicy& policy() const { return policy_; }

  // Retryable error status for a live transaction (from applyCompletion).
  // True: the transaction was taken over for re-issue; the caller frees the
  // SQE without settling it. False: budget exhausted; the caller settles
  // with kCommandAborted.
  bool onRetryableError(AgileSq& sq, std::uint32_t slot);

  // Watchdog expiry on a live transaction (from AgileSq::onTimeout, after
  // the stale-fire checks). The original is admin-aborted; then either a
  // re-issue is scheduled or — budget spent — the transaction is settled
  // with kCommandAborted (never parked forever on a swallowed completion).
  void onWatchdogExpiry(AgileSq& sq, std::uint32_t slot);

  // Health bookkeeping on every successful completion (cheap).
  void onSuccess(AgileSq& sq, const Transaction& txn) {
    sq.consecTimeouts = 0;
    if (txn.attempt > 0) ++rescued_;
  }

  void noteCooldownProbe() { ++cooldownProbes_; }

  // Re-issues currently waiting out a backoff window or parked on a full
  // queue; counted into AgileHost::pendingTransactions() so drainIo covers
  // them.
  std::uint32_t pendingRetries() const { return pending_; }

  // --- health stats ---
  std::uint64_t retries() const { return retries_; }
  std::uint64_t failovers() const { return failovers_; }
  std::uint64_t rescued() const { return rescued_; }
  std::uint64_t aborted() const { return aborted_; }
  std::uint64_t quarantines() const { return quarantines_; }
  std::uint64_t cooldownProbes() const { return cooldownProbes_; }

 private:
  // A command between attempts: everything needed to re-issue it.
  struct Pending {
    std::uint32_t dev = 0;
    std::uint32_t fromQp = 0;  // QueuePairSet index of the failed attempt
    nvme::Sqe cmd;
    Transaction txn;
  };

  // Count the next attempt of `p` and re-issue it after its backoff.
  void scheduleBackoff(Pending p);
  void reissue(Pending p);

  sim::Engine* engine_;
  QueuePairSet* qps_;
  RetryPolicy policy_;
  std::uint32_t pending_ = 0;
  std::uint64_t retries_ = 0;
  std::uint64_t failovers_ = 0;
  std::uint64_t rescued_ = 0;
  std::uint64_t aborted_ = 0;
  std::uint64_t quarantines_ = 0;
  std::uint64_t cooldownProbes_ = 0;
};

// True while `sq` is quarantined at `now`. A probe past the cooldown
// deadline lifts the quarantine and counts as the re-probe; consecTimeouts
// is deliberately not reset, so one more timeout re-quarantines immediately
// while a success clears the strike count.
inline bool qpQuarantined(AgileSq& sq, SimTime now) {
  if (sq.quarantinedUntil == 0) return false;
  if (now < sq.quarantinedUntil) return true;
  sq.quarantinedUntil = 0;
  sq.retry->noteCooldownProbe();
  return false;
}

// The transaction-side state change of one finished (or timed-out) command:
// cache-line transition, buffer barrier completion, staging recycle, and
// token-op notification. Shared by applyCompletion and the I/O watchdog so
// both settle transactions identically.
inline void settleTransaction(sim::Engine& engine, const Transaction& txn,
                              nvme::Status status) {
  switch (txn.kind) {
    case TxnKind::kCacheFill:
      AGILE_CHECK(txn.line != nullptr);
      txn.line->onFillComplete(engine, status);
      break;
    case TxnKind::kCacheWriteback:
      AGILE_CHECK(txn.line != nullptr);
      txn.line->onWritebackComplete(engine, status);
      break;
    case TxnKind::kBufRead:
      AGILE_CHECK(txn.buf != nullptr);
      txn.buf->barrier().complete(engine, status);
      break;
    case TxnKind::kBufWrite:
      if (txn.staging != nullptr) {
        AGILE_CHECK(txn.stagingPool != nullptr);
        txn.stagingPool->put(engine, txn.staging);
      }
      if (txn.barrier != nullptr) txn.barrier->complete(engine, status);
      break;
    case TxnKind::kTimedOut:
    case TxnKind::kNone:
      AGILE_CHECK_MSG(false, "settle of an empty transaction");
  }
  // Token-op bookkeeping rides the same completion, after the cache/buffer
  // transition so a poll() from a woken waiter observes consistent state.
  if (txn.op.pool != nullptr) {
    txn.op.pool->completeOp(txn.op.slot, txn.op.gen, status, engine);
  }
}

// Return `slot` of `sq` to EMPTY and wake one issuer waiting for a free
// SQE: the service, not a user thread, releases (§3.2.1's deadlock
// elimination). With QoS attached the wake is arbitrated by WFQ virtual
// time, falling back to the SQ's FIFO freeWaiters.
inline void releaseSlot(sim::Engine& engine, AgileSq& sq,
                        std::uint32_t slot) {
  sq.txn[slot] = Transaction{};
  sq.state[slot] = SqeState::kEmpty;
  AGILE_CHECK(sq.live > 0);
  --sq.live;
  if (sq.qos != nullptr) {
    sq.qos->onSlotFree(engine, sq.ssdIdx, sq.freeWaiters);
  } else {
    sq.freeWaiters.notifyOne(engine);
  }
}

// Where a submitter that found every candidate SQ full waits for
// releaseSlot: the tenant's per-device WFQ list while arbitration is
// active, else the FIFO freeWaiters of `sq`. Lanes co_await
// ctx.parkOn(list); host events list.park(fn).
inline sim::WaitList& slotWaiters(AgileSq& sq, qos::TenantId tenant) {
  if (sq.qos != nullptr && sq.qos->wfqActive()) {
    sq.qos->noteBacklog(tenant);
    return sq.qos->sqWaiters(tenant, sq.ssdIdx);
  }
  return sq.freeWaiters;
}

// Shared completion-side transition logic: performs the cache/buffer state
// change, recycles staging, and releases the SQE. Used by the AGILE service
// (Algorithm 1 lanes) and by the BaM baseline's inline polling, so both
// stacks interpret transactions identically.
inline void applyCompletion(sim::Engine& engine, AgileSq& sq,
                            std::uint32_t slot, nvme::Status status) {
  AGILE_CHECK(slot < sq.depth);
  AGILE_CHECK_MSG(sq.state[slot] == SqeState::kIssued,
                  "completion for a non-issued SQE");
  sq.disarmWatchdog(slot);
  const Transaction txn = sq.txn[slot];

  // Bounded retry tier: a retryable media error re-issues the command with
  // backoff instead of settling the transaction; only once the budget is
  // exhausted is the transaction errored — with kCommandAborted, matching
  // the watchdog-exhaustion path.
  if (isRetryableStatus(status) && txn.kind != TxnKind::kTimedOut &&
      txn.kind != TxnKind::kNone) {
    if (sq.retry->onRetryableError(sq, slot)) {
      releaseSlot(engine, sq, slot);
      return;
    }
    status = nvme::Status::kCommandAborted;
  }

  // The watchdog already settled or re-issued this transaction; the
  // device's (late) answer only reclaims the CID.
  if (txn.kind == TxnKind::kTimedOut) {
    AGILE_CHECK(sq.parked > 0);
    --sq.parked;
  } else {
    if (status == nvme::Status::kSuccess) sq.retry->onSuccess(sq, txn);
    settleTransaction(engine, txn, status);
    // Per-tenant SLO telemetry: successful settles record achieved bytes
    // and submit-to-settle latency (errored commands would skew the SLO
    // sketch; they surface through admission/retry counters instead).
    if (sq.qos != nullptr && status == nvme::Status::kSuccess) {
      sq.qos->onComplete(txn.tenant, nvme::kLbaBytes,
                         engine.now() - txn.submitNs);
    }
  }
  releaseSlot(engine, sq, slot);
}

// --- Algorithm 2: serialization process in SQs -----------------------------
//
// Every submitter issues in two steps: QueuePairSet::acquireSlot claims an
// SQE in ring order, and writeAndRing writes it and lets the caller cover
// the contiguous UPDATED run with one doorbell write. Submitters differ
// only in the slice they probe, how they wait when it is full (slotWaiters),
// and whether a lane pays the cost.

// Write `n` commands into `n` HELD slots of `sq` (claimed in ring order;
// each command's CID is its slot index, unique within the SQ batch) and
// mark them UPDATED; then advance issueTail over the contiguous UPDATED
// run, arm each covered command's watchdog, and write the SQ doorbell once.
// A HELD slot ahead of the run stops the scan, and its owner's own
// writeAndRing covers everything behind it. Returns the number of SQEs the
// scan covered. Host events call this form directly: lanes acquire and
// release dbLock within one resume segment, so it is never held at an
// event boundary.
std::uint32_t writeAndRing(AgileSq& sq, const std::uint32_t* slots,
                           const nvme::Sqe* cmds, const Transaction* txns,
                           std::uint32_t n);

// Lane form: runs the scan under dbLock and charges the lane for the
// fills, the per-SQE scan, the doorbell MMIO write, and the final state
// check of its own SQE.
std::uint32_t writeAndRing(gpu::KernelCtx& ctx, AgileLockChain& chain,
                           AgileSq& sq, const std::uint32_t* slots,
                           const nvme::Sqe* cmds, const Transaction* txns,
                           std::uint32_t n);

}  // namespace agile::core
