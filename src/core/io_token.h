// IoToken / IoOpPool / IoBatch: the batch token surface.
//
// AgileCtrl::submitBatch allocates one IoOp from the controller's IoOpPool
// and hands back an IoToken — a generation-checked handle modeled on the
// engine's sim::TimerId. A token supports
//   poll()   non-blocking status query,
//   wait()   co_await until every entry of the batch is terminal.
// Stale handles are always safe: once an op is observed terminal (by wait,
// or an explicit IoOpPool::retire) its slot recycles and any further poll
// on the old token reports kRetired — exactly the TimerId contract.
//
// Completion routing: read/write entries track caller buffers, observed
// lazily through each buffer's AgileTxBarrier, so the service's completion
// path is untouched. Prefetch entries own cache fills and ride an IoOpRef
// carried by the SQE's Transaction: applyCompletion notifies the pool, which
// decrements the op's outstanding-fill count and wakes waiters when it hits
// zero.
#pragma once

#include <cstdint>
#include <deque>
#include <limits>

#include "common/annotations.h"
#include "common/check.h"
#include "core/buf.h"
#include "nvme/defs.h"
#include "qos/tenant.h"
#include "sim/engine.h"

namespace agile::core {

class IoOpPool;

// Batch entry kinds (kRead / kWrite / kPrefetch) and pool slot kinds
// (kNone = free, kBatch = a live batch op).
enum class IoOpKind : std::uint8_t {
  kNone,      // free pool slot / empty entry
  kRead,      // SSD -> user buffer (tracked via the buffer's barrier)
  kWrite,     // user buffer -> SSD (tracked via the buffer's barrier)
  kPrefetch,  // SSD -> software cache (tracked via Transaction IoOpRef)
  kBatch,     // N descriptors, one submit pass, one doorbell per SSD
};

enum class IoStatus : std::uint8_t {
  kPending,  // transfer(s) still in flight
  kDone,     // all transfers completed successfully
  kFailed,   // at least one transfer reported an NVMe error (or dropped)
  kRetired,  // stale handle: the op was already observed and recycled
};

/// Generation-checked handle to an in-flight asynchronous op. Copyable and
/// trivially destructible; a default-constructed token is invalid. All
/// operations on a stale token are safe no-ops (poll -> kRetired).
// Tagged as a TSA capability: a live token authorizes exactly one settle
// path (poll-to-done / wait / retire); IoOpPool generation checks
// catch stale reuse at runtime, agile-lint's dropped-token check catches
// discards at review time, and [[nodiscard]] on the producers catches them
// at compile time.
class AGILE_CAPABILITY("io-token") IoToken {
 public:
  IoToken() = default;

  /// True if obtained from a submit call (the op may have completed since).
  explicit operator bool() const { return gen_ != 0; }

 private:
  friend class IoOpPool;
  IoToken(std::uint32_t slot, std::uint64_t gen) : slot_(slot), gen_(gen) {}

  std::uint32_t slot_ = 0;
  std::uint64_t gen_ = 0;
};

/// Reference to an op carried by a Transaction: lets the shared completion
/// path (applyCompletion) notify the pool without knowing the controller.
/// Generation-checked like the token itself, so a completion arriving after
/// the op was retired is a no-op.
struct IoOpRef {
  IoOpPool* pool = nullptr;
  std::uint32_t slot = 0;
  std::uint64_t gen = 0;
};

/// A batch of I/O descriptors submitted with one coalesced pass and one SQ
/// doorbell per target SSD (§3.3 batched submission). The IoBatch object is
/// caller-owned and must outlive the returned token: the batch token polls
/// member buffers through it.
class IoBatch {
 public:
  static constexpr std::uint32_t kMaxEntries = 32;

  struct Entry {
    IoOpKind kind = IoOpKind::kNone;
    std::uint32_t dev = 0;
    std::uint64_t lba = 0;
    AgileBufPtr* buf = nullptr;  // null for prefetch entries
  };

  bool addRead(std::uint32_t dev, std::uint64_t lba, AgileBufPtr& buf) {
    return push({IoOpKind::kRead, dev, lba, &buf});
  }
  bool addWrite(std::uint32_t dev, std::uint64_t lba, AgileBufPtr& buf) {
    return push({IoOpKind::kWrite, dev, lba, &buf});
  }
  bool addPrefetch(std::uint32_t dev, std::uint64_t lba) {
    return push({IoOpKind::kPrefetch, dev, lba, nullptr});
  }

  std::uint32_t size() const { return n_; }
  bool empty() const { return n_ == 0; }
  void clear() { n_ = 0; }

  /// The submitting tenant; one batch belongs to one tenant (QoS admission
  /// and WFQ treat the batch's per-device runs as that tenant's work).
  void setTenant(qos::TenantId t) { tenant_ = t; }
  qos::TenantId tenant() const { return tenant_; }
  const Entry& entry(std::uint32_t i) const {
    AGILE_DCHECK(i < n_);
    return entries_[i];
  }

  /// All member buffers' transaction barriers quiesced.
  bool buffersReady() const {
    for (std::uint32_t i = 0; i < n_; ++i) {
      const Entry& e = entries_[i];
      if (e.buf != nullptr && e.buf->active() != nullptr &&
          !e.buf->active()->barrier().ready()) {
        return false;
      }
    }
    return true;
  }

  /// Any member buffer's barrier recorded an NVMe error.
  bool anyBufferFailed() const {
    for (std::uint32_t i = 0; i < n_; ++i) {
      const Entry& e = entries_[i];
      if (e.buf != nullptr && e.buf->active() != nullptr &&
          e.buf->active()->barrier().failed()) {
        return true;
      }
    }
    return false;
  }

  /// Order-sensitive hash of the descriptor list: lanes whose batches hash
  /// identically coalesce the prefetch portion in one warp pass.
  std::uint64_t signature() const {
    std::uint64_t h = 1469598103934665603ull;
    for (std::uint32_t i = 0; i < n_; ++i) {
      const Entry& e = entries_[i];
      h = (h ^ static_cast<std::uint64_t>(e.kind)) * 1099511628211ull;
      h = (h ^ e.dev) * 1099511628211ull;
      h = (h ^ e.lba) * 1099511628211ull;
    }
    return h;
  }

 private:
  bool push(Entry e) {
    if (n_ == kMaxEntries) return false;
    entries_[n_++] = e;
    return true;
  }

  Entry entries_[kMaxEntries];
  std::uint32_t n_ = 0;
  qos::TenantId tenant_ = qos::kHostTenant;
};

/// One pooled asynchronous op. Slots are recycled through a free list;
/// WaitList members make IoOp non-movable, so the pool stores ops in a
/// deque (stable addresses, no relocation on growth).
struct IoOp {
  IoOpKind kind = IoOpKind::kNone;
  IoStatus status = IoStatus::kPending;
  std::uint64_t gen = 0;
  bool sawError = false;

  // The caller-owned descriptor object (member buffers polled through it).
  IoBatch* batch = nullptr;
  // Prefetch-entry fills still in flight that report back through
  // IoOpRef-carrying transactions.
  std::uint32_t pendingFills = 0;

  // wait()ers parked until the last fill lands.
  sim::WaitList waiters;

  std::uint32_t nextFree = 0;
};

struct IoOpPoolStats {
  std::uint64_t allocated = 0;  // lifetime ops handed out
  std::uint64_t retired = 0;    // slots recycled
  std::uint32_t highWater = 0;  // max simultaneously live ops
};

/// Slab of IoOps with an intrusive free list. Alloc/retire are O(1); the
/// pool grows on demand and never invalidates op addresses.
class IoOpPool {
 public:
  AGILE_NODISCARD(
      "the token is the only handle that can poll/wait this op")
  IoToken alloc(IoOpKind kind) {
    std::uint32_t slot;
    if (freeHead_ != kNilSlot) {
      slot = freeHead_;
      freeHead_ = ops_[slot].nextFree;
    } else {
      slot = static_cast<std::uint32_t>(ops_.size());
      ops_.emplace_back();
    }
    IoOp& op = ops_[slot];
    op.kind = kind;
    op.status = IoStatus::kPending;
    op.gen = ++genCounter_;
    op.sawError = false;
    op.batch = nullptr;
    op.pendingFills = 0;
    ++live_;
    ++stats_.allocated;
    if (live_ > stats_.highWater) stats_.highWater = live_;
    return IoToken{slot, op.gen};
  }

  /// Resolve a token; nullptr if stale (already retired).
  IoOp* get(const IoToken& t) { return resolve(t.slot_, t.gen_); }

  /// Transaction-side reference to a live token's op.
  IoOpRef ref(const IoToken& t) { return {this, t.slot_, t.gen_}; }

  IoOp* resolve(std::uint32_t slot, std::uint64_t gen) {
    if (gen == 0 || slot >= ops_.size()) return nullptr;
    IoOp& op = ops_[slot];
    if (op.kind == IoOpKind::kNone || op.gen != gen) return nullptr;
    return &op;
  }

  /// Completion notification from the shared NVMe completion path: one
  /// outstanding fill of (slot, gen) finished with `status`. Stale refs are
  /// ignored (the op was retired meanwhile).
  void completeOp(std::uint32_t slot, std::uint64_t gen, nvme::Status status,
                  sim::Engine& engine) {
    IoOp* op = resolve(slot, gen);
    if (op == nullptr) return;
    AGILE_CHECK_MSG(op->pendingFills > 0,
                    "op completed more times than it issued");
    --op->pendingFills;
    if (status != nvme::Status::kSuccess) op->sawError = true;
    if (op->pendingFills == 0 && op->status == IoStatus::kPending) {
      finish(*op, op->sawError ? IoStatus::kFailed : IoStatus::kDone, engine);
    }
  }

  /// Move a live op to a terminal state and wake its wait()ers.
  void finish(IoOp& op, IoStatus terminal, sim::Engine& engine) {
    AGILE_DCHECK(terminal != IoStatus::kPending);
    op.status = terminal;
    op.waiters.notifyAll(engine);
  }

  /// Recycle an observed op's slot; the token becomes stale. Refused while
  /// a wait()er is parked on the op — the waiter owns the observation and
  /// retires after it wakes (recycling under it would strand the parked
  /// continuation and let a later op spuriously wake it).
  void retire(const IoToken& t) {
    IoOp* op = get(t);
    if (op == nullptr) return;
    if (!op->waiters.empty()) return;
    op->kind = IoOpKind::kNone;
    op->nextFree = freeHead_;
    freeHead_ = t.slot_;
    AGILE_CHECK(live_ > 0);
    --live_;
    ++stats_.retired;
  }

  std::uint32_t liveOps() const { return live_; }
  const IoOpPoolStats& stats() const { return stats_; }
  // Start a fresh measurement window (highWater restarts from the ops that
  // are live right now).
  void resetStats() {
    stats_ = {};
    stats_.highWater = live_;
  }

 private:
  static constexpr std::uint32_t kNilSlot =
      std::numeric_limits<std::uint32_t>::max();

  std::deque<IoOp> ops_;
  std::uint32_t freeHead_ = kNilSlot;
  std::uint32_t live_ = 0;
  std::uint64_t genCounter_ = 0;
  IoOpPoolStats stats_;
};

}  // namespace agile::core
