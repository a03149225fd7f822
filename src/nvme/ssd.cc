#include "nvme/ssd.h"

#include <algorithm>
#include <cstring>

namespace agile::nvme {

SsdController::SsdController(sim::Engine& engine, SsdConfig cfg)
    : engine_(&engine),
      cfg_(cfg),
      flash_(cfg.capacityLbas),
      readBucket_(cfg.readIops, cfg.iopsBurst),
      writeBucket_(cfg.writeIops, cfg.iopsBurst) {
  if (cfg_.fault.enabled) {
    fault_ = std::make_unique<FaultInjector>(cfg_.fault);
  }
}

std::uint32_t SsdController::createQueuePair(Sqe* sq, Cqe* cq,
                                             std::uint32_t depth) {
  AGILE_CHECK_MSG(qps_.size() < cfg_.maxQueuePairs,
                  "SSD queue-pair limit exceeded");
  AGILE_CHECK(depth >= 2);
  AGILE_CHECK(sq != nullptr && cq != nullptr);
  auto qp = std::make_unique<QueuePair>();
  qp->qid = static_cast<std::uint32_t>(qps_.size()) + 1;
  qp->sq = sq;
  qp->cq = cq;
  qp->depth = depth;
  // CQEs start with phase 0 so the first device lap (phase 1) is detectable.
  for (std::uint32_t i = 0; i < depth; ++i) {
    cq[i] = Cqe{};
  }
  qps_.push_back(std::move(qp));
  return qps_.back()->qid;
}

void SsdController::destroyQueuePairs() { qps_.clear(); }

const QueuePair& SsdController::queuePair(std::uint32_t qid) const {
  AGILE_CHECK(qid >= 1 && qid <= qps_.size());
  return *qps_[qid - 1];
}

void SsdController::writeSqDoorbell(std::uint32_t qid, std::uint32_t newTail) {
  AGILE_CHECK(qid >= 1 && qid <= qps_.size());
  auto& qp = *qps_[qid - 1];
  AGILE_CHECK(newTail < qp.depth);
  qp.sqTailDoorbell = newTail;
  engine_->scheduleAfter(cfg_.doorbellFetchNs, [this, qid] { fetchFrom(qid); });
}

void SsdController::writeCqDoorbell(std::uint32_t qid, std::uint32_t newHead) {
  AGILE_CHECK(qid >= 1 && qid <= qps_.size());
  auto& qp = *qps_[qid - 1];
  AGILE_CHECK(newHead < qp.depth);
  qp.cqHeadDoorbell = newHead;
  // Freed CQ slots may unblock backpressured completions.
  tryPost(qp);
}

std::uint32_t SsdController::acquireSlot(const Sqe& sqe, std::uint32_t qid) {
  std::uint32_t slot;
  if (!freeSlots_.empty()) {
    slot = freeSlots_.back();
    freeSlots_.pop_back();
  } else {
    slot = static_cast<std::uint32_t>(inflight_.size());
    inflight_.emplace_back();
  }
  inflight_[slot].sqe = sqe;
  inflight_[slot].qid = qid;
  inflight_[slot].active = true;
  inflight_[slot].aborted = false;
  return slot;
}

void SsdController::releaseSlot(std::uint32_t slot) {
  inflight_[slot].active = false;
  inflight_[slot].aborted = false;
  freeSlots_.push_back(slot);
  AGILE_CHECK(outstanding_ > 0);
  --outstanding_;
}

SsdController::AbortResult SsdController::abortCommand(std::uint32_t qid,
                                                       std::uint16_t cid) {
  const std::uint64_t key = (static_cast<std::uint64_t>(qid) << 16) | cid;
  for (std::size_t i = 0; i < droppedKeys_.size(); ++i) {
    if (droppedKeys_[i] == key) {
      droppedKeys_[i] = droppedKeys_.back();
      droppedKeys_.pop_back();
      return AbortResult::kLost;
    }
  }
  for (auto& cmd : inflight_) {
    if (cmd.active && !cmd.aborted && cmd.qid == qid && cmd.sqe.cid == cid) {
      cmd.aborted = true;
      ++abortsHonored_;
      return AbortResult::kAborted;
    }
  }
  return AbortResult::kMissing;
}

void SsdController::fetchFrom(std::uint32_t qid) {
  auto& qp = *qps_[qid - 1];
  SimTime fetchAt = std::max(engine_->now(), qp.fetchBusyUntil);
  while (qp.sqHead != qp.sqTailDoorbell) {
    const Sqe sqe = qp.sq[qp.sqHead];
    qp.sqHead = (qp.sqHead + 1) % qp.depth;
    fetchAt += cfg_.cmdFetchNs;
    ++outstanding_;
    maxOutstanding_ = std::max(maxOutstanding_, outstanding_);
    // Park the SQE in the in-flight pool so this timer (and the latency
    // timer executeCommand schedules next) captures 12 bytes, not the
    // 64-byte SQE — keeping every per-command event on the wheel's inline
    // zero-allocation path even at 10^4+ outstanding commands.
    const std::uint32_t slot = acquireSlot(sqe, qid);
    const SimTime at = fetchAt;
    engine_->scheduleAt(at, [this, slot, at] { executeCommand(slot, at); });
  }
  qp.fetchBusyUntil = fetchAt;
}

SimTime SsdController::fabricDelay(std::uint64_t key) {
  if (cfg_.fabricLatencyNs == 0) return 0;
  // Remote tier: one fabric round trip per command, jittered with the same
  // deterministic hash shape as media latency but from its own seed, so a
  // remote device's timing stream is independent of the local jitter draw.
  const SimTime base = cfg_.fabricLatencyNs;
  if (cfg_.fabricJitter <= 0.0) return base;
  std::uint64_t h = (key ^ cfg_.fabricSeed) * 0x2545f4914f6cdd1dull;
  h ^= h >> 29;
  const double centered =
      (static_cast<double>(h & 0xffff) / 65535.0 - 0.5) * 2.0;
  return base +
         static_cast<SimTime>(centered * cfg_.fabricJitter *
                              static_cast<double>(base));
}

SimTime SsdController::jitteredLatency(SimTime base, std::uint64_t key) {
  if (cfg_.latencyJitter <= 0.0) return base;
  // Deterministic per-command jitter derived from the LBA/CID mix.
  std::uint64_t h = key * 0x2545f4914f6cdd1dull;
  h ^= h >> 29;
  const double centered =
      (static_cast<double>(h & 0xffff) / 65535.0 - 0.5) * 2.0;
  return base +
         static_cast<SimTime>(centered * cfg_.latencyJitter *
                              static_cast<double>(base));
}

void SsdController::executeCommand(std::uint32_t slot, SimTime fetchTime) {
  if (inflight_[slot].aborted) {
    releaseSlot(slot);
    return;
  }
  const Sqe sqe = inflight_[slot].sqe;
  const std::uint32_t qid = inflight_[slot].qid;
  const auto op = static_cast<Opcode>(sqe.opcode);
  const std::uint32_t pages = sqe.nlb + 1u;

  if (op != Opcode::kRead && op != Opcode::kWrite && op != Opcode::kFlush) {
    completeSlot(slot, Status::kInvalidOpcode);
    return;
  }
  if (op == Opcode::kFlush) {
    engine_->scheduleAfter(cfg_.writeLatencyNs / 4, [this, slot] {
      completeSlot(slot, Status::kSuccess);
    });
    return;
  }
  if (sqe.slba + pages > flash_.capacityLbas()) {
    completeSlot(slot, Status::kLbaOutOfRange);
    return;
  }

  // Injected completion loss: the command dies inside the firmware — no
  // service, no DMA, no CQE. Remembered so a later admin abort can tell
  // the host the command is gone for good (kLost).
  if (fault_ != nullptr && fault_->shouldDrop()) {
    ++droppedCompletions_;
    droppedKeys_.push_back((static_cast<std::uint64_t>(qid) << 16) | sqe.cid);
    releaseSlot(slot);
    return;
  }

  const bool isRead = op == Opcode::kRead;
  auto& bucket = isRead ? readBucket_ : writeBucket_;
  const SimTime serviceStart =
      bucket.reserve(fetchTime, static_cast<double>(pages));
  const std::uint64_t cmdKey =
      sqe.slba ^ (static_cast<std::uint64_t>(sqe.cid) << 40) ^ qid;
  const SimTime latency = jitteredLatency(
      isRead ? cfg_.readLatencyNs : cfg_.writeLatencyNs, cmdKey);
  // GC-pause storms and per-QP brownouts postpone service deterministically.
  const SimTime stormDelay =
      fault_ != nullptr ? fault_->extraLatency(serviceStart, qid) : 0;
  // Remote tier: the fabric round trip rides on top of media latency (0 for
  // direct-attached devices, leaving the local timing path untouched).
  const SimTime doneAt =
      serviceStart + stormDelay + fabricDelay(cmdKey) + latency;

  engine_->scheduleAt(doneAt, [this, slot] { finishCommand(slot); });
}

void SsdController::finishCommand(std::uint32_t slot) {
  if (inflight_[slot].aborted) {
    releaseSlot(slot);
    return;
  }
  const Sqe sqe = inflight_[slot].sqe;
  const bool isRead = static_cast<Opcode>(sqe.opcode) == Opcode::kRead;
  Status st = Status::kSuccess;
  if (fault_ != nullptr) {
    st = fault_->adjudicate(isRead);
    if (st != Status::kSuccess) ++injectedErrors_;
  }
  if (st == Status::kSuccess) st = doDma(sqe);
  completeSlot(slot, st);
}

void SsdController::completeSlot(std::uint32_t slot, Status status) {
  if (inflight_[slot].aborted) {
    releaseSlot(slot);
    return;
  }
  const Sqe sqe = inflight_[slot].sqe;
  const std::uint32_t qid = inflight_[slot].qid;
  releaseSlot(slot);
  complete(qid, sqe, status);
}

Status SsdController::doDma(const Sqe& sqe) {
  const bool isRead = static_cast<Opcode>(sqe.opcode) == Opcode::kRead;
  const std::uint32_t pages = sqe.nlb + 1u;

  // Fault injection.
  for (std::uint64_t bad : faultLbas_) {
    if (bad >= sqe.slba && bad < sqe.slba + pages) {
      return isRead ? Status::kUnrecoveredReadError : Status::kWriteFault;
    }
  }

  AGILE_CHECK_MSG(hbm_ != nullptr, "SSD not attached to GPU HBM (BAR map)");
  const std::uint32_t copyBytes =
      cfg_.payloadBytes == 0 ? kLbaBytes
                             : std::min(cfg_.payloadBytes, kLbaBytes);
  alignas(8) std::byte page[kLbaBytes];
  for (std::uint32_t p = 0; p < pages; ++p) {
    std::byte* target = hbm_->fromPhysAddr(sqe.prp1 + p * kLbaBytes);
    if (isRead) {
      if (copyBytes == kLbaBytes) {
        AGILE_CHECK(flash_.readPage(sqe.slba + p, target));
      } else {
        AGILE_CHECK(flash_.readPage(sqe.slba + p, page));
        std::memcpy(target, page, copyBytes);
      }
      bytesRead_ += kLbaBytes;
    } else {
      if (copyBytes == kLbaBytes) {
        flash_.writePage(sqe.slba + p, target);
      } else {
        // Truncated-payload mode: preserve the page's generated tail.
        AGILE_CHECK(flash_.readPage(sqe.slba + p, page));
        std::memcpy(page, target, copyBytes);
        flash_.writePage(sqe.slba + p, page);
      }
      bytesWritten_ += kLbaBytes;
    }
  }
  if (isRead) {
    ++readsCompleted_;
  } else {
    ++writesCompleted_;
  }
  return Status::kSuccess;
}

void SsdController::complete(std::uint32_t qid, const Sqe& sqe, Status status) {
  auto& qp = *qps_[qid - 1];
  if (status != Status::kSuccess) ++errorsReturned_;

  Cqe cqe;
  cqe.sqHead = narrowCast<std::uint16_t>(qp.sqHead);
  cqe.sqId = narrowCast<std::uint16_t>(qid);
  cqe.cid = sqe.cid;
  // Phase is filled at post time (depends on the CQ lap).
  cqe.statusPhase = Cqe::makeStatusPhase(status, false);
  qp.backpressured.push_back(cqe);
  tryPost(qp);
}

bool SsdController::cqHasSpace(const QueuePair& qp) const {
  // Entries in flight between device tail and host head doorbell; one slot is
  // kept open so tail==head means empty.
  const std::uint32_t used =
      (qp.cqTail + qp.depth - qp.cqHeadDoorbell) % qp.depth;
  return used != qp.depth - 1;
}

void SsdController::tryPost(QueuePair& qp) {
  while (!qp.backpressured.empty() && cqHasSpace(qp)) {
    Cqe cqe = qp.backpressured.front();
    qp.backpressured.pop_front();
    cqe.statusPhase =
        Cqe::makeStatusPhase(cqe.status(), qp.cqPhase);
    qp.cq[qp.cqTail] = cqe;
    qp.cqTail = (qp.cqTail + 1) % qp.depth;
    if (qp.cqTail == 0) qp.cqPhase = !qp.cqPhase;
  }
}

}  // namespace agile::nvme
