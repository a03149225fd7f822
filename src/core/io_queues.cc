#include "core/io_queues.h"

namespace agile::core {

SlotGrant QueuePairSet::acquireSlot(QpSlice slice, std::uint32_t start,
                                    SimTime now) {
  SlotGrant g;
  std::uint32_t quarantined = 0;
  for (bool skipQuarantined : {true, false}) {
    for (std::uint32_t k = 0; k < slice.count; ++k) {
      const std::uint32_t index = (start + k) % slice.count;
      AgileSq& sq = *sqs[slice.first + index];
      // Health-aware selection; free while nothing is quarantined.
      if (skipQuarantined && qpQuarantined(sq, now)) {
        ++quarantined;
        continue;
      }
      ++g.probes;
      const std::uint32_t slot = sq.tryAlloc();
      if (slot != kNoSlot) {
        g.sq = &sq;
        g.slot = slot;
        g.index = index;
        return g;
      }
    }
    if (quarantined < slice.count) break;
  }
  return g;
}

std::uint32_t writeAndRing(AgileSq& sq, const std::uint32_t* slots,
                           const nvme::Sqe* cmds, const Transaction* txns,
                           std::uint32_t n) {
  AGILE_CHECK(n >= 1);
  for (std::uint32_t i = 0; i < n; ++i) {
    const std::uint32_t slot = slots[i];
    AGILE_CHECK(sq.state[slot] == SqeState::kHeld);
    nvme::Sqe cmd = cmds[i];
    cmd.cid = narrowCast<std::uint16_t>(slot);
    sq.ring[slot] = cmd;
    sq.txn[slot] = txns[i];
    sq.state[slot] = SqeState::kUpdated;
  }
  // Attempt_SQDB (Algorithm 2 lines 13-18): mark the UPDATED run ISSUED in
  // ring order and publish the new tail with one doorbell write.
  std::uint32_t tail = sq.issueTail;
  std::uint32_t covered = 0;
  while (sq.state[tail] == SqeState::kUpdated) {
    sq.state[tail] = SqeState::kIssued;
    sq.armWatchdog(tail);
    tail = (tail + 1) % sq.depth;
    ++covered;
  }
  if (covered != 0) {
    sq.issueTail = tail;
    sq.ssd->writeSqDoorbell(sq.qid, tail);
  }
  return covered;
}

std::uint32_t writeAndRing(gpu::KernelCtx& ctx, AgileLockChain& chain,
                           AgileSq& sq, const std::uint32_t* slots,
                           const nvme::Sqe* cmds, const Transaction* txns,
                           std::uint32_t n) {
  // Lanes interleave only at co_await points and none holds dbLock across
  // one, so the single CAS attempt always wins.
  const bool locked = sq.dbLock.tryAcquire(ctx, chain);
  AGILE_CHECK_MSG(locked, "SQ doorbell lock held across an event boundary");
  const std::uint32_t covered = writeAndRing(sq, slots, cmds, txns, n);
  ctx.charge(n * cost::kSqeFill + covered * cost::kDoorbellScanPerSqe +
             (covered != 0 ? cost::kDoorbellWrite : 0) +
             cost::kSqeStateCheck);
  sq.dbLock.release(ctx, chain);
  return covered;
}

void AgileSq::onTimeout(std::uint32_t slot, std::uint64_t gen) {
  // Stale fire: the command completed (watchdog cancel raced the fire) or
  // the slot was already recycled for a newer command.
  if (state[slot] != SqeState::kIssued || cmdGen[slot] != gen) return;
  const TxnKind kind = txn[slot].kind;
  if (kind == TxnKind::kNone || kind == TxnKind::kTimedOut) return;
  watchdog[slot] = sim::TimerId{};
  retry->onWatchdogExpiry(*this, slot);
}

// --- bounded retry / backoff / failover tier ------------------------------

bool RetryController::onRetryableError(AgileSq& sq, std::uint32_t slot) {
  if (sq.txn[slot].attempt >= policy_.maxAttempts) {
    ++aborted_;
    return false;
  }
  scheduleBackoff({sq.ssdIdx, sq.qpIndex, sq.ring[slot], sq.txn[slot]});
  return true;
}

void RetryController::onWatchdogExpiry(AgileSq& sq, std::uint32_t slot) {
  // Consecutive-timeout health: quarantine the QP after K strikes in a row.
  ++sq.consecTimeouts;
  if (policy_.quarantineAfter > 0 &&
      sq.consecTimeouts >= policy_.quarantineAfter &&
      sq.quarantinedUntil == 0) {
    sq.quarantinedUntil = engine_->now() + policy_.quarantineCooldownNs;
    ++sq.quarantines;
    ++quarantines_;
  }
  Pending p{sq.ssdIdx, sq.qpIndex, sq.ring[slot], sq.txn[slot]};

  // Admin-abort the original in every case: after this call the device
  // guarantees the command performs no further DMA, so re-issuing into the
  // same cache frame / user buffer / staging page cannot alias an in-flight
  // transfer, and settling releases them at once. Waiting for the device's
  // answer instead would park a command whose completion was swallowed —
  // its slot, fill line or staging page — forever.
  const auto r =
      sq.ssd->abortCommand(sq.qid, narrowCast<std::uint16_t>(slot));
  if (r == nvme::SsdController::AbortResult::kMissing) {
    // The CQE is already posted (or backpressured): the CID stays claimed
    // until the host consumes the late answer, which reclaims the slot via
    // the kTimedOut path. It owns nothing: the command has executed, and a
    // retry carries the transaction, including any staging page.
    sq.txn[slot] = Transaction{};
    sq.txn[slot].kind = TxnKind::kTimedOut;
    ++sq.parked;
  } else {
    // kAborted / kLost: dead on the device, the slot is free now.
    releaseSlot(*engine_, sq, slot);
  }

  if (p.txn.attempt >= policy_.maxAttempts) {
    ++aborted_;
    ++sq.timeouts;
    settleTransaction(*engine_, p.txn, nvme::Status::kCommandAborted);
    return;
  }
  scheduleBackoff(std::move(p));
}

void RetryController::scheduleBackoff(Pending p) {
  ++p.txn.attempt;
  ++retries_;
  ++pending_;
  SimTime delay = policy_.backoffBaseNs;
  for (std::uint32_t i = 1; i < p.txn.attempt && delay < policy_.backoffMaxNs;
       ++i) {
    delay = static_cast<SimTime>(static_cast<double>(delay) *
                                 policy_.backoffMultiplier);
  }
  if (delay > policy_.backoffMaxNs) delay = policy_.backoffMaxNs;
  engine_->scheduleAfter(delay, [this, p] { reissue(p); });
}

void RetryController::reissue(Pending p) {
  // Fail over: start after the queue pair the attempt failed on.
  const QpSlice dev = qps_->slice(p.dev);
  const std::uint32_t start = p.fromQp - dev.first + 1;
  const SlotGrant g = qps_->acquireSlot(dev, start, engine_->now());
  if (g) {
    --pending_;
    if (g.sq->qpIndex != p.fromQp) ++failovers_;
    writeAndRing(*g.sq, &g.slot, &p.cmd, &p.txn, 1);
    return;
  }
  // Every queue pair of the device is full: re-try when one frees an entry.
  AgileSq& sq = *qps_->sqs[dev.first + start % dev.count];
  slotWaiters(sq, p.txn.tenant).park([this, p] { reissue(p); });
}

}  // namespace agile::core
