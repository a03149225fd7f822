// AGILE software-managed cache (§3.4).
//
// Cache lines are SSD-page sized (4 KiB) and carry the paper's four-state
// machine: INVALID / BUSY / READY / MODIFIED. All SSD traffic is routed
// through the cache for coherency and request coalescing; each line keeps
//   - readyWaiters: synchronous readers parked while the line is BUSY
//     (§3.4 case (c), sync flavor),
//   - a linked list of AgileBufs to fill on completion (case (c), async
//     flavor),
//   - freedWaiters: threads waiting for a writeback-eviction to finish
//     (case (d)).
// The AGILE service performs the BUSY→READY / BUSY→INVALID transitions when
// completions arrive, so no user thread ever holds a line across a wait.
//
// Replacement policy is a CRTP plug-in (paper §3.5): built-ins below are
// Clock (the paper's default, after Corbató), LRU, FIFO and Random. A policy
// only chooses victims and maintains touch metadata; state transitions are
// policy-independent.
//
// The container is set-associative and sharded: lines are partitioned by
// hashed tag bits into N shards, each owning its own tag map, replacement
// policy instance, fresh-line free list, BUSY-line counter and all-BUSY
// stall list. Probes to different shards share no mutable state, victim
// scans cover one shard instead of the whole cache, and a completion that
// frees a line wakes only claimants stalled on that shard. shards == 1
// reproduces the original fully-associative container exactly (same victim
// order, same charges, same stats); see docs/ARCHITECTURE.md.
#pragma once

#include <algorithm>
#include <bit>
#include <cstdint>
#include <cstring>
#include <deque>
#include <limits>
#include <span>
#include <unordered_map>
#include <vector>

#include "common/annotations.h"
#include "common/check.h"
#include "common/rng.h"
#include "common/types.h"
#include "core/buf.h"
#include "core/cost_model.h"
#include "gpu/exec.h"
#include "nvme/defs.h"
#include "sim/engine.h"

namespace agile::core {

enum class LineState : std::uint8_t {
  kInvalid,
  kBusy,      // fill or writeback in flight (see `evicting`)
  kReady,
  kModified,
};

inline constexpr std::uint64_t kNoTag = std::numeric_limits<std::uint64_t>::max();

// (device, lba) packed into one tag word.
inline constexpr std::uint64_t makeTag(std::uint32_t dev, std::uint64_t lba) {
  return (static_cast<std::uint64_t>(dev) << 48) | lba;
}
inline constexpr std::uint32_t tagDev(std::uint64_t tag) {
  return static_cast<std::uint32_t>(tag >> 48);
}
inline constexpr std::uint64_t tagLba(std::uint64_t tag) {
  return tag & ((1ull << 48) - 1);
}

struct CacheLine {
  LineState state = LineState::kInvalid;
  bool evicting = false;  // BUSY because of a writeback, not a fill
  // QoS space accounting: TenantId::value of the tenant whose claim last
  // took this line (qos::kNoTenantValue when unowned). Maintained by
  // AgileCtrl::noteLineOwner; the cache itself never reads it.
  std::uint16_t tenant = 0xffff;
  std::uint64_t tag = kNoTag;
  std::byte* data = nullptr;
  AgileBuf* bufWaitHead = nullptr;
  sim::WaitList readyWaiters;
  sim::WaitList freedWaiters;
  // The owning shard's list of threads stalled because every victim
  // candidate in that shard was BUSY (§3.4 case (d) under thrash); this
  // line leaving BUSY admits one claimant of its shard only.
  sim::WaitList* stallWaiters = nullptr;
  // The owning shard's count of BUSY lines, maintained on every BUSY
  // transition so SoftwareCache::busyLines(shard) is O(1) (benches and the
  // adaptive accessors poll it inside loops).
  std::uint32_t* busyCounter = nullptr;

  // All BUSY transitions must go through these two helpers: they write the
  // state and the counter together, so busyLines() cannot drift from a scan
  // of the line states.
  void setBusy(bool evict) {
    AGILE_DCHECK(state != LineState::kBusy);
    state = LineState::kBusy;
    evicting = evict;
    if (busyCounter != nullptr) ++*busyCounter;
  }
  void clearBusy(LineState to) {
    AGILE_DCHECK(state == LineState::kBusy);
    AGILE_DCHECK(to != LineState::kBusy);
    state = to;
    evicting = false;
    if (busyCounter != nullptr) {
      AGILE_DCHECK(*busyCounter > 0);
      --*busyCounter;
    }
  }

  void appendBufWaiter(AgileBuf& buf) {
    buf.nextWaiter = bufWaitHead;
    bufWaitHead = &buf;
    buf.barrier().addPending();
  }

  // --- service-side transitions ---

  // Detach and complete every attached buffer waiter with `status`,
  // copying the line's data on success. One source of truth for the
  // waiter-list protocol: used by the fill-completion path below and by
  // the I/O watchdog's fill-timeout path (io_queues.cc), which errors the
  // waiters while the frame stays pinned.
  void completeBufWaiters(sim::Engine& engine, nvme::Status status) {
    AgileBuf* w = bufWaitHead;
    bufWaitHead = nullptr;
    while (w != nullptr) {
      AgileBuf* next = w->nextWaiter;
      w->nextWaiter = nullptr;
      if (status == nvme::Status::kSuccess) {
        std::memcpy(w->data(), data, nvme::kLbaBytes);
      }
      w->barrier().complete(engine, status);
      w = next;
    }
  }

  // Fill completion: deliver data to every waiting buffer, wake sync
  // readers. On error the line is dropped back to INVALID and waiters retry.
  void onFillComplete(sim::Engine& engine, nvme::Status status) {
    AGILE_CHECK(state == LineState::kBusy && !evicting);
    completeBufWaiters(engine, status);
    clearBusy(status == nvme::Status::kSuccess ? LineState::kReady
                                               : LineState::kInvalid);
    readyWaiters.notifyAll(engine);
    if (state == LineState::kInvalid) freedWaiters.notifyAll(engine);
    if (stallWaiters != nullptr) stallWaiters->notifyOne(engine);
  }

  // Writeback completion: the line becomes reclaimable.
  void onWritebackComplete(sim::Engine& engine, nvme::Status status) {
    AGILE_CHECK(state == LineState::kBusy && evicting);
    // On a write fault the data is still only in HBM; keep it MODIFIED so a
    // later eviction retries the writeback rather than losing the page.
    clearBusy(status == nvme::Status::kSuccess ? LineState::kInvalid
                                               : LineState::kModified);
    freedWaiters.notifyAll(engine);
    readyWaiters.notifyAll(engine);
    if (stallWaiters != nullptr) stallWaiters->notifyOne(engine);
  }
};

struct CacheStats {
  std::uint64_t hits = 0;
  std::uint64_t misses = 0;
  std::uint64_t busyHits = 0;   // second-level coalescing (§3.3.2)
  std::uint64_t evictions = 0;
  std::uint64_t writebacks = 0;
  std::uint64_t victimStalls = 0;
};

// Per-operation charge profile. AGILE and the BaM baseline share the cache
// implementation but charge different amounts per §4.5's overhead analysis
// (BaM's probe/insert critical sections take more atomics).
struct CacheCosts {
  SimTime probe = cost::kCacheProbe;
  SimTime insert = cost::kCacheInsert;
  SimTime evict = cost::kCacheEvict;
  SimTime lineCopy = cost::kLineCopy;
  SimTime word = cost::kWordAccess;
};

inline constexpr CacheCosts agileCacheCosts() { return CacheCosts{}; }
inline constexpr CacheCosts bamCacheCosts() {
  return CacheCosts{.probe = cost::kBamCacheProbe,
                    .insert = cost::kBamCacheInsert,
                    .evict = cost::kBamCacheEvict,
                    .lineCopy = cost::kBamLineCopy,
                    .word = cost::kBamWordAccess};
}

// Outcome of one atomic probe/claim attempt.
enum class ProbeOutcome : std::uint8_t {
  kHit,            // READY or MODIFIED: data usable now
  kBusy,           // fill in flight: wait or append buffer
  kClaimed,        // line claimed for this tag, caller must issue the fill
  kNeedWriteback,  // victim was MODIFIED: caller must issue the writeback
  kStall,          // every candidate in the tag's shard BUSY: park and retry
};

struct ProbeResult {
  ProbeOutcome outcome;
  std::uint32_t line = 0;
  // Shard the probed tag maps to; a kStall caller parks on this shard's
  // stall list so only completions that can actually free a candidate line
  // wake it.
  std::uint32_t shard = 0;
};

// CRTP base: compile-time polymorphism for policies, mirroring the paper's
// GPUCacheBase<GPUCache> pattern (no virtual dispatch on device paths).
template <class Derived>
class CachePolicyBase {
 public:
  void onTouch(std::uint32_t line) { self().doTouch(line); }
  void onFill(std::uint32_t line) { self().doFill(line); }
  void onEvict(std::uint32_t line) { self().doEvict(line); }
  // Scans for a victim among non-BUSY lines; npos when all candidates BUSY.
  // `lines` is the owning shard's slice of the cache; indices are
  // shard-local ([0, lines.size())).
  std::uint32_t selectVictim(std::span<const CacheLine> lines,
                             gpu::KernelCtx& ctx) {
    return self().doSelectVictim(lines, ctx);
  }
  static constexpr std::uint32_t npos = std::numeric_limits<std::uint32_t>::max();

 private:
  Derived& self() { return static_cast<Derived&>(*this); }
};

// Clock (second-chance) replacement — the paper's default policy [10].
class ClockPolicy : public CachePolicyBase<ClockPolicy> {
 public:
  explicit ClockPolicy(std::uint32_t lines) : ref_(lines, 0) {}

  void doTouch(std::uint32_t line) { ref_[line] = 1; }
  void doFill(std::uint32_t line) { ref_[line] = 1; }
  void doEvict(std::uint32_t line) { ref_[line] = 0; }

  std::uint32_t doSelectVictim(std::span<const CacheLine> lines,
                               gpu::KernelCtx& ctx) {
    const std::uint32_t n = static_cast<std::uint32_t>(lines.size());
    for (std::uint32_t step = 0; step < 2 * n; ++step) {
      ctx.charge(cost::kPolicyStep);
      const std::uint32_t i = hand_;
      hand_ = (hand_ + 1) % n;
      if (lines[i].state == LineState::kBusy) continue;
      if (lines[i].state != LineState::kInvalid && ref_[i] != 0) {
        ref_[i] = 0;  // second chance
        continue;
      }
      return i;
    }
    return npos;
  }

 private:
  std::vector<std::uint8_t> ref_;
  std::uint32_t hand_ = 0;
};

// Exact LRU via an intrusive doubly-linked list over line indices.
class LruPolicy : public CachePolicyBase<LruPolicy> {
 public:
  explicit LruPolicy(std::uint32_t lines) : prev_(lines), next_(lines) {
    for (std::uint32_t i = 0; i < lines; ++i) {
      prev_[i] = i == 0 ? kNil : i - 1;
      next_[i] = i + 1 == lines ? kNil : i + 1;
    }
    head_ = 0;
    tail_ = lines - 1;
  }

  void doTouch(std::uint32_t line) { moveToFront(line); }
  void doFill(std::uint32_t line) { moveToFront(line); }
  void doEvict(std::uint32_t /*line*/) {}

  std::uint32_t doSelectVictim(std::span<const CacheLine> lines,
                               gpu::KernelCtx& ctx) {
    // Walk from the LRU tail, skipping BUSY lines.
    for (std::uint32_t i = tail_; i != kNil; i = prev_[i]) {
      ctx.charge(cost::kPolicyStep);
      if (lines[i].state != LineState::kBusy) return i;
    }
    return npos;
  }

 private:
  static constexpr std::uint32_t kNil = std::numeric_limits<std::uint32_t>::max();

  void unlink(std::uint32_t i) {
    if (prev_[i] != kNil) next_[prev_[i]] = next_[i];
    if (next_[i] != kNil) prev_[next_[i]] = prev_[i];
    if (head_ == i) head_ = next_[i];
    if (tail_ == i) tail_ = prev_[i];
  }

  void moveToFront(std::uint32_t i) {
    if (head_ == i) return;
    unlink(i);
    prev_[i] = kNil;
    next_[i] = head_;
    if (head_ != kNil) prev_[head_] = i;
    head_ = i;
    if (tail_ == kNil) tail_ = i;
  }

  std::vector<std::uint32_t> prev_, next_;
  std::uint32_t head_ = kNil, tail_ = kNil;
};

// FIFO: evict in fill order, rotating past BUSY lines.
class FifoPolicy : public CachePolicyBase<FifoPolicy> {
 public:
  explicit FifoPolicy(std::uint32_t lines) : n_(lines) {}

  void doTouch(std::uint32_t) {}
  void doFill(std::uint32_t) {}
  void doEvict(std::uint32_t) {}

  std::uint32_t doSelectVictim(std::span<const CacheLine> lines,
                               gpu::KernelCtx& ctx) {
    for (std::uint32_t step = 0; step < n_; ++step) {
      ctx.charge(cost::kPolicyStep);
      const std::uint32_t i = hand_;
      hand_ = (hand_ + 1) % n_;
      if (lines[i].state != LineState::kBusy) return i;
    }
    return npos;
  }

 private:
  std::uint32_t n_;
  std::uint32_t hand_ = 0;
};

// Random candidate probing (K tries).
class RandomPolicy : public CachePolicyBase<RandomPolicy> {
 public:
  explicit RandomPolicy(std::uint32_t lines, std::uint64_t seed = 0x517cc1b7)
      : n_(lines), rng_(seed) {}

  void doTouch(std::uint32_t) {}
  void doFill(std::uint32_t) {}
  void doEvict(std::uint32_t) {}

  std::uint32_t doSelectVictim(std::span<const CacheLine> lines,
                               gpu::KernelCtx& ctx) {
    for (std::uint32_t k = 0; k < 32; ++k) {
      ctx.charge(cost::kPolicyStep);
      const auto i = static_cast<std::uint32_t>(rng_.nextBelow(n_));
      if (lines[i].state != LineState::kBusy) return i;
    }
    return npos;
  }

 private:
  std::uint32_t n_;
  Rng rng_;
};

// The software cache proper: an N-way sharded, set-associative container.
//
// Shard selection hashes the tag (Fibonacci multiplicative hash over the
// packed (dev, lba) bits) so strided LBA streams spread across shards
// instead of convoying on one set. A tag can live only in its shard; with
// shards == 1 the container degenerates to the original fully-associative
// design and reproduces it bit-for-bit (same probes, charges, victim order
// and stats — the figure benches are byte-identical, see
// docs/ARCHITECTURE.md "Cache sharding").
template <class Policy>
class SoftwareCache {
 public:
  static constexpr std::uint32_t npos = Policy::npos;

  // shards == 0 selects the power-of-two default derived from lineCount:
  // one shard per kAutoLinesPerShard lines, clamped to [1, kMaxShards].
  // Caches under 32 Ki lines stay single-shard — exactly the paper's
  // design; larger ones shard automatically. The DLRM figure benches'
  // default 32,768-line cache (fig07–fig09, fig10's 2 GB point, perfbench
  // dlrm_async) therefore runs two shards. An explicit shard count must be
  // a power of two.
  static constexpr std::uint32_t kAutoLinesPerShard = 16384;
  static constexpr std::uint32_t kMaxShards = 64;

  static constexpr std::uint32_t autoShardCount(std::uint32_t lineCount) {
    const std::uint32_t raw = lineCount / kAutoLinesPerShard;
    if (raw <= 1) return 1;
    return std::min(std::bit_floor(raw), kMaxShards);
  }

  SoftwareCache(gpu::Hbm& hbm, std::uint32_t lineCount,
                CacheCosts costs = agileCacheCosts(), std::uint32_t shards = 0)
      : lineCount_(lineCount),
        shardCount_(shards == 0 ? autoShardCount(lineCount) : shards),
        costs_(costs),
        lines_(lineCount),
        lineShard_(lineCount) {
    AGILE_CHECK(lineCount >= 1);
    AGILE_CHECK_MSG(std::has_single_bit(shardCount_),
                    "cache shard count must be a power of two");
    AGILE_CHECK_MSG(shardCount_ <= lineCount,
                    "more cache shards than lines");
    shardBits_ = static_cast<std::uint32_t>(std::bit_width(shardCount_) - 1);
    slab_ = hbm.allocBytes(static_cast<std::uint64_t>(lineCount) *
                           nvme::kLbaBytes);
    // Carve [0, lineCount) into contiguous per-shard slices; a lineCount
    // that is not a multiple of the shard count spreads the remainder over
    // the leading shards (sizes differ by at most one line).
    std::uint32_t base = 0;
    for (std::uint32_t s = 0; s < shardCount_; ++s) {
      const std::uint32_t count =
          lineCount / shardCount_ + (s < lineCount % shardCount_ ? 1 : 0);
      Shard& sh = shards_.emplace_back(base, count);
      for (std::uint32_t i = 0; i < count; ++i) {
        CacheLine& l = lines_[base + i];
        l.data = slab_ +
                 static_cast<std::uint64_t>(base + i) * nvme::kLbaBytes;
        l.stallWaiters = &sh.stallWaiters;
        l.busyCounter = &sh.busyCount;
        lineShard_[base + i] = s;
        // Popped back-to-front so frames fill in index order.
        sh.freshLines.push_back(base + count - 1 - i);
      }
      sh.map.reserve(count * 2);
      base += count;
    }
  }

  std::uint32_t lineCount() const { return lineCount_; }
  CacheLine& line(std::uint32_t i) { return lines_[i]; }
  const CacheCosts& costs() const { return costs_; }

  // --- shard geometry ---
  std::uint32_t shardCount() const { return shardCount_; }
  std::uint32_t shardOfTag(std::uint64_t tag) const {
    if (shardCount_ == 1) return 0;
    return static_cast<std::uint32_t>((tag * 0x9e3779b97f4a7c15ull) >>
                                      (64 - shardBits_));
  }
  std::uint32_t shardOfLine(std::uint32_t lineIdx) const {
    return lineShard_[lineIdx];
  }
  std::uint32_t shardBase(std::uint32_t shard) const {
    return shards_[shard].base;
  }
  std::uint32_t shardLineCount(std::uint32_t shard) const {
    return shards_[shard].count;
  }

  // Replacement-policy instance of one shard (shard 0 == the whole cache
  // when unsharded).
  Policy& policy(std::uint32_t shard = 0) { return shards_[shard].policy; }

  // Merged statistics across shards (per-shard counters are disjoint, so
  // the merge is a plain sum). shardStats() exposes one shard's slice for
  // tests and per-shard sweep telemetry.
  CacheStats stats() const {
    CacheStats out;
    for (const Shard& sh : shards_) {
      out.hits += sh.stats.hits;
      out.misses += sh.stats.misses;
      out.busyHits += sh.stats.busyHits;
      out.evictions += sh.stats.evictions;
      out.writebacks += sh.stats.writebacks;
      out.victimStalls += sh.stats.victimStalls;
    }
    return out;
  }
  const CacheStats& shardStats(std::uint32_t shard) const {
    return shards_[shard].stats;
  }
  void resetStats() {
    for (Shard& sh : shards_) sh.stats = {};
  }

  // One atomic probe-or-claim step (runs within a single lane segment —
  // the critical section the paper guards with the cache lock, charged per
  // shard via chargeSharded). The caller loops on kStall / kNeedWriteback
  // outcomes with awaits in between. countLookup == false keeps the probe
  // out of hits / misses / busyHits (a Share-Table demotion is no demand
  // lookup); the evictions, writebacks and stalls it causes still count.
  AGILE_NODISCARD(
      "a kClaimed result hands the caller a BUSY line it must fill and "
      "release; dropping it wedges the line")
  ProbeResult probeOrClaim(gpu::KernelCtx& ctx, std::uint64_t tag,
                           bool countLookup = true) {
    const std::uint32_t si = shardOfTag(tag);
    Shard& sh = shards_[si];
    ctx.chargeSharded(costs_.probe, shardCount_);
    auto it = sh.map.find(tag);
    if (it != sh.map.end()) {
      CacheLine& l = lines_[it->second];
      AGILE_CHECK(l.tag == tag);
      switch (l.state) {
        case LineState::kReady:
        case LineState::kModified:
          sh.stats.hits += countLookup;
          sh.policy.onTouch(it->second - sh.base);
          return {ProbeOutcome::kHit, it->second, si};
        case LineState::kBusy:
          sh.stats.busyHits += countLookup;
          return {ProbeOutcome::kBusy, it->second, si};
        case LineState::kInvalid:
          // A finished eviction left the mapping behind; drop it and fall
          // through to the miss path.
          sh.map.erase(it);
          l.tag = kNoTag;
          break;
      }
    }
    sh.stats.misses += countLookup;
    // Miss: never-used lines are consumed before the policy evicts anything
    // (all policies fill empty frames first).
    std::uint32_t v;
    if (!sh.freshLines.empty()) {
      v = sh.freshLines.back();
      sh.freshLines.pop_back();
    } else {
      const std::uint32_t local = sh.policy.selectVictim(
          std::span<const CacheLine>(lines_.data() + sh.base, sh.count), ctx);
      v = local == Policy::npos ? Policy::npos : sh.base + local;
    }
    if (v == Policy::npos) {
      ++sh.stats.victimStalls;
      return {ProbeOutcome::kStall, 0, si};
    }
    CacheLine& vic = lines_[v];
    AGILE_CHECK(vic.state != LineState::kBusy);
    if (vic.state == LineState::kModified) {
      // Case (d): dirty victim — caller issues the writeback; the line stays
      // mapped (and BUSY) until the data lands on the SSD so concurrent
      // readers of the old tag cannot observe stale flash content.
      ctx.chargeSharded(costs_.evict, shardCount_);
      vic.setBusy(/*evict=*/true);
      ++sh.stats.writebacks;
      return {ProbeOutcome::kNeedWriteback, v, si};
    }
    if (vic.state == LineState::kReady) {
      ctx.chargeSharded(costs_.evict, shardCount_);
      ++sh.stats.evictions;
      sh.policy.onEvict(v - sh.base);
    }
    // Drop any stale mapping the victim still carries (READY eviction, or an
    // INVALID line left mapped by a completed writeback / failed fill).
    if (vic.tag != kNoTag) {
      auto old = sh.map.find(vic.tag);
      if (old != sh.map.end() && old->second == v) sh.map.erase(old);
    }
    // Claim for the new tag.
    ctx.chargeSharded(costs_.insert, shardCount_);
    vic.tag = tag;
    vic.setBusy(/*evict=*/false);
    sh.map[tag] = v;
    sh.policy.onFill(v - sh.base);
    return {ProbeOutcome::kClaimed, v, si};
  }

  // Probe without claiming (used by asyncRead, which falls back to a direct
  // SSD->buffer transfer on miss instead of occupying a line).
  AGILE_NODISCARD("a kHit result pins the line for the in-flight read")
  ProbeResult probeOnly(gpu::KernelCtx& ctx, std::uint64_t tag) {
    const std::uint32_t si = shardOfTag(tag);
    Shard& sh = shards_[si];
    ctx.chargeSharded(costs_.probe, shardCount_);
    auto it = sh.map.find(tag);
    if (it == sh.map.end()) {
      ++sh.stats.misses;
      return {ProbeOutcome::kStall, 0, si};
    }
    CacheLine& l = lines_[it->second];
    switch (l.state) {
      case LineState::kReady:
      case LineState::kModified:
        ++sh.stats.hits;
        sh.policy.onTouch(it->second - sh.base);
        return {ProbeOutcome::kHit, it->second, si};
      case LineState::kBusy:
        if (l.evicting) break;  // writeback in flight: treat as miss
        ++sh.stats.busyHits;
        return {ProbeOutcome::kBusy, it->second, si};
      case LineState::kInvalid:
        break;
    }
    ++sh.stats.misses;
    return {ProbeOutcome::kStall, 0, si};
  }

  // Mark a (hit) line dirty after an in-place store.
  void markModified(std::uint32_t lineIdx) {
    AGILE_CHECK(lines_[lineIdx].state == LineState::kReady ||
                lines_[lineIdx].state == LineState::kModified);
    lines_[lineIdx].state = LineState::kModified;
  }

  // Lookup for coherency updates from the write path; npos if absent.
  std::uint32_t findLine(std::uint64_t tag) const {
    const Shard& sh = shards_[shardOfTag(tag)];
    auto it = sh.map.find(tag);
    return it == sh.map.end() ? Policy::npos : it->second;
  }

  // Threads stalled on an all-BUSY shard park here (event-driven instead of
  // timed backoff: any completion that frees one of the shard's lines
  // admits one claimant — and wakes nobody in other shards).
  sim::WaitList& stallWaiters(std::uint32_t shard = 0) {
    return shards_[shard].stallWaiters;
  }

  // Number of lines currently BUSY (used by tests/benches, possibly inside
  // tight loops, and by the adaptive-depth accessors). O(shards): each
  // shard maintains its counter on the BUSY transitions.
  std::uint32_t busyLines() const {
    std::uint32_t n = 0;
    for (const Shard& sh : shards_) n += sh.busyCount;
    return n;
  }
  // BUSY lines of one shard — the pressure signal the depth-K accessors
  // throttle on. O(1).
  std::uint32_t busyLines(std::uint32_t shard) const {
    return shards_[shard].busyCount;
  }

  // O(n) reference count over line states; tests assert it always matches
  // the maintained per-shard counters.
  std::uint32_t busyLinesSlow() const {
    std::uint32_t n = 0;
    for (const auto& l : lines_) n += l.state == LineState::kBusy;
    return n;
  }

 private:
  // One set of the cache: everything a probe touches lives here, so probes
  // to different shards contend on nothing. Tagged as a TSA capability:
  // mutating shard state is only legal from the probe/claim/release verbs
  // (simulator-side single-threaded; never touched by host thread pools).
  struct AGILE_CAPABILITY("cache-shard") Shard {
    Shard(std::uint32_t base_, std::uint32_t count_)
        : base(base_), count(count_), policy(count_) {
      freshLines.reserve(count_);
    }

    std::uint32_t base;   // first global line index of this shard
    std::uint32_t count;  // lines owned by this shard
    Policy policy;        // victim selection over local indices [0, count)
    std::vector<std::uint32_t> freshLines;  // never-used lines (global idx)
    std::uint32_t busyCount = 0;
    sim::WaitList stallWaiters;
    std::unordered_map<std::uint64_t, std::uint32_t> map;  // tag -> global idx
    CacheStats stats;
  };

  std::uint32_t lineCount_;
  std::uint32_t shardCount_;
  std::uint32_t shardBits_ = 0;
  CacheCosts costs_;
  std::vector<CacheLine> lines_;
  std::vector<std::uint32_t> lineShard_;
  // WaitList members make Shard non-movable; deque constructs in place and
  // never relocates (CacheLine::stallWaiters/busyCounter point into it).
  std::deque<Shard> shards_;
  std::byte* slab_ = nullptr;
};

}  // namespace agile::core
