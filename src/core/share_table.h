// Share Table (§3.4.1): extends coherency to user-specified buffers.
//
// A hashtable keyed by (device, lba) records which user buffer currently
// owns a copy of an SSD page fetched through asyncRead. The MOESI-inspired
// protocol is reinterpreted for pointer sharing: instead of duplicating data
// per thread, later readers are handed a pointer to the owner's buffer and a
// reference count tracks use. A writer moves the entry to Modified. The last
// releaser hands the page down to the L2 (software cache in HBM): a Modified
// buffer is propagated (the line ends MODIFIED), a clean one is demoted (the
// line ends READY) — the ctrl performs both on release. A write through
// another path detaches the entry instead: new readers miss it, its holders
// keep their snapshot, and its last release hands nothing down.
//
// The sharing decision is a CRTP policy, mirroring the customization hook
// the paper exposes; NeverSharePolicy compiles the table away (the paper's
// compile-time disable).
#pragma once

#include <cstdint>
#include <unordered_map>
#include <vector>

#include "common/annotations.h"
#include "common/check.h"
#include "core/buf.h"
#include "core/cost_model.h"
#include "gpu/exec.h"
#include "sim/engine.h"

namespace agile::core {

// Buffer-ownership states (MOESI reinterpreted per §3.4.1: Owned/Exclusive
// collapse onto the pointer holder; Invalid is absence from the table).
enum class ShareState : std::uint8_t {
  kExclusive,  // one reader
  kShared,     // multiple readers attached to one buffer
  kModified,   // written; must be propagated to the software cache
};

// Tagged as a TSA capability: holding an attached entry is what authorizes
// reading through the owner's buffer, and releaseOwned/releaseBuf are the
// release edges agile-lint's share-owner-reuse check pairs up.
struct AGILE_CAPABILITY("share-entry") ShareEntry {
  std::uint64_t tag = 0;
  AgileBuf* buf = nullptr;
  std::uint32_t refCount = 0;
  ShareState state = ShareState::kExclusive;
  // Set by ShareTable::invalidate: out of lookup, alive until its last
  // holder releases it.
  bool detached = false;
  // An owner that wants its buffer back while sharers still read through it
  // parks here; the release dropping refCount to 1 (owner-only) notifies.
  // Without this, an owner that releases and immediately reuses its buffer
  // for another page can overwrite data a redirected peer has not read yet.
  sim::WaitList drainWaiters;
};

template <class Derived>
class SharePolicyBase {
 public:
  static constexpr bool kEnabled = true;
  // Whether this page is worth tracking (e.g., policies may exclude
  // streaming data).
  bool shouldTrack(std::uint64_t tag) {
    return static_cast<Derived&>(*this).doShouldTrack(tag);
  }
};

class DefaultSharePolicy : public SharePolicyBase<DefaultSharePolicy> {
 public:
  bool doShouldTrack(std::uint64_t) { return true; }
};

// Compile-time off switch: AgileCtrl specializes its asyncRead path away.
class NeverSharePolicy : public SharePolicyBase<NeverSharePolicy> {
 public:
  static constexpr bool kEnabled = false;
  bool doShouldTrack(std::uint64_t) { return false; }
};

struct ShareStats {
  std::uint64_t hits = 0;       // redirected to an existing buffer
  std::uint64_t inserts = 0;
  std::uint64_t releases = 0;
  std::uint64_t propagations = 0;  // Modified data pushed to the L2 cache
  std::uint64_t demotions = 0;     // clean pages installed in the L2 cache
};

// What the caller of ShareTable::release must do with the buffer.
enum class ShareRelease : std::uint8_t {
  kHeld,          // other holders remain
  kLastClean,     // last reference to a live clean entry: demote it
  kLastModified,  // last reference to a live Modified entry: propagate it
  kLastDetached,  // last reference to an invalidated entry: a newer write
                  // owns the page, so nothing is handed down
};

template <class Policy>
class ShareTable {
 public:
  explicit ShareTable(Policy policy = {}) : policy_(std::move(policy)) {}

  static constexpr bool kEnabled = Policy::kEnabled;

  Policy& policy() { return policy_; }
  const ShareStats& stats() const { return stats_; }
  void resetStats() { stats_ = {}; }
  void noteDemotion() { ++stats_.demotions; }
  // Live entries plus detached ones whose holders have not all released.
  std::size_t size() const { return map_.size() + detached_.size(); }

  // Probe for an existing owner of `tag`; on hit, attach (refCount++).
  AGILE_NODISCARD("the entry is the attach handle; it must be released")
  ShareEntry* attach(gpu::KernelCtx& ctx,
                     std::uint64_t tag) AGILE_LIFETIME_BOUND {
    if (!kEnabled || !policy_.shouldTrack(tag)) return nullptr;
    ctx.charge(cost::kShareProbe);
    auto it = map_.find(tag);
    if (it == map_.end()) return nullptr;
    ++it->second.refCount;
    if (it->second.state == ShareState::kExclusive) {
      it->second.state = ShareState::kShared;
    }
    ++stats_.hits;
    return &it->second;
  }

  // Register `buf` as the owner of `tag` (first reader). Returns the entry,
  // or nullptr if the policy declines tracking.
  AGILE_NODISCARD("the entry is the owner handle; it must be released")
  ShareEntry* registerOwner(gpu::KernelCtx& ctx, std::uint64_t tag,
                            AgileBuf& buf) AGILE_LIFETIME_BOUND {
    if (!kEnabled || !policy_.shouldTrack(tag)) return nullptr;
    ctx.charge(cost::kShareInsert);
    auto [it, inserted] = map_.try_emplace(tag);
    AGILE_CHECK_MSG(inserted, "share entry already exists for tag");
    it->second.tag = tag;
    it->second.buf = &buf;
    it->second.refCount = 1;
    it->second.state = ShareState::kExclusive;
    ++stats_.inserts;
    return &it->second;
  }

  // A holder writes through its pointer: entry moves to Modified.
  void markModified(ShareEntry& entry) { entry.state = ShareState::kModified; }

  // Detach one holder. Anything but kHeld means this was the last
  // reference: the entry is destroyed, so the caller must read what it
  // needs from it first.
  AGILE_NODISCARD(
      "kLastModified means the caller MUST write the buffer back before "
      "reusing it")
  ShareRelease release(gpu::KernelCtx& ctx, ShareEntry& entry) {
    ctx.charge(cost::kShareRelease);
    AGILE_CHECK(entry.refCount > 0);
    ++stats_.releases;
    --entry.refCount;
    if (entry.refCount != 0) return ShareRelease::kHeld;
    if (entry.detached) {
      for (auto it = detached_.begin(); it != detached_.end(); ++it) {
        if (&it->mapped() == &entry) {
          detached_.erase(it);
          return ShareRelease::kLastDetached;
        }
      }
      AGILE_CHECK_MSG(false, "detached share entry not tracked");
    }
    const bool modified = entry.state == ShareState::kModified;
    if (modified) ++stats_.propagations;
    map_.erase(entry.tag);
    return modified ? ShareRelease::kLastModified : ShareRelease::kLastClean;
  }

  // Writers through other paths (asyncWrite / array store) take the tracked
  // buffer out of lookup so future readers miss it. The entry itself stays
  // alive until its last holder releases: attached holders keep both their
  // snapshot and a valid entry pointer, and the owner's releaseOwned still
  // finds it to drain them.
  void invalidate(std::uint64_t tag) {
    auto node = map_.extract(tag);
    if (node.empty()) return;
    node.mapped().detached = true;
    detached_.push_back(std::move(node));
  }

  // The live entry for `tag`, if any.
  ShareEntry* find(std::uint64_t tag) AGILE_LIFETIME_BOUND {
    auto it = map_.find(tag);
    return it == map_.end() ? nullptr : &it->second;
  }

  // The entry, live or detached, that `buf` owns for `tag`; nullptr if the
  // buffer owns none (its read resolved from the cache or a peer).
  ShareEntry* findOwned(std::uint64_t tag,
                        const AgileBuf* buf) AGILE_LIFETIME_BOUND {
    ShareEntry* e = find(tag);
    if (e != nullptr && e->buf == buf) return e;
    for (auto& node : detached_) {
      if (node.key() == tag && node.mapped().buf == buf) return &node.mapped();
    }
    return nullptr;
  }

 private:
  Policy policy_;
  using Map = std::unordered_map<std::uint64_t, ShareEntry>;
  Map map_;
  // Invalidated entries with holders left. Extracted map nodes keep the
  // entry at the address its holders point at; normally empty.
  std::vector<Map::node_type> detached_;
  ShareStats stats_;
};

}  // namespace agile::core
