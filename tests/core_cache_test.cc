// Tests for the software cache: the four-state line machine, the four access
// cases of §3.4, and all built-in replacement policies (parameterized over
// policy where behaviour must be common).
#include <gtest/gtest.h>

#include <cstring>
#include <set>

#include "core/cache.h"
#include "gpu/exec.h"
#include "sim/engine.h"

namespace agile::core {
namespace {

struct CacheFixture : ::testing::Test {
  sim::Engine eng;
  gpu::Gpu gpu{eng, gpu::GpuConfig{}};

  bool run1(gpu::KernelFn fn) {
    auto k = gpu.launch({.gridDim = 1, .blockDim = 1, .name = "t"}, fn);
    return gpu.wait(k, 100_ms);
  }
};

TEST_F(CacheFixture, TagPacking) {
  const auto tag = makeTag(3, 0x123456789abcull);
  EXPECT_EQ(tagDev(tag), 3u);
  EXPECT_EQ(tagLba(tag), 0x123456789abcull);
}

TEST_F(CacheFixture, MissClaimsLineBusy) {
  SoftwareCache<ClockPolicy> cache(gpu.hbm(), 8);
  ASSERT_TRUE(run1([&](gpu::KernelCtx& ctx) -> gpu::GpuTask<void> {
    auto r = cache.probeOrClaim(ctx, makeTag(0, 7));
    EXPECT_EQ(r.outcome, ProbeOutcome::kClaimed);
    EXPECT_EQ(cache.line(r.line).state, LineState::kBusy);
    EXPECT_EQ(cache.line(r.line).tag, makeTag(0, 7));
    co_return;
  }));
  EXPECT_EQ(cache.stats().misses, 1u);
}

TEST_F(CacheFixture, SecondProbeCoalescesOnBusy) {
  SoftwareCache<ClockPolicy> cache(gpu.hbm(), 8);
  ASSERT_TRUE(run1([&](gpu::KernelCtx& ctx) -> gpu::GpuTask<void> {
    auto a = cache.probeOrClaim(ctx, makeTag(0, 7));
    auto b = cache.probeOrClaim(ctx, makeTag(0, 7));
    EXPECT_EQ(a.outcome, ProbeOutcome::kClaimed);
    EXPECT_EQ(b.outcome, ProbeOutcome::kBusy);
    EXPECT_EQ(a.line, b.line);
    co_return;
  }));
  EXPECT_EQ(cache.stats().busyHits, 1u);
}

TEST_F(CacheFixture, FillCompleteMakesHit) {
  SoftwareCache<ClockPolicy> cache(gpu.hbm(), 8);
  ASSERT_TRUE(run1([&](gpu::KernelCtx& ctx) -> gpu::GpuTask<void> {
    auto r = cache.probeOrClaim(ctx, makeTag(0, 7));
    cache.line(r.line).onFillComplete(eng, nvme::Status::kSuccess);
    EXPECT_EQ(cache.line(r.line).state, LineState::kReady);
    auto h = cache.probeOrClaim(ctx, makeTag(0, 7));
    EXPECT_EQ(h.outcome, ProbeOutcome::kHit);
    EXPECT_EQ(h.line, r.line);
    co_return;
  }));
  EXPECT_EQ(cache.stats().hits, 1u);
}

TEST_F(CacheFixture, FailedFillDropsToInvalid) {
  SoftwareCache<ClockPolicy> cache(gpu.hbm(), 8);
  ASSERT_TRUE(run1([&](gpu::KernelCtx& ctx) -> gpu::GpuTask<void> {
    auto r = cache.probeOrClaim(ctx, makeTag(0, 7));
    cache.line(r.line).onFillComplete(eng, nvme::Status::kUnrecoveredReadError);
    EXPECT_EQ(cache.line(r.line).state, LineState::kInvalid);
    // Next probe re-claims (the stale mapping is dropped).
    auto again = cache.probeOrClaim(ctx, makeTag(0, 7));
    EXPECT_EQ(again.outcome, ProbeOutcome::kClaimed);
    co_return;
  }));
}

TEST_F(CacheFixture, FillDeliversToWaitingBuffers) {
  SoftwareCache<ClockPolicy> cache(gpu.hbm(), 8);
  auto* mem1 = gpu.hbm().allocBytes(nvme::kLbaBytes);
  auto* mem2 = gpu.hbm().allocBytes(nvme::kLbaBytes);
  AgileBuf b1(mem1), b2(mem2);
  ASSERT_TRUE(run1([&](gpu::KernelCtx& ctx) -> gpu::GpuTask<void> {
    auto r = cache.probeOrClaim(ctx, makeTag(0, 3));
    CacheLine& line = cache.line(r.line);
    std::memset(line.data, 0x42, nvme::kLbaBytes);  // simulated DMA landing
    line.appendBufWaiter(b1);
    line.appendBufWaiter(b2);
    EXPECT_EQ(b1.barrier().pending(), 1u);
    line.onFillComplete(eng, nvme::Status::kSuccess);
    co_return;
  }));
  eng.runToCompletion();
  EXPECT_TRUE(b1.barrier().ready());
  EXPECT_TRUE(b2.barrier().ready());
  EXPECT_EQ(static_cast<int>(mem1[100]), 0x42);
  EXPECT_EQ(static_cast<int>(mem2[200]), 0x42);
}

TEST_F(CacheFixture, DirtyVictimRequiresWriteback) {
  SoftwareCache<ClockPolicy> cache(gpu.hbm(), 1);  // single line
  ASSERT_TRUE(run1([&](gpu::KernelCtx& ctx) -> gpu::GpuTask<void> {
    auto r = cache.probeOrClaim(ctx, makeTag(0, 1));
    cache.line(r.line).onFillComplete(eng, nvme::Status::kSuccess);
    cache.markModified(r.line);
    // A different tag must trigger the case (d) writeback path.
    auto w = cache.probeOrClaim(ctx, makeTag(0, 2));
    EXPECT_EQ(w.outcome, ProbeOutcome::kNeedWriteback);
    CacheLine& line = cache.line(w.line);
    EXPECT_TRUE(line.evicting);
    EXPECT_EQ(line.state, LineState::kBusy);
    // Writeback completes: line reclaimable.
    line.onWritebackComplete(eng, nvme::Status::kSuccess);
    EXPECT_EQ(line.state, LineState::kInvalid);
    auto c = cache.probeOrClaim(ctx, makeTag(0, 2));
    EXPECT_EQ(c.outcome, ProbeOutcome::kClaimed);
    co_return;
  }));
  EXPECT_EQ(cache.stats().writebacks, 1u);
}

// busyLines() is an O(1) maintained counter; it must agree with a full line
// scan (busyLinesSlow) through every BUSY transition: claim, fill
// success/failure, dirty eviction, writeback success/failure.
TEST_F(CacheFixture, BusyLineCounterTracksAllTransitions) {
  SoftwareCache<ClockPolicy> cache(gpu.hbm(), 2);
  auto sync = [&] { EXPECT_EQ(cache.busyLines(), cache.busyLinesSlow()); };
  ASSERT_TRUE(run1([&](gpu::KernelCtx& ctx) -> gpu::GpuTask<void> {
    EXPECT_EQ(cache.busyLines(), 0u);
    auto a = cache.probeOrClaim(ctx, makeTag(0, 1));
    EXPECT_EQ(a.outcome, ProbeOutcome::kClaimed);
    sync();
    EXPECT_EQ(cache.busyLines(), 1u);
    auto b = cache.probeOrClaim(ctx, makeTag(0, 2));
    EXPECT_EQ(b.outcome, ProbeOutcome::kClaimed);
    sync();
    EXPECT_EQ(cache.busyLines(), 2u);
    cache.line(a.line).onFillComplete(eng, nvme::Status::kSuccess);
    sync();
    EXPECT_EQ(cache.busyLines(), 1u);
    cache.line(b.line).onFillComplete(eng, nvme::Status::kUnrecoveredReadError);
    sync();
    EXPECT_EQ(cache.busyLines(), 0u);
    cache.markModified(a.line);
    // Thrash fresh tags through the 2-line cache, resolving every outcome
    // (fills succeed or fail, writebacks succeed or fault once) and checking
    // counter == scan after each transition.
    for (std::uint64_t lba = 3; lba < 40; ++lba) {
      bool faultedOnce = false;
      for (;;) {
        auto r = cache.probeOrClaim(ctx, makeTag(0, lba));
        sync();
        if (r.outcome == ProbeOutcome::kClaimed) {
          cache.line(r.line).onFillComplete(
              eng, lba % 3 == 0 ? nvme::Status::kUnrecoveredReadError
                                : nvme::Status::kSuccess);
          sync();
          if (cache.line(r.line).state == LineState::kReady && lba % 2 == 0) {
            cache.markModified(r.line);  // seed future writebacks
          }
          break;
        }
        EXPECT_EQ(r.outcome, ProbeOutcome::kNeedWriteback);
        if (r.outcome != ProbeOutcome::kNeedWriteback) break;
        const bool fault = !faultedOnce && lba % 5 == 0;
        faultedOnce = true;
        cache.line(r.line).onWritebackComplete(
            eng, fault ? nvme::Status::kWriteFault : nvme::Status::kSuccess);
        sync();
      }
    }
    EXPECT_EQ(cache.busyLines(), 0u);
    co_return;
  }));
}

TEST_F(CacheFixture, FailedWritebackKeepsDataModified) {
  SoftwareCache<ClockPolicy> cache(gpu.hbm(), 1);
  ASSERT_TRUE(run1([&](gpu::KernelCtx& ctx) -> gpu::GpuTask<void> {
    auto r = cache.probeOrClaim(ctx, makeTag(0, 1));
    cache.line(r.line).onFillComplete(eng, nvme::Status::kSuccess);
    cache.markModified(r.line);
    auto w = cache.probeOrClaim(ctx, makeTag(0, 2));
    EXPECT_EQ(w.outcome, ProbeOutcome::kNeedWriteback);
    cache.line(w.line).onWritebackComplete(eng, nvme::Status::kWriteFault);
    // Data must not be lost: the line stays MODIFIED for a retry.
    EXPECT_EQ(cache.line(w.line).state, LineState::kModified);
    co_return;
  }));
}

TEST_F(CacheFixture, CleanVictimEvictsInstantly) {
  SoftwareCache<ClockPolicy> cache(gpu.hbm(), 1);
  ASSERT_TRUE(run1([&](gpu::KernelCtx& ctx) -> gpu::GpuTask<void> {
    auto r = cache.probeOrClaim(ctx, makeTag(0, 1));
    cache.line(r.line).onFillComplete(eng, nvme::Status::kSuccess);
    auto w = cache.probeOrClaim(ctx, makeTag(0, 2));
    EXPECT_EQ(w.outcome, ProbeOutcome::kClaimed);
    EXPECT_EQ(cache.line(w.line).tag, makeTag(0, 2));
    co_return;
  }));
  EXPECT_EQ(cache.stats().evictions, 1u);
}

TEST_F(CacheFixture, AllBusyStalls) {
  SoftwareCache<ClockPolicy> cache(gpu.hbm(), 2);
  ASSERT_TRUE(run1([&](gpu::KernelCtx& ctx) -> gpu::GpuTask<void> {
    (void)cache.probeOrClaim(ctx, makeTag(0, 1));
    (void)cache.probeOrClaim(ctx, makeTag(0, 2));
    auto s = cache.probeOrClaim(ctx, makeTag(0, 3));
    EXPECT_EQ(s.outcome, ProbeOutcome::kStall);
    co_return;
  }));
  EXPECT_EQ(cache.stats().victimStalls, 1u);
}

TEST_F(CacheFixture, ProbeOnlyNeverClaims) {
  SoftwareCache<ClockPolicy> cache(gpu.hbm(), 4);
  ASSERT_TRUE(run1([&](gpu::KernelCtx& ctx) -> gpu::GpuTask<void> {
    auto m = cache.probeOnly(ctx, makeTag(0, 9));
    EXPECT_EQ(m.outcome, ProbeOutcome::kStall);
    EXPECT_EQ(cache.busyLines(), 0u);
    co_return;
  }));
}

TEST_F(CacheFixture, ProbeOnlyTreatsEvictingAsMiss) {
  SoftwareCache<ClockPolicy> cache(gpu.hbm(), 1);
  ASSERT_TRUE(run1([&](gpu::KernelCtx& ctx) -> gpu::GpuTask<void> {
    auto r = cache.probeOrClaim(ctx, makeTag(0, 1));
    cache.line(r.line).onFillComplete(eng, nvme::Status::kSuccess);
    cache.markModified(r.line);
    auto w = cache.probeOrClaim(ctx, makeTag(0, 2));
    EXPECT_EQ(w.outcome, ProbeOutcome::kNeedWriteback);
    // While the old page is being written back, an asyncRead of it must not
    // ride the line (it would observe an eviction, not a fill).
    auto p = cache.probeOnly(ctx, makeTag(0, 1));
    EXPECT_EQ(p.outcome, ProbeOutcome::kStall);
    co_return;
  }));
}

// ---- policy-parameterized behaviour -------------------------------------

template <class Policy>
struct PolicyCacheTest : CacheFixture {};

using Policies =
    ::testing::Types<ClockPolicy, LruPolicy, FifoPolicy, RandomPolicy>;
TYPED_TEST_SUITE(PolicyCacheTest, Policies);

TYPED_TEST(PolicyCacheTest, FillAndHitAllPolicies) {
  SoftwareCache<TypeParam> cache(this->gpu.hbm(), 16);
  ASSERT_TRUE(this->run1([&](gpu::KernelCtx& ctx) -> gpu::GpuTask<void> {
    for (std::uint64_t i = 0; i < 16; ++i) {
      auto r = cache.probeOrClaim(ctx, makeTag(0, i));
      EXPECT_EQ(r.outcome, ProbeOutcome::kClaimed);
      cache.line(r.line).onFillComplete(this->eng, nvme::Status::kSuccess);
    }
    for (std::uint64_t i = 0; i < 16; ++i) {
      auto r = cache.probeOrClaim(ctx, makeTag(0, i));
      EXPECT_EQ(r.outcome, ProbeOutcome::kHit);
    }
    co_return;
  }));
  EXPECT_EQ(cache.stats().hits, 16u);
}

TYPED_TEST(PolicyCacheTest, EvictionMakesRoom) {
  SoftwareCache<TypeParam> cache(this->gpu.hbm(), 4);
  ASSERT_TRUE(this->run1([&](gpu::KernelCtx& ctx) -> gpu::GpuTask<void> {
    // Fill 4 lines, then touch 8 more tags; all must eventually claim.
    for (std::uint64_t i = 0; i < 12; ++i) {
      auto r = cache.probeOrClaim(ctx, makeTag(0, i));
      EXPECT_EQ(r.outcome, ProbeOutcome::kClaimed) << "tag " << i;
      cache.line(r.line).onFillComplete(this->eng, nvme::Status::kSuccess);
    }
    co_return;
  }));
  EXPECT_GE(cache.stats().evictions, 8u);
}

TYPED_TEST(PolicyCacheTest, BusyLinesNeverChosen) {
  SoftwareCache<TypeParam> cache(this->gpu.hbm(), 4);
  ASSERT_TRUE(this->run1([&](gpu::KernelCtx& ctx) -> gpu::GpuTask<void> {
    // Keep 3 lines BUSY; repeated misses must only ever churn the 4th.
    for (std::uint64_t i = 0; i < 3; ++i) {
      auto r = cache.probeOrClaim(ctx, makeTag(0, 100 + i));
      EXPECT_EQ(r.outcome, ProbeOutcome::kClaimed);
    }
    std::set<std::uint32_t> used;
    for (std::uint64_t i = 0; i < 6; ++i) {
      auto r = cache.probeOrClaim(ctx, makeTag(0, i));
      EXPECT_EQ(r.outcome, ProbeOutcome::kClaimed);
      used.insert(r.line);
      cache.line(r.line).onFillComplete(this->eng, nvme::Status::kSuccess);
    }
    EXPECT_EQ(used.size(), 1u);
    co_return;
  }));
}

TEST_F(CacheFixture, LruEvictsLeastRecentlyUsed) {
  SoftwareCache<LruPolicy> cache(gpu.hbm(), 3);
  ASSERT_TRUE(run1([&](gpu::KernelCtx& ctx) -> gpu::GpuTask<void> {
    for (std::uint64_t i = 0; i < 3; ++i) {
      auto r = cache.probeOrClaim(ctx, makeTag(0, i));
      cache.line(r.line).onFillComplete(eng, nvme::Status::kSuccess);
    }
    // Touch 0 and 2; 1 becomes LRU.
    (void)cache.probeOrClaim(ctx, makeTag(0, 0));
    (void)cache.probeOrClaim(ctx, makeTag(0, 2));
    auto r = cache.probeOrClaim(ctx, makeTag(0, 9));
    EXPECT_EQ(r.outcome, ProbeOutcome::kClaimed);
    // Tag 1 must be gone; 0 and 2 still hits.
    cache.line(r.line).onFillComplete(eng, nvme::Status::kSuccess);
    EXPECT_EQ(cache.probeOrClaim(ctx, makeTag(0, 0)).outcome,
              ProbeOutcome::kHit);
    EXPECT_EQ(cache.probeOrClaim(ctx, makeTag(0, 2)).outcome,
              ProbeOutcome::kHit);
    EXPECT_EQ(cache.findLine(makeTag(0, 1)), SoftwareCache<LruPolicy>::npos);
    co_return;
  }));
}

// ---- sharding ------------------------------------------------------------

// Find a (dev=0) tag that maps to `shard`, scanning lbas from *cursor.
template <class Cache>
std::uint64_t tagInShard(const Cache& cache, std::uint32_t shard,
                         std::uint64_t* cursor) {
  for (;; ++*cursor) {
    if (cache.shardOfTag(makeTag(0, *cursor)) == shard) {
      return makeTag(0, (*cursor)++);
    }
  }
}

// Reference model of the pre-refactor container: one tag map, one policy
// over all lines, one fresh-line list. Only the functional behaviour is
// modeled (outcomes, line choice, stats) — exactly what the shards=1
// equivalence claim is about.
class LegacyCacheModel {
 public:
  explicit LegacyCacheModel(std::uint32_t lineCount)
      : policy_(lineCount), lines_(lineCount) {
    fresh_.reserve(lineCount);
    for (std::uint32_t i = 0; i < lineCount; ++i) {
      fresh_.push_back(lineCount - 1 - i);
    }
  }

  CacheLine& line(std::uint32_t i) { return lines_[i]; }
  const CacheStats& stats() const { return stats_; }

  ProbeResult probeOrClaim(gpu::KernelCtx& ctx, std::uint64_t tag) {
    auto it = map_.find(tag);
    if (it != map_.end()) {
      CacheLine& l = lines_[it->second];
      switch (l.state) {
        case LineState::kReady:
        case LineState::kModified:
          ++stats_.hits;
          policy_.onTouch(it->second);
          return {ProbeOutcome::kHit, it->second, 0};
        case LineState::kBusy:
          ++stats_.busyHits;
          return {ProbeOutcome::kBusy, it->second, 0};
        case LineState::kInvalid:
          map_.erase(it);
          l.tag = kNoTag;
          break;
      }
    }
    ++stats_.misses;
    std::uint32_t v;
    if (!fresh_.empty()) {
      v = fresh_.back();
      fresh_.pop_back();
    } else {
      v = policy_.selectVictim(lines_, ctx);
    }
    if (v == ClockPolicy::npos) {
      ++stats_.victimStalls;
      return {ProbeOutcome::kStall, 0, 0};
    }
    CacheLine& vic = lines_[v];
    if (vic.state == LineState::kModified) {
      vic.setBusy(true);
      ++stats_.writebacks;
      return {ProbeOutcome::kNeedWriteback, v, 0};
    }
    if (vic.state == LineState::kReady) {
      ++stats_.evictions;
      policy_.onEvict(v);
    }
    if (vic.tag != kNoTag) {
      auto old = map_.find(vic.tag);
      if (old != map_.end() && old->second == v) map_.erase(old);
    }
    vic.tag = tag;
    vic.setBusy(false);
    map_[tag] = v;
    policy_.onFill(v);
    return {ProbeOutcome::kClaimed, v, 0};
  }

 private:
  ClockPolicy policy_;
  std::vector<CacheLine> lines_;
  std::vector<std::uint32_t> fresh_;
  std::unordered_map<std::uint64_t, std::uint32_t> map_;
  CacheStats stats_;
};

// A shards=1 cache must replay the old fully-associative container exactly:
// same outcome, same line index, same stats, across a long randomized
// sequence of probes, fill completions (including failures), writeback
// completions (including faults), and dirtying stores.
TEST_F(CacheFixture, Shards1MatchesLegacyContainer) {
  SoftwareCache<ClockPolicy> cache(gpu.hbm(), 16, agileCacheCosts(),
                                   /*shards=*/1);
  ASSERT_EQ(cache.shardCount(), 1u);
  LegacyCacheModel ref(16);
  ASSERT_TRUE(run1([&](gpu::KernelCtx& ctx) -> gpu::GpuTask<void> {
    Rng rng(42);
    for (std::uint32_t step = 0; step < 4000; ++step) {
      const std::uint64_t tag = makeTag(0, rng.nextBelow(64));
      const ProbeResult a = cache.probeOrClaim(ctx, tag);
      const ProbeResult b = ref.probeOrClaim(ctx, tag);
      EXPECT_EQ(a.outcome, b.outcome) << "step " << step;
      EXPECT_EQ(a.line, b.line) << "step " << step;
      EXPECT_EQ(a.shard, 0u);
      if (a.outcome != b.outcome || a.line != b.line) co_return;
      switch (a.outcome) {
        case ProbeOutcome::kClaimed: {
          const auto st = rng.nextBelow(8) == 0
                              ? nvme::Status::kUnrecoveredReadError
                              : nvme::Status::kSuccess;
          cache.line(a.line).onFillComplete(eng, st);
          ref.line(b.line).onFillComplete(eng, st);
          if (st == nvme::Status::kSuccess && rng.nextBelow(3) == 0) {
            cache.markModified(a.line);
            ref.line(b.line).state = LineState::kModified;
          }
          break;
        }
        case ProbeOutcome::kNeedWriteback: {
          const auto st = rng.nextBelow(16) == 0 ? nvme::Status::kWriteFault
                                                 : nvme::Status::kSuccess;
          cache.line(a.line).onWritebackComplete(eng, st);
          ref.line(b.line).onWritebackComplete(eng, st);
          break;
        }
        default:
          break;
      }
      EXPECT_EQ(cache.busyLines(), cache.busyLinesSlow());
    }
    co_return;
  }));
  const CacheStats got = cache.stats();
  const CacheStats& want = ref.stats();
  EXPECT_EQ(got.hits, want.hits);
  EXPECT_EQ(got.misses, want.misses);
  EXPECT_EQ(got.busyHits, want.busyHits);
  EXPECT_EQ(got.evictions, want.evictions);
  EXPECT_EQ(got.writebacks, want.writebacks);
  EXPECT_EQ(got.victimStalls, want.victimStalls);
}

// A lineCount that is not a multiple of the shard count spreads the
// remainder over the leading shards; every line is reachable and usable.
TEST_F(CacheFixture, UnevenLineCountAcrossShards) {
  SoftwareCache<ClockPolicy> cache(gpu.hbm(), 13, agileCacheCosts(),
                                   /*shards=*/4);
  EXPECT_EQ(cache.shardCount(), 4u);
  std::uint32_t total = 0;
  for (std::uint32_t s = 0; s < 4; ++s) {
    EXPECT_GE(cache.shardLineCount(s), 3u);
    EXPECT_LE(cache.shardLineCount(s), 4u);
    EXPECT_EQ(cache.shardBase(s), total);
    total += cache.shardLineCount(s);
  }
  EXPECT_EQ(total, 13u);
  // Fill each shard to capacity: every one of the 13 lines gets claimed and
  // no claim escapes its tag's shard.
  ASSERT_TRUE(run1([&](gpu::KernelCtx& ctx) -> gpu::GpuTask<void> {
    std::uint64_t cursor = 0;
    std::set<std::uint32_t> used;
    for (std::uint32_t s = 0; s < 4; ++s) {
      for (std::uint32_t i = 0; i < cache.shardLineCount(s); ++i) {
        const std::uint64_t tag = tagInShard(cache, s, &cursor);
        auto r = cache.probeOrClaim(ctx, tag);
        EXPECT_EQ(r.outcome, ProbeOutcome::kClaimed);
        EXPECT_EQ(r.shard, s);
        EXPECT_EQ(cache.shardOfLine(r.line), s);
        EXPECT_GE(r.line, cache.shardBase(s));
        EXPECT_LT(r.line, cache.shardBase(s) + cache.shardLineCount(s));
        used.insert(r.line);
      }
      // Shard full: one more tag of this shard stalls even though other
      // shards still have fresh lines.
      const std::uint64_t extra = tagInShard(cache, s, &cursor);
      EXPECT_EQ(cache.probeOrClaim(ctx, extra).outcome, ProbeOutcome::kStall);
    }
    EXPECT_EQ(used.size(), 13u);
    co_return;
  }));
}

// Sum of the per-shard O(1) BUSY counters must match the O(n) line scan
// (and the global busyLines() sum) through claim/fill/writeback churn.
TEST_F(CacheFixture, PerShardBusyCountersSumToSlowScan) {
  SoftwareCache<ClockPolicy> cache(gpu.hbm(), 12, agileCacheCosts(),
                                   /*shards=*/4);
  auto sync = [&] {
    std::uint32_t sum = 0;
    for (std::uint32_t s = 0; s < cache.shardCount(); ++s) {
      sum += cache.busyLines(s);
    }
    EXPECT_EQ(sum, cache.busyLinesSlow());
    EXPECT_EQ(sum, cache.busyLines());
  };
  ASSERT_TRUE(run1([&](gpu::KernelCtx& ctx) -> gpu::GpuTask<void> {
    Rng rng(7);
    for (std::uint32_t step = 0; step < 2000; ++step) {
      auto r = cache.probeOrClaim(ctx, makeTag(0, rng.nextBelow(48)));
      sync();
      if (r.outcome == ProbeOutcome::kClaimed) {
        cache.line(r.line).onFillComplete(
            eng, rng.nextBelow(6) == 0 ? nvme::Status::kUnrecoveredReadError
                                       : nvme::Status::kSuccess);
        if (cache.line(r.line).state == LineState::kReady &&
            rng.nextBelow(2) == 0) {
          cache.markModified(r.line);
        }
      } else if (r.outcome == ProbeOutcome::kNeedWriteback) {
        cache.line(r.line).onWritebackComplete(eng, nvme::Status::kSuccess);
      }
      sync();
    }
    co_return;
  }));
}

// An all-BUSY stall parks on the affected shard's list: completions in
// other shards must not wake it, completions in its shard wake waiters in
// FIFO order.
TEST_F(CacheFixture, CrossShardStallWakeOrdering) {
  SoftwareCache<ClockPolicy> cache(gpu.hbm(), 8, agileCacheCosts(),
                                   /*shards=*/2);
  std::vector<int> woken;
  ASSERT_TRUE(run1([&](gpu::KernelCtx& ctx) -> gpu::GpuTask<void> {
    std::uint64_t cursor = 0;
    // Saturate both shards.
    std::uint32_t firstLine[2] = {0, 0};
    for (std::uint32_t s = 0; s < 2; ++s) {
      for (std::uint32_t i = 0; i < cache.shardLineCount(s); ++i) {
        auto r = cache.probeOrClaim(ctx, tagInShard(cache, s, &cursor));
        EXPECT_EQ(r.outcome, ProbeOutcome::kClaimed);
        if (i == 0) firstLine[s] = r.line;
      }
      EXPECT_EQ(cache.probeOrClaim(ctx, tagInShard(cache, s, &cursor)).outcome,
                ProbeOutcome::kStall);
    }
    // Two waiters on shard 0 (FIFO), one on shard 1.
    cache.stallWaiters(0).park([&] { woken.push_back(1); });
    cache.stallWaiters(0).park([&] { woken.push_back(2); });
    cache.stallWaiters(1).park([&] { woken.push_back(3); });
    // A completion in shard 1 wakes only shard 1's waiter.
    cache.line(firstLine[1]).onFillComplete(eng, nvme::Status::kSuccess);
    co_return;
  }));
  eng.runToCompletion();
  ASSERT_EQ(woken, (std::vector<int>{3}));
  // A completion in shard 0 admits shard 0's waiters in park order.
  cache.line(cache.shardBase(0)).onFillComplete(eng, nvme::Status::kSuccess);
  eng.runToCompletion();
  ASSERT_EQ(woken, (std::vector<int>{3, 1}));
  cache.line(cache.shardBase(0) + 1)
      .onFillComplete(eng, nvme::Status::kSuccess);
  eng.runToCompletion();
  EXPECT_EQ(woken, (std::vector<int>{3, 1, 2}));
}

// Merged stats() must equal the sum of the per-shard slices.
TEST_F(CacheFixture, MergedStatsSumShardSlices) {
  SoftwareCache<ClockPolicy> cache(gpu.hbm(), 16, agileCacheCosts(),
                                   /*shards=*/4);
  ASSERT_TRUE(run1([&](gpu::KernelCtx& ctx) -> gpu::GpuTask<void> {
    Rng rng(11);
    for (std::uint32_t step = 0; step < 600; ++step) {
      auto r = cache.probeOrClaim(ctx, makeTag(0, rng.nextBelow(64)));
      if (r.outcome == ProbeOutcome::kClaimed) {
        cache.line(r.line).onFillComplete(eng, nvme::Status::kSuccess);
      } else if (r.outcome == ProbeOutcome::kNeedWriteback) {
        cache.line(r.line).onWritebackComplete(eng, nvme::Status::kSuccess);
      } else if (r.outcome == ProbeOutcome::kHit && rng.nextBelow(4) == 0) {
        cache.markModified(r.line);
      }
    }
    co_return;
  }));
  CacheStats sum;
  for (std::uint32_t s = 0; s < cache.shardCount(); ++s) {
    const CacheStats& sh = cache.shardStats(s);
    sum.hits += sh.hits;
    sum.misses += sh.misses;
    sum.busyHits += sh.busyHits;
    sum.evictions += sh.evictions;
    sum.writebacks += sh.writebacks;
    sum.victimStalls += sh.victimStalls;
  }
  const CacheStats merged = cache.stats();
  EXPECT_EQ(merged.hits, sum.hits);
  EXPECT_EQ(merged.misses, sum.misses);
  EXPECT_EQ(merged.busyHits, sum.busyHits);
  EXPECT_EQ(merged.evictions, sum.evictions);
  EXPECT_EQ(merged.writebacks, sum.writebacks);
  EXPECT_EQ(merged.victimStalls, sum.victimStalls);
  EXPECT_GT(merged.hits + merged.misses, 0u);
}

// The power-of-two auto default: figure-bench-sized caches stay unsharded,
// production line counts shard, the count clamps at kMaxShards.
TEST_F(CacheFixture, AutoShardCountDerivation) {
  using Cache = SoftwareCache<ClockPolicy>;
  EXPECT_EQ(Cache::autoShardCount(1), 1u);
  EXPECT_EQ(Cache::autoShardCount(64), 1u);
  EXPECT_EQ(Cache::autoShardCount(8192), 1u);
  EXPECT_EQ(Cache::autoShardCount(Cache::kAutoLinesPerShard), 1u);
  EXPECT_EQ(Cache::autoShardCount(2 * Cache::kAutoLinesPerShard), 2u);
  EXPECT_EQ(Cache::autoShardCount(3 * Cache::kAutoLinesPerShard), 2u);
  EXPECT_EQ(Cache::autoShardCount(16 * Cache::kAutoLinesPerShard), 16u);
  EXPECT_EQ(Cache::autoShardCount(1u << 31), Cache::kMaxShards);
  // shards=0 routes through the derivation at construction time.
  Cache small(gpu.hbm(), 32);
  EXPECT_EQ(small.shardCount(), 1u);
}

// ---- per-shard policy isolation (typed over all four policies) -----------

template <class Policy>
struct ShardPolicyTest : CacheFixture {};

TYPED_TEST_SUITE(ShardPolicyTest, Policies);

// Driving two shards with interleaved, independent access patterns must
// leave each shard's policy in exactly the state a standalone single-shard
// cache develops from its half of the pattern alone — victim choices
// included. (For RandomPolicy this also pins per-shard RNG isolation: one
// shard's misses must not consume the other shard's draws.)
TYPED_TEST(ShardPolicyTest, PerShardPolicyIsolation) {
  SoftwareCache<TypeParam> sharded(this->gpu.hbm(), 8, agileCacheCosts(),
                                   /*shards=*/2);
  SoftwareCache<TypeParam> soloA(this->gpu.hbm(), sharded.shardLineCount(0),
                                 agileCacheCosts(), /*shards=*/1);
  SoftwareCache<TypeParam> soloB(this->gpu.hbm(), sharded.shardLineCount(1),
                                 agileCacheCosts(), /*shards=*/1);
  ASSERT_TRUE(this->run1([&](gpu::KernelCtx& ctx) -> gpu::GpuTask<void> {
    // Two independent tag streams, one per shard of the sharded cache.
    std::uint64_t cursor = 0;
    std::vector<std::uint64_t> tagsA, tagsB;
    for (std::uint32_t i = 0; i < 64; ++i) {
      tagsA.push_back(tagInShard(sharded, 0, &cursor));
      tagsB.push_back(tagInShard(sharded, 1, &cursor));
    }
    Rng rng(99);
    auto step = [&](std::uint32_t which) -> void {
      auto& tags = which == 0 ? tagsA : tagsB;
      auto& solo = which == 0 ? soloA : soloB;
      const std::uint64_t tag = tags[rng.nextBelow(tags.size())];
      const ProbeResult a = sharded.probeOrClaim(ctx, tag);
      const ProbeResult b = solo.probeOrClaim(ctx, tag);
      ASSERT_EQ(a.outcome, b.outcome);
      ASSERT_EQ(a.line - sharded.shardBase(which), b.line);
      if (a.outcome == ProbeOutcome::kClaimed) {
        sharded.line(a.line).onFillComplete(this->eng,
                                            nvme::Status::kSuccess);
        solo.line(b.line).onFillComplete(this->eng, nvme::Status::kSuccess);
      } else if (a.outcome == ProbeOutcome::kNeedWriteback) {
        sharded.line(a.line).onWritebackComplete(this->eng,
                                                 nvme::Status::kSuccess);
        solo.line(b.line).onWritebackComplete(this->eng,
                                              nvme::Status::kSuccess);
      } else if (a.outcome == ProbeOutcome::kHit && rng.nextBelow(5) == 0) {
        sharded.markModified(a.line);
        solo.markModified(b.line);
      }
    };
    // Interleave the two shards' traffic; the interleaving itself is the
    // perturbation the isolation property must be immune to.
    for (std::uint32_t i = 0; i < 1500; ++i) {
      step(rng.nextBelow(2) == 0 ? 0 : 1);
    }
    co_return;
  }));
  // Per-shard stats line up with the standalone replicas too.
  EXPECT_EQ(sharded.shardStats(0).hits, soloA.stats().hits);
  EXPECT_EQ(sharded.shardStats(1).hits, soloB.stats().hits);
  EXPECT_EQ(sharded.shardStats(0).evictions, soloA.stats().evictions);
  EXPECT_EQ(sharded.shardStats(1).evictions, soloB.stats().evictions);
}

TEST_F(CacheFixture, ClockGivesSecondChance) {
  // Drive the policy directly: a referenced frame must be skipped (its bit
  // cleared) and the unreferenced frame behind it chosen.
  ASSERT_TRUE(run1([&](gpu::KernelCtx& ctx) -> gpu::GpuTask<void> {
    ClockPolicy clock(3);
    std::vector<CacheLine> lines(3);
    for (auto& l : lines) l.state = LineState::kReady;
    clock.doTouch(0);  // frame 0 referenced
    const auto victim = clock.doSelectVictim(lines, ctx);
    EXPECT_EQ(victim, 1u);  // frame 0 got its second chance
    // Frame 0's bit was consumed: the next sweep may now take it.
    const auto second = clock.doSelectVictim(lines, ctx);
    EXPECT_EQ(second, 2u);
    const auto third = clock.doSelectVictim(lines, ctx);
    EXPECT_EQ(third, 0u);
    co_return;
  }));
}

}  // namespace
}  // namespace agile::core
