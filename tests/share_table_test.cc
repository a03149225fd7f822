// Unit tests for the Share Table (§3.4.1): ownership registration, pointer
// sharing, the MOESI-inspired state transitions, reference counting, and
// policy plug-ins.
#include <gtest/gtest.h>

#include "core/cache.h"
#include "core/share_table.h"
#include "gpu/exec.h"
#include "sim/engine.h"

namespace agile::core {
namespace {

struct ShareFixture : ::testing::Test {
  sim::Engine eng;
  gpu::Gpu gpu{eng, gpu::GpuConfig{}};

  bool run1(gpu::KernelFn fn) {
    auto k = gpu.launch({.gridDim = 1, .blockDim = 1, .name = "t"}, fn);
    return gpu.wait(k, 100_ms);
  }
};

TEST_F(ShareFixture, MissReturnsNull) {
  ShareTable<DefaultSharePolicy> table;
  ASSERT_TRUE(run1([&](gpu::KernelCtx& ctx) -> gpu::GpuTask<void> {
    EXPECT_EQ(table.attach(ctx, makeTag(0, 1)), nullptr);
    co_return;
  }));
}

TEST_F(ShareFixture, RegisterThenAttachShares) {
  ShareTable<DefaultSharePolicy> table;
  AgileBuf buf;
  ASSERT_TRUE(run1([&](gpu::KernelCtx& ctx) -> gpu::GpuTask<void> {
    auto* owner = table.registerOwner(ctx, makeTag(0, 5), buf);
    EXPECT_NE(owner, nullptr);
    EXPECT_EQ(owner->state, ShareState::kExclusive);
    EXPECT_EQ(owner->refCount, 1u);

    auto* peer = table.attach(ctx, makeTag(0, 5));
    EXPECT_NE(peer, nullptr);
    EXPECT_EQ(peer, owner);
    EXPECT_EQ(peer->buf, &buf);
    EXPECT_EQ(peer->state, ShareState::kShared);
    EXPECT_EQ(peer->refCount, 2u);
    co_return;
  }));
  EXPECT_EQ(table.stats().hits, 1u);
  EXPECT_EQ(table.stats().inserts, 1u);
}

TEST_F(ShareFixture, ReleaseCountsDown) {
  ShareTable<DefaultSharePolicy> table;
  AgileBuf buf;
  ASSERT_TRUE(run1([&](gpu::KernelCtx& ctx) -> gpu::GpuTask<void> {
    auto* e = table.registerOwner(ctx, makeTag(0, 9), buf);
    (void)table.attach(ctx, makeTag(0, 9));
    // One holder remains, then the last one leaves a clean page behind.
    EXPECT_EQ(table.release(ctx, *e), ShareRelease::kHeld);
    EXPECT_EQ(table.size(), 1u);
    EXPECT_EQ(table.release(ctx, *e), ShareRelease::kLastClean);
    EXPECT_EQ(table.size(), 0u);
    co_return;
  }));
}

TEST_F(ShareFixture, ModifiedRequiresPropagation) {
  ShareTable<DefaultSharePolicy> table;
  AgileBuf buf;
  ASSERT_TRUE(run1([&](gpu::KernelCtx& ctx) -> gpu::GpuTask<void> {
    auto* e = table.registerOwner(ctx, makeTag(0, 2), buf);
    table.markModified(*e);
    EXPECT_EQ(e->state, ShareState::kModified);
    // The last releaser must push to the L2 cache.
    EXPECT_EQ(table.release(ctx, *e), ShareRelease::kLastModified);
    co_return;
  }));
  EXPECT_EQ(table.stats().propagations, 1u);
}

TEST_F(ShareFixture, InvalidateRemovesEntry) {
  ShareTable<DefaultSharePolicy> table;
  AgileBuf buf;
  ASSERT_TRUE(run1([&](gpu::KernelCtx& ctx) -> gpu::GpuTask<void> {
    (void)table.registerOwner(ctx, makeTag(0, 3), buf);
    table.invalidate(makeTag(0, 3));
    EXPECT_EQ(table.find(makeTag(0, 3)), nullptr);
    EXPECT_EQ(table.attach(ctx, makeTag(0, 3)), nullptr);
    co_return;
  }));
}

// An invalidated entry leaves lookup at once but stays alive for the
// holders that still point at it; its last release hands nothing down.
TEST_F(ShareFixture, InvalidateDetachesUntilLastRelease) {
  ShareTable<DefaultSharePolicy> table;
  AgileBuf owner, next;
  const std::uint64_t tag = makeTag(0, 3);
  ASSERT_TRUE(run1([&](gpu::KernelCtx& ctx) -> gpu::GpuTask<void> {
    ShareEntry* e = table.registerOwner(ctx, tag, owner);
    EXPECT_EQ(table.attach(ctx, tag), e);
    table.markModified(*e);
    table.invalidate(tag);
    EXPECT_TRUE(e->detached);
    EXPECT_EQ(table.findOwned(tag, &owner), e);
    // A new reader registers afresh beside the detached entry.
    ShareEntry* fresh = table.registerOwner(ctx, tag, next);
    EXPECT_NE(fresh, e);
    EXPECT_EQ(table.size(), 2u);
    EXPECT_EQ(table.release(ctx, *e), ShareRelease::kHeld);
    EXPECT_EQ(e->refCount, 1u);
    EXPECT_EQ(table.release(ctx, *e), ShareRelease::kLastDetached);
    EXPECT_EQ(table.findOwned(tag, &owner), nullptr);
    EXPECT_EQ(table.find(tag), fresh);
    EXPECT_EQ(table.release(ctx, *fresh), ShareRelease::kLastClean);
    EXPECT_EQ(table.size(), 0u);
    co_return;
  }));
  EXPECT_EQ(table.stats().propagations, 0u);  // the write is newer
}

TEST_F(ShareFixture, DistinctTagsIndependent) {
  ShareTable<DefaultSharePolicy> table;
  AgileBuf a, b;
  ASSERT_TRUE(run1([&](gpu::KernelCtx& ctx) -> gpu::GpuTask<void> {
    auto* ea = table.registerOwner(ctx, makeTag(0, 1), a);
    auto* eb = table.registerOwner(ctx, makeTag(1, 1), b);
    EXPECT_NE(ea, eb);
    EXPECT_EQ(table.size(), 2u);
    EXPECT_EQ(table.attach(ctx, makeTag(0, 1))->buf, &a);
    EXPECT_EQ(table.attach(ctx, makeTag(1, 1))->buf, &b);
    co_return;
  }));
}

TEST_F(ShareFixture, NeverSharePolicyDisablesTable) {
  ShareTable<NeverSharePolicy> table;
  static_assert(!ShareTable<NeverSharePolicy>::kEnabled);
  AgileBuf buf;
  ASSERT_TRUE(run1([&](gpu::KernelCtx& ctx) -> gpu::GpuTask<void> {
    EXPECT_EQ(table.registerOwner(ctx, makeTag(0, 5), buf), nullptr);
    EXPECT_EQ(table.attach(ctx, makeTag(0, 5)), nullptr);
    co_return;
  }));
  EXPECT_EQ(table.size(), 0u);
}

// Custom policy: only track even LBAs.
struct EvenOnlyPolicy : SharePolicyBase<EvenOnlyPolicy> {
  bool doShouldTrack(std::uint64_t tag) { return tagLba(tag) % 2 == 0; }
};

TEST_F(ShareFixture, CustomPolicyFilters) {
  ShareTable<EvenOnlyPolicy> table;
  AgileBuf buf;
  ASSERT_TRUE(run1([&](gpu::KernelCtx& ctx) -> gpu::GpuTask<void> {
    EXPECT_NE(table.registerOwner(ctx, makeTag(0, 4), buf), nullptr);
    EXPECT_EQ(table.registerOwner(ctx, makeTag(0, 5), buf), nullptr);
    co_return;
  }));
}

TEST_F(ShareFixture, AgileBufPtrRedirection) {
  AgileBuf own, peer;
  ShareEntry entry;
  entry.buf = &peer;
  AgileBufPtr ptr(own);
  EXPECT_EQ(ptr.active(), &own);
  EXPECT_FALSE(ptr.isShared());
  ptr.pointAt(peer, &entry);
  EXPECT_EQ(ptr.active(), &peer);
  EXPECT_TRUE(ptr.isShared());
  EXPECT_EQ(ptr.shareEntry(), &entry);
  ptr.bindOwn(own);  // rebinding clears the redirection
  EXPECT_FALSE(ptr.isShared());
  EXPECT_EQ(ptr.active(), &own);
}

}  // namespace
}  // namespace agile::core
