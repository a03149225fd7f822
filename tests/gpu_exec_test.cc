// Tests for the SIMT execution simulator: kernel launches, warp scheduling
// and latency hiding, collectives, block barriers, occupancy, and the
// register model.
#include <gtest/gtest.h>

#include <sys/resource.h>

#include <atomic>
#include <cstdint>
#include <cstring>
#include <vector>

#include "gpu/exec.h"
#include "gpu/regmodel.h"
#include "sim/engine.h"

// ASan/TSan builds (GCC spells the test __SANITIZE_*, clang __has_feature).
#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
#define AGILE_TEST_SANITIZED 1
#elif defined(__has_feature)
#if __has_feature(address_sanitizer) || __has_feature(thread_sanitizer)
#define AGILE_TEST_SANITIZED 1
#endif
#endif

namespace agile::gpu {
namespace {

struct GpuFixture : ::testing::Test {
  sim::Engine eng;
  Gpu gpu{eng, GpuConfig{}};
};

TEST_F(GpuFixture, EveryThreadRuns) {
  std::vector<int> hits(256, 0);
  auto k = gpu.launch({.gridDim = 4, .blockDim = 64, .name = "touch"},
                      [&](KernelCtx& ctx) -> GpuTask<void> {
                        hits[ctx.globalThreadIdx()]++;
                        co_return;
                      });
  ASSERT_TRUE(gpu.wait(k));
  for (int h : hits) EXPECT_EQ(h, 1);
}

TEST_F(GpuFixture, ThreadCoordinatesAreConsistent) {
  bool ok = true;
  auto k = gpu.launch(
      {.gridDim = 3, .blockDim = 70, .name = "coords"},
      [&](KernelCtx& ctx) -> GpuTask<void> {
        ok &= ctx.globalThreadIdx() ==
              ctx.blockIdx() * ctx.blockDim() + ctx.threadIdx();
        ok &= ctx.laneId() == ctx.threadIdx() % kWarpSize;
        ok &= ctx.warpId() == ctx.threadIdx() / kWarpSize;
        ok &= ctx.blockDim() == 70u && ctx.gridDim() == 3u;
        co_return;
      });
  ASSERT_TRUE(gpu.wait(k));
  EXPECT_TRUE(ok);
}

// Warps never span blocks: a 70-thread block owns three warps (32 + 32 + 6
// lanes), and a 1-thread block owns one, so every block's warps get grid
// indices of their own.
TEST_F(GpuFixture, GlobalWarpIdxCountsPartialWarpsPerBlock) {
  for (const std::uint32_t blockDim : {1u, 70u}) {
    const std::uint32_t warpsPerBlock = (blockDim + kWarpSize - 1) / kWarpSize;
    const std::uint32_t gridDim = 5;
    std::vector<std::uint32_t> lanesPerWarp(gridDim * warpsPerBlock, 0);
    bool ok = true;
    auto k = gpu.launch(
        {.gridDim = gridDim, .blockDim = blockDim, .name = "warps"},
        [&](KernelCtx& ctx) -> GpuTask<void> {
          const std::uint32_t w = ctx.globalWarpIdx();
          ok &= w == ctx.blockIdx() * warpsPerBlock +
                         ctx.threadIdx() / kWarpSize;
          if (w < lanesPerWarp.size()) ++lanesPerWarp[w];
          co_return;
        });
    ASSERT_TRUE(gpu.wait(k));
    EXPECT_TRUE(ok) << "blockDim " << blockDim;
    for (std::uint32_t w = 0; w < lanesPerWarp.size(); ++w) {
      const std::uint32_t first = (w % warpsPerBlock) * kWarpSize;
      EXPECT_EQ(lanesPerWarp[w], std::min(kWarpSize, blockDim - first))
          << "blockDim " << blockDim << " warp " << w;
    }
  }
}

TEST_F(GpuFixture, ComputeChargesVirtualTime) {
  auto k = gpu.launch({.gridDim = 1, .blockDim = 32, .name = "busy"},
                      [&](KernelCtx& ctx) -> GpuTask<void> {
                        co_await compute(ctx, 10000);
                      });
  ASSERT_TRUE(gpu.wait(k));
  // One warp charging 10k cycles: elapsed must be >= 10k and not wildly more.
  EXPECT_GE(k->elapsed(), 10000);
  EXPECT_LE(k->elapsed(), 12000);
}

TEST_F(GpuFixture, WarpsOnOneSmSerialize) {
  // Two warps in one block charge 10k cycles each; a single SM must
  // serialize them (≈20k), not overlap them.
  auto k = gpu.launch({.gridDim = 1, .blockDim = 64, .name = "serial"},
                      [&](KernelCtx& ctx) -> GpuTask<void> {
                        co_await compute(ctx, 10000);
                      });
  ASSERT_TRUE(gpu.wait(k));
  EXPECT_GE(k->elapsed(), 20000);
  EXPECT_LE(k->elapsed(), 24000);
}

TEST_F(GpuFixture, SleepOverlapsAcrossWarps) {
  // Two warps each sleep 100us (I/O-like stall): the stalls overlap, so the
  // kernel finishes in ≈100us, not 200us — warp-level latency hiding.
  auto k = gpu.launch({.gridDim = 1, .blockDim = 64, .name = "overlap"},
                      [&](KernelCtx& ctx) -> GpuTask<void> {
                        co_await ctx.backoff(100000);
                      });
  ASSERT_TRUE(gpu.wait(k));
  EXPECT_GE(k->elapsed(), 100000);
  EXPECT_LE(k->elapsed(), 110000);
}

TEST_F(GpuFixture, ComputeHidesBehindOtherWarpsSleep) {
  // Warp A sleeps 50us while warp B computes 50k cycles: total ≈ 50us.
  auto k = gpu.launch({.gridDim = 1, .blockDim = 64, .name = "hide"},
                      [&](KernelCtx& ctx) -> GpuTask<void> {
                        if (ctx.warpId() == 0) {
                          co_await ctx.backoff(50000);
                        } else {
                          co_await compute(ctx, 50000);
                        }
                      });
  ASSERT_TRUE(gpu.wait(k));
  EXPECT_LE(k->elapsed(), 62000);
}

TEST_F(GpuFixture, BallotCollectsPredicates) {
  std::uint32_t result = 0;
  auto k = gpu.launch({.gridDim = 1, .blockDim = 32, .name = "ballot"},
                      [&](KernelCtx& ctx) -> GpuTask<void> {
                        auto m = co_await warpBallot(ctx, ctx.laneId() % 2 == 0);
                        if (ctx.laneId() == 0) result = m;
                      });
  ASSERT_TRUE(gpu.wait(k));
  EXPECT_EQ(result, 0x55555555u);
}

TEST_F(GpuFixture, ShflBroadcasts) {
  bool ok = true;
  auto k = gpu.launch({.gridDim = 1, .blockDim = 32, .name = "shfl"},
                      [&](KernelCtx& ctx) -> GpuTask<void> {
                        auto v = co_await warpShfl(ctx, ctx.laneId() * 10, 7);
                        ok &= v == 70u;
                      });
  ASSERT_TRUE(gpu.wait(k));
  EXPECT_TRUE(ok);
}

TEST_F(GpuFixture, MatchAnyGroupsEqualValues) {
  bool ok = true;
  auto k = gpu.launch(
      {.gridDim = 1, .blockDim = 32, .name = "match"},
      [&](KernelCtx& ctx) -> GpuTask<void> {
        // Lanes share values in groups of 4.
        auto m = co_await warpMatchAny(ctx, ctx.laneId() / 4);
        const std::uint32_t expect = 0xFu << (ctx.laneId() / 4 * 4);
        ok &= m == expect;
      });
  ASSERT_TRUE(gpu.wait(k));
  EXPECT_TRUE(ok);
}

TEST_F(GpuFixture, BallotWithPartialWarp) {
  // 20-lane warp: collective completes with only live lanes.
  std::uint32_t result = 0;
  auto k = gpu.launch({.gridDim = 1, .blockDim = 20, .name = "partial"},
                      [&](KernelCtx& ctx) -> GpuTask<void> {
                        auto m = co_await warpBallot(ctx, true);
                        if (ctx.laneId() == 0) result = m;
                      });
  ASSERT_TRUE(gpu.wait(k));
  EXPECT_EQ(result, (1u << 20) - 1);
}

TEST_F(GpuFixture, BallotAfterSomeLanesExit) {
  // Half the lanes exit before the collective; it must still complete with
  // the live half.
  std::uint32_t result = 0;
  auto k = gpu.launch({.gridDim = 1, .blockDim = 32, .name = "halfdead"},
                      [&](KernelCtx& ctx) -> GpuTask<void> {
                        if (ctx.laneId() >= 16) co_return;
                        co_await compute(ctx, 100);
                        auto m = co_await warpBallot(ctx, true);
                        if (ctx.laneId() == 0) result = m;
                      });
  ASSERT_TRUE(gpu.wait(k));
  EXPECT_EQ(result, 0xFFFFu);
}

TEST_F(GpuFixture, BackToBackCollectives) {
  bool ok = true;
  auto k = gpu.launch({.gridDim = 1, .blockDim = 32, .name = "b2b"},
                      [&](KernelCtx& ctx) -> GpuTask<void> {
                        for (int r = 0; r < 8; ++r) {
                          auto v = co_await warpShfl(ctx, ctx.laneId() + r, r % 32);
                          ok &= v == static_cast<std::uint64_t>(r % 32 + r);
                        }
                      });
  ASSERT_TRUE(gpu.wait(k));
  EXPECT_TRUE(ok);
}

TEST_F(GpuFixture, BlockBarrierSynchronizes) {
  std::vector<int> phase(128, 0);
  bool ok = true;
  auto k = gpu.launch(
      {.gridDim = 1, .blockDim = 128, .name = "barrier"},
      [&](KernelCtx& ctx) -> GpuTask<void> {
        // Stagger arrival times.
        co_await compute(ctx, 100 * (ctx.threadIdx() % 7 + 1));
        phase[ctx.threadIdx()] = 1;
        co_await ctx.syncBlock();
        // After the barrier every thread must observe all phases set.
        for (int p : phase) ok &= p == 1;
        co_return;
      });
  ASSERT_TRUE(gpu.wait(k));
  EXPECT_TRUE(ok);
}

TEST_F(GpuFixture, BarrierWithEarlyExits) {
  // Threads above 64 exit before the barrier; the rest must not hang.
  auto k = gpu.launch({.gridDim = 1, .blockDim = 128, .name = "earlyexit"},
                      [&](KernelCtx& ctx) -> GpuTask<void> {
                        if (ctx.threadIdx() >= 64) co_return;
                        co_await ctx.syncBlock();
                      });
  EXPECT_TRUE(gpu.wait(k, 10_ms));
}

TEST_F(GpuFixture, SharedMemoryVisibleAcrossWarps) {
  bool ok = true;
  auto k = gpu.launch(
      {.gridDim = 1,
       .blockDim = 64,
       .sharedBytesPerBlock = 64 * sizeof(std::uint32_t),
       .name = "smem"},
      [&](KernelCtx& ctx) -> GpuTask<void> {
        auto smem = ctx.sharedMem();
        auto* words = reinterpret_cast<std::uint32_t*>(smem.data());
        words[ctx.threadIdx()] = ctx.threadIdx() * 3;
        co_await ctx.syncBlock();
        const auto peer = (ctx.threadIdx() + 33) % 64;
        ok &= words[peer] == peer * 3;
      });
  ASSERT_TRUE(gpu.wait(k));
  EXPECT_TRUE(ok);
}

TEST_F(GpuFixture, ManyBlocksRespectOccupancy) {
  // More blocks than can be resident: all must still complete.
  std::atomic<int> done{0};
  auto k = gpu.launch({.gridDim = 256, .blockDim = 64, .name = "many"},
                      [&](KernelCtx& ctx) -> GpuTask<void> {
                        co_await compute(ctx, 500);
                        if (ctx.threadIdx() == 0) done.fetch_add(1);
                      });
  ASSERT_TRUE(gpu.wait(k));
  EXPECT_EQ(done.load(), 256);
}

TEST_F(GpuFixture, OccupancyLimitedByWarpSlots) {
  // 48 warp slots / 8 warps per block = 6 blocks; capped also by maxBlocks.
  LaunchConfig cfg{.gridDim = 1, .blockDim = 256, .regsPerThread = 32};
  EXPECT_EQ(gpu.occupancyBlocksPerSm(cfg), 6u);
}

TEST_F(GpuFixture, OccupancyLimitedByRegisters) {
  // 65536 regs / (128 threads * 255 regs) = 2 blocks.
  LaunchConfig cfg{.gridDim = 1, .blockDim = 128, .regsPerThread = 255};
  EXPECT_EQ(gpu.occupancyBlocksPerSm(cfg), 2u);
}

TEST_F(GpuFixture, TwoKernelsShareTheGpu) {
  int doneA = 0, doneB = 0;
  auto ka = gpu.launch({.gridDim = 4, .blockDim = 32, .name = "A"},
                       [&](KernelCtx& ctx) -> GpuTask<void> {
                         co_await compute(ctx, 1000);
                         if (ctx.threadIdx() == 0) ++doneA;
                       });
  auto kb = gpu.launch({.gridDim = 4, .blockDim = 32, .name = "B"},
                       [&](KernelCtx& ctx) -> GpuTask<void> {
                         co_await compute(ctx, 1000);
                         if (ctx.threadIdx() == 0) ++doneB;
                       });
  ASSERT_TRUE(gpu.wait(ka));
  ASSERT_TRUE(gpu.wait(kb));
  EXPECT_EQ(doneA, 4);
  EXPECT_EQ(doneB, 4);
}

TEST_F(GpuFixture, WaitDetectsDeadlock) {
  // A lane that parks on a never-notified list must make wait() return
  // false (virtual-time watchdog) instead of hanging the host.
  sim::WaitList never;
  auto k = gpu.launch({.gridDim = 1, .blockDim = 1, .name = "stuck"},
                      [&](KernelCtx& ctx) -> GpuTask<void> {
                        co_await ctx.parkOn(never);
                      });
  EXPECT_FALSE(gpu.wait(k, 1_ms));
}

TEST_F(GpuFixture, NestedTaskComposition) {
  // Device functions composed with co_await across three levels.
  struct Helper {
    static GpuTask<std::uint64_t> level2(KernelCtx& ctx, std::uint64_t v) {
      co_await compute(ctx, 10);
      co_return v * 2;
    }
    static GpuTask<std::uint64_t> level1(KernelCtx& ctx, std::uint64_t v) {
      auto x = co_await level2(ctx, v + 1);
      co_return x + 5;
    }
  };
  std::vector<std::uint64_t> out(32, 0);
  auto k = gpu.launch({.gridDim = 1, .blockDim = 32, .name = "nest"},
                      [&](KernelCtx& ctx) -> GpuTask<void> {
                        out[ctx.threadIdx()] =
                            co_await Helper::level1(ctx, ctx.threadIdx());
                      });
  ASSERT_TRUE(gpu.wait(k));
  for (std::uint32_t i = 0; i < 32; ++i) EXPECT_EQ(out[i], (i + 1) * 2 + 5);
}

TEST_F(GpuFixture, ChildrenThatNeverSuspendDoNotGrowTheStack) {
  // A lane awaiting 10^5 children that finish without suspending (cache
  // hits, in the apps) must unwind each child before the next starts. Were
  // the child handed back to its parent by symmetric transfer compiled as a
  // plain call (GCC -O1 with ASan), every child would nest a frame and this
  // loop would overflow an 8 MB stack.
  struct Child {
    static GpuTask<std::uint64_t> value(KernelCtx& ctx, std::uint64_t v) {
      ctx.charge(1);
      co_return v + 1;
    }
    static GpuTask<void> unit(KernelCtx& ctx, std::uint64_t& n) {
      ctx.charge(1);
      ++n;
      co_return;
    }
  };
  constexpr std::uint64_t kChildren = 100'000;
  std::uint64_t sum = 0;
  std::uint64_t count = 0;
  auto k = gpu.launch({.gridDim = 1, .blockDim = 1, .name = "flat"},
                      [&](KernelCtx& ctx) -> GpuTask<void> {
                        for (std::uint64_t i = 0; i < kChildren; ++i) {
                          sum += co_await Child::value(ctx, i);
                          co_await Child::unit(ctx, count);
                        }
                        co_await ctx.yield();  // and still resumable
                        sum += co_await Child::value(ctx, 0);
                      });
  ASSERT_TRUE(gpu.wait(k));
  EXPECT_EQ(sum, kChildren * (kChildren + 1) / 2 + 1);
  EXPECT_EQ(count, kChildren);
}

TEST_F(GpuFixture, SmBusyFractionTracksLoad) {
  auto k = gpu.launch({.gridDim = 8, .blockDim = 32, .name = "load"},
                      [&](KernelCtx& ctx) -> GpuTask<void> {
                        co_await compute(ctx, 100000);
                      });
  ASSERT_TRUE(gpu.wait(k));
  EXPECT_GT(gpu.smBusyFraction(), 0.5);
}

TEST(HbmTest, AllocAndPhysRoundTrip) {
  Hbm hbm(1_MiB);
  auto span = hbm.alloc<std::uint64_t>(16);
  EXPECT_EQ(span.size(), 16u);
  span[3] = 0xdeadbeef;
  auto phys = hbm.physAddr(&span[3]);
  EXPECT_EQ(hbm.fromPhysAddr(phys),
            reinterpret_cast<std::byte*>(&span[3]));
}

TEST(HbmTest, CapacityAccounting) {
  Hbm hbm(1_MiB);
  hbm.allocBytes(512_KiB);
  EXPECT_GE(hbm.used(), 512_KiB);
  EXPECT_LE(hbm.free(), 512_KiB);
}

TEST(HbmTest, DistinctChunksDistinctAddresses) {
  Hbm hbm(1_MiB);
  auto a = hbm.alloc<std::uint32_t>(4);
  auto b = hbm.alloc<std::uint32_t>(4);
  EXPECT_NE(hbm.physAddr(a.data()), hbm.physAddr(b.data()));
}

TEST(HbmTest, HonoursAlignment) {
  Hbm hbm(64_MiB);
  for (std::uint64_t align : {8u, 64u, 4096u}) {
    for (std::uint64_t bytes : {1u, 24u, 100u, 4095u, 4096u, 4097u, 12345u}) {
      const auto* p = hbm.allocBytes(bytes, align);
      EXPECT_EQ(reinterpret_cast<std::uintptr_t>(p) % align, 0u)
          << "bytes=" << bytes << " align=" << align;
    }
  }
  for (int i = 0; i < 8; ++i) {
    auto span = hbm.alloc<std::uint16_t>(3 + i);
    EXPECT_EQ(reinterpret_cast<std::uintptr_t>(span.data()) % 64, 0u);
  }
  EXPECT_DEATH(hbm.allocBytes(64, 2 * Hbm::kMaxAlign), "alignment");
}

TEST(HbmTest, AllocationsReadZero) {
  const auto allZero = [](const std::byte* p, std::uint64_t n) {
    for (std::uint64_t i = 0; i < n; ++i) {
      if (p[i] != std::byte{0}) return false;
    }
    return true;
  };
  constexpr std::uint64_t kSizes[] = {64, 4096, 3_MiB + 8};
  {
    Hbm hbm(16_MiB);
    for (std::uint64_t n : kSizes) {
      std::byte* p = hbm.allocBytes(n);
      EXPECT_TRUE(allZero(p, n)) << "bytes=" << n;
      std::memset(p, 0xa5, n);
    }
  }
  // A second arena in the same process must not see the first one's bytes.
  Hbm hbm(16_MiB);
  for (std::uint64_t n : kSizes) {
    EXPECT_TRUE(allZero(hbm.allocBytes(n), n)) << "bytes=" << n;
  }
}

TEST(HbmTest, AllocationIsNotResident) {
#ifdef AGILE_TEST_SANITIZED
  GTEST_SKIP() << "the sanitizer runtime intercepts mmap and owns shadow "
                  "memory, so RSS does not measure the allocation";
#endif
  const auto maxRssKiB = [] {
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    return ru.ru_maxrss;  // KiB on Linux
  };
  const long before = maxRssKiB();
  Hbm hbm(4_GiB);
  std::byte* p = hbm.allocBytes(1_GiB);
  p[0] = std::byte{1};  // touching one page backs one page
  EXPECT_LT(maxRssKiB() - before, static_cast<long>(32_MiB / 1_KiB));
}

TEST(RegModelTest, Figure12Ordering) {
  // AGILE paths must be lighter than BaM paths; service kernel is 37.
  EXPECT_LT(ioApiFootprint(IoApiPath::kAgileAsyncRead),
            ioApiFootprint(IoApiPath::kBamSyncRead));
  EXPECT_LT(ioApiFootprint(IoApiPath::kAgilePrefetchArrayRead),
            ioApiFootprint(IoApiPath::kBamSyncRead));
  EXPECT_EQ(serviceKernelRegisters(), 37u);
}

TEST(RegModelTest, KernelRegistersTakesMaxPath) {
  const auto regs =
      kernelRegisters(20, {IoApiPath::kAgileAsyncRead, IoApiPath::kBamSyncRead});
  EXPECT_EQ(regs, 20u + ioApiFootprint(IoApiPath::kBamSyncRead));
}

}  // namespace
}  // namespace agile::gpu
