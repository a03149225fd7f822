// Property-based and randomized integration tests: system-level invariants
// that must hold for every configuration and seed —
//   P1  data integrity: values written through any API are the values read
//       back, across eviction churn and SSD round trips;
//   P2  resource neutrality: after drain, no SQE is live, no staging page is
//       leaked, no cache line is BUSY, share table is empty;
//   P3  liveness: mixed random workloads complete under every queue/cache
//       geometry (no deadlock for any interleaving the DES produces);
//   P4  error containment: injected media faults surface as API errors
//       without hanging or corrupting unrelated state.
// Sweeps run as parameterized gtest suites over (cacheLines, queuePairs,
// queueDepth, threads, seed).
#include <gtest/gtest.h>

#include <map>
#include <tuple>

#include "apps/kvcache/kvcache.h"
#include "bam/bam_ctrl.h"
#include "core/ctrl.h"

namespace agile::core {
namespace {

struct Geometry {
  std::uint32_t cacheLines;
  std::uint32_t queuePairs;
  std::uint32_t queueDepth;
  std::uint32_t threads;
  std::uint64_t seed;
};

std::string geomName(const ::testing::TestParamInfo<Geometry>& info) {
  const auto& g = info.param;
  return "c" + std::to_string(g.cacheLines) + "_q" +
         std::to_string(g.queuePairs) + "x" + std::to_string(g.queueDepth) +
         "_t" + std::to_string(g.threads) + "_s" + std::to_string(g.seed);
}

class MixedWorkloadTest : public ::testing::TestWithParam<Geometry> {};

// P1+P2+P3: random interleaved reads/writes through the array API with a
// shadow model; verify every read, then drain and audit resources.
TEST_P(MixedWorkloadTest, ReadWriteIntegrityAndResourceNeutrality) {
  const Geometry g = GetParam();
  HostConfig cfg;
  cfg.queuePairsPerSsd = g.queuePairs;
  cfg.queueDepth = g.queueDepth;
  cfg.stagingPages = 32;
  AgileHost host(cfg);
  nvme::SsdConfig ssd;
  ssd.capacityLbas = 4096;
  host.addNvmeDev(ssd);
  host.initNvme();
  DefaultCtrl ctrl(host, CtrlConfig{.cacheLines = g.cacheLines});
  host.startAgile();

  // Shadow model: element -> last value written by its owner thread.
  // Threads own disjoint element ranges so the shadow stays deterministic.
  constexpr std::uint32_t kOpsPerThread = 24;
  constexpr std::uint32_t kElemsPerThread = 8;
  std::vector<std::uint64_t> shadow(g.threads * kElemsPerThread, ~0ull);
  std::uint64_t mismatches = 0;

  const bool ok = host.runKernel(
      {.gridDim = std::max(1u, g.threads / 64),
       .blockDim = std::min(g.threads, 64u),
       .name = "mixed"},
      [&](gpu::KernelCtx& ctx) -> gpu::GpuTask<void> {
        AgileLockChain chain;
        const std::uint32_t tid = ctx.globalThreadIdx();
        if (tid >= g.threads) co_return;
        Rng rng(g.seed * 7919 + tid);
        for (std::uint32_t op = 0; op < kOpsPerThread; ++op) {
          const std::uint32_t slot =
              static_cast<std::uint32_t>(rng.nextBelow(kElemsPerThread));
          const std::uint32_t shadowIdx = tid * kElemsPerThread + slot;
          // Spread elements across pages to force eviction churn.
          const std::uint64_t elem =
              static_cast<std::uint64_t>(shadowIdx) * 512 + (shadowIdx % 512);
          if (rng.nextBool(0.45)) {
            const std::uint64_t v = rng.next();
            co_await ctrl.arrayWrite<std::uint64_t>(ctx, elem, v, chain);
            shadow[shadowIdx] = v;
          } else {
            const auto got =
                co_await ctrl.arrayRead<std::uint64_t>(ctx, elem, chain);
            if (shadow[shadowIdx] != ~0ull && got != shadow[shadowIdx]) {
              ++mismatches;
            }
          }
        }
      });
  ASSERT_TRUE(ok) << "mixed workload hung (possible deadlock)";
  EXPECT_EQ(mismatches, 0u);

  // P2: drain and audit.
  ASSERT_TRUE(host.drainIo());
  EXPECT_EQ(host.pendingTransactions(), 0u);
  EXPECT_EQ(ctrl.cache().busyLines(), 0u);
  EXPECT_EQ(host.staging().available(), 32u);
  for (const auto& sq : host.queuePairs().sqs) {
    for (auto st : sq->state) EXPECT_EQ(st, SqeState::kEmpty);
  }
  host.stopAgile();
}

INSTANTIATE_TEST_SUITE_P(
    Geometries, MixedWorkloadTest,
    ::testing::Values(
        Geometry{4, 1, 32, 32, 1},      // brutal cache pressure, one queue
        Geometry{16, 2, 32, 64, 2},     // small everything
        Geometry{64, 4, 64, 128, 3},    // medium
        Geometry{512, 8, 256, 256, 4},  // roomy
        Geometry{8, 1, 64, 96, 5},      // cache << threads
        Geometry{32, 16, 64, 64, 6}),   // many queues, few threads
    geomName);

class WriteDurabilityTest : public ::testing::TestWithParam<Geometry> {};

// P1 through the SSD: write via arrayWrite, evict everything by streaming
// unrelated pages, then reread — values must come back from flash.
TEST_P(WriteDurabilityTest, SurvivesFullEviction) {
  const Geometry g = GetParam();
  HostConfig cfg;
  cfg.queuePairsPerSsd = g.queuePairs;
  cfg.queueDepth = g.queueDepth;
  AgileHost host(cfg);
  nvme::SsdConfig ssd;
  ssd.capacityLbas = 8192;
  host.addNvmeDev(ssd);
  host.initNvme();
  DefaultCtrl ctrl(host, CtrlConfig{.cacheLines = g.cacheLines});
  host.startAgile();

  const std::uint32_t n = 64;
  std::uint64_t bad = 0;
  const bool ok = host.runKernel(
      {.gridDim = 1, .blockDim = n, .name = "durable"},
      [&](gpu::KernelCtx& ctx) -> gpu::GpuTask<void> {
        AgileLockChain chain;
        const std::uint32_t t = ctx.threadIdx();
        const std::uint64_t elem = static_cast<std::uint64_t>(t) * 512;
        co_await ctrl.arrayWrite<std::uint64_t>(ctx, elem, 0xC0FFEE00 + t,
                                                chain);
        co_await ctx.syncBlock();
        // Stream far-away pages to evict every dirty line.
        for (std::uint32_t k = 0; k < 4; ++k) {
          const std::uint64_t farElem =
              (4096ull + t * 4 + k * 256) * 512;
          (void)co_await ctrl.arrayRead<std::uint64_t>(ctx, farElem, chain);
        }
        co_await ctx.syncBlock();
        const auto back =
            co_await ctrl.arrayRead<std::uint64_t>(ctx, elem, chain);
        if (back != 0xC0FFEE00 + t) ++bad;
      });
  ASSERT_TRUE(ok);
  EXPECT_EQ(bad, 0u);
  ASSERT_TRUE(host.drainIo());
  host.stopAgile();
}

INSTANTIATE_TEST_SUITE_P(Geometries, WriteDurabilityTest,
                         ::testing::Values(Geometry{8, 2, 32, 0, 1},
                                           Geometry{16, 1, 64, 0, 2},
                                           Geometry{128, 4, 64, 0, 3}),
                         geomName);

// P4: random media faults must surface as errors, never hang, and leave the
// system reusable. Faults come from the seeded nvme/fault injector with the
// retry tier left disabled (HostConfig::retry.maxAttempts == 0), so every
// injected error must reach the caller as a failed waitBuf().
TEST(FaultInjectionTest, RandomFaultsAreContained) {
  HostConfig cfg;
  cfg.queuePairsPerSsd = 4;
  cfg.queueDepth = 64;
  AgileHost host(cfg);
  nvme::SsdConfig ssd;
  ssd.capacityLbas = 4096;
  ssd.fault.enabled = true;
  ssd.fault.seed = 99;
  ssd.fault.readErrorRate = 0.2;
  host.addNvmeDev(ssd);
  host.initNvme();
  DefaultCtrl ctrl(host, CtrlConfig{.cacheLines = 64});
  host.startAgile();

  auto* mem = host.gpu().hbm().allocBytes(128 * nvme::kLbaBytes);
  std::uint64_t failures = 0, successes = 0;
  const bool ok = host.runKernel(
      {.gridDim = 2, .blockDim = 64, .name = "faulty"},
      [&](gpu::KernelCtx& ctx) -> gpu::GpuTask<void> {
        AgileLockChain chain;
        const std::uint32_t tid = ctx.globalThreadIdx();
        AgileBuf buf(mem + static_cast<std::uint64_t>(tid) * nvme::kLbaBytes);
        AgileBufPtr ptr(buf);
        for (int i = 0; i < 4; ++i) {
          // Mostly-distinct pages per request so the share table/cache don't
          // mask the fault path (residual collisions exercise both releases).
          const std::uint64_t lba = tid * 7 + i * 131 + 1;
          co_await ctrl.asyncRead(ctx, 0, lba, ptr, chain);
          const bool good = co_await ctrl.waitBuf(ctx, ptr);
          (good ? successes : failures)++;
          // A Share-Table redirect detaches via releaseBuf(); a read that
          // kept its own buffer registered this thread as the page's owner
          // and must release with releaseOwned(), or the entry leaks.
          if (ptr.isShared()) {
            co_await ctrl.releaseBuf(ctx, ptr, chain);
          } else {
            co_await ctrl.releaseOwned(ctx, 0, lba, ptr, chain);
          }
          ptr.bindOwn(buf);
        }
      });
  ASSERT_TRUE(ok) << "fault storm hung the pipeline";
  EXPECT_GT(failures, 0u);
  EXPECT_GT(successes, 0u);
  EXPECT_EQ(failures + successes, 512u);
  ASSERT_TRUE(host.drainIo());
  EXPECT_EQ(host.pendingTransactions(), 0u);
  EXPECT_EQ(ctrl.shareTable().size(), 0u);  // P2: no leaked owner entries
  EXPECT_EQ(ctrl.cache().busyLines(), 0u);
  host.stopAgile();
}

struct KvGeometry {
  std::uint32_t cacheLines;
  std::uint32_t cacheShards;  // 0 = auto (fully associative at these sizes)
  std::uint64_t seed;
};

// (geometry, KvConfig::gatherDepth): depth 0 is the one-page ring with a
// synchronous gather.
using KvParam = std::tuple<KvGeometry, std::uint32_t>;

std::string kvGeomName(const ::testing::TestParamInfo<KvParam>& info) {
  const auto& [g, depth] = info.param;
  return "c" + std::to_string(g.cacheLines) + "_sh" +
         std::to_string(g.cacheShards) + "_s" + std::to_string(g.seed) +
         "_d" + std::to_string(depth);
}

class KvServerPropertyTest : public ::testing::TestWithParam<KvParam> {};

// P1+P2+P3 at the application level: a seeded mix of admits (some attaching
// to a shared-prefix pool, some allocating fresh blocks), random decode
// budgets, and random early terminations driven through the full KvServer
// loop. Whatever the cache size, shard count, pipeline depth, or
// interleaving, every token stream must match the DRAM reference and the
// drained system must hold no BUSY line, no live token op, no share-table
// entry, no pinned staging page, and no leaked pool block.
TEST_P(KvServerPropertyTest, RandomServingPreservesInvariants) {
  const auto [g, depth] = GetParam();
  HostConfig cfg;
  cfg.queuePairsPerSsd = 4;
  cfg.queueDepth = 64;
  cfg.stagingPages = 64;
  AgileHost host(cfg);
  nvme::SsdConfig ssd;
  ssd.capacityLbas = 8192;
  host.addNvmeDev(ssd);
  host.initNvme();
  DefaultCtrl ctrl(host, CtrlConfig{.cacheLines = g.cacheLines,
                                    .cacheShards = g.cacheShards});
  host.startAgile();

  apps::kv::KvConfig kcfg;
  kcfg.maxBatch = 3;
  kcfg.poolBlocks = 2048;
  kcfg.gatherDepth = depth;
  apps::kv::KvServer server(host, ctrl, kcfg);

  Rng rng(g.seed);
  std::vector<std::vector<std::uint32_t>> prefixPool(3);
  for (auto& p : prefixPool) {
    p.resize(4 + rng.nextBelow(13));
    for (auto& t : p) {
      t = 1 + static_cast<std::uint32_t>(rng.nextBelow(kcfg.vocab - 1));
    }
  }
  constexpr std::uint32_t kNumReqs = 9;
  std::vector<apps::kv::KvRequest> reqs(kNumReqs);
  for (std::uint64_t id = 0; id < kNumReqs; ++id) {
    apps::kv::KvRequest& r = reqs[id];
    r.id = id;
    // ~60% of requests start from a pooled prefix, so admits race between
    // attaching to live blocks and allocating fresh ones.
    if (rng.nextBool(0.6)) {
      r.prompt = prefixPool[rng.nextBelow(prefixPool.size())];
    }
    const std::size_t targetLen = 4 + rng.nextBelow(29);
    while (r.prompt.size() < targetLen) {
      r.prompt.push_back(
          1 + static_cast<std::uint32_t>(rng.nextBelow(kcfg.vocab - 1)));
    }
    r.maxNewTokens = 1 + static_cast<std::uint32_t>(rng.nextBelow(20));
    // ~30% terminate early, retiring with warm prefetches still in flight.
    if (rng.nextBool(0.3)) {
      r.eosAfter = 1 + static_cast<std::uint32_t>(rng.nextBelow(4));
    }
    server.enqueue(r);
  }
  ASSERT_TRUE(server.run()) << "kv serving loop hung";

  // P1: every stream byte-exact against the reference model.
  ASSERT_EQ(server.retired().size(), kNumReqs);
  for (const apps::kv::KvRequestStats& st : server.retired()) {
    EXPECT_EQ(st.generated,
              apps::kv::referenceDecode(kcfg, reqs[st.id]).generated)
        << "request " << st.id;
  }

  // P2: drain and audit every resource class.
  EXPECT_EQ(server.stats().requestsRetired, kNumReqs);
  EXPECT_EQ(ctrl.cache().busyLines(), 0u);
  EXPECT_EQ(ctrl.cache().busyLinesSlow(), 0u);
  EXPECT_EQ(ctrl.tokens().liveOps(), 0u);
  EXPECT_EQ(ctrl.shareTable().size(), 0u);
  EXPECT_EQ(host.staging().available(), 64u);
  EXPECT_EQ(host.pendingTransactions(), 0u);
  EXPECT_EQ(server.pool().freeBlocks(), server.pool().capacity());
  host.stopAgile();
}

INSTANTIATE_TEST_SUITE_P(
    Geometries, KvServerPropertyTest,
    ::testing::Combine(
        ::testing::Values(KvGeometry{8, 1, 101},   // brutal pressure, 1 shard
                          KvGeometry{16, 1, 404},  // small, single shard
                          KvGeometry{64, 4, 202},  // medium, sharded
                          KvGeometry{512, 4, 303}),  // roomy, sharded
        ::testing::Values(0u, 1u, 3u, 8u)),
    kvGeomName);

// P3 at the NVMe level: tiny queues + many threads + mixed read/write must
// complete (the service releases SQEs; §3.2's deadlock elimination under
// the worst geometry we support).
TEST(LivenessTest, TinyQueuesManyThreads) {
  HostConfig cfg;
  cfg.queuePairsPerSsd = 1;
  cfg.queueDepth = 4;  // 3 usable SQEs
  cfg.stagingPages = 4;
  AgileHost host(cfg);
  nvme::SsdConfig ssd;
  ssd.capacityLbas = 4096;
  host.addNvmeDev(ssd);
  host.initNvme();
  DefaultCtrl ctrl(host, CtrlConfig{.cacheLines = 8});
  host.startAgile();

  int done = 0;
  const bool ok = host.runKernel(
      {.gridDim = 2, .blockDim = 64, .name = "tiny"},
      [&](gpu::KernelCtx& ctx) -> gpu::GpuTask<void> {
        AgileLockChain chain;
        const std::uint32_t tid = ctx.globalThreadIdx();
        const std::uint64_t elem = static_cast<std::uint64_t>(tid) * 512;
        co_await ctrl.arrayWrite<std::uint64_t>(ctx, elem, tid, chain);
        const auto v = co_await ctrl.arrayRead<std::uint64_t>(ctx, elem, chain);
        EXPECT_EQ(v, tid);
        ++done;
      });
  ASSERT_TRUE(ok);
  EXPECT_EQ(done, 128);
  host.stopAgile();
}

// BaM under the same stress: its inline draining must also stay live.
TEST(LivenessTest, BamTinyQueues) {
  HostConfig cfg;
  cfg.queuePairsPerSsd = 1;
  cfg.queueDepth = 8;
  AgileHost host(cfg);
  nvme::SsdConfig ssd;
  ssd.capacityLbas = 65536;
  host.addNvmeDev(ssd);
  host.initNvme();
  bam::DefaultBamCtrl bamCtrl(host, bam::BamConfig{.cacheLines = 8});

  int done = 0;
  const bool ok = host.runKernel(
      {.gridDim = 2, .blockDim = 64, .name = "bam-tiny"},
      [&](gpu::KernelCtx& ctx) -> gpu::GpuTask<void> {
        AgileLockChain chain;
        const std::uint32_t tid = ctx.globalThreadIdx();
        const auto v = co_await bamCtrl.readElem<std::uint64_t>(
            ctx, static_cast<std::uint64_t>(tid) * 512, chain);
        (void)v;
        ++done;
      });
  ASSERT_TRUE(ok);
  EXPECT_EQ(done, 128);
}

// Determinism: the same seed and geometry must produce bit-identical
// virtual timing (the DES guarantee every bench relies on).
TEST(DeterminismTest, SameSeedSameVirtualTime) {
  auto runOnce = [] {
    HostConfig cfg;
    cfg.queuePairsPerSsd = 2;
    cfg.queueDepth = 64;
    AgileHost host(cfg);
    nvme::SsdConfig ssd;
    ssd.capacityLbas = 4096;
    host.addNvmeDev(ssd);
    host.initNvme();
    DefaultCtrl ctrl(host, CtrlConfig{.cacheLines = 32});
    host.startAgile();
    const bool ok = host.runKernel(
        {.gridDim = 2, .blockDim = 64, .name = "det"},
        [&](gpu::KernelCtx& ctx) -> gpu::GpuTask<void> {
          AgileLockChain chain;
          Rng rng(42 + ctx.globalThreadIdx());
          for (int i = 0; i < 6; ++i) {
            (void)co_await ctrl.arrayRead<std::uint64_t>(
                ctx, rng.nextBelow(2048) * 512, chain);
          }
        });
    EXPECT_TRUE(ok);
    host.stopAgile();
    return host.engine().now();
  };
  const auto t1 = runOnce();
  const auto t2 = runOnce();
  EXPECT_EQ(t1, t2);
}

}  // namespace
}  // namespace agile::core
