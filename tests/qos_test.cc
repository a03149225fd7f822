// Multi-tenant QoS subsystem tests: QuantileSketch tail/interpolation/merge
// math, QosManager admission and WFQ arbitration,
// and the end-to-end tenant plumbing through AgileCtrl (per-tenant latency
// sketches, ioHealth admission counters, resetStats windows, and the
// equal-weights byte-identity fallback).
#include <gtest/gtest.h>

#include <cstring>
#include <memory>
#include <string>
#include <tuple>
#include <vector>

#include "common/quantile.h"
#include "core/ctrl.h"
#include "qos/qos.h"

namespace agile::core {
namespace {

// ------------------------------------------------------ QuantileSketch ----

TEST(QuantileSketch, SmallValuesAreExactOrderStatistics) {
  QuantileSketch s;
  // Values below 2^kSubBits land in width-1 buckets: quantiles are exact.
  for (std::uint64_t v : {5ull, 1ull, 9ull, 3ull, 7ull}) s.record(v);
  EXPECT_EQ(s.count(), 5u);
  EXPECT_EQ(s.quantile(0.0), 1u);
  EXPECT_EQ(s.quantile(0.2), 1u);  // ceil(0.2*5) = 1st order statistic
  EXPECT_EQ(s.quantile(0.5), 5u);  // 3rd of {1,3,5,7,9}
  EXPECT_EQ(s.quantile(0.8), 7u);
  EXPECT_EQ(s.quantile(1.0), 9u);
}

TEST(QuantileSketch, TailQuantilesOnSmallSamplesDegradeToMax) {
  QuantileSketch s;
  for (std::uint64_t v = 1; v <= 10; ++v) s.record(v * 1000);
  // p999 on 10 samples is the 10th order statistic — the max — and the
  // [min, max] clamp guarantees exactly max(), not a bucket upper bound.
  EXPECT_EQ(s.quantile(0.999), s.max());
  EXPECT_EQ(s.quantile(0.999), 10000u);
  // p99 on 10 samples is also the last sample.
  EXPECT_EQ(s.quantile(0.99), 10000u);
}

TEST(QuantileSketch, SingleSampleAnswersEveryQuantile) {
  QuantileSketch s;
  s.record(123456789);
  for (double q : {0.0, 0.25, 0.5, 0.9, 0.99, 0.999, 1.0}) {
    EXPECT_EQ(s.quantile(q), 123456789u) << "q=" << q;
  }
}

TEST(QuantileSketch, InterpolationBoundsRelativeError) {
  // Uniform ramp: interpolated quantiles stay within one sub-bucket
  // (2^-kSubBits ~ 3.1%) of the true order statistic.
  QuantileSketch r;
  constexpr std::uint64_t kN = 100000;
  for (std::uint64_t v = 1; v <= kN; ++v) r.record(v);
  for (double q : {0.10, 0.50, 0.90, 0.99, 0.999}) {
    const double exact = q * static_cast<double>(kN);
    const double got = static_cast<double>(r.quantile(q));
    EXPECT_NEAR(got / exact, 1.0, 1.0 / QuantileSketch::kSubBuckets)
        << "q=" << q;
  }
}

TEST(QuantileSketch, BucketBoundsRoundTrip) {
  for (std::uint64_t v :
       {0ull, 1ull, 31ull, 32ull, 33ull, 1000ull, (1ull << 20) + 17,
        (1ull << 40) - 1, 1ull << 62}) {
    const std::uint32_t idx = QuantileSketch::bucketOf(v);
    ASSERT_LT(idx, QuantileSketch::kBuckets) << "v=" << v;
    EXPECT_GE(v, QuantileSketch::bucketLo(idx)) << "v=" << v;
    EXPECT_LT(v, QuantileSketch::bucketHi(idx)) << "v=" << v;
  }
}

TEST(QuantileSketch, MergeOfMergesIsAssociative) {
  // Three shards, merged as (a+b)+c and a+(b+c): identical results,
  // including every derived quantile — bucket counts add exactly.
  QuantileSketch a, b, c;
  for (std::uint64_t v = 1; v < 500; ++v) a.record(v * 3);
  for (std::uint64_t v = 1; v < 700; ++v) b.record(v * v);
  for (std::uint64_t v = 1; v < 300; ++v) c.record(v * 31 + 7);

  QuantileSketch left = a;  // (a+b)+c
  left.merge(b);
  left.merge(c);
  QuantileSketch bc = b;  // a+(b+c)
  bc.merge(c);
  QuantileSketch right = a;
  right.merge(bc);

  EXPECT_EQ(left.count(), right.count());
  EXPECT_EQ(left.sum(), right.sum());
  EXPECT_EQ(left.min(), right.min());
  EXPECT_EQ(left.max(), right.max());
  for (double q : {0.01, 0.25, 0.5, 0.75, 0.99, 0.999}) {
    EXPECT_EQ(left.quantile(q), right.quantile(q)) << "q=" << q;
  }
}

TEST(QuantileSketch, ResetClearsEverything) {
  QuantileSketch s;
  s.record(42);
  s.record(7);
  s.reset();
  EXPECT_EQ(s.count(), 0u);
  EXPECT_EQ(s.sum(), 0u);
  EXPECT_EQ(s.min(), 0u);
  EXPECT_EQ(s.max(), 0u);
  EXPECT_EQ(s.quantile(0.5), 0u);
}

// ----------------------------------------------------- QosManager unit ----

qos::QosConfig twoTenantCfg(double w0, double w1, double rate0 = 0.0,
                            double burst0 = 256.0 * 1024.0) {
  qos::QosConfig cfg;
  cfg.enabled = true;
  cfg.tenants.push_back({"a", w0, rate0, burst0});
  cfg.tenants.push_back({"b", w1, 0.0, 256.0 * 1024.0});
  return cfg;
}

TEST(QosManager, WfqActiveOnlyWithUnequalWeights) {
  sim::Engine eng;
  qos::QosManager equal(eng, twoTenantCfg(2.0, 2.0), 1);
  EXPECT_FALSE(equal.wfqActive());
  qos::QosManager skewed(eng, twoTenantCfg(4.0, 1.0), 1);
  EXPECT_TRUE(skewed.wfqActive());
}

TEST(QosManager, UnlimitedTenantAlwaysAdmits) {
  sim::Engine eng;
  qos::QosManager q(eng, twoTenantCfg(1.0, 1.0), 1);
  EXPECT_FALSE(q.admissionLimited({0}));
  SimTime readyAt = 0;
  for (int i = 0; i < 1000; ++i) {
    EXPECT_EQ(q.tryAdmit({0}, 4096, 0, &readyAt), qos::Admission::kAdmit);
  }
  EXPECT_EQ(q.tenantStats({0}).admitted, 1000u);
  EXPECT_EQ(q.totalAdmissionDefers(), 0u);
}

TEST(QosManager, RateLimitedTenantDefersThenRejects) {
  sim::Engine eng;
  // 4 MiB/s, one-page burst: the second page within the same ns must defer.
  auto cfg = twoTenantCfg(1.0, 1.0, /*rate0=*/4096.0 * 1024.0,
                          /*burst0=*/4096.0);
  cfg.maxAdmissionDefers = 2;
  qos::QosManager q(eng, cfg, 1);
  EXPECT_TRUE(q.admissionLimited({0}));

  SimTime readyAt = 0;
  EXPECT_EQ(q.tryAdmit({0}, 4096, 0, &readyAt), qos::Admission::kAdmit);
  EXPECT_EQ(q.tryAdmit({0}, 4096, 0, &readyAt), qos::Admission::kDefer);
  EXPECT_GT(readyAt, eng.now());
  // Defer budget (2) exhausted -> reject.
  EXPECT_EQ(q.tryAdmit({0}, 4096, 2, &readyAt), qos::Admission::kReject);
  EXPECT_EQ(q.tenantStats({0}).admissionDefers, 1u);
  EXPECT_EQ(q.tenantStats({0}).admissionRejects, 1u);
  EXPECT_EQ(q.totalAdmissionDefers(), 1u);
  EXPECT_EQ(q.totalAdmissionRejects(), 1u);
}

TEST(QosManager, AdmitTimerWakesDeferredWaiters) {
  sim::Engine eng;
  auto cfg = twoTenantCfg(1.0, 1.0, /*rate0=*/4096.0 * 1024.0 * 1024.0,
                          /*burst0=*/4096.0);
  qos::QosManager q(eng, cfg, 1);

  SimTime readyAt = 0;
  ASSERT_EQ(q.tryAdmit({0}, 4096, 0, &readyAt), qos::Admission::kAdmit);
  ASSERT_EQ(q.tryAdmit({0}, 4096, 0, &readyAt), qos::Admission::kDefer);
  bool woke = false;
  q.admitWaiters({0}).park([&] { woke = true; });
  q.armAdmitTimer({0}, readyAt);
  EXPECT_TRUE(eng.runUntil([&] { return woke; }));
  EXPECT_GE(eng.now(), readyAt);
  // Tokens have refilled by readyAt: the retry admits.
  EXPECT_EQ(q.tryAdmit({0}, 4096, 1, &readyAt), qos::Admission::kAdmit);
}

TEST(QosManager, OnSlotFreeWakesMinVirtualTimeTenant) {
  sim::Engine eng;
  qos::QosManager q(eng, twoTenantCfg(4.0, 1.0), 1);
  ASSERT_TRUE(q.wfqActive());

  // Tenant 0 (weight 4) charged 8 pages -> virt 8*4096/4 = 8192.
  // Tenant 1 (weight 1) charged 1 page  -> virt 1*4096/1 = 4096.
  q.onGrant({0}, 8 * 4096);
  q.onGrant({1}, 4096);

  int woken = -1;
  q.sqWaiters({0}, 0).park([&] { woken = 0; });
  q.sqWaiters({1}, 0).park([&] { woken = 1; });
  sim::WaitList fallback;
  q.onSlotFree(eng, 0, fallback);
  eng.runToCompletion();
  EXPECT_EQ(woken, 1);  // min virtual time wins

  // Next free slot goes to the remaining (tenant 0) waiter.
  woken = -1;
  q.onSlotFree(eng, 0, fallback);
  eng.runToCompletion();
  EXPECT_EQ(woken, 0);

  // No WFQ waiters left: falls through to the FIFO fallback.
  bool fifo = false;
  fallback.park([&] { fifo = true; });
  q.onSlotFree(eng, 0, fallback);
  eng.runToCompletion();
  EXPECT_TRUE(fifo);
}

TEST(QosManager, NoteBacklogForfeitsIdleCredit) {
  sim::Engine eng;
  qos::QosManager q(eng, twoTenantCfg(4.0, 1.0), 1);
  // Tenant 1 worked while tenant 0 idled.
  q.onGrant({1}, 100 * 4096);
  const double busyVirt = q.virtualTime({1});
  ASSERT_GT(busyVirt, 0.0);
  // Tenant 1 is backlogged; tenant 0 re-enters and must not start from 0
  // (it would otherwise monopolize grants to "catch up" on idle time).
  q.sqWaiters({1}, 0).park([] {});
  q.noteBacklog({0});
  EXPECT_DOUBLE_EQ(q.virtualTime({0}), busyVirt);
}

TEST(QosManager, CacheLineOwnershipTransitions) {
  sim::Engine eng;
  qos::QosManager q(eng, twoTenantCfg(1.0, 1.0), 1);
  q.onCacheLineOwner(qos::kNoTenantValue, 0);
  q.onCacheLineOwner(qos::kNoTenantValue, 0);
  q.onCacheLineOwner(0, 1);  // tenant 1 steals a line from tenant 0
  EXPECT_EQ(q.cacheLines({0}), 1);
  EXPECT_EQ(q.cacheLines({1}), 1);
  q.onCacheLineOwner(1, qos::kNoTenantValue);
  EXPECT_EQ(q.cacheLines({1}), 0);
}

TEST(QosManager, ResetStatsKeepsControlState) {
  sim::Engine eng;
  qos::QosManager q(eng, twoTenantCfg(4.0, 1.0), 1);
  q.onGrant({0}, 4096);
  q.onComplete({0}, 4096, 1000);
  q.onCacheLineOwner(qos::kNoTenantValue, 0);
  q.resetStats();
  EXPECT_EQ(q.tenantStats({0}).completedIos, 0u);
  EXPECT_EQ(q.tenantStats({0}).latencyNs.count(), 0u);
  // Control state survives: WFQ virtual time and cache occupancy.
  EXPECT_GT(q.virtualTime({0}), 0.0);
  EXPECT_EQ(q.cacheLines({0}), 1);
}

// ------------------------------------------------- end-to-end plumbing ----

struct QosCtrlFixture : ::testing::Test {
  std::unique_ptr<AgileHost> host;
  std::unique_ptr<DefaultCtrl> ctrl;

  void build(qos::QosConfig qosCfg, std::uint32_t depth = 64) {
    HostConfig cfg;
    cfg.queuePairsPerSsd = 1;
    cfg.queueDepth = depth;
    cfg.stagingPages = 64;
    cfg.qos = std::move(qosCfg);
    host = std::make_unique<AgileHost>(cfg);
    nvme::SsdConfig ssd;
    ssd.capacityLbas = 65536;
    host->addNvmeDev(ssd);
    host->initNvme();
    ctrl =
        std::make_unique<DefaultCtrl>(*host, CtrlConfig{.cacheLines = 64});
    host->startAgile();
  }

  void TearDown() override {
    if (host && host->serviceRunning()) host->stopAgile();
  }
};

TEST_F(QosCtrlFixture, PerTenantLatencyAndBytesAreRecorded) {
  build(twoTenantCfg(1.0, 1.0));
  auto* memA = host->gpu().hbm().allocBytes(nvme::kLbaBytes);
  auto* memB = host->gpu().hbm().allocBytes(nvme::kLbaBytes);
  ASSERT_TRUE(host->runKernel(
      {.gridDim = 1, .blockDim = 2, .name = "tenants"},
      [&](gpu::KernelCtx& ctx) -> gpu::GpuTask<void> {
        AgileLockChain chain;
        const std::uint32_t tid = ctx.globalThreadIdx();
        const qos::TenantId me{static_cast<std::uint16_t>(tid % 2)};
        AgileBuf buf(tid == 0 ? memA : memB);
        for (std::uint32_t i = 0; i < 8; ++i) {
          AgileBufPtr ptr(buf);
          co_await ctrl->asyncRead(ctx, 0, tid * 64 + i * 2, ptr, chain, me);
          (void)co_await ctrl->waitBuf(ctx, ptr);
        }
      }));
  ASSERT_TRUE(host->drainIo());
  qos::QosManager* q = host->qosManager();
  ASSERT_NE(q, nullptr);
  for (std::uint16_t t = 0; t < 2; ++t) {
    const auto& st = q->tenantStats({t});
    EXPECT_EQ(st.completedIos, 8u) << "tenant " << t;
    EXPECT_EQ(st.completedBytes, 8u * nvme::kLbaBytes) << "tenant " << t;
    EXPECT_EQ(st.latencyNs.count(), 8u) << "tenant " << t;
    EXPECT_GT(st.latencyNs.quantile(0.5), 0u) << "tenant " << t;
  }
  // resetStats on the controller clears the per-tenant window too.
  ctrl->resetStats();
  EXPECT_EQ(q->tenantStats({0}).completedIos, 0u);
  EXPECT_EQ(q->tenantStats({0}).latencyNs.count(), 0u);
}

TEST_F(QosCtrlFixture, AdmissionDefersSurfaceInIoHealth) {
  // Tenant 0 throttled to a 4-page burst and a slow refill: a 16-read
  // kernel must defer (and the reads still land — deferred, not dropped).
  build(twoTenantCfg(1.0, 1.0, /*rate0=*/16.0 * 1024.0 * 1024.0,
                     /*burst0=*/4.0 * 4096.0));
  auto* mem = host->gpu().hbm().allocBytes(nvme::kLbaBytes);
  ASSERT_TRUE(host->runKernel(
      {.gridDim = 1, .blockDim = 1, .name = "throttled"},
      [&](gpu::KernelCtx& ctx) -> gpu::GpuTask<void> {
        AgileLockChain chain;
        AgileBuf buf(mem);
        for (std::uint32_t i = 0; i < 16; ++i) {
          AgileBufPtr ptr(buf);
          co_await ctrl->asyncRead(ctx, 0, i * 2, ptr, chain, {0});
          (void)co_await ctrl->waitBuf(ctx, ptr);
        }
      }));
  ASSERT_TRUE(host->drainIo());
  const auto h = host->ioHealth();
  EXPECT_GT(h.admissionDefers, 0u);
  EXPECT_EQ(h.admissionRejects, 0u);
  EXPECT_EQ(host->qosManager()->tenantStats({0}).completedIos, 16u);
  // AgileHost::resetStats clears the aggregate window.
  host->resetStats();
  EXPECT_EQ(host->ioHealth().admissionDefers, 0u);
}

TEST_F(QosCtrlFixture, AdmissionRejectSettlesSingleAndBatchRuns) {
  // Tenant 0's one-page burst admits the first write; with no defer budget
  // and a one-page-per-second refill, the next single write and a
  // three-write batch run are rejected at admission. Every rejected entry
  // must settle as failed and hand its staging page back, and the batch
  // token must retire.
  auto qosCfg = twoTenantCfg(1.0, 1.0, /*rate0=*/4096.0, /*burst0=*/4096.0);
  qosCfg.maxAdmissionDefers = 0;
  build(std::move(qosCfg));
  constexpr std::uint32_t kBatch = 3;
  auto* mem = host->gpu().hbm().allocBytes((2 + kBatch) * nvme::kLbaBytes);
  bool first = false, single = true, batchOk = true;
  bool entryFailed[kBatch] = {};
  ASSERT_TRUE(host->runKernel(
      {.gridDim = 1, .blockDim = 1, .name = "rejected"},
      [&](gpu::KernelCtx& ctx) -> gpu::GpuTask<void> {
        AgileLockChain chain;
        AgileBuf bufs[2 + kBatch];
        AgileBufPtr ptrs[2 + kBatch];
        for (std::uint32_t i = 0; i < 2 + kBatch; ++i) {
          bufs[i].bind(mem + i * nvme::kLbaBytes);
          ptrs[i].bindOwn(bufs[i]);
        }
        co_await ctrl->asyncWrite(ctx, 0, 400, ptrs[0], chain, {0});
        first = co_await ctrl->waitBuf(ctx, ptrs[0]);
        co_await ctrl->asyncWrite(ctx, 0, 401, ptrs[1], chain, {0});
        single = co_await ctrl->waitBuf(ctx, ptrs[1]);
        IoBatch batch;
        batch.setTenant({0});
        for (std::uint32_t i = 0; i < kBatch; ++i) {
          EXPECT_TRUE(batch.addWrite(0, 402 + i, ptrs[2 + i]));
        }
        IoToken t = co_await ctrl->submitBatch(ctx, batch, chain);
        batchOk = co_await ctrl->wait(ctx, t);
        for (std::uint32_t i = 0; i < kBatch; ++i) {
          entryFailed[i] = bufs[2 + i].barrier().failed();
        }
      }));
  ASSERT_TRUE(host->drainIo());
  EXPECT_TRUE(first);
  EXPECT_FALSE(single);
  EXPECT_FALSE(batchOk);
  for (std::uint32_t i = 0; i < kBatch; ++i) {
    EXPECT_TRUE(entryFailed[i]) << "batch entry " << i;
  }
  EXPECT_EQ(host->ioHealth().admissionRejects, 2u);
  EXPECT_EQ(host->ssd(0).writesCompleted(), 1u);
  EXPECT_EQ(host->staging().available(), 64u);
  EXPECT_EQ(ctrl->tokens().liveOps(), 0u);
}

// With QoS attached but weights equal (WFQ inactive) and no rate limits,
// the engine must execute the exact same event sequence as with QoS off:
// stats recording is passive. Compare event counts, final virtual time,
// and a digest of the read results.
TEST(QosByteIdentity, EqualWeightsMatchesQosOff) {
  auto run = [](bool withQos) {
    HostConfig cfg;
    cfg.queuePairsPerSsd = 2;
    cfg.queueDepth = 8;  // small ring: the full-queue park path is exercised
    cfg.stagingPages = 16;
    if (withQos) {
      cfg.qos.enabled = true;
      cfg.qos.tenants.push_back({"a", 1.0, 0.0, 4096.0});
      cfg.qos.tenants.push_back({"b", 1.0, 0.0, 4096.0});
    }
    AgileHost host(cfg);
    nvme::SsdConfig ssd;
    ssd.capacityLbas = 65536;
    host.addNvmeDev(ssd);
    host.initNvme();
    DefaultCtrl ctrl(host, CtrlConfig{.cacheLines = 16});
    host.startAgile();
    std::uint64_t digest = 0;
    EXPECT_TRUE(host.runKernel(
        {.gridDim = 2, .blockDim = 32, .name = "mix"},
        [&](gpu::KernelCtx& ctx) -> gpu::GpuTask<void> {
          AgileLockChain chain;
          const std::uint32_t tid = ctx.globalThreadIdx();
          const qos::TenantId me{static_cast<std::uint16_t>(tid % 2)};
          AgileBuf buf(host.gpu().hbm().allocBytes(nvme::kLbaBytes));
          for (std::uint32_t i = 0; i < 4; ++i) {
            AgileBufPtr ptr(buf);
            co_await ctrl.asyncRead(ctx, 0, tid * 64 + i * 8, ptr, chain,
                                    me);
            (void)co_await ctrl.waitBuf(ctx, ptr);
            std::uint64_t word = 0;
            std::memcpy(&word, buf.data(), sizeof word);
            digest = digest * 1099511628211ull + word;
          }
        }));
    EXPECT_TRUE(host.drainIo());
    const std::uint64_t events = host.engine().executedEvents();
    const std::uint64_t ready = host.engine().readyPathEvents();
    const SimTime end = host.engine().now();
    host.stopAgile();
    return std::tuple{digest, events, ready, end};
  };
  const auto off = run(false);
  const auto on = run(true);
  EXPECT_EQ(std::get<0>(off), std::get<0>(on));
  EXPECT_EQ(std::get<1>(off), std::get<1>(on));
  EXPECT_EQ(std::get<2>(off), std::get<2>(on));
  EXPECT_EQ(std::get<3>(off), std::get<3>(on));
}

}  // namespace
}  // namespace agile::core
