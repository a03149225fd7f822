// Striping math and multi-device data-path tests: the StripeMap element ->
// (device, lba, byteOff) routing (stripe boundaries, non-power-of-two
// widths, devices=1 equivalence with the pre-stripe mapping), the O(1)
// per-device queue-pair tables, staging-pool scaling, and the remote-flash
// latency tier slotting into a stripe group.
#include <gtest/gtest.h>

#include <cstdint>
#include <set>
#include <vector>

#include "core/ctrl.h"
#include "nvme/flash_store.h"

namespace agile::core {
namespace {

constexpr std::uint64_t kWordsPerLba = nvme::kLbaBytes / 8;

// ------------------------------------------------------ pure math ----

// devices=1 must reduce to the identity mapping — the single-device path is
// the pre-stripe layout bit for bit, whatever stripeLbas says.
TEST(StripeMath, SingleDeviceMatchesPreStripeMapping) {
  for (const std::uint32_t stripeLbas : {1u, 4u, 7u}) {
    const StripeMap map{1, stripeLbas, 0};
    for (std::uint64_t idx = 0; idx < 4 * kWordsPerLba + 3; ++idx) {
      const ElemAddr legacy = elemAddr<std::uint64_t>(idx);
      const ElemAddr striped = elemAddr<std::uint64_t>(idx, map);
      EXPECT_EQ(striped.dev, 0u);
      EXPECT_EQ(striped.lba, legacy.lba);
      EXPECT_EQ(striped.byteOff, legacy.byteOff);
    }
  }
  // A pinned base device keeps the legacy lba/byteOff and only moves dev.
  const ElemAddr pinned =
      elemAddr<std::uint64_t>(3 * kWordsPerLba + 17, StripeMap{1, 1, 2});
  EXPECT_EQ(pinned.dev, 2u);
  EXPECT_EQ(pinned.lba, 3u);
  EXPECT_EQ(pinned.byteOff, 17u * 8u);
}

// Compile-time spot checks of the round-robin deal (devices=2, unit=1 LBA):
// logical LBA k lands on device k%2 at per-device LBA k/2.
static_assert(elemAddr<std::uint64_t>(0, StripeMap{2, 1, 0}).dev == 0);
static_assert(elemAddr<std::uint64_t>(kWordsPerLba, StripeMap{2, 1, 0}).dev ==
              1);
static_assert(elemAddr<std::uint64_t>(kWordsPerLba, StripeMap{2, 1, 0}).lba ==
              0);
static_assert(
    elemAddr<std::uint64_t>(2 * kWordsPerLba, StripeMap{2, 1, 0}).dev == 0);
static_assert(
    elemAddr<std::uint64_t>(2 * kWordsPerLba, StripeMap{2, 1, 0}).lba == 1);

// Stripe-boundary elements: the last element of a stripe unit and the first
// of the next must part ways exactly at the unit edge.
TEST(StripeMath, StripeBoundaryElements) {
  const StripeMap map{3, 4, 0};  // 3 devices, 4-LBA units
  const std::uint64_t unitElems = 4 * kWordsPerLba;
  const ElemAddr last = elemAddr<std::uint64_t>(unitElems - 1, map);
  const ElemAddr first = elemAddr<std::uint64_t>(unitElems, map);
  EXPECT_EQ(last.dev, 0u);
  EXPECT_EQ(last.lba, 3u);
  EXPECT_EQ(last.byteOff, nvme::kLbaBytes - 8u);
  EXPECT_EQ(first.dev, 1u);
  EXPECT_EQ(first.lba, 0u);
  EXPECT_EQ(first.byteOff, 0u);
}

// Consecutive LBAs inside one stripe unit stay on one device at adjacent
// per-device LBAs: an access pattern straddling an LBA boundary within a
// stripe never splits across controllers.
TEST(StripeMath, LbaStraddleWithinStripeStaysOnDevice) {
  const StripeMap map{4, 8, 0};
  // Elements on either side of the LBA 2 -> LBA 3 edge of unit 0.
  const ElemAddr before = elemAddr<std::uint64_t>(3 * kWordsPerLba - 1, map);
  const ElemAddr after = elemAddr<std::uint64_t>(3 * kWordsPerLba, map);
  EXPECT_EQ(before.dev, after.dev);
  EXPECT_EQ(before.lba + 1, after.lba);
}

// Non-power-of-two widths: the mapping must stay a bijection — every
// logical LBA gets a unique (dev, lba) and the inverse reconstructs it.
TEST(StripeMath, NonPowerOfTwoDeviceCountIsBijective) {
  for (const std::uint32_t devices : {3u, 5u, 7u}) {
    for (const std::uint32_t stripeLbas : {1u, 3u}) {
      const StripeMap map{devices, stripeLbas, 0};
      std::set<std::pair<std::uint32_t, std::uint64_t>> seen;
      const std::uint64_t lbas = 4 * devices * stripeLbas + 5;
      for (std::uint64_t logical = 0; logical < lbas; ++logical) {
        const ElemAddr at =
            elemAddr<std::uint64_t>(logical * kWordsPerLba, map);
        EXPECT_LT(at.dev, devices);
        EXPECT_TRUE(seen.insert({at.dev, at.lba}).second)
            << "collision at logical LBA " << logical;
        // Invert: unit index from (lba, dev), then the logical LBA.
        const std::uint64_t unit =
            (at.lba / stripeLbas) * devices + (at.dev - map.baseDev);
        EXPECT_EQ(unit * stripeLbas + at.lba % stripeLbas, logical);
      }
    }
  }
}

// ------------------------------------------------- end to end ----

struct StripeFixture : ::testing::Test {
  std::unique_ptr<AgileHost> host;
  std::unique_ptr<DefaultCtrl> ctrl;

  void build(std::uint32_t ssds, StripeMap stripe, bool lastRemote = false) {
    HostConfig cfg;
    cfg.queuePairsPerSsd = 4;
    cfg.queueDepth = 64;
    cfg.stagingPages = 64;
    host = std::make_unique<AgileHost>(cfg);
    for (std::uint32_t i = 0; i < ssds; ++i) {
      nvme::SsdConfig ssd;
      if (lastRemote && i == ssds - 1) ssd = nvme::remoteFlashConfig();
      ssd.name = "nvme" + std::to_string(i);
      ssd.capacityLbas = 65536;
      host->addNvmeDev(ssd);
    }
    host->initNvme();
    ctrl = std::make_unique<DefaultCtrl>(
        *host, CtrlConfig{.cacheLines = 64, .stripe = stripe});
    host->startAgile();
  }

  void TearDown() override {
    if (host && host->serviceRunning()) host->stopAgile();
  }
};

// The striped array read must pull each element from the flash page the
// StripeMap routes it to — validated against the per-device pattern — and
// spread fills over every controller of the group.
TEST_F(StripeFixture, StripedArrayReadRoutesToAllDevices) {
  const StripeMap stripe{3, 2, 0};  // non-power-of-two width
  build(3, stripe);
  const std::uint64_t n = 16;
  std::vector<std::uint64_t> got(n);
  ASSERT_TRUE(host->runKernel(
      {.gridDim = 1, .blockDim = 1, .name = "striped-read"},
      [&](gpu::KernelCtx& ctx) -> gpu::GpuTask<void> {
        AgileLockChain chain;
        for (std::uint64_t i = 0; i < n; ++i) {
          // One element per logical page, so the walk visits every device.
          got[i] = co_await ctrl->arrayRead<std::uint64_t>(
              ctx, i * kWordsPerLba, chain);
        }
      }));
  for (std::uint64_t i = 0; i < n; ++i) {
    const ElemAddr at = elemAddr<std::uint64_t>(i * kWordsPerLba, stripe);
    EXPECT_EQ(got[i], nvme::FlashStore::patternWord(at.lba, 0))
        << "element " << i;
  }
  for (std::uint32_t d = 0; d < 3; ++d) {
    EXPECT_GT(host->ssd(d).readsCompleted(), 0u) << "device " << d;
  }
}

// Striped writes land on the mapped device and read back through the same
// routing after eviction pressure.
TEST_F(StripeFixture, StripedWriteReadRoundTrip) {
  const StripeMap stripe{2, 1, 0};
  build(2, stripe);
  const std::uint64_t n = 8;
  std::vector<std::uint64_t> got(n);
  ASSERT_TRUE(host->runKernel(
      {.gridDim = 1, .blockDim = 1, .name = "striped-rw"},
      [&](gpu::KernelCtx& ctx) -> gpu::GpuTask<void> {
        AgileLockChain chain;
        for (std::uint64_t i = 0; i < n; ++i) {
          co_await ctrl->arrayWrite<std::uint64_t>(ctx, i * kWordsPerLba,
                                                   0xbeef000 + i, chain);
        }
        for (std::uint64_t i = 0; i < n; ++i) {
          got[i] = co_await ctrl->arrayRead<std::uint64_t>(
              ctx, i * kWordsPerLba, chain);
        }
      }));
  for (std::uint64_t i = 0; i < n; ++i) EXPECT_EQ(got[i], 0xbeef000 + i);
}

// A remote-flash device slots into the stripe transparently: same surface,
// higher per-command latency, and the mixed group still drains clean.
TEST_F(StripeFixture, RemoteDeviceJoinsStripeTransparently) {
  const StripeMap stripe{2, 1, 0};
  build(2, stripe, /*lastRemote=*/true);
  const SimTime start = host->engine().now();
  ASSERT_TRUE(host->runKernel(
      {.gridDim = 1, .blockDim = 1, .name = "mixed-read"},
      [&](gpu::KernelCtx& ctx) -> gpu::GpuTask<void> {
        AgileLockChain chain;
        for (std::uint64_t i = 0; i < 8; ++i) {
          (void)co_await ctrl->arrayRead<std::uint64_t>(ctx, i * kWordsPerLba,
                                                        chain);
        }
      }));
  ASSERT_TRUE(host->drainIo());
  EXPECT_GT(host->ssd(0).readsCompleted(), 0u);
  EXPECT_GT(host->ssd(1).readsCompleted(), 0u);
  // The serial walk touched the remote device 4 times; its ~100 us fabric
  // round trips must be visible in the virtual makespan.
  EXPECT_GT(host->engine().now() - start, 4 * 100'000);
}

// ------------------------------------- queue-pair / staging audit ----

// The O(1) per-device tables must agree with the registration layout:
// SSD-major contiguous queue pairs.
TEST_F(StripeFixture, QueuePairTablesAreSsdMajor) {
  build(3, StripeMap{});
  QueuePairSet& qps = host->queuePairs();
  ASSERT_EQ(qps.count(), 12u);
  for (std::uint32_t s = 0; s < 3; ++s) {
    EXPECT_EQ(qps.slice(s).first, s * 4);
    EXPECT_EQ(qps.slice(s).count, 4u);
    // Shard 1 of 2 owns the upper half of the device's queue pairs.
    EXPECT_EQ(qps.slice(s, 1, 2).first, s * 4 + 2);
    EXPECT_EQ(qps.slice(s, 1, 2).count, 2u);
    for (std::uint32_t q = 0; q < 4; ++q) {
      EXPECT_EQ(qps.sqs[s * 4 + q]->ssdIdx, s);
    }
  }
}

}  // namespace
}  // namespace agile::core
