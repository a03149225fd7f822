// fault_storm: goodput retention under injected device faults.
//
// Sweeps the transient-fault rate (retryable media errors plus a smaller
// share of swallowed completions) crossed with a retry budget of 0 (off)
// or 8 (on), over a mixed read/write workload. Reports per-op p50/p99 latency,
// completion rate, abort rate, and goodput; the headline is goodput
// retention at a 1% fault rate with retries on, and the CI gate requires
// 100% eventual completion at that point. The gated point runs twice to
// confirm determinism (same seed, same plan => same virtual end time), and
// every row reports kernel_ok: a hang at any fault rate is a bug.
//
// Output: BENCH_fault.json (see bench/README.md for the schema).
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "bench/bench_util.h"
#include "common/quantile.h"
#include "nvme/flash_store.h"

namespace {

using namespace agile;

struct StormConfig {
  double faultRate = 0.0;  // transient error rate; drops run at rate/10
  bool retryOn = false;
};

struct StormResult {
  std::string name;
  double faultRate = 0.0;
  bool retryOn = false;
  std::uint64_t ops = 0;
  std::uint64_t completed = 0;  // op finished with correct data / OK status
  std::uint64_t failed = 0;     // op settled with an error (aborted)
  SimTime virtualNs = 0;
  std::uint64_t p50Ns = 0;
  std::uint64_t p99Ns = 0;
  double goodputOpsPerSec = 0.0;  // completed ops per virtual second
  bool kernelOk = false;  // the kernel finished and drainIo drained
  core::IoHealthStats health;
};

StormResult runStorm(const StormConfig& sc, bool quick) {
  core::HostConfig cfg;
  cfg.queuePairsPerSsd = 4;
  cfg.queueDepth = 64;
  cfg.stagingPages = 512;
  // Tight: a hang is a bug, reported as kernel_ok false with unfinished
  // ops counted as failed, and the timeout keeps it from becoming a
  // 120-virtual-second grind. Every run finishes in a few ms virtual.
  cfg.kernelTimeout = 200_ms;
  // The watchdog is the recovery trigger for swallowed completions, armed
  // in both retry modes: "off" is the retry tier with a zero budget, so
  // the first expiry aborts the command and settles it with an error.
  cfg.ioTimeoutNs = 2_ms;
  if (sc.retryOn) {
    cfg.retry.maxAttempts = 8;
    cfg.retry.backoffBaseNs = 50'000;
    cfg.retry.quarantineAfter = 8;
  }
  auto host = std::make_unique<core::AgileHost>(cfg);
  nvme::SsdConfig ssd;
  ssd.capacityLbas = 1ull << 20;
  if (sc.faultRate > 0.0) {
    ssd.fault.enabled = true;
    ssd.fault.seed = 0xfa017;
    ssd.fault.readErrorRate = sc.faultRate;
    ssd.fault.writeErrorRate = sc.faultRate;
    ssd.fault.dropRate = sc.faultRate / 10.0;
  }
  host->addNvmeDev(ssd);
  host->initNvme();
  core::DefaultCtrl ctrl(*host, core::CtrlConfig{.cacheLines = 256});
  host->startAgile();

  const std::uint32_t threads = quick ? 64 : 192;
  const std::uint32_t opsPerThread = quick ? 8 : 24;
  // Disjoint LBA ranges so read validation against the flash pattern is
  // unaffected by the write mix.
  const std::uint64_t writeBase = 1ull << 19;

  QuantileSketch lat;
  std::uint64_t completed = 0, failed = 0;
  auto* wmem = host->gpu().hbm().allocBytes(
      static_cast<std::uint64_t>(threads) * nvme::kLbaBytes);

  const bool kernelOk = host->runKernel(
      {.gridDim = (threads + 63) / 64, .blockDim = 64, .name = "fault-storm"},
      [&](gpu::KernelCtx& ctx) -> gpu::GpuTask<void> {
        core::AgileLockChain chain;
        const std::uint32_t tid = ctx.globalThreadIdx();
        if (tid >= threads) co_return;
        std::byte* mem = wmem + static_cast<std::uint64_t>(tid) *
                                    nvme::kLbaBytes;
        for (std::uint32_t op = 0; op < opsPerThread; ++op) {
          const SimTime start = ctx.now();
          // 3:1 read:write mix over per-(thread, op) unique pages.
          if (op % 4 != 3) {
            const std::uint64_t lba =
                static_cast<std::uint64_t>(tid) * opsPerThread + op;
            const std::uint64_t v =
                co_await ctrl.arrayRead<std::uint64_t>(ctx, lba * 512, chain);
            if (v == nvme::FlashStore::patternWord(lba, 0)) {
              ++completed;
            } else {
              ++failed;
            }
          } else {
            core::AgileBuf buf(mem);
            core::AgileBufPtr ptr(buf);
            ptr.as<std::uint64_t>()[0] = tid * 1000ull + op;
            const std::uint64_t lba =
                writeBase + static_cast<std::uint64_t>(tid) * opsPerThread +
                op;
            co_await ctrl.asyncWrite(ctx, 0, lba, ptr, chain);
            const bool written = co_await ctrl.waitBuf(ctx, ptr);
            if (written) {
              ++completed;
            } else {
              ++failed;
            }
          }
          lat.record(static_cast<std::uint64_t>(ctx.now() - start));
        }
      });

  const bool drained = host->drainIo();
  StormResult r;
  char name[64];
  std::snprintf(name, sizeof name, "rate%.2f%%_retry_%s", sc.faultRate * 100,
                sc.retryOn ? "on" : "off");
  r.name = name;
  r.faultRate = sc.faultRate;
  r.retryOn = sc.retryOn;
  r.ops = static_cast<std::uint64_t>(threads) * opsPerThread;
  // A hung kernel counts every unfinished op as failed.
  r.kernelOk = kernelOk && drained;
  if (!r.kernelOk) failed = r.ops - completed;
  r.completed = completed;
  r.failed = failed;
  r.virtualNs = host->engine().now();
  r.p50Ns = lat.quantile(0.50);
  r.p99Ns = lat.quantile(0.99);
  r.goodputOpsPerSec = static_cast<double>(completed) /
                       (static_cast<double>(r.virtualNs) / 1e9);
  r.health = host->ioHealth();
  host->stopAgile();
  return r;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace agile;
  const bool quick = bench::quickMode(argc, argv);
  bench::printHeader("fault_storm",
                     "goodput retention under injected NVMe faults");

  const double rates[] = {0.0, 0.001, 0.01, 0.05};
  std::vector<StormResult> results;
  for (const double rate : rates) {
    for (const bool retryOn : {false, true}) {
      const StormResult r = runStorm({rate, retryOn}, quick);
      std::printf(
          "%-22s ops %5" PRIu64 "  done %5" PRIu64 "  aborted %4" PRIu64
          "  p99 %7.2f ms  goodput %9.0f op/s  retries %4" PRIu64
          "  rescued %4" PRIu64 "  kernel_ok %s\n",
          r.name.c_str(), r.ops, r.completed, r.failed,
          static_cast<double>(r.p99Ns) / 1e6, r.goodputOpsPerSec,
          r.health.retries, r.health.rescued,
          r.kernelOk ? "true" : "false");
      results.push_back(r);
    }
  }

  // Determinism: the gated point re-run must reproduce byte-for-byte.
  const StormResult again = runStorm({0.01, true}, quick);
  const StormResult* gated = nullptr;
  const StormResult* calm = nullptr;
  for (const StormResult& r : results) {
    if (r.retryOn && r.faultRate == 0.01) gated = &r;
    if (r.retryOn && r.faultRate == 0.0) calm = &r;
  }
  const bool deterministic = gated != nullptr &&
                             again.virtualNs == gated->virtualNs &&
                             again.completed == gated->completed &&
                             again.health.retries == gated->health.retries;
  const double retention =
      (gated != nullptr && calm != nullptr && calm->goodputOpsPerSec > 0)
          ? gated->goodputOpsPerSec / calm->goodputOpsPerSec
          : 0.0;
  std::printf("1%%-fault determinism: %s; goodput retention %.3f\n",
              deterministic ? "match" : "MISMATCH", retention);

  std::FILE* f = std::fopen("BENCH_fault.json", "w");
  AGILE_CHECK_MSG(f != nullptr, "cannot open BENCH_fault.json");
  std::fprintf(f, "{\n  \"bench\": \"fault_storm\",\n  \"quick\": %s,\n",
               quick ? "true" : "false");
  std::fprintf(f, "  \"workloads\": [\n");
  for (std::size_t i = 0; i < results.size(); ++i) {
    const StormResult& r = results[i];
    std::fprintf(
        f,
        "    {\"name\": \"%s\", \"fault_rate\": %.4f, \"retry\": %s, "
        "\"ops\": %" PRIu64 ", \"completed\": %" PRIu64
        ", \"completion_rate\": %.4f, \"abort_rate\": %.4f, "
        "\"p50_ns\": %" PRIu64 ", \"p99_ns\": %" PRIu64
        ", \"retries\": %" PRIu64 ", \"rescued\": %" PRIu64
        ", \"quarantines\": %" PRIu64
        ", \"new_events_per_sec\": %.0f, \"kernel_ok\": %s}%s\n",
        r.name.c_str(), r.faultRate, r.retryOn ? "true" : "false", r.ops,
        r.completed, static_cast<double>(r.completed) / r.ops,
        static_cast<double>(r.failed) / r.ops, r.p50Ns, r.p99Ns,
        r.health.retries, r.health.rescued, r.health.quarantines,
        r.goodputOpsPerSec, r.kernelOk ? "true" : "false",
        i + 1 < results.size() ? "," : "");
  }
  std::fprintf(f, "  ],\n");
  std::fprintf(f, "  \"determinism_match\": %s,\n",
               deterministic ? "true" : "false");
  std::fprintf(f, "  \"goodput_retention\": %.3f\n}\n", retention);
  std::fclose(f);
  std::printf("wrote BENCH_fault.json\n");
  return 0;
}
