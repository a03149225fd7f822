// dlrm_async: apps::runDlrm in kAgileAsync mode, Config-1 at batch 2048 on
// the 32768-line cache, with a Zipf trace seeded from --seed. Untimed
// warm-up epochs (their own trace, seeded apart from the timed one) fill the
// cache, so the timed gathers mostly hit while the prefetch of batch e+1
// overlaps the MLP of batch e. Cache probing, warp coalescing and
// compute/I/O overlap dominate; SSD reads per lookup are few.
//
// Op: one embedding lookup (sample x table). runDlrm exposes only the mean
// epoch time, so this workload reports no latency percentiles.
#include <memory>

#include "perfbench/bench.h"

namespace perfbench {
namespace {

using namespace agile;

constexpr int kConfigVariant = 1;
constexpr std::uint32_t kBatch = 2048;
constexpr std::uint32_t kCacheLines = 32768;
constexpr std::uint32_t kWarmupEpochs = 4;
// Fixed work per --seconds, sized so one run takes about that long.
constexpr std::uint32_t kEpochsPerSecond = 9;
constexpr std::uint64_t kWarmupSeedSalt = 0x5741524d55505345ull;

struct Stack {
  std::unique_ptr<core::AgileHost> host;
  std::unique_ptr<core::DefaultCtrl> ctrl;
  apps::DlrmConfig model;
  std::unique_ptr<apps::DlrmTrace> warmup;
  std::unique_ptr<apps::DlrmTrace> timed;
};

std::unique_ptr<Stack> build(Tracer* t, std::uint64_t seed) {
  HostSpan setup(t, "setup", nullptr);
  auto s = std::make_unique<Stack>();
  s->model = apps::dlrmPaperConfig(kConfigVariant);
  core::HostConfig hc;
  hc.queuePairsPerSsd = 32;
  hc.queueDepth = 256;
  hc.stagingPages = 4096;
  hc.kernelTimeout = 3600_s;
  nvme::SsdConfig ssd;
  ssd.capacityLbas = 1ull << 22;
  AGILE_CHECK(s->model.embeddingPages() <= ssd.capacityLbas);
  s->host = buildHost(t, hc, ssd);
  const sim::Engine* e = &s->host->engine();
  setup.bind(e);
  {
    HostSpan span(t, "core.ctrl.ctor", e);
    s->ctrl =
        std::make_unique<core::DefaultCtrl>(*s->host, ctrlConfig(kCacheLines));
  }
  {
    HostSpan span(t, "core.host.startAgile", e);
    s->host->startAgile();
  }
  {
    HostSpan span(t, "apps.dlrm.trace", e);
    s->warmup =
        std::make_unique<apps::DlrmTrace>(s->model, seed ^ kWarmupSeedSalt);
    s->timed = std::make_unique<apps::DlrmTrace>(s->model, seed);
  }
  return s;
}

}  // namespace

RunResult runDlrmAsync(const RunConfig& cfg) {
  RunResult res;
  Tracer* t = cfg.tracer;
  std::unique_ptr<Stack> s = timedSetups(
      cfg.setupReps, &res.setupS, [&] { return build(t, cfg.seed); });
  core::AgileHost& host = *s->host;
  core::DefaultCtrl& ctrl = *s->ctrl;
  const std::uint32_t epochs = kEpochsPerSecond * cfg.seconds;
  const std::uint64_t lookups =
      std::uint64_t{kBatch} * s->model.numTables * epochs;
  res.attempted = lookups;

  const auto runDlrm = [&](apps::DlrmTrace& trace, std::uint32_t n) {
    HostSpan span(t, "apps.dlrm.runDlrm", &host.engine());
    return apps::runDlrm(host, s->model, trace, apps::DlrmMode::kAgileAsync,
                         &ctrl, nullptr, kBatch, n, /*warmupEpochs=*/0);
  };
  apps::DlrmRunResult warm, timed;
  const Window w = timedRun(
      host, ctrl, t, [&] { warm = runDlrm(*s->warmup, kWarmupEpochs); },
      [&] { timed = runDlrm(*s->timed, epochs); });
  res.hostS = w.hostS;

  if (!w.drained) res.fail(lookups, "drainIo did not settle");
  res.fail(warm.ioAborted + timed.ioAborted, "gather I/O aborted");
  res.fail(w.ctrl.ctrl.exhaustedRetries, "claim loops exhausted their retries");
  res.fail(w.busyLinesAfterDrain, "cache lines left BUSY after drainIo");

  Report& r = res.report;
  r.endToEnd("virt_ops_per_s",
             static_cast<double>(lookups) /
                 (static_cast<double>(timed.totalNs) / 1e9),
             "1/s", true);
  addLatencyMetrics(r, "virt_lat", {});
  addLatencyMetrics(r, "virt_ttft", {});
  addStackMetrics(r, host, w, lookups);
  addAppMetrics(r, &timed, nullptr);

  if (t != nullptr) addStageMetrics(r, {});
  return res;
}

}  // namespace perfbench
