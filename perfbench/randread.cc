// randread: closed-loop random 4 KiB reads on one SSD. A fixed number of
// simulated GPU lanes each issue asyncRead + waitBuf back to back, well below
// the device's media knee, so the submission path, SQ slot and doorbell, the
// nvme model, the service kernel's CQ drain and the lane wake sit on every
// request's critical path. The cache is probed on every read but never hits
// (4 M LBAs against 64 lines).
//
// Op: one 4 KiB read. Latency: from the asyncRead call to waitBuf returning,
// split into an asyncRead stage (slot, doorbell) and a waitBuf stage (device,
// CQ drain, wake).
#include <cstdio>
#include <memory>

#include "nvme/flash_store.h"
#include "perfbench/bench.h"

namespace perfbench {
namespace {

using namespace agile;
using Ctrl = core::AgileCtrl<core::ClockPolicy, core::NeverSharePolicy>;

constexpr std::uint32_t kLanes = 32;  // one warp; ~55 outstanding saturate
constexpr std::uint64_t kCapacityLbas = 1ull << 22;
constexpr std::uint32_t kCacheLines = 64;
// Fixed work per --seconds, sized so one run takes about that long.
constexpr std::uint64_t kReadsPerSecond = 30000;
// Payload words checked against the flash pattern: first and last.
constexpr std::uint32_t kCheckWords[] = {0, nvme::kLbaBytes / 8 - 1};

std::uint64_t lbaOf(std::uint64_t seed, std::uint64_t req) {
  std::uint64_t x = seed * 0x9e3779b97f4a7c15ull + req + 1;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
  return (x ^ (x >> 31)) % kCapacityLbas;
}

struct Stack {
  std::unique_ptr<core::AgileHost> host;
  std::unique_ptr<Ctrl> ctrl;
  std::unique_ptr<core::AgileBuf[]> bufs;  // one landing page per lane
};

std::unique_ptr<Stack> build(Tracer* t) {
  HostSpan setup(t, "setup", nullptr);
  auto s = std::make_unique<Stack>();
  core::HostConfig hc;
  hc.queuePairsPerSsd = 8;
  hc.queueDepth = 256;
  hc.kernelTimeout = 3600_s;
  nvme::SsdConfig ssd;
  ssd.capacityLbas = kCapacityLbas;
  s->host = buildHost(t, hc, ssd);
  const sim::Engine* e = &s->host->engine();
  setup.bind(e);
  {
    HostSpan span(t, "core.ctrl.ctor", e);
    s->ctrl = std::make_unique<Ctrl>(*s->host, ctrlConfig(kCacheLines));
  }
  {
    HostSpan span(t, "core.host.startAgile", e);
    s->host->startAgile();
  }
  std::byte* mem =
      s->host->gpu().hbm().allocBytes(std::uint64_t{kLanes} * nvme::kLbaBytes);
  s->bufs = std::make_unique<core::AgileBuf[]>(kLanes);
  for (std::uint32_t i = 0; i < kLanes; ++i) {
    s->bufs[i].bind(mem + std::uint64_t{i} * nvme::kLbaBytes);
  }
  return s;
}

// State the kernel lanes share; the kernel captures one pointer to it.
struct Lanes {
  Ctrl* ctrl = nullptr;
  core::AgileBuf* bufs = nullptr;
  std::uint64_t seed = 0;
  std::uint64_t total = 0;
  std::vector<double> latNs;          // per request, both modes
  std::uint64_t badPayload = 0;
  std::uint64_t failedWaits = 0;
  Tracer* tracer = nullptr;
  std::int32_t kernelSpan = -1;
  std::vector<double> asyncReadNs;    // traced run only
  std::vector<double> waitBufNs;
};

gpu::GpuTask<void> laneBody(gpu::KernelCtx& ctx, Lanes& l) {
  core::AgileLockChain chain;
  const std::uint32_t lane = ctx.globalThreadIdx();
  core::AgileBufPtr buf(l.bufs[lane]);
  const auto* words = reinterpret_cast<const std::uint64_t*>(
      l.bufs[lane].data());
  const bool traced = l.tracer != nullptr;
  for (std::uint64_t r = lane; r < l.total; r += kLanes) {
    const std::uint64_t lba = lbaOf(l.seed, r);
    const SimTime t0 = ctx.now();
    const double h0 = traced ? cpuSeconds() : 0.0;
    co_await l.ctrl->asyncRead(ctx, /*dev=*/0, lba, buf, chain);
    // A lane's clock advances only when it suspends, so without this yield
    // the submit cost charged inside asyncRead would land in the waitBuf
    // stage. Both modes yield, so the traced run simulates the same work.
    co_await ctx.yield();
    const SimTime t1 = ctx.now();
    const double h1 = traced ? cpuSeconds() : 0.0;
    const bool ok = co_await l.ctrl->waitBuf(ctx, buf);
    const SimTime t2 = ctx.now();
    const double h2 = traced ? cpuSeconds() : 0.0;
    l.latNs[r] = static_cast<double>(t2 - t0);
    if (!ok) ++l.failedWaits;
    for (const std::uint32_t w : kCheckWords) {
      if (words[w] != nvme::FlashStore::patternWord(lba, w)) {
        ++l.badPayload;
        break;
      }
    }
    if (traced) {
      l.asyncReadNs[r] = static_cast<double>(t1 - t0);
      l.waitBufNs[r] = static_cast<double>(t2 - t1);
      const auto req = static_cast<std::int64_t>(r);
      const std::int32_t parent = l.tracer->request(
          "randread.request", l.kernelSpan, req, lane + 1, t0, t2, h0, h2);
      l.tracer->request("core.ctrl.asyncRead", parent, req, lane + 1, t0, t1,
                        h0, h1);
      l.tracer->request("core.ctrl.waitBuf", parent, req, lane + 1, t1, t2,
                        h1, h2);
    }
  }
}

}  // namespace

RunResult runRandread(const RunConfig& cfg) {
  RunResult res;
  Tracer* t = cfg.tracer;
  std::unique_ptr<Stack> s =
      timedSetups(cfg.setupReps, &res.setupS, [t] { return build(t); });
  core::AgileHost& host = *s->host;

  Lanes l;
  l.ctrl = s->ctrl.get();
  l.bufs = s->bufs.get();
  l.seed = cfg.seed;
  l.total = kReadsPerSecond * cfg.seconds;
  l.latNs.assign(l.total, 0.0);
  l.tracer = t;
  if (t != nullptr) {
    l.asyncReadNs.assign(l.total, 0.0);
    l.waitBufNs.assign(l.total, 0.0);
  }
  res.attempted = l.total;

  bool ran = false;
  const Window w = timedRun(host, *s->ctrl, t, [] {}, [&] {
    HostSpan span(t, "core.host.runKernel", &host.engine());
    l.kernelSpan = span.id();
    ran = host.runKernel(
        {.gridDim = 1, .blockDim = kLanes, .name = "randread"},
        [lp = &l](gpu::KernelCtx& ctx) { return laneBody(ctx, *lp); });
  });
  res.hostS = w.hostS;

  if (!ran || !w.drained) res.fail(l.total, "randread kernel hung");
  res.fail(l.failedWaits, "waitBuf reported a failed transaction");
  res.fail(l.badPayload, "payload word differs from FlashStore::patternWord");
  res.fail(w.busyLinesAfterDrain, "cache lines left BUSY after drainIo");
  res.fail(s->ctrl->tokens().liveOps(), "I/O tokens leaked");
  res.fail(w.end.aborted - w.begin.aborted, "I/O aborted by the host");

  Report& r = res.report;
  const double virtS = static_cast<double>(w.end.now - w.begin.now) / 1e9;
  const double opsPerS = static_cast<double>(l.total) / virtS;
  // The workload must stay below the media knee (see the file comment).
  const double mediaLimit = host.ssd(0).config().readIops;
  std::printf("media_limit_share %.4f of %.0f reads/s\n",
              opsPerS / mediaLimit, mediaLimit);
  r.endToEnd("virt_ops_per_s", opsPerS, "1/s", true);
  addLatencyMetrics(r, "virt_lat", l.latNs);
  addLatencyMetrics(r, "virt_ttft", {});
  addStackMetrics(r, host, w, l.total);
  addAppMetrics(r, nullptr, nullptr);

  if (t != nullptr) {
    std::uint64_t mismatches = 0;
    for (std::uint64_t i = 0; i < l.total; ++i) {
      if (l.asyncReadNs[i] + l.waitBufNs[i] != l.latNs[i]) ++mismatches;
    }
    res.fail(mismatches, "traced stages do not sum to the request latency");
    Stages stages;
    stages.sumMismatches = mismatches;
    stages.asyncRead = std::move(l.asyncReadNs);
    stages.waitBuf = std::move(l.waitBufNs);
    addStageMetrics(r, std::move(stages));
  }
  return res;
}

}  // namespace perfbench
