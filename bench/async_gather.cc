// Depth-K asynchronous gather vs the blocking synchronous accessor, at
// equal cache size (the tentpole claim of the token/async API redesign).
//
// Workload: a small thread population (16 lanes — the regime where SSD
// latency cannot be hidden by warp parallelism alone, mirroring Fig. 4's
// structure) gathers pseudo-random elements from an SSD-resident uint64
// array through AgileAccessor. depth = 0 is the plain synchronous loop (one
// arrayRead per element, blocking on every miss); depth = K overlaps the
// fill of element i+K with the read of element i via the divergence-safe
// prefetch pipeline, raising the in-flight fill population from #threads to
// #threads x (K+1). Identical index streams, identical cache lines — only
// the issue discipline changes. The cache is sized so the deepest pipeline
// fits (threads x (K+1) < lines); past that point prefetch-ahead evicts its
// own working set and the pipeline collapses into thrash.
//
// Results go to stdout and BENCH_gather.json; the per-depth engine/cache
// stats are merged with sim::SweepStats.
#include <cstdio>
#include <vector>

#include "apps/accessor.h"
#include "bench/bench_util.h"
#include "common/rng.h"
#include "core/ctrl.h"
#include "nvme/flash_store.h"
#include "sim/sweep.h"

using namespace agile;

namespace {

constexpr std::uint32_t kThreads = 16;
constexpr std::uint32_t kElemsPerThread = 192;
constexpr std::uint32_t kCacheLines = 1024;

struct RunResult {
  SimTime ns = 0;
  std::uint64_t ssdReads = 0;
  std::uint64_t cacheHits = 0;
  std::uint64_t cacheMisses = 0;
  std::uint64_t victimStalls = 0;
  std::uint64_t engineEvents = 0;
};

// One gather run at the given pipeline depth (0 = synchronous baseline).
// `cacheLines` sizes the software cache (the main sweep uses kCacheLines,
// the thrash leg an undersized cache); `adaptive` toggles the per-shard
// pressure throttle on the accessor pipeline.
RunResult runGather(std::uint32_t depth,
                    std::uint32_t cacheLines = kCacheLines,
                    bool adaptive = true) {
  bench::TestbedConfig tb;
  tb.queuePairsPerSsd = 16;
  tb.queueDepth = 128;
  // Full 4 KiB payloads: the bench validates gathered words against the
  // flash pattern at arbitrary in-page offsets.
  auto host = bench::makeHost(tb);
  core::DefaultCtrl ctrl(*host, core::CtrlConfig{.cacheLines = cacheLines});
  host->startAgile();
  apps::AgileAccessor<std::uint64_t> acc(ctrl);

  // Pseudo-random but deterministic per-thread index streams over a range
  // ~8x the cache, so the gather misses most of the time.
  const std::uint64_t elemRange =
      static_cast<std::uint64_t>(kCacheLines) * 8 * 512;
  std::vector<std::uint64_t> idxs(
      static_cast<std::size_t>(kThreads) * kElemsPerThread);
  for (std::size_t i = 0; i < idxs.size(); ++i) {
    std::uint64_t h = i * 0x9e3779b97f4a7c15ull + 0xabcd;
    h ^= h >> 29;
    h *= 0xbf58476d1ce4e5b9ull;
    h ^= h >> 32;
    idxs[i] = h % elemRange;
  }
  std::vector<std::uint64_t> out(idxs.size());

  const std::uint32_t blockDim = kThreads;
  const std::uint32_t gridDim = 1;
  const SimTime start = host->engine().now();
  const bool ok = host->runKernel(
      {.gridDim = gridDim, .blockDim = blockDim, .name = "gather"},
      [&](gpu::KernelCtx& ctx) -> gpu::GpuTask<void> {
        core::AgileLockChain chain;
        const std::uint32_t tid = ctx.globalThreadIdx();
        const std::size_t base =
            static_cast<std::size_t>(tid) * kElemsPerThread;
        co_await acc.gather(
            ctx, std::span<const std::uint64_t>(&idxs[base], kElemsPerThread),
            std::span<std::uint64_t>(&out[base], kElemsPerThread), chain,
            depth, adaptive);
      });
  AGILE_CHECK(ok);
  AGILE_CHECK(host->drainIo());

  RunResult r;
  r.ns = host->engine().now() - start;
  r.ssdReads = host->ssd(0).readsCompleted();
  r.cacheHits = ctrl.cache().stats().hits;
  r.cacheMisses = ctrl.cache().stats().misses;
  r.victimStalls = ctrl.cache().stats().victimStalls;
  r.engineEvents = host->engine().executedEvents();
  host->stopAgile();

  // Validate against the flash pattern (each element is a page word).
  for (std::size_t i = 0; i < idxs.size(); ++i) {
    const auto at = core::elemAddr<std::uint64_t>(idxs[i]);
    AGILE_CHECK_MSG(out[i] == nvme::FlashStore::patternWord(
                                  at.lba, at.byteOff / 8),
                    "gather returned wrong data");
  }
  return r;
}

}  // namespace

int main(int argc, char** argv) {
  const bool quick = bench::quickMode(argc, argv);
  bench::printHeader("async gather",
                     "depth-K pipelined gather vs synchronous accessor "
                     "(16 threads x 192 elements, equal cache)");

  std::vector<std::uint32_t> depths = {0, 2, 4, 8, 16, 32};
  if (quick) depths = {0, 4, 16};

  std::vector<RunResult> results(depths.size());
  sim::SweepStats stats(depths.size());
  for (std::size_t i = 0; i < depths.size(); ++i) {
    results[i] = runGather(depths[i]);
    stats.record(i, "ssd.reads", results[i].ssdReads);
    stats.record(i, "cache.hits", results[i].cacheHits);
    stats.record(i, "cache.misses", results[i].cacheMisses);
    stats.record(i, "engine.events", results[i].engineEvents);
  }

  const double syncMs = bench::toMs(results[0].ns);
  TablePrinter table({"depth", "time(ms)", "speedup vs sync", "SSD reads",
                      "cache hit%"});
  double best = 0;
  std::uint32_t bestDepth = 0;
  for (std::size_t i = 0; i < depths.size(); ++i) {
    const double ms = bench::toMs(results[i].ns);
    const double speedup = syncMs / ms;
    if (speedup > best) {
      best = speedup;
      bestDepth = depths[i];
    }
    const double hitPct =
        100.0 * static_cast<double>(results[i].cacheHits) /
        static_cast<double>(results[i].cacheHits + results[i].cacheMisses);
    table.addRow({std::to_string(depths[i]), TablePrinter::fmt(ms, 3),
                  TablePrinter::fmt(speedup),
                  std::to_string(results[i].ssdReads),
                  TablePrinter::fmt(hitPct, 1)});
  }
  table.print();
  std::printf("best: x%.2f at depth %u\n", best, bestDepth);

  // Thrash leg: an undersized cache where threads x (depth+1) >> lines —
  // the documented cliff regime. The adaptive per-shard pressure throttle
  // must degrade the pipeline toward sync instead of letting prefetch-ahead
  // evict its own window.
  const std::uint32_t thrashDepth = 16;
  const std::uint32_t thrashLines = 48;  // 16 threads x 17 in flight vs 48
  const RunResult thrashFixed =
      runGather(thrashDepth, thrashLines, /*adaptive=*/false);
  const RunResult thrashAdaptive =
      runGather(thrashDepth, thrashLines, /*adaptive=*/true);
  const double thrashGain =
      bench::toMs(thrashFixed.ns) / bench::toMs(thrashAdaptive.ns);
  std::printf("thrash leg (%u lines, depth %u): fixed %.3f ms, adaptive "
              "%.3f ms (x%.2f), victim stalls %llu -> %llu\n",
              thrashLines, thrashDepth, bench::toMs(thrashFixed.ns),
              bench::toMs(thrashAdaptive.ns), thrashGain,
              static_cast<unsigned long long>(thrashFixed.victimStalls),
              static_cast<unsigned long long>(thrashAdaptive.victimStalls));

  std::fputs(stats.render("async_gather").c_str(), stdout);

  std::FILE* f = std::fopen("BENCH_gather.json", "w");
  AGILE_CHECK_MSG(f != nullptr, "cannot open BENCH_gather.json");
  std::fprintf(f, "{\n  \"bench\": \"async_gather\",\n  \"quick\": %s,\n",
               quick ? "true" : "false");
  std::fprintf(f, "  \"points\": [\n");
  for (std::size_t i = 0; i < depths.size(); ++i) {
    std::fprintf(
        f,
        "    {\"depth\": %u, \"ms\": %.3f, \"speedup_vs_sync\": %.3f, "
        "\"ssd_reads\": %llu}%s\n",
        depths[i], bench::toMs(results[i].ns),
        syncMs / bench::toMs(results[i].ns),
        static_cast<unsigned long long>(results[i].ssdReads),
        i + 1 < depths.size() ? "," : "");
  }
  std::fprintf(f, "  ],\n  \"best_speedup\": %.3f,\n", best);
  std::fprintf(f, "  \"thrash_adaptive_speedup\": %.3f\n}\n", thrashGain);
  std::fclose(f);
  std::printf("wrote BENCH_gather.json\n");
  return 0;
}
