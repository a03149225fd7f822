// Ablation: the two-level request-coalescing design of
// §3.3.2, on the async DLRM pipeline. Its gather-ahead probes every lookup
// once through AgileCtrl::arrayReadOrFill. With warp-level (first-level)
// coalescing, one leader per distinct page probes and shuffles the line to
// its peers; without it, every duplicate lookup goes through the software
// cache's critical section and the cache absorbs it (second level). The
// probe convoy is charged per lane however many lanes of the warp probe
// (KernelCtx::chargeSerialized), so coalescing mostly trades the peers'
// probes for a match-any and a shuffle per lookup: the quick run favours
// warp+cache (0.650 vs 0.683 ms/epoch), the full run is a near tie (0.629
// vs 0.621).
#include <cstdio>

#include "apps/dlrm/dlrm.h"
#include "bench/bench_util.h"

using namespace agile;

namespace {

void runCase(bool coalesce, bool quick, TablePrinter& table) {
  bench::TestbedConfig tb;
  tb.queuePairsPerSsd = 16;
  tb.queueDepth = 128;
  auto host = bench::makeHost(tb);
  auto cfg = apps::dlrmPaperConfig(1, /*vocabScale=*/32);
  apps::DlrmTrace trace(cfg, 33);
  core::DefaultCtrl ctrl(
      *host,
      core::CtrlConfig{.cacheLines = 8192, .warpCoalescing = coalesce});
  host->startAgile();
  const auto res =
      apps::runDlrm(*host, cfg, trace, apps::DlrmMode::kAgileAsync, &ctrl,
                    nullptr, /*batch=*/1024, /*epochs=*/quick ? 2u : 4u);
  host->stopAgile();
  table.addRow({coalesce ? "warp+cache (paper)" : "cache only",
                TablePrinter::fmt(bench::toMs(res.perEpochNs), 3),
                std::to_string(ctrl.stats().prefetchCoalesced),
                std::to_string(ctrl.cache().stats().busyHits),
                std::to_string(res.ssdReads)});
}

}  // namespace

int main(int argc, char** argv) {
  const bool quick = bench::quickMode(argc, argv);
  bench::printHeader("Ablation", "two-level request coalescing (§3.3.2)");
  TablePrinter table({"coalescing", "ms/epoch", "warp-coalesced",
                      "cache-coalesced", "SSD reads"});
  runCase(true, quick, table);
  runCase(false, quick, table);
  table.print();
  return 0;
}
