// Ablation: software-cache replacement policies on the DLRM
// embedding trace. The paper motivates AGILE's pluggable-policy design
// (§3.4/§3.5) with the observation that no fixed policy fits all workloads;
// this ablation quantifies the spread across the built-ins on one skewed
// trace.
#include <cstdio>

#include "apps/dlrm/dlrm.h"
#include "bench/bench_util.h"

using namespace agile;

namespace {

template <class Policy>
void runPolicy(const char* name, bool quick, TablePrinter& table) {
  bench::TestbedConfig tb;
  tb.queuePairsPerSsd = 16;
  tb.queueDepth = 128;
  auto host = bench::makeHost(tb);
  auto cfg = apps::dlrmPaperConfig(1, /*vocabScale=*/32);
  apps::DlrmTrace trace(cfg, 21);
  // Smaller than the pages the trace touches, so the policies must choose
  // victims: a 4,096-line cache holds every one of them, never evicts, and
  // prints four identical rows.
  core::AgileCtrl<Policy, core::DefaultSharePolicy> ctrl(
      *host, core::CtrlConfig{.cacheLines = 2048});
  host->startAgile();
  const auto res =
      apps::runDlrm(*host, cfg, trace, apps::DlrmMode::kAgileSync, &ctrl,
                    nullptr, /*batch=*/1024, /*epochs=*/quick ? 2u : 4u);
  host->stopAgile();
  const auto& cs = ctrl.cache().stats();
  const double hitRate = static_cast<double>(cs.hits) /
                         static_cast<double>(cs.hits + cs.misses);
  table.addRow({name, TablePrinter::fmt(bench::toMs(res.perEpochNs), 3),
                TablePrinter::fmt(hitRate * 100, 1),
                std::to_string(res.ssdReads)});
}

}  // namespace

int main(int argc, char** argv) {
  const bool quick = bench::quickMode(argc, argv);
  bench::printHeader("Ablation", "cache replacement policies on DLRM gather");
  TablePrinter table({"policy", "ms/epoch", "hit rate %", "SSD reads"});
  runPolicy<core::ClockPolicy>("clock (paper)", quick, table);
  runPolicy<core::LruPolicy>("lru", quick, table);
  runPolicy<core::FifoPolicy>("fifo", quick, table);
  runPolicy<core::RandomPolicy>("random", quick, table);
  table.print();
  return 0;
}
