// Figure 11: execution-time breakdown (Kernel / Cache-API / I/O-API) of BFS
// and SpMV on Kronecker ('-K') and uniform ('-U') graphs, BaM vs AGILE,
// using the three-step methodology of §4.5:
//   (1) Kernel time   — graph resident in HBM, native accesses;
//   (2) Cache API     — graph preloaded into the software cache (no NVMe
//                       traffic at measurement time) minus (1);
//   (3) I/O API       — cold cache, all data fetched from SSD, minus (2).
// Paper: AGILE cuts cache-API overhead 1.93-3.17x and I/O overhead
// 1.06-2.85x, with the largest wins on the skewed Kronecker graphs.
#include <cstdio>
#include <vector>

#include "apps/accessor.h"
#include "apps/graph/bfs.h"
#include "apps/graph/generators.h"
#include "apps/graph/spmv.h"
#include "bench/bench_util.h"

using namespace agile;

namespace {

struct Breakdown {
  double kernelMs;
  double cacheApiMs;
  double ioApiMs;
};

enum class App { kBfs, kSpmv };
enum class Lib { kBam, kAgile };

// Runs one (app, graph) workload with the given accessor; returns virtual ms.
template <class ColAcc, class ValAcc>
double timedRun(core::AgileHost& host, App app, const apps::CsrGraph& g,
                ColAcc& colAcc, ValAcc& valAcc) {
  const SimTime start = host.engine().now();
  if (app == App::kBfs) {
    std::vector<std::uint32_t> dist;
    AGILE_CHECK(runBfs(host, g, colAcc, /*source=*/0, &dist));
  } else {
    std::vector<float> x(g.numVertices, 1.0f), y;
    AGILE_CHECK(runSpmv(host, g, colAcc, valAcc, x, &y));
  }
  return bench::toMs(host.engine().now() - start);
}

// Value accessor over the weights region (shifted element index).
template <class Inner>
struct ShiftedFloatAcc {
  Inner* inner;
  std::uint64_t baseElems;
  gpu::GpuTask<float> read(gpu::KernelCtx& ctx, std::uint64_t idx,
                           core::AgileLockChain& chain) {
    co_return co_await inner->template readAs<float>(ctx, baseElems + idx,
                                                     chain);
  }
};

struct AgileFloatReader {
  core::DefaultCtrl* ctrl;
  template <class T>
  gpu::GpuTask<T> readAs(gpu::KernelCtx& ctx, std::uint64_t idx,
                         core::AgileLockChain& chain) {
    co_return co_await ctrl->arrayRead<T>(ctx, idx, chain);
  }
};
struct BamFloatReader {
  bam::DefaultBamCtrl* bam;
  template <class T>
  gpu::GpuTask<T> readAs(gpu::KernelCtx& ctx, std::uint64_t idx,
                         core::AgileLockChain& chain) {
    co_return co_await bam->readElem<T>(ctx, idx, chain);
  }
};

Breakdown measure(App app, Lib lib, const apps::CsrGraph& g) {
  // --- step 1: native kernel time (fresh host, data in HBM) ---
  double kernelMs;
  {
    bench::TestbedConfig tb;
    auto host = bench::makeHost(tb);
    apps::NativeAccessor<std::uint32_t> colAcc{
        std::span<const std::uint32_t>(g.col)};
    apps::NativeAccessor<float> valAcc{std::span<const float>(g.weights)};
    kernelMs = timedRun(*host, app, g, colAcc, valAcc);
  }

  // --- steps 2+3: library runs, preloaded then cold ---
  bench::TestbedConfig tb;
  tb.queueDepth = 256;
  auto host = bench::makeHost(tb);
  const std::uint64_t colPages = apps::writeArrayToSsd(host->ssd(0), 0, g.col);
  const std::uint64_t valBase = colPages * nvme::kLbaBytes / sizeof(float);
  apps::writeArrayToSsd(host->ssd(0), colPages, g.weights);
  const std::uint64_t totalPages =
      colPages + ceilDiv<std::uint64_t>(g.weights.size() * 4, nvme::kLbaBytes);
  const auto cacheLines = static_cast<std::uint32_t>(totalPages + 64);

  double coldMs, warmMs;
  if (lib == Lib::kAgile) {
    core::DefaultCtrl ctrl(*host, core::CtrlConfig{.cacheLines = cacheLines});
    host->startAgile();
    apps::AgileAccessor<std::uint32_t> colAcc{ctrl};
    AgileFloatReader rd{&ctrl};
    ShiftedFloatAcc<AgileFloatReader> valAcc{&rd, valBase};
    coldMs = timedRun(*host, app, g, colAcc, valAcc);   // misses + fetches
    warmMs = timedRun(*host, app, g, colAcc, valAcc);   // all cache hits
    host->stopAgile();
  } else {
    bam::DefaultBamCtrl bamCtrl(*host, bam::BamConfig{.cacheLines = cacheLines});
    apps::BamAccessor<std::uint32_t> colAcc{bamCtrl};
    BamFloatReader rd{&bamCtrl};
    ShiftedFloatAcc<BamFloatReader> valAcc{&rd, valBase};
    coldMs = timedRun(*host, app, g, colAcc, valAcc);
    warmMs = timedRun(*host, app, g, colAcc, valAcc);
  }
  Breakdown b;
  b.kernelMs = kernelMs;
  b.cacheApiMs = std::max(0.0, warmMs - kernelMs);
  b.ioApiMs = std::max(0.0, coldMs - warmMs);
  return b;
}

}  // namespace

int main(int argc, char** argv) {
  const bool quick = bench::quickMode(argc, argv);
  bench::printHeader("Figure 11",
                     "BFS/SpMV execution-time breakdown, BaM vs AGILE "
                     "(3-step methodology of §4.5)");

  const std::uint32_t scale = quick ? 12 : 13;
  const std::uint32_t ef = 16;
  auto kGraph = apps::kroneckerGraph(scale, ef, 5, /*makeWeights=*/true);
  auto uGraph = apps::uniformRandomGraph(1u << scale, ef, 5, true);
  std::printf("K-graph: %u vertices, %llu edges (skew %.2f); U-graph: %u "
              "vertices, %llu edges (skew %.2f)\n",
              kGraph.numVertices, (unsigned long long)kGraph.numEdges,
              apps::degreeSkew(kGraph), uGraph.numVertices,
              (unsigned long long)uGraph.numEdges, apps::degreeSkew(uGraph));

  TablePrinter table({"workload", "lib", "kernel(ms)", "cacheAPI(ms)",
                      "ioAPI(ms)", "total/kernel"});
  struct Case {
    const char* name;
    App app;
    const apps::CsrGraph* g;
  };
  const Case cases[] = {{"BFS-K", App::kBfs, &kGraph},
                        {"BFS-U", App::kBfs, &uGraph},
                        {"SpMV-K", App::kSpmv, &kGraph},
                        {"SpMV-U", App::kSpmv, &uGraph}};
  for (const auto& c : cases) {
    Breakdown bam = measure(c.app, Lib::kBam, *c.g);
    Breakdown agile = measure(c.app, Lib::kAgile, *c.g);
    for (auto [lib, b] : {std::pair{"BaM", bam}, std::pair{"AGILE", agile}}) {
      table.addRow({c.name, lib, TablePrinter::fmt(b.kernelMs, 3),
                    TablePrinter::fmt(b.cacheApiMs, 3),
                    TablePrinter::fmt(b.ioApiMs, 3),
                    TablePrinter::fmt(
                        (b.kernelMs + b.cacheApiMs + b.ioApiMs) /
                        std::max(1e-9, b.kernelMs))});
    }
    const double cacheX = bam.cacheApiMs / std::max(1e-9, agile.cacheApiMs);
    if (bam.ioApiMs > 0.0 && agile.ioApiMs > 0.0) {
      std::printf("%s: AGILE cache-API overhead %.2fx lower, I/O-API %.2fx "
                  "lower than BaM\n",
                  c.name, cacheX, bam.ioApiMs / agile.ioApiMs);
    } else {
      // The I/O-API time is clamped at zero: no ratio exists on that side.
      std::printf("%s: AGILE cache-API overhead %.2fx lower than BaM, "
                  "I/O-API n/a\n",
                  c.name, cacheX);
    }
  }
  table.print();
  std::printf("paper: cache-API reduction 1.93-3.17x, I/O reduction "
              "1.06-2.85x\n");
  return 0;
}
