// Example: out-of-core BFS over a Kronecker graph whose adjacency lists live
// on a simulated SSD (the §4.5 graph workload). Demonstrates the accessor
// abstraction (same kernel over native HBM vs AGILE) and validates the GPU
// result against the CPU reference.
#include <cstdio>
#include <vector>

#include "apps/accessor.h"
#include "apps/graph/bfs.h"
#include "apps/graph/generators.h"

using namespace agile;

int main() {
  // A skewed RMAT graph, GAP-style parameters.
  const auto g = apps::kroneckerGraph(/*scale=*/12, /*edgeFactor=*/8,
                                      /*seed=*/42);
  std::printf("Kronecker graph: %u vertices, %llu edges, top-1%% skew %.2f\n",
              g.numVertices, (unsigned long long)g.numEdges,
              apps::degreeSkew(g));

  core::HostConfig hostCfg;
  hostCfg.queuePairsPerSsd = 8;
  hostCfg.queueDepth = 128;
  core::AgileHost host(hostCfg);
  nvme::SsdConfig ssd;
  ssd.capacityLbas = 1u << 16;
  host.addNvmeDev(ssd);
  host.initNvme();

  // Ship the adjacency (column) array to the SSD; row offsets stay in HBM.
  const auto pages = apps::writeArrayToSsd(host.ssd(0), 0, g.col);
  std::printf("adjacency array: %llu SSD pages\n", (unsigned long long)pages);

  core::DefaultCtrl ctrl(host,
                         core::CtrlConfig{.cacheLines = 1024});
  host.startAgile();

  apps::AgileAccessor<std::uint32_t> colAcc{ctrl};
  std::vector<std::uint32_t> dist;
  const SimTime t0 = host.engine().now();
  const bool ok = apps::runBfs(host, g, colAcc, /*source=*/0, &dist);
  const SimTime elapsed = host.engine().now() - t0;
  AGILE_CHECK(ok);
  host.stopAgile();

  const auto ref = apps::bfsReference(g, 0);
  std::uint64_t reached = 0, maxDepth = 0;
  bool match = dist.size() == ref.size();
  for (std::size_t v = 0; v < dist.size(); ++v) {
    match &= dist[v] == ref[v];
    if (dist[v] != apps::kBfsUnreached) {
      ++reached;
      if (dist[v] > maxDepth) maxDepth = dist[v];
    }
  }
  std::printf("BFS from vertex 0: reached %llu vertices, depth %llu, "
              "%.3f ms virtual GPU time\n",
              (unsigned long long)reached, (unsigned long long)maxDepth,
              static_cast<double>(elapsed) / 1e6);
  std::printf("cache: %llu hits, %llu misses; SSD reads: %llu\n",
              (unsigned long long)ctrl.cache().stats().hits,
              (unsigned long long)ctrl.cache().stats().misses,
              (unsigned long long)host.ssd(0).readsCompleted());
  std::printf("%s\n", match ? "MATCHES CPU REFERENCE" : "MISMATCH");
  return match ? 0 : 1;
}
