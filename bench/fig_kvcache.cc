// fig_kvcache: SSD-backed KV-cache serving throughput (src/apps/kvcache/).
//
// Sweeps context length x batch size x cache fraction (software-cache lines
// as a fraction of the sweep point's working-set pages) over the KvServer
// continuous-batching loop: prefill writes paged KV to flash, decode
// gathers it back at attention time with depth-K pipelining, and
// prefix-shared chunks ride the Share Table. Reports tokens per virtual
// second per point; every point validates its token streams against the
// in-DRAM reference model.
// The headline is tokens/sec at the gated point (ctx 64, batch 8, 50%
// cache), which runs twice to confirm determinism (same seed => same
// attention checksum and virtual end time).
//
// Output: BENCH_kvcache.json (see bench/README.md for the schema).
#include <cinttypes>
#include <cstdio>
#include <string>
#include <vector>

#include "apps/kvcache/kvcache.h"
#include "bench/bench_util.h"
#include "common/rng.h"

namespace {

using namespace agile;
using namespace agile::apps;

struct Point {
  std::uint32_t ctx = 64;      // prompt tokens per request
  std::uint32_t batch = 8;     // concurrently decoding sequences
  double cacheFrac = 0.5;      // cache lines / working-set pages
};

struct PointResult {
  std::string name;
  Point p;
  std::uint64_t requests = 0;
  std::uint64_t retired = 0;
  std::uint64_t tokens = 0;
  double tokensPerSec = 0.0;
  std::uint64_t shareHits = 0;
  std::uint64_t attnChecksum = 0;
  SimTime virtualNs = 0;
  bool refMatch = false;
  bool clean = false;  // no BUSY lines, no live tokens after drain
};

PointResult runPoint(const Point& p, bool quick) {
  kv::KvConfig cfg;
  cfg.numLayers = 4;
  cfg.maxBatch = p.batch;
  const std::uint32_t maxNew = quick ? 12 : 32;
  const std::uint32_t tpb = cfg.tokensPerBlock();
  const std::uint32_t numReqs = p.batch * 2;  // two admission waves
  const std::uint32_t chunksPerSeq = (p.ctx + maxNew) / tpb + 1;
  cfg.poolBlocks = numReqs * cfg.numLayers * chunksPerSeq;

  // Working set: every active sequence touches its per-layer chunk pages
  // each step; the cache fraction scales lines against that.
  const std::uint32_t wsPages = p.batch * cfg.numLayers * chunksPerSeq;
  const auto cacheLines = static_cast<std::uint32_t>(
      wsPages * p.cacheFrac < 16 ? 16 : wsPages * p.cacheFrac);

  core::HostConfig hostCfg;
  hostCfg.queuePairsPerSsd = 8;
  hostCfg.queueDepth = 128;
  core::AgileHost host(hostCfg);
  nvme::SsdConfig ssd;
  ssd.capacityLbas = cfg.poolBlocks;
  host.addNvmeDev(ssd);
  host.initNvme();
  core::DefaultCtrl ctrl(host, core::CtrlConfig{.cacheLines = cacheLines});
  host.startAgile();

  kv::KvServer server(host, ctrl, cfg);

  // Two prompt families, each sharing a half-context prefix, so half of
  // every request's prompt chunks come from the prefix index.
  Rng rng(0x5eed ^ p.ctx ^ (p.batch << 16));
  std::vector<std::vector<std::uint32_t>> prefixes(2);
  for (auto& pre : prefixes) {
    pre.resize(p.ctx / 2);
    for (auto& t : pre) {
      t = 1 + static_cast<std::uint32_t>(rng.nextBelow(cfg.vocab - 1));
    }
  }
  std::vector<kv::KvRequest> reqs(numReqs);
  for (std::uint32_t id = 0; id < numReqs; ++id) {
    kv::KvRequest& r = reqs[id];
    r.id = id;
    r.prompt = prefixes[id % 2];
    while (r.prompt.size() < p.ctx) {
      r.prompt.push_back(
          1 + static_cast<std::uint32_t>(rng.nextBelow(cfg.vocab - 1)));
    }
    r.maxNewTokens = maxNew;
    server.enqueue(r);
  }

  PointResult res;
  char name[64];
  std::snprintf(name, sizeof name, "ctx%u_b%u_c%02.0f", p.ctx, p.batch,
                p.cacheFrac * 100);
  res.name = name;
  res.p = p;
  res.requests = numReqs;
  AGILE_CHECK_MSG(server.run(), "kv serving loop hung");

  res.retired = server.stats().requestsRetired;
  res.tokens = server.stats().tokensGenerated;
  res.tokensPerSec = server.tokensPerSec();
  res.shareHits = ctrl.shareTable().stats().hits;
  res.attnChecksum = server.stats().attnChecksum;
  res.virtualNs = host.engine().now();
  res.refMatch = true;
  for (const kv::KvRequestStats& st : server.retired()) {
    if (st.generated != kv::referenceDecode(cfg, reqs[st.id]).generated) {
      res.refMatch = false;
    }
  }
  res.clean = ctrl.cache().busyLines() == 0 && ctrl.tokens().liveOps() == 0 &&
              ctrl.shareTable().size() == 0 &&
              server.pool().freeBlocks() == server.pool().capacity();
  host.stopAgile();
  return res;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace agile;
  const bool quick = bench::quickMode(argc, argv);
  bench::printHeader("fig_kvcache",
                     "SSD-backed KV-cache serving: tokens/sec over context "
                     "length x batch x cache fraction");

  std::vector<std::uint32_t> ctxs = {64};
  if (!quick) ctxs.push_back(256);
  const std::uint32_t batches[] = {2, 8};
  const double fracs[] = {0.125, 0.5, 1.0};

  std::vector<PointResult> results;
  for (const std::uint32_t ctx : ctxs) {
    for (const std::uint32_t batch : batches) {
      for (const double frac : fracs) {
        PointResult r = runPoint({ctx, batch, frac}, quick);
        std::printf("%-14s reqs %3" PRIu64 "/%3" PRIu64 "  tokens %5" PRIu64
                    "  %9.0f tok/s  share-hits %5" PRIu64
                    "  ref %s  clean %s\n",
                    r.name.c_str(), r.retired, r.requests, r.tokens,
                    r.tokensPerSec, r.shareHits, r.refMatch ? "ok" : "FAIL",
                    r.clean ? "ok" : "LEAK");
        results.push_back(std::move(r));
      }
    }
  }

  // Determinism: the gated point re-run must reproduce bit-for-bit.
  const Point gatedPoint{64, 8, 0.5};
  const PointResult again = runPoint(gatedPoint, quick);
  const PointResult* gated = nullptr;
  for (const PointResult& r : results) {
    if (r.p.ctx == gatedPoint.ctx && r.p.batch == gatedPoint.batch &&
        r.p.cacheFrac == gatedPoint.cacheFrac) {
      gated = &r;
    }
  }
  const bool deterministic = gated != nullptr &&
                             again.attnChecksum == gated->attnChecksum &&
                             again.virtualNs == gated->virtualNs &&
                             again.tokens == gated->tokens;
  std::printf("gated point determinism: %s; headline %.0f tokens/s\n",
              deterministic ? "match" : "MISMATCH",
              gated != nullptr ? gated->tokensPerSec : 0.0);

  std::FILE* f = std::fopen("BENCH_kvcache.json", "w");
  AGILE_CHECK_MSG(f != nullptr, "cannot open BENCH_kvcache.json");
  std::fprintf(f, "{\n  \"bench\": \"fig_kvcache\",\n  \"quick\": %s,\n",
               quick ? "true" : "false");
  std::fprintf(f, "  \"workloads\": [\n");
  for (std::size_t i = 0; i < results.size(); ++i) {
    const PointResult& r = results[i];
    std::fprintf(
        f,
        "    {\"name\": \"%s\", \"ctx\": %u, \"batch\": %u, "
        "\"cache_frac\": %.3f, \"requests\": %" PRIu64
        ", \"retired\": %" PRIu64 ", \"tokens\": %" PRIu64
        ", \"tokens_per_sec\": %.0f, \"share_hits\": %" PRIu64
        ", \"ref_match\": %s, \"clean\": %s, \"new_events_per_sec\": %.0f}%s\n",
        r.name.c_str(), r.p.ctx, r.p.batch, r.p.cacheFrac, r.requests,
        r.retired, r.tokens, r.tokensPerSec, r.shareHits,
        r.refMatch ? "true" : "false", r.clean ? "true" : "false",
        r.tokensPerSec, i + 1 < results.size() ? "," : "");
  }
  std::fprintf(f, "  ],\n");
  std::fprintf(f, "  \"determinism_match\": %s,\n",
               deterministic ? "true" : "false");
  std::fprintf(f, "  \"tokens_per_sec_gated\": %.0f\n}\n",
               gated != nullptr ? gated->tokensPerSec : 0.0);
  std::fclose(f);
  std::printf("wrote BENCH_kvcache.json\n");
  return 0;
}
