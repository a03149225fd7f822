// Example: SSD-backed KV-cache serving (src/apps/kvcache/). Six requests —
// three sharing one prompt prefix, three sharing another — run through the
// continuous-batching KvServer: prefill writes paged KV blocks to flash,
// decode gathers them back through the AGILE cache at attention time, and
// the prefix index dedupes the shared chunks. Every generated token stream
// is checked against the in-DRAM reference model, so this doubles as an
// end-to-end smoke test of the storage path.
#include <cstdio>
#include <vector>

#include "apps/kvcache/kvcache.h"
#include "common/rng.h"
#include "core/host.h"

using namespace agile;
using namespace agile::apps;

int main() {
  core::HostConfig hostCfg;
  hostCfg.queuePairsPerSsd = 4;
  hostCfg.queueDepth = 64;
  core::AgileHost host(hostCfg);
  nvme::SsdConfig ssd;
  ssd.capacityLbas = 4096;
  host.addNvmeDev(ssd);
  host.initNvme();
  core::DefaultCtrl ctrl(host, core::CtrlConfig{.cacheLines = 64});
  host.startAgile();

  kv::KvConfig cfg;
  cfg.numLayers = 4;
  cfg.maxBatch = 4;
  cfg.poolBlocks = 2048;
  kv::KvServer server(host, ctrl, cfg);

  // Two prompt families: requests within a family share a 16-token prefix
  // (four full KV chunks at 4 tokens/block), then diverge.
  Rng rng(11);
  std::vector<std::vector<std::uint32_t>> prefixes(2);
  for (auto& p : prefixes) {
    p.resize(16);
    for (auto& t : p) t = 1 + static_cast<std::uint32_t>(
                              rng.nextBelow(cfg.vocab - 1));
  }
  std::vector<kv::KvRequest> reqs;
  for (std::uint64_t id = 0; id < 6; ++id) {
    kv::KvRequest r;
    r.id = id;
    r.prompt = prefixes[id % 2];
    for (std::uint32_t i = 0; i < 6 + 3 * static_cast<std::uint32_t>(id);
         ++i) {
      r.prompt.push_back(
          1 + static_cast<std::uint32_t>(rng.nextBelow(cfg.vocab - 1)));
    }
    r.maxNewTokens = 24;
    reqs.push_back(r);
    server.enqueue(r);
  }

  AGILE_CHECK_MSG(server.run(), "kv serving loop hung");

  // Validate every request against the DRAM reference model.
  std::uint32_t mismatches = 0;
  for (const kv::KvRequestStats& st : server.retired()) {
    const kv::KvRefResult ref = kv::referenceDecode(cfg, reqs[st.id]);
    if (st.generated != ref.generated) ++mismatches;
  }

  const kv::KvServerStats& s = server.stats();
  std::printf("kvcache serving demo\n");
  std::printf("  requests            : %llu retired / %llu admitted\n",
              static_cast<unsigned long long>(s.requestsRetired),
              static_cast<unsigned long long>(s.requestsAdmitted));
  std::printf("  tokens              : %llu generated, %llu prefilled\n",
              static_cast<unsigned long long>(s.tokensGenerated),
              static_cast<unsigned long long>(s.prefillTokens));
  std::printf("  prefix sharing      : %llu chunk hits, %llu blocks reused\n",
              static_cast<unsigned long long>(s.prefixChunkHits),
              static_cast<unsigned long long>(s.blocksShared));
  std::printf("  share-table         : %llu peer-buffer hits\n",
              static_cast<unsigned long long>(ctrl.shareTable().stats().hits));
  std::printf("  throughput          : %.0f tokens/s (virtual)\n",
              server.tokensPerSec());
  std::printf("  reference check     : %s\n",
              mismatches == 0 ? "all token streams match" : "MISMATCH");

  host.stopAgile();

  AGILE_CHECK_MSG(mismatches == 0, "decode diverged from the DRAM reference");
  AGILE_CHECK_MSG(s.requestsRetired == 6, "not all requests retired");
  AGILE_CHECK_MSG(server.pool().freeBlocks() == server.pool().capacity(),
                  "kv block pool leaked");
  return 0;
}
