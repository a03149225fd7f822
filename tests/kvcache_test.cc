// Integration tests for the SSD-backed KV-cache app (src/apps/kvcache/):
// decode-step correctness against the in-DRAM reference model (byte-exact
// token streams and attention traces), prefix-share hit accounting through
// the prefix index and the Share Table, the decode step's fetch counts (one
// prefetch per private page read, no read-back of a just-written page),
// per-slot refill and the wait for a shared prefix chunk's write, an early
// EOS leaking neither cache lines nor token slots nor pool blocks, and the
// decode loop under the NVMe fault injector with the bounded retry tier
// (100% eventual completion, deterministic rerun).
#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <vector>

#include "apps/kvcache/kvcache.h"
#include "common/rng.h"
#include "core/host.h"

namespace agile::apps::kv {
namespace {

struct KvFixture : ::testing::Test {
  std::unique_ptr<core::AgileHost> host;
  std::unique_ptr<core::DefaultCtrl> ctrl;
  std::uint32_t stagingPages = 128;
  std::uint32_t ssds = 1;
  core::StripeMap stripe;  // the controller's layout over the SSDs

  void build(std::uint32_t cacheLines, std::uint32_t capacityLbas = 8192,
             const nvme::FaultPlan* fault = nullptr) {
    core::HostConfig cfg;
    cfg.queuePairsPerSsd = 4;
    cfg.queueDepth = 64;
    cfg.stagingPages = stagingPages;
    if (fault != nullptr) {
      cfg.ioTimeoutNs = 2'000'000;  // watchdog rescues swallowed completions
      cfg.retry.maxAttempts = 8;
      cfg.retry.backoffBaseNs = 50'000;
      cfg.retry.quarantineAfter = 8;
    }
    host = std::make_unique<core::AgileHost>(cfg);
    nvme::SsdConfig ssd;
    ssd.capacityLbas = capacityLbas;
    if (fault != nullptr) ssd.fault = *fault;
    for (std::uint32_t d = 0; d < ssds; ++d) host->addNvmeDev(ssd);
    host->initNvme();
    ctrl = std::make_unique<core::DefaultCtrl>(
        *host, core::CtrlConfig{.cacheLines = cacheLines, .stripe = stripe});
    host->startAgile();
  }

  void TearDown() override {
    if (host && host->serviceRunning()) host->stopAgile();
  }

  static std::vector<std::uint32_t> makePrompt(Rng& rng, std::uint32_t len,
                                               std::uint32_t vocab) {
    std::vector<std::uint32_t> p(len);
    for (auto& t : p) {
      t = 1 + static_cast<std::uint32_t>(rng.nextBelow(vocab - 1));
    }
    return p;
  }
};

// Every request's generated token stream and per-step attention trace must
// match the DRAM reference byte-for-byte: one stale, torn, or misplaced KV
// word anywhere in the flash path diverges the trace.
TEST_F(KvFixture, DecodeMatchesDramReference) {
  build(/*cacheLines=*/64);
  KvConfig cfg;
  cfg.maxBatch = 3;
  cfg.poolBlocks = 1024;
  cfg.recordAttnTrace = true;
  KvServer server(*host, *ctrl, cfg);

  Rng rng(21);
  const auto prefix = makePrompt(rng, 12, cfg.vocab);
  std::vector<KvRequest> reqs(3);
  for (std::uint64_t id = 0; id < reqs.size(); ++id) {
    reqs[id].id = id;
    reqs[id].prompt = id < 2 ? prefix : makePrompt(rng, 10, cfg.vocab);
    for (std::uint32_t i = 0; i < 5 * id; ++i) {
      reqs[id].prompt.push_back(
          1 + static_cast<std::uint32_t>(rng.nextBelow(cfg.vocab - 1)));
    }
    reqs[id].maxNewTokens = 20;
    server.enqueue(reqs[id]);
  }
  ASSERT_TRUE(server.run());

  ASSERT_EQ(server.retired().size(), 3u);
  for (const KvRequestStats& st : server.retired()) {
    const KvRefResult ref = referenceDecode(cfg, reqs[st.id]);
    EXPECT_EQ(st.generated, ref.generated) << "request " << st.id;
    EXPECT_EQ(st.attnTrace, ref.attnTrace) << "request " << st.id;
  }
  // Requests 0 and 1 share three full 4-token chunks of the 12-token prefix.
  EXPECT_GT(server.stats().prefixChunkHits, 0u);
  EXPECT_EQ(server.stats().requestsRetired, 3u);
}

// The KV block layout follows the controller's stripe: the batch writes and
// their cache installs, the Share-Table reads and their release, and the
// decode window's prefetches and page reads all resolve a block through the
// same map.
// On a 3-SSD stripe decode stays byte-exact, nothing leaks, and every SSD
// serves reads.
TEST_F(KvFixture, StripedLayoutSpreadsOverEverySsd) {
  ssds = 3;
  stripe = {3, 1, 0};
  build(/*cacheLines=*/32);
  KvConfig cfg;
  cfg.maxBatch = 3;
  cfg.poolBlocks = 1024;
  cfg.recordAttnTrace = true;
  KvServer server(*host, *ctrl, cfg);

  Rng rng(31);
  const auto prefix = makePrompt(rng, 16, cfg.vocab);
  std::vector<KvRequest> reqs(3);
  for (std::uint64_t id = 0; id < reqs.size(); ++id) {
    reqs[id].id = id;
    reqs[id].prompt = id < 2 ? prefix : makePrompt(rng, 14, cfg.vocab);
    for (std::uint32_t i = 0; i < 3 * id; ++i) {
      reqs[id].prompt.push_back(
          1 + static_cast<std::uint32_t>(rng.nextBelow(cfg.vocab - 1)));
    }
    reqs[id].maxNewTokens = 16;
    server.enqueue(reqs[id]);
  }
  ASSERT_TRUE(server.run());

  ASSERT_EQ(server.retired().size(), reqs.size());
  for (const KvRequestStats& st : server.retired()) {
    const KvRefResult ref = referenceDecode(cfg, reqs[st.id]);
    EXPECT_EQ(st.generated, ref.generated) << "request " << st.id;
    EXPECT_EQ(st.attnTrace, ref.attnTrace) << "request " << st.id;
  }
  EXPECT_GT(server.stats().prefixChunkHits, 0u);

  EXPECT_EQ(ctrl->cache().busyLinesSlow(), 0u);
  EXPECT_EQ(ctrl->tokens().liveOps(), 0u);
  EXPECT_EQ(ctrl->shareTable().size(), 0u);
  EXPECT_EQ(host->staging().available(), stagingPages);
  EXPECT_EQ(host->pendingTransactions(), 0u);
  EXPECT_EQ(server.pool().freeBlocks(), server.pool().capacity());
  for (std::uint32_t d = 0; d < ssds; ++d) {
    EXPECT_GT(host->ssd(d).readsCompleted(), 0u) << "ssd " << d;
  }
}

// Two identical prompts: the second request must attach to every prompt
// chunk of the first (per-layer block reuse accounted), and their
// concurrent decode reads of the shared blocks must produce Share-Table
// peer-buffer hits rather than duplicate SSD traffic.
TEST_F(KvFixture, PrefixShareAccounting) {
  build(/*cacheLines=*/32);
  KvConfig cfg;
  cfg.maxBatch = 2;
  cfg.poolBlocks = 512;
  KvServer server(*host, *ctrl, cfg);

  Rng rng(33);
  const auto prompt = makePrompt(rng, 16, cfg.vocab);  // 4 full chunks
  std::vector<KvRequest> reqs(2);
  for (std::uint64_t id = 0; id < 2; ++id) {
    reqs[id].id = id;
    reqs[id].prompt = prompt;
    reqs[id].maxNewTokens = 16;
    server.enqueue(reqs[id]);
  }
  ASSERT_TRUE(server.run());

  const std::uint32_t promptChunks = 16 / cfg.tokensPerBlock();
  const KvServerStats& s = server.stats();
  EXPECT_EQ(s.prefixChunkHits, promptChunks);
  EXPECT_EQ(s.blocksShared,
            std::uint64_t{promptChunks} * cfg.numLayers);
  EXPECT_GT(s.sharedReads, 0u);  // shared chunks took the asyncRead path
  EXPECT_GT(ctrl->shareTable().stats().hits, 0u);
  EXPECT_EQ(ctrl->shareTable().size(), 0u);  // all entries released
  for (const KvRequestStats& st : server.retired()) {
    EXPECT_EQ(st.generated, referenceDecode(cfg, reqs[st.id]).generated);
  }
  // Identical prompts decode identical streams, so both sequences' shared
  // reads stay in lockstep; the pool must drain completely either way.
  EXPECT_EQ(server.pool().freeBlocks(), server.pool().capacity());
}

// With a cache that holds the whole pool, every block should reach flash at
// most once per allocation. The shared prefix chunks are read by every
// decode step of every sequence, and each owner's write landed them in the
// cache, so no Share-Table read has to go to flash at all.
TEST_F(KvFixture, CacheCoveringPoolReadsEachBlockOnce) {
  build(/*cacheLines=*/512, /*capacityLbas=*/512);
  KvConfig cfg;
  cfg.maxBatch = 4;
  cfg.poolBlocks = 512;
  KvServer server(*host, *ctrl, cfg);

  // 24 requests from two families sharing a 32-token (8-chunk) prefix.
  Rng rng(77);
  std::vector<std::vector<std::uint32_t>> prefixes = {
      makePrompt(rng, 32, cfg.vocab), makePrompt(rng, 32, cfg.vocab)};
  std::vector<KvRequest> reqs(24);
  for (std::uint64_t id = 0; id < reqs.size(); ++id) {
    KvRequest& r = reqs[id];
    r.id = id;
    r.prompt = prefixes[id % 2];
    const auto tail = makePrompt(rng, 16, cfg.vocab);
    r.prompt.insert(r.prompt.end(), tail.begin(), tail.end());
    r.maxNewTokens = 16;
    server.enqueue(r);
  }
  ASSERT_TRUE(server.run());

  for (const KvRequestStats& st : server.retired()) {
    EXPECT_EQ(st.generated, referenceDecode(cfg, reqs[st.id]).generated);
  }
  EXPECT_GT(server.stats().sharedReads, 0u);
  EXPECT_EQ(ctrl->stats().directReads, 0u);
  EXPECT_LE(host->ssd(0).readsCompleted(), server.stats().blocksAllocated);
  EXPECT_EQ(ctrl->shareTable().size(), 0u);
  EXPECT_EQ(server.pool().freeBlocks(), server.pool().capacity());
}

// Decode keeps a window of shared-chunk reads in flight per sequence
// instead of awaiting each one. Reading shared chunks one at a time, the
// device never sees more than one read per sequence or one prefill write
// batch (numLayers pages) at once; the ring must push it past both. The
// prompt's 128 pages overflow the 64-line cache, so the owner's write
// cannot keep them all cached: the shared reads miss and go to flash, and
// their clean pages are demoted into the cache on release.
TEST_F(KvFixture, SharedReadsPipelinePerSequence) {
  build(/*cacheLines=*/64);
  KvConfig cfg;
  cfg.maxBatch = 2;
  cfg.poolBlocks = 512;
  KvServer server(*host, *ctrl, cfg);

  Rng rng(91);
  const auto prompt = makePrompt(rng, 128, cfg.vocab);  // 32 shared chunks
  std::vector<KvRequest> reqs(2);
  for (std::uint64_t id = 0; id < 2; ++id) {
    reqs[id].id = id;
    reqs[id].prompt = prompt;
    reqs[id].maxNewTokens = 3;  // no decode tail reaches a flush
    server.enqueue(reqs[id]);
  }
  ASSERT_TRUE(server.run());

  for (const KvRequestStats& st : server.retired()) {
    EXPECT_EQ(st.generated, referenceDecode(cfg, reqs[st.id]).generated);
  }
  EXPECT_GT(server.stats().sharedReads, 0u);
  EXPECT_GT(host->ssd(0).maxObservedOutstanding(),
            std::max(cfg.numLayers, cfg.maxBatch));
  EXPECT_GT(ctrl->shareTable().stats().demotions, 0u);
  EXPECT_EQ(ctrl->shareTable().size(), 0u);
  EXPECT_EQ(server.pool().freeBlocks(), server.pool().capacity());
}

// Decode's prefetch window runs ahead of the read cursor across layer
// boundaries, so a step's private misses overlap instead of each layer
// finding its misses a few pages at a time. One request with 64 private
// prompt chunks (256 pages over 4 layers) and a 128-line cache: the pages
// cannot all stay cached after the prefill, so the first decode step
// misses them, and the window must put many in flight at once. A
// per-layer window of gatherDepth pages peaks near that many reads;
// prefill writes peak at numLayers.
TEST_F(KvFixture, StepWindowOverlapsPrivateMisses) {
  build(/*cacheLines=*/128);
  KvConfig cfg;
  cfg.maxBatch = 1;  // the window's fair share is the whole cache
  cfg.poolBlocks = 512;
  KvServer server(*host, *ctrl, cfg);

  Rng rng(55);
  KvRequest req;
  req.id = 0;
  req.prompt = makePrompt(rng, 256, cfg.vocab);
  req.maxNewTokens = 2;
  server.enqueue(req);
  ASSERT_TRUE(server.run());

  ASSERT_EQ(server.retired().size(), 1u);
  EXPECT_EQ(server.retired()[0].generated,
            referenceDecode(cfg, req).generated);
  EXPECT_EQ(server.stats().sharedReads, 0u);
  EXPECT_GE(host->ssd(0).readsCompleted(), 64u);
  EXPECT_GE(host->ssd(0).maxObservedOutstanding(), 32u);
  EXPECT_EQ(ctrl->cache().busyLines(), 0u);
  EXPECT_EQ(server.pool().freeBlocks(), server.pool().capacity());
}

// A decode step issues each private page to the cache once: its window
// prefetches the page, and its page-run read then finds it. One sequence
// whose pages the cache covers, over several steps: the prefetches never
// outnumber the page reads. A second prefetch pass over the same pages
// (a step warm ahead of a per-layer window) makes about two per read.
TEST_F(KvFixture, OnePrefetchPerPrivatePageRead) {
  build(/*cacheLines=*/128);
  KvConfig cfg;
  cfg.maxBatch = 1;
  cfg.poolBlocks = 256;
  KvServer server(*host, *ctrl, cfg);

  Rng rng(63);
  KvRequest req;
  req.id = 0;
  req.prompt = makePrompt(rng, 32, cfg.vocab);  // 8 chunks: 32 pages
  req.maxNewTokens = 12;
  server.enqueue(req);
  ASSERT_TRUE(server.run());

  ASSERT_EQ(server.retired().size(), 1u);
  EXPECT_EQ(server.retired()[0].generated,
            referenceDecode(cfg, req).generated);
  EXPECT_GE(server.stats().tokensGenerated, 4u);
  EXPECT_GT(ctrl->stats().arrayReads, 0u);
  EXPECT_LE(ctrl->stats().prefetches, ctrl->stats().arrayReads);
}

// A page the sequence just wrote is still in its HBM tail when the write
// completes, and lands in the cache: the next decode step finds it there
// instead of reading it straight back from flash. A request whose pages
// fit in the cache and that stops after one step, so the run's only reads
// would be that step's.
TEST_F(KvFixture, WrittenPagesAreNotReadBack) {
  build(/*cacheLines=*/128);
  KvConfig cfg;
  cfg.maxBatch = 1;
  cfg.poolBlocks = 256;
  KvServer server(*host, *ctrl, cfg);

  Rng rng(71);
  KvRequest req;
  req.id = 0;
  req.prompt = makePrompt(rng, 30, cfg.vocab);  // 7 chunks + 2 tail tokens
  req.eosAfter = 1;
  server.enqueue(req);
  ASSERT_TRUE(server.run());

  ASSERT_EQ(server.retired().size(), 1u);
  EXPECT_EQ(server.retired()[0].generated,
            referenceDecode(cfg, req).generated);
  EXPECT_EQ(server.stats().tokensGenerated, 1u);
  EXPECT_GT(host->ssd(0).writesCompleted(), 0u);
  EXPECT_EQ(host->ssd(0).readsCompleted(), 0u);
  EXPECT_EQ(ctrl->cache().busyLines(), 0u);
}

// Each batch slot serves its own queue: when A hits EOS, its slot admits
// the queued C at once instead of idling until B, still decoding in the
// other slot, reaches a batch boundary. A batch-synchronous loop admits C
// only after B's next few steps.
TEST_F(KvFixture, SlotRefillsWithinFinalStep) {
  build(/*cacheLines=*/64);
  KvConfig cfg;
  cfg.maxBatch = 2;
  cfg.poolBlocks = 512;
  KvServer server(*host, *ctrl, cfg);

  Rng rng(13);
  std::vector<KvRequest> reqs(3);
  for (std::uint64_t id = 0; id < reqs.size(); ++id) {
    reqs[id].id = id;
    reqs[id].prompt = makePrompt(rng, 16, cfg.vocab);
    reqs[id].maxNewTokens = 16;
  }
  reqs[0].eosAfter = 1;  // A: one step, then its slot is free
  for (const KvRequest& r : reqs) server.enqueue(r);  // C = reqs[2] queues
  ASSERT_TRUE(server.run());

  ASSERT_EQ(server.retired().size(), reqs.size());
  std::vector<KvRequestStats> by(reqs.size());
  for (const KvRequestStats& st : server.retired()) {
    EXPECT_EQ(st.generated, referenceDecode(cfg, reqs[st.id]).generated);
    by[st.id] = st;
  }
  const KvRequestStats& a = by[0];
  const KvRequestStats& b = by[1];
  const KvRequestStats& c = by[2];
  ASSERT_GE(b.generatedTokens, 8u);  // B decodes long after A retires
  const SimTime bTpot =
      (b.doneNs - b.firstTokenNs) / (b.generatedTokens - 1);
  ASSERT_GE(c.admitNs, a.firstTokenNs);
  EXPECT_LT(c.admitNs - a.firstTokenNs, bTpot)
      << "C waited " << c.admitNs - a.firstTokenNs << " ns for A's slot; "
      << "B's mean step is " << bTpot << " ns";
  EXPECT_EQ(server.pool().freeBlocks(), server.pool().capacity());
}

// A sharer admitted beside the owner of its prefix must not read a shared
// chunk before the owner's write of it lands: the flash page still holds
// whatever was there before, and the sharer's tokens would diverge from
// the reference. Both run in one launch, so nothing but the per-chunk
// landed wait orders the sharer's reads after the owner's writes.
TEST_F(KvFixture, SharerWaitsForOwnersPrefixWrite) {
  build(/*cacheLines=*/64);
  KvConfig cfg;
  cfg.maxBatch = 2;
  cfg.poolBlocks = 512;
  cfg.recordAttnTrace = true;
  KvServer server(*host, *ctrl, cfg);

  Rng rng(17);
  const auto prefix = makePrompt(rng, 8, cfg.vocab);  // 2 full chunks
  std::vector<KvRequest> reqs(2);
  for (std::uint64_t id = 0; id < reqs.size(); ++id) {
    reqs[id].id = id;
    reqs[id].prompt = prefix;
    const auto tail = makePrompt(rng, 2, cfg.vocab);  // under one chunk
    reqs[id].prompt.insert(reqs[id].prompt.end(), tail.begin(), tail.end());
    reqs[id].maxNewTokens = 8;
    server.enqueue(reqs[id]);
  }
  ASSERT_TRUE(server.run());

  EXPECT_EQ(server.stats().rounds, 1u);  // admitted together, one launch
  EXPECT_EQ(server.stats().prefixChunkHits, 2u);
  ASSERT_EQ(server.retired().size(), reqs.size());
  for (const KvRequestStats& st : server.retired()) {
    const KvRefResult ref = referenceDecode(cfg, reqs[st.id]);
    EXPECT_EQ(st.generated, ref.generated) << "request " << st.id;
    EXPECT_EQ(st.attnTrace, ref.attnTrace) << "request " << st.id;
  }
  EXPECT_EQ(server.pool().freeBlocks(), server.pool().capacity());
}

// EOS fires after the first step, on a cache far smaller than the step's
// working set, so the step's prefetch window evicts and refills lines
// right up to retirement. Nothing may outlive the request: no BUSY line, no
// live op slot, no pinned staging page, no share entry, no pending
// transaction, and the block pool back at its initial free count. Decode issues no
// deferred (cancellable) prefetch at all.
TEST_F(KvFixture, EarlyEosLeaksNothing) {
  build(/*cacheLines=*/8);
  KvConfig cfg;
  cfg.maxBatch = 1;
  cfg.poolBlocks = 256;
  KvServer server(*host, *ctrl, cfg);

  Rng rng(55);
  KvRequest req;
  req.id = 0;
  req.prompt = makePrompt(rng, 24, cfg.vocab);  // 6 chunks > 8-line cache
  req.maxNewTokens = 8;
  req.eosAfter = 1;  // terminate right after the first sampled token
  server.enqueue(req);
  ASSERT_TRUE(server.run());

  const KvServerStats& s = server.stats();
  EXPECT_EQ(s.requestsRetired, 1u);
  EXPECT_EQ(s.tokensGenerated, 1u);

  EXPECT_EQ(ctrl->cache().busyLines(), 0u);
  EXPECT_EQ(ctrl->cache().busyLinesSlow(), 0u);
  EXPECT_EQ(ctrl->tokens().liveOps(), 0u);
  EXPECT_EQ(ctrl->shareTable().size(), 0u);
  EXPECT_EQ(host->staging().available(), stagingPages);
  EXPECT_EQ(host->pendingTransactions(), 0u);
  EXPECT_EQ(server.pool().freeBlocks(), server.pool().capacity());

  EXPECT_EQ(server.retired()[0].generated,
            referenceDecode(cfg, req).generated);
}

// The app-level mirror of bench/fault_storm's gate: the full serving loop
// under 1% transient faults (plus a smaller share of swallowed
// completions) with the bounded retry tier on must reach 100% completion
// with byte-exact token streams, abort nothing, and rerun
// deterministically.
TEST_F(KvFixture, FaultOverlapCompletesDeterministically) {
  struct RunOut {
    std::uint64_t checksum = 0;
    std::uint64_t retries = 0;
    SimTime endNs = 0;
  };
  auto runOnce = [this](RunOut* out) {
    nvme::FaultPlan fault;
    fault.enabled = true;
    fault.seed = 0xfa11;
    fault.readErrorRate = 0.01;
    fault.writeErrorRate = 0.01;
    fault.dropRate = 0.001;
    build(/*cacheLines=*/48, /*capacityLbas=*/8192, &fault);

    KvConfig cfg;
    cfg.maxBatch = 4;
    cfg.poolBlocks = 2048;
    KvServer server(*host, *ctrl, cfg);
    Rng rng(77);
    const auto prefix = makePrompt(rng, 8, cfg.vocab);
    std::vector<KvRequest> reqs(6);
    for (std::uint64_t id = 0; id < reqs.size(); ++id) {
      reqs[id].id = id;
      reqs[id].prompt = prefix;
      for (std::uint32_t i = 0; i < 4 + 2 * id; ++i) {
        reqs[id].prompt.push_back(
            1 + static_cast<std::uint32_t>(rng.nextBelow(cfg.vocab - 1)));
      }
      reqs[id].maxNewTokens = 12;
      server.enqueue(reqs[id]);
    }
    ASSERT_TRUE(server.run());

    EXPECT_EQ(server.stats().requestsRetired, reqs.size());
    EXPECT_EQ(host->ioHealth().aborted, 0u);
    for (const KvRequestStats& st : server.retired()) {
      EXPECT_EQ(st.generated, referenceDecode(cfg, reqs[st.id]).generated)
          << "request " << st.id << " diverged under faults";
    }
    EXPECT_EQ(ctrl->cache().busyLines(), 0u);
    EXPECT_EQ(ctrl->tokens().liveOps(), 0u);
    EXPECT_EQ(server.pool().freeBlocks(), server.pool().capacity());
    out->checksum = server.stats().attnChecksum;
    out->retries = host->ioHealth().retries;
    out->endNs = host->engine().now();
    host->stopAgile();
    host.reset();
    ctrl.reset();
  };

  RunOut a, b;
  runOnce(&a);
  runOnce(&b);
  EXPECT_GT(a.retries, 0u);  // faults actually exercised the retry tier
  EXPECT_EQ(a.checksum, b.checksum);
  EXPECT_EQ(a.retries, b.retries);
  EXPECT_EQ(a.endNs, b.endNs);
}

}  // namespace
}  // namespace agile::apps::kv
