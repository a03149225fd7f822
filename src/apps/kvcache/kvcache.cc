#include "apps/kvcache/kvcache.h"

#include <algorithm>
#include <utility>

#include "apps/accessor.h"
#include "common/check.h"
#include "core/io_token.h"

namespace agile::apps::kv {

namespace {
// Sentinel chunk key: chunk is private and unregistered (hash collision or
// non-prompt decode chunk).
constexpr std::uint64_t kNoKey = UINT64_MAX;

bool prefixMatches(const std::vector<std::uint32_t>& prefix,
                   const std::vector<std::uint32_t>& prompt, std::size_t len) {
  if (prefix.size() != len) return false;
  return std::equal(prefix.begin(), prefix.end(), prompt.begin());
}
}  // namespace

// ------------------------------------------------------- block pool ----

KvBlockPool::KvBlockPool(std::uint32_t blocks) : refs_(blocks, 0) {
  free_.reserve(blocks);
  for (std::uint32_t b = blocks; b > 0; --b) free_.push_back(b - 1);
}

std::uint32_t KvBlockPool::alloc() {
  if (free_.empty()) return kNone;
  const std::uint32_t b = free_.back();
  free_.pop_back();
  AGILE_CHECK(refs_[b] == 0);
  refs_[b] = 1;
  return b;
}

void KvBlockPool::addRef(std::uint32_t block) {
  AGILE_CHECK(refs_[block] > 0);
  ++refs_[block];
}

bool KvBlockPool::release(std::uint32_t block) {
  AGILE_CHECK(refs_[block] > 0);
  if (--refs_[block] != 0) return false;
  free_.push_back(block);
  return true;
}

// ------------------------------------------------------- reference ----

KvRefResult referenceDecode(const KvConfig& cfg, const KvRequest& req) {
  KvRefResult out;
  std::vector<std::uint32_t> toks = req.prompt;
  std::uint32_t generated = 0;
  for (;;) {
    std::uint64_t h = 0;
    for (std::uint32_t l = 0; l < cfg.numLayers; ++l) {
      std::uint64_t sum = 0;
      for (std::uint64_t pos = 0; pos < toks.size(); ++pos) {
        sum += kvWord(toks[pos], l, pos, 0);
      }
      h = attnFold(h, sum, l);
    }
    out.attnTrace.push_back(h);
    const std::uint32_t tok = tokenFromAttn(h, cfg.vocab);
    out.generated.push_back(tok);
    ++generated;
    if (generated >= req.maxNewTokens || generated >= req.eosAfter ||
        isEosToken(tok)) {
      break;
    }
    toks.push_back(tok);
  }
  return out;
}

// ------------------------------------------------------------ server ----

KvServer::KvServer(core::AgileHost& host, core::DefaultCtrl& ctrl,
                   KvConfig cfg)
    : host_(&host), ctrl_(&ctrl), cfg_(cfg), pool_(cfg.poolBlocks) {
  AGILE_CHECK(cfg_.tokenKvWords > 0 &&
              cfg_.wordsPerPage() % cfg_.tokenKvWords == 0);
  AGILE_CHECK(cfg_.tokensPerBlock() > 0);
  AGILE_CHECK(cfg_.numLayers > 0 &&
              cfg_.numLayers <= core::IoBatch::kMaxEntries);
  AGILE_CHECK(cfg_.maxBatch > 0 && cfg_.poolBlocks > 0);
  // Every slot page (per-layer tails, then the shared-read ring) is carved
  // from one HBM allocation: each allocation is a mapping of its own.
  const std::uint32_t ring = ringPages();
  std::byte* page = host.gpu().hbm().allocBytes(
      std::uint64_t{cfg_.maxBatch} * (cfg_.numLayers + ring) *
      nvme::kLbaBytes);
  const auto nextPage = [&page] {
    return std::exchange(page, page + nvme::kLbaBytes);
  };
  slots_.reserve(cfg_.maxBatch);
  for (std::uint32_t i = 0; i < cfg_.maxBatch; ++i) {
    auto s = std::make_unique<Seq>();
    s->tailBufs = std::make_unique<core::AgileBuf[]>(cfg_.numLayers);
    s->layerEnd.resize(cfg_.numLayers);
    for (std::uint32_t l = 0; l < cfg_.numLayers; ++l) {
      s->tailBufs[l].bind(nextPage());
    }
    s->ring = std::make_unique<core::AgileBuf[]>(ring);
    s->ringPtrs.resize(ring);
    for (std::uint32_t r = 0; r < ring; ++r) {
      s->ring[r].bind(nextPage());
      s->ringPtrs[r].bindOwn(s->ring[r]);
    }
    slots_.push_back(std::move(s));
  }
}

void KvServer::enqueue(KvRequest req) {
  AGILE_CHECK(!req.prompt.empty());
  AGILE_CHECK(req.maxNewTokens > 0);
  pending_.push_back(std::move(req));
}

// Admit the queue head into slot `s`, or return false (the head stays
// queued) when the pool cannot cover it.
bool KvServer::admitOne(Seq& s) {
  const KvRequest& req = pending_[nextPending_];
  const std::uint32_t tpb = cfg_.tokensPerBlock();
  const auto promptLen = static_cast<std::uint32_t>(req.prompt.size());
  const std::uint32_t promptChunks = promptLen / tpb;
  const std::uint32_t maxChunks = (promptLen + req.maxNewTokens) / tpb;
  const std::uint32_t reserve = (maxChunks - promptChunks) * cfg_.numLayers;

  // Probe the prefix index and price the admission before committing:
  // worst-case decode flushes are reserved up front so a mid-decode
  // allocation can never fail.
  struct Probe {
    std::uint64_t key;
    bool hit;
  };
  std::vector<Probe> probes(promptChunks);
  std::uint32_t newNow = 0;
  for (std::uint32_t c = 0; c < promptChunks; ++c) {
    const std::uint64_t key = hashPrefix(req.prompt, std::size_t{c + 1} * tpb);
    auto it = prefixIndex_.find(key);
    const bool hit =
        it != prefixIndex_.end() &&
        prefixMatches(it->second.prefix, req.prompt, std::size_t{c + 1} * tpb);
    probes[c] = {key, hit};
    if (!hit) newNow += cfg_.numLayers;
  }
  if (pool_.freeBlocks() < newNow + reserve + outstandingReserve_) {
    return false;
  }

  s.done = false;
  s.req = std::move(pending_[nextPending_++]);
  s.seqLen = 0;
  s.tailTokens = 0;
  s.generated = 0;
  s.traceFold = 0;
  s.blocks.assign(cfg_.numLayers, {});
  s.chunkShared.clear();
  s.chunkKeys.clear();
  s.stats = {};
  s.stats.id = s.req.id;
  s.stats.admitNs = host_->engine().now();

  for (std::uint32_t c = 0; c < promptChunks; ++c) {
    if (probes[c].hit) {
      PrefixEntry& e = prefixIndex_[probes[c].key];
      ++e.refs;
      for (std::uint32_t l = 0; l < cfg_.numLayers; ++l) {
        s.blocks[l].push_back(e.blocks[l]);
        pool_.addRef(e.blocks[l]);
      }
      s.chunkShared.push_back(1);
      s.chunkKeys.push_back(probes[c].key);
      s.stats.sharedBlocks += cfg_.numLayers;
      ++stats_.prefixChunkHits;
      stats_.blocksShared += cfg_.numLayers;
    } else {
      const bool collision = probes[c].key == kNoKey ||
                             prefixIndex_.count(probes[c].key) != 0;
      PrefixEntry* e = nullptr;
      if (!collision) {
        e = &prefixIndex_[probes[c].key];
        e->prefix.assign(s.req.prompt.begin(),
                         s.req.prompt.begin() + std::size_t{c + 1} * tpb);
        e->refs = 1;
      }
      for (std::uint32_t l = 0; l < cfg_.numLayers; ++l) {
        const std::uint32_t b = pool_.alloc();
        AGILE_CHECK(b != KvBlockPool::kNone);
        s.blocks[l].push_back(b);
        if (e != nullptr) e->blocks.push_back(b);
        ++stats_.blocksAllocated;
        ++s.stats.newBlocks;
      }
      s.chunkShared.push_back(0);
      s.chunkKeys.push_back(collision ? kNoKey : probes[c].key);
      ++stats_.prefixChunkMisses;
    }
  }
  s.promptChunks = promptChunks;
  s.reserve = reserve;
  outstandingReserve_ += reserve;
  ++stats_.requestsAdmitted;
  ++activeSlots_;
  return true;
}

void KvServer::releaseSeqBlocks(Seq& s) {
  const auto chunks = static_cast<std::uint32_t>(s.blocks[0].size());
  for (std::uint32_t c = 0; c < chunks; ++c) {
    const bool indexed = c < s.promptChunks && s.chunkKeys[c] != kNoKey;
    for (std::uint32_t l = 0; l < cfg_.numLayers; ++l) {
      pool_.release(s.blocks[l][c]);
    }
    if (indexed) {
      auto it = prefixIndex_.find(s.chunkKeys[c]);
      AGILE_CHECK(it != prefixIndex_.end());
      if (--it->second.refs == 0) prefixIndex_.erase(it);
    }
  }
  AGILE_CHECK(outstandingReserve_ >= s.reserve);
  outstandingReserve_ -= s.reserve;
  s.reserve = 0;
}

void KvServer::retire(Seq& s) {
  releaseSeqBlocks(s);
  s.stats.doneNs = host_->engine().now();
  s.stats.generatedTokens = s.generated;
  // Fold per-request hidden states in retire order (virtual-time order, so
  // deterministic): two runs of one workload must agree bit-for-bit.
  stats_.attnChecksum = mix64(stats_.attnChecksum ^ s.traceFold ^ s.req.id);
  retired_.push_back(std::move(s.stats));
  s.stats = {};
  --activeSlots_;
  ++stats_.requestsRetired;
}

bool KvServer::run() {
  serveStart_ = host_->engine().now();
  const bool ok = host_->runKernel(
      {.gridDim = cfg_.maxBatch, .blockDim = 1, .name = "kv-serve"},
      [this](gpu::KernelCtx& ctx) {
        return serveSlot(ctx, *slots_[ctx.blockIdx()]);
      });
  if (!ok) return false;
  ++stats_.rounds;
  host_->drainIo();
  serveEnd_ = host_->engine().now();
  return true;
}

double KvServer::tokensPerSec() const {
  const SimTime span = serveEnd_ - serveStart_;
  if (span == 0) return 0.0;
  return static_cast<double>(stats_.tokensGenerated) /
         (static_cast<double>(span) / 1e9);
}

// -------------------------------------------------------- GPU lanes ----

// One batch slot's lane: admit, prefill, wait for shared prefix data,
// decode, retire, and again, until the queue is empty.
gpu::GpuTask<void> KvServer::serveSlot(gpu::KernelCtx& ctx, Seq& s) {
  core::AgileLockChain chain;
  while (nextPending_ < pending_.size()) {
    if (!admitOne(s)) {
      // Only a retiring peer can free blocks.
      AGILE_CHECK_MSG(activeSlots_ > 0,
                      "kv pool too small for the next queued request");
      co_await ctx.parkOn(admitWait_);
      continue;
    }
    co_await prefillSeq(ctx, s, chain);
    for (std::uint32_t c = 0; c < s.promptChunks; ++c) {
      if (s.chunkShared[c] == 0) continue;
      PrefixEntry& e = prefixIndex_.find(s.chunkKeys[c])->second;
      while (!e.landed) co_await ctx.parkOn(e.landedWait);
    }
    while (!s.done) co_await decodeStep(ctx, s, chain);
    retire(s);
    admitWait_.notifyAll(host_->engine());
  }
}

// Batch-write the per-layer tail pages to chunk `chunk`'s blocks: one
// coalesced submit, one doorbell, then wait so the tails are reusable.
gpu::GpuTask<void> KvServer::writeTailBufs(gpu::KernelCtx& ctx, Seq& s,
                                           std::uint32_t chunk,
                                           core::AgileLockChain& chain) {
  std::vector<core::AgileBufPtr> ptrs(cfg_.numLayers);
  core::IoBatch batch;
  batch.setTenant(s.req.tenant);
  for (std::uint32_t l = 0; l < cfg_.numLayers; ++l) {
    ptrs[l].bindOwn(s.tailBufs[l]);
    const core::ElemAddr at = blockPage(s.blocks[l][chunk]);
    AGILE_CHECK(batch.addWrite(at.dev, at.lba, ptrs[l]));
  }
  const core::IoToken t = co_await ctrl_->submitBatch(ctx, batch, chain);
  const bool ok = co_await ctrl_->wait(ctx, t);
  AGILE_CHECK_MSG(ok, "kv block write failed (retry budget exhausted?)");
  // The pages are on flash and still in the tails. While the sequence's
  // private pages (no live peer shares them) fit in its fair share of the
  // cache, land them there, so the next decode step does not read them
  // straight back; past that share they would be evicted before that step,
  // and would only evict a peer's.
  const auto priv = static_cast<std::size_t>(std::count_if(
      s.blocks[0].begin(), s.blocks[0].end(),
      [this](std::uint32_t b) { return pool_.refOf(b) == 1; }));
  if (priv * cfg_.numLayers > fairShare()) co_return;
  for (std::uint32_t l = 0; l < cfg_.numLayers; ++l) {
    const core::ElemAddr at = blockPage(s.blocks[l][chunk]);
    co_await ctrl_->installWritten(ctx, at.dev, at.lba, s.tailBufs[l], chain);
  }
}

gpu::GpuTask<void> KvServer::writeChunk(gpu::KernelCtx& ctx, Seq& s,
                                        std::uint32_t chunk,
                                        core::AgileLockChain& chain) {
  const std::uint32_t tpb = cfg_.tokensPerBlock();
  for (std::uint32_t l = 0; l < cfg_.numLayers; ++l) {
    auto* words = reinterpret_cast<std::uint64_t*>(s.tailBufs[l].data());
    for (std::uint32_t slot = 0; slot < tpb; ++slot) {
      const std::uint64_t pos = std::uint64_t{chunk} * tpb + slot;
      for (std::uint32_t w = 0; w < cfg_.tokenKvWords; ++w) {
        words[slot * cfg_.tokenKvWords + w] =
            kvWord(s.req.prompt[pos], l, pos, w);
      }
    }
    ctx.charge(cost::kLineCopy);
  }
  co_await writeTailBufs(ctx, s, chunk, chain);
}

gpu::GpuTask<void> KvServer::prefillSeq(gpu::KernelCtx& ctx, Seq& s,
                                        core::AgileLockChain& chain) {
  const std::uint32_t tpb = cfg_.tokensPerBlock();
  const auto promptLen = static_cast<std::uint32_t>(s.req.prompt.size());
  for (std::uint32_t c = 0; c < s.promptChunks; ++c) {
    if (s.chunkShared[c] != 0) continue;
    co_await writeChunk(ctx, s, c, chain);
    if (s.chunkKeys[c] == kNoKey) continue;
    PrefixEntry& e = prefixIndex_.find(s.chunkKeys[c])->second;
    e.landed = true;  // sharers may read it from flash from now on
    e.landedWait.notifyAll(host_->engine());
  }
  // Leftover prompt tokens stay HBM-resident in the per-layer tails.
  const std::uint32_t base = s.promptChunks * tpb;
  for (std::uint32_t l = 0; l < cfg_.numLayers; ++l) {
    auto* words = reinterpret_cast<std::uint64_t*>(s.tailBufs[l].data());
    for (std::uint32_t t = base; t < promptLen; ++t) {
      for (std::uint32_t w = 0; w < cfg_.tokenKvWords; ++w) {
        words[(t - base) * cfg_.tokenKvWords + w] =
            kvWord(s.req.prompt[t], l, t, w);
      }
    }
    ctx.charge(cost::kLineCopy);
  }
  s.tailTokens = promptLen - base;
  s.seqLen = promptLen;
  stats_.prefillTokens += promptLen;
}

// Method-2 read of the step's i-th shared block into ring page
// i % ringPages(), so concurrent readers of the same prefix block are
// deduplicated by the Share Table (peer-buffer redirect) instead of each
// paying an SSD read. The last release demotes the page into the software
// cache, so later steps' reads of the block hit HBM.
gpu::GpuTask<void> KvServer::issueShared(gpu::KernelCtx& ctx, Seq& s,
                                         std::size_t i,
                                         core::AgileLockChain& chain) {
  const core::ElemAddr at = blockPage(s.sharedBlocks[i]);
  co_await ctrl_->asyncRead(ctx, at.dev, at.lba, s.ringPtrs[i % ringPages()],
                            chain, s.req.tenant);
}

// Wait for the step's i-th shared read, sum its head words, and hand its
// ring page back (after any peer reading through it has detached).
gpu::GpuTask<std::uint64_t> KvServer::drainShared(
    gpu::KernelCtx& ctx, Seq& s, std::size_t i, core::AgileLockChain& chain) {
  core::AgileBufPtr& ptr = s.ringPtrs[i % ringPages()];
  const bool ok = co_await ctrl_->waitBuf(ctx, ptr);
  AGILE_CHECK_MSG(ok, "kv shared block read failed");
  const auto* words = ptr.as<const std::uint64_t>();
  std::uint64_t sum = 0;
  for (std::uint32_t slot = 0; slot < cfg_.tokensPerBlock(); ++slot) {
    sum += words[std::size_t{slot} * cfg_.tokenKvWords];
    ctx.charge(cost::kWordAccess);
  }
  if (ptr.isShared()) {
    co_await ctrl_->releaseBuf(ctx, ptr, chain);
  } else {
    const core::ElemAddr at = blockPage(s.sharedBlocks[i]);
    co_await ctrl_->releaseOwned(ctx, at.dev, at.lba, ptr, chain);
  }
  ++stats_.sharedReads;
  co_return sum;
}

gpu::GpuTask<void> KvServer::flushTails(gpu::KernelCtx& ctx, Seq& s,
                                        core::AgileLockChain& chain) {
  AGILE_CHECK(s.reserve >= cfg_.numLayers);
  const auto chunk = static_cast<std::uint32_t>(s.blocks[0].size());
  for (std::uint32_t l = 0; l < cfg_.numLayers; ++l) {
    const std::uint32_t b = pool_.alloc();
    AGILE_CHECK(b != KvBlockPool::kNone);  // covered by the admit reserve
    s.blocks[l].push_back(b);
    ++stats_.blocksAllocated;
    ++s.stats.newBlocks;
  }
  s.chunkShared.push_back(0);
  s.chunkKeys.push_back(kNoKey);
  s.reserve -= cfg_.numLayers;
  outstandingReserve_ -= cfg_.numLayers;
  co_await writeTailBufs(ctx, s, chunk, chain);
  s.tailTokens = 0;
}

gpu::GpuTask<void> KvServer::decodeStep(gpu::KernelCtx& ctx, Seq& s,
                                        core::AgileLockChain& chain) {
  AgileAccessor<std::uint64_t> acc(*ctrl_);
  const std::uint32_t tpb = cfg_.tokensPerBlock();
  const auto chunks = static_cast<std::uint32_t>(s.blocks[0].size());

  // The step's fetch plan, fixed at step start (a peer's admit or retire
  // may move a block's refcount mid-step): prefix-shared blocks go through
  // the Share Table, private ones (pool refcount 1) through the cache. Both
  // lists are layer-major in read order; layerEnd marks each layer's end.
  s.privatePages.clear();
  s.sharedBlocks.clear();
  for (std::uint32_t l = 0; l < cfg_.numLayers; ++l) {
    for (std::uint32_t c = 0; c < chunks; ++c) {
      const std::uint32_t b = s.blocks[l][c];
      (pool_.refOf(b) > 1 ? s.sharedBlocks : s.privatePages).push_back(b);
    }
    s.layerEnd[l] = {s.privatePages.size(), s.sharedBlocks.size()};
  }

  // One prefetch window over the private pages, across layer boundaries.
  // Its depth is the sequence's fair share of the cache, less what the
  // step's shared reads claim of it (in proportion to their page count),
  // but never shallower than the shared ring. It stops short at a shard
  // >= 3/4 BUSY (the gather's pressure rule), and a page it issued that is
  // gone by its read (a peer's fill evicted it) halves the depth for the
  // rest of the step: past that depth the window evicts itself.
  const std::size_t fair = fairShare();
  const std::size_t priv = s.privatePages.size();
  std::size_t window = std::max(
      std::min<std::size_t>(fair, ringPages()),
      fair * priv / std::max<std::size_t>(priv + s.sharedBlocks.size(), 1));
  std::size_t ahead = 0;
  std::size_t next = 0;
  std::size_t sharedBegin = 0;
  s.gatherIdx.resize(tpb);
  s.gatherOut.resize(tpb);
  std::uint64_t h = 0;
  for (std::uint32_t l = 0; l < cfg_.numLayers; ++l) {
    std::uint64_t layerSum = 0;
    const std::size_t sharedEnd = s.layerEnd[l].second;
    // Fill the ring with shared reads, read the private pages while they
    // are in flight, then drain the ring in order, refilling each drained
    // page with the next shared chunk.
    std::size_t issued = sharedBegin;
    for (; issued < std::min(sharedEnd, sharedBegin + ringPages()); ++issued) {
      co_await issueShared(ctx, s, issued, chain);
    }
    for (; next < s.layerEnd[l].first; ++next) {
      if (ahead > next &&
          !acc.resident(ctx, headElem(s.privatePages[next], 0))) {
        window = std::max<std::size_t>((ahead - next) / 2, 1);
      }
      for (ahead = std::max(ahead, next); ahead < priv && ahead < next + window;
           ++ahead) {
        const std::uint64_t page = headElem(s.privatePages[ahead], 0);
        if (ahead > next && acc.shardSaturated(ctx, page)) break;
        co_await acc.prefetchElemDivergent(ctx, page, chain);
      }
      // The page's tokensPerBlock slots form one run: one demand probe.
      for (std::uint32_t slot = 0; slot < tpb; ++slot) {
        s.gatherIdx[slot] = headElem(s.privatePages[next], slot);
      }
      co_await ctrl_->arrayRead<std::uint64_t>(ctx, s.gatherIdx, s.gatherOut,
                                               chain);
      for (const std::uint64_t v : s.gatherOut) layerSum += v;
    }
    for (std::size_t i = sharedBegin; i < sharedEnd; ++i) {
      layerSum += co_await drainShared(ctx, s, i, chain);
      if (issued < sharedEnd) co_await issueShared(ctx, s, issued++, chain);
    }
    sharedBegin = sharedEnd;
    // Unflushed tail tokens live in HBM: plain word reads.
    const auto* tail =
        reinterpret_cast<const std::uint64_t*>(s.tailBufs[l].data());
    for (std::uint32_t t = 0; t < s.tailTokens; ++t) {
      layerSum += tail[std::size_t{t} * cfg_.tokenKvWords];
      ctx.charge(cost::kWordAccess);
    }
    h = attnFold(h, layerSum, l);
  }

  const std::uint32_t tok = tokenFromAttn(h, cfg_.vocab);
  s.traceFold = mix64(s.traceFold ^ h);
  if (cfg_.recordAttnTrace) s.stats.attnTrace.push_back(h);
  s.stats.generated.push_back(tok);
  if (s.generated == 0) s.stats.firstTokenNs = ctx.now();
  ++s.generated;
  ++stats_.tokensGenerated;

  const bool eos = s.generated >= s.req.maxNewTokens ||
                   s.generated >= s.req.eosAfter || isEosToken(tok);
  if (eos) {
    s.done = true;
    co_return;
  }

  // Append the sampled token's KV to every layer's HBM tail; flush full
  // tails to freshly allocated private blocks.
  const std::uint64_t pos = s.seqLen;
  for (std::uint32_t l = 0; l < cfg_.numLayers; ++l) {
    auto* words = reinterpret_cast<std::uint64_t*>(s.tailBufs[l].data());
    for (std::uint32_t w = 0; w < cfg_.tokenKvWords; ++w) {
      words[std::size_t{s.tailTokens} * cfg_.tokenKvWords + w] =
          kvWord(tok, l, pos, w);
    }
    ctx.charge(cost::kLineCopy);
  }
  ++s.seqLen;
  ++s.tailTokens;
  if (s.tailTokens == tpb) co_await flushTails(ctx, s, chain);
}

}  // namespace agile::apps::kv
