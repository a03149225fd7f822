// SSD-backed paged KV cache for LLM serving (the Tutti scenario): each
// sequence's per-layer KV tensor is paged into fixed 4 KiB blocks on flash,
// gathered through the AGILE software cache at attention time, and shared
// across requests with a common prompt prefix. Each batch slot's lane runs
// its sequences' decode steps back to back (see KvServer); one step:
//
//   plan: the step's private pages (pool refcount 1) and prefix-shared
//     blocks, each list layer-major in read order, fixed at step start
//   for each layer L:
//     attention = sum over past tokens of their KV head word
//       - prefix-shared blocks  -> asyncRead + Share Table (peer redirect)
//         into a ring of gatherDepth landing pages: up to K reads in
//         flight, drained in chunk order, each drained slot refilled
//       - private flushed blocks-> read while the shared reads are in
//         flight, through one prefetch window that runs across layers:
//         up to the sequence's fair share of the cache (lineCount /
//         maxBatch, less its shared pages' part, at least the ring's
//         depth) is issued ahead of the read cursor; it stops at a shard
//         >= 3/4 BUSY, and a page evicted before its read halves it. A
//         block's tokensPerBlock slots form one page run, read with one
//         demand probe, so a private page is probed twice a step
//       - unflushed tail tokens -> HBM, plain word reads
//   sample next token; on EOS the slot retires, else the token's KV is
//   appended to the HBM tails (flushed to flash when a block fills).
//
// Prefill and tail flushes write whole pages from the HBM tails; once the
// write lands, each page is installed in the software cache (while the
// sequence's private pages fit its fair share), so the next step does not
// read back from flash what it has just written.
//
// KV content is a deterministic hash of (token, layer, position, word), so a
// DRAM reference model (referenceDecode) can replay any request byte-exactly
// and decode correctness reduces to trace equality — if the storage path
// returns one stale or torn word, the generated token stream diverges.
#pragma once

#include <algorithm>
#include <cstdint>
#include <memory>
#include <unordered_map>
#include <utility>
#include <vector>

#include "core/ctrl.h"
#include "core/host.h"
#include "qos/tenant.h"

namespace agile::apps::kv {

// ------------------------------------------------------- model math ----

inline constexpr std::uint64_t mix64(std::uint64_t x) {
  x ^= x >> 33;
  x *= 0xFF51AFD7ED558CCDull;
  x ^= x >> 33;
  x *= 0xC4CEB9FE1A85EC53ull;
  x ^= x >> 33;
  return x;
}

// KV word for `token` at sequence position `pos` in `layer`. Word 0 is the
// "head" word attention reads; the rest fill out the per-token KV slot.
inline constexpr std::uint64_t kvWord(std::uint32_t token, std::uint32_t layer,
                                      std::uint64_t pos, std::uint32_t word) {
  return mix64((std::uint64_t{token} << 32) ^ (std::uint64_t{layer} << 20) ^
               (pos * 0x9E3779B97F4A7C15ull) ^ word);
}

// Fold one layer's attention sum into the running hidden state.
inline constexpr std::uint64_t attnFold(std::uint64_t h, std::uint64_t layerSum,
                                        std::uint32_t layer) {
  return mix64(h ^ layerSum ^ (std::uint64_t{layer} + 1));
}

inline constexpr std::uint32_t tokenFromAttn(std::uint64_t attn,
                                             std::uint32_t vocab) {
  return static_cast<std::uint32_t>(mix64(attn ^ 0xA5A5A5A5ull) % vocab);
}

// Data-dependent early termination (~1/37 of sampled tokens).
inline constexpr bool isEosToken(std::uint32_t token) {
  return token % 37 == 0;
}

// Rolling hash of prompt[0..len) — the prefix-index key for the chunk whose
// last token is prompt[len-1]. Entries also keep the prefix itself, so a
// (vanishingly unlikely) 64-bit collision degrades to a missed share, never
// to wrong data.
inline std::uint64_t hashPrefix(const std::vector<std::uint32_t>& prompt,
                                std::size_t len) {
  std::uint64_t h = 0xcbf29ce484222325ull;
  for (std::size_t i = 0; i < len; ++i) h = mix64(h ^ prompt[i]);
  return mix64(h ^ len);
}

// ------------------------------------------------------ configuration ----

struct KvConfig {
  std::uint32_t numLayers = 4;
  std::uint32_t tokenKvWords = 128;  // uint64 words per token per layer (1 KiB)
  std::uint32_t maxBatch = 8;        // concurrently decoding sequences
  std::uint32_t poolBlocks = 4096;   // flash blocks backing the paged KV
  // Shared-chunk reads in flight per sequence: the landing ring holds this
  // many pages (one when 0). It is also the floor of the private prefetch
  // window, which the cache's fair share sizes otherwise (see the
  // decode-step diagram above).
  std::uint32_t gatherDepth = 8;
  std::uint32_t vocab = 32000;
  bool recordAttnTrace = false;  // per-step hidden state, for tests

  std::uint32_t wordsPerPage() const {
    return nvme::kLbaBytes / sizeof(std::uint64_t);
  }
  // KV slots per 4 KiB block; tokenKvWords must divide the page.
  std::uint32_t tokensPerBlock() const { return wordsPerPage() / tokenKvWords; }
};

struct KvRequest {
  std::uint64_t id = 0;
  std::vector<std::uint32_t> prompt;
  std::uint32_t maxNewTokens = 16;
  // QoS identity: this request's shared-chunk reads and tail-page batch
  // writes are attributed to this tenant for admission, WFQ, and
  // per-tenant SLO accounting. The cache fills of the private prefetch
  // window and page reads carry the host tenant.
  qos::TenantId tenant = qos::kHostTenant;
  // Test hook: force EOS once this many tokens were generated (in addition
  // to maxNewTokens and the data-dependent EOS), so early-termination
  // paths can be pinned to an exact step.
  std::uint32_t eosAfter = UINT32_MAX;
};

// --------------------------------------------------------------- stats ----

struct KvRequestStats {
  std::uint64_t id = 0;
  std::uint32_t generatedTokens = 0;
  std::uint32_t sharedBlocks = 0;  // blocks reused from the prefix index
  std::uint32_t newBlocks = 0;     // blocks this request allocated
  SimTime admitNs = 0;
  SimTime firstTokenNs = 0;
  SimTime doneNs = 0;
  std::vector<std::uint32_t> generated;   // sampled token ids, in order
  std::vector<std::uint64_t> attnTrace;   // per-step hidden state (opt-in)
};

struct KvServerStats {
  std::uint64_t requestsAdmitted = 0;
  std::uint64_t requestsRetired = 0;
  std::uint64_t tokensGenerated = 0;
  std::uint64_t prefillTokens = 0;
  std::uint64_t blocksAllocated = 0;
  std::uint64_t blocksShared = 0;   // per-layer blocks attached via the index
  std::uint64_t prefixChunkHits = 0;
  std::uint64_t prefixChunkMisses = 0;
  std::uint64_t sharedReads = 0;    // Share-Table-path block reads
  std::uint64_t speculativeIssued = 0;     // always 0; perfbench reads it
  std::uint64_t speculativeCancelled = 0;  // always 0; perfbench reads it
  std::uint64_t rounds = 0;  // kernel launches: one per run()
  // Order-stable fold of every retired request's per-step hidden states:
  // two runs of the same workload must produce the same value bit-for-bit.
  std::uint64_t attnChecksum = 0;
};

// ------------------------------------------------------- block pool ----

// Refcounted free list over the flash blocks that back paged KV. Prefix
// sharing holds one reference per attached request; a block returns to the
// free list when the last holder retires.
class KvBlockPool {
 public:
  static constexpr std::uint32_t kNone = UINT32_MAX;

  explicit KvBlockPool(std::uint32_t blocks);

  std::uint32_t alloc();                 // kNone when exhausted
  void addRef(std::uint32_t block);
  bool release(std::uint32_t block);     // true when returned to the pool
  std::uint32_t refOf(std::uint32_t block) const { return refs_[block]; }
  std::uint32_t freeBlocks() const {
    return static_cast<std::uint32_t>(free_.size());
  }
  std::uint32_t capacity() const {
    return static_cast<std::uint32_t>(refs_.size());
  }

 private:
  std::vector<std::uint32_t> refs_;
  std::vector<std::uint32_t> free_;
};

// ------------------------------------------------------- reference ----

// In-DRAM replay of one request: no storage, no cache — just the model
// math over a token vector. The served path must match this byte-exactly.
struct KvRefResult {
  std::vector<std::uint32_t> generated;
  std::vector<std::uint64_t> attnTrace;
};
KvRefResult referenceDecode(const KvConfig& cfg, const KvRequest& req);

// ------------------------------------------------------- serving loop ----

// Continuous-batching server: run() launches one kernel of maxBatch
// single-lane blocks, one per batch slot, and each lane serves its slot
// back to back until the queue is empty:
//
//   admit    the queue head, FIFO; if the pool cannot cover it, park until
//            a peer retires (fatal when no slot is active)
//   prefill  write the prompt's unshared chunks, fill the HBM tails
//   wait     until the owner's write of every shared prefix chunk landed
//   decode   steps until EOS
//   retire   release blocks, wake parked admitters, loop
//
// No slot waits for a peer's step, so none idles at a batch barrier.
// Admission and retirement are host bookkeeping and charge no time.
// Per-sequence control flow is fully divergent (prompt lengths,
// data-dependent EOS), so wider warps would stall their collectives on
// diverged peers.
class KvServer {
 public:
  KvServer(core::AgileHost& host, core::DefaultCtrl& ctrl, KvConfig cfg);

  void enqueue(KvRequest req);

  // Serve until every enqueued request retires. False if a kernel hung.
  bool run();

  const KvServerStats& stats() const { return stats_; }
  const std::vector<KvRequestStats>& retired() const { return retired_; }
  const KvBlockPool& pool() const { return pool_; }

  // Generated tokens per virtual second over the serving interval.
  double tokensPerSec() const;

 private:
  struct PrefixEntry {
    std::vector<std::uint32_t> prefix;  // full token prefix (collision guard)
    std::vector<std::uint32_t> blocks;  // one block per layer for this chunk
    std::uint32_t refs = 0;
    bool landed = false;          // the owner's write of the chunk completed
    sim::WaitList landedWait;     // sharers parked until then
  };

  // One active sequence slot. HBM pages (per-layer tails + the shared-read
  // ring) are carved once from one server-wide allocation and reused across
  // requests.
  struct Seq {
    bool done = false;
    KvRequest req;
    std::uint32_t seqLen = 0;      // tokens with KV present
    std::uint32_t tailTokens = 0;  // of those, still HBM-resident per layer
    std::uint32_t generated = 0;
    std::uint32_t reserve = 0;     // future decode-flush blocks held back
    std::uint64_t traceFold = 0;   // per-seq fold of step hidden states
    // blocks[layer][chunk]: flash block holding that chunk's KV.
    std::vector<std::vector<std::uint32_t>> blocks;
    std::vector<std::uint8_t> chunkShared;   // chunk attached via the index
    std::vector<std::uint64_t> chunkKeys;    // prefix key per prompt chunk
    std::uint32_t promptChunks = 0;          // chunks registered in the index
    // One page per layer; AgileBuf is non-movable, so a fixed array.
    std::unique_ptr<core::AgileBuf[]> tailBufs;
    // Shared-chunk landing ring: the step's i-th shared read lands in page
    // i % ringPages() through handle ringPtrs[i % ringPages()].
    std::unique_ptr<core::AgileBuf[]> ring;
    std::vector<core::AgileBufPtr> ringPtrs;
    // A decode step's fetch plan (see decodeStep): private pages and
    // prefix-shared blocks, each layer-major in read order, and per layer
    // the end of its run in each list.
    std::vector<std::uint32_t> privatePages;
    std::vector<std::uint32_t> sharedBlocks;
    std::vector<std::pair<std::size_t, std::size_t>> layerEnd;
    std::vector<std::uint64_t> gatherIdx;  // one page run's slot indices
    std::vector<std::uint64_t> gatherOut;
    KvRequestStats stats;
  };

  std::uint32_t ringPages() const { return std::max(cfg_.gatherDepth, 1u); }
  // One sequence's fair share of the software cache, in pages.
  std::size_t fairShare() const {
    return ctrl_->cache().lineCount() / cfg_.maxBatch;
  }
  // Block b is page b of one flat KV word array; the controller's stripe
  // resolves it to a (device, LBA), exactly as the accessor resolves the
  // words gathered from it.
  std::uint64_t headElem(std::uint32_t block, std::uint32_t slot) const {
    return std::uint64_t{block} * cfg_.wordsPerPage() +
           std::uint64_t{slot} * cfg_.tokenKvWords;
  }
  core::ElemAddr blockPage(std::uint32_t block) const {
    return core::elemAddr<std::uint64_t>(headElem(block, 0), ctrl_->stripe());
  }

  bool admitOne(Seq& s);
  void retire(Seq& s);
  void releaseSeqBlocks(Seq& s);

  gpu::GpuTask<void> serveSlot(gpu::KernelCtx& ctx, Seq& s);
  gpu::GpuTask<void> prefillSeq(gpu::KernelCtx& ctx, Seq& s,
                                core::AgileLockChain& chain);
  gpu::GpuTask<void> decodeStep(gpu::KernelCtx& ctx, Seq& s,
                                core::AgileLockChain& chain);
  gpu::GpuTask<void> writeChunk(gpu::KernelCtx& ctx, Seq& s,
                                std::uint32_t chunk,
                                core::AgileLockChain& chain);
  gpu::GpuTask<void> writeTailBufs(gpu::KernelCtx& ctx, Seq& s,
                                   std::uint32_t chunk,
                                   core::AgileLockChain& chain);
  gpu::GpuTask<void> flushTails(gpu::KernelCtx& ctx, Seq& s,
                                core::AgileLockChain& chain);
  gpu::GpuTask<void> issueShared(gpu::KernelCtx& ctx, Seq& s, std::size_t i,
                                 core::AgileLockChain& chain);
  gpu::GpuTask<std::uint64_t> drainShared(gpu::KernelCtx& ctx, Seq& s,
                                          std::size_t i,
                                          core::AgileLockChain& chain);

  core::AgileHost* host_;
  core::DefaultCtrl* ctrl_;
  KvConfig cfg_;
  KvBlockPool pool_;
  std::uint32_t outstandingReserve_ = 0;
  std::uint32_t activeSlots_ = 0;
  sim::WaitList admitWait_;  // lanes whose head request the pool can't cover
  std::vector<std::unique_ptr<Seq>> slots_;
  std::vector<KvRequest> pending_;
  std::size_t nextPending_ = 0;
  std::vector<KvRequestStats> retired_;
  std::unordered_map<std::uint64_t, PrefixEntry> prefixIndex_;
  KvServerStats stats_;
  SimTime serveStart_ = 0;
  SimTime serveEnd_ = 0;
};

}  // namespace agile::apps::kv
