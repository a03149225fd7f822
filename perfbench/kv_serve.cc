// kv_serve: one kv::KvServer continuous-batching run. Requests come from two
// prompt families that share a half-context prefix, the software cache holds
// half of the decode working set, and every request's tokens must match
// referenceDecode byte for byte. The only workload with writes (tail flushes
// through IoBatch) beside reads, Share Table hits, and speculative prefetch
// plus cancel on the token surface.
//
// Op: one generated token. Latencies per request: TTFT = firstTokenNs -
// admitNs; TPOT = (doneNs - firstTokenNs) / (generated - 1).
#include <memory>

#include "common/rng.h"
#include "perfbench/bench.h"

namespace perfbench {
namespace {

using namespace agile;
using namespace agile::apps;

constexpr std::uint32_t kLayers = 4;
constexpr std::uint32_t kBatch = 8;
constexpr std::uint32_t kPromptTokens = 64;
constexpr std::uint32_t kMaxNewTokens = 32;
constexpr std::uint32_t kMinRequests = 128;  // >= 100 for a p90
// Fixed work per --seconds, sized so one run takes about that long.
constexpr std::uint32_t kRequestsPerSecond = 12;

struct Stack {
  std::unique_ptr<core::AgileHost> host;
  std::unique_ptr<core::DefaultCtrl> ctrl;
  kv::KvConfig model;
  std::vector<kv::KvRequest> requests;
  std::unique_ptr<kv::KvServer> server;
};

std::vector<kv::KvRequest> makeRequests(std::uint64_t seed, std::uint32_t n,
                                        std::uint32_t vocab) {
  Rng rng(seed);
  const auto token = [&] {
    return 1 + static_cast<std::uint32_t>(rng.nextBelow(vocab - 1));
  };
  std::vector<std::vector<std::uint32_t>> prefixes(2);
  for (auto& p : prefixes) {
    p.resize(kPromptTokens / 2);
    for (auto& tok : p) tok = token();
  }
  std::vector<kv::KvRequest> reqs(n);
  for (std::uint32_t id = 0; id < n; ++id) {
    kv::KvRequest& r = reqs[id];
    r.id = id;
    r.prompt = prefixes[id % 2];
    while (r.prompt.size() < kPromptTokens) r.prompt.push_back(token());
    r.maxNewTokens = kMaxNewTokens;
  }
  return reqs;
}

std::unique_ptr<Stack> build(Tracer* t, std::uint64_t seed,
                             std::uint32_t requests) {
  HostSpan setup(t, "setup", nullptr);
  auto s = std::make_unique<Stack>();
  kv::KvConfig& m = s->model;
  m.numLayers = kLayers;
  m.maxBatch = kBatch;
  const std::uint32_t chunksPerSeq =
      (kPromptTokens + kMaxNewTokens) / m.tokensPerBlock() + 1;
  const std::uint32_t workingSetPages = kBatch * kLayers * chunksPerSeq;
  m.poolBlocks = 2 * workingSetPages;
  core::HostConfig hc;
  hc.queuePairsPerSsd = 8;
  hc.queueDepth = 128;
  hc.kernelTimeout = 3600_s;
  nvme::SsdConfig ssd;
  ssd.capacityLbas = m.poolBlocks;
  s->host = buildHost(t, hc, ssd);
  const sim::Engine* e = &s->host->engine();
  setup.bind(e);
  {
    HostSpan span(t, "core.ctrl.ctor", e);
    s->ctrl = std::make_unique<core::DefaultCtrl>(
        *s->host, ctrlConfig(workingSetPages / 2));
  }
  {
    HostSpan span(t, "core.host.startAgile", e);
    s->host->startAgile();
  }
  {
    HostSpan span(t, "apps.kvcache.ctor", e);
    s->server = std::make_unique<kv::KvServer>(*s->host, *s->ctrl, m);
    s->requests = makeRequests(seed, requests, m.vocab);
    for (const kv::KvRequest& r : s->requests) s->server->enqueue(r);
  }
  return s;
}

// Virtual request spans, rebuilt from the retired requests' timestamps (the
// server stamps them; the host clock does not see them). Each request goes
// on the first track free at its admission.
void traceRequests(Tracer& t, std::int32_t parent,
                   const std::vector<kv::KvRequestStats>& retired) {
  std::vector<SimTime> trackFreeAt;
  for (const kv::KvRequestStats& st : retired) {
    std::uint32_t track = 0;
    while (track < trackFreeAt.size() && trackFreeAt[track] > st.admitNs) {
      ++track;
    }
    if (track == trackFreeAt.size()) trackFreeAt.push_back(0);
    trackFreeAt[track] = st.doneNs;
    const auto req = static_cast<std::int64_t>(st.id);
    const std::int32_t id = t.request("kv_serve.request", parent, req,
                                      track + 1, st.admitNs, st.doneNs, -1, -1);
    t.request("apps.kvcache.prefill", id, req, track + 1, st.admitNs,
              st.firstTokenNs, -1, -1);
    t.request("apps.kvcache.decode", id, req, track + 1, st.firstTokenNs,
              st.doneNs, -1, -1);
  }
}

}  // namespace

RunResult runKvServe(const RunConfig& cfg) {
  RunResult res;
  Tracer* t = cfg.tracer;
  const std::uint32_t requests =
      std::max(kMinRequests, kRequestsPerSecond * cfg.seconds);
  std::unique_ptr<Stack> s = timedSetups(
      cfg.setupReps, &res.setupS, [&] { return build(t, cfg.seed, requests); });
  core::AgileHost& host = *s->host;
  core::DefaultCtrl& ctrl = *s->ctrl;
  kv::KvServer& server = *s->server;

  bool served = false;
  std::int32_t runSpan = -1;
  const Window w = timedRun(host, ctrl, t, [] {}, [&] {
    HostSpan span(t, "apps.kvcache.run", &host.engine());
    runSpan = span.id();
    served = server.run();
  });
  res.hostS = w.hostS;

  // Output checks: every request retired, byte-exact against the DRAM
  // reference, and nothing leaked.
  const kv::KvServerStats& st = server.stats();
  const std::uint64_t unretired = requests - st.requestsRetired;
  res.attempted = st.tokensGenerated + unretired;
  if (!served || !w.drained) res.fail(1, "kv serving loop hung");
  res.fail(unretired, "requests not retired");
  std::uint64_t wrongTokens = 0;
  std::vector<double> ttftNs, tpotNs, decodeNs;
  for (const kv::KvRequestStats& rs : server.retired()) {
    const kv::KvRefResult ref =
        kv::referenceDecode(s->model, s->requests[rs.id]);
    if (rs.generated != ref.generated) wrongTokens += rs.generatedTokens;
    ttftNs.push_back(static_cast<double>(rs.firstTokenNs - rs.admitNs));
    if (rs.generatedTokens >= 2) {
      tpotNs.push_back(static_cast<double>(rs.doneNs - rs.firstTokenNs) /
                       (rs.generatedTokens - 1));
    }
    decodeNs.push_back(static_cast<double>(rs.doneNs - rs.firstTokenNs));
  }
  res.fail(wrongTokens, "tokens differ from referenceDecode");
  res.fail(w.busyLinesAfterDrain, "cache lines left BUSY after drainIo");
  res.fail(ctrl.tokens().liveOps(), "I/O tokens leaked");
  res.fail(server.pool().capacity() - server.pool().freeBlocks(),
           "KV pool blocks leaked");
  res.fail(ctrl.shareTable().size(), "Share Table entries left behind");
  res.fail(w.end.aborted - w.begin.aborted, "I/O aborted by the host");

  Report& r = res.report;
  r.endToEnd("virt_ops_per_s", server.tokensPerSec(), "1/s", true);
  addLatencyMetrics(r, "virt_lat", std::move(tpotNs));
  addLatencyMetrics(r, "virt_ttft", ttftNs);
  addStackMetrics(r, host, w, st.tokensGenerated);
  addAppMetrics(r, nullptr, &st);

  if (t != nullptr) {
    traceRequests(*t, runSpan, server.retired());
    Stages stages;
    stages.prefill = std::move(ttftNs);  // admission to first token = TTFT
    stages.decode = std::move(decodeNs);
    addStageMetrics(r, std::move(stages));
  }
  return res;
}

}  // namespace perfbench
