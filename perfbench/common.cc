#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <ctime>

#include "perfbench/bench.h"

namespace perfbench {

using namespace agile;

double cpuSeconds() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + static_cast<double>(ts.tv_nsec) / 1e9;
}

double peakRssMb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is in KiB
}

double percentile(std::vector<double>& v, double q) {
  if (v.empty()) return 0.0;
  const auto rank = static_cast<std::size_t>(
      std::ceil(q * static_cast<double>(v.size())));
  const std::size_t idx = rank == 0 ? 0 : rank - 1;
  std::nth_element(v.begin(), v.begin() + static_cast<std::ptrdiff_t>(idx),
                   v.end());
  return v[idx];
}

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : (v[n / 2 - 1] + v[n / 2]) / 2.0;
}

// ------------------------------------------------------------ Report ----

void Report::endToEnd(std::string name, double value, std::string unit,
                      bool virtualClock) {
  metrics_.push_back({std::move(name), value, std::move(unit),
                      Section::kEndToEnd, virtualClock});
}

void Report::layer(std::string name, double value, std::string unit) {
  metrics_.push_back(
      {std::move(name), value, std::move(unit), Section::kPerLayer, true});
}

void Report::layerHost(std::string name, double value, std::string unit) {
  metrics_.push_back(
      {std::move(name), value, std::move(unit), Section::kPerLayer, false});
}

std::uint64_t Report::digest() const {
  std::uint64_t h = 0xcbf29ce484222325ull;
  const auto fold = [&h](const char* s) {
    for (; *s != '\0'; ++s) {
      h ^= static_cast<unsigned char>(*s);
      h *= 0x100000001b3ull;
    }
  };
  for (const Metric& m : metrics_) {
    if (!m.digested) continue;
    char buf[64];
    std::snprintf(buf, sizeof buf, "=%.17g;", m.value);
    fold(m.name.c_str());
    fold(buf);
  }
  return h;
}

void RunResult::fail(std::uint64_t ops, const std::string& why) {
  if (ops == 0) return;
  failed += ops;
  problems.push_back(why + " (" + std::to_string(ops) + ")");
}

// ------------------------------------------------------------ window ----

Counters Counters::take(core::AgileHost& host) {
  Counters c;
  sim::Engine& e = host.engine();
  c.now = e.now();
  c.events = e.executedEvents();
  c.readyPath = e.readyPathEvents();
  c.cancelled = e.cancelledEvents();
  gpu::Gpu& g = host.gpu();
  const std::uint32_t reserved = g.numSms() - g.computeSms();
  for (std::uint32_t i = 0; i < g.numSms(); ++i) {
    if (i >= reserved) c.computeBusyNs += g.sm(i).busyNs();
    c.segments += g.sm(i).segments();
  }
  for (std::uint32_t i = 0; i < host.ssdCount(); ++i) {
    nvme::SsdController& s = host.ssd(i);
    c.reads += s.readsCompleted();
    c.writes += s.writesCompleted();
    c.bytesRead += s.bytesRead();
    c.bytesWritten += s.bytesWritten();
    c.errors += s.errorsReturned();
  }
  for (const auto& sq : host.queuePairs().sqs) c.sqIssued += sq->totalIssued;
  c.service = host.service().snapshot();
  const core::IoHealthStats health = host.ioHealth();
  c.retries = health.retries;
  c.aborted = health.aborted;
  c.watchdogTimeouts = health.watchdogTimeouts;
  return c;
}

namespace {

double ratio(double num, double den) { return den == 0.0 ? 0.0 : num / den; }
double d(std::uint64_t v) { return static_cast<double>(v); }

}  // namespace

std::unique_ptr<core::AgileHost> buildHost(Tracer* t,
                                           const core::HostConfig& hc,
                                           const nvme::SsdConfig& ssd) {
  HostSpan span(t, "core.host.init", nullptr);
  auto host = std::make_unique<core::AgileHost>(hc);
  span.bind(&host->engine());
  host->addNvmeDev(ssd);
  host->initNvme();
  return host;
}

void addStackMetrics(Report& r, core::AgileHost& host, const Window& w,
                     std::uint64_t ops) {
  const Counters& begin = w.begin;
  const Counters& end = w.end;
  const core::CtrlSnapshot& ctrl = w.ctrl;
  const double window = d(end.now - begin.now);
  const double events = d(end.events - begin.events);

  r.layer("sim.events", events, "count");
  r.layer("sim.events_per_op", ratio(events, d(ops)), "count");
  r.layer("sim.ready_path_frac",
          ratio(d(end.readyPath - begin.readyPath), events), "ratio");
  r.layer("sim.cancelled_events", d(end.cancelled - begin.cancelled), "count");
  r.layer("sim.slab_chunks", d(host.engine().slabChunks()), "count");

  const double computeSms = host.gpu().computeSms();
  const double busyNs = d(end.computeBusyNs - begin.computeBusyNs);
  r.layer("gpu.sm_busy_frac", ratio(busyNs, computeSms * window), "ratio");
  r.layer("gpu.warp_segments", d(end.segments - begin.segments), "count");

  const double reads = d(end.reads - begin.reads);
  std::uint64_t maxOutstanding = 0;
  for (std::uint32_t i = 0; i < host.ssdCount(); ++i) {
    maxOutstanding =
        std::max(maxOutstanding, host.ssd(i).maxObservedOutstanding());
  }
  r.layer("nvme.reads", reads, "count");
  r.layer("nvme.writes", d(end.writes - begin.writes), "count");
  r.layer("nvme.bytes_read", d(end.bytesRead - begin.bytesRead), "B");
  r.layer("nvme.bytes_written", d(end.bytesWritten - begin.bytesWritten), "B");
  r.layer("nvme.reads_per_op", ratio(reads, d(ops)), "count");
  r.layer("nvme.max_outstanding", d(maxOutstanding), "count");
  r.layer("nvme.errors", d(end.errors - begin.errors), "count");

  const core::CacheStats& c = ctrl.cache;
  r.layer("core.cache.hits", d(c.hits), "count");
  r.layer("core.cache.misses", d(c.misses), "count");
  r.layer("core.cache.busy_hits", d(c.busyHits), "count");
  r.layer("core.cache.evictions", d(c.evictions), "count");
  r.layer("core.cache.writebacks", d(c.writebacks), "count");
  r.layer("core.cache.victim_stalls", d(c.victimStalls), "count");
  r.layer("core.cache.hit_ratio", ratio(d(c.hits), d(c.hits + c.misses)),
          "ratio");
  r.layer("core.cache.busy_lines_after_drain", w.busyLinesAfterDrain,
          "count");

  const core::CtrlStats& s = ctrl.ctrl;
  r.layer("core.ctrl.prefetches", d(s.prefetches), "count");
  r.layer("core.ctrl.prefetch_coalesced_ratio",
          ratio(d(s.prefetchCoalesced), d(s.prefetches)), "ratio");
  r.layer("core.ctrl.async_reads", d(s.asyncReads), "count");
  r.layer("core.ctrl.async_writes", d(s.asyncWrites), "count");
  r.layer("core.ctrl.array_reads", d(s.arrayReads), "count");
  r.layer("core.ctrl.batch_requests_per_doorbell",
          ratio(d(s.batchRequests), d(s.batchDoorbells)), "count");
  r.layer("core.ctrl.spec_armed", d(s.speculativePrefetches), "count");
  r.layer("core.ctrl.spec_cancel_ratio",
          ratio(d(s.prefetchCancelled), d(s.speculativePrefetches)), "ratio");
  r.layer("core.ctrl.exhausted_retries", d(s.exhaustedRetries), "count");

  r.layer("core.io_queues.sq_issued", d(end.sqIssued - begin.sqIssued),
          "count");

  const double completions =
      d(end.service.completions - begin.service.completions);
  const double polls = d(end.service.pollRounds - begin.service.pollRounds);
  r.layer("core.service.completions", completions, "count");
  r.layer("core.service.poll_rounds", polls, "count");
  r.layer("core.service.cq_doorbells",
          d(end.service.cqDoorbells - begin.service.cqDoorbells), "count");
  r.layer("core.service.completions_per_poll", ratio(completions, polls),
          "ratio");

  r.layer("core.share_table.hits", d(ctrl.share.hits), "count");
  r.layer("core.share_table.inserts", d(ctrl.share.inserts), "count");

  r.layer("core.io_token.allocated", d(ctrl.tokens.allocated), "count");
  r.layer("core.io_token.high_water", d(ctrl.tokens.highWater), "count");

  r.layer("core.host.retries", d(end.retries - begin.retries), "count");
  r.layer("core.host.aborted", d(end.aborted - begin.aborted), "count");
  r.layer("core.host.watchdog_timeouts",
          d(end.watchdogTimeouts - begin.watchdogTimeouts), "count");
}

void addAppMetrics(Report& r, const apps::DlrmRunResult* dlrm,
                   const apps::kv::KvServerStats* kv) {
  const apps::DlrmRunResult noDlrm;
  const apps::kv::KvServerStats noKv;
  const apps::DlrmRunResult& a = dlrm != nullptr ? *dlrm : noDlrm;
  const apps::kv::KvServerStats& k = kv != nullptr ? *kv : noKv;
  r.layer("apps.dlrm.ssd_reads", d(a.ssdReads), "count");
  r.layer("apps.dlrm.cache_hits", d(a.cacheHits), "count");
  r.layer("apps.dlrm.cache_misses", d(a.cacheMisses), "count");
  const double chunks = d(k.prefixChunkHits + k.prefixChunkMisses);
  r.layer("apps.kvcache.prefix_hit_ratio", ratio(d(k.prefixChunkHits), chunks),
          "ratio");
  r.layer("apps.kvcache.blocks_shared", d(k.blocksShared), "count");
  r.layer("apps.kvcache.spec_issued", d(k.speculativeIssued), "count");
  r.layer("apps.kvcache.spec_cancelled", d(k.speculativeCancelled), "count");
  r.layer("apps.kvcache.rounds", d(k.rounds), "count");
}

void addLatencyMetrics(Report& r, const char* prefix, std::vector<double> ns) {
  const std::string p = prefix;
  r.layer(p + "_p50_us", percentile(ns, 0.50) / 1e3, "us");
  r.layer(p + "_p90_us", percentile(ns, 0.90) / 1e3, "us");
  r.layer(p + "_samples", d(ns.size()), "count");
}

void addStageMetrics(Report& r, Stages s) {
  r.layerHost("trace.stage_sum_mismatches", d(s.sumMismatches), "count");
  const std::pair<const char*, std::vector<double>*> stages[] = {
      {"asyncread", &s.asyncRead},
      {"waitbuf", &s.waitBuf},
      {"prefill", &s.prefill},
      {"decode", &s.decode},
  };
  for (const auto& [stage, ns] : stages) {
    const std::string p = std::string("trace.") + stage;
    r.layerHost(p + "_p50_us", percentile(*ns, 0.50) / 1e3, "us");
    r.layerHost(p + "_p90_us", percentile(*ns, 0.90) / 1e3, "us");
    r.layerHost(p + "_samples", d(ns->size()), "count");
  }
}

void addSelfTimes(Report& r, const Tracer& t) {
  static const char* const kHostSpans[] = {
      "setup",
      "run",
      "core.host.init",
      "core.ctrl.ctor",
      "core.host.startAgile",
      "core.host.runKernel",
      "core.host.drainIo",
      "core.host.stopAgile",
      "apps.dlrm.trace",
      "apps.dlrm.runDlrm",
      "apps.kvcache.ctor",
      "apps.kvcache.run",
  };
  for (const char* name : kHostSpans) {
    r.layerHost(std::string("trace.self_s.") + name, t.selfSeconds(name), "s");
  }
}

}  // namespace perfbench
