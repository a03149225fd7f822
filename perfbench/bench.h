// Shared pieces of the repository benchmark (see README.md): the metric
// report, the host CPU clock, percentiles, the per-layer measurement window,
// and the three workload entry points.
//
// Every number a workload reports is either a virtual-time result (exact for
// a given seed, folded into the run's digest) or a host-time cost (process
// CPU seconds, never digested).
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "apps/dlrm/dlrm.h"
#include "apps/kvcache/kvcache.h"
#include "core/ctrl.h"
#include "core/host.h"
#include "perfbench/tracer.h"

namespace perfbench {

using agile::SimTime;

// Process CPU seconds (CLOCK_PROCESS_CPUTIME_ID).
double cpuSeconds();
// getrusage max RSS of this process, in MB.
double peakRssMb();

// Nearest-rank percentile, q in (0, 1]; reorders `v`. 0 when `v` is empty.
double percentile(std::vector<double>& v, double q);
double median(std::vector<double> v);

enum class Section { kEndToEnd, kPerLayer };

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
  Section section = Section::kPerLayer;
  // Virtual-time results repeat exactly for a seed and go into the digest;
  // host costs and trace-only numbers do not.
  bool digested = false;
};

class Report {
 public:
  void endToEnd(std::string name, double value, std::string unit,
                bool virtualClock);
  // A per-layer count, ratio or virtual latency present in every run.
  void layer(std::string name, double value, std::string unit);
  // A per-layer number that is not a virtual result of every run: host
  // cost, and what only the traced run produces (span stages, host self
  // time, tracing overhead).
  void layerHost(std::string name, double value, std::string unit);

  const std::vector<Metric>& all() const { return metrics_; }
  // Order-stable FNV-1a fold over "name=value" of every digested metric.
  std::uint64_t digest() const;

 private:
  std::vector<Metric> metrics_;
};

// Outcome of one workload run: metrics plus failure accounting.
struct RunResult {
  Report report;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<std::string> problems;
  double hostS = 0.0;               // CPU seconds, end of set-up to end of run
  std::vector<double> setupS;       // CPU seconds of each set-up

  // Record `ops` failed operations with a reason; 0 ops records nothing.
  void fail(std::uint64_t ops, const std::string& why);
};

struct RunConfig {
  std::uint64_t seed = 1;
  std::uint32_t seconds = 10;   // sizes the timed phase (fixed work per value)
  std::uint32_t setupReps = 1;  // set-ups timed; the last one is run
  Tracer* tracer = nullptr;     // null: untraced run
};

RunResult runRandread(const RunConfig& cfg);
RunResult runDlrmAsync(const RunConfig& cfg);
RunResult runKvServe(const RunConfig& cfg);

inline agile::core::CtrlConfig ctrlConfig(std::uint32_t cacheLines) {
  agile::core::CtrlConfig c;
  c.cacheLines = cacheLines;
  return c;
}

// Builds the stack `reps` times, timing each build on the CPU clock, and
// returns the last one; earlier stacks are destroyed untimed.
template <class Build>
auto timedSetups(std::uint32_t reps, std::vector<double>* times, Build build) {
  decltype(build()) stack;
  for (std::uint32_t i = 0; i < reps; ++i) {
    stack.reset();
    const double t0 = cpuSeconds();
    stack = build();
    times->push_back(cpuSeconds() - t0);
  }
  return stack;
}

// ------------------------------------------------ measurement window ----

// Lifetime counters of the stack that never reset; a window is the
// difference between two snapshots.
struct Counters {
  SimTime now = 0;
  std::uint64_t events = 0;
  std::uint64_t readyPath = 0;
  std::uint64_t cancelled = 0;
  std::uint64_t computeBusyNs = 0;  // summed over compute (non-service) SMs
  std::uint64_t segments = 0;       // summed over every SM
  std::uint64_t reads = 0;
  std::uint64_t writes = 0;
  std::uint64_t bytesRead = 0;
  std::uint64_t bytesWritten = 0;
  std::uint64_t errors = 0;
  std::uint64_t sqIssued = 0;
  agile::core::ServiceStats service;
  std::uint64_t retries = 0;
  std::uint64_t aborted = 0;
  std::uint64_t watchdogTimeouts = 0;

  static Counters take(agile::core::AgileHost& host);
};

// Builds an AgileHost with one SSD and initializes its queues, inside a
// "core.host.init" span.
std::unique_ptr<agile::core::AgileHost> buildHost(
    Tracer* t, const agile::core::HostConfig& hc,
    const agile::nvme::SsdConfig& ssd);

// The timed phase of a workload, from the end of set-up to the end of the
// run. The counted window opens after the untimed warm-up and closes after
// drainIo; stopAgile is timed but outside the window.
struct Window {
  Counters begin;
  Counters end;
  agile::core::CtrlSnapshot ctrl;  // controller stats over the window
  std::uint32_t busyLinesAfterDrain = 0;
  bool drained = false;
  double hostS = 0.0;  // CPU seconds of the whole timed phase
};

template <class Ctrl, class Warmup, class Body>
Window timedRun(agile::core::AgileHost& host, Ctrl& ctrl, Tracer* t,
                Warmup warmup, Body body) {
  Window w;
  const agile::sim::Engine* e = &host.engine();
  const double start = cpuSeconds();
  {
    HostSpan run(t, "run", e);
    warmup();
    ctrl.resetStats();
    w.begin = Counters::take(host);
    body();
    {
      HostSpan span(t, "core.host.drainIo", e);
      w.drained = host.drainIo();
    }
    w.end = Counters::take(host);
    w.ctrl = ctrl.snapshot();
    w.busyLinesAfterDrain = ctrl.cache().busyLines();
    HostSpan span(t, "core.host.stopAgile", e);
    host.stopAgile();
  }
  w.hostS = cpuSeconds() - start;
  return w;
}

// Per-layer metrics of everything below the apps over the window; `ops` is
// the workload's op count, the base of the per-op ratios.
void addStackMetrics(Report& r, agile::core::AgileHost& host, const Window& w,
                     std::uint64_t ops);

// apps.* metrics; a workload that does not run an app passes null and
// reports its counts as 0.
void addAppMetrics(Report& r, const agile::apps::DlrmRunResult* dlrm,
                   const agile::apps::kv::KvServerStats* kv);

// <prefix>_p50_us, _p90_us and _samples of virtual latencies given in ns.
// An empty sample set reports 0 with a count of 0: the latency does not
// apply to the workload.
void addLatencyMetrics(Report& r, const char* prefix, std::vector<double> ns);

// Virtual stage latencies (ns) of the traced run; a workload leaves the
// stages it does not have empty.
struct Stages {
  std::uint64_t sumMismatches = 0;  // requests whose stages miss the latency
  std::vector<double> asyncRead;
  std::vector<double> waitBuf;
  std::vector<double> prefill;
  std::vector<double> decode;
};
// trace.stage_sum_mismatches and trace.<stage>_p50_us/_p90_us/_samples.
void addStageMetrics(Report& r, Stages s);

// trace.self_s.* per host span name, in a fixed order.
void addSelfTimes(Report& r, const Tracer& t);

}  // namespace perfbench
