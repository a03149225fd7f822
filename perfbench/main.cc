// agile_perfbench: the repository benchmark (see README.md).
//
//   agile_perfbench --workload <randread|dlrm_async|kv_serve> --seed <n>
//                   --seconds <s> --trace <0|1> [--trace-out <file.json>]
//
// Untraced (--trace 0): sets the stack up several times (setup_s is their
// median), runs the workload once and prints the end-to-end metrics.
// Traced (--trace 1): runs the workload untraced and then traced, checks
// that both print the same virtual digest, writes the traced run's spans as
// Chrome trace-event JSON to --trace-out, and prints the per-layer metrics.
//
// Every metric is printed as a "metric <name> <value> <unit>" line; the last
// line of stdout is one JSON object {correct, attempted, failed, metrics}
// holding the metrics of the selected mode.
#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <string>

#include "perfbench/bench.h"

namespace {

using namespace perfbench;

// Set-ups timed per untraced run; setup_s is their median.
constexpr std::uint32_t kSetupReps = 9;

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  std::uint32_t seconds = 10;
  bool trace = false;
  std::string traceOut = "perfbench-trace.json";
};

[[noreturn]] void usage(const char* why) {
  std::fprintf(stderr,
               "agile_perfbench: %s\nusage: agile_perfbench --workload "
               "<randread|dlrm_async|kv_serve> --seed <n> --seconds <s> "
               "--trace <0|1> [--trace-out <file.json>]\n",
               why);
  std::exit(2);
}

std::uint64_t parseUint(const char* s, const char* flag) {
  char* end = nullptr;
  const unsigned long long v = std::strtoull(s, &end, 10);
  if (end == s || *end != '\0') usage(flag);
  return v;
}

Args parse(int argc, char** argv) {
  Args a;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) usage("missing value");
    const char* v = argv[++i];
    if (flag == "--workload") {
      a.workload = v;
    } else if (flag == "--seed") {
      a.seed = parseUint(v, "bad --seed");
    } else if (flag == "--seconds") {
      const std::uint64_t s = parseUint(v, "bad --seconds");
      if (s < 1 || s > 3600) usage("--seconds out of range");
      a.seconds = static_cast<std::uint32_t>(s);
    } else if (flag == "--trace") {
      const std::uint64_t t = parseUint(v, "bad --trace");
      if (t > 1) usage("--trace must be 0 or 1");
      a.trace = t == 1;
    } else if (flag == "--trace-out") {
      a.traceOut = v;
    } else {
      usage("unknown flag");
    }
  }
  return a;
}

using Workload = RunResult (*)(const RunConfig&);

Workload lookup(const std::string& name) {
  if (name == "randread") return runRandread;
  if (name == "dlrm_async") return runDlrmAsync;
  if (name == "kv_serve") return runKvServe;
  usage("unknown workload");
}

void printMetrics(const Report& r) {
  for (const Metric& m : r.all()) {
    std::printf("metric %s %.17g %s\n", m.name.c_str(), m.value,
                m.unit.c_str());
  }
}

void printResult(bool correct, std::uint64_t attempted, std::uint64_t failed,
                 const Report& r, Section section) {
  std::printf("{\"correct\": %s, \"attempted\": %" PRIu64
              ", \"failed\": %" PRIu64 ", \"metrics\": {",
              correct ? "true" : "false", attempted, failed);
  const char* sep = "";
  for (const Metric& m : r.all()) {
    if (m.section != section) continue;
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}", sep,
                m.name.c_str(), m.value, m.unit.c_str());
    sep = ", ";
  }
  std::printf("}}\n");
}

void printProblems(const char* run, const RunResult& r) {
  for (const std::string& p : r.problems) {
    std::printf("FAILED (%s run): %s\n", run, p.c_str());
  }
}

}  // namespace

int main(int argc, char** argv) {
  const Args a = parse(argc, argv);
  if (a.workload.empty()) usage("--workload is required");
  const Workload run = lookup(a.workload);
  std::printf("workload %s seed %" PRIu64 " seconds %u trace %d\n",
              a.workload.c_str(), a.seed, a.seconds, a.trace ? 1 : 0);

  if (!a.trace) {
    RunResult res = run({a.seed, a.seconds, kSetupReps, nullptr});
    Report& r = res.report;
    // host_s is printed on every run but declared per-layer (no bound): its
    // run-to-run spread on a shared VM exceeds the largest end-to-end bound.
    r.layerHost("host_s", res.hostS, "s");
    r.endToEnd("setup_s", median(res.setupS), "s", false);
    r.endToEnd("peak_rss_mb", peakRssMb(), "MB", false);
    printMetrics(r);
    std::printf("setup_reps %zu\n", res.setupS.size());
    std::printf("digest %016" PRIx64 "\n", r.digest());
    printProblems("untraced", res);
    std::fflush(stdout);
    printResult(res.failed == 0, res.attempted, res.failed, r,
                Section::kEndToEnd);
    return 0;
  }

  const RunResult base = run({a.seed, a.seconds, 1, nullptr});
  Tracer tracer;
  RunResult res = run({a.seed, a.seconds, 1, &tracer});
  Report& r = res.report;
  const bool sameDigest = base.report.digest() == r.digest();
  r.layerHost("host_s", base.hostS, "s");
  r.layerHost("trace.overhead_s", res.hostS - base.hostS, "s");
  r.layerHost("trace.request_spans",
              static_cast<double>(tracer.requestSpans()), "count");
  addSelfTimes(r, tracer);
  printMetrics(r);
  std::printf("digest %016" PRIx64 " (untraced run: %016" PRIx64 ")\n",
              r.digest(), base.report.digest());
  const bool written = tracer.writeChrome(a.traceOut);
  std::printf("trace %s %s (%zu spans kept)\n", a.traceOut.c_str(),
              written ? "written" : "NOT WRITTEN", tracer.spans().size());
  printProblems("untraced", base);
  printProblems("traced", res);
  if (!sameDigest) std::printf("FAILED: traced digest differs\n");
  std::fflush(stdout);
  printResult(sameDigest && written && base.failed == 0 && res.failed == 0,
              base.attempted + res.attempted, base.failed + res.failed, r,
              Section::kPerLayer);
  return 0;
}
