// Span recorder of the traced benchmark run. Spans come only from the
// benchmark's own code, around its calls into the stack: host-API spans
// (HostSpan, nested by a stack) and per-request stage spans. Each span has a
// name, a start and an end on both clocks (virtual ns and process CPU
// seconds), a parent span and a request id. Spans stay in memory and are
// written as Chrome trace-event JSON at exit (opens in Perfetto).
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "common/types.h"
#include "sim/engine.h"

namespace perfbench {

class Tracer {
 public:
  // Request spans beyond this many are counted but not kept; host-API
  // spans are always kept.
  static constexpr std::size_t kMaxRequestSpans = 30000;
  static constexpr std::int64_t kNoRequest = -1;

  struct Span {
    const char* name = "";
    std::int32_t parent = -1;
    std::int64_t request = kNoRequest;
    std::uint32_t track = 0;    // 0: host-API calls; >0: a request lane/slot
    bool hostApi = false;       // self time is computed over these only
    agile::SimTime vStart = 0;
    agile::SimTime vEnd = 0;
    double hStart = -1.0;       // -1: not observed on the host clock
    double hEnd = -1.0;
  };

  // Host-API spans, nested: open() parents the span on the innermost one
  // still open.
  std::int32_t open(const char* name, agile::SimTime vNow);
  void close(std::int32_t id, agile::SimTime vNow);

  // A finished request span; returns its id, or -1 if it was not kept.
  // Every call counts in requestSpans(), kept or not.
  std::int32_t request(const char* name, std::int32_t parent,
                       std::int64_t request, std::uint32_t track,
                       agile::SimTime vStart, agile::SimTime vEnd,
                       double hStart, double hEnd);

  const std::vector<Span>& spans() const { return spans_; }
  std::uint64_t requestSpans() const { return requestSpans_; }

  // Host self time of a span name: summed over its host-API spans, each
  // span's duration minus the part its host-API children cover.
  double selfSeconds(const std::string& name) const;

  // Chrome trace-event JSON: pid 1 is the virtual clock, pid 2 the host
  // CPU clock. False if the file cannot be written.
  bool writeChrome(const std::string& path) const;

 private:
  std::vector<Span> spans_;
  std::vector<std::int32_t> stack_;
  std::uint64_t requestSpans_ = 0;
  std::uint64_t keptRequestSpans_ = 0;
};

// RAII host-API span; a no-op when the tracer is null. The engine may be
// bound after construction (the span around AgileHost construction starts
// before the engine exists).
class HostSpan {
 public:
  HostSpan(Tracer* t, const char* name, const agile::sim::Engine* e);
  ~HostSpan();
  HostSpan(const HostSpan&) = delete;
  HostSpan& operator=(const HostSpan&) = delete;

  void bind(const agile::sim::Engine* e) { engine_ = e; }
  // The span's id, -1 when untraced.
  std::int32_t id() const { return id_; }

 private:
  agile::SimTime vnow() const { return engine_ ? engine_->now() : 0; }

  Tracer* tracer_;
  const agile::sim::Engine* engine_;
  std::int32_t id_ = -1;
};

}  // namespace perfbench
