#include "perfbench/tracer.h"

#include <cinttypes>
#include <cstdio>

#include "perfbench/bench.h"

namespace perfbench {

std::int32_t Tracer::open(const char* name, agile::SimTime vNow) {
  Span s;
  s.name = name;
  s.parent = stack_.empty() ? -1 : stack_.back();
  s.hostApi = true;
  s.vStart = vNow;
  s.hStart = cpuSeconds();
  spans_.push_back(s);
  const auto id = static_cast<std::int32_t>(spans_.size() - 1);
  stack_.push_back(id);
  return id;
}

void Tracer::close(std::int32_t id, agile::SimTime vNow) {
  AGILE_CHECK_MSG(!stack_.empty() && stack_.back() == id,
                  "host spans must close innermost first");
  stack_.pop_back();
  Span& s = spans_[static_cast<std::size_t>(id)];
  s.vEnd = vNow;
  s.hEnd = cpuSeconds();
}

std::int32_t Tracer::request(const char* name, std::int32_t parent,
                             std::int64_t request, std::uint32_t track,
                             agile::SimTime vStart, agile::SimTime vEnd,
                             double hStart, double hEnd) {
  ++requestSpans_;
  if (keptRequestSpans_ >= kMaxRequestSpans) return -1;
  ++keptRequestSpans_;
  spans_.push_back(Span{name, parent, request, track, false, vStart, vEnd,
                        hStart, hEnd});
  return static_cast<std::int32_t>(spans_.size() - 1);
}

double Tracer::selfSeconds(const std::string& name) const {
  std::vector<double> childSeconds(spans_.size(), 0.0);
  for (const Span& s : spans_) {
    if (s.hostApi && s.parent >= 0) {
      childSeconds[static_cast<std::size_t>(s.parent)] += s.hEnd - s.hStart;
    }
  }
  double self = 0.0;
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    if (s.hostApi && name == s.name) {
      self += (s.hEnd - s.hStart) - childSeconds[i];
    }
  }
  return self;
}

bool Tracer::writeChrome(const std::string& path) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  std::fprintf(f, "{\"displayTimeUnit\": \"ns\", \"traceEvents\": [\n");
  std::fprintf(f,
               "{\"name\": \"process_name\", \"ph\": \"M\", \"pid\": 1, "
               "\"args\": {\"name\": \"virtual clock (simulated time)\"}},\n"
               "{\"name\": \"process_name\", \"ph\": \"M\", \"pid\": 2, "
               "\"args\": {\"name\": \"host clock (process CPU time)\"}}");
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    const auto event = [&](int pid, double tsUs, double durUs) {
      std::fprintf(f,
                   ",\n{\"name\": \"%s\", \"cat\": \"%s\", \"ph\": \"X\", "
                   "\"pid\": %d, \"tid\": %u, \"ts\": %.3f, \"dur\": %.3f, "
                   "\"args\": {\"span\": %zu, \"parent\": %d, "
                   "\"request\": %" PRId64 "}}",
                   s.name, s.hostApi ? "host_api" : "request", pid, s.track,
                   tsUs, durUs, i, s.parent, s.request);
    };
    event(1, static_cast<double>(s.vStart) / 1e3,
          static_cast<double>(s.vEnd - s.vStart) / 1e3);
    if (s.hStart >= 0.0) {
      event(2, s.hStart * 1e6, (s.hEnd - s.hStart) * 1e6);
    }
  }
  std::fprintf(f, "\n]}\n");
  return std::fclose(f) == 0;
}

HostSpan::HostSpan(Tracer* t, const char* name, const agile::sim::Engine* e)
    : tracer_(t), engine_(e) {
  if (tracer_ != nullptr) id_ = tracer_->open(name, vnow());
}

HostSpan::~HostSpan() {
  if (tracer_ != nullptr) tracer_->close(id_, vnow());
}

}  // namespace perfbench
