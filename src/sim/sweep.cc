#include "sim/sweep.h"

#include <algorithm>
#include <atomic>
#include <cinttypes>
#include <cstdio>
#include <thread>

#include "sim/engine.h"

namespace agile::sim {

void parallelFor(std::size_t n, const SmallFn<void(std::size_t)>& fn,
                 unsigned threads) {
  if (n == 0) return;
  unsigned hw = threads != 0 ? threads : std::thread::hardware_concurrency();
  if (hw == 0) hw = 1;
  if (hw > n) hw = static_cast<unsigned>(n);
  if (hw == 1) {
    for (std::size_t i = 0; i < n; ++i) fn(i);
    return;
  }
  std::atomic<std::size_t> next{0};
  std::vector<std::thread> pool;
  pool.reserve(hw);
  for (unsigned t = 0; t < hw; ++t) {
    pool.emplace_back([&] {
      for (;;) {
        const std::size_t i = next.fetch_add(1, std::memory_order_relaxed);
        if (i >= n) return;
        fn(i);
      }
    });
  }
  for (auto& th : pool) th.join();
}

void SlabArenaPlan::observe(std::size_t point, const Engine& engine) {
  const std::size_t capacity = engine.slabEventCapacity();
  // Grow the plan only when the engine outgrew it (chunked growth past the
  // reserved arena, or the first observation). A round that fit inside the
  // planned arena reports capacity == plan and must leave it untouched —
  // otherwise the headroom would compound every round.
  if (capacity > events_[point]) {
    events_[point] = capacity * kHeadroomNum / kHeadroomDen;
  }
}

void SlabArenaPlan::apply(std::size_t point, Engine& engine) const {
  if (events_[point] == 0) return;
  engine.reserveEvents(events_[point]);
}

void SweepStats::recordEngine(std::size_t point, const Engine& engine) {
  record(point, "engine.events", engine.executedEvents());
  record(point, "engine.readyPath", engine.readyPathEvents());
  record(point, "engine.cancelled", engine.cancelledEvents());
  record(point, "engine.slabChunks", engine.slabChunks());
  record(point, "engine.slabEvents", engine.slabEventCapacity());
}

std::vector<SweepStats::Merged> SweepStats::merged() const {
  std::vector<Merged> rows;
  auto find = [&](const std::string& name) -> Merged* {
    for (auto& r : rows) {
      if (r.metric == name) return &r;
    }
    return nullptr;
  };
  for (const auto& point : perPoint_) {
    for (const auto& [name, value] : point) {
      Merged* row = find(name);
      if (row == nullptr) {
        rows.push_back(Merged{name, value, value, value, 1});
        continue;
      }
      row->total += value;
      if (value < row->min) row->min = value;
      if (value > row->max) row->max = value;
      ++row->points;
    }
  }
  return rows;
}

std::string SweepStats::render(std::string_view title) const {
  const auto rows = merged();
  std::string out = "-- sweep stats (" + std::string(title) + ", " +
                    std::to_string(perPoint_.size()) + " points) --\n";
  std::size_t width = 6;
  for (const auto& r : rows) width = std::max(width, r.metric.size());
  char line[256];
  std::snprintf(line, sizeof line, "%-*s %14s %14s %14s %7s\n",
                static_cast<int>(width), "metric", "total", "min", "max",
                "points");
  out += line;
  for (const auto& r : rows) {
    std::snprintf(line, sizeof line,
                  "%-*s %14" PRIu64 " %14" PRIu64 " %14" PRIu64 " %7zu\n",
                  static_cast<int>(width), r.metric.c_str(), r.total, r.min,
                  r.max, r.points);
    out += line;
  }
  return out;
}

}  // namespace agile::sim
