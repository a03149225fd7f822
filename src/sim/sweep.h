// Parallel sweep runner: figure benches evaluate many independent simulation
// points (batch sizes, queue-pair counts, cache sizes). Each point owns its
// own Engine, so points run on real host threads in parallel while each
// simulation stays deterministic.
//
// SweepStats is the merged per-sweep statistics report: every point records
// named counters into its own slot (thread-safe by construction — slots are
// disjoint), and after the join the report merges them into
// total/min/max-per-metric rows. Engine capacity telemetry (slab chunks,
// executed events) feeds the per-point arena sizing planned in the ROADMAP's
// multi-engine sweep scaling item.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "common/small_fn.h"

namespace agile::sim {

class Engine;

// Runs fn(i) for i in [0, n) across up to `threads` host threads
// (0 = hardware concurrency). Results must be written into caller-provided
// per-index slots; fn must not touch shared mutable state.
void parallelFor(std::size_t n, const SmallFn<void(std::size_t)>& fn,
                 unsigned threads = 0);

// Per-point event-slab arena sizing across repeated sweeps. A sweep's first
// run grows each engine's slab chunk-by-chunk; observe() records the
// capacity each point actually needed, and apply() pre-sizes the next run's
// engine with one contiguous arena of that capacity (plus headroom), so
// large multi-engine sweeps allocate once per point and stay memory-flat.
//
//   SlabArenaPlan plan(points.size());
//   for (round : rounds)
//     parallelFor(points.size(), [&](std::size_t i) {
//       Engine eng;
//       plan.apply(i, eng);        // no-op on the first round
//       ... run point i ...
//       plan.observe(i, eng);      // capacity telemetry for the next round
//     });
//
// observe()/apply() are safe to call concurrently for distinct points
// (disjoint slots, same contract as SweepStats::record).
class SlabArenaPlan {
 public:
  explicit SlabArenaPlan(std::size_t points) : events_(points, 0) {}

  // Record the slab capacity point `i`'s engine ended up with.
  void observe(std::size_t point, const Engine& engine);

  // Pre-size `engine` with the planned arena. No-op when nothing was
  // observed yet.
  void apply(std::size_t point, Engine& engine) const;

  // Planned arena capacity for one point (0 = not observed yet). The plan
  // carries kHeadroomNum/kHeadroomDen slack over the capacity that
  // overflowed it, and is a fixed point: a round that fits the planned
  // arena leaves the plan unchanged (no compounding).
  std::size_t eventsFor(std::size_t point) const { return events_[point]; }

  std::size_t points() const { return events_.size(); }

  static constexpr std::size_t kHeadroomNum = 9;  // grow to overflow * 9/8
  static constexpr std::size_t kHeadroomDen = 8;

 private:
  std::vector<std::size_t> events_;
};

// Merged statistics across the points of one sweep. Typical use:
//
//   SweepStats stats(points.size());
//   parallelFor(points.size(), [&](std::size_t i) {
//     ... run point i on its own Engine `eng`, controller `ctrl` ...
//     stats.recordEngine(i, eng);
//     stats.record(i, "cache.hits", ctrl.cache().stats().hits);
//   });
//   std::fputs(stats.render("my sweep").c_str(), stdout);
//
// record() is safe to call concurrently for distinct `i`; all other methods
// must run after the parallelFor join. Metric rows render in first-recorded
// order (scanning points in index order), so output is deterministic.
class SweepStats {
 public:
  explicit SweepStats(std::size_t points) : perPoint_(points) {}

  void record(std::size_t point, std::string_view metric,
              std::uint64_t value) {
    perPoint_[point].emplace_back(std::string(metric), value);
  }

  // Standard engine capacity/throughput telemetry for one point.
  void recordEngine(std::size_t point, const Engine& engine);

  std::size_t points() const { return perPoint_.size(); }

  struct Merged {
    std::string metric;
    std::uint64_t total = 0;
    std::uint64_t min = 0;
    std::uint64_t max = 0;
    std::size_t points = 0;  // points that recorded this metric
  };

  // One row per metric, in deterministic first-recorded order.
  std::vector<Merged> merged() const;

  // Human-readable table of the merged report.
  std::string render(std::string_view title) const;

 private:
  std::vector<std::vector<std::pair<std::string, std::uint64_t>>> perPoint_;
};

}  // namespace agile::sim
