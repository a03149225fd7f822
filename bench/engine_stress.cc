// Events/sec harness for the DES hot path.
//
// agile-lint: allow-file(wall-clock): events/sec vs the legacy engine is a
// host wall-clock measurement by definition; determinism is gated on the
// per-workload execution hash, never on wall time.
//
// Runs eight synthetic event workloads — chosen to mirror how the figure
// benches actually load the engine — against (a) the production wheel/slab/
// ready-queue engine in sim/engine.h and (b) a faithful copy of the
// pre-refactor engine (std::function events on a std::priority_queue with
// lazy cancellation, WaitList as a vector with front erasure), compiled into
// this binary as the baseline.
//
// Workloads:
//   timer_churn   self-rescheduling timers with pseudorandom delays and a
//                 48-byte capture (the NVMe completion / doorbell pattern:
//                 timer-structure bound).
//   timer_dense   delays quantized onto shared ticks, piling many timers
//                 into the same wheel bucket (doorbell-batch completions).
//   timer_horizon delays spanning every wheel level and the overflow heap
//                 (mixed poll backoffs / NVMe latencies / epoch timers);
//                 exercises cascades at level rollover.
//   timer_cancel  schedule-then-cancel churn over a sliding window (the
//                 speculative-prefetch / timeout-arm pattern: most timers
//                 are cancelled before they fire).
//   async_pipeline K request chains mixing latency timers, WaitList wakes
//                 and speculative arm/cancel pairs (the IoToken submit /
//                 wait / cancel surface of core/ctrl.h at engine level).
//   zero_delay    fan of scheduleAfter(0, ...) cascades (the notify/wakeup
//                 pattern: ready-queue fast path vs heap).
//   notify_one    a service-like FIFO hand-off chain over one big WaitList
//                 with re-parking (O(1) intrusive pop vs vector-front erase).
//   notify_all    rounds of park-everyone / notifyAll wake storms (the cache
//                 line onFillComplete pattern).
//
// Each workload folds every callback invocation (and every cancel verdict)
// into an order-sensitive hash on both engines; a hash mismatch means the
// refactor changed execution order and the run aborts. Results go to stdout
// and BENCH_engine.json (see bench/README.md for the schema).
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <functional>
#include <queue>
#include <string>
#include <unordered_set>
#include <vector>

#include "common/check.h"
#include "common/types.h"
#include "sim/engine.h"

namespace agile::bench {
namespace {

// --------------------------------------------------------------------------
// Baseline: the pre-refactor engine, verbatim semantics.
// --------------------------------------------------------------------------

class LegacyEngine {
 public:
  SimTime now() const { return now_; }

  void scheduleAt(SimTime t, std::function<void()> fn) {
    AGILE_CHECK_MSG(t >= now_, "cannot schedule event in the virtual past");
    events_.push(Event{t, nextSeq_++, std::move(fn)});
  }
  void scheduleAfter(SimTime delay, std::function<void()> fn) {
    scheduleAt(now_ + delay, std::move(fn));
  }

  // Cancellable schedule: tracks the seq in a live set (cancel-workload
  // only, so the plain workloads pay nothing beyond an empty() branch).
  std::uint64_t scheduleAfterCancellable(SimTime delay,
                                         std::function<void()> fn) {
    const std::uint64_t seq = nextSeq_;
    live_.insert(seq);
    scheduleAfter(delay, std::move(fn));
    return seq;
  }

  // Textbook lazy heap cancellation: mark the seq, skip it at pop time.
  bool cancel(std::uint64_t seq) {
    if (live_.erase(seq) == 0) return false;
    cancelled_.insert(seq);
    return true;
  }

  void runToCompletion() {
    while (step()) {
    }
  }

  std::uint64_t executedEvents() const { return executed_; }

 private:
  struct Event {
    SimTime time;
    std::uint64_t seq;
    std::function<void()> fn;
  };
  struct Later {
    bool operator()(const Event& a, const Event& b) const {
      if (a.time != b.time) return a.time > b.time;
      return a.seq > b.seq;
    }
  };

  bool step() {
    while (!events_.empty()) {
      Event ev = std::move(const_cast<Event&>(events_.top()));
      events_.pop();
      if (!cancelled_.empty() && cancelled_.erase(ev.seq) != 0) continue;
      if (!live_.empty()) live_.erase(ev.seq);
      now_ = ev.time;
      ++executed_;
      ev.fn();
      return true;
    }
    return false;
  }

  SimTime now_ = 0;
  std::uint64_t nextSeq_ = 0;
  std::uint64_t executed_ = 0;
  std::priority_queue<Event, std::vector<Event>, Later> events_;
  std::unordered_set<std::uint64_t> live_;
  std::unordered_set<std::uint64_t> cancelled_;
};

class LegacyWaitList {
 public:
  void park(std::function<void()> wake) { waiters_.push_back(std::move(wake)); }

  void notifyAll(LegacyEngine& engine) {
    if (waiters_.empty()) return;
    auto woken = std::move(waiters_);
    waiters_.clear();
    for (auto& w : woken) engine.scheduleAfter(0, std::move(w));
  }

  void notifyOne(LegacyEngine& engine) {
    if (waiters_.empty()) return;
    auto w = std::move(waiters_.front());
    waiters_.erase(waiters_.begin());
    engine.scheduleAfter(0, std::move(w));
  }

 private:
  std::vector<std::function<void()>> waiters_;
};

// --------------------------------------------------------------------------
// Workloads (templated over engine/waitlist so both implementations run the
// byte-identical schedule).
// --------------------------------------------------------------------------

constexpr std::uint64_t kFnv = 1099511628211ull;

// Self-rescheduling timer with a deliberately fat capture (48 bytes — the
// size class of the SSD model's completion lambdas), pseudorandom delay.
template <class E>
struct Timer {
  E* eng;
  std::uint64_t* remaining;
  std::uint64_t* hash;
  std::uint64_t rng;
  std::uint64_t pad0, pad1;  // pad to the hot lambdas' capture size

  void operator()() {
    *hash = *hash * kFnv ^ rng;
    if (*remaining == 0) return;
    --*remaining;
    rng = rng * 6364136223846793005ull + 1442695040888963407ull;
    eng->scheduleAfter(1 + static_cast<SimTime>((rng >> 33) % 997),
                       Timer{*this});
  }
};

template <class E>
std::uint64_t timerChurn(E& eng, std::uint64_t events, std::uint64_t fan,
                         std::uint64_t* hash) {
  std::uint64_t remaining = events;
  for (std::uint64_t i = 0; i < fan; ++i) {
    eng.scheduleAfter(1 + static_cast<SimTime>(i % 97),
                      Timer<E>{&eng, &remaining, hash, i * 0x9e3779b97f4a7c15ull + 1,
                               0, 0});
  }
  eng.runToCompletion();
  return eng.executedEvents();
}

// Dense same-tick timers: delays quantized to multiples of 64 ns so many
// concurrent timers collapse onto the same wheel bucket / heap timestamp
// (the doorbell-batch completion pattern).
template <class E>
struct DenseTimer {
  E* eng;
  std::uint64_t* remaining;
  std::uint64_t* hash;
  std::uint64_t rng;
  std::uint64_t pad0, pad1;  // pad to the hot lambdas' capture size

  void operator()() {
    *hash = *hash * kFnv ^ rng;
    if (*remaining == 0) return;
    --*remaining;
    rng = rng * 6364136223846793005ull + 1442695040888963407ull;
    eng->scheduleAfter(64 * (1 + static_cast<SimTime>((rng >> 33) % 16)),
                      DenseTimer{*this});
  }
};

template <class E>
std::uint64_t timerDense(E& eng, std::uint64_t events, std::uint64_t fan,
                         std::uint64_t* hash) {
  std::uint64_t remaining = events;
  for (std::uint64_t i = 0; i < fan; ++i) {
    eng.scheduleAfter(64 * (1 + static_cast<SimTime>(i % 16)),
                      DenseTimer<E>{&eng, &remaining, hash,
                                    i * 0x9e3779b97f4a7c15ull + 1, 0, 0});
  }
  eng.runToCompletion();
  return eng.executedEvents();
}

// Long-horizon timers: delays drawn as pseudorandom powers of two from 1 ns
// to ~8.6 s, touching every wheel level, forcing cascades at level
// rollovers, and spilling past the wheel horizon into the overflow heap.
template <class E>
struct HorizonTimer {
  E* eng;
  std::uint64_t* remaining;
  std::uint64_t* hash;
  std::uint64_t rng;
  std::uint64_t pad0, pad1;

  void operator()() {
    *hash = *hash * kFnv ^ rng;
    if (*remaining == 0) return;
    --*remaining;
    rng = rng * 6364136223846793005ull + 1442695040888963407ull;
    const unsigned exp = static_cast<unsigned>((rng >> 33) % 34);  // 0..33
    const SimTime delay = static_cast<SimTime>(
        (std::uint64_t{1} << exp) + ((rng >> 40) % 997));
    eng->scheduleAfter(delay, HorizonTimer{*this});
  }
};

template <class E>
std::uint64_t timerHorizon(E& eng, std::uint64_t events, std::uint64_t fan,
                           std::uint64_t* hash) {
  std::uint64_t remaining = events;
  for (std::uint64_t i = 0; i < fan; ++i) {
    eng.scheduleAfter(1 + static_cast<SimTime>(i % 97),
                      HorizonTimer<E>{&eng, &remaining, hash,
                                      i * 0x9e3779b97f4a7c15ull + 1, 0, 0});
  }
  eng.runToCompletion();
  return eng.executedEvents();
}

// --- cancellable-schedule shims (uniform surface over both engines) ------

template <class F>
std::uint64_t scheduleCancellable(LegacyEngine& e, SimTime delay, F&& fn) {
  return e.scheduleAfterCancellable(delay, std::forward<F>(fn));
}
template <class F>
sim::TimerId scheduleCancellable(sim::Engine& e, SimTime delay, F&& fn) {
  return e.scheduleAfter(delay, std::forward<F>(fn));
}

// Schedule-then-cancel churn: a driver arms one victim timer per round and
// cancels the victim armed `window` rounds earlier — which may or may not
// have fired yet, and the cancel verdict is folded into the hash so both
// engines must agree on exactly which timers died. This is the
// speculative-prefetch / I/O-timeout pattern where most timers never fire.
template <class E>
std::uint64_t timerCancel(E& eng, std::uint64_t rounds, std::uint64_t window,
                          std::uint64_t* hash) {
  struct Victim {
    std::uint64_t* hash;
    std::uint64_t id;
    void operator()() const { *hash = *hash * kFnv ^ id; }
  };
  using Id = decltype(scheduleCancellable(eng, SimTime{1},
                                          Victim{nullptr, 0}));
  std::vector<Id> ring(window);
  std::uint64_t remaining = rounds;
  std::uint64_t armed = 0;
  std::uint64_t rng = 0x9e3779b97f4a7c15ull;
  std::function<void()> driver = [&] {
    *hash = *hash * kFnv ^ 0xD21Fu;
    if (remaining == 0) return;
    --remaining;
    rng = rng * 6364136223846793005ull + 1442695040888963407ull;
    const std::uint64_t i = armed++;
    const SimTime victimDelay = 3 + static_cast<SimTime>((rng >> 33) % 1021);
    const Id id =
        scheduleCancellable(eng, victimDelay, Victim{hash, i + 1});
    const std::size_t slot = static_cast<std::size_t>(i % window);
    if (i >= window) {
      const bool hit = eng.cancel(ring[slot]);
      *hash = *hash * kFnv ^ (hit ? 0xC0FFEEull : 0xDEADull);
    }
    ring[slot] = id;
    rng = rng * 6364136223846793005ull + 1442695040888963407ull;
    eng.scheduleAfter(1 + static_cast<SimTime>((rng >> 33) % 97), driver);
  };
  eng.scheduleAfter(1, driver);
  eng.runToCompletion();
  return eng.executedEvents();
}

// Token-pipeline pattern (the ctrl's async surface at engine level): K
// independent request chains; each round schedules a "device latency" timer
// whose completion wakes a consumer parked on a WaitList (the barrier-wake
// path), and every other round arms a speculative timer that is cancelled
// two rounds later — a timeout armed and then disarmed, like the I/O
// watchdog a completion cancels. Cancel verdicts and stray speculative fires
// fold into the hash, so both engines must agree on exactly which
// speculations survived.
template <class E, class WL>
std::uint64_t asyncPipeline(E& eng, std::uint64_t rounds,
                            std::uint64_t chains, std::uint64_t* hash) {
  struct Spec {
    std::uint64_t* hash;
    std::uint64_t id;
    void operator()() const { *hash = *hash * kFnv ^ (0x5becull + id); }
  };
  using Id = decltype(scheduleCancellable(eng, SimTime{1}, Spec{nullptr, 0}));

  struct Shared {
    E* eng;
    WL* ready;
    std::uint64_t* remaining;
    std::uint64_t* hash;
    std::vector<Id>* specRing;
  };

  struct Request {
    Shared* sh;
    std::uint64_t chain;
    std::uint64_t rng;
    std::uint64_t round;

    void operator()() {
      Shared& s = *sh;
      *s.hash = *s.hash * kFnv ^ (chain * 131 + round);
      if (*s.remaining == 0) return;
      --*s.remaining;
      rng = rng * 6364136223846793005ull + 1442695040888963407ull;
      // Speculative arm/cancel window over a per-chain 2-slot ring.
      const std::size_t slot = static_cast<std::size_t>(chain * 2 + round % 2);
      if (round >= 2) {
        const bool hit = s.eng->cancel((*s.specRing)[slot]);
        *s.hash = *s.hash * kFnv ^ (hit ? 0xCA11ull : 0xF1EDull);
      }
      if (round % 2 == 0) {
        (*s.specRing)[slot] = scheduleCancellable(
            *s.eng, 2 + static_cast<SimTime>((rng >> 40) % 701),
            Spec{s.hash, chain * 977 + round});
      }
      // Completion wakes the parked consumer, which re-issues next round
      // (the waitBuf -> barrier-notify -> resubmit path).
      rng = rng * 6364136223846793005ull + 1442695040888963407ull;
      const SimTime latency = 1 + static_cast<SimTime>((rng >> 33) % 509);
      Request next{*this};
      ++next.round;
      s.ready->park(std::move(next));
      s.eng->scheduleAfter(latency,
                           [sh = this->sh] { sh->ready->notifyOne(*sh->eng); });
    }
  };

  WL ready;
  std::uint64_t remaining = rounds;
  std::vector<Id> specRing(chains * 2);
  Shared sh{&eng, &ready, &remaining, hash, &specRing};
  for (std::uint64_t c = 0; c < chains; ++c) {
    eng.scheduleAfter(1 + static_cast<SimTime>(c % 61),
                      Request{&sh, c, c * 0x9e3779b97f4a7c15ull + 7, 0});
  }
  eng.runToCompletion();
  return eng.executedEvents();
}

// Fan of zero-delay cascades: the scheduleAfter(0, ...) wake path.
template <class E>
struct Cascade {
  E* eng;
  std::uint64_t* remaining;
  std::uint64_t* hash;
  std::uint64_t id;

  void operator()() {
    *hash = *hash * kFnv ^ id;
    if (*remaining == 0) return;
    --*remaining;
    eng->scheduleAfter(0, Cascade{*this});
  }
};

template <class E>
std::uint64_t zeroDelay(E& eng, std::uint64_t events, std::uint64_t fan,
                        std::uint64_t* hash) {
  std::uint64_t remaining = events;
  for (std::uint64_t i = 0; i < fan; ++i) {
    eng.scheduleAfter(0, Cascade<E>{&eng, &remaining, hash, i + 1});
  }
  eng.runToCompletion();
  return eng.executedEvents();
}

// FIFO hand-off chain: W parked waiters; each wake re-parks itself at the
// tail and wakes the (new) head, like the service releasing SQE waiters.
template <class E, class WL>
struct ChainWaiter {
  E* eng;
  WL* wl;
  std::uint64_t* remaining;
  std::uint64_t* hash;
  std::uint64_t id;

  void operator()() {
    *hash = *hash * kFnv ^ id;
    if (*remaining == 0) return;
    --*remaining;
    wl->park(ChainWaiter{*this});
    wl->notifyOne(*eng);
  }
};

template <class E, class WL>
std::uint64_t notifyOneChain(E& eng, std::uint64_t events,
                             std::uint64_t waiters, std::uint64_t* hash) {
  WL wl;
  std::uint64_t remaining = events;
  for (std::uint64_t i = 0; i < waiters; ++i) {
    wl.park(ChainWaiter<E, WL>{&eng, &wl, &remaining, hash, i + 1});
  }
  eng.scheduleAfter(1, [&eng, &wl] { wl.notifyOne(eng); });
  eng.runToCompletion();
  return eng.executedEvents();
}

// notifyAll wake storms: every waiter re-parks on wake; a driver notifies
// the whole list each round (the onFillComplete readyWaiters pattern).
template <class E, class WL>
struct StormWaiter {
  WL* wl;
  std::uint64_t* hash;
  std::uint64_t id;

  void operator()() {
    *hash = *hash * kFnv ^ id;
    wl->park(StormWaiter{*this});
  }
};

template <class E, class WL>
struct StormDriver {
  E* eng;
  WL* wl;
  std::uint64_t* rounds;
  std::uint64_t* hash;

  void operator()() {
    *hash = *hash * kFnv ^ 0x5157u;
    if (*rounds == 0) return;
    --*rounds;
    wl->notifyAll(*eng);
    eng->scheduleAfter(1, StormDriver{*this});
  }
};

template <class E, class WL>
std::uint64_t notifyAllStorm(E& eng, std::uint64_t rounds,
                             std::uint64_t waiters, std::uint64_t* hash) {
  WL wl;
  for (std::uint64_t i = 0; i < waiters; ++i) {
    wl.park(StormWaiter<E, WL>{&wl, hash, i + 1});
  }
  std::uint64_t r = rounds;
  eng.scheduleAfter(1, StormDriver<E, WL>{&eng, &wl, &r, hash});
  eng.runToCompletion();
  return eng.executedEvents();
}

// --------------------------------------------------------------------------
// Harness
// --------------------------------------------------------------------------

struct Result {
  std::string name;
  std::uint64_t events = 0;
  double legacyNs = 0, newNs = 0;
  double legacyEps = 0, newEps = 0;
  double speedup = 0;
  bool deterministicMatch = false;
};

double wallNs(const std::chrono::steady_clock::time_point& a,
              const std::chrono::steady_clock::time_point& b) {
  return static_cast<double>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(b - a).count());
}

// Runs `fn(engine, &hash)` once per engine type, `reps` times, keeping the
// fastest wall time (events per run are identical by construction).
template <class LegacyFn, class NewFn>
Result measure(const char* name, int reps, LegacyFn&& legacy, NewFn&& fresh) {
  Result r;
  r.name = name;
  std::uint64_t legacyHash = 0, newHash = 0;
  for (int i = 0; i < reps; ++i) {
    {
      LegacyEngine eng;
      std::uint64_t h = kFnv;
      const auto t0 = std::chrono::steady_clock::now();
      const std::uint64_t ev = legacy(eng, &h);
      const auto t1 = std::chrono::steady_clock::now();
      const double ns = wallNs(t0, t1);
      if (r.legacyNs == 0 || ns < r.legacyNs) r.legacyNs = ns;
      r.events = ev;
      legacyHash = h;
    }
    {
      sim::Engine eng;
      std::uint64_t h = kFnv;
      const auto t0 = std::chrono::steady_clock::now();
      const std::uint64_t ev = fresh(eng, &h);
      const auto t1 = std::chrono::steady_clock::now();
      const double ns = wallNs(t0, t1);
      if (r.newNs == 0 || ns < r.newNs) r.newNs = ns;
      AGILE_CHECK_MSG(ev == r.events,
                      "engines executed different event counts");
      newHash = h;
    }
  }
  r.deterministicMatch = legacyHash == newHash;
  AGILE_CHECK_MSG(r.deterministicMatch,
                  "event execution order diverged between engines");
  r.legacyEps = static_cast<double>(r.events) / (r.legacyNs / 1e9);
  r.newEps = static_cast<double>(r.events) / (r.newNs / 1e9);
  r.speedup = r.newEps / r.legacyEps;
  std::printf("%-12s %10llu events  legacy %8.2f Mev/s  new %8.2f Mev/s  x%.2f\n",
              r.name.c_str(), static_cast<unsigned long long>(r.events),
              r.legacyEps / 1e6, r.newEps / 1e6, r.speedup);
  return r;
}

bool quickMode(int argc, char** argv) {
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--quick") == 0) return true;
  }
  return std::getenv("AGILE_BENCH_QUICK") != nullptr;
}

void writeJson(const std::vector<Result>& results, bool quick,
               double geomean, const char* path) {
  std::FILE* f = std::fopen(path, "w");
  AGILE_CHECK_MSG(f != nullptr, "cannot open BENCH_engine.json for writing");
  std::fprintf(f, "{\n  \"bench\": \"engine_stress\",\n  \"quick\": %s,\n",
               quick ? "true" : "false");
  std::fprintf(f, "  \"workloads\": [\n");
  for (std::size_t i = 0; i < results.size(); ++i) {
    const Result& r = results[i];
    std::fprintf(f,
                 "    {\"name\": \"%s\", \"events\": %llu, "
                 "\"legacy_events_per_sec\": %.0f, "
                 "\"new_events_per_sec\": %.0f, "
                 "\"speedup\": %.3f, \"determinism_match\": %s}%s\n",
                 r.name.c_str(), static_cast<unsigned long long>(r.events),
                 r.legacyEps, r.newEps, r.speedup,
                 r.deterministicMatch ? "true" : "false",
                 i + 1 < results.size() ? "," : "");
  }
  std::fprintf(f, "  ],\n  \"geomean_speedup\": %.3f\n}\n", geomean);
  std::fclose(f);
}

}  // namespace
}  // namespace agile::bench

int main(int argc, char** argv) {
  using namespace agile;
  using namespace agile::bench;

  const bool quick = quickMode(argc, argv);
  const std::uint64_t scale = quick ? 1 : 8;
  const int reps = quick ? 2 : 3;

  const std::uint64_t timerEvents = 500'000 * scale;
  const std::uint64_t cancelRounds = 250'000 * scale;
  const std::uint64_t cascadeEvents = 500'000 * scale;
  // The legacy vector-front erase makes notify_one quadratic in waiters;
  // scale it gently so full mode stays inside CI budgets.
  const std::uint64_t chainEvents = 200'000 * (quick ? 1 : 2);
  const std::uint64_t stormRounds = 150 * scale;

  std::printf("=== engine_stress: DES hot-path events/sec (legacy vs new) ===\n");

  std::vector<Result> results;
  results.push_back(measure(
      "timer_churn", reps,
      [&](LegacyEngine& e, std::uint64_t* h) {
        return timerChurn(e, timerEvents, 4096, h);
      },
      [&](sim::Engine& e, std::uint64_t* h) {
        return timerChurn(e, timerEvents, 4096, h);
      }));
  results.push_back(measure(
      "timer_dense", reps,
      [&](LegacyEngine& e, std::uint64_t* h) {
        return timerDense(e, timerEvents, 4096, h);
      },
      [&](sim::Engine& e, std::uint64_t* h) {
        return timerDense(e, timerEvents, 4096, h);
      }));
  results.push_back(measure(
      "timer_horizon", reps,
      [&](LegacyEngine& e, std::uint64_t* h) {
        return timerHorizon(e, timerEvents, 4096, h);
      },
      [&](sim::Engine& e, std::uint64_t* h) {
        return timerHorizon(e, timerEvents, 4096, h);
      }));
  results.push_back(measure(
      "timer_cancel", reps,
      [&](LegacyEngine& e, std::uint64_t* h) {
        return timerCancel(e, cancelRounds, 4096, h);
      },
      [&](sim::Engine& e, std::uint64_t* h) {
        return timerCancel(e, cancelRounds, 4096, h);
      }));
  results.push_back(measure(
      "async_pipeline", reps,
      [&](LegacyEngine& e, std::uint64_t* h) {
        return asyncPipeline<LegacyEngine, LegacyWaitList>(e, cancelRounds,
                                                           1024, h);
      },
      [&](sim::Engine& e, std::uint64_t* h) {
        return asyncPipeline<sim::Engine, sim::WaitList>(e, cancelRounds, 1024,
                                                         h);
      }));
  results.push_back(measure(
      "zero_delay", reps,
      [&](LegacyEngine& e, std::uint64_t* h) {
        return zeroDelay(e, cascadeEvents, 1024, h);
      },
      [&](sim::Engine& e, std::uint64_t* h) {
        return zeroDelay(e, cascadeEvents, 1024, h);
      }));
  results.push_back(measure(
      "notify_one", reps,
      [&](LegacyEngine& e, std::uint64_t* h) {
        return notifyOneChain<LegacyEngine, LegacyWaitList>(e, chainEvents,
                                                            4096, h);
      },
      [&](sim::Engine& e, std::uint64_t* h) {
        return notifyOneChain<sim::Engine, sim::WaitList>(e, chainEvents, 4096,
                                                          h);
      }));
  results.push_back(measure(
      "notify_all", reps,
      [&](LegacyEngine& e, std::uint64_t* h) {
        return notifyAllStorm<LegacyEngine, LegacyWaitList>(e, stormRounds,
                                                            4096, h);
      },
      [&](sim::Engine& e, std::uint64_t* h) {
        return notifyAllStorm<sim::Engine, sim::WaitList>(e, stormRounds, 4096,
                                                          h);
      }));

  double logSum = 0;
  for (const Result& r : results) logSum += std::log(r.speedup);
  const double geomean = std::exp(logSum / static_cast<double>(results.size()));
  std::printf("geomean speedup: x%.2f\n", geomean);

  writeJson(results, quick, geomean, "BENCH_engine.json");
  std::printf("wrote BENCH_engine.json\n");
  return 0;
}
