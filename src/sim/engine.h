// Discrete-event simulation engine: a virtual nanosecond clock, a
// hierarchical timer wheel with an overflow heap, and a same-timestamp ready
// queue. Everything timed in the repository (SM warp segments, NVMe command
// completions, doorbell fetch delays, service polling) is an event here.
//
// Hot-path design (the engine executes hundreds of millions of events per
// bench sweep, so events/sec — not model fidelity — caps experiment scale):
//  - Events are intrusive `EventNode`s carved from slab chunks owned by the
//    engine and recycled through a free list: steady-state scheduling does
//    zero heap allocation.
//  - Callbacks live in a small-buffer-optimized inline payload inside the
//    node (kInlineCallbackBytes). Oversized callables fall back to one boxed
//    heap allocation; every callback in the simulator's hot paths fits
//    inline.
//  - `scheduleNow` / `scheduleAfter(0, ...)` append to a singly-linked FIFO
//    ready queue instead of the timer structures. Wakeups (WaitList
//    notifies, kernel completion callbacks) all take this O(1) path.
//  - Future events go into a hierarchical timer wheel (calendar queue):
//    kWheelLevels levels of kWheelSlots buckets each; insert and cancel are
//    O(1) pointer splices, far-future events cascade down from coarser
//    levels as the clock approaches them, and anything beyond the wheel
//    horizon waits in a small overflow heap. This replaces the former
//    global binary heap whose O(log n) push/pop dominated timer-heavy
//    workloads (NVMe latency timers at 10^4+ concurrent commands).
//
// The engine is strictly single-threaded and deterministic: events at the
// same timestamp fire in schedule order (tie broken by sequence number).
// The ready queue, the per-tick due list drained from the wheel, and the
// overflow heap are merged on (time, seq), so routing an event through any
// of them never changes execution order relative to the classic all-heap
// engine. Parallelism in benches comes from running independent engines on
// separate host threads (see sim/sweep.h), mirroring how sweep points in
// the paper are independent runs.
#pragma once

#include <algorithm>
#include <bit>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <new>
#include <type_traits>
#include <utility>
#include <vector>

#include "common/check.h"
#include "common/small_fn.h"
#include "common/types.h"

namespace agile::sim {

class Engine;

/// Opaque handle to a scheduled event, returned by every schedule call and
/// consumed by Engine::cancel(). Copyable and trivially destructible; a
/// default-constructed TimerId is invalid. Handles are generation-checked:
/// cancelling a handle whose event already fired (or was already cancelled)
/// is a safe no-op that returns false, even if the underlying slab node has
/// been recycled for a new event.
class TimerId {
 public:
  TimerId() = default;

  /// True if the handle was obtained from a schedule call (it may still
  /// refer to an event that has already fired).
  explicit operator bool() const { return node_ != nullptr; }

 private:
  friend class Engine;
  TimerId(void* node, std::uint64_t seq) : node_(node), seq_(seq) {}

  void* node_ = nullptr;
  std::uint64_t seq_ = 0;
};

/// The discrete-event engine. Single-threaded; all times are virtual
/// nanoseconds (SimTime). See the file comment for the execution-order
/// contract.
class Engine {
 public:
  /// Inline callback capacity. 48 bytes holds a std::function (32 bytes on
  /// libstdc++), or a lambda capturing up to six pointers — every scheduling
  /// site in src/ fits.
  static constexpr std::size_t kInlineCallbackBytes = 48;

  // --- timer wheel geometry knobs -------------------------------------
  // The wheel trades memory for insert/advance cost. Level L buckets span
  // 2^(kWheelBits*L) ns each; the whole wheel covers events up to
  // 2^(kWheelBits*kWheelLevels) ns past the epoch boundary (the "horizon",
  // ~8.59 s with the defaults). Events beyond the horizon wait in an
  // overflow heap and migrate into the wheel when the clock enters their
  // epoch. Changing these recompiles the whole geometry; they are
  // compile-time because bucket indexing sits on the hottest path.

  /// log2 of the bucket count per wheel level (2048 buckets/level). Wide
  /// levels keep cascade depth at <= 2 for everything the simulator
  /// schedules (NVMe latencies, poll backoffs, epoch timers).
  static constexpr unsigned kWheelBits = 11;
  /// Number of wheel levels. Level 0 buckets are 1 ns wide.
  static constexpr unsigned kWheelLevels = 3;
  /// Buckets per level.
  static constexpr std::size_t kWheelSlots = std::size_t{1} << kWheelBits;
  /// Events with (t ^ now) >> kWheelHorizonBits != 0 — i.e. in a different
  /// 2^33-ns (~8.6 s) epoch than the clock — go to the overflow heap.
  static constexpr unsigned kWheelHorizonBits = kWheelBits * kWheelLevels;

  Engine() = default;
  ~Engine();
  Engine(const Engine&) = delete;
  Engine& operator=(const Engine&) = delete;

  /// Current virtual time in nanoseconds. Monotonically non-decreasing.
  SimTime now() const { return now_; }

  /// Schedule `fn` to run at absolute virtual time `t` (>= now()); checks
  /// and aborts on events in the virtual past. Events at t == now() take
  /// the O(1) ready-queue fast path; future events take the O(1) wheel
  /// insert (or the overflow heap beyond the horizon). Returns a handle
  /// usable with cancel().
  template <class F>
  TimerId scheduleAt(SimTime t, F&& fn) {
    AGILE_CHECK_MSG(t >= now_, "cannot schedule event in the virtual past");
    EventNode* n = makeNode(std::forward<F>(fn));
    n->time = t;
    if (t == now_) {
      pushReady(n);
    } else {
      insertTimer(n);
    }
    return TimerId{n, n->seq};
  }

  /// Schedule `fn` to run `delay` ns from now. delay == 0 is exactly
  /// scheduleNow().
  template <class F>
  TimerId scheduleAfter(SimTime delay, F&& fn) {
    if (delay == 0) {
      return scheduleNow(std::forward<F>(fn));
    }
    return scheduleAt(now_ + delay, std::forward<F>(fn));
  }

  /// Zero-delay schedule: fires at now() in FIFO order with every other
  /// event carrying the same timestamp. O(1), never touches the wheel.
  template <class F>
  TimerId scheduleNow(F&& fn) {
    EventNode* n = makeNode(std::forward<F>(fn));
    n->time = now_;
    pushReady(n);
    return TimerId{n, n->seq};
  }

  /// Cancel a scheduled event. Returns true if the event was still pending
  /// (its callback is destroyed without running and will never fire);
  /// false if it already fired, was already cancelled, or `id` is invalid.
  /// Wheel-resident events are unlinked and their node recycled
  /// immediately (O(1)); ready-queue, due-list, and overflow-heap events
  /// are marked and reclaimed lazily when the executor reaches them.
  /// Cancellation never perturbs the firing order of other events.
  bool cancel(TimerId id);

  /// Run until the predicate returns true or no events remain.
  /// Returns true if the predicate was satisfied.
  bool runUntil(const SmallFn<bool()>& done);

  /// Run until every queue (ready, wheel, overflow) drains.
  void runToCompletion();

  /// Run until virtual time would exceed `deadline`; events at later times
  /// stay queued. On return now() == max(now(), deadline).
  void runFor(SimTime deadline);

  /// True when no live events are pending anywhere.
  bool idle() const { return pendingEvents() == 0; }
  /// Live (non-cancelled) events currently scheduled.
  std::size_t pendingEvents() const {
    return readyCount_ + dueCount_ + wheelCount_ + overflowCount_;
  }
  /// Events executed since construction (cancelled events never count).
  std::uint64_t executedEvents() const { return executed_; }
  /// Events that took the O(1) ready-queue path (wakeups / zero-delay).
  std::uint64_t readyPathEvents() const { return readyPath_; }
  /// Events cancelled before firing.
  std::uint64_t cancelledEvents() const { return cancelled_; }
  /// Slab chunks allocated over the engine's lifetime (capacity telemetry).
  std::size_t slabChunks() const { return slabs_.size(); }
  /// Total event-node capacity across all slab chunks (telemetry for
  /// pre-sizing arenas; see reserveEvents / sim::SlabArenaPlan).
  std::size_t slabEventCapacity() const {
    std::size_t n = 0;
    for (const auto& slab : slabs_) n += slab.cap;
    return n;
  }

  /// Pre-size the event slab with one contiguous arena of `events` nodes,
  /// so a run whose peak event population fits never touches the allocator
  /// again (multi-engine sweeps size this from the previous run's
  /// slabEventCapacity() telemetry and stay memory-flat). Must be called
  /// before anything is scheduled; a zero reservation is a no-op.
  void reserveEvents(std::size_t events) {
    if (events == 0) return;
    AGILE_CHECK_MSG(slabs_.empty(),
                    "reserveEvents must precede all scheduling");
    slabs_.push_back(Slab{std::make_unique<EventNode[]>(events), events});
    slabUsed_ = 0;
  }

 private:
  // Where a node currently lives; drives cancel() and lazy reclamation.
  enum class Loc : std::uint8_t {
    kFree,       // on the free list (or never scheduled)
    kReady,      // in the same-timestamp FIFO ready queue
    kDue,        // in the sorted due list of the current tick
    kWheel,      // linked into a wheel bucket
    kOverflow,   // referenced by an overflow-heap entry
    kCancelled,  // cancelled in place; node reclaimed when reached
  };

  // Intrusive slab-allocated event. `op` is the SBO trampoline: invoked with
  // run=true to fire (consuming the callback and recycling the node) or
  // run=false to destroy a never-fired callback (cancel / engine teardown).
  // `pprev` is a Linux-hlist-style back link (address of whatever points at
  // this node) maintained only while the node sits in a wheel bucket; it
  // makes cancel an O(1) unlink without knowing the bucket.
  struct EventNode {
    std::uint64_t seq = 0;
    SimTime time = 0;
    EventNode* next = nullptr;    // bucket / ready / due / free-list link
    EventNode** pprev = nullptr;  // wheel back link (kWheel only)
    void (*op)(Engine*, EventNode*, bool run) = nullptr;
    Loc loc = Loc::kFree;
    alignas(std::max_align_t) std::byte storage[kInlineCallbackBytes];
  };

  struct HeapEntry {
    SimTime time;
    std::uint64_t seq;
    EventNode* node;
  };
  // "later-than" comparator: std:: heap algorithms with this give a min-heap
  // on (time, seq).
  struct HeapLater {
    bool operator()(const HeapEntry& a, const HeapEntry& b) const {
      return a.time != b.time ? a.time > b.time : a.seq > b.seq;
    }
  };

  static constexpr std::size_t kSlabChunkEvents = 1024;
  static constexpr std::uint64_t kSlotMask = kWheelSlots - 1;
  static constexpr std::size_t kOccWords = kWheelSlots / 64;

  template <class Fn>
  static void runInline(Engine* e, EventNode* n, bool run) {
    Fn* f = std::launder(reinterpret_cast<Fn*>(n->storage));
    if (!run) {
      f->~Fn();
      return;
    }
    // Move the callback out and recycle the node *before* invoking: the
    // callback may schedule new events, which can then reuse this node.
    Fn local(std::move(*f));
    f->~Fn();
    e->freeNode(n);
    local();
  }

  template <class Fn>
  static void runBoxed(Engine* e, EventNode* n, bool run) {
    Fn* f = *std::launder(reinterpret_cast<Fn**>(n->storage));
    if (!run) {
      delete f;
      return;
    }
    e->freeNode(n);
    (*f)();
    delete f;
  }

  template <class F>
  EventNode* makeNode(F&& fn) {
    using Fn = std::decay_t<F>;
    EventNode* n = allocNode();
    n->seq = nextSeq_++;
    if constexpr (sizeof(Fn) <= kInlineCallbackBytes &&
                  alignof(Fn) <= alignof(std::max_align_t)) {
      ::new (static_cast<void*>(n->storage)) Fn(std::forward<F>(fn));
      n->op = &runInline<Fn>;
    } else {
      ::new (static_cast<void*>(n->storage)) Fn*(new Fn(std::forward<F>(fn)));
      n->op = &runBoxed<Fn>;
    }
    return n;
  }

  EventNode* allocNode() {
    if (freeList_ != nullptr) {
      EventNode* n = freeList_;
      freeList_ = n->next;
      return n;
    }
    if (slabs_.empty() || slabUsed_ == slabs_.back().cap) {
      slabs_.push_back(
          Slab{std::make_unique<EventNode[]>(kSlabChunkEvents),
               kSlabChunkEvents});
      slabUsed_ = 0;
    }
    return &slabs_.back().mem[slabUsed_++];
  }

  void freeNode(EventNode* n) {
    n->loc = Loc::kFree;
    n->pprev = nullptr;
    n->next = freeList_;
    freeList_ = n;
  }

  void pushReady(EventNode* n) {
    n->loc = Loc::kReady;
    n->next = nullptr;
    if (readyTail_ != nullptr) {
      readyTail_->next = n;
    } else {
      readyHead_ = n;
    }
    readyTail_ = n;
    ++readyCount_;
    ++readyPath_;
  }

  // Route a future event (time > now_) into the wheel or the overflow heap.
  void insertTimer(EventNode* n) {
    const std::uint64_t diff = static_cast<std::uint64_t>(n->time) ^
                               static_cast<std::uint64_t>(now_);
    if ((diff >> kWheelHorizonBits) != 0) {
      n->loc = Loc::kOverflow;
      overflow_.push_back(HeapEntry{n->time, n->seq, n});
      std::push_heap(overflow_.begin(), overflow_.end(), HeapLater{});
      ++overflowCount_;
    } else {
      wheelPlace(n, diff);
    }
  }

  // Link `n` into the bucket selected by `diff` = time ^ reference, where
  // the reference shares the node's epoch. diff == 0 means "this exact
  // tick" and lands at level 0.
  void wheelPlace(EventNode* n, std::uint64_t diff) {
    const unsigned level =
        diff == 0 ? 0u
                  : (static_cast<unsigned>(std::bit_width(diff)) - 1u) /
                        kWheelBits;
    const std::size_t idx = static_cast<std::size_t>(
        (static_cast<std::uint64_t>(n->time) >> (kWheelBits * level)) &
        kSlotMask);
    EventNode** head = &buckets_[level][idx];
    n->loc = Loc::kWheel;
    n->next = *head;
    n->pprev = head;
    if (*head != nullptr) (*head)->pprev = &n->next;
    *head = n;
    occupancy_[level][idx / 64] |= std::uint64_t{1} << (idx % 64);
    ++wheelCount_;
  }

  bool step();
  // Advance the clock to the next pending timer tick if its time is
  // <= limit: migrates overflow events entering the epoch, cascades coarse
  // buckets, drains that tick's bucket into the due list sorted by seq, and
  // sets now_. Returns false (state untouched except safe cascades /
  // migration) when no pending timer is <= limit. Must only be called with
  // the ready queue and due list empty of live nodes, and — because
  // cascades re-anchor buckets at slot bases up to `limit` — the clock must
  // afterwards never rest below min(limit, next event time); every caller
  // either fires the returned tick or bumps now_ to the limit (runFor).
  bool advanceToNextTick(SimTime limit);
  // Pop cancelled nodes off the ready / due list fronts.
  void cleanFronts();
  // Move overflow events whose epoch matches now_ into the wheel; drop
  // cancelled overflow tops.
  void migrateOverflow();
  // Next occupied bucket index >= from at `level`, lazily clearing
  // occupancy bits of buckets emptied by cancellation. Returns -1 if none.
  int findOccupied(unsigned level, std::size_t from);
  // Unlink every node in bucket (level, idx) and re-place it at a finer
  // level relative to the slot base time.
  void cascade(unsigned level, std::size_t idx);
  // Move the level-0 bucket at idx (all nodes share one timestamp) into
  // the due list in seq order.
  void drainTick(std::size_t idx);

  SimTime now_ = 0;
  std::uint64_t nextSeq_ = 0;
  std::uint64_t executed_ = 0;
  std::uint64_t readyPath_ = 0;
  std::uint64_t cancelled_ = 0;

  // Same-timestamp FIFO: every live node here fires at now_. The queue
  // always drains (in seq order, merged against the due list) before time
  // advances.
  EventNode* readyHead_ = nullptr;
  EventNode* readyTail_ = nullptr;
  std::size_t readyCount_ = 0;  // live nodes only

  // Due list: the current tick's timers, drained from the wheel, sorted by
  // seq. All live nodes here fire at now_.
  EventNode* dueHead_ = nullptr;
  std::size_t dueCount_ = 0;  // live nodes only

  // Hierarchical timer wheel. buckets_ are singly linked with hlist back
  // pointers; occupancy_ bits are set on insert and cleared lazily.
  EventNode* buckets_[kWheelLevels][kWheelSlots] = {};
  std::uint64_t occupancy_[kWheelLevels][kOccWords] = {};
  std::size_t wheelCount_ = 0;

  // Overflow min-heap on (time, seq) for events beyond the wheel horizon.
  std::vector<HeapEntry> overflow_;
  std::size_t overflowCount_ = 0;  // live nodes only

  std::vector<EventNode*> drainScratch_;  // reused by drainTick

  // Slab storage: chunk list (growth chunks hold kSlabChunkEvents nodes; a
  // reserveEvents arena holds its requested capacity) plus an intrusive
  // free list of recycled nodes.
  struct Slab {
    std::unique_ptr<EventNode[]> mem;
    std::size_t cap;
  };
  std::vector<Slab> slabs_;
  std::size_t slabUsed_ = 0;
  EventNode* freeList_ = nullptr;
};

/// Intrusive waiter node for WaitList. Embed one (or a derived struct
/// carrying context) in any object that parks; the storage must outlive the
/// park-to-fire window. `fire` runs when the notify event executes; `drop`
/// (optional) runs if the WaitList is destroyed with the waiter still
/// parked.
struct WaitNode {
  WaitNode* next = nullptr;
  void (*fire)(WaitNode*) = nullptr;
  void (*drop)(WaitNode*) = nullptr;
};

/// A FIFO of parked continuations woken by an explicit notify. Used for
/// event-driven wakeups of GPU lanes stalled on I/O barriers, cache-line
/// state changes, and share-table transitions (instead of per-lane busy
/// polling, which would swamp the timer wheel at 10^5 concurrent requests).
///
/// Park/notify rules:
///  - park() is O(1) and allocation-free for embedded WaitNodes; a node may
///    be parked on at most one list at a time and its storage must stay
///    valid until its `fire` runs (or `drop` at list destruction).
///  - notifyOne()/notifyAll() pop waiters in FIFO park order and schedule
///    one ready-queue event per waiter at engine.now(); waiters therefore
///    interleave with other same-timestamp events exactly as if each had
///    carried its own timer.
///  - A waiter that re-parks itself from inside its wake runs on the
///    *next* notify round, never the current one (no livelock).
///  - Notifying an empty list is a no-op.
class WaitList {
 public:
  WaitList() = default;
  ~WaitList();
  WaitList(const WaitList&) = delete;
  WaitList& operator=(const WaitList&) = delete;

  /// O(1) intrusive park. The node must not already be parked anywhere.
  void park(WaitNode& node) {
    AGILE_DCHECK(node.fire != nullptr);
    node.next = nullptr;
    if (tail_ != nullptr) {
      tail_->next = &node;
    } else {
      head_ = &node;
    }
    tail_ = &node;
    ++size_;
  }

  /// Convenience park for arbitrary callables (cold paths / tests).
  /// Heap-allocates a self-deleting node.
  template <class F>
    requires std::is_invocable_v<std::decay_t<F>&>
  void park(F&& wake) {
    struct FnNode : WaitNode {
      explicit FnNode(F&& f) : fn(std::forward<F>(f)) {}
      std::decay_t<F> fn;
    };
    auto* n = new FnNode(std::forward<F>(wake));
    n->fire = [](WaitNode* w) {
      auto* s = static_cast<FnNode*>(w);
      auto fn = std::move(s->fn);
      delete s;
      fn();
    };
    n->drop = [](WaitNode* w) { delete static_cast<FnNode*>(w); };
    park(*n);
  }

  /// Wake all currently parked waiters through the engine at engine.now()
  /// (one ready-queue event per waiter, in park order).
  void notifyAll(Engine& engine);

  /// Wake one waiter (FIFO).
  void notifyOne(Engine& engine);

  bool empty() const { return head_ == nullptr; }
  std::size_t size() const { return size_; }

 private:
  WaitNode* popFront();

  WaitNode* head_ = nullptr;
  WaitNode* tail_ = nullptr;
  std::size_t size_ = 0;
};

}  // namespace agile::sim
