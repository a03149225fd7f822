// SIMT execution simulator.
//
// Model:
//  - A kernel launch is a 1-D grid of 1-D thread blocks.
//  - Each GPU thread ("lane") is a coroutine; 32 lanes form a warp; a block's
//    warps are resident on one SM; SMs hold a bounded number of resident
//    blocks (occupancy limited by warp slots, registers, shared memory).
//  - Each SM is a sequential issue resource in the DES: it executes one warp
//    "segment" at a time. A segment resumes every ready lane of the warp
//    once; its virtual cost is the max of the resumed lanes' charged cycles
//    (SIMT lockstep) plus a fixed scheduling overhead. Warps whose lanes all
//    stall (I/O barriers, sleeps, collectives) leave the SM free for other
//    warps — this is exactly the warp-scheduling latency-hiding the paper
//    discusses in §2.2, including its convoy-stall failure mode that AGILE's
//    asynchronous API sidesteps.
//  - Lanes stalled on I/O park on sim::WaitList and wake event-driven; spin
//    loops in device code must use bounded backoff sleeps (KernelCtx::
//    backoff) so the event heap stays small.
#pragma once

#include <array>
#include <bit>
#include <coroutine>
#include <cstdint>
#include <deque>
#include <memory>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "common/check.h"
#include "common/small_fn.h"
#include "common/types.h"
#include "gpu/hbm.h"
#include "gpu/task.h"
#include "sim/engine.h"

namespace agile::gpu {

class Lane;
class Warp;
class Block;
class Sm;
class Gpu;
class KernelCtx;

inline constexpr std::uint32_t kWarpSize = 32;
inline constexpr std::uint32_t kFullWarpMask = 0xffffffffu;

// Hardware parameters of the simulated GPU (defaults loosely follow the
// paper's RTX 5000 Ada class device, scaled to keep simulations fast).
struct GpuConfig {
  std::uint32_t numSms = 8;
  std::uint32_t warpSlotsPerSm = 48;    // resident warps per SM
  std::uint32_t maxBlocksPerSm = 16;    // resident blocks per SM
  std::uint32_t regsPerSm = 65536;      // 32-bit registers per SM
  std::uint64_t sharedBytesPerSm = 100 * 1024;
  std::uint64_t hbmBytes = 4_GiB;
  SimTime schedOverheadNs = 4;  // fixed per-segment issue overhead
  // SMs set aside for persistent system kernels (the AGILE service). On the
  // paper's ~100-SM part, two service warps take <1% of issue capacity; an
  // 8-SM scale-down would overstate their interference 12x, so the service
  // gets a dedicated SM instead.
  std::uint32_t reservedSms = 0;
};

struct LaunchConfig {
  std::uint32_t gridDim = 1;
  std::uint32_t blockDim = 32;
  std::uint32_t regsPerThread = 32;
  std::uint64_t sharedBytesPerBlock = 0;
  bool onReservedSm = false;  // place blocks on the reserved system SMs
  std::string name = "kernel";
};

// Device function run by every lane of a launch. SmallFn keeps the callable
// inline (64 bytes covers every kernel lambda in src/ and the benches), so a
// launch allocates nothing for its device function; lanes invoke the single
// stored copy through a const reference.
using KernelFn = SmallFn<GpuTask<void>(KernelCtx&), 64>;

// Shared state of one kernel launch; benches read timing from here.
struct KernelState {
  LaunchConfig cfg;
  KernelFn fn;
  std::uint32_t nextBlock = 0;
  std::uint32_t blocksDone = 0;
  bool done = false;
  SimTime launchTime = 0;
  SimTime endTime = 0;
  // Completion hooks: notified (one ready-queue event per waiter, in park
  // order) when the last block retires. Intrusive — parking allocates
  // nothing for embedded WaitNodes.
  sim::WaitList onDone;

  SimTime elapsed() const { return endTime - launchTime; }
};
using KernelHandle = std::shared_ptr<KernelState>;

enum class LaneState : std::uint8_t {
  kReady,       // runnable, waiting for its warp's next segment
  kRunning,     // currently being resumed by the SM
  kSleeping,    // timed wake scheduled on the engine
  kParked,      // waiting on a sim::WaitList notify
  kCollective,  // arrived at a warp collective, waiting for the warp
  kBarrier,     // arrived at a block barrier
  kDone,
};

class Lane {
 public:
  Lane(Warp& warp, std::uint32_t laneId, std::uint32_t threadIdx);
  ~Lane();
  Lane(const Lane&) = delete;
  Lane& operator=(const Lane&) = delete;

  void start(const KernelFn& fn);

  // Resume the lane once; returns the cycles it charged during the segment.
  SimTime resumeSegment();

  // Event-driven wake from Sleeping/Parked/Collective/Barrier.
  void wake();

  LaneState state() const { return state_; }
  std::uint32_t laneId() const { return laneId_; }
  Warp& warp() { return *warp_; }
  KernelCtx& ctx() { return *ctx_; }

  // --- used by KernelCtx awaitables ---
  void charge(SimTime cycles) { pendingCharge_ += cycles; }
  void suspendYield(std::coroutine_handle<> h);
  void suspendSleep(std::coroutine_handle<> h, SimTime delay);
  void suspendPark(std::coroutine_handle<> h, sim::WaitList& list);
  void suspendCollective(std::coroutine_handle<> h, std::uint64_t value);
  void suspendBarrier(std::coroutine_handle<> h);

  std::uint32_t collParity() const { return collParity_; }

 private:
  friend class Warp;

  // Embedded intrusive waiter: parking on a sim::WaitList is an O(1) pointer
  // splice with no allocation. A lane is parked on at most one list at a
  // time (it suspends on exactly one awaitable), so one node suffices.
  struct ParkNode : sim::WaitNode {
    Lane* lane = nullptr;
  };

  Warp* warp_;
  std::uint32_t laneId_;     // lane index within the warp [0, 32)
  std::uint32_t threadIdx_;  // thread index within the block
  ParkNode parkNode_;
  LaneState state_ = LaneState::kReady;
  SimTime pendingCharge_ = 0;
  std::coroutine_handle<> resumePoint_;
  GpuTask<void> task_;
  std::unique_ptr<KernelCtx> ctx_;
  std::uint32_t collGen_ = 0;     // collectives entered so far
  std::uint32_t collParity_ = 0;  // parity of the collective being awaited
};

class Warp {
 public:
  Warp(Block& block, std::uint32_t warpId, std::uint32_t laneCount);
  ~Warp();
  Warp(const Warp&) = delete;
  Warp& operator=(const Warp&) = delete;

  Block& block() { return *block_; }
  Sm& sm() { return *sm_; }
  std::uint32_t warpId() const { return warpId_; }
  std::uint32_t liveMask() const { return liveMask_; }
  Lane& lane(std::uint32_t i) { return *lanes_[i]; }
  std::uint32_t laneCount() const {
    return static_cast<std::uint32_t>(lanes_.size());
  }

  void bindSm(Sm& sm) { sm_ = &sm; }
  void startLanes(const KernelFn& fn);

  // Run one segment: resume all ready lanes once; returns virtual cost.
  SimTime runSegment();

  bool hasReadyLanes() const { return readyMask_ != 0; }

  // --- lane callbacks ---
  void laneReady(std::uint32_t laneId);
  void laneArrivedCollective(std::uint32_t laneId, std::uint32_t parity,
                             std::uint64_t value);
  void laneDied(std::uint32_t laneId);

  // Gathered values of the completed collective with given parity; valid for
  // lanes resuming from that collective.
  const std::uint64_t* collectiveValues(std::uint32_t parity) const {
    return coll_[parity].values.data();
  }
  std::uint32_t collectiveArrivedMask(std::uint32_t parity) const {
    return coll_[parity].resultMask;
  }

  bool queued = false;   // in its SM's ready queue
  bool running = false;  // its segment is executing right now

 private:
  void maybeCompleteCollective(std::uint32_t parity);

  struct CollectiveSlot {
    std::uint32_t arrived = 0;     // lanes waiting in this slot
    std::uint32_t resultMask = 0;  // live arrivals when it completed
    std::array<std::uint64_t, kWarpSize> values{};
  };

  Block* block_;
  Sm* sm_ = nullptr;
  std::uint32_t warpId_;
  std::uint32_t liveMask_ = 0;
  std::uint32_t readyMask_ = 0;
  CollectiveSlot coll_[2];
  std::vector<std::unique_ptr<Lane>> lanes_;
};

class Block {
 public:
  Block(Gpu& gpu, KernelHandle kernel, std::uint32_t blockIdx, Sm& sm);
  ~Block();
  Block(const Block&) = delete;
  Block& operator=(const Block&) = delete;

  Gpu& gpu() { return *gpu_; }
  Sm& sm() { return *sm_; }
  const KernelHandle& kernel() const { return kernel_; }
  std::uint32_t blockIdx() const { return blockIdx_; }
  std::uint32_t blockDim() const { return kernel_->cfg.blockDim; }
  std::uint32_t warpCount() const {
    return static_cast<std::uint32_t>(warps_.size());
  }
  Warp& warp(std::uint32_t i) { return *warps_[i]; }
  std::span<std::byte> sharedMem() { return {shared_.data(), shared_.size()}; }

  void start();

  // --- block barrier (__syncthreads) ---
  void barrierArrive(Lane& lane);
  void laneDied();

  std::uint32_t liveLanes() const { return liveLanes_; }

 private:
  void maybeReleaseBarrier();

  Gpu* gpu_;
  KernelHandle kernel_;
  std::uint32_t blockIdx_;
  Sm* sm_;
  std::uint32_t liveLanes_;
  std::uint32_t barrierArrived_ = 0;
  std::vector<Lane*> barrierWaiters_;
  std::vector<std::unique_ptr<Warp>> warps_;
  std::vector<std::byte> shared_;
};

class Sm {
 public:
  Sm(Gpu& gpu, std::uint32_t smId);

  void enqueue(Warp* w);

  std::uint32_t smId() const { return smId_; }
  std::uint32_t freeWarpSlots() const { return freeWarpSlots_; }

  bool canPlace(const LaunchConfig& cfg) const;
  void acquire(const LaunchConfig& cfg);
  void release(const LaunchConfig& cfg);

  SimTime busyNs() const { return busyNs_; }
  std::uint64_t segments() const { return segments_; }

 private:
  void kick();
  void runSlot();

  Gpu* gpu_;
  std::uint32_t smId_;
  std::deque<Warp*> ready_;
  bool running_ = false;
  SimTime busyUntil_ = 0;
  SimTime busyNs_ = 0;
  std::uint64_t segments_ = 0;

  std::uint32_t freeWarpSlots_;
  std::uint32_t freeRegs_;
  std::uint32_t residentBlocks_ = 0;
  std::uint64_t freeSharedBytes_;
};

class Gpu {
 public:
  Gpu(sim::Engine& engine, GpuConfig cfg = {});
  ~Gpu();
  Gpu(const Gpu&) = delete;
  Gpu& operator=(const Gpu&) = delete;

  sim::Engine& engine() { return *engine_; }
  const GpuConfig& config() const { return cfg_; }
  Hbm& hbm() { return hbm_; }
  Sm& sm(std::uint32_t i) { return *sms_[i]; }
  std::uint32_t numSms() const {
    return static_cast<std::uint32_t>(sms_.size());
  }
  // SMs available to application kernels (excludes reserved system SMs).
  std::uint32_t computeSms() const { return numSms() - cfg_.reservedSms; }

  // Launch a kernel; blocks are dispatched as occupancy allows.
  KernelHandle launch(LaunchConfig cfg, KernelFn fn);

  // Run the engine until the kernel completes. Returns false if the
  // simulation deadlocked (event heap drained or virtual deadline passed
  // with the kernel unfinished).
  bool wait(const KernelHandle& k, SimTime deadline = kSimTimeNever);

  // Max resident blocks per SM for this launch config (the paper's
  // queryOccupancy, §3.5).
  std::uint32_t occupancyBlocksPerSm(const LaunchConfig& cfg) const;

  // Aggregate busy fraction across SMs since construction.
  double smBusyFraction() const;

  // --- internal, used by Block/Warp/Lane ---
  void blockFinished(Block* b);

 private:
  void dispatchPending();

  sim::Engine* engine_;
  GpuConfig cfg_;
  Hbm hbm_;
  std::vector<std::unique_ptr<Sm>> sms_;
  std::deque<KernelHandle> pendingLaunches_;  // launches with undispatched blocks
  std::vector<std::unique_ptr<Block>> activeBlocks_;
};

// Per-lane context handed to every kernel function: thread coordinates,
// charge/stall primitives, and warp/block cooperative operations.
class KernelCtx {
 public:
  KernelCtx(Lane& lane, Block& block, std::uint32_t threadIdx);

  // --- coordinates ---
  std::uint32_t threadIdx() const { return threadIdx_; }
  std::uint32_t blockIdx() const { return block_->blockIdx(); }
  std::uint32_t blockDim() const { return block_->blockDim(); }
  std::uint32_t gridDim() const { return block_->kernel()->cfg.gridDim; }
  std::uint32_t globalThreadIdx() const {
    return blockIdx() * blockDim() + threadIdx_;
  }
  std::uint32_t laneId() const { return lane_->laneId(); }
  std::uint32_t warpId() const { return lane_->warp().warpId(); }
  // Grid-wide warp index. Warps never span blocks, so a block whose
  // blockDim is not a multiple of kWarpSize still owns a warp index of its
  // own (globalThreadIdx() / kWarpSize would fold small blocks together).
  std::uint32_t globalWarpIdx() const {
    return blockIdx() * ceilDiv(blockDim(), kWarpSize) + warpId();
  }

  Gpu& gpu() { return block_->gpu(); }
  sim::Engine& engine() { return gpu().engine(); }
  SimTime now() const { return block_->gpu().engine().now(); }
  Lane& lane() { return *lane_; }
  Warp& warp() { return lane_->warp(); }
  std::span<std::byte> sharedMem() { return block_->sharedMem(); }

  // Charge `cycles` of compute to the current segment without yielding.
  void charge(SimTime cycles) { lane_->charge(cycles); }

  // Charge a critical section that serializes across the warp (atomics/locks
  // on shared metadata): each active lane pays for every lane's turn, so the
  // warp segment cost models the serialized execution. Divergence makes this
  // an upper bound.
  void chargeSerialized(SimTime cycles) {
    lane_->charge(cycles * std::popcount(lane_->warp().liveMask()));
  }

  // Critical-section charge for an N-way sharded resource (the sharded
  // software cache): lanes serialize only with warp peers that hit the
  // same shard. The lane cannot see its peers' shard targets without a
  // warp collective, so the charge models the *expected* convoy under
  // hashed tag spreading — ceil(liveLanes / ways) — which is optimistic
  // for shard-skewed warps (all lanes hitting one hot shard), the mirror
  // image of chargeSerialized being pessimistic under divergence; see
  // docs/ARCHITECTURE.md "Cache sharding". ways == 1
  // charges exactly chargeSerialized — the unsharded baseline's cost, bit
  // for bit.
  void chargeSharded(SimTime cycles, std::uint32_t ways) {
    const auto live =
        static_cast<std::uint32_t>(std::popcount(lane_->warp().liveMask()));
    lane_->charge(cycles * ((live + ways - 1) / ways));
  }

  // --- awaitables ---

  // Yield to the warp scheduler; lane stays runnable.
  auto yield() {
    struct A {
      Lane* l;
      bool await_ready() const noexcept { return false; }
      void await_suspend(std::coroutine_handle<> h) { l->suspendYield(h); }
      void await_resume() const noexcept {}
    };
    return A{lane_};
  }

  // Sleep for `delay` virtual ns (used for bounded-backoff polling).
  auto backoff(SimTime delay) {
    struct A {
      Lane* l;
      SimTime d;
      bool await_ready() const noexcept { return false; }
      void await_suspend(std::coroutine_handle<> h) { l->suspendSleep(h, d); }
      void await_resume() const noexcept {}
    };
    return A{lane_, delay};
  }

  // Park until the wait list is notified (event-driven I/O waits).
  auto parkOn(sim::WaitList& list) {
    struct A {
      Lane* l;
      sim::WaitList* wl;
      bool await_ready() const noexcept { return false; }
      void await_suspend(std::coroutine_handle<> h) {
        l->suspendPark(h, *wl);
      }
      void await_resume() const noexcept {}
    };
    return A{lane_, &list};
  }

  // Warp-collective gather: all live lanes contribute `value`; resumes with
  // (arrivedMask, pointer to the 32 gathered values). Building block for
  // ballot/shfl/match below.
  auto warpGather(std::uint64_t value) {
    struct A {
      Lane* l;
      std::uint64_t v;
      bool await_ready() const noexcept { return false; }
      void await_suspend(std::coroutine_handle<> h) {
        l->suspendCollective(h, v);
      }
      std::pair<std::uint32_t, const std::uint64_t*> await_resume()
          const noexcept {
        auto& w = l->warp();
        const auto parity = l->collParity();
        return {w.collectiveArrivedMask(parity), w.collectiveValues(parity)};
      }
    };
    return A{lane_, value};
  }

  // __syncthreads().
  auto syncBlock() {
    struct A {
      Lane* l;
      bool await_ready() const noexcept { return false; }
      void await_suspend(std::coroutine_handle<> h) { l->suspendBarrier(h); }
      void await_resume() const noexcept {}
    };
    return A{lane_};
  }

 private:
  Lane* lane_;
  Block* block_;
  std::uint32_t threadIdx_;
};

// --- coroutine helpers built on the primitives ---

// Charge `total` cycles of compute in `chunk`-sized segments so other
// resident warps interleave at realistic granularity.
GpuTask<void> compute(KernelCtx& ctx, SimTime total, SimTime chunk = 1000);

// __ballot_sync over all live lanes: bit i set iff lane i passed pred!=0.
GpuTask<std::uint32_t> warpBallot(KernelCtx& ctx, bool pred);

// __shfl_sync: value held by `srcLane` (or own value if srcLane dead).
GpuTask<std::uint64_t> warpShfl(KernelCtx& ctx, std::uint64_t value,
                                std::uint32_t srcLane);

// __match_any_sync: mask of live lanes whose value equals ours.
GpuTask<std::uint32_t> warpMatchAny(KernelCtx& ctx, std::uint64_t value);

}  // namespace agile::gpu
