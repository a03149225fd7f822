// Centralized device-side API cost constants (virtual ns at the 1 GHz model
// clock). Every charge the AGILE library and the BaM baseline make on the
// simulated SMs comes from this table, so the Fig. 7-11 gaps between the two
// libraries are an emergent property of *how often* each design executes
// which operation (inline polling vs. service offload, lock retries,
// coalescing), not a hard-coded ratio.
//
// Values are an instruction-count audit of the corresponding code paths
// (loads/stores/atomics at ~1-2 ns each on the model clock); BaM-side
// constants are moderately heavier per the overhead analysis in §4.5 of the
// paper (its probe/insert paths take more atomics and its threads poll
// completions inline).
#pragma once

#include "common/types.h"

namespace agile::cost {

// --- locks ---
inline constexpr SimTime kLockTry = 8;            // one CAS attempt
inline constexpr SimTime kLockRelease = 6;

// --- AGILE software cache ---
inline constexpr SimTime kCacheProbe = 28;    // hash + tag compare + touch
inline constexpr SimTime kCacheInsert = 44;   // claim line, map update
inline constexpr SimTime kCacheEvict = 48;    // unmap + reset
inline constexpr SimTime kLineCopy = 96;      // 4 KiB HBM->HBM move (amortized)
inline constexpr SimTime kWordAccess = 10;    // single element load/store
inline constexpr SimTime kPolicyStep = 6;     // one victim-scan step

// --- AGILE request issuing (Algorithm 2) ---
inline constexpr SimTime kSqeAlloc = 18;
inline constexpr SimTime kSqeFill = 30;       // build the 64 B command
inline constexpr SimTime kDoorbellScanPerSqe = 5;
inline constexpr SimTime kDoorbellWrite = 24; // MMIO write over PCIe BAR
inline constexpr SimTime kSqeStateCheck = 8;

// --- AGILE barriers / buffers ---
inline constexpr SimTime kBarrierCheck = 10;
inline constexpr SimTime kBufAttach = 16;     // append to a line's buf list

// --- AGILE token / batch surface ---
inline constexpr SimTime kTokenAlloc = 14;     // pool slot + generation stamp
inline constexpr SimTime kTokenPoll = 8;       // status load + gen compare
inline constexpr SimTime kBatchEntryScan = 6;  // per-descriptor resolve step

// --- AGILE share table ---
inline constexpr SimTime kShareProbe = 26;
inline constexpr SimTime kShareInsert = 38;
inline constexpr SimTime kShareRelease = 22;

// --- AGILE service kernel (Algorithm 1) ---
inline constexpr SimTime kServicePollRound = 36;   // load offset/mask/phase
inline constexpr SimTime kServiceCqeProcess = 58;  // decode + release + wake
inline constexpr SimTime kServiceIdleMin = 300;    // adaptive poll backoff
inline constexpr SimTime kServiceIdleMax = 2000;

// --- warp-level coalescing ---
inline constexpr SimTime kCoalesceMatch = 22;  // match_any + leader elect

// --- BaM baseline ---
// Heavier cache critical sections (more atomics per probe, §4.5) and an
// inline CQ-polling loop that burns SM issue slots while waiting.
inline constexpr SimTime kBamCacheProbe = 84;
inline constexpr SimTime kBamCacheInsert = 118;
inline constexpr SimTime kBamCacheEvict = 96;
inline constexpr SimTime kBamLineCopy = 128;
inline constexpr SimTime kBamWordAccess = 16;
inline constexpr SimTime kBamSqeIssue = 78;       // alloc+fill+doorbell, fused
inline constexpr SimTime kBamPollRound = 52;      // read CQE + lock handling
inline constexpr SimTime kBamCqeProcess = 64;     // decode + release inline
inline constexpr SimTime kBamPollInterval = 400;  // spin-loop pacing
inline constexpr SimTime kBamCqLockRetry = 90;

}  // namespace agile::cost
