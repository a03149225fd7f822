// DLRM inference pipeline (§4.4): embedding gather from SSD-resident tables
// through AGILE or BaM, overlapped (or not) with the bottom/top MLP compute.
//
// The Criteo 1TB dataset is unavailable offline; categorical accesses are
// synthesized with Criteo's 26 categorical features and a
// Zipfian per-table row distribution, with a vocabulary mix of a few huge,
// several medium, and many small tables. The embedding values themselves
// come from the flash store's deterministic pattern: the timing path never
// depends on them, and every gathered word is checked against it host-side
// (DlrmRunResult::wrongWords).
//
// Three execution modes mirror the paper's comparison:
//   kBam        — BaM synchronous gather, then MLP (same epoch)
//   kAgileSync  — AGILE array API gather, then MLP (same epoch)
//   kAgileAsync — AGILE gather-ahead of epoch i+1 overlapped with the MLP of
//                 epoch i: one warp-coalesced probe per lookup reads the
//                 cached rows and issues the fills of the rest
//                 (AgileCtrl::arrayReadOrFill); a residual gather at the
//                 start of epoch i+1 reads only the rows left pending.
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "apps/dlrm/mlp.h"
#include "bam/bam_ctrl.h"
#include "common/rng.h"
#include "core/ctrl.h"
#include "core/host.h"

namespace agile::apps {

struct DlrmConfig {
  std::uint32_t numTables = 26;
  std::uint32_t embDim = 32;  // floats per embedding row (128 B)
  std::vector<std::uint64_t> tableRows;
  double zipfTheta = 1.2;
  MlpSpec bottomMlp;
  MlpSpec topMlp;

  std::uint64_t totalRows() const {
    std::uint64_t n = 0;
    for (auto r : tableRows) n += r;
    return n;
  }
  std::uint32_t rowsPerPage() const {
    return nvme::kLbaBytes / (embDim * sizeof(float));
  }
  std::uint64_t embeddingPages() const {
    return ceilDiv(totalRows(), static_cast<std::uint64_t>(rowsPerPage()));
  }
  SimTime mlpNs(std::uint32_t batch) const {
    return mlpForwardNs(bottomMlp, batch) + mlpForwardNs(topMlp, batch);
  }
};

// The paper's three model variants (§4.4), with the vocabulary scaled down
// by `vocabScale` (sizes printed by the benches; ratios preserved).
DlrmConfig dlrmPaperConfig(int variant, std::uint32_t vocabScale = 16);

// One epoch's categorical indices: batch x numTables row ids (flattened,
// sample-major).
class DlrmTrace {
 public:
  DlrmTrace(const DlrmConfig& cfg, std::uint64_t seed);

  // Deterministically (re)generate the indices of epoch `epoch` at the given
  // batch size into an internal buffer; returns it.
  const std::vector<std::uint64_t>& epochRows(std::uint32_t epoch,
                                              std::uint32_t batch);

 private:
  const DlrmConfig* cfg_;
  std::uint64_t seed_;
  std::vector<ZipfSampler> samplers_;
  std::vector<std::uint64_t> tableBase_;  // first global row of each table
  std::vector<std::uint64_t> rows_;
};

struct DlrmRunResult {
  SimTime totalNs = 0;
  SimTime perEpochNs = 0;
  std::uint64_t cacheHits = 0;
  std::uint64_t cacheMisses = 0;
  std::uint64_t ssdReads = 0;  // completed reads, summed over every SSD
  // Nonzero marks a degraded run: some gather I/O was given up on (watchdog
  // or retry-budget exhaustion), so the affected rows contributed defaults.
  std::uint64_t ioAborted = 0;
  // Gathered words, over every epoch (warm-up included), that differ from
  // the flash pattern of their element. Checked host-side, uncharged. Zero
  // on a correct run; runs with ioAborted > 0 are exempt, since their
  // aborted rows take default values (as do rows whose claim loop spent
  // its retry budget, counted in the controllers' exhaustedRetries).
  std::uint64_t wrongWords = 0;
  // kAgileAsync: lookups of the timed epochs that the gather-ahead left
  // pending, i.e. that the residual gather read through arrayRead.
  std::uint64_t pendingSlots = 0;
};

enum class DlrmMode { kBam, kAgileSync, kAgileAsync };

// Run `epochs` timed inference iterations at `batch` (after `warmupEpochs`
// untimed cache-warming iterations, mirroring the steady state the paper's
// 10,000-epoch runs measure); gathers go through `ctrl` (AGILE modes) or
// `bamCtrl` (BaM mode) on `host`. AgileCtrlT is any AgileCtrl instantiation;
// in the AGILE modes the tables are laid out over its configured stripe.
// gatherDepth > 0 (AGILE modes only) pipelines each thread's embedding
// gather with depth-K prefetch-ahead (in kAgileAsync, over the residual
// gather's pending rows); 0 reproduces the paper's per-row blocking gather
// exactly.
template <class AgileCtrlT>
DlrmRunResult runDlrm(core::AgileHost& host, const DlrmConfig& cfg,
                      DlrmTrace& trace, DlrmMode mode, AgileCtrlT* ctrl,
                      bam::DefaultBamCtrl* bamCtrl, std::uint32_t batch,
                      std::uint32_t epochs, std::uint32_t warmupEpochs = 1,
                      std::uint32_t gatherDepth = 0);

// Cost of copying the rest of a 128 B embedding row once its first word
// (the one the gather reads and checks) is in hand.
inline constexpr SimTime kEmbRowCopyNs = 20;

}  // namespace agile::apps

#include "apps/dlrm/dlrm_impl.h"
