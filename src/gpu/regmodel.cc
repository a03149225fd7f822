#include "gpu/regmodel.h"

#include <algorithm>

#include "common/check.h"

namespace agile::gpu {

std::uint32_t ioApiFootprint(IoApiPath path) {
  switch (path) {
    case IoApiPath::kNone:
      return 0;
    case IoApiPath::kBamSyncRead:
      // probe(4) + SQE slot/CID(4) + inline CQ poll: head/phase/mask/
      // doorbell(8) + queue locks(4) + data ptr(4) + retries(2) + addr(8)
      return 34;
    case IoApiPath::kBamSyncWrite:
      return 36;  // read path + dirty/writeback bookkeeping
    case IoApiPath::kAgileArrayRead:
      // probe(4) + barrier handle(2) + data ptr(4) + addr(8) + line lock(4)
      return 22;
    case IoApiPath::kAgilePrefetchArrayRead:
      // prefetch tag/slot(4) + chain(2) + hit-path read(16)
      return 22;
    case IoApiPath::kAgileAsyncRead:
      // buf ptr(2) + barrier(2) + SQE slot(4) + chain(2) + addr(6)
      return 16;
    case IoApiPath::kAgileAsyncReadWindowed:
      // async read(16) + window ring of buffers/barriers(12) + index math(4)
      return 32;
    case IoApiPath::kAgileAsyncWrite:
      return 16;
    case IoApiPath::kAgileBatchSubmit:
      // batch ptr(2) + entry cursor(2) + pending-cmd ring(8) + doorbell
      // run(4) + token handle(3)
      return 19;
    case IoApiPath::kAgileGatherPipelined:
      // hit-path read(16) + prefetch-ahead cursor(4) + window math(4) +
      // index span(4)
      return 28;
  }
  AGILE_CHECK(false);
  return 0;
}

std::uint32_t kernelRegisters(std::uint32_t baseBody,
                              std::initializer_list<IoApiPath> paths) {
  std::uint32_t best = 0;
  for (auto p : paths) best = std::max(best, ioApiFootprint(p));
  return baseBody + best;
}

std::uint32_t serviceKernelRegisters() {
  // Algorithm 1 loop: cq idx/offset/phase/mask(8) + CQE decode(6) + tx-table
  // update(8) + doorbell(3) + loop control(12) — matches the paper's
  // reported 37 registers for the service kernel.
  return 37;
}

std::string ioApiPathName(IoApiPath path) {
  switch (path) {
    case IoApiPath::kNone:
      return "none";
    case IoApiPath::kBamSyncRead:
      return "bam.syncRead";
    case IoApiPath::kBamSyncWrite:
      return "bam.syncWrite";
    case IoApiPath::kAgileArrayRead:
      return "agile.arrayRead";
    case IoApiPath::kAgilePrefetchArrayRead:
      return "agile.prefetch+arrayRead";
    case IoApiPath::kAgileAsyncRead:
      return "agile.asyncRead";
    case IoApiPath::kAgileAsyncReadWindowed:
      return "agile.asyncRead(window)";
    case IoApiPath::kAgileAsyncWrite:
      return "agile.asyncWrite";
    case IoApiPath::kAgileBatchSubmit:
      return "agile.batch.submit";
    case IoApiPath::kAgileGatherPipelined:
      return "agile.gather(depth-K)";
  }
  return "?";
}

}  // namespace agile::gpu
