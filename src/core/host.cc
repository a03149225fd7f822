#include "core/host.h"

namespace agile::core {

namespace {

// Pin the service kernel to a dedicated SM (see GpuConfig::reservedSms)
// unless the caller reserved SMs itself or the GPU has only one.
gpu::GpuConfig withServiceSm(gpu::GpuConfig cfg) {
  if (cfg.reservedSms == 0 && cfg.numSms >= 2) cfg.reservedSms = 1;
  return cfg;
}

}  // namespace

AgileHost::AgileHost(HostConfig cfg)
    : cfg_(cfg),
      gpu_(engine_, withServiceSm(cfg.gpu)),
      retry_(engine_, qps_, cfg.retry) {}

AgileHost::~AgileHost() {
  if (serviceRunning()) stopAgile();
}

std::uint32_t AgileHost::addNvmeDev(nvme::SsdConfig cfg) {
  AGILE_CHECK_MSG(!nvmeReady_, "addNvmeDev must precede initNvme");
  auto ssd = std::make_unique<nvme::SsdController>(engine_, cfg);
  ssd->attachHbm(gpu_.hbm());
  ssds_.push_back(std::move(ssd));
  return static_cast<std::uint32_t>(ssds_.size()) - 1;
}

void AgileHost::initNvme() {
  AGILE_CHECK_MSG(!ssds_.empty(), "no NVMe devices added");
  AGILE_CHECK(!nvmeReady_);
  const std::uint32_t depth = cfg_.queueDepth;
  AGILE_CHECK_MSG(depth >= 4, "queue depth too small");
  // The Algorithm-1 window must be at most depth/2: the device keeps one CQ
  // slot empty, so a window as large as the whole ring could never fill and
  // the head doorbell would never advance.
  const std::uint32_t window =
      (depth / 2) < gpu::kWarpSize ? depth / 2 : gpu::kWarpSize;
  AGILE_CHECK_MSG(depth % window == 0,
                  "queue depth must be a multiple of the CQ poll window");

  if (cfg_.qos.active()) {
    qos_ = std::make_unique<qos::QosManager>(
        engine_, cfg_.qos, static_cast<std::uint32_t>(ssds_.size()));
  }
  for (std::uint32_t s = 0; s < ssds_.size(); ++s) {
    for (std::uint32_t q = 0; q < cfg_.queuePairsPerSsd; ++q) {
      auto* sqRing = gpu_.hbm().alloc<nvme::Sqe>(depth).data();
      auto* cqRing = gpu_.hbm().alloc<nvme::Cqe>(depth).data();
      const std::uint32_t qid = ssds_[s]->createQueuePair(sqRing, cqRing, depth);

      auto sq = std::make_unique<AgileSq>();
      sq->ssd = ssds_[s].get();
      sq->ssdIdx = s;
      sq->qid = qid;
      sq->ring = sqRing;
      sq->depth = depth;
      sq->state.assign(depth, SqeState::kEmpty);
      sq->txn.assign(depth, Transaction{});
      sq->ioTimeoutNs = cfg_.ioTimeoutNs;
      sq->engine = &engine_;
      sq->watchdog.assign(depth, sim::TimerId{});
      sq->cmdGen.assign(depth, 0);
      sq->retry = &retry_;
      sq->qos = qos_.get();
      sq->qpIndex = static_cast<std::uint32_t>(qps_.sqs.size());
      qps_.sqs.push_back(std::move(sq));

      auto cq = std::make_unique<AgileCq>();
      cq->ssd = ssds_[s].get();
      cq->ssdIdx = s;
      cq->qid = qid;
      cq->ring = cqRing;
      cq->depth = depth;
      cq->windowLanes = window;
      qps_.cqs.push_back(std::move(cq));
    }
  }
  qps_.buildDeviceTables();
  staging_ = std::make_unique<StagingPool>(gpu_.hbm(), cfg_.stagingPages);
  nvmeReady_ = true;
}

void AgileHost::startAgile() {
  AGILE_CHECK_MSG(nvmeReady_, "initNvme must precede startAgile");
  AGILE_CHECK_MSG(!serviceRunning(), "service already running");
  service_ = std::make_unique<AgileService>(qps_, cfg_.service);
  serviceKernel_ = gpu_.launch(
      service_->launchConfig(gpu_.config().reservedSms > 0),
      [svc = service_.get()](gpu::KernelCtx& ctx) -> gpu::GpuTask<void> {
        return svc->laneBody(ctx);
      });
}

void AgileHost::stopAgile() {
  AGILE_CHECK(serviceRunning());
  service_->requestStop();
  const bool done = gpu_.wait(serviceKernel_, engine_.now() + cfg_.kernelTimeout);
  AGILE_CHECK_MSG(done, "AGILE service failed to stop");
  serviceKernel_.reset();
}

bool AgileHost::runKernel(gpu::LaunchConfig cfg, gpu::KernelFn fn) {
  auto k = gpu_.launch(std::move(cfg), std::move(fn));
  return gpu_.wait(k, engine_.now() + cfg_.kernelTimeout);
}

std::uint32_t AgileHost::pendingTransactions() const {
  std::uint32_t n = 0;
  for (const auto& sq : qps_.sqs) n += sq->inFlight();
  // Parked kTimedOut CIDs are not live transactions: their caller was
  // already settled with an error (or handed to a retry attempt, counted
  // via pendingRetries below); the slot only waits for the posted CQE.
  for (const auto& sq : qps_.sqs) {
    n -= sq->parked <= n ? sq->parked : n;
  }
  return n + retry_.pendingRetries();
}

std::uint64_t AgileHost::ioTimeouts() const {
  std::uint64_t n = 0;
  for (const auto& sq : qps_.sqs) n += sq->timeouts;
  return n;
}

IoHealthStats AgileHost::ioHealth() const {
  IoHealthStats h;
  h.watchdogTimeouts = ioTimeouts();
  const SimTime now = engine_.now();
  for (const auto& sq : qps_.sqs) {
    h.quarantines += sq->quarantines;
    if (sq->quarantinedUntil != 0 && now < sq->quarantinedUntil) {
      ++h.quarantinedQps;
    }
    h.parkedSlots += sq->parked;
  }
  h.retries = retry_.retries();
  h.failovers = retry_.failovers();
  h.rescued = retry_.rescued();
  h.aborted = retry_.aborted();
  h.cooldownProbes = retry_.cooldownProbes();
  h.pendingRetries = retry_.pendingRetries();
  if (qos_ != nullptr) {
    h.admissionDefers = qos_->totalAdmissionDefers();
    h.admissionRejects = qos_->totalAdmissionRejects();
  }
  return h;
}

void AgileHost::resetStats() {
  if (qos_ != nullptr) qos_->resetStats();
}

bool AgileHost::drainIo() {
  const SimTime deadline = engine_.now() + cfg_.kernelTimeout;
  return engine_.runUntil([&] {
    return pendingTransactions() == 0 || engine_.now() > deadline;
  }) && pendingTransactions() == 0;
}

void AgileHost::closeNvme() {
  AGILE_CHECK_MSG(!serviceRunning(), "stopAgile before closeNvme");
  AGILE_CHECK_MSG(pendingTransactions() == 0,
                  "closing NVMe with transactions in flight");
  for (auto& ssd : ssds_) ssd->destroyQueuePairs();
  qps_.sqs.clear();
  qps_.cqs.clear();
  qps_.devFirst.clear();
  qps_.devCount.clear();
  nvmeReady_ = false;
}

}  // namespace agile::core
