// Fixture: submission paths with a hard-wired device-index literal. On a
// striped array this silently reads device 0 (or 2) regardless of where the
// StripeMap routed the element.
struct Ctx {};
struct Chain {};
struct Buf {};
struct Ctrl {
  int asyncRead(Ctx& ctx, unsigned dev, unsigned long lba, Buf& b, Chain& c);
  void prefetch(Ctx& ctx, unsigned dev, unsigned long lba, Chain& c);
};
struct QpSlice {
  unsigned first;
  unsigned count;
};
struct QueuePairs {
  QpSlice slice(unsigned dev, unsigned shard, unsigned shardTotal);
};

int pinned(Ctrl& ctrl, Ctx& ctx, Chain& chain, Buf& buf) {
  ctrl.prefetch(ctx, 0, 17, chain);
  return ctrl.asyncRead(ctx, 2, 17, buf, chain);
}

unsigned pinnedQueuePairs(QueuePairs& qps) {
  return qps.slice(0, 0, 1).count;
}
