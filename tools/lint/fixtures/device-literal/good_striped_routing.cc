// Fixture: element->device routing flows through the striped elemAddr
// choke point; no literal device index reaches a submission call. The
// element accessors take an index, not a device, so a literal index there
// is fine.
struct Ctx {};
struct Chain {};
struct Buf {};
struct ElemAddr {
  unsigned dev;
  unsigned long lba;
};
struct StripeMap {};
ElemAddr elemAddr(unsigned long idx, const StripeMap& map);
struct Ctrl {
  int arrayRead(Ctx& ctx, unsigned long idx, Chain& c);
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

int striped(Ctrl& ctrl, Ctx& ctx, Chain& chain, Buf& buf,
            const StripeMap& stripe, unsigned long idx) {
  const ElemAddr at = elemAddr(idx, stripe);
  ctrl.prefetch(ctx, at.dev, at.lba, chain);
  int t = ctrl.asyncRead(ctx, at.dev, at.lba, buf, chain);
  return t + ctrl.arrayRead(ctx, idx, chain) + ctrl.arrayRead(ctx, 0, chain);
}

unsigned routedQueuePairs(QueuePairs& qps, const StripeMap& stripe,
                          unsigned long idx) {
  return qps.slice(elemAddr(idx, stripe).dev, 0, 1).count;
}
