// Fixture: co_await as an operand of && / ||. g++ 12 has been seen to
// miscompile such an await: the lane resumed outside the scheduler
// awaitables (SIGILL, or the kernel-suspended-outside-awaitables check).
struct Task {
  bool await_ready();
};
Task warpLeader(int ctx, unsigned long key);
Task admit(int ctx);
Task ready(int ctx);

Task electRight(int ctx, bool coalescing, unsigned lane) {
  if (coalescing && co_await warpLeader(ctx, 7) != lane) co_return;
}

Task admitNegated(int ctx, void* q) {
  if (q != nullptr &&
      !co_await admit(ctx)) {
    co_return;
  }
}

Task leftOperand(int ctx, bool spin) {
  while (co_await ready(ctx) || spin) {
  }
}

Task templateCall(int ctx, bool skip) {
  if (skip || (co_await ctx.template read<int>(ctx, 3))) co_return;
}
