// Fixture: every await is its own statement (or initializer), and the
// short-circuit test reads the local. `&&` next to a co_await in a
// forwarding reference or a comment is not a short-circuit operand:
// if (a && co_await b()) stays silent here.
struct Task {
  bool await_ready();
};
Task warpLeader(int ctx, unsigned long key);
Task admit(int ctx);
Task fetch(int ctx);

Task electHoisted(int ctx, bool coalescing, unsigned lane) {
  if (coalescing) {
    const unsigned leader = co_await warpLeader(ctx, 7);
    if (leader != lane) co_return;
  }
}

Task admitHoisted(int ctx, void* q) {
  if (q != nullptr) {
    const bool admitted = co_await admit(ctx);
    if (!admitted) co_return;
  }
}

Task forwardingRef(int ctx, bool a, bool b) {
  auto&& v = co_await fetch(ctx);
  const bool both = a && b;
  const bool less = co_await fetch(ctx) < 3;
  (void)v;
  (void)both;
  (void)less;
}
