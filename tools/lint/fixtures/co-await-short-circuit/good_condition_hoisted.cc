// Fixture: the await lands in a local in its own statement and the
// condition tests the local. An await in a branch body, and a condition
// that only calls a function named like an awaitable, stay silent.
struct Task {
  bool await_ready();
};
Task waitBuf(int ctx);
Task claimLine(int ctx, int* line);
bool ready(int ctx);

Task ifHoisted(int ctx, int* done) {
  const bool ok = co_await waitBuf(ctx);
  if (ok) ++*done;
}

Task switchHoisted(int ctx, int* line) {
  const int r = co_await claimLine(ctx, line);
  switch (r) {
    case 0:
      co_await waitBuf(ctx);
      break;
  }
}

Task awaitInBody(int ctx, int* done) {
  while (ready(ctx)) {
    if (*done > 3) co_await waitBuf(ctx);
    ++*done;
  }
}
