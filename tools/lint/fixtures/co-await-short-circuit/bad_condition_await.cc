// Fixture: co_await inside an if / while / switch condition. g++ 12.2 has
// been seen to compile `if (co_await ...)` inside a switch case of a
// coroutine into code that dies with SIGILL; the rule flags every
// condition await, nested in a switch or not.
struct Task {
  bool await_ready();
};
Task waitBuf(int ctx);
Task claimLine(int ctx, int* line);
Task more(int ctx);

Task ifCondition(int ctx, int* done) {
  if (co_await waitBuf(ctx)) ++*done;
}

Task ifInsideSwitch(int ctx, int rel, int* done) {
  switch (rel) {
    case 1:
      if (co_await waitBuf(ctx)) ++*done;
      break;
  }
}

Task switchCondition(int ctx, int* line) {
  switch (co_await claimLine(ctx, line)) {
    case 0:
      co_return;
  }
}

Task whileCondition(int ctx) {
  while (!(co_await more(ctx))) {
  }
}
