// Coroutine task type for simulated GPU threads.
//
// Every simulated GPU thread ("lane") is a C++20 coroutine returning
// GpuTask<void>. Device-side library functions that may stall (cache reads,
// NVMe submissions) are themselves coroutines returning GpuTask<T> and are
// composed with `co_await`. Awaiting a child resumes it inline; a child that
// finishes without suspending hands control straight back (the awaiter
// returns false), so a loop over many such children never grows the native
// stack, even where the compiler does not turn symmetric transfer into a
// tail call (GCC at -O1 with ASan). A child that did suspend resumes its
// parent from final_suspend by symmetric transfer.
//
// Scheduling protocol: a GpuTask chain only ever suspends back to the warp
// scheduler through one of the KernelCtx awaitables (yield / sleep / park /
// warp collectives / block barrier), each of which records the innermost
// coroutine handle in the Lane. The scheduler resumes that handle directly.
#pragma once

#include <coroutine>
#include <exception>
#include <utility>

#include "common/annotations.h"
#include "common/check.h"

namespace agile::gpu {

// nodiscard at class level: a GpuTask discarded at statement level destroys
// the suspended coroutine before it ever runs — the call silently does
// nothing. Every producer (submit*, claim*, acquire*, kernels) is covered
// at once, at every call site.
template <class T>
class AGILE_NODISCARD(
    "a GpuTask must be co_awaited or driven via handle(); discarding it "
    "destroys the coroutine before it runs") GpuTask;

namespace detail {

struct PromiseBase {
  std::coroutine_handle<> continuation;
  // True while the awaiter's inline resume() is on the stack: finishing then
  // returns to that call, which resumes the parent by returning false.
  bool resumedInline = false;

  struct FinalAwaiter {
    bool await_ready() noexcept { return false; }
    template <class P>
    std::coroutine_handle<> await_suspend(
        std::coroutine_handle<P> h) noexcept {
      const PromiseBase& p = h.promise();
      if (p.resumedInline || !p.continuation) return std::noop_coroutine();
      return p.continuation;
    }
    void await_resume() noexcept {}
  };

  std::suspend_always initial_suspend() noexcept { return {}; }
  FinalAwaiter final_suspend() noexcept { return {}; }
  // Simulated device code must not throw; a stray exception is a bug in the
  // kernel, not a recoverable condition.
  [[noreturn]] void unhandled_exception() { std::terminate(); }
};

// Shared by both GpuTask awaiters: run the child inline; keep the parent
// suspended (true) only if the child suspended before finishing.
template <class P>
bool resumeChild(std::coroutine_handle<P> child,
                 std::coroutine_handle<> parent) noexcept {
  PromiseBase& p = child.promise();
  p.continuation = parent;
  p.resumedInline = true;
  child.resume();
  p.resumedInline = false;
  return !child.done();
}

}  // namespace detail

template <class T = void>
class GpuTask {
 public:
  struct promise_type : detail::PromiseBase {
    T value{};
    GpuTask get_return_object() {
      return GpuTask{std::coroutine_handle<promise_type>::from_promise(*this)};
    }
    void return_value(T v) { value = std::move(v); }
  };
  using Handle = std::coroutine_handle<promise_type>;

  GpuTask() = default;
  explicit GpuTask(Handle h) : h_(h) {}
  GpuTask(GpuTask&& o) noexcept : h_(std::exchange(o.h_, nullptr)) {}
  GpuTask& operator=(GpuTask&& o) noexcept {
    if (this != &o) {
      reset();
      h_ = std::exchange(o.h_, nullptr);
    }
    return *this;
  }
  GpuTask(const GpuTask&) = delete;
  GpuTask& operator=(const GpuTask&) = delete;
  ~GpuTask() { reset(); }

  bool valid() const { return static_cast<bool>(h_); }
  bool done() const { return !h_ || h_.done(); }
  Handle handle() const { return h_; }

  void reset() {
    if (h_) {
      h_.destroy();
      h_ = nullptr;
    }
  }

  auto operator co_await() noexcept {
    struct Awaiter {
      Handle h;
      bool await_ready() const noexcept { return !h || h.done(); }
      bool await_suspend(std::coroutine_handle<> cont) noexcept {
        return detail::resumeChild(h, cont);
      }
      T await_resume() { return std::move(h.promise().value); }
    };
    return Awaiter{h_};
  }

 private:
  Handle h_ = nullptr;
};

template <>
class AGILE_NODISCARD(
    "a GpuTask must be co_awaited or driven via handle(); discarding it "
    "destroys the coroutine before it runs") GpuTask<void> {
 public:
  struct promise_type : detail::PromiseBase {
    GpuTask get_return_object() {
      return GpuTask{std::coroutine_handle<promise_type>::from_promise(*this)};
    }
    void return_void() {}
  };
  using Handle = std::coroutine_handle<promise_type>;

  GpuTask() = default;
  explicit GpuTask(Handle h) : h_(h) {}
  GpuTask(GpuTask&& o) noexcept : h_(std::exchange(o.h_, nullptr)) {}
  GpuTask& operator=(GpuTask&& o) noexcept {
    if (this != &o) {
      reset();
      h_ = std::exchange(o.h_, nullptr);
    }
    return *this;
  }
  GpuTask(const GpuTask&) = delete;
  GpuTask& operator=(const GpuTask&) = delete;
  ~GpuTask() { reset(); }

  bool valid() const { return static_cast<bool>(h_); }
  bool done() const { return !h_ || h_.done(); }
  Handle handle() const { return h_; }

  void reset() {
    if (h_) {
      h_.destroy();
      h_ = nullptr;
    }
  }

  auto operator co_await() noexcept {
    struct Awaiter {
      Handle h;
      bool await_ready() const noexcept { return !h || h.done(); }
      bool await_suspend(std::coroutine_handle<> cont) noexcept {
        return detail::resumeChild(h, cont);
      }
      void await_resume() const noexcept {}
    };
    return Awaiter{h_};
  }

 private:
  Handle h_ = nullptr;
};

}  // namespace agile::gpu
