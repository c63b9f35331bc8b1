#include "sim/engine.hpp"

#include <cassert>
#include <stdexcept>

namespace gbc::sim {

namespace {

// Detached driver coroutine: eagerly started, self-destroying.
struct Detached {
  struct promise_type : PooledFrame {
    Detached get_return_object() { return {}; }
    std::suspend_never initial_suspend() noexcept { return {}; }
    std::suspend_never final_suspend() noexcept { return {}; }
    void return_void() {}
    void unhandled_exception() { std::terminate(); }
  };
};

Detached drive(Engine* eng, Task<void> body) {
  try {
    co_await std::move(body);
  } catch (const SimAborted&) {
    // Normal teardown path.
  } catch (...) {
    eng->internal_process_error(std::current_exception());
  }
  eng->internal_process_exit();
}

}  // namespace

Engine::~Engine() {
  // Records can outlive the engine (a Condition, a Request or a dropped
  // timer callback still holds them): cut them loose so their release never
  // reaches back into this engine.
  for (SuspendState* s = susp_head_; s != nullptr;) {
    SuspendState* next = s->next;
    s->eng = nullptr;
    s->prev = s->next = nullptr;
    s = next;
  }
}

std::uint32_t Engine::acquire_slot(InlineFn fn) {
  if (!free_slots_.empty()) {
    const std::uint32_t slot = free_slots_.back();
    free_slots_.pop_back();
    slots_[slot] = std::move(fn);
    return slot;
  }
  slots_.push_back(std::move(fn));
  return static_cast<std::uint32_t>(slots_.size() - 1);
}

void Engine::schedule_at(Time t, InlineFn fn) {
  assert(t >= now_ && "scheduling into the past");
  queue_.push(WheelEvent{t < now_ ? now_ : t, next_seq_++,
                         acquire_slot(std::move(fn))});
}

void Engine::schedule_after(Time delay, InlineFn fn) {
  schedule_at(now_ + (delay < 0 ? 0 : delay), std::move(fn));
}

void Engine::schedule_at_back(Time t, InlineFn fn) {
  assert(t >= now_ && "scheduling into the past");
  queue_.push(WheelEvent{t < now_ ? now_ : t, next_seq_++ | kBackBand,
                         acquire_slot(std::move(fn))});
}

void Engine::spawn(Task<void> body) {
  ++live_;
  drive(this, std::move(body));
}

void Engine::step(const WheelEvent& ev) {
  now_ = ev.t;
  ++events_;
  // Move the callable out before invoking: the callback may schedule new
  // events, which can recycle this slot or grow the slot vector.
  InlineFn fn = std::move(slots_[ev.slot]);
  free_slots_.push_back(ev.slot);
  fn();
}

void Engine::run() {
  WheelEvent ev;
  while (queue_.pop(kMaxSimTime, ev)) {
    step(ev);
    if (!errors_.empty()) {
      auto e = errors_.front();
      errors_.clear();
      std::rethrow_exception(e);
    }
  }
}

void Engine::run_until(Time t) {
  WheelEvent ev;
  while (queue_.pop(t, ev)) {
    step(ev);
    if (!errors_.empty()) {
      auto e = errors_.front();
      errors_.clear();
      std::rethrow_exception(e);
    }
  }
  if (t > now_) now_ = t;
}

void Engine::abort_all() {
  aborted_ = true;
  // One walk of the registration list. Resuming a waiter can release other
  // records (they unlink themselves) or register new, immediately-throwing
  // ones (appended at the tail, so this walk reaches them after every older
  // record). Holding the current record keeps its `next` valid across the
  // resume.
  for (SuspendState* s = susp_head_; s != nullptr;) {
    SuspendRef hold(s);
    if (s->alive && !s->settled) {
      s->settled = true;
      s->handle.resume();
    }
    s = s->next;
  }
  // Drop any queued callbacks; their targets checked `alive` anyway.
  queue_.clear();
  slots_.clear();
  free_slots_.clear();
}

void Engine::DelayAwaiter::await_suspend(std::coroutine_handle<> h) {
  state = eng.register_suspension(h);
  // Raw capture, not a SuspendRef copy: the awaiter's reference keeps the
  // record alive while the coroutine is suspended, the callback never
  // touches it after resume(), and a callback dropped unrun (abort_all /
  // teardown clears the queue) destroys only the pointer.
  eng.schedule_after(delay, [s = state.get()] {
    if (s->settled) return;
    s->settled = true;
    if (s->alive) s->handle.resume();
  });
}

}  // namespace gbc::sim
