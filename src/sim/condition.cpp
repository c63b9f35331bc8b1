#include "sim/condition.hpp"

namespace gbc::sim {

Task<bool> Condition::wait_for(Time timeout) {
  // Race a timer against the condition; whichever settles the shared state
  // first wins, the loser finds `settled` already true and does nothing.
  struct RaceAwaiter {
    Condition& cv;
    Time timeout;
    SuspendRef state;
    bool notified = true;  // a notify wins unless the timer settles first

    bool await_ready() const noexcept { return false; }
    void await_suspend(std::coroutine_handle<> h) {
      state = cv.eng_->register_suspension(h);
      cv.waiters_.push_back(state);
      // The timer holds its own reference: when a notify wins, it fires
      // after the waiter has resumed and its frame is gone. It reaches the
      // awaiter's `notified` only while the record is unsettled, i.e. while
      // the waiter is still parked.
      cv.eng_->schedule_after(timeout, [s = state, flag = &notified] {
        if (s->settled) return;  // notify already scheduled the resume
        s->settled = true;
        *flag = false;
        if (s->alive) s->handle.resume();
      });
    }
    bool await_resume() const {
      state->alive = false;
      if (cv.eng_->aborted()) throw SimAborted{};
      return notified;
    }
  };

  co_return co_await RaceAwaiter{*this, timeout, nullptr};
}

}  // namespace gbc::sim
