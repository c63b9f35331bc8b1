#include "sim/condition.hpp"

#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "sim/engine.hpp"
#include "sim/pool.hpp"
#include "sim/task.hpp"

namespace gbc::sim {
namespace {

TEST(Condition, NotifyAllWakesEveryWaiter) {
  Engine eng;
  Condition cv(eng);
  int woke = 0;
  for (int i = 0; i < 5; ++i) {
    eng.spawn([](Condition& c, int& n) -> Task<void> {
      co_await c.wait();
      ++n;
    }(cv, woke));
  }
  eng.schedule_at(10, [&] { cv.notify_all(); });
  eng.run();
  EXPECT_EQ(woke, 5);
  EXPECT_EQ(eng.now(), 10);
}

TEST(Condition, NotifyOneWakesExactlyOne) {
  Engine eng;
  Condition cv(eng);
  int woke = 0;
  for (int i = 0; i < 3; ++i) {
    eng.spawn([](Condition& c, int& n) -> Task<void> {
      co_await c.wait();
      ++n;
    }(cv, woke));
  }
  eng.schedule_at(5, [&] { cv.notify_one(); });
  eng.run_until(6);
  EXPECT_EQ(woke, 1);
  eng.schedule_now([&] { cv.notify_all(); });
  eng.run();
  EXPECT_EQ(woke, 3);
}

TEST(Condition, NotifyWithNoWaitersIsHarmless) {
  Engine eng;
  Condition cv(eng);
  cv.notify_all();
  cv.notify_one();
  eng.run();
  SUCCEED();
}

TEST(Condition, WaitersWakeInFifoOrder) {
  Engine eng;
  Condition cv(eng);
  std::vector<int> order;
  for (int i = 0; i < 4; ++i) {
    eng.spawn([](Condition& c, std::vector<int>& ord, int id) -> Task<void> {
      co_await c.wait();
      ord.push_back(id);
    }(cv, order, i));
  }
  eng.schedule_at(1, [&] { cv.notify_all(); });
  eng.run();
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3}));
}

TEST(Condition, WaitUntilChecksPredicateBeforeWaiting) {
  Engine eng;
  Condition cv(eng);
  bool flag = true;
  bool done = false;
  eng.spawn([](Condition& c, bool& f, bool& d) -> Task<void> {
    co_await c.wait_until([&f] { return f; });
    d = true;
  }(cv, flag, done));
  EXPECT_TRUE(done);  // never suspended
  eng.run();
}

TEST(Condition, WaitUntilLoopsAcrossSpuriousNotifies) {
  Engine eng;
  Condition cv(eng);
  int value = 0;
  Time done_at = -1;
  eng.spawn([](Engine& e, Condition& c, int& v, Time& d) -> Task<void> {
    co_await c.wait_until([&v] { return v >= 3; });
    d = e.now();
  }(eng, cv, value, done_at));
  for (Time t = 10; t <= 40; t += 10) {
    eng.schedule_at(t, [&] {
      ++value;
      cv.notify_all();
    });
  }
  eng.run();
  EXPECT_EQ(done_at, 30);
}

TEST(Condition, WaitForReturnsTrueWhenNotifiedFirst) {
  Engine eng;
  Condition cv(eng);
  bool notified = false;
  eng.spawn([](Condition& c, bool& out) -> Task<void> {
    out = co_await c.wait_for(100);
  }(cv, notified));
  eng.schedule_at(50, [&] { cv.notify_all(); });
  eng.run();
  EXPECT_TRUE(notified);
  EXPECT_EQ(eng.now(), 100);  // the stale timer still drains
}

TEST(Condition, WaitForReturnsFalseOnTimeout) {
  Engine eng;
  Condition cv(eng);
  bool notified = true;
  Time woke_at = -1;
  eng.spawn([](Engine& e, Condition& c, bool& out, Time& at) -> Task<void> {
    out = co_await c.wait_for(100);
    at = e.now();
  }(eng, cv, notified, woke_at));
  eng.run();
  EXPECT_FALSE(notified);
  EXPECT_EQ(woke_at, 100);
}

TEST(Condition, WaitForTimedOutWaiterIgnoresLaterNotify) {
  Engine eng;
  Condition cv(eng);
  int wakes = 0;
  eng.spawn([](Condition& c, int& n) -> Task<void> {
    (void)co_await c.wait_for(10);
    ++n;
  }(cv, wakes));
  eng.schedule_at(50, [&] { cv.notify_all(); });
  eng.run();
  EXPECT_EQ(wakes, 1);
}

TEST(Condition, WaitForTimerFiringAfterNotifyIsInert) {
  // The notify wins at 10 and the waiter resumes then; the timer still owns
  // a reference to the settled record and fires at 100. It must neither
  // resume anything nor release the record a second time.
  const std::int64_t records = RecordPool<SuspendState>::outstanding();
  Engine eng;
  Condition cv(eng);
  int resumes = 0;
  bool notified = false;
  eng.spawn([](Condition& c, int& n, bool& out) -> Task<void> {
    out = co_await c.wait_for(100);
    ++n;
  }(cv, resumes, notified));
  eng.schedule_at(10, [&] { cv.notify_all(); });
  eng.run_until(50);
  EXPECT_EQ(resumes, 1);
  EXPECT_TRUE(notified);
  EXPECT_EQ(eng.live_suspensions(), 1u);  // held by the pending timer only
  eng.run();
  EXPECT_EQ(eng.now(), 100);
  EXPECT_EQ(resumes, 1);
  EXPECT_EQ(eng.live_suspensions(), 0u);
  EXPECT_EQ(RecordPool<SuspendState>::outstanding(), records);
}

TEST(Condition, RecordsOutlivingTheirEngineNeverTouchIt) {
  // A record can survive its engine. Releasing it later must not reach the
  // dead engine (checked under ASan) and must return it to the pool.
  const std::int64_t records = RecordPool<SuspendState>::outstanding();
  {
    // Held by a wait_for timer still queued when the engine dies.
    auto eng = std::make_unique<Engine>();
    Condition cv(*eng);
    eng->spawn([](Condition& c) -> Task<void> {
      (void)co_await c.wait_for(100);
    }(cv));
    eng->schedule_at(10, [&] { cv.notify_all(); });
    eng->run_until(50);
    EXPECT_EQ(eng->live_suspensions(), 1u);
    eng.reset();
  }
  EXPECT_EQ(RecordPool<SuspendState>::outstanding(), records);
  {
    // Held by a Condition destroyed after the engine: abort_all unwinds the
    // parked waiter, but the Condition keeps its reference.
    auto eng = std::make_unique<Engine>();
    Condition cv(*eng);
    eng->spawn([](Condition& c) -> Task<void> { co_await c.wait(); }(cv));
    eng->abort_all();
    EXPECT_EQ(eng->live_suspensions(), 1u);
    eng.reset();
  }
  EXPECT_EQ(RecordPool<SuspendState>::outstanding(), records);
}

}  // namespace
}  // namespace gbc::sim
