#include "sim/engine.hpp"

#include <gtest/gtest.h>

#include <vector>

#include "sim/condition.hpp"
#include "sim/task.hpp"
#include "sim/time.hpp"

namespace gbc::sim {
namespace {

TEST(Engine, StartsAtTimeZero) {
  Engine eng;
  EXPECT_EQ(eng.now(), 0);
}

TEST(Engine, ScheduledCallbacksFireInTimeOrder) {
  Engine eng;
  std::vector<int> order;
  eng.schedule_at(30, [&] { order.push_back(3); });
  eng.schedule_at(10, [&] { order.push_back(1); });
  eng.schedule_at(20, [&] { order.push_back(2); });
  eng.run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_EQ(eng.now(), 30);
}

TEST(Engine, SameTimeCallbacksFireInScheduleOrder) {
  Engine eng;
  std::vector<int> order;
  for (int i = 0; i < 16; ++i) {
    eng.schedule_at(5, [&order, i] { order.push_back(i); });
  }
  eng.run();
  ASSERT_EQ(order.size(), 16u);
  for (int i = 0; i < 16; ++i) EXPECT_EQ(order[i], i);
}

// A back-band event runs after every ordinary event at its timestamp, even
// one scheduled later. The back-band event parks in the timing wheel's
// one-event register first; the later ordinary event draws the lower
// (t, seq) key and must displace it, which only a full-key register
// comparison does (comparing t alone would leave the back-band event first).
TEST(Engine, BackBandEventRunsAfterLaterOrdinaryEventAtEqualTime) {
  Engine eng;
  std::vector<int> order;
  eng.schedule_at_back(10, [&] { order.push_back(2); });
  eng.schedule_at(10, [&] { order.push_back(1); });
  eng.run();
  EXPECT_EQ(order, (std::vector<int>{1, 2}));
}

TEST(Engine, ScheduleAfterUsesCurrentTime) {
  Engine eng;
  Time fired = -1;
  eng.schedule_at(100, [&] {
    eng.schedule_after(50, [&] { fired = eng.now(); });
  });
  eng.run();
  EXPECT_EQ(fired, 150);
}

TEST(Engine, RunUntilStopsAtBoundaryAndAdvancesClock) {
  Engine eng;
  int fired = 0;
  eng.schedule_at(10, [&] { ++fired; });
  eng.schedule_at(20, [&] { ++fired; });
  eng.schedule_at(30, [&] { ++fired; });
  eng.run_until(20);
  EXPECT_EQ(fired, 2);
  EXPECT_EQ(eng.now(), 20);
  eng.run();
  EXPECT_EQ(fired, 3);
}

TEST(Engine, RunUntilAdvancesClockEvenWithNoEvents) {
  Engine eng;
  eng.run_until(12345);
  EXPECT_EQ(eng.now(), 12345);
}

TEST(Engine, SpawnRunsBodyEagerlyUntilFirstSuspension) {
  Engine eng;
  bool entered = false;
  bool finished = false;
  eng.spawn([](Engine& e, bool& en, bool& fin) -> Task<void> {
    en = true;
    co_await e.delay(5);
    fin = true;
  }(eng, entered, finished));
  EXPECT_TRUE(entered);
  EXPECT_FALSE(finished);
  eng.run();
  EXPECT_TRUE(finished);
  EXPECT_EQ(eng.now(), 5);
}

TEST(Engine, LiveProcessCountTracksCompletion) {
  Engine eng;
  auto sleeper = [](Engine& e, Time d) -> Task<void> { co_await e.delay(d); };
  eng.spawn(sleeper(eng, 10));
  eng.spawn(sleeper(eng, 20));
  EXPECT_EQ(eng.live_processes(), 2);
  eng.run_until(10);
  EXPECT_EQ(eng.live_processes(), 1);
  eng.run();
  EXPECT_EQ(eng.live_processes(), 0);
}

TEST(Engine, DelayZeroCompletesWithoutSuspension) {
  Engine eng;
  int steps = 0;
  eng.spawn([](Engine& e, int& s) -> Task<void> {
    co_await e.delay(0);
    ++s;
    co_await e.delay(-5);  // negative clamps to "no wait"
    ++s;
  }(eng, steps));
  EXPECT_EQ(steps, 2);
  eng.run();
}

TEST(Engine, NestedTasksPropagateResults) {
  Engine eng;
  auto inner = [](Engine& e) -> Task<int> {
    co_await e.delay(7);
    co_return 42;
  };
  int got = 0;
  eng.spawn([](Engine& e, auto inner_fn, int& out) -> Task<void> {
    out = co_await inner_fn(e);
  }(eng, inner, got));
  eng.run();
  EXPECT_EQ(got, 42);
  EXPECT_EQ(eng.now(), 7);
}

TEST(Engine, ExceptionsInProcessesSurfaceFromRun) {
  Engine eng;
  eng.spawn([](Engine& e) -> Task<void> {
    co_await e.delay(3);
    throw std::logic_error("boom");
  }(eng));
  EXPECT_THROW(eng.run(), std::logic_error);
}

TEST(Engine, ExceptionsPropagateThroughNestedTasks) {
  Engine eng;
  auto inner = [](Engine& e) -> Task<int> {
    co_await e.delay(1);
    throw std::runtime_error("inner");
    co_return 0;
  };
  bool caught = false;
  eng.spawn([](Engine& e, auto inner_fn, bool& c) -> Task<void> {
    try {
      (void)co_await inner_fn(e);
    } catch (const std::runtime_error&) {
      c = true;
    }
  }(eng, inner, caught));
  eng.run();
  EXPECT_TRUE(caught);
}

TEST(Engine, AbortAllUnwindsSuspendedProcesses) {
  Engine eng;
  bool cleaned_up = false;
  struct Cleanup {
    bool* flag;
    ~Cleanup() { *flag = true; }
  };
  eng.spawn([](Engine& e, bool& flag) -> Task<void> {
    Cleanup c{&flag};
    co_await e.delay(1000 * kSecond);
  }(eng, cleaned_up));
  eng.run_until(10);
  EXPECT_FALSE(cleaned_up);
  eng.abort_all();
  EXPECT_TRUE(cleaned_up);
  EXPECT_EQ(eng.live_processes(), 0);
}

TEST(Engine, AbortAllUnwindsDeepTaskChains) {
  Engine eng;
  int destroyed = 0;
  struct Probe {
    int* n;
    ~Probe() { ++*n; }
  };
  auto leaf = [](Engine& e, int& n) -> Task<void> {
    Probe p{&n};
    co_await e.delay(1000 * kSecond);
  };
  auto mid = [](Engine& e, int& n, auto leaf_fn) -> Task<void> {
    Probe p{&n};
    co_await leaf_fn(e, n);
  };
  eng.spawn([](Engine& e, int& n, auto mid_fn, auto leaf_fn) -> Task<void> {
    Probe p{&n};
    co_await mid_fn(e, n, leaf_fn);
  }(eng, destroyed, mid, leaf));
  eng.run_until(1);
  eng.abort_all();
  EXPECT_EQ(destroyed, 3);
}

// Parks on `cv` (or a long delay when cv is null); on the abort wake logs
// `id`, then, if asked, parks once more — a registration made during the
// abort sweep — and logs `id + 10` when that one is aborted too.
Task<void> park_then_repark(Engine& e, Condition* cv, int id, bool repark,
                            std::vector<int>& log) {
  try {
    if (cv != nullptr) {
      co_await cv->wait();
    } else {
      co_await e.delay(1000 * kSecond);
    }
  } catch (const SimAborted&) {
    log.push_back(id);
  }
  if (!repark) co_return;
  try {
    co_await e.delay(1000 * kSecond);
  } catch (const SimAborted&) {
    log.push_back(id + 10);
  }
}

TEST(Engine, AbortAllResumesWaitersInRegistrationOrder) {
  Engine eng;
  Condition cv(eng);
  std::vector<int> log;
  eng.spawn(park_then_repark(eng, nullptr, 0, false, log));
  eng.spawn(park_then_repark(eng, &cv, 1, true, log));
  eng.spawn(park_then_repark(eng, nullptr, 2, true, log));
  eng.spawn(park_then_repark(eng, &cv, 3, false, log));
  eng.run_until(10);
  EXPECT_EQ(eng.live_suspensions(), 4u);
  eng.abort_all();
  // Every waiter parked before the abort first, in registration order;
  // then the ones registered during the sweep, in their own order.
  EXPECT_EQ(log, (std::vector<int>{0, 1, 2, 3, 11, 12}));
  EXPECT_EQ(eng.live_processes(), 0);
  // Only the Condition's own references remain.
  EXPECT_EQ(eng.live_suspensions(), 2u);
}

TEST(Engine, ManyInterleavedProcessesKeepDeterministicClock) {
  Engine eng;
  std::vector<std::pair<int, Time>> wakes;
  for (int i = 0; i < 50; ++i) {
    eng.spawn([](Engine& e, int id, std::vector<std::pair<int, Time>>& w)
                  -> Task<void> {
      for (int k = 0; k < 4; ++k) {
        co_await e.delay(10 + id % 7);
        w.emplace_back(id, e.now());
      }
    }(eng, i, wakes));
  }
  eng.run();
  ASSERT_EQ(wakes.size(), 200u);
  // Timestamps must be non-decreasing (events fire in time order).
  for (std::size_t i = 1; i < wakes.size(); ++i) {
    EXPECT_LE(wakes[i - 1].second, wakes[i].second);
  }
}

}  // namespace
}  // namespace gbc::sim
