#include "sim/timing_wheel.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <random>
#include <utility>
#include <vector>

#include "sim/engine.hpp"
#include "sim/task.hpp"

namespace gbc::sim {
namespace {

// Pops everything at or below `limit`, returning (t, seq) pairs in delivery
// order.
std::vector<std::pair<Time, std::uint64_t>> drain(TimingWheel& w, Time limit) {
  std::vector<std::pair<Time, std::uint64_t>> out;
  WheelEvent ev;
  while (w.pop(limit, ev)) out.emplace_back(ev.t, ev.seq);
  return out;
}

TEST(TimingWheel, PopsInTimeOrder) {
  TimingWheel w;
  std::uint64_t seq = 0;
  for (Time t : {30, 10, 20, 25, 5}) w.push(WheelEvent{t, seq++, 0});
  const auto got = drain(w, std::numeric_limits<Time>::max());
  const std::vector<std::pair<Time, std::uint64_t>> want{
      {5, 4}, {10, 1}, {20, 2}, {25, 3}, {30, 0}};
  EXPECT_EQ(got, want);
  EXPECT_TRUE(w.empty());
}

TEST(TimingWheel, EqualTimestampsPopInSeqOrder) {
  TimingWheel w;
  for (std::uint64_t s = 0; s < 32; ++s) w.push(WheelEvent{7, s, 0});
  const auto got = drain(w, 7);
  ASSERT_EQ(got.size(), 32u);
  for (std::uint64_t s = 0; s < 32; ++s) {
    EXPECT_EQ(got[s].first, 7);
    EXPECT_EQ(got[s].second, s);
  }
}

// Equal-timestamp FIFO must hold even when some of the events reach the leaf
// bucket by cascading down from a coarse level while others are inserted
// into it directly (after the clock has advanced near the shared timestamp).
TEST(TimingWheel, EqualTimestampFifoAcrossCascadeAndDirectInsert) {
  TimingWheel w;
  w.push(WheelEvent{100, 1, 0});  // parks in the min-register
  w.push(WheelEvent{70, 2, 0});   // displaces it: seq 1 goes to a coarse slot
  w.push(WheelEvent{100, 3, 0});  // coarse slot too (clock still at 0)
  WheelEvent ev;
  ASSERT_TRUE(w.pop(70, ev));  // advances toward t=70
  EXPECT_EQ(ev.t, 70);
  EXPECT_EQ(ev.seq, 2u);
  // Appended to the same coarse slot as seq 1/3; all three cascade together
  // into one leaf bucket when the clock crosses t=64.
  w.push(WheelEvent{100, 4, 0});
  const auto got = drain(w, 100);
  const std::vector<std::pair<Time, std::uint64_t>> want{
      {100, 1}, {100, 3}, {100, 4}};
  EXPECT_EQ(got, want);
}

// A displaced min-register event re-enters the wheel *after* later-scheduled
// events with the same timestamp already sit in its bucket; the drain-time
// seq sort must restore schedule order.
TEST(TimingWheel, DisplacedRegisterKeepsEqualTimestampFifo) {
  TimingWheel w;
  w.push(WheelEvent{100, 1, 0});  // register
  w.push(WheelEvent{100, 2, 0});  // wheel bucket: [seq 2]
  w.push(WheelEvent{50, 3, 0});   // displaces seq 1 -> bucket: [seq 2, seq 1]
  const auto got = drain(w, std::numeric_limits<Time>::max());
  const std::vector<std::pair<Time, std::uint64_t>> want{
      {50, 3}, {100, 1}, {100, 2}};
  EXPECT_EQ(got, want);
}

TEST(TimingWheel, PopRespectsLimitAndKeepsEventQueued) {
  TimingWheel w;
  w.push(WheelEvent{50, 0, 0});
  WheelEvent ev;
  EXPECT_FALSE(w.pop(49, ev));
  EXPECT_EQ(w.size(), 1u);
  EXPECT_LE(w.current(), 49);  // never advanced past the limit
  ASSERT_TRUE(w.pop(50, ev));
  EXPECT_EQ(ev.t, 50);
  EXPECT_TRUE(w.empty());
}

TEST(TimingWheel, FarFutureEventsMigrateFromOverflow) {
  TimingWheel w;
  // Beyond the 2^48 ns wheel horizon: held in the overflow heap.
  const Time far = TimingWheel::kHorizon + 5;
  const Time farther = 2 * TimingWheel::kHorizon + 11;
  w.push(WheelEvent{far, 0, 0});
  w.push(WheelEvent{far, 1, 0});
  w.push(WheelEvent{farther, 2, 0});
  w.push(WheelEvent{10, 3, 0});
  EXPECT_EQ(w.size(), 4u);
  const auto got = drain(w, std::numeric_limits<Time>::max());
  const std::vector<std::pair<Time, std::uint64_t>> want{
      {10, 3}, {far, 0}, {far, 1}, {farther, 2}};
  EXPECT_EQ(got, want);
}

TEST(TimingWheel, OverflowRespectsPopLimit) {
  TimingWheel w;
  const Time far = TimingWheel::kHorizon + 123;
  w.push(WheelEvent{far, 0, 0});
  WheelEvent ev;
  EXPECT_FALSE(w.pop(far - 1, ev));
  EXPECT_EQ(w.size(), 1u);
  ASSERT_TRUE(w.pop(far, ev));
  EXPECT_EQ(ev.t, far);
}

TEST(TimingWheel, ClearDropsEverything) {
  TimingWheel w;
  for (Time t : {Time{1}, Time{100}, Time{10000}, TimingWheel::kHorizon + 1}) {
    w.push(WheelEvent{t, static_cast<std::uint64_t>(t), 0});
  }
  w.clear();
  EXPECT_TRUE(w.empty());
  WheelEvent ev;
  EXPECT_FALSE(w.pop(std::numeric_limits<Time>::max(), ev));
  // Reusable after a clear.
  w.push(WheelEvent{5, 0, 0});
  ASSERT_TRUE(w.pop(5, ev));
  EXPECT_EQ(ev.t, 5);
}

// Randomized push/pop interleavings against a sort-by-(t, seq) reference:
// the wheel must deliver the exact (t, seq) order the engine's determinism
// contract requires, across leaf inserts, cascades and epoch overflow.
TEST(TimingWheel, RandomScheduleMatchesReferenceOrder) {
  std::mt19937 rng(20070814);
  TimingWheel w;
  std::vector<std::pair<Time, std::uint64_t>> pending;
  std::vector<std::pair<Time, std::uint64_t>> delivered;
  std::uint64_t seq = 0;
  Time now = 0;
  for (int round = 0; round < 400; ++round) {
    const int pushes = static_cast<int>(rng() % 8);
    for (int i = 0; i < pushes; ++i) {
      // Mix of near, slot-boundary, far, and beyond-horizon offsets.
      Time dt = 0;
      switch (rng() % 5) {
        case 0: dt = static_cast<Time>(rng() % 4); break;
        case 1: dt = static_cast<Time>(rng() % 256); break;
        case 2: dt = static_cast<Time>(rng() % (1 << 20)); break;
        case 3: dt = static_cast<Time>(rng() % (1ull << 40)); break;
        default: dt = TimingWheel::kHorizon + static_cast<Time>(rng() % 100);
      }
      const Time t = now + dt;
      w.push(WheelEvent{t, seq, 0});
      pending.emplace_back(t, seq);
      ++seq;
    }
    const int pops = static_cast<int>(rng() % 8);
    for (int i = 0; i < pops && !pending.empty(); ++i) {
      WheelEvent ev;
      ASSERT_TRUE(w.pop(std::numeric_limits<Time>::max(), ev));
      delivered.emplace_back(ev.t, ev.seq);
      now = ev.t;
      pending.erase(std::find(pending.begin(), pending.end(),
                              std::make_pair(ev.t, ev.seq)));
    }
  }
  WheelEvent ev;
  while (w.pop(std::numeric_limits<Time>::max(), ev)) {
    delivered.emplace_back(ev.t, ev.seq);
  }
  auto want = delivered;
  std::sort(want.begin(), want.end());
  EXPECT_EQ(delivered, want) << "wheel delivery deviated from (t, seq) order";
  EXPECT_TRUE(w.empty());
}

// ---------------------------------------------------------------------------
// Engine-level semantics that ride on the wheel
// ---------------------------------------------------------------------------

TEST(EngineWheel, RunUntilBoundaryThenScheduleJustAfter) {
  Engine eng;
  std::vector<Time> fired;
  eng.schedule_at(10, [&] { fired.push_back(eng.now()); });
  eng.schedule_at(30, [&] { fired.push_back(eng.now()); });
  eng.run_until(20);
  EXPECT_EQ(eng.now(), 20);
  // The clock parked at the boundary must accept events between the boundary
  // and the still-queued t=30 event.
  eng.schedule_at(21, [&] { fired.push_back(eng.now()); });
  eng.run();
  EXPECT_EQ(fired, (std::vector<Time>{10, 21, 30}));
}

TEST(EngineWheel, DelayChainAcrossWheelLevels) {
  Engine eng;
  std::vector<Time> waypoints;
  eng.spawn([](Engine& e, std::vector<Time>& wp) -> Task<void> {
    for (Time d : {Time{1}, Time{63}, Time{64}, Time{4096}, Time{1} << 30,
                   TimingWheel::kHorizon + 7}) {
      co_await e.delay(d);
      wp.push_back(e.now());
    }
  }(eng, waypoints));
  eng.run();
  ASSERT_EQ(waypoints.size(), 6u);
  Time expect = 0;
  std::size_t i = 0;
  for (Time d : {Time{1}, Time{63}, Time{64}, Time{4096}, Time{1} << 30,
                 TimingWheel::kHorizon + 7}) {
    expect += d;
    EXPECT_EQ(waypoints[i++], expect);
  }
}

#if !GBC_POOLS_PASSTHROUGH
// Suspension records (delay/condition waits) must recycle through the
// thread's RecordPool instead of hitting the heap per wake: each delay's
// record is released when its awaiter resumes, so every wait after the
// first reuses a block.
TEST(EngineWheel, SuspendStateRecordsRecycle) {
  const std::uint64_t before = RecordPool<SuspendState>::reused();
  Engine eng;
  eng.spawn([](Engine& e) -> Task<void> {
    for (int i = 0; i < 1000; ++i) co_await e.delay(1);
  }(eng));
  eng.run();
  EXPECT_GE(RecordPool<SuspendState>::reused() - before, 999u);
  EXPECT_EQ(eng.live_suspensions(), 0u);
}
#endif

}  // namespace
}  // namespace gbc::sim
