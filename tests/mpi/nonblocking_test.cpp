// Non-blocking collectives, wait_any, iprobe.
#include <gtest/gtest.h>

#include "mpi_test_util.hpp"
#include "sim/time.hpp"
#include "storage/storage.hpp"

namespace gbc::mpi {
namespace {

using testing::MpiWorld;

TEST(Nonblocking, IbarrierOverlapsWithComputation) {
  MpiWorld w(4);
  std::vector<sim::Time> done(4, -1);
  w.run_all([&](RankCtx& r) -> sim::Task<void> {
    const Comm& wc = w.mpi.world();
    Request barrier = r.ibarrier(wc);
    // Everyone computes a full second while the barrier completes in the
    // background; the barrier must not serialize after the compute.
    co_await r.compute(sim::from_seconds(1));
    co_await r.wait(barrier);
    done[r.world_rank()] = w.eng.now();
  });
  for (int i = 0; i < 4; ++i) {
    EXPECT_LT(done[i], sim::from_seconds(1.05)) << "rank " << i;
  }
}

TEST(Nonblocking, IbcastDeliversWhileRootComputes) {
  MpiWorld w(4);
  int finished = 0;
  w.run_all([&](RankCtx& r) -> sim::Task<void> {
    const Comm& wc = w.mpi.world();
    Request bc = r.ibcast(wc, 0, storage::mib(1));
    co_await r.compute(sim::from_milliseconds(200));
    co_await r.wait(bc);
    ++finished;
  });
  EXPECT_EQ(finished, 4);
}

TEST(Nonblocking, IallgatherMatchesBlockingTiming) {
  sim::Time blocking_t, nonblocking_t;
  {
    MpiWorld w(4);
    w.run_all([&](RankCtx& r) -> sim::Task<void> {
      std::vector<double> none;
      (void)co_await r.allgather(w.mpi.world(), storage::mib(1), none);
    });
    blocking_t = w.eng.now();
  }
  {
    MpiWorld w(4);
    w.run_all([&](RankCtx& r) -> sim::Task<void> {
      Request ag = r.iallgather(w.mpi.world(), storage::mib(1));
      co_await r.wait(ag);
    });
    nonblocking_t = w.eng.now();
  }
  EXPECT_EQ(blocking_t, nonblocking_t);
}

TEST(Nonblocking, WaitAnyReturnsFirstCompletion) {
  MpiWorld w(3);
  std::size_t first = 99;
  w.run_all([&](RankCtx& r) -> sim::Task<void> {
    const Comm& wc = w.mpi.world();
    if (r.world_rank() == 0) {
      std::vector<Request> reqs;
      reqs.push_back(r.irecv(wc, 1, 0));  // arrives late
      reqs.push_back(r.irecv(wc, 2, 0));  // arrives early
      first = co_await r.wait_any(reqs);
      co_await r.wait_all(reqs);
    } else if (r.world_rank() == 1) {
      co_await r.compute(sim::from_seconds(2));
      co_await r.send(wc, 0, 0, 64);
    } else {
      co_await r.compute(sim::from_milliseconds(10));
      co_await r.send(wc, 0, 0, 64);
    }
  });
  EXPECT_EQ(first, 1u);  // the rank-2 receive finished first
}

TEST(Nonblocking, WaitAnyOnAlreadyCompleteReturnsImmediately) {
  MpiWorld w(2);
  std::size_t idx = 99;
  sim::Time at = -1;
  w.run_all([&](RankCtx& r) -> sim::Task<void> {
    const Comm& wc = w.mpi.world();
    if (r.world_rank() == 0) {
      Request s = r.isend(wc, 1, 0, 64);  // eager: completes instantly
      std::vector<Request> reqs{s};
      idx = co_await r.wait_any(reqs);
      at = w.eng.now();
    } else {
      co_await r.recv(wc, 0, 0);
    }
  });
  EXPECT_EQ(idx, 0u);
  EXPECT_EQ(at, 0);
}

TEST(Nonblocking, WaitAndWaitAnyOnOneRequestBothWake) {
  // Two waiters share one receive request: a wait() parks on the request's
  // own condition, a wait_any() on the rank's any-completion condition.
  // complete() must wake both, at the arrival time.
  MpiWorld w(2);
  sim::Time waited = -1;
  sim::Time waited_any = -1;
  w.run_all([&](RankCtx& r) -> sim::Task<void> {
    const Comm& wc = w.mpi.world();
    if (r.world_rank() == 1) {
      co_await r.compute(sim::from_milliseconds(5));
      co_await r.send(wc, 0, 4, 1024);
      co_return;
    }
    Request rq = r.irecv(wc, 1, 4);
    r.engine().spawn([](RankCtx& rk, Request req,
                        sim::Time& at) -> sim::Task<void> {
      std::vector<Request> set;
      set.push_back(std::move(req));
      EXPECT_EQ(co_await rk.wait_any(std::move(set)), 0u);
      at = rk.engine().now();
    }(r, rq, waited_any));
    co_await r.wait(rq);
    waited = r.engine().now();
    EXPECT_EQ(rq->info.source, 1);
  });
  EXPECT_GE(waited, sim::from_milliseconds(5));
  EXPECT_EQ(waited_any, waited);
}

TEST(Nonblocking, IprobeSeesUnexpectedMessage) {
  MpiWorld w(2);
  bool before = true, after = false;
  w.run_all([&](RankCtx& r) -> sim::Task<void> {
    const Comm& wc = w.mpi.world();
    if (r.world_rank() == 0) {
      co_await r.send(wc, 1, 9, 128);
    } else {
      before = r.iprobe(wc, 0, 9);  // nothing arrived yet
      co_await r.compute(sim::from_milliseconds(100));
      after = r.iprobe(wc, 0, 9);
      EXPECT_TRUE(r.iprobe(wc, kAnySource, kAnyTag));
      EXPECT_FALSE(r.iprobe(wc, 0, 10));  // wrong tag
      co_await r.recv(wc, 0, 9);
      EXPECT_FALSE(r.iprobe(wc, 0, 9));  // consumed
    }
  });
  EXPECT_FALSE(before);
  EXPECT_TRUE(after);
}

TEST(Nonblocking, OverlappedCollectivesKeepTagDiscipline) {
  MpiWorld w(4);
  int rounds_ok = 0;
  w.run_all([&](RankCtx& r) -> sim::Task<void> {
    const Comm& wc = w.mpi.world();
    for (int i = 0; i < 5; ++i) {
      Request a = r.ibarrier(wc);
      Request b = r.ibcast(wc, 0, 4096);
      co_await r.compute(sim::from_milliseconds(20));
      co_await r.wait(a);
      co_await r.wait(b);
    }
    ++rounds_ok;
  });
  EXPECT_EQ(rounds_ok, 4);
}

}  // namespace
}  // namespace gbc::mpi
