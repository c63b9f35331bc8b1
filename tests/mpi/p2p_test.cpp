#include <gtest/gtest.h>

#include <vector>

#include "mpi_test_util.hpp"
#include "sim/time.hpp"
#include "storage/storage.hpp"

namespace gbc::mpi {
namespace {

using storage::mib;
using testing::MpiWorld;

TEST(P2P, EagerSendRecvDeliversBytesAndTag) {
  MpiWorld w(2);
  RecvInfo got;
  w.run_all([&](RankCtx& r) -> sim::Task<void> {
    const Comm& wc = w.mpi.world();
    if (r.world_rank() == 0) {
      co_await r.send(wc, 1, 42, 1024);
    } else {
      got = co_await r.recv(wc, 0, 42);
    }
  });
  EXPECT_EQ(got.source, 0);
  EXPECT_EQ(got.tag, 42);
  EXPECT_EQ(got.bytes, 1024);
}

TEST(P2P, PayloadContentArrivesIntact) {
  MpiWorld w(2);
  std::vector<double> got;
  w.run_all([&](RankCtx& r) -> sim::Task<void> {
    const Comm& wc = w.mpi.world();
    if (r.world_rank() == 0) {
      co_await r.send(wc, 1, 0, 24, make_payload(1.5, 2.5, 3.5));
    } else {
      auto info = co_await r.recv(wc, 0, 0);
      got = *info.data;
    }
  });
  EXPECT_EQ(got, (std::vector<double>{1.5, 2.5, 3.5}));
}

TEST(P2P, RendezvousTransfersLargeMessages) {
  MpiWorld w(2);
  RecvInfo got;
  w.run_all([&](RankCtx& r) -> sim::Task<void> {
    const Comm& wc = w.mpi.world();
    if (r.world_rank() == 0) {
      co_await r.send(wc, 1, 7, mib(4));  // way over eager threshold
    } else {
      got = co_await r.recv(wc, 0, 7);
    }
  });
  EXPECT_EQ(got.bytes, mib(4));
}

TEST(P2P, RendezvousSenderBlocksUntilReceiverArrives) {
  MpiWorld w(2);
  sim::Time send_done = -1, recv_posted_at = sim::from_seconds(2);
  w.run_all([&](RankCtx& r) -> sim::Task<void> {
    const Comm& wc = w.mpi.world();
    if (r.world_rank() == 0) {
      co_await r.send(wc, 1, 0, mib(1));
      send_done = w.eng.now();
    } else {
      co_await r.compute(recv_posted_at);
      co_await r.recv(wc, 0, 0);
    }
  });
  EXPECT_GE(send_done, recv_posted_at);
}

TEST(P2P, EagerSendCompletesBeforeReceiverArrives) {
  MpiWorld w(2);
  sim::Time send_done = -1;
  w.run_all([&](RankCtx& r) -> sim::Task<void> {
    const Comm& wc = w.mpi.world();
    if (r.world_rank() == 0) {
      co_await r.send(wc, 1, 0, 512);  // eager: buffered, returns quickly
      send_done = w.eng.now();
    } else {
      co_await r.compute(sim::from_seconds(1));
      co_await r.recv(wc, 0, 0);
    }
  });
  EXPECT_LT(send_done, sim::from_milliseconds(10));
}

TEST(P2P, UnexpectedMessageMatchesLaterRecv) {
  MpiWorld w(2);
  RecvInfo got;
  w.run_all([&](RankCtx& r) -> sim::Task<void> {
    const Comm& wc = w.mpi.world();
    if (r.world_rank() == 0) {
      co_await r.send(wc, 1, 5, 100);
    } else {
      co_await r.compute(sim::from_milliseconds(100));  // message sits queued
      got = co_await r.recv(wc, 0, 5);
    }
  });
  EXPECT_EQ(got.bytes, 100);
}

TEST(P2P, AnySourceMatchesFirstArrival) {
  MpiWorld w(3);
  std::vector<int> sources;
  w.run_all([&](RankCtx& r) -> sim::Task<void> {
    const Comm& wc = w.mpi.world();
    if (r.world_rank() == 0) {
      for (int i = 0; i < 2; ++i) {
        auto info = co_await r.recv(wc, kAnySource, 3);
        sources.push_back(info.source);
      }
    } else {
      co_await r.compute(sim::from_microseconds(r.world_rank() * 100));
      co_await r.send(wc, 0, 3, 64);
    }
  });
  ASSERT_EQ(sources.size(), 2u);
  EXPECT_EQ(sources[0], 1);  // rank 1 sent earlier
  EXPECT_EQ(sources[1], 2);
}

TEST(P2P, AnyTagMatchesAnyMessage) {
  MpiWorld w(2);
  Tag got_tag = -99;
  w.run_all([&](RankCtx& r) -> sim::Task<void> {
    const Comm& wc = w.mpi.world();
    if (r.world_rank() == 0) {
      co_await r.send(wc, 1, 1234, 64);
    } else {
      auto info = co_await r.recv(wc, 0, kAnyTag);
      got_tag = info.tag;
    }
  });
  EXPECT_EQ(got_tag, 1234);
}

TEST(P2P, TagSelectionSkipsNonMatching) {
  MpiWorld w(2);
  std::vector<Tag> order;
  w.run_all([&](RankCtx& r) -> sim::Task<void> {
    const Comm& wc = w.mpi.world();
    if (r.world_rank() == 0) {
      co_await r.send(wc, 1, 10, 64);
      co_await r.send(wc, 1, 20, 64);
    } else {
      co_await r.compute(sim::from_milliseconds(1));
      auto a = co_await r.recv(wc, 0, 20);  // matches the second message
      auto b = co_await r.recv(wc, 0, 10);
      order = {a.tag, b.tag};
    }
  });
  EXPECT_EQ(order, (std::vector<Tag>{20, 10}));
}

TEST(P2P, SamePairSameTagIsNonOvertaking) {
  MpiWorld w(2);
  std::vector<double> values;
  w.run_all([&](RankCtx& r) -> sim::Task<void> {
    const Comm& wc = w.mpi.world();
    if (r.world_rank() == 0) {
      for (int i = 0; i < 5; ++i) {
        co_await r.send(wc, 1, 0, 64, make_payload(static_cast<double>(i)));
      }
    } else {
      for (int i = 0; i < 5; ++i) {
        auto info = co_await r.recv(wc, 0, 0);
        values.push_back(info.data->at(0));
      }
    }
  });
  EXPECT_EQ(values, (std::vector<double>{0, 1, 2, 3, 4}));
}

TEST(P2P, MixedEagerAndRendezvousKeepSendOrderPerTag) {
  MpiWorld w(2);
  std::vector<Bytes> sizes;
  w.run_all([&](RankCtx& r) -> sim::Task<void> {
    const Comm& wc = w.mpi.world();
    if (r.world_rank() == 0) {
      Request big = r.isend(wc, 1, 0, mib(1));
      co_await r.send(wc, 1, 0, 64);
      co_await r.wait(big);
    } else {
      auto a = co_await r.recv(wc, 0, 0);
      auto b = co_await r.recv(wc, 0, 0);
      sizes = {a.bytes, b.bytes};
    }
  });
  EXPECT_EQ(sizes, (std::vector<Bytes>{mib(1), 64}));
}

TEST(P2P, IsendIrecvWaitAll) {
  MpiWorld w(2);
  int completed = 0;
  w.run_all([&](RankCtx& r) -> sim::Task<void> {
    const Comm& wc = w.mpi.world();
    if (r.world_rank() == 0) {
      std::vector<Request> reqs;
      for (int i = 0; i < 4; ++i) reqs.push_back(r.isend(wc, 1, i, mib(1)));
      co_await r.wait_all(reqs);
      completed += 4;
    } else {
      std::vector<Request> reqs;
      for (int i = 0; i < 4; ++i) reqs.push_back(r.irecv(wc, 0, i));
      co_await r.wait_all(reqs);
      for (auto& rq : reqs) {
        EXPECT_EQ(rq->info.bytes, mib(1));
      }
    }
  });
  EXPECT_EQ(completed, 4);
}

TEST(P2P, ManyOutstandingRendezvousCompleteOutOfOrder) {
  // Rank 0 keeps every rendezvous to two peers open at once; the peers
  // match them in reverse tag order, so CTS, data and FIN all come back in
  // an order unrelated to issue order and the transfer tables remove from
  // the middle. A lookup miss would trip the RDMA/FIN asserts.
  constexpr int kPerPeer = 5;
  MpiWorld w(3);
  const auto size_of = [](int peer, Tag tag) {
    return mib(1) + static_cast<Bytes>(peer * 100 + tag) * 1024;
  };
  std::vector<Request> sends;
  std::vector<Request> recvs[3];
  w.run_all([&](RankCtx& r) -> sim::Task<void> {
    const Comm& wc = w.mpi.world();
    const int me = r.world_rank();
    if (me == 0) {
      for (Tag t = 0; t < kPerPeer; ++t) {
        for (int peer = 1; peer <= 2; ++peer) {
          sends.push_back(r.isend(wc, peer, t, size_of(peer, t)));
        }
      }
      co_await r.wait_all(sends);
    } else {
      // Let every RTS land unexpected before the receives are posted.
      co_await r.compute(sim::from_milliseconds(5));
      for (Tag t = kPerPeer - 1; t >= 0; --t) {
        recvs[me].push_back(r.irecv(wc, 0, t));
      }
      co_await r.wait_all(recvs[me]);
    }
  });
  ASSERT_EQ(sends.size(), 2u * kPerPeer);
  for (const Request& rq : sends) EXPECT_TRUE(rq->done);
  for (int peer = 1; peer <= 2; ++peer) {
    ASSERT_EQ(recvs[peer].size(), static_cast<std::size_t>(kPerPeer));
    for (int i = 0; i < kPerPeer; ++i) {
      const Request& rq = recvs[peer][i];
      const Tag tag = kPerPeer - 1 - i;
      EXPECT_TRUE(rq->done);
      EXPECT_EQ(rq->info.tag, tag);
      EXPECT_EQ(rq->info.bytes, size_of(peer, tag)) << peer << "/" << tag;
    }
  }
}

TEST(P2P, TestReflectsCompletionState) {
  MpiWorld w(2);
  bool before = true, after = false;
  w.run_all([&](RankCtx& r) -> sim::Task<void> {
    const Comm& wc = w.mpi.world();
    if (r.world_rank() == 0) {
      co_await r.compute(sim::from_milliseconds(5));
      co_await r.send(wc, 1, 0, 64);
    } else {
      Request rq = r.irecv(wc, 0, 0);
      before = r.test(rq);
      co_await r.wait(rq);
      after = r.test(rq);
    }
  });
  EXPECT_FALSE(before);
  EXPECT_TRUE(after);
}

TEST(P2P, SelfSendCompletesLocally) {
  MpiWorld w(2);
  RecvInfo got;
  w.run_all([&](RankCtx& r) -> sim::Task<void> {
    const Comm& wc = w.mpi.world();
    if (r.world_rank() == 0) {
      co_await r.send(wc, 0, 9, 256, make_payload(7.0));
      got = co_await r.recv(wc, 0, 9);
    }
    co_return;
  });
  EXPECT_EQ(got.bytes, 256);
  ASSERT_TRUE(got.data);
  EXPECT_EQ(got.data->at(0), 7.0);
}

TEST(P2P, DistinctCommsDoNotCrossMatch) {
  MpiWorld w(2);
  const Comm& sub = w.mpi.create_comm({0, 1});
  std::vector<double> order;
  w.run_all([&](RankCtx& r) -> sim::Task<void> {
    const Comm& wc = w.mpi.world();
    if (r.world_rank() == 0) {
      co_await r.send(wc, 1, 0, 64, make_payload(1.0));
      co_await r.send(sub, 1, 0, 64, make_payload(2.0));
    } else {
      co_await r.compute(sim::from_milliseconds(1));
      auto s = co_await r.recv(sub, 0, 0);  // must get the sub-comm message
      auto g = co_await r.recv(wc, 0, 0);
      order = {s.data->at(0), g.data->at(0)};
    }
  });
  EXPECT_EQ(order, (std::vector<double>{2.0, 1.0}));
}

TEST(P2P, ManyRanksPairwiseExchange) {
  const int n = 8;
  MpiWorld w(n);
  int oks = 0;
  w.run_all([&](RankCtx& r) -> sim::Task<void> {
    const Comm& wc = w.mpi.world();
    const int me = r.world_rank();
    const int peer = me ^ 1;
    Request rq = r.irecv(wc, peer, 0);
    co_await r.send(wc, peer, 0, 4096);
    co_await r.wait(rq);
    if (rq->info.bytes == 4096) ++oks;
  });
  EXPECT_EQ(oks, n);
}

TEST(P2P, StatsCountSendsAndRecvs) {
  MpiWorld w(2);
  w.run_all([&](RankCtx& r) -> sim::Task<void> {
    const Comm& wc = w.mpi.world();
    if (r.world_rank() == 0) {
      co_await r.send(wc, 1, 0, 64);
      co_await r.send(wc, 1, 0, 64);
    } else {
      co_await r.recv(wc, 0, 0);
      co_await r.recv(wc, 0, 0);
    }
  });
  EXPECT_EQ(w.mpi.stats().sends, 2);
  EXPECT_EQ(w.mpi.stats().recvs, 2);
}

TEST(P2P, TrafficMatrixSeesP2PBytes) {
  MpiWorld w(2);
  w.run_all([&](RankCtx& r) -> sim::Task<void> {
    const Comm& wc = w.mpi.world();
    if (r.world_rank() == 0) {
      co_await r.send(wc, 1, 0, 1000);
    } else {
      co_await r.recv(wc, 0, 0);
    }
  });
  EXPECT_GE(w.fabric.bytes_between(0, 1), 1000);
}

TEST(P2P, MessageRecordsCaptureTransmitAndArrival) {
  MpiConfig mc;
  mc.record_messages = true;
  MpiWorld w(2, mc);
  w.run_all([&](RankCtx& r) -> sim::Task<void> {
    const Comm& wc = w.mpi.world();
    if (r.world_rank() == 0) {
      co_await r.send(wc, 1, 0, 4096);
      co_await r.send(wc, 1, 0, mib(2));
    } else {
      co_await r.recv(wc, 0, 0);
      co_await r.recv(wc, 0, 0);
    }
  });
  const auto& recs = w.mpi.message_records();
  ASSERT_EQ(recs.size(), 2u);
  for (const auto& m : recs) {
    EXPECT_EQ(m.src, 0);
    EXPECT_EQ(m.dst, 1);
    EXPECT_GE(m.transmit_time, 0);
    EXPECT_GT(m.arrival_time, m.transmit_time);
  }
}

}  // namespace
}  // namespace gbc::mpi
