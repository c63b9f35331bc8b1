#include "net/fabric.hpp"

#include <gtest/gtest.h>

#include <vector>

#include "net_test_util.hpp"
#include "sim/engine.hpp"
#include "sim/task.hpp"

namespace gbc::net {
namespace {

using sim::Engine;
using sim::Task;
using sim::Time;

using World = testing::NetWorld;

Task<void> connect(Fabric& f, int a, int b) {
  return f.connections().ensure_connected(a, b);
}

TEST(ConnectionManager, EstablishTakesOobPlusQpTime) {
  World w(4);
  Time done_at = -1;
  w.eng.spawn([](World& w, Time& at) -> Task<void> {
    co_await connect(w.fabric, 0, 1);
    at = w.eng.now();
  }(w, done_at));
  w.eng.run();
  EXPECT_EQ(done_at, w.cfg.oob_exchange + w.cfg.qp_transition);
  EXPECT_EQ(w.fabric.connections().state(0, 1), ConnState::kConnected);
  EXPECT_EQ(w.fabric.connections().total_setups(), 1);
}

TEST(ConnectionManager, EnsureConnectedIsIdempotent) {
  World w(4);
  w.eng.spawn([](World& w) -> Task<void> {
    co_await connect(w.fabric, 0, 1);
    Time t = w.eng.now();
    co_await connect(w.fabric, 0, 1);
    EXPECT_EQ(w.eng.now(), t);  // second call is free
  }(w));
  w.eng.run();
  EXPECT_EQ(w.fabric.connections().total_setups(), 1);
}

TEST(ConnectionManager, ConcurrentEstablishersShareOneSetup) {
  World w(4);
  int completed = 0;
  for (int i = 0; i < 3; ++i) {
    w.eng.spawn([](World& w, int& n) -> Task<void> {
      co_await connect(w.fabric, 2, 3);
      ++n;
    }(w, completed));
  }
  w.eng.run();
  EXPECT_EQ(completed, 3);
  EXPECT_EQ(w.fabric.connections().total_setups(), 1);
}

TEST(ConnectionManager, SymmetricKeyMeansEitherSideSeesSameConnection) {
  World w(4);
  w.eng.spawn([](World& w) -> Task<void> {
    co_await connect(w.fabric, 1, 0);
  }(w));
  w.eng.run();
  EXPECT_TRUE(w.fabric.connections().connected(0, 1));
  EXPECT_TRUE(w.fabric.connections().connected(1, 0));
}

TEST(ConnectionManager, DisconnectTearsDownAndCounts) {
  World w(4);
  w.eng.spawn([](World& w) -> Task<void> {
    co_await connect(w.fabric, 0, 1);
    co_await w.fabric.connections().disconnect(0, 1);
  }(w));
  w.eng.run();
  EXPECT_EQ(w.fabric.connections().state(0, 1), ConnState::kDisconnected);
  EXPECT_EQ(w.fabric.connections().total_teardowns(), 1);
}

TEST(ConnectionManager, DisconnectOnDisconnectedIsNoop) {
  World w(4);
  w.eng.spawn([](World& w) -> Task<void> {
    co_await w.fabric.connections().disconnect(0, 1);
  }(w));
  w.eng.run();
  EXPECT_EQ(w.fabric.connections().total_teardowns(), 0);
}

TEST(ConnectionManager, ReconnectAfterDisconnectWorks) {
  World w(4);
  w.eng.spawn([](World& w) -> Task<void> {
    co_await connect(w.fabric, 0, 1);
    co_await w.fabric.connections().disconnect(0, 1);
    co_await connect(w.fabric, 0, 1);
  }(w));
  w.eng.run();
  EXPECT_TRUE(w.fabric.connections().connected(0, 1));
  EXPECT_EQ(w.fabric.connections().total_setups(), 2);
}

TEST(ConnectionManager, LockedEndpointBlocksEstablishment) {
  World w(4);
  w.fabric.connections().lock_endpoint(1);
  Time done_at = -1;
  w.eng.spawn([](World& w, Time& at) -> Task<void> {
    co_await connect(w.fabric, 0, 1);
    at = w.eng.now();
  }(w, done_at));
  w.eng.schedule_at(sim::from_milliseconds(50),
                    [&] { w.fabric.connections().unlock_endpoint(1); });
  w.eng.run();
  EXPECT_EQ(done_at, sim::from_milliseconds(50) + w.cfg.oob_exchange +
                         w.cfg.qp_transition);
}

TEST(ConnectionManager, ConnectedPeersListsEstablishedNeighbours) {
  World w(5);
  w.eng.spawn([](World& w) -> Task<void> {
    co_await connect(w.fabric, 2, 0);
    co_await connect(w.fabric, 2, 4);
    co_await connect(w.fabric, 1, 3);
  }(w));
  w.eng.run();
  EXPECT_EQ(w.fabric.connections().connected_peers(2),
            (std::vector<int>{0, 4}));
  EXPECT_EQ(w.fabric.connections().established_count(), 3);
}

TEST(Fabric, EagerPacketArrivesAfterOverheadTransferAndLatency) {
  World w(2);
  Time arrived_at = -1;
  Bytes got = 0;
  w.fabric.set_receiver(1, [&](Packet p) {
    arrived_at = w.eng.now();
    got = p.bytes;
  });
  w.eng.spawn([](World& w) -> Task<void> {
    co_await connect(w.fabric, 0, 1);
    w.fabric.transmit(
        Packet{0, 1, 1024, PacketKind::kEager, {}});
  }(w));
  w.eng.run();
  const double bps = w.cfg.link_bandwidth_mbps * 1024.0 * 1024.0;
  const Time expect =
      w.cfg.oob_exchange + w.cfg.qp_transition + w.cfg.per_message_overhead +
      static_cast<Time>(1024.0 / bps * 1e9) + w.cfg.wire_latency;
  EXPECT_NEAR(static_cast<double>(arrived_at), static_cast<double>(expect), 2);
  EXPECT_EQ(got, 1024);
}

TEST(Fabric, NicSerializesBackToBackTransfers) {
  World w(2);
  std::vector<Time> arrivals;
  w.fabric.set_receiver(1, [&](Packet) { arrivals.push_back(w.eng.now()); });
  w.eng.spawn([](World& w) -> Task<void> {
    co_await connect(w.fabric, 0, 1);
    for (int i = 0; i < 3; ++i) {
      w.fabric.transmit(
          Packet{0, 1, storage::mib(1), PacketKind::kRdmaData, {}});
    }
  }(w));
  w.eng.run();
  ASSERT_EQ(arrivals.size(), 3u);
  // Each 1MiB transfer at 1250 MB/s takes 800us on the NIC; arrivals are
  // spaced by at least that.
  const Time gap = arrivals[1] - arrivals[0];
  EXPECT_NEAR(static_cast<double>(gap),
              1.0 / 1250.0 * 1e9 + static_cast<double>(w.cfg.per_message_overhead),
              1000.0);
  EXPECT_NEAR(static_cast<double>(arrivals[2] - arrivals[1]),
              static_cast<double>(gap), 1000.0);
}

TEST(Fabric, IndependentSendersDoNotSerializeWithEachOther) {
  World w(3);
  std::vector<Time> arrivals;
  w.fabric.set_receiver(2, [&](Packet) { arrivals.push_back(w.eng.now()); });
  w.eng.spawn([](World& w) -> Task<void> {
    co_await connect(w.fabric, 0, 2);
    co_await connect(w.fabric, 1, 2);
    w.fabric.transmit(Packet{0, 2, storage::mib(8), PacketKind::kRdmaData, {}});
    w.fabric.transmit(Packet{1, 2, storage::mib(8), PacketKind::kRdmaData, {}});
  }(w));
  w.eng.run();
  ASSERT_EQ(arrivals.size(), 2u);
  // Different source NICs: both arrive ~simultaneously.
  EXPECT_LT(arrivals[1] - arrivals[0], sim::from_microseconds(10));
}

TEST(Fabric, DrainWaitsForInFlightPackets) {
  World w(2);
  w.fabric.set_receiver(1, [](Packet) {});
  Time drained_at = -1;
  w.eng.spawn([](World& w, Time& at) -> Task<void> {
    co_await connect(w.fabric, 0, 1);
    w.fabric.transmit(Packet{0, 1, storage::mib(4), PacketKind::kRdmaData, {}});
    Time sent = w.eng.now();
    co_await w.fabric.connections().drain(0, 1);
    at = w.eng.now();
    EXPECT_GT(at, sent);
  }(w, drained_at));
  w.eng.run();
  EXPECT_GT(drained_at, 0);
}

TEST(Fabric, DisconnectDrainsBeforeTeardown) {
  World w(2);
  Time delivered_at = -1;
  w.fabric.set_receiver(1, [&](Packet) { delivered_at = w.eng.now(); });
  Time disconnected_at = -1;
  w.eng.spawn([](World& w, Time& at) -> Task<void> {
    co_await connect(w.fabric, 0, 1);
    w.fabric.transmit(
        Packet{0, 1, storage::mib(16), PacketKind::kRdmaData, {}});
    co_await w.fabric.connections().disconnect(0, 1);
    at = w.eng.now();
  }(w, disconnected_at));
  w.eng.run();
  EXPECT_GT(delivered_at, 0);
  EXPECT_GE(disconnected_at, delivered_at + w.cfg.teardown_cost);
}

TEST(Fabric, TrafficMatrixIsSymmetricAndCountsDataPlaneOnly) {
  World w(3);
  w.fabric.set_receiver(1, [](Packet) {});
  w.fabric.set_receiver(2, [](Packet) {});
  w.eng.spawn([](World& w) -> Task<void> {
    co_await connect(w.fabric, 0, 1);
    w.fabric.transmit(Packet{0, 1, 1000, PacketKind::kEager, {}});
    w.fabric.transmit(Packet{0, 1, 500, PacketKind::kEager, {}});
  }(w));
  w.eng.run();
  EXPECT_EQ(w.fabric.bytes_between(0, 1), 1500);
  EXPECT_EQ(w.fabric.bytes_between(1, 0), 1500);
  EXPECT_EQ(w.fabric.messages_between(0, 1), 2);
  EXPECT_EQ(w.fabric.bytes_between(0, 2), 0);  // never addressed
}

TEST(Fabric, TrafficRowsAreSparsePerSender) {
  constexpr int kRanks = 6;
  World w(kRanks);
  for (int r = 0; r < kRanks; ++r) w.fabric.set_receiver(r, [](Packet) {});
  w.eng.spawn([](World& w) -> Task<void> {
    for (int r = 0; r < kRanks; ++r) {
      const int right = (r + 1) % kRanks;
      co_await connect(w.fabric, r, right);
      // Distinct sizes per sender, so a row mixed up with another shows.
      w.fabric.transmit(
          Packet{r, right, 100 * (r + 1), PacketKind::kEager, {}});
    }
  }(w));
  w.eng.run();

  for (int r = 0; r < kRanks; ++r) {
    const auto row = w.fabric.copy_traffic_row(r);
    ASSERT_EQ(row.size(), static_cast<std::size_t>(kRanks));
    for (int d = 0; d < kRanks; ++d) {
      EXPECT_EQ(row[d], d == (r + 1) % kRanks ? 100 * (r + 1) : 0)
          << r << "->" << d;
    }
  }
  const auto m = w.fabric.traffic_matrix();
  ASSERT_EQ(m.size(), static_cast<std::size_t>(kRanks) * kRanks);
  for (int a = 0; a < kRanks; ++a) {
    EXPECT_EQ(m[a * kRanks + a], 0) << a;
    for (int b = 0; b < kRanks; ++b) {
      if (a == b) continue;
      EXPECT_EQ(m[a * kRanks + b], w.fabric.bytes_between(a, b))
          << a << "-" << b;
    }
  }
  // Each ring pair (r, r+1) carries only r's packet: r+1 sends onward.
  EXPECT_EQ(w.fabric.bytes_between(2, 3), 300);
  EXPECT_EQ(w.fabric.messages_between(2, 3), 1);
  EXPECT_EQ(w.fabric.messages_between(0, 3), 0);
}

TEST(Fabric, ConstructsAt16kRanksWithoutQuadraticState) {
  // A dense n×n traffic matrix would be 2 GiB per array here; the sparse
  // per-sender rows cost nothing until a rank transmits.
  constexpr int kRanks = 16384;
  World w(kRanks);
  Bytes got = 0;
  w.fabric.set_receiver(kRanks - 1, [&](Packet p) { got = p.bytes; });
  w.eng.spawn([](World& w) -> Task<void> {
    co_await connect(w.fabric, 0, kRanks - 1);
    w.fabric.transmit(
        Packet{0, kRanks - 1, 4096, PacketKind::kEager, {}});
  }(w));
  w.eng.run();
  EXPECT_EQ(got, 4096);
  EXPECT_EQ(w.fabric.bytes_between(kRanks - 1, 0), 4096);
  EXPECT_EQ(w.fabric.messages_between(0, kRanks - 1), 1);
  EXPECT_EQ(w.fabric.copy_traffic_row(0)[kRanks - 1], 4096);
  EXPECT_EQ(w.fabric.outbound_in_flight(0, kRanks - 1), 0);
}

// The envelope rides inside the packet by value, not behind a type-erased
// box: the whole wire record stays this small.
static_assert(sizeof(Packet) <= 80);

TEST(Fabric, EnvelopeTravelsIntact) {
  const Payload data = std::make_shared<const std::vector<double>>(
      std::vector<double>{1.0, 2.0, 3.0});
  const Envelope sent{3, 0, 1, 42, 24, data, 99};
  for (const int shards : {1, 2}) {
    SCOPED_TRACE(shards);
    World w(2, NetConfig{}, shards);
    Packet got;
    bool arrived = false;
    w.fabric.set_receiver(1, [&](Packet p) {
      got = std::move(p);
      arrived = true;
    });
    w.eng.spawn([](World& w, Envelope env) -> Task<void> {
      co_await connect(w.fabric, 0, 1);
      w.fabric.transmit(Packet{0, 1, 88, PacketKind::kEager, std::move(env)});
    }(w, sent));
    w.se.run();
    ASSERT_TRUE(arrived);
    EXPECT_EQ(got.src, 0);
    EXPECT_EQ(got.dst, 1);
    EXPECT_EQ(got.bytes, 88);
    EXPECT_EQ(got.kind, PacketKind::kEager);
    EXPECT_EQ(got.env.comm_id, sent.comm_id);
    EXPECT_EQ(got.env.src_world, sent.src_world);
    EXPECT_EQ(got.env.dst_world, sent.dst_world);
    EXPECT_EQ(got.env.tag, sent.tag);
    EXPECT_EQ(got.env.bytes, sent.bytes);
    EXPECT_EQ(got.env.id, sent.id);
    EXPECT_EQ(got.env.data.get(), data.get());  // the same payload
    // Moved, never copied, along the way: only `data`, `sent` and `got`
    // hold it.
    EXPECT_EQ(data.use_count(), 3);
  }
}

}  // namespace
}  // namespace gbc::net
