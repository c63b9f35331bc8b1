#pragma once

#include <algorithm>
#include <atomic>
#include <cassert>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <utility>
#include <vector>

#include "net/peer_table.hpp"
#include "net/topology.hpp"
#include "sim/condition.hpp"
#include "sim/engine.hpp"
#include "sim/lp_bus.hpp"
#include "sim/pool.hpp"
#include "sim/task.hpp"
#include "sim/time.hpp"
#include "storage/storage.hpp"

namespace gbc::net {

using Bytes = storage::Bytes;

/// Timing parameters of the interconnect. Defaults approximate the paper's
/// testbed: Mellanox DDR HCAs (high bandwidth, microsecond latency) where
/// connection management runs over a slow out-of-band channel and is
/// therefore ~three orders of magnitude more expensive than a message.
struct NetConfig {
  double link_bandwidth_mbps = 1250.0;  ///< per-NIC injection bandwidth, MB/s
  sim::Time wire_latency = sim::from_microseconds(1.5);
  sim::Time per_message_overhead = sim::from_microseconds(0.5);
  /// Out-of-band connection parameter exchange (paper Sec. 2.2: much more
  /// costly than TCP/IP connection setup).
  sim::Time oob_exchange = sim::from_microseconds(800);
  sim::Time qp_transition = sim::from_microseconds(200);  ///< RESET→RTS etc.
  sim::Time teardown_cost = sim::from_microseconds(300);
  /// Interconnect shape. The flat default reproduces the paper-scale
  /// crossbar exactly; `fat-tree:<radix>` makes end-to-end latency
  /// hop-counted (wire_latency per switch hop).
  TopologySpec topology;
};

/// Classification of a transfer; its meaning is owned by the MPI layer, the
/// fabric only accounts for it.
enum class PacketKind : std::uint8_t {
  kEager,     // small message, payload travels immediately
  kRts,       // rendezvous request-to-send
  kCts,       // rendezvous clear-to-send
  kRdmaData,  // rendezvous zero-copy bulk data
  kFin,       // rendezvous completion notification
};

using Tag = std::int64_t;

/// Optional semantic content of a message. Most simulated traffic carries
/// only a byte count, but collectives and correctness tests move real values.
/// The shared_ptr's refcount is atomic, so an envelope may cross shards.
using Payload = std::shared_ptr<const std::vector<double>>;

/// MPI message envelope (world-rank addressed), the one record every wire
/// packet carries: message buffering holds copies of it, request buffering
/// holds it as the state of an incomplete transfer.
struct Envelope {
  std::uint64_t comm_id = 0;
  int src_world = -1;
  int dst_world = -1;
  Tag tag = 0;
  Bytes bytes = 0;
  Payload data;
  std::uint64_t id = 0;  ///< unique per message/transfer
};

/// One wire transfer: routing fields plus the envelope, carried by value so
/// a flight can cross shards without touching sender-side state.
struct Packet {
  int src = -1;
  int dst = -1;
  Bytes bytes = 0;
  PacketKind kind = PacketKind::kEager;
  Envelope env;
};

enum class ConnState : std::uint8_t {
  kDisconnected,
  kConnecting,
  kConnected,
  kDraining,
};

class Fabric;

/// Per-connection management (paper Sec. 4.2): the checkpoint protocols need
/// to tear down and rebuild *specific* connections rather than all of them,
/// and either endpoint may initiate (client/server, active/passive). A rank
/// that is frozen for a snapshot locks its endpoint; establishment toward it
/// blocks until it thaws.
///
/// The state machine is owned by the service LP (shard 0). Every transition
/// is mirrored to both endpoints with a one-hop message (see
/// Fabric::mirror_state), so rank-side code — the MPI send pump — consults
/// its local mirror and never reads this object directly. All methods here
/// must run on the service LP's engine.
class ConnectionManager {
 public:
  ConnectionManager(sim::Engine& eng, Fabric& fabric, int n, NetConfig cfg);

  /// Establishes (or waits for) the connection a<->b. Counts one setup when
  /// this call performed the establishment. Blocks while either endpoint is
  /// locked by a checkpoint freeze.
  sim::Task<void> ensure_connected(int a, int b);

  /// Drains in-flight traffic on a<->b and tears the connection down.
  /// No-op if already disconnected.
  sim::Task<void> disconnect(int a, int b);

  /// Waits until no packet is in flight on a<->b (channel flush). Queries
  /// both endpoints' sender-side in-flight counters by message.
  sim::Task<void> drain(int a, int b);

  ConnState state(int a, int b) const;
  bool connected(int a, int b) const {
    return state(a, b) == ConnState::kConnected;
  }

  /// Freeze-locks an endpoint: new establishments touching it stall.
  void lock_endpoint(int ep);
  void unlock_endpoint(int ep);

  /// Every currently-connected peer of `ep`, ascending. O(degree): a copy
  /// of the endpoint's row, so callers may churn connections while they
  /// walk it.
  std::vector<int> connected_peers(int ep) const { return peers_[ep]; }

  // --- accounting ---
  std::int64_t total_setups() const noexcept { return setups_; }
  std::int64_t total_teardowns() const noexcept { return teardowns_; }
  int established_count() const;

 private:
  struct Conn {
    explicit Conn(sim::Engine& eng) : cv(eng) {}
    ConnState state = ConnState::kDisconnected;
    sim::Condition cv;  // state changes
  };
  using Key = std::pair<int, int>;
  static Key key(int a, int b) {
    return a < b ? Key{a, b} : Key{b, a};
  }
  Conn& conn(int a, int b);
  const Conn* find(int a, int b) const;
  /// Transition + mirror fan-out to both endpoints; keeps peers_ in step.
  void set_state(Conn& c, int a, int b, ConnState s);

  sim::Engine& eng_;
  Fabric& fab_;
  NetConfig cfg_;
  int n_;
  std::map<Key, Conn> conns_;
  /// Per endpoint, the ascending peers it is kConnected to.
  std::vector<std::vector<int>> peers_;
  std::vector<bool> locked_;
  sim::Condition unlock_cv_;
  std::int64_t setups_ = 0;
  std::int64_t teardowns_ = 0;
};

/// The wire: per-endpoint serializing injection engine (LogGP-style: each
/// transfer occupies the sender NIC for overhead + bytes/bandwidth, then
/// arrives wire_latency later). Delivery invokes the receiver callback
/// registered by the MPI layer. Per-pair byte counts feed dynamic group
/// formation (paper Sec. 4.1).
///
/// ## Per-rank ownership (DESIGN.md §13)
///
/// Every piece of mutable per-rank state — the NIC busy horizon, the
/// connection mirrors, and one record per destination holding the
/// in-flight count and the traffic row — is owned by the rank's home
/// shard; transmit() must run there. The per-destination records are
/// sparse (one per peer actually addressed), so a rank's state is O(peers)
/// and nothing grows with the square of the rank count; the dense
/// traffic_matrix() is built only on request. Flights travel as pooled
/// FlightRecs posted straight to the destination rank's shard, where
/// delivery goes through the LpBus settle bucket so the order among
/// same-instant arrivals is canonical at any shard count.
/// Records recycle to their home shard's pool over a lock-free return
/// stack, keeping the hot path allocation-free in sharded runs too.
class Fabric {
 public:
  using Deliver = std::function<void(Packet)>;

  /// `bus` connects the fabric to the cluster's LP topology: one endpoint
  /// per rank LP, and the connection manager runs on the service LP's
  /// engine. The bus floor must not exceed floor_hop(cfg).
  Fabric(NetConfig cfg, sim::LpBus& bus);
  ~Fabric();

  int size() const noexcept { return n_; }
  const NetConfig& config() const noexcept { return cfg_; }
  sim::Engine& engine() noexcept { return eng_; }
  ConnectionManager& connections() noexcept { return *conn_mgr_; }
  sim::LpBus& bus() noexcept { return bus_; }

  /// End-to-end propagation delay src -> dst: wire_latency on a crossbar,
  /// wire_latency per switch hop on a fat-tree.
  sim::Time latency(int src, int dst) const {
    return cfg_.wire_latency * cfg_.topology.hops(src, dst);
  }

  /// The floor every cross-LP message respects: NIC overhead plus the
  /// lower bound of latency() over all distinct pairs. No cross-endpoint
  /// interaction can take effect sooner, so this is the LpBus floor and the
  /// conservative lookahead of a sharded run.
  static sim::Time floor_hop(const NetConfig& cfg) {
    return cfg.per_message_overhead +
           cfg.wire_latency * cfg.topology.min_hops();
  }

  void set_receiver(int ep, Deliver d) { receivers_[ep] = std::move(d); }

  /// Queues a packet on src's NIC (call on src's shard). The MPI layer's
  /// send pump checks the sender-side connection mirror before calling.
  void transmit(Packet p);

  /// Sender-side connection mirror check (the pump's fast path). Call on
  /// src's shard.
  bool mirror_connected(int src, int dst) const {
    const auto* link = rank_net_[src]->links.find(dst);
    return link != nullptr && link->mirror == ConnState::kConnected;
  }

  /// Rank-side establish-or-wait: consults src's local connection mirror,
  /// requesting establishment from the service LP when disconnected, and
  /// resumes once the mirror shows kConnected. Call on src's shard.
  sim::Task<void> ensure_connected_from(int src, int dst);

  /// Rank-side channel flush: waits until src has no packet in flight
  /// toward dst (sender-side counter). Call on src's shard.
  sim::Task<void> drain_outbound(int src, int dst);

  /// Sends a freeze-lock/unlock request for `ep` to the connection manager
  /// (one control hop). Call on ep's shard.
  void request_lock(int ep);
  void request_unlock(int ep);

  /// Awaitable bulk copy src -> dst over the interconnect (checkpoint
  /// staging traffic: partner replication, replica fetch on restart). Runs
  /// on the service LP: staging uses a dedicated per-node staging lane, so
  /// it serializes against other staging traffic from the same node but not
  /// against the application NIC.
  sim::Task<void> bulk_transfer(int src, int dst, Bytes bytes);

  // --- accounting (aggregate reads are for quiescent points) ---
  std::int64_t packets_sent() const noexcept;
  Bytes bytes_sent() const noexcept;
  /// Flight-record recycling stats across all per-shard pools (quiescent
  /// reads). `flight_recs_reused` counts pool acquisitions served from a
  /// free list — the allocation-counter evidence that the steady-state
  /// wire path is heap-allocation-free (always 0 with pools in ASan
  /// passthrough). `flight_recs_outstanding` counts live records plus any
  /// parked on cross-shard return stacks awaiting reclaim (swept home by
  /// ~Fabric, whose pool destructors assert none leak).
  std::uint64_t flight_recs_reused() const noexcept;
  std::size_t flight_recs_outstanding() const noexcept;
  Bytes bytes_between(int a, int b) const;
  std::int64_t messages_between(int a, int b) const;
  /// Traffic matrix (bytes), indexed [a*n+b], symmetrized from
  /// the sparse per-sender rows, zero diagonal. Only valid at quiescent
  /// points; during a run use copy_traffic_row() from each rank's own shard.
  std::vector<std::int64_t> traffic_matrix() const;
  /// Copies src's outbound traffic row (bytes to each peer, dense over all
  /// n ranks). Call on src's shard; this is the race-free gather primitive
  /// dynamic group formation uses mid-run.
  std::vector<std::int64_t> copy_traffic_row(int src) const;

  /// Applies a connection-state mirror update at endpoint `ep` for `peer`
  /// (invoked via the bus by the ConnectionManager; runs on ep's shard).
  void mirror_state(int ep, int peer, ConnState s);
  /// Sender-side in-flight count src -> dst (rank-owned; read on src's
  /// shard).
  std::int64_t outbound_in_flight(int src, int dst) const;

 private:
  friend class ConnectionManager;

  /// One pooled wire flight: the packet plus its canonical settle key.
  struct FlightRec {
    Packet pkt;
    std::uint64_t oseq = 0;
    Fabric* fab = nullptr;
    int home_shard = 0;
    FlightRec* free_next = nullptr;
  };

  /// Lock-free return stack: receivers push finished FlightRecs, the
  /// owning shard reclaims them in batch on its next acquire.
  struct alignas(64) ReturnStack {
    std::atomic<FlightRec*> head{nullptr};
    void push(FlightRec* r) noexcept {
      r->free_next = head.load(std::memory_order_relaxed);
      while (!head.compare_exchange_weak(r->free_next, r,
                                         std::memory_order_release,
                                         std::memory_order_relaxed)) {
      }
    }
    FlightRec* take_all() noexcept {
      return head.exchange(nullptr, std::memory_order_acquire);
    }
  };

  struct FlightArrive {
    FlightRec* rec;
    explicit FlightArrive(FlightRec* r) noexcept : rec(r) {}
    FlightArrive(FlightArrive&& o) noexcept
        : rec(std::exchange(o.rec, nullptr)) {}
    FlightArrive& operator=(FlightArrive&&) = delete;
    ~FlightArrive() {
      if (rec) rec->fab->recycle_remote(rec);
    }
    void operator()();
  };
  struct FlightDeliver {
    FlightRec* rec;
    explicit FlightDeliver(FlightRec* r) noexcept : rec(r) {}
    FlightDeliver(FlightDeliver&& o) noexcept
        : rec(std::exchange(o.rec, nullptr)) {}
    FlightDeliver& operator=(FlightDeliver&&) = delete;
    ~FlightDeliver() {
      if (rec) rec->fab->recycle_remote(rec);
    }
    void operator()();
  };

  /// Mutable state owned by one rank's shard.
  struct RankNet {
    explicit RankNet(sim::Engine& eng) : conn_cv(eng), out_cv(eng) {}
    sim::Time nic_busy = 0;
    std::int64_t packets = 0;
    Bytes bytes = 0;
    /// Connection mirror per peer: last state flip received from the
    /// manager, plus whether an establishment request is outstanding.
    struct Link {
      ConnState mirror = ConnState::kDisconnected;
      bool requested = false;
    };
    PeerTable<Link> links;
    sim::Condition conn_cv;
    /// Sender-owned record per destination: packets still on the wire
    /// (drain watches this) and the data-plane traffic row (bytes and
    /// messages), so per-rank state is O(peers), not O(ranks).
    struct Peer {
      std::int64_t in_flight = 0;
      Bytes bytes = 0;
      std::int64_t msgs = 0;
    };
    PeerTable<Peer> out;
    sim::Condition out_cv;
  };

  /// src's record for dst, or nullptr if src never transmitted to dst.
  const RankNet::Peer* out_peer(int src, int dst) const;
  void deliver(Packet p);
  FlightRec* acquire_rec(int shard);
  void recycle_local(FlightRec* rec, int caller_shard);
  void recycle_remote(FlightRec* rec);
  void reclaim(int shard);

  sim::Engine& eng_;
  NetConfig cfg_;
  int n_;
  sim::LpBus& bus_;
  std::vector<Deliver> receivers_;
  std::vector<std::unique_ptr<RankNet>> rank_net_;
  // Flight pools: one per shard, owned by that shard's worker; the return
  // stacks carry cross-shard frees home.
  std::vector<std::unique_ptr<sim::Pool<FlightRec>>> flight_pool_;
  std::unique_ptr<ReturnStack[]> return_stack_;
  std::unique_ptr<ConnectionManager> conn_mgr_;
  // Staging lanes, src-row ownership: node src's bulk transfers (replica /
  // erasure / restore staging) run on src's shard and serialize on src's
  // lane; counters are summed at quiescence by packets_sent()/bytes_sent().
  struct alignas(64) StagingLane {
    sim::Time busy_until = 0;
    std::int64_t packets = 0;
    Bytes bytes = 0;
  };
  std::vector<StagingLane> staging_;
};

}  // namespace gbc::net
