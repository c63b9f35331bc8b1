#include "net/fabric.hpp"

#include <algorithm>

namespace gbc::net {

// ---------------------------------------------------------------------------
// ConnectionManager
// ---------------------------------------------------------------------------

ConnectionManager::ConnectionManager(sim::Engine& eng, Fabric& fabric, int n,
                                     NetConfig cfg)
    : eng_(eng),
      fab_(fabric),
      cfg_(cfg),
      n_(n),
      peers_(static_cast<std::size_t>(n)),
      locked_(n, false),
      unlock_cv_(eng) {}

ConnectionManager::Conn& ConnectionManager::conn(int a, int b) {
  return conns_.try_emplace(key(a, b), eng_).first->second;
}

const ConnectionManager::Conn* ConnectionManager::find(int a, int b) const {
  auto it = conns_.find(key(a, b));
  return it == conns_.end() ? nullptr : &it->second;
}

ConnState ConnectionManager::state(int a, int b) const {
  const Conn* c = find(a, b);
  return c ? c->state : ConnState::kDisconnected;
}

void ConnectionManager::set_state(Conn& c, int a, int b, ConnState s) {
  const bool was = c.state == ConnState::kConnected;
  const bool is = s == ConnState::kConnected;
  if (was != is) {
    for (auto [ep, peer] : {std::pair{a, b}, std::pair{b, a}}) {
      std::vector<int>& row = peers_[ep];
      const auto it = std::lower_bound(row.begin(), row.end(), peer);
      if (is) {
        row.insert(it, peer);
      } else {
        row.erase(it);
      }
    }
  }
  c.state = s;
  c.cv.notify_all();
  // Mirror the transition to both endpoints' shards: the rank-side send
  // pumps gate on their local mirror, never on this object.
  sim::LpBus& bus = fab_.bus();
  Fabric* f = &fab_;
  bus.send(bus.svc_lp(), a, [f, a, b, s] { f->mirror_state(a, b, s); });
  bus.send(bus.svc_lp(), b, [f, b, a, s] { f->mirror_state(b, a, s); });
}

sim::Task<void> ConnectionManager::ensure_connected(int a, int b) {
  assert(a != b);
  for (;;) {
    // Establishment requires both endpoints available (not frozen).
    while (locked_[a] || locked_[b]) co_await unlock_cv_.wait();
    Conn& c = conn(a, b);
    switch (c.state) {
      case ConnState::kConnected:
        co_return;
      case ConnState::kConnecting:
      case ConnState::kDraining:
        co_await c.cv.wait();
        continue;  // re-evaluate from scratch (locks may have changed)
      case ConnState::kDisconnected: {
        set_state(c, a, b, ConnState::kConnecting);
        // Out-of-band parameter exchange + QP transitions on both sides.
        co_await eng_.delay(cfg_.oob_exchange + cfg_.qp_transition);
        Conn& c2 = conn(a, b);  // iterator-stable (std::map), but be explicit
        set_state(c2, a, b, ConnState::kConnected);
        ++setups_;
        co_return;
      }
    }
  }
}

sim::Task<void> ConnectionManager::drain(int a, int b) {
  // In-flight counts are sender-owned: ask each endpoint, on its own shard,
  // to report back once its outbound lane toward the peer is empty.
  sim::LpBus& bus = fab_.bus();
  Fabric* f = &fab_;
  co_await bus.call(bus.svc_lp(), a,
                    [f, a, b] { return f->drain_outbound(a, b); });
  co_await bus.call(bus.svc_lp(), b,
                    [f, a, b] { return f->drain_outbound(b, a); });
}

sim::Task<void> ConnectionManager::disconnect(int a, int b) {
  for (;;) {
    Conn& c = conn(a, b);
    switch (c.state) {
      case ConnState::kDisconnected:
        co_return;
      case ConnState::kConnecting:
      case ConnState::kDraining:
        co_await c.cv.wait();
        continue;
      case ConnState::kConnected: {
        set_state(c, a, b, ConnState::kDraining);
        co_await drain(a, b);
        co_await eng_.delay(cfg_.teardown_cost);
        Conn& c2 = conn(a, b);
        set_state(c2, a, b, ConnState::kDisconnected);
        ++teardowns_;
        co_return;
      }
    }
  }
}

void ConnectionManager::lock_endpoint(int ep) { locked_[ep] = true; }

void ConnectionManager::unlock_endpoint(int ep) {
  locked_[ep] = false;
  unlock_cv_.notify_all();
}

int ConnectionManager::established_count() const {
  int n = 0;
  for (const auto& [k, c] : conns_) {
    (void)k;
    if (c.state == ConnState::kConnected) ++n;
  }
  return n;
}

// ---------------------------------------------------------------------------
// Fabric
// ---------------------------------------------------------------------------

Fabric::Fabric(NetConfig cfg, sim::LpBus& bus)
    : eng_(bus.engine_of(bus.svc_lp())),
      cfg_(cfg),
      n_(bus.nranks()),
      bus_(bus),
      receivers_(n_),
      staging_(static_cast<std::size_t>(n_)) {
  assert(bus_.floor() <= floor_hop(cfg_) &&
         "wire flights would undercut the bus floor");
  rank_net_.reserve(n_);
  for (int r = 0; r < n_; ++r) {
    rank_net_.push_back(std::make_unique<RankNet>(bus_.engine_of(r)));
  }
  const int shards = bus_.shards();
  flight_pool_.reserve(shards);
  for (int s = 0; s < shards; ++s) {
    flight_pool_.push_back(std::make_unique<sim::Pool<FlightRec>>(256));
  }
  return_stack_ = std::make_unique<ReturnStack[]>(shards);
  conn_mgr_ = std::make_unique<ConnectionManager>(eng_, *this, n_, cfg);
}

Fabric::~Fabric() {
  // The cluster aborts the engines and clears the bus before members are
  // destroyed, so every in-flight record has been pushed onto its return
  // stack by now. Sweep them home so the pools' liveness assert holds.
  for (int s = 0; s < bus_.shards(); ++s) reclaim(s);
}

void Fabric::transmit(Packet p) { enqueue(std::move(p), /*data_plane=*/true); }

void Fabric::transmit_control(Packet p) {
  enqueue(std::move(p), /*data_plane=*/false);
}

void Fabric::enqueue(Packet p, bool data_plane) {
  assert(p.src >= 0 && p.src < n_ && p.dst >= 0 && p.dst < n_);
  const int src = p.src;
  const int dst = p.dst;
  RankNet& rn = *rank_net_[src];
  sim::Engine& src_eng = bus_.engine_of(src);
  ++rn.packets;
  rn.bytes += p.bytes;
  // One lookup serves the in-flight count and the traffic row; both are
  // sender-owned, so only src's shard writes them.
  RankNet::Peer& peer = rn.out[dst];
  ++peer.in_flight;
  if (data_plane) {
    peer.bytes += p.bytes;
    ++peer.msgs;
  }
  // Serialize on the sender NIC.
  const double bps =
      cfg_.link_bandwidth_mbps * static_cast<double>(storage::kMiB);
  const auto xfer = static_cast<sim::Time>(
      static_cast<double>(p.bytes) / bps * static_cast<double>(sim::kSecond));
  const sim::Time start = std::max(src_eng.now(), rn.nic_busy);
  const sim::Time done = start + cfg_.per_message_overhead + xfer;
  rn.nic_busy = done;
  const sim::Time arrival = done + latency(src, dst);
  const int home = bus_.shard_of(src);
  FlightRec* rec = acquire_rec(home);
  rec->pkt = std::move(p);
  rec->oseq = bus_.next_oseq(src);
  rec->fab = this;
  rec->home_shard = home;
  // arrival >= now + floor_hop(cfg_) >= now + bus floor, so this respects
  // the lookahead floor at any shard layout.
  if (bus_.shard_of(dst) == home) {
    // Same-shard fast path: the delivery goes straight into the
    // destination's settle bucket at the arrival time — no FlightArrive
    // wrapper event, and the record never leaves its home pool's shard.
    bus_.inbox_push_at(dst, src, rec->oseq, arrival, FlightDeliver{rec});
  } else {
    bus_.post_raw(src, dst, arrival, FlightArrive{rec});
  }
  // Sender-side completion: the packet leaves the in-flight lane at its
  // arrival instant (drain watches these counters). It rides the sender's
  // settle pre-lane — push order is the sender's own execution order, and
  // only sender-owned state is touched — so the decrement lands at the same
  // canonical point (before the sorted deliveries at the arrival sweep) in
  // serial and sharded runs alike, without paying for an origin sequence.
  // PeerTable slots are never erased and keep their address, so the
  // completion holds the record directly instead of looking it up again.
  bus_.settle_at(src, arrival, [&peer, &rn] {
    if (--peer.in_flight == 0) rn.out_cv.notify_all();
  });
}

void Fabric::FlightArrive::operator()() {
  FlightRec* r = std::exchange(rec, nullptr);
  // Runs on the destination's shard at the arrival time: enter the settle
  // bucket so same-instant arrivals deliver in canonical order.
  r->fab->bus_.inbox_push(r->pkt.dst, r->pkt.src, r->oseq, FlightDeliver{r});
}

void Fabric::FlightDeliver::operator()() {
  FlightRec* r = std::exchange(rec, nullptr);
  Fabric* f = r->fab;
  Packet p = std::move(r->pkt);
  f->recycle_local(r, f->bus_.shard_of(p.dst));
  f->deliver(std::move(p));
}

Fabric::FlightRec* Fabric::acquire_rec(int shard) {
  reclaim(shard);
  return flight_pool_[shard]->acquire();
}

void Fabric::recycle_local(FlightRec* rec, int caller_shard) {
  if (caller_shard == rec->home_shard) {
    flight_pool_[rec->home_shard]->release(rec);
  } else {
    return_stack_[rec->home_shard].push(rec);
  }
}

void Fabric::recycle_remote(FlightRec* rec) {
  return_stack_[rec->home_shard].push(rec);
}

void Fabric::reclaim(int shard) {
  FlightRec* r = return_stack_[shard].take_all();
  while (r != nullptr) {
    FlightRec* next = r->free_next;
    flight_pool_[shard]->release(r);
    r = next;
  }
}

void Fabric::deliver(Packet p) {
  auto& rx = receivers_[p.dst];
  assert(rx && "no receiver registered");
  rx(std::move(p));
}

sim::Task<void> Fabric::ensure_connected_from(int src, int dst) {
  RankNet& rn = *rank_net_[src];
  RankNet::Link& link = rn.links[dst];
  while (link.mirror != ConnState::kConnected) {
    if (link.mirror == ConnState::kDisconnected && !link.requested) {
      link.requested = true;
      bus_.send(src, bus_.svc_lp(), [this, src, dst] {
        eng_.spawn(conn_mgr_->ensure_connected(src, dst));
      });
    }
    co_await rn.conn_cv.wait();
  }
}

void Fabric::mirror_state(int ep, int peer, ConnState s) {
  RankNet& rn = *rank_net_[ep];
  RankNet::Link& link = rn.links[peer];
  link.mirror = s;
  link.requested = false;
  rn.conn_cv.notify_all();
}

sim::Task<void> Fabric::drain_outbound(int src, int dst) {
  RankNet& rn = *rank_net_[src];
  while (outbound_in_flight(src, dst) != 0) co_await rn.out_cv.wait();
}

std::int64_t Fabric::outbound_in_flight(int src, int dst) const {
  const RankNet::Peer* peer = rank_net_[src]->out.find(dst);
  return peer == nullptr ? 0 : peer->in_flight;
}

void Fabric::request_lock(int ep) {
  bus_.send(ep, bus_.svc_lp(),
            [this, ep] { conn_mgr_->lock_endpoint(ep); });
}

void Fabric::request_unlock(int ep) {
  bus_.send(ep, bus_.svc_lp(),
            [this, ep] { conn_mgr_->unlock_endpoint(ep); });
}

sim::Task<void> Fabric::bulk_transfer(int src, int dst, Bytes bytes) {
  assert(src >= 0 && src < n_ && dst >= 0 && dst < n_ && src != dst);
  // Runs on src's home engine: callers (replica copies, erasure scatters,
  // restore staging) are routed to the source node's LP, so the lane state
  // below is only ever touched from src's shard.
  sim::Engine& eng = bus_.engine_of(src);
  StagingLane& lane = staging_[static_cast<std::size_t>(src)];
  ++lane.packets;
  lane.bytes += bytes;
  const double bps =
      cfg_.link_bandwidth_mbps * static_cast<double>(storage::kMiB);
  const auto xfer = static_cast<sim::Time>(
      static_cast<double>(bytes) / bps * static_cast<double>(sim::kSecond));
  const sim::Time start = std::max(eng.now(), lane.busy_until);
  const sim::Time done = start + cfg_.per_message_overhead + xfer;
  lane.busy_until = done;
  co_await eng.delay_until(done + latency(src, dst));
}

std::int64_t Fabric::packets_sent() const noexcept {
  std::int64_t total = 0;
  for (const auto& lane : staging_) total += lane.packets;
  for (const auto& rn : rank_net_) total += rn->packets;
  return total;
}

Bytes Fabric::bytes_sent() const noexcept {
  Bytes total = 0;
  for (const auto& lane : staging_) total += lane.bytes;
  for (const auto& rn : rank_net_) total += rn->bytes;
  return total;
}

std::uint64_t Fabric::flight_recs_reused() const noexcept {
  std::uint64_t total = 0;
  for (const auto& p : flight_pool_) total += p->reused();
  return total;
}

std::size_t Fabric::flight_recs_outstanding() const noexcept {
  std::size_t total = 0;
  for (const auto& p : flight_pool_) total += p->outstanding();
  return total;
}

const Fabric::RankNet::Peer* Fabric::out_peer(int src, int dst) const {
  return rank_net_[src]->out.find(dst);
}

Bytes Fabric::bytes_between(int a, int b) const {
  const RankNet::Peer* ab = out_peer(a, b);
  const RankNet::Peer* ba = out_peer(b, a);
  return (ab ? ab->bytes : 0) + (ba ? ba->bytes : 0);
}

std::int64_t Fabric::messages_between(int a, int b) const {
  const RankNet::Peer* ab = out_peer(a, b);
  const RankNet::Peer* ba = out_peer(b, a);
  return (ab ? ab->msgs : 0) + (ba ? ba->msgs : 0);
}

std::vector<std::int64_t> Fabric::traffic_matrix() const {
  std::vector<std::int64_t> m(static_cast<std::size_t>(n_) * n_, 0);
  for (int a = 0; a < n_; ++a) {
    for (const auto& [b, peer] : rank_net_[a]->out) {
      if (b == a) continue;  // the matrix has a zero diagonal
      m[static_cast<std::size_t>(a) * n_ + b] += peer.bytes;
      m[static_cast<std::size_t>(b) * n_ + a] += peer.bytes;
    }
  }
  return m;
}

std::vector<std::int64_t> Fabric::copy_traffic_row(int src) const {
  std::vector<std::int64_t> row(static_cast<std::size_t>(n_), 0);
  for (const auto& [dst, peer] : rank_net_[src]->out) row[dst] = peer.bytes;
  return row;
}

}  // namespace gbc::net
