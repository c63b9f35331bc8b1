#pragma once

#include "net/fabric.hpp"
#include "sim/engine.hpp"
#include "sim/lp_bus.hpp"
#include "sim/shard_engine.hpp"

namespace gbc::net::testing {

/// The network layer as harness::SimCluster wires it: a ShardedEngine (one
/// shard unless asked, one thread per shard, lookahead at the fabric's
/// floor_hop), the LpBus over it and the fabric on that bus. Nothing above
/// the fabric is built, so no checkpoint service installs a deferral gate.
struct NetWorld {
  sim::ShardedEngine se;
  sim::Engine& eng = se.shard(0);
  NetConfig cfg;
  sim::LpBus bus;
  Fabric fabric;

  explicit NetWorld(int n, NetConfig c = {}, int shards = 1)
      : se(sim::ShardedEngine::Options{shards, Fabric::floor_hop(c), shards}),
        cfg(c),
        bus(se, n, Fabric::floor_hop(cfg)),
        fabric(cfg, bus) {}
  NetWorld(const NetWorld&) = delete;
  NetWorld& operator=(const NetWorld&) = delete;
  // Settle buckets still holding wire flights (a run stopped early) hand
  // their records back to the fabric's pools, so clear them while the
  // fabric is alive — the teardown order SimCluster uses.
  ~NetWorld() { bus.clear(); }
};

}  // namespace gbc::net::testing
