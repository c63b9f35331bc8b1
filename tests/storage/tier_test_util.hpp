#pragma once

#include "net/fabric.hpp"
#include "sim/engine.hpp"
#include "sim/lp_bus.hpp"
#include "sim/shard_engine.hpp"
#include "storage/storage.hpp"
#include "storage/tiers.hpp"

namespace gbc::storage::testing {

/// The staging tier as harness::SimCluster wires it, at one shard: a
/// one-shard ShardedEngine, the LpBus over it (floored at the default
/// fabric's floor_hop, the bus floor a cluster would use), the shared PFS on
/// the service LP and the tier on the bus. Node i is LP i; PFS legs are
/// RPCs to the service LP. No fabric is built: replica copies use the
/// installed transport or replica_fallback_mbps.
struct TierWorld {
  sim::ShardedEngine se{sim::ShardedEngine::Options{}};
  sim::Engine& eng = se.shard(0);
  sim::LpBus bus;
  StorageSystem pfs;
  TieredStore tier;

  TierWorld(TierConfig tc, int nnodes, StorageConfig sc = {})
      : bus(se, nnodes, net::Fabric::floor_hop(net::NetConfig{})),
        pfs(eng, sc),
        tier(pfs, tc, nnodes, bus) {}
};

}  // namespace gbc::storage::testing
