#include "harness/sim_cluster.hpp"

#include <stdexcept>
#include <utility>

namespace gbc::harness {

sim::ShardedEngine::Options SimCluster::engine_options(const ClusterPreset& p,
                                                       int leased) {
  if (p.shards < 1 || p.shards > p.nranks) {
    throw std::invalid_argument(
        "SimCluster: preset.shards must be in [1, nranks]");
  }
  sim::ShardedEngine::Options o;
  o.shards = p.shards;
  o.threads = p.threads == 0 ? leased : p.threads;
  if (p.shards == 1) return o;
  // Uniform conservative horizon: every cross-LP message (wire flight,
  // control hop, RPC leg) respects the bus floor, whichever shards its
  // endpoints live on.
  o.lookahead = net::Fabric::floor_hop(p.net);
  if (o.lookahead <= 0) {
    throw std::invalid_argument(
        "SimCluster: sharded runs need per_message_overhead + wire_latency "
        "large enough for a positive lookahead floor");
  }
  return o;
}

storage::TierConfig SimCluster::tier_config(const ClusterPreset& p,
                                            const ckpt::CkptConfig& ckpt_cfg,
                                            const SimClusterOptions& opts) {
  storage::TierConfig t = p.tier;
  t.enabled = p.tier.enabled && opts.attach_tier;
  if (t.enabled && ckpt_cfg.incremental) {
    // Local, replica and erasure copies hold only the increment, and
    // eviction can drop a chain's ancestors: a tier models full images.
    throw std::invalid_argument(
        "SimCluster: incremental snapshots cannot be combined with the "
        "staging tier (the tier models full-image snapshots)");
  }
  return t;
}

SimCluster::SimCluster(const ClusterPreset& preset,
                       const ckpt::CkptConfig& ckpt_cfg,
                       const SimClusterOptions& opts)
    : preset_(preset),
      lease_(preset.threads == 0 ? preset.shards : 0),
      sharded_(engine_options(preset, lease_.granted())),
      eng_(sharded_.shard(0)),
      bus_(sharded_, preset_.nranks, net::Fabric::floor_hop(preset.net)),
      fabric_(preset_.net, bus_),
      fs_(eng_, preset_.storage),
      tier_(fs_, tier_config(preset, ckpt_cfg, opts), preset_.nranks, bus_),
      mpi_(eng_, fabric_, preset_.mpi),
      ckpt_(mpi_, tier_, ckpt_cfg) {
  tier_.set_replica_transport([this](int src, int dst, storage::Bytes b) {
    return fabric_.bulk_transfer(src, dst, b);
  });
  tier_.set_trace(opts.trace);
  if (opts.trace) ckpt_.set_trace(opts.trace);
  if (opts.hooks) mpi_.set_hooks(opts.hooks);
}

SimCluster::~SimCluster() {
  // Drop whatever is still queued (aborted or partially-driven runs) while
  // every member is alive: queued-callback destructors recycle pooled
  // resources (wire flights) into the fabric's return stacks, which
  // ~Fabric then sweeps home.
  sharded_.abort_all();
  bus_.clear();
}

sim::Task<void> SimCluster::rank_main(sim::Task<void> body, int rank) {
  co_await std::move(body);
  ckpt::CheckpointService* svc = &ckpt_;
  bus_.send(rank, bus_.svc_lp(), [svc] { svc->note_rank_finished(); });
}

}  // namespace gbc::harness
