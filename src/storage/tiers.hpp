#pragma once

#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <vector>

#include "sim/condition.hpp"
#include "sim/engine.hpp"
#include "sim/lp_bus.hpp"
#include "sim/task.hpp"
#include "sim/time.hpp"
#include "sim/trace.hpp"
#include "storage/catalog.hpp"
#include "storage/erasure.hpp"
#include "storage/storage.hpp"

namespace gbc::storage {

/// Multi-level checkpoint staging knobs (FTI-style storage hierarchy in
/// front of the shared PFS). Disabled by default: every image is then a
/// direct PFS write, the paper's single-tier model.
struct TierConfig {
  bool enabled = false;

  /// Node-local tier (SSD/ramdisk): dedicated per-node bandwidth, no
  /// cross-node contention. Foreground snapshot writes land here.
  double local_write_mbps = 400.0;
  double local_read_mbps = 600.0;
  /// Per-node capacity (MiB). 0 = unbounded. Only images that finished
  /// draining to the PFS may be evicted to make room; when even eviction
  /// cannot free enough space, the write falls through to the PFS directly
  /// (paying the full shared-storage contention).
  double local_capacity_mib = 0.0;

  /// Background drain rate per node (MB/s) at which local images trickle to
  /// the shared PFS while computation continues. The actual rate is
  /// min(drain_mbps, this node's fair share of the PFS) since drain traffic
  /// moves through the real StorageSystem. 0 disables draining entirely
  /// (images stay local-only).
  double drain_mbps = 50.0;
  /// Drain granularity: each chunk is one PFS write, so foreground PFS
  /// traffic and the drain contend at chunk boundaries.
  double drain_chunk_mib = 16.0;

  /// Partner replication: each image is also copied to a buddy node over
  /// the fabric, so a single node loss cannot destroy the only copy.
  bool replicate = false;
  int replica_offset = 1;  ///< partner = (node + offset) % nnodes
  /// Fallback replica bandwidth (MB/s) used only when no fabric transport
  /// is installed (standalone storage tests).
  double replica_fallback_mbps = 1250.0;

  /// Diskless erasure coding: each image is additionally split into k data
  /// + m parity chunks scattered across a parity group of remote nodes
  /// (storage/erasure.hpp). Off by default.
  ErasureConfig erasure;
};

/// Duration of moving `bytes` at `mbps` (binary MB/s), in simulated time.
inline sim::Time transfer_time(Bytes bytes, double mbps) {
  if (mbps <= 0) return 0;
  return static_cast<sim::Time>(static_cast<double>(bytes) /
                                (mbps * static_cast<double>(kMiB)) *
                                static_cast<double>(sim::kSecond));
}

/// Node-local checkpoint tier in front of the shared StorageSystem, with a
/// background drain service per node and optional partner replication —
/// and, with the tier disabled, the direct PFS write path. Either way every
/// snapshot becomes an ImageCatalog entry recording where the image lives
/// and when each durability level was reached; recovery reads a copy of
/// that catalog to decide which checkpoint is restorable after a node loss
/// and what its restore reads cost (harness/recovery.cpp; DESIGN.md §10).
///
/// The store is *partitioned by node* (DESIGN.md §15): each node owns its
/// catalog partition, staging-disk schedule, drain queue, and stat slots,
/// and all of a node's tier work (foreground write, drain pacing,
/// replica/erasure scatter) runs on that node's home shard engine. Only the
/// shared PFS stays central: every PFS leg is routed to the service LP by
/// message, so PFS arbitration order is canonical at any shard count.
class TieredStore {
 public:
  /// Copies `bytes` from node `src` to node `dst` over the interconnect.
  using Transport = std::function<sim::Task<void>(int src, int dst,
                                                  Bytes bytes)>;

  /// Node i's partition lives on LP i's home shard (node ids and rank LP
  /// ids coincide in the harness); `pfs` lives on the service LP and PFS
  /// legs are RPCs to it.
  TieredStore(StorageSystem& pfs, TierConfig cfg, int nnodes,
              sim::LpBus& bus);
  TieredStore(const TieredStore&) = delete;
  TieredStore& operator=(const TieredStore&) = delete;

  bool enabled() const noexcept { return cfg_.enabled; }
  const TierConfig& config() const noexcept { return cfg_; }
  int nnodes() const noexcept { return static_cast<int>(nodes_.size()); }
  StorageSystem& pfs() noexcept { return pfs_; }

  /// Replica copies go through this (the harness installs the fabric's
  /// bulk_transfer). Without one, replica_fallback_mbps is charged.
  void set_replica_transport(Transport t) { transport_ = std::move(t); }
  void set_trace(sim::Trace* trace) {
    trace_ = trace;
    if (erasure_) erasure_->set_trace(trace);
  }
  /// Non-null iff the erasure knob set is enabled (and the tier is).
  ErasureTier* erasure() const noexcept { return erasure_.get(); }

  /// Foreground snapshot write from `node`. With the tier enabled: a
  /// local-tier write (plus partner replication / erasure protection when
  /// enabled), falling through to a direct PFS write when the local tier
  /// cannot make room; the drain to the PFS continues in the background.
  /// With the tier disabled: the direct PFS write. Resolves when the image
  /// is durable at checkpoint-completion level and returns its catalog id.
  /// `incremental` marks an image that chains to the node's previous one.
  /// Must be called on `node`'s engine (rank LP).
  sim::Task<std::uint64_t> snapshot(int node, Bytes bytes,
                                    bool incremental = false);

  /// Local restore read on `node` (dedicated bandwidth, serialized on the
  /// node's disk like writes). Must be called on `node`'s engine.
  sim::Task<void> read_local(int node, Bytes bytes);

  /// Pauses / resumes node's background drain (between chunks). Pure state
  /// flips on node-owned slots: callers route them to the node's shard.
  void pause_drain(int node);
  void resume_drain(int node);
  bool drain_paused(int node) const { return nodes_[node].paused; }

  /// Every image this store wrote. Read it (or copy it) only once the
  /// writers have synced with the reader: recovery copies it after the run.
  const ImageCatalog& catalog() const noexcept { return catalog_; }

  // --- stats (per-node slots, summed at quiescence) ---
  Bytes local_used(int node) const { return nodes_[node].used; }
  std::int64_t write_throughs() const noexcept {
    return sum_nodes(&NodeState::write_throughs);
  }
  std::int64_t images_drained() const noexcept {
    return sum_nodes(&NodeState::images_drained);
  }
  std::int64_t images_evicted() const noexcept {
    return sum_nodes(&NodeState::images_evicted);
  }
  std::int64_t replicas_made() const noexcept {
    return sum_nodes(&NodeState::replicas_made);
  }
  std::int64_t images_encoded() const noexcept {
    return erasure_ ? erasure_->images_encoded() : 0;
  }
  std::int64_t ec_chunks_placed() const noexcept {
    return erasure_ ? erasure_->chunks_placed() : 0;
  }
  /// Images still waiting for (or in) the drain across all nodes.
  int drain_backlog() const;

 private:
  /// One node's slice of the store outside the catalog: staging-disk
  /// schedule, drain queue, and stat slots, all owned by the node's home
  /// shard engine. Cache-line aligned so two nodes' hot counters never
  /// share a line across shard threads.
  struct alignas(64) NodeState {
    explicit NodeState(sim::Engine& eng) : cv(eng) {}
    Bytes used = 0;               // resident (non-evicted) local image bytes
    sim::Time disk_busy_until = 0;
    std::deque<std::uint64_t> drain_queue;
    std::uint64_t draining = 0;  // image currently being drained, 0 if none
    bool drain_running = false;
    bool paused = false;
    sim::Condition cv;  // pause/resume wakeups (on the node's engine)
    std::int64_t write_throughs = 0;
    std::int64_t images_drained = 0;
    std::int64_t images_evicted = 0;
    std::int64_t replicas_made = 0;
  };

  sim::Engine& engine_of(int node) const { return bus_.engine_of(node); }
  /// The one shared resource: PFS writes are arbitrated on the service LP,
  /// so their interleaving is canonical at any shard count.
  sim::Task<void> pfs_write_from(int node, Bytes bytes);
  std::int64_t sum_nodes(std::int64_t NodeState::* slot) const {
    std::int64_t n = 0;
    for (const auto& st : nodes_) n += st.*slot;
    return n;
  }

  sim::Task<void> drain_service(int node);
  sim::Task<void> replicate_image(ImageInfo& img);
  /// Frees drained images until `need` more bytes fit; false if impossible.
  bool make_room(int node, Bytes need);
  Bytes capacity() const {
    return cfg_.local_capacity_mib > 0 ? mib(cfg_.local_capacity_mib) : 0;
  }
  Bytes chunk_bytes() const {
    const Bytes c = mib(cfg_.drain_chunk_mib);
    return c > 0 ? c : kMiB;
  }
  void trace_event(int node, const char* category, std::string detail);

  StorageSystem& pfs_;
  TierConfig cfg_;
  sim::LpBus& bus_;
  Transport transport_;
  std::unique_ptr<ErasureTier> erasure_;
  sim::Trace* trace_ = nullptr;
  ImageCatalog catalog_;
  std::deque<NodeState> nodes_;  // deque: Condition is immovable
};

}  // namespace gbc::storage
