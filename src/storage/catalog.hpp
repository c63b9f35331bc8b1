#pragma once

#include <cstdint>
#include <deque>
#include <optional>
#include <utility>
#include <vector>

#include "sim/time.hpp"
#include "storage/erasure.hpp"
#include "storage/storage.hpp"

namespace gbc::storage {

/// One snapshot image's catalog entry: where the image lives and when each
/// durability level was reached.
///   written_at     local copy complete (survives a job abort, not the node)
///   replicated_at  partner copy complete (survives losing the home node)
///   drained_at     PFS copy complete (survives anything)
/// A direct PFS write (no tier, or a capacity write-through) is PFS-durable
/// the instant it completes: written_at == drained_at.
struct ImageInfo {
  std::uint64_t id = 0;  ///< node-encoded catalog id; 0 means "no image"
  int node = -1;
  Bytes bytes = 0;
  /// Holds only the pages dirtied since the previous entry of this node's
  /// partition, so a restore reads that whole chain back to a full image.
  bool incremental = false;
  bool local = false;    ///< written to the local tier (vs a PFS write)
  bool evicted = false;  ///< local copy dropped to make room
  int partner = -1;      ///< replica node, -1 when not replicated
  sim::Time written_at = -1;     ///< local (or PFS) write completion
  sim::Time replicated_at = -1;  ///< partner copy completion, -1 pending
  sim::Time drained_at = -1;     ///< PFS durability instant, -1 pending
  ErasureChunks ec;              ///< chunk placement, inactive when k == 0
};

/// Where one rank's image is read from during restart.
struct RestoreSource {
  enum Kind : std::uint8_t {
    kNone,     ///< nothing to read (fresh start of the original attempt)
    kLocal,    ///< surviving node-local tier copy
    kReplica,  ///< partner's replica: partner disk read + fabric transfer
    kErasure,  ///< degraded read: fetch k chunks, invert, reconstruct
    kPfs,      ///< shared parallel file system (contended)
  };
  Kind kind = Kind::kPfs;
  Bytes bytes = 0;     ///< restore volume, including any incremental chain
  int from_node = -1;  ///< replica source node (kReplica only)

  // --- kErasure only ---
  std::vector<int> from_nodes;  ///< the k chunk holders to fetch from
  Bytes chunk_bytes = 0;
  int data_erasures = 0;  ///< data chunks lost (0 = systematic pass-through)

  RestoreSource() = default;
  RestoreSource(Kind kind_, Bytes bytes_, int from = -1)
      : kind(kind_), bytes(bytes_), from_node(from) {}
};

/// The one record of where every snapshot image lives and what it costs to
/// read back (DESIGN.md §10, §15). Partitioned by node: node i's entries sit
/// in their own cache-line-aligned partition, appended only on node i's
/// home shard, so shards never write a shared line. Ids encode
/// (node, per-node sequence), so find() resolves any id in O(1) without a
/// directory.
///
/// A value type: the live catalog sits inside the TieredStore, and recovery
/// keeps a copy after the failed attempt's cluster is torn down, re-querying
/// it with a growing set of dead nodes.
class ImageCatalog {
 public:
  static constexpr int kIdNodeShift = 40;
  static int node_of_id(std::uint64_t id) noexcept {
    return static_cast<int>(id >> kIdNodeShift) - 1;
  }
  static std::uint64_t seq_of_id(std::uint64_t id) noexcept {
    return id & ((std::uint64_t{1} << kIdNodeShift) - 1);
  }

  ImageCatalog() = default;
  explicit ImageCatalog(int nnodes) : parts_(static_cast<std::size_t>(nnodes)) {}

  int nnodes() const noexcept { return static_cast<int>(parts_.size()); }

  /// New entry at the end of `node`'s partition. Call on the node's home
  /// shard; the reference stays valid across later appends.
  ImageInfo& append(int node, Bytes bytes, bool incremental);

  /// Resolves an id against the owning node's partition; nullptr for 0 /
  /// unknown. Safe from any engine once that image's writer has synced with
  /// the reader (recovery reads after the run; cycle code reads its own).
  const ImageInfo* find(std::uint64_t id) const;
  ImageInfo* find(std::uint64_t id) {
    return const_cast<ImageInfo*>(std::as_const(*this).find(id));
  }
  /// Node's entries, oldest first (sequence order).
  std::deque<ImageInfo>& partition(int node) { return parts_[node].images; }

  /// Bytes a restore of `id` reads: the image plus, for an incremental
  /// entry, every earlier link of its node's chain back to a full image.
  /// An incremental entry with no predecessor counts as full.
  Bytes restore_bytes(std::uint64_t id) const;

  /// The cheapest surviving copy of image `id` given the dead-node set, in
  /// the order local → replica → erasure decode → drained PFS, carrying the
  /// chain's restore bytes. nullopt when no copy survives (or id unknown).
  std::optional<RestoreSource> restore_source(
      std::uint64_t id, const std::vector<char>& failed_nodes) const;

  // --- durability predicates ---
  static bool local_available(const ImageInfo& img) {
    return img.local && !img.evicted;
  }
  static bool pfs_durable(const ImageInfo& img) { return img.drained_at >= 0; }
  /// Shared aliveness predicate for every remote-durability check below:
  /// nodes outside the set (or unset, -1) count as alive.
  static bool node_failed(int node, const std::vector<char>& failed_nodes) {
    return node >= 0 && node < static_cast<int>(failed_nodes.size()) &&
           failed_nodes[node];
  }
  /// Replica survives a set of dead nodes (multi-failure recovery) only if
  /// the partner node is not in the set.
  static bool replica_available(const ImageInfo& img,
                                const std::vector<char>& failed_nodes) {
    return img.replicated_at >= 0 && !node_failed(img.partner, failed_nodes);
  }
  /// Placed chunks whose holders are outside the dead set, ascending — so
  /// every surviving data chunk (index < k) precedes every parity chunk.
  static std::vector<int> live_chunks(const ImageInfo& img,
                                      const std::vector<char>& failed_nodes);
  /// The erasure stripe is decodable when at least k placed chunks sit on
  /// nodes outside the dead set.
  static bool erasure_decodable(const ImageInfo& img,
                                const std::vector<char>& failed_nodes) {
    return img.ec.active() &&
           static_cast<int>(live_chunks(img, failed_nodes).size()) >= img.ec.k;
  }

 private:
  struct alignas(64) Partition {
    std::deque<ImageInfo> images;  // deque: stable refs across appends
  };
  std::vector<Partition> parts_;
};

}  // namespace gbc::storage
