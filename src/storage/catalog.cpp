#include "storage/catalog.hpp"

namespace gbc::storage {

ImageInfo& ImageCatalog::append(int node, Bytes bytes, bool incremental) {
  auto& part = parts_[static_cast<std::size_t>(node)].images;
  ImageInfo& img = part.emplace_back();
  img.id = (static_cast<std::uint64_t>(node) + 1) << kIdNodeShift |
           part.size();
  img.node = node;
  img.bytes = bytes;
  img.incremental = incremental;
  return img;
}

const ImageInfo* ImageCatalog::find(std::uint64_t id) const {
  const int node = node_of_id(id);
  if (node < 0 || node >= nnodes()) return nullptr;
  const std::uint64_t seq = seq_of_id(id);
  const auto& part = parts_[static_cast<std::size_t>(node)].images;
  return seq >= 1 && seq <= part.size() ? &part[seq - 1] : nullptr;
}

Bytes ImageCatalog::restore_bytes(std::uint64_t id) const {
  const ImageInfo* img = find(id);
  if (!img) return 0;
  const auto& part = parts_[static_cast<std::size_t>(img->node)].images;
  Bytes total = 0;
  for (std::uint64_t seq = seq_of_id(id);; --seq) {
    const ImageInfo& link = part[seq - 1];
    total += link.bytes;
    if (!link.incremental || seq == 1) break;
  }
  return total;
}

std::vector<int> ImageCatalog::live_chunks(
    const ImageInfo& img, const std::vector<char>& failed_nodes) {
  std::vector<int> live;
  for (std::size_t c = 0; c < img.ec.nodes.size(); ++c) {
    if (img.ec.done_at[c] >= 0 &&
        !node_failed(img.ec.nodes[c], failed_nodes)) {
      live.push_back(static_cast<int>(c));
    }
  }
  return live;
}

std::optional<RestoreSource> ImageCatalog::restore_source(
    std::uint64_t id, const std::vector<char>& failed_nodes) const {
  const ImageInfo* img = find(id);
  if (!img) return std::nullopt;
  const Bytes bytes = restore_bytes(id);
  if (!node_failed(img->node, failed_nodes) && local_available(*img)) {
    return RestoreSource{RestoreSource::kLocal, bytes};
  }
  if (replica_available(*img, failed_nodes)) {
    return RestoreSource{RestoreSource::kReplica, bytes, img->partner};
  }
  // Erasure decode beats the PFS: k chunk fetches over the fabric plus the
  // decode compute still undercut a contended PFS read. Take the first k
  // survivors — data chunks first, since every parity chunk drafted in is
  // one more row of the inverted system and one more reconstruction pass.
  if (erasure_decodable(*img, failed_nodes)) {
    const ErasureChunks& ec = img->ec;
    const std::vector<int> live = live_chunks(*img, failed_nodes);
    RestoreSource src{RestoreSource::kErasure, bytes};
    src.chunk_bytes = ec.chunk_bytes;
    for (int i = 0; i < ec.k; ++i) {
      const int c = live[static_cast<std::size_t>(i)];
      src.from_nodes.push_back(ec.nodes[static_cast<std::size_t>(c)]);
      if (c >= ec.k) ++src.data_erasures;
    }
    return src;
  }
  if (pfs_durable(*img)) return RestoreSource{RestoreSource::kPfs, bytes};
  return std::nullopt;
}

}  // namespace gbc::storage
