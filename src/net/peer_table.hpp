#pragma once

#include <deque>
#include <utility>

namespace gbc::net {

/// Tiny per-peer table for rank-owned state. A rank talks to a handful of
/// peers, so a linear scan beats a node-based map on the per-message hot
/// path, and the table's size is O(peers) rather than O(ranks). Deque
/// storage keeps references stable across inserts — send pumps and
/// connection waiters hold a slot reference across suspension points while
/// other peers get added. Slots are never erased. Iteration runs in
/// first-touch order, not peer order.
template <typename V>
class PeerTable {
 public:
  V& operator[](int peer) {
    for (auto& s : slots_)
      if (s.first == peer) return s.second;
    slots_.emplace_back(peer, V{});
    return slots_.back().second;
  }
  const V* find(int peer) const {
    for (const auto& s : slots_)
      if (s.first == peer) return &s.second;
    return nullptr;
  }

  auto begin() const noexcept { return slots_.begin(); }
  auto end() const noexcept { return slots_.end(); }

 private:
  std::deque<std::pair<int, V>> slots_;
};

}  // namespace gbc::net
