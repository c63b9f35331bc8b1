#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>

namespace gbc::net {

/// Interconnect shape. The seed model (`kFlat`) is a full crossbar: every
/// pair one wire_latency apart, contention only at the sender NIC. The
/// fat-tree adds the structure that matters past ~1k ranks: ranks hang off
/// leaf switches of a given radix, so a message within a leaf crosses two
/// switch hops and one between leaves crosses four (leaf, spine, leaf).
/// Parsed from the CLI as `flat` or `fat-tree:<radix>`.
struct TopologySpec {
  enum class Kind : std::uint8_t { kFlat, kFatTree };

  Kind kind = Kind::kFlat;
  int radix = 16;  ///< ranks per leaf switch (fat-tree only)

  bool flat() const noexcept { return kind == Kind::kFlat; }
  /// Wire hops between two ranks: 1 on a crossbar (and to oneself), 2
  /// within a fat-tree leaf, 4 across leaves.
  int hops(int a, int b) const noexcept {
    if (flat() || a == b) return 1;
    return a / radix == b / radix ? 2 : 4;
  }
  /// Fewest hops between two distinct ranks.
  int min_hops() const noexcept { return flat() ? 1 : 2; }
};

/// Parses `flat` or `fat-tree:<radix>` (e.g. `fat-tree:32`). Returns
/// nullopt on malformed input, unknown kind or radix < 2.
std::optional<TopologySpec> parse_topology(std::string_view s);

/// Inverse of parse_topology, for --help text and bench metadata.
std::string topology_to_string(const TopologySpec& spec);

}  // namespace gbc::net
