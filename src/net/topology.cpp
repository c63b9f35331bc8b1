#include "net/topology.hpp"

namespace gbc::net {

namespace {

bool parse_int(std::string_view s, int& out) {
  if (s.empty()) return false;
  int v = 0;
  for (char c : s) {
    if (c < '0' || c > '9') return false;
    if (v > 214748363) return false;
    v = v * 10 + (c - '0');
  }
  out = v;
  return true;
}

}  // namespace

std::optional<TopologySpec> parse_topology(std::string_view s) {
  TopologySpec spec;
  if (s == "flat") return spec;
  constexpr std::string_view kPrefix = "fat-tree:";
  if (s.substr(0, kPrefix.size()) != kPrefix) return std::nullopt;
  spec.kind = TopologySpec::Kind::kFatTree;
  if (!parse_int(s.substr(kPrefix.size()), spec.radix)) return std::nullopt;
  if (spec.radix < 2) return std::nullopt;
  return spec;
}

std::string topology_to_string(const TopologySpec& spec) {
  if (spec.flat()) return "flat";
  return "fat-tree:" + std::to_string(spec.radix);
}

}  // namespace gbc::net
