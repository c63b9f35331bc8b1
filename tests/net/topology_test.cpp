#include "net/topology.hpp"

#include <gtest/gtest.h>

namespace gbc::net {
namespace {

TEST(ParseTopology, AcceptsFlat) {
  const auto t = parse_topology("flat");
  ASSERT_TRUE(t.has_value());
  EXPECT_TRUE(t->flat());
  EXPECT_EQ(t->min_hops(), 1);
  EXPECT_EQ(topology_to_string(*t), "flat");
}

TEST(ParseTopology, AcceptsFatTree) {
  const auto t = parse_topology("fat-tree:32");
  ASSERT_TRUE(t.has_value());
  EXPECT_FALSE(t->flat());
  EXPECT_EQ(t->radix, 32);
  EXPECT_EQ(t->min_hops(), 2);
  EXPECT_EQ(topology_to_string(*t), "fat-tree:32");
}

TEST(ParseTopology, RejectsMalformedInput) {
  EXPECT_FALSE(parse_topology("").has_value());
  EXPECT_FALSE(parse_topology("bogus").has_value());
  EXPECT_FALSE(parse_topology("fat-tree").has_value());
  EXPECT_FALSE(parse_topology("fat-tree:").has_value());
  EXPECT_FALSE(parse_topology("fat-tree:abc").has_value());
  EXPECT_FALSE(parse_topology("fat-tree:1").has_value());  // radix < 2
  EXPECT_FALSE(parse_topology("fat-tree:-8").has_value());
  // The retired <radix>:<oversub> form: oversubscription changes nothing.
  EXPECT_FALSE(parse_topology("fat-tree:32:2").has_value());
  EXPECT_FALSE(parse_topology("fat-tree:32:2:9").has_value());
}

TEST(FatTree, LeafMembershipAndHops) {
  const auto spec = parse_topology("fat-tree:4");
  ASSERT_TRUE(spec.has_value());
  EXPECT_EQ(spec->hops(0, 3), 2);   // within a leaf
  EXPECT_EQ(spec->hops(3, 4), 4);   // neighbours on adjacent leaves
  EXPECT_EQ(spec->hops(0, 15), 4);  // across leaves
  EXPECT_EQ(spec->hops(15, 12), 2);
  EXPECT_EQ(spec->hops(5, 5), 1);   // loopback: the NIC's own wire
  const TopologySpec flat;
  EXPECT_EQ(flat.hops(0, 15), 1);   // crossbar: one wire between any pair
}

}  // namespace
}  // namespace gbc::net
