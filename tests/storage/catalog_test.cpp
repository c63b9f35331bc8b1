#include "storage/catalog.hpp"

#include <gtest/gtest.h>

#include <vector>

namespace gbc::storage {
namespace {

TEST(ImageCatalog, IdsEncodeNodeAndSequence) {
  ImageCatalog cat(3);
  const std::uint64_t a = cat.append(2, mib(10), false).id;
  const std::uint64_t b = cat.append(2, mib(20), false).id;
  const std::uint64_t c = cat.append(0, mib(30), false).id;
  EXPECT_EQ(ImageCatalog::node_of_id(a), 2);
  EXPECT_EQ(ImageCatalog::seq_of_id(a), 1u);
  EXPECT_EQ(ImageCatalog::seq_of_id(b), 2u);
  EXPECT_EQ(ImageCatalog::node_of_id(c), 0);
  ASSERT_NE(cat.find(b), nullptr);
  EXPECT_EQ(cat.find(b)->bytes, mib(20));
  EXPECT_EQ(cat.find(c)->node, 0);
  EXPECT_EQ(cat.find(0), nullptr);
  EXPECT_EQ(cat.find(b + 1), nullptr);  // past the partition's end
}

TEST(ImageCatalog, FullImageRestoreCostIsItsOwnSize) {
  ImageCatalog cat(4);
  cat.append(0, mib(100), false);
  const std::uint64_t id = cat.append(0, mib(100), false).id;
  EXPECT_EQ(cat.restore_bytes(id), mib(100));
}

TEST(ImageCatalog, IncrementalChainsAccumulateRestoreCost) {
  ImageCatalog cat(2);
  cat.append(1, mib(100), false);  // full
  const std::uint64_t mid = cat.append(1, mib(20), true).id;  // inc -> full
  const std::uint64_t last = cat.append(1, mib(10), true).id;
  // Restore = 10 + 20 + 100; the other node's partition is not involved.
  EXPECT_EQ(cat.restore_bytes(last), mib(130));
  EXPECT_EQ(cat.restore_bytes(mid), mib(120));
}

TEST(ImageCatalog, FullImageEndsTheChain) {
  ImageCatalog cat(1);
  cat.append(0, mib(100), false);
  cat.append(0, mib(20), true);
  cat.append(0, mib(90), false);  // new full image
  const std::uint64_t id = cat.append(0, mib(5), true).id;
  EXPECT_EQ(cat.restore_bytes(id), mib(95));
}

TEST(ImageCatalog, FirstIncrementalWithoutPredecessorIsFull) {
  ImageCatalog cat(2);
  const std::uint64_t id = cat.append(0, mib(80), true).id;
  EXPECT_EQ(cat.restore_bytes(id), mib(80));
}

TEST(ImageCatalog, RestoreSourcePrefersLocalThenReplicaThenPfs) {
  ImageCatalog cat(4);
  ImageInfo& img = cat.append(1, mib(50), false);
  img.local = true;
  img.written_at = 1;
  img.partner = 2;
  img.replicated_at = 2;
  img.drained_at = 3;
  const std::vector<char> none(4, 0);
  auto src = cat.restore_source(img.id, none);
  ASSERT_TRUE(src);
  EXPECT_EQ(src->kind, RestoreSource::kLocal);
  EXPECT_EQ(src->bytes, mib(50));

  const std::vector<char> home_dead{0, 1, 0, 0};
  src = cat.restore_source(img.id, home_dead);
  ASSERT_TRUE(src);
  EXPECT_EQ(src->kind, RestoreSource::kReplica);
  EXPECT_EQ(src->from_node, 2);

  const std::vector<char> pair_dead{0, 1, 1, 0};
  src = cat.restore_source(img.id, pair_dead);
  ASSERT_TRUE(src);
  EXPECT_EQ(src->kind, RestoreSource::kPfs);

  img.drained_at = -1;  // not drained yet: nothing survives the pair loss
  EXPECT_FALSE(cat.restore_source(img.id, pair_dead));
  EXPECT_FALSE(cat.restore_source(0, none));
}

TEST(ImageCatalog, ErasurePlanTakesDataChunksFirst) {
  ImageCatalog cat(8);
  ImageInfo& img = cat.append(0, mib(40), false);
  img.local = true;
  img.ec.k = 2;
  img.ec.m = 2;
  img.ec.chunk_bytes = mib(20);
  img.ec.nodes = {3, 4, 5, 6};   // data 0, data 1, parity 0, parity 1
  img.ec.done_at = {1, 1, 1, -1};  // parity 1 never landed
  std::vector<char> dead(8, 0);
  dead[0] = 1;  // home node gone with its local copy
  auto src = cat.restore_source(img.id, dead);
  ASSERT_TRUE(src);
  EXPECT_EQ(src->kind, RestoreSource::kErasure);
  EXPECT_EQ(src->from_nodes, (std::vector<int>{3, 4}));
  EXPECT_EQ(src->data_erasures, 0);
  EXPECT_EQ(src->chunk_bytes, mib(20));

  dead[3] = 1;  // lose data chunk 0: parity 0 is drafted in
  src = cat.restore_source(img.id, dead);
  ASSERT_TRUE(src);
  EXPECT_EQ(src->from_nodes, (std::vector<int>{4, 5}));
  EXPECT_EQ(src->data_erasures, 1);

  dead[4] = 1;  // only one placed chunk left: not decodable, not drained
  EXPECT_FALSE(ImageCatalog::erasure_decodable(img, dead));
  EXPECT_FALSE(cat.restore_source(img.id, dead));
}

TEST(ImageCatalog, CopyOutlivesAndIgnoresLaterAppends) {
  ImageCatalog live(2);
  const std::uint64_t id = live.append(1, mib(10), false).id;
  const ImageCatalog copy = live;
  live.append(1, mib(99), false);
  live.find(id)->evicted = true;
  ASSERT_NE(copy.find(id), nullptr);
  EXPECT_FALSE(copy.find(id)->evicted);
  EXPECT_EQ(copy.find(id + 1), nullptr);
}

}  // namespace
}  // namespace gbc::storage
