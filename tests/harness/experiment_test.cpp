#include "harness/experiment.hpp"

#include <gtest/gtest.h>

#include <stdexcept>

#include "harness/sim_cluster.hpp"
#include "harness/table.hpp"
#include "workloads/microbench.hpp"

namespace gbc::harness {
namespace {

using workloads::CommGroupBench;
using workloads::CommGroupBenchConfig;

ClusterPreset small_cluster(int n) {
  ClusterPreset p = icpp07_cluster();
  p.nranks = n;
  return p;
}

WorkloadFactory microbench_factory(int comm_group, std::uint64_t iters,
                                   double footprint_mib = 180.0) {
  CommGroupBenchConfig cfg;
  cfg.comm_group_size = comm_group;
  cfg.compute_per_iter = 100 * sim::kMillisecond;
  cfg.iterations = iters;
  cfg.footprint_mib = footprint_mib;
  return [cfg](int n) { return std::make_unique<CommGroupBench>(n, cfg); };
}

TEST(RunExperiment, BaseRunCompletesWithNoCheckpoints) {
  auto res = run_experiment(small_cluster(8), microbench_factory(4, 100),
                            ckpt::CkptConfig{});
  EXPECT_NEAR(res.completion_seconds(), 10.0, 1.0);
  EXPECT_TRUE(res.checkpoints.empty());
  for (auto it : res.final_iterations) EXPECT_EQ(it, 100u);
}

TEST(RunExperiment, IsDeterministic) {
  auto a = run_experiment(small_cluster(8), microbench_factory(4, 60),
                          ckpt::CkptConfig{});
  auto b = run_experiment(small_cluster(8), microbench_factory(4, 60),
                          ckpt::CkptConfig{});
  EXPECT_EQ(a.completion, b.completion);
  EXPECT_EQ(a.final_hashes, b.final_hashes);
}

TEST(RunExperiment, CheckpointRequestIsHonoured) {
  ckpt::CkptConfig cc;
  cc.group_size = 4;
  std::vector<CkptRequest> reqs;
  reqs.push_back(
      CkptRequest{sim::from_seconds(3), ckpt::Protocol::kGroupBased});
  auto res = run_experiment(small_cluster(8), microbench_factory(4, 100), cc,
                            reqs);
  ASSERT_EQ(res.checkpoints.size(), 1u);
  EXPECT_EQ(res.checkpoints[0].plan.size(), 2);
  EXPECT_GT(res.completion_seconds(), 10.0);  // the checkpoint cost time
}

TEST(EffectiveDelay, GroupBasedBeatsBlockingForGroupedWorkload) {
  ckpt::CkptConfig grouped;
  grouped.group_size = 4;
  auto group_delay = measure_effective_delay(
      small_cluster(16), microbench_factory(4, 250), grouped,
      sim::from_seconds(4), ckpt::Protocol::kGroupBased);
  auto all_delay = measure_effective_delay(
      small_cluster(16), microbench_factory(4, 250), grouped,
      sim::from_seconds(4), ckpt::Protocol::kBlockingCoordinated);
  EXPECT_LT(group_delay.effective_delay_seconds(),
            0.6 * all_delay.effective_delay_seconds());
}

TEST(EffectiveDelay, LiesBetweenIndividualAndTotal) {
  ckpt::CkptConfig cc;
  cc.group_size = 4;
  auto m = measure_effective_delay(small_cluster(16),
                                   microbench_factory(4, 250), cc,
                                   sim::from_seconds(4),
                                   ckpt::Protocol::kGroupBased);
  // Paper Sec. 5 (eq. 3c): Individual <= Effective <= Total, up to the small
  // coordination overheads outside the snapshot window.
  EXPECT_GE(m.effective_delay_seconds(), 0.9 * m.individual_seconds());
  EXPECT_LE(m.effective_delay_seconds(), 1.1 * m.total_seconds());
}

TEST(EffectiveDelay, BaseReuseMatchesFullMeasurement) {
  ckpt::CkptConfig cc;
  cc.group_size = 2;
  auto full = measure_effective_delay(small_cluster(4),
                                      microbench_factory(2, 120), cc,
                                      sim::from_seconds(2),
                                      ckpt::Protocol::kGroupBased);
  auto reused = measure_effective_delay_with_base(
      small_cluster(4), microbench_factory(2, 120), cc, sim::from_seconds(2),
      ckpt::Protocol::kGroupBased, full.base_seconds);
  EXPECT_DOUBLE_EQ(full.with_ckpt_seconds, reused.with_ckpt_seconds);
}

TEST(RunExperiment, HooksArePassedThrough) {
  class CountingHooks : public mpi::MpiHooks {
   public:
    int delivered = 0;
    void on_deliver(int, int, storage::Bytes) override { ++delivered; }
  } hooks;
  auto res = run_experiment(small_cluster(4), microbench_factory(2, 20),
                            ckpt::CkptConfig{}, {}, &hooks);
  EXPECT_GT(hooks.delivered, 0);
  (void)res;
}

TEST(Table, FormatsAndStoresRows) {
  Table t({"a", "bb"});
  t.add_row({"1", "2"});
  t.add_row({Table::num(3.14159, 2), "x"});
  EXPECT_EQ(t.rows().size(), 2u);
  EXPECT_EQ(t.rows()[1][0], "3.14");
  std::ostringstream os;
  t.print(os);
  EXPECT_NE(os.str().find("| a"), std::string::npos);
}

TEST(SimCluster, RejectsIncrementalSnapshotsOnAnEnabledTier) {
  ClusterPreset p = small_cluster(4);
  p.tier.enabled = true;
  ckpt::CkptConfig cc;
  cc.incremental = true;
  EXPECT_THROW(SimCluster(p, cc), std::invalid_argument);
  // A restart attempt's store has its tier disabled: PFS-only chains are
  // fine, as is the tier with full snapshots.
  EXPECT_NO_THROW(SimCluster(p, cc, {.attach_tier = false}));
  cc.incremental = false;
  EXPECT_NO_THROW(SimCluster(p, cc));
}

TEST(SimCluster, TierlessSnapshotsAreCataloguedAsDirectPfsWrites) {
  SimCluster cluster(small_cluster(4));
  ASSERT_FALSE(cluster.tier()->enabled());
  auto wl = microbench_factory(2, 40, 32.0)(4);
  wl->setup(cluster.mpi());
  wl->attach(cluster.checkpoints());
  cluster.checkpoints().request_at(sim::from_seconds(1),
                                   ckpt::Protocol::kGroupBased);
  cluster.spawn_ranks(
      [&](mpi::RankCtx& rank) { return wl->run_rank(rank); });
  cluster.run();
  ASSERT_EQ(cluster.checkpoints().history().size(), 1u);
  const storage::ImageCatalog& cat = cluster.tier()->catalog();
  for (const auto& snap : cluster.checkpoints().history()[0].snapshots) {
    const storage::ImageInfo* img = cat.find(snap.image_id);
    ASSERT_NE(img, nullptr) << snap.rank;
    EXPECT_EQ(img->node, snap.rank);
    EXPECT_EQ(img->bytes, snap.image_bytes);
    EXPECT_FALSE(img->local);
    EXPECT_GE(img->written_at, 0);
    EXPECT_EQ(img->drained_at, img->written_at);
  }
  EXPECT_EQ(cluster.tier()->write_throughs(), 0);
}

}  // namespace
}  // namespace gbc::harness
