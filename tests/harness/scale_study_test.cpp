// Scale studies run on the full protocol stack: a fat-tree SimCluster, the
// same configuration bench/scale_groupsize and `gbcsim run --topology` use
// at 1k-16k ranks, shrunk to 64 ranks. Shard and thread counts only
// partition the event set; they never change the simulation.
#include <gtest/gtest.h>

#include <memory>

#include "harness/experiment.hpp"
#include "harness/sim_cluster.hpp"
#include "harness/sweep.hpp"
#include "harness/thread_budget.hpp"
#include "net/topology.hpp"
#include "workloads/microbench.hpp"

namespace gbc::harness {
namespace {

ClusterPreset fat_tree_cluster(int shards, int threads) {
  ClusterPreset p = icpp07_cluster();
  p.nranks = 64;
  p.shards = shards;
  p.threads = threads;
  p.net.topology = *net::parse_topology("fat-tree:8");
  return p;
}

WorkloadFactory ring_factory() {
  workloads::CommGroupBenchConfig cfg;
  cfg.comm_group_size = 8;
  cfg.compute_per_iter = 100 * sim::kMillisecond;
  cfg.iterations = 4;
  cfg.footprint_mib = 4.0;
  return [cfg](int n) {
    return std::make_unique<workloads::CommGroupBench>(n, cfg);
  };
}

ckpt::CkptConfig group_of_16() {
  ckpt::CkptConfig cc;
  cc.group_size = 16;
  return cc;
}

std::vector<CkptRequest> one_checkpoint() {
  return {CkptRequest{sim::from_milliseconds(200),
                      ckpt::Protocol::kGroupBased}};
}

RunResult run(const ClusterPreset& p) {
  return run_experiment(p, ring_factory(), group_of_16(), one_checkpoint());
}

// 7 shards makes the rank blocks uneven on purpose. Event counts are not
// compared: the engine dispatches a layout-dependent number of settle
// events, and only the simulated results are layout-invariant.
TEST(ScaleStudy, StateInvariantAcrossShardCounts) {
  const RunResult serial = run(fat_tree_cluster(1, 1));
  ASSERT_EQ(serial.checkpoints.size(), 1u);
  for (int shards : {4, 7}) {
    const RunResult r = run(fat_tree_cluster(shards, 1));
    EXPECT_EQ(r.completion, serial.completion) << shards << " shards";
    EXPECT_EQ(r.final_hashes, serial.final_hashes) << shards << " shards";
    ASSERT_EQ(r.checkpoints.size(), 1u);
    EXPECT_EQ(r.checkpoints[0].total_checkpoint_time(),
              serial.checkpoints[0].total_checkpoint_time());
    EXPECT_EQ(r.checkpoints[0].max_individual_time(),
              serial.checkpoints[0].max_individual_time());
  }
}

TEST(ScaleStudy, StateInvariantAcrossThreadCounts) {
  const RunResult inline_run = run(fat_tree_cluster(4, 1));
  const RunResult threaded = run(fat_tree_cluster(4, 4));
  EXPECT_EQ(threaded.completion, inline_run.completion);
  EXPECT_EQ(threaded.final_hashes, inline_run.final_hashes);
  // Same shard layout, so even the engine's event count agrees.
  EXPECT_EQ(threaded.events_processed, inline_run.events_processed);
}

TEST(ScaleStudy, BaseRunHasNoCheckpointCost) {
  const RunResult r =
      run_experiment(fat_tree_cluster(4, 1), ring_factory(), group_of_16());
  EXPECT_GT(r.completion_seconds(), 0.0);
  EXPECT_TRUE(r.checkpoints.empty());
}

// Individual <= Effective <= Total on the fat-tree stack, as at paper
// scale.
TEST(ScaleStudy, CheckpointExtendsCompletion) {
  const ClusterPreset p = fat_tree_cluster(4, 1);
  const RunResult base = run_experiment(p, ring_factory(), group_of_16());
  const RunResult ck = run(p);
  ASSERT_EQ(ck.checkpoints.size(), 1u);
  const sim::Time effective = ck.completion - base.completion;
  EXPECT_GT(effective, 0);
  EXPECT_LE(ck.checkpoints[0].max_individual_time(), effective);
  EXPECT_LE(effective, ck.checkpoints[0].total_checkpoint_time());
}

// preset.threads == 0 leases min(shards, what is free) from the shared
// budget for the cluster's lifetime, rather than running on one thread.
TEST(ScaleStudy, ThreadsZeroLeasesFromTheBudget) {
  auto& budget = ThreadBudget::shared();
  budget.set_capacity_for_test(3);
  int held = -1;
  int threads = 0;
  {
    SimCluster cluster(fat_tree_cluster(4, 0));
    threads = cluster.sharded().threads();
    held = budget.leased();
  }
  const int after = budget.leased();
  int narrow = 0;
  {
    SimCluster cluster(fat_tree_cluster(2, 0));
    narrow = cluster.sharded().threads();
  }
  budget.set_capacity_for_test(0);

  EXPECT_EQ(threads, 3);  // the budget's whole width, not 1
  EXPECT_EQ(held, 2);     // the caller's own thread is free
  EXPECT_EQ(after, 0);
  EXPECT_EQ(narrow, 2);   // never more than the shard count
}

// Sweep x shards composition: sharded runs inside a sweep must share one
// thread budget, so the process never holds more helper threads than the
// capacity allows (here: pinned to 4 -> at most 3 leased at any instant).
TEST(ScaleStudy, SweepTimesShardsRespectsThreadBudget) {
  auto& budget = ThreadBudget::shared();
  budget.set_capacity_for_test(4);  // also resets the peak
  SweepRunner runner(4);
  const ClusterPreset p = fat_tree_cluster(4, 0);  // lease from the budget
  const auto hashes = runner.map<std::vector<std::uint64_t>>(
      3, [&p](std::size_t) { return run(p).final_hashes; });
  const int peak = budget.peak_leased();
  const int leaked = budget.leased();
  budget.set_capacity_for_test(0);

  EXPECT_EQ(leaked, 0);
  EXPECT_LE(peak, 3);  // capacity - 1: the submitter's thread is free
  ASSERT_EQ(hashes.size(), 3u);
  EXPECT_EQ(hashes[0], hashes[1]);
  EXPECT_EQ(hashes[0], hashes[2]);
}

}  // namespace
}  // namespace gbc::harness
