// Job-pause recovery (the paper's related-work comparison): after a single
// node fails, only that rank reloads its image; the rest roll back in place.
#include <gtest/gtest.h>

#include "harness/experiment.hpp"
#include "harness/recovery.hpp"
#include "workloads/microbench.hpp"

namespace gbc::harness {
namespace {

ClusterPreset small_cluster(int n) {
  ClusterPreset p = icpp07_cluster();
  p.nranks = n;
  return p;
}

WorkloadFactory factory(std::uint64_t iters) {
  workloads::CommGroupBenchConfig cfg;
  cfg.comm_group_size = 4;
  cfg.compute_per_iter = 100 * sim::kMillisecond;
  cfg.iterations = iters;
  cfg.footprint_mib = 96.0;
  return [cfg](int n) {
    return std::make_unique<workloads::CommGroupBench>(n, cfg);
  };
}

TEST(JobPause, ProducesSameResultAsFullRestart) {
  auto preset = small_cluster(8);
  auto wf = factory(150);
  ckpt::CkptConfig cc;
  cc.group_size = 4;
  std::vector<CkptRequest> reqs;
  reqs.push_back(
      CkptRequest{sim::from_seconds(4), ckpt::Protocol::kGroupBased});
  auto full = run_with_single_failure(preset, wf, cc, reqs,
                                      sim::from_seconds(12), 3,
                                      /*job_pause=*/false);
  auto pause = run_with_single_failure(preset, wf, cc, reqs,
                                       sim::from_seconds(12), 3,
                                       /*job_pause=*/true);
  EXPECT_TRUE(full.used_checkpoint);
  EXPECT_TRUE(pause.used_checkpoint);
  EXPECT_EQ(pause.final_hashes, full.final_hashes);
  EXPECT_EQ(pause.final_iterations, full.final_iterations);
}

TEST(JobPause, ReloadsOnlyTheFailedRanksImage) {
  auto preset = small_cluster(8);
  auto wf = factory(150);
  ckpt::CkptConfig cc;
  cc.group_size = 4;
  std::vector<CkptRequest> reqs;
  reqs.push_back(
      CkptRequest{sim::from_seconds(4), ckpt::Protocol::kGroupBased});
  auto full = run_with_single_failure(preset, wf, cc, reqs,
                                      sim::from_seconds(12), 3, false);
  auto pause = run_with_single_failure(preset, wf, cc, reqs,
                                       sim::from_seconds(12), 3, true);
  // Full restart: 8 ranks contend for the storage to read 96MB each.
  // Job pause: one rank reads alone at the full per-client bandwidth.
  EXPECT_GT(full.restart_read_seconds, 4.0);
  EXPECT_LT(pause.restart_read_seconds, 1.5);
  EXPECT_LT(pause.total_seconds, full.total_seconds);
}

TEST(JobPause, ColdCaseDegradesToFullRestart) {
  auto preset = small_cluster(4);
  auto wf = factory(60);
  ckpt::CkptConfig cc;
  auto pause = run_with_single_failure(preset, wf, cc, {},
                                       sim::from_seconds(2), 1, true);
  EXPECT_FALSE(pause.used_checkpoint);
  auto clean = run_experiment(preset, wf, cc);
  EXPECT_EQ(pause.final_hashes, clean.final_hashes);
}

TEST(JobPause, IncrementalRestoreReadsTheWholeChain) {
  // Tier-less incremental run, two checkpoints, both complete before the
  // fault: the failed rank's newest image is only an increment, so its
  // reload must read the chain back to the first (full) image — more than
  // the one full image the non-incremental run reloads.
  auto preset = small_cluster(8);
  auto wf = factory(250);
  ckpt::CkptConfig cc;
  cc.group_size = 4;
  std::vector<CkptRequest> reqs;
  reqs.push_back(
      CkptRequest{sim::from_seconds(3), ckpt::Protocol::kGroupBased});
  reqs.push_back(
      CkptRequest{sim::from_seconds(7), ckpt::Protocol::kGroupBased});
  const sim::Time fault = sim::from_seconds(18);
  ckpt::CkptConfig inc = cc;
  inc.incremental = true;
  const RunResult clean = run_experiment(preset, wf, cc);
  const RunResult full_run = run_experiment(preset, wf, cc, reqs);
  const RunResult inc_run = run_experiment(preset, wf, inc, reqs);
  ASSERT_EQ(full_run.checkpoints.size(), 2u);
  ASSERT_EQ(inc_run.checkpoints.size(), 2u);
  ASSERT_LT(full_run.checkpoints[1].completed_at, fault);
  ASSERT_LT(inc_run.checkpoints[1].completed_at, fault);
  ASSERT_LT(inc_run.checkpoints[1].snapshots[3].image_bytes,
            inc_run.checkpoints[0].snapshots[3].image_bytes);

  auto full_pause = run_with_single_failure(preset, wf, cc, reqs, fault, 3,
                                            /*job_pause=*/true);
  auto inc_pause = run_with_single_failure(preset, wf, inc, reqs, fault, 3,
                                           /*job_pause=*/true);
  auto inc_full = run_with_single_failure(preset, wf, inc, reqs, fault, 3,
                                          /*job_pause=*/false);
  EXPECT_TRUE(inc_pause.used_checkpoint);
  EXPECT_EQ(inc_pause.rollback_iteration, full_pause.rollback_iteration);
  EXPECT_GT(inc_pause.restart_read_seconds, full_pause.restart_read_seconds);
  EXPECT_EQ(inc_pause.final_hashes, clean.final_hashes);
  EXPECT_EQ(inc_full.final_hashes, clean.final_hashes);
}

}  // namespace
}  // namespace gbc::harness
