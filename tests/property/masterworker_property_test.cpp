// Property sweep for the master/worker task farm: MPI_ANY_SOURCE service
// loops under group-based checkpointing. The wildcard matching path and the
// master's hub position (connected to everyone, in the first checkpoint
// group) stress the deferral gate differently from the grid workloads.
#include <gtest/gtest.h>

#include <memory>

#include "ckpt/consistency.hpp"
#include "harness/recovery.hpp"
#include "harness/sim_cluster.hpp"
#include "sim/random.hpp"
#include "workloads/masterworker.hpp"

namespace gbc {
namespace {

workloads::MasterWorkerConfig mw_cfg(std::uint64_t seed) {
  workloads::MasterWorkerConfig c;
  c.rounds = 50;
  c.mean_chunk_seconds = 0.3;
  c.seed = seed;
  c.footprint_mib = 64.0;
  return c;
}

class MwSweep : public ::testing::TestWithParam<std::uint64_t> {};
INSTANTIATE_TEST_SUITE_P(Seeds, MwSweep,
                         ::testing::Values(41, 42, 43, 44, 45, 46));

TEST_P(MwSweep, RecoveryLineConsistentUnderCheckpointing) {
  const std::uint64_t seed = GetParam();
  harness::ClusterPreset preset;
  preset.nranks = 8;
  preset.mpi.record_messages = true;
  ckpt::CkptConfig cc;
  cc.group_size = static_cast<int>(1 + seed % 4);
  harness::SimCluster cluster(preset, cc);
  mpi::MiniMPI& mpi = cluster.mpi();
  ckpt::CheckpointService& svc = cluster.checkpoints();
  workloads::MasterWorkerSim wl(8, mw_cfg(seed));
  wl.attach(svc);
  sim::Rng rng(seed * 65537);
  svc.request_at(sim::from_seconds(1.0 + rng.uniform(0.0, 4.0)),
                 ckpt::Protocol::kGroupBased);
  cluster.spawn_ranks([&](mpi::RankCtx& r) { return wl.run_rank(r); });
  cluster.run();

  ASSERT_EQ(svc.history().size(), 1u);
  auto report =
      ckpt::check_recovery_line(mpi.message_records(), svc.history().front());
  EXPECT_GT(report.checked, 100);
  EXPECT_EQ(report.violations, 0)
      << "seed=" << seed << ": "
      << (report.details.empty() ? "" : report.details.front());
  for (int r = 0; r < 8; ++r) {
    EXPECT_EQ(wl.state(r).iteration, 50u) << "rank " << r;
  }
}

TEST_P(MwSweep, FailureRecoveryReproducesResult) {
  const std::uint64_t seed = GetParam();
  harness::ClusterPreset preset = harness::icpp07_cluster();
  preset.nranks = 8;
  auto cfg = mw_cfg(seed);
  harness::WorkloadFactory factory = [cfg](int n) {
    return std::make_unique<workloads::MasterWorkerSim>(n, cfg);
  };
  ckpt::CkptConfig cc;
  cc.group_size = 4;
  auto clean = harness::run_experiment(preset, factory, cc);
  std::vector<harness::CkptRequest> reqs;
  reqs.push_back(
      harness::CkptRequest{sim::from_seconds(3), ckpt::Protocol::kGroupBased});
  sim::Rng rng(seed);
  auto rec = harness::run_with_failure(
      preset, factory, cc, reqs,
      sim::from_seconds(clean.completion_seconds() *
                        (0.5 + rng.uniform(0.0, 0.4))));
  EXPECT_EQ(rec.final_hashes, clean.final_hashes) << "seed " << seed;
  EXPECT_EQ(rec.final_iterations, clean.final_iterations);
}

}  // namespace
}  // namespace gbc
