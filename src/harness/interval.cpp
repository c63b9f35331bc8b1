#include "harness/interval.hpp"

#include <algorithm>
#include <cmath>

#include "harness/sim_cluster.hpp"
#include "sim/random.hpp"

namespace gbc::harness {

double young_interval_seconds(double ckpt_cost_seconds, double mtbf_seconds) {
  return std::sqrt(2.0 * ckpt_cost_seconds * mtbf_seconds);
}

namespace {

sim::Task<void> tracked_rank(workloads::Workload* wl, mpi::RankCtx* rank,
                             sim::LpBus* bus, storage::StorageSystem* fs,
                             storage::Bytes image, workloads::WorkloadState from,
                             sim::Time* done_at) {
  if (image > 0) {
    // Restart image reload: the PFS is service-LP state, so the read runs
    // there via an RPC over the bus (same discipline as recovery.cpp).
    co_await bus->call(rank->world_rank(), bus->svc_lp(),
                       [fs, image] { return fs->read(image); });
  }
  co_await wl->run_rank(*rank, from);
  *done_at = rank->engine().now();
}

}  // namespace

MtbfRunResult run_with_poisson_failures(const ClusterPreset& preset,
                                        const WorkloadFactory& make,
                                        const ckpt::CkptConfig& ckpt_cfg,
                                        ckpt::Protocol protocol,
                                        sim::Time ckpt_interval,
                                        const FailureModel& failures,
                                        int max_failures) {
  MtbfRunResult out;
  sim::Rng rng(failures.seed);

  // State carried across attempts: each rank's resume point and the bytes
  // its restart reads (the catalog's restore volume, chain included).
  std::vector<workloads::WorkloadState> resume(preset.nranks);
  std::vector<storage::Bytes> images(preset.nranks, 0);

  while (true) {
    // The MTBF loop never attaches a tier: each attempt is a fresh job whose
    // restart images live on the PFS.
    SimCluster cluster(preset, ckpt_cfg, {.attach_tier = false});
    ckpt::CheckpointService& svc = cluster.checkpoints();
    auto wl = make(preset.nranks);
    wl->setup(cluster.mpi());
    wl->attach(svc);
    svc.request_every(ckpt_interval, ckpt_interval, protocol);

    // Per-rank completion slots (each written from its own shard).
    std::vector<sim::Time> done_slots(preset.nranks, -1);
    cluster.spawn_ranks([&](mpi::RankCtx& rank) {
      const int r = rank.world_rank();
      return tracked_rank(wl.get(), &rank, &cluster.bus(),
                          &cluster.shared_fs(), images[r], resume[r],
                          &done_slots[r]);
    });

    const sim::Time fail_at = out.failures < max_failures
                                  ? sim::from_seconds(
                                        rng.exponential(failures.mtbf_seconds))
                                  : sim::Time{1} << 60;
    cluster.run_until(fail_at);

    out.events_processed += cluster.sharded().total_events();

    sim::Time done_at = 0;
    for (sim::Time t : done_slots) {
      done_at = t < 0 ? t : std::max(done_at, t);
      if (done_at < 0) break;
    }
    if (done_at >= 0 && done_at <= fail_at) {
      // Completed before the failure.
      for (const auto& gc : svc.history()) {
        if (gc.completed_at >= 0 && gc.completed_at <= done_at) {
          ++out.checkpoints_completed;
        }
      }
      out.total_seconds += sim::to_seconds(done_at);
      for (int r = 0; r < preset.nranks; ++r) {
        out.final_iterations.push_back(wl->state(r).iteration);
        out.final_hashes.push_back(wl->state(r).hash);
      }
      return out;
    }

    // Failure: account this attempt's wall time, roll back to the last
    // completed checkpoint (if any).
    ++out.failures;
    out.total_seconds += sim::to_seconds(fail_at);
    const ckpt::GlobalCheckpoint* last = nullptr;
    for (const auto& gc : svc.history()) {
      if (gc.completed_at >= 0 && gc.completed_at <= fail_at) {
        last = &gc;
        ++out.checkpoints_completed;
      }
    }
    std::uint64_t common = resume[0].iteration;
    if (last) {
      const storage::ImageCatalog& catalog = cluster.tier()->catalog();
      common = UINT64_MAX;
      for (int r = 0; r < preset.nranks; ++r) {
        common = std::min(common, workloads::Workload::committed_iterations(
                                      last->snapshots[r].app_state));
      }
      for (int r = 0; r < preset.nranks; ++r) {
        resume[r] = workloads::Workload::state_for_iteration(
            last->snapshots[r].app_state, common);
        images[r] = catalog.restore_bytes(last->snapshots[r].image_id);
      }
    }
    // else: no checkpoint completed during this attempt — the previous
    // checkpoint (already carried in resume/images) is still on stable
    // storage and remains the rollback point.
    // Work recomputed: everything past the rollback point was lost. Use the
    // minimum committed iteration across ranks as the progress marker.
    std::uint64_t reached = UINT64_MAX;
    for (int r = 0; r < preset.nranks; ++r) {
      reached = std::min(reached, wl->state(r).iteration);
    }
    if (reached != UINT64_MAX && reached > common) {
      out.lost_work_iterations += reached - common;
    }
    cluster.abort();
  }
}

}  // namespace gbc::harness
