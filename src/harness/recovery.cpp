#include "harness/recovery.hpp"

#include <algorithm>
#include <optional>

#include "harness/sim_cluster.hpp"
#include "sim/join.hpp"
#include "storage/tiers.hpp"

namespace gbc::harness {

namespace {

using storage::ImageCatalog;
using storage::RestoreSource;

/// Rolls every rank of `gc` back to the common committed iteration.
std::uint64_t common_rollback(const ClusterPreset& preset,
                              const ckpt::GlobalCheckpoint& gc,
                              std::vector<workloads::WorkloadState>* resume) {
  std::uint64_t common = UINT64_MAX;
  for (int r = 0; r < preset.nranks; ++r) {
    common = std::min(common, workloads::Workload::committed_iterations(
                                  gc.snapshots[r].app_state));
  }
  for (int r = 0; r < preset.nranks; ++r) {
    (*resume)[r] = workloads::Workload::state_for_iteration(
        gc.snapshots[r].app_state, common);
  }
  return common;
}

/// One recovery decision: how the next attempt starts.
struct Selection {
  std::vector<RestoreSource> plan;
  std::vector<workloads::WorkloadState> resume;
  bool used_checkpoint = false;
  std::uint64_t rollback_iteration = 0;
  int checkpoints_skipped = 0;
  int restored_local = 0;
  int restored_replica = 0;
  int restored_erasure = 0;
  int restored_pfs = 0;
};

void count_source(const RestoreSource& src, Selection* sel) {
  switch (src.kind) {
    case RestoreSource::kLocal: ++sel->restored_local; break;
    case RestoreSource::kReplica: ++sel->restored_replica; break;
    case RestoreSource::kErasure: ++sel->restored_erasure; break;
    case RestoreSource::kPfs: ++sel->restored_pfs; break;
    case RestoreSource::kNone: break;
  }
}

/// Full-restart recovery: every rank reloads. Walks the completed
/// checkpoints newest-first until one is restorable for every rank; with no
/// usable checkpoint the job restarts cold (empty images, fresh state).
Selection select_full_restart(
    const ClusterPreset& preset,
    const std::vector<ckpt::GlobalCheckpoint>& completed,
    const ImageCatalog& catalog, const std::vector<char>& failed) {
  Selection sel;
  sel.resume.assign(preset.nranks, {});
  sel.plan.assign(preset.nranks, RestoreSource{RestoreSource::kPfs, 0});
  // The dead nodes' local images died with them: walk checkpoints
  // newest-first until one is restorable for every rank.
  for (int i = static_cast<int>(completed.size()) - 1; i >= 0; --i) {
    const ckpt::GlobalCheckpoint& gc = completed[i];
    std::vector<RestoreSource> candidate(preset.nranks);
    bool ok = true;
    for (int r = 0; r < preset.nranks && ok; ++r) {
      auto src = catalog.restore_source(gc.snapshots[r].image_id, failed);
      if (!src) {
        ok = false;
      } else {
        candidate[r] = std::move(*src);
      }
    }
    if (!ok) {
      ++sel.checkpoints_skipped;
      continue;
    }
    sel.used_checkpoint = true;
    sel.rollback_iteration = common_rollback(preset, gc, &sel.resume);
    sel.plan = std::move(candidate);
    for (int r = 0; r < preset.nranks; ++r) count_source(sel.plan[r], &sel);
    break;
  }
  return sel;
}

/// Job-pause recovery: only the failed rank's image is reloaded; healthy
/// ranks roll back from their resident memory. Picks the newest checkpoint
/// whose failed-rank image survives. used_checkpoint stays false when none
/// does — the caller then degrades to the full restart.
Selection select_job_pause(const ClusterPreset& preset,
                           const std::vector<ckpt::GlobalCheckpoint>& completed,
                           const ImageCatalog& catalog,
                           const std::vector<char>& failed, int failed_rank) {
  Selection sel;
  sel.resume.assign(preset.nranks, {});
  sel.plan.assign(preset.nranks, RestoreSource{RestoreSource::kPfs, 0});
  for (int i = static_cast<int>(completed.size()) - 1; i >= 0; --i) {
    const ckpt::GlobalCheckpoint& gc = completed[i];
    auto src =
        catalog.restore_source(gc.snapshots[failed_rank].image_id, failed);
    if (!src) {
      ++sel.checkpoints_skipped;
      continue;
    }
    sel.used_checkpoint = true;
    sel.rollback_iteration = common_rollback(preset, gc, &sel.resume);
    count_source(*src, &sel);
    sel.plan[failed_rank] = std::move(*src);
    break;
  }
  return sel;
}

struct RestartCtx {
  sim::LpBus* bus;
  storage::StorageSystem* fs;
  net::Fabric* fabric;
  const storage::TierConfig* tier;
  workloads::Workload* wl;
};

/// One chunk fetch of a degraded read, bussed to the *holder's* LP: the
/// staging lanes are partitioned per source node (fabric.hpp StagingLane),
/// so the transfer serializes on the holder's shard against that node's
/// replica/erasure traffic — same arbitration point at any shard count.
sim::Task<void> fetch_chunk(sim::LpBus* bus, net::Fabric* fab, int from,
                            int world, storage::Bytes bytes) {
  co_await bus->call(world, from, [fab, from, world, bytes] {
    return fab->bulk_transfer(from, world, bytes);
  });
}

sim::Task<void> restart_rank(RestartCtx* ctx, mpi::RankCtx* rank,
                             RestoreSource src, workloads::WorkloadState from,
                             sim::Time* done, double* read_seconds) {
  // Restart: reload the process image from wherever it durably lives, then
  // resume the application. PFS reads contend through the shared storage;
  // local-tier reads run at the node's dedicated bandwidth; replica reads
  // add the partner's disk plus a real fabric transfer. kNone (a fresh
  // first attempt) skips the reload entirely.
  //
  // Runs on the rank's home engine. The PFS queue is service-LP state and
  // each staging lane belongs to its holder node's LP, so those legs go
  // through the bus as RPCs to their owners; `done` and `read_seconds` are
  // this rank's private slots, folded by the caller after the run.
  const int world = rank->world_rank();
  sim::LpBus& bus = *ctx->bus;
  const sim::Time t0 = rank->engine().now();
  switch (src.kind) {
    case RestoreSource::kPfs: {
      storage::StorageSystem* fs = ctx->fs;
      const storage::Bytes b = src.bytes;
      co_await bus.call(world, bus.svc_lp(), [fs, b] { return fs->read(b); });
      break;
    }
    case RestoreSource::kLocal:
      co_await rank->engine().delay(
          storage::transfer_time(src.bytes, ctx->tier->local_read_mbps));
      break;
    case RestoreSource::kReplica: {
      co_await rank->engine().delay(
          storage::transfer_time(src.bytes, ctx->tier->local_read_mbps));
      // The partner's staging lane is the partner's shard state: route the
      // transfer to the holder, not the service LP.
      co_await fetch_chunk(&bus, ctx->fabric, src.from_node, world,
                           src.bytes);
      break;
    }
    case RestoreSource::kErasure: {
      // Degraded read: pull the k chunks from their holders in parallel
      // (distinct source nodes, so their staging lanes genuinely overlap),
      // then pay the matrix-inversion + reconstruction compute.
      sim::JoinSet fetch(rank->engine());
      for (int from : src.from_nodes) {
        fetch.launch(
            fetch_chunk(&bus, ctx->fabric, from, world, src.chunk_bytes));
      }
      co_await fetch.join();
      co_await rank->engine().delay(storage::ErasureTier::decode_time(
          ctx->tier->erasure, src.bytes, src.data_erasures));
      break;
    }
    case RestoreSource::kNone:
      break;
  }
  *read_seconds = sim::to_seconds(rank->engine().now() - t0);
  co_await ctx->wl->run_rank(*rank, from);
  *done = rank->engine().now();
}

/// What the replay loop learns from one attempt.
struct AttemptResult {
  std::vector<ckpt::GlobalCheckpoint> completed;  ///< up to the cutoff
  ImageCatalog catalog;            ///< image catalog at the cutoff
  double read_seconds = 0;         ///< slowest rank's image reload
  sim::Time done = 0;              ///< completion time (uncut attempts)
  std::vector<std::uint64_t> final_iterations;
  std::vector<std::uint64_t> final_hashes;
};

/// Runs one attempt: wire a fresh cluster, start every rank per the restore
/// plan, run until `cutoff` (or to completion when cutoff < 0 — no fault
/// interrupts this attempt). A cut-off attempt is aborted afterwards: the
/// failure unwinds every process.
AttemptResult run_attempt(const ClusterPreset& preset,
                          const WorkloadFactory& make,
                          const ckpt::CkptConfig& ckpt_cfg,
                          const std::vector<CkptRequest>& requests,
                          const std::vector<RestoreSource>& plan,
                          const std::vector<workloads::WorkloadState>& resume,
                          bool attach_tier, sim::Time cutoff) {
  AttemptResult out;
  SimCluster cluster(preset, ckpt_cfg, {.attach_tier = attach_tier});
  auto wl = make(preset.nranks);
  wl->setup(cluster.mpi());
  wl->attach(cluster.checkpoints());
  for (const auto& req : requests) {
    cluster.checkpoints().request_at(req.at, req.protocol);
  }
  std::vector<sim::Time> done_at(preset.nranks, 0);
  std::vector<double> read_at(preset.nranks, 0);
  RestartCtx ctx{&cluster.bus(), &cluster.shared_fs(), &cluster.fabric(),
                 &preset.tier, wl.get()};
  cluster.spawn_ranks([&](mpi::RankCtx& rank) {
    const int r = rank.world_rank();
    return restart_rank(&ctx, &rank, plan[r], resume[r], &done_at[r],
                        &read_at[r]);
  });
  if (cutoff >= 0) {
    cluster.run_until(cutoff);
  } else {
    cluster.run();
  }
  for (const auto& gc : cluster.checkpoints().history()) {
    if (gc.completed_at >= 0 && (cutoff < 0 || gc.completed_at <= cutoff)) {
      out.completed.push_back(gc);
    }
  }
  // Only the original attempt writes images; restarts take no checkpoints.
  if (!requests.empty()) out.catalog = cluster.tier()->catalog();
  out.read_seconds = *std::max_element(read_at.begin(), read_at.end());
  out.done = *std::max_element(done_at.begin(), done_at.end());
  for (int r = 0; r < preset.nranks; ++r) {
    out.final_iterations.push_back(wl->state(r).iteration);
    out.final_hashes.push_back(wl->state(r).hash);
  }
  if (cutoff >= 0) cluster.abort();
  return out;
}

}  // namespace

RecoveryResult run_with_faults(const ClusterPreset& preset,
                               const WorkloadFactory& make,
                               const ckpt::CkptConfig& ckpt_cfg,
                               const std::vector<CkptRequest>& requests,
                               const FaultPlan& plan) {
  RecoveryResult out;
  out.failures = static_cast<int>(plan.faults.size());
  if (!plan.faults.empty()) out.failure_at = plan.faults.front().at;

  std::vector<char> failed(preset.nranks, 0);
  const std::vector<CkptRequest> no_requests;
  // Attempt 0 starts fresh: nothing to reload, default workload state, and
  // it is the only attempt that takes checkpoints.
  std::vector<RestoreSource> restore(
      preset.nranks, RestoreSource{RestoreSource::kNone, 0});
  std::vector<workloads::WorkloadState> resume(preset.nranks);
  // The original run's recovery inputs, reused by every later fault.
  std::vector<ckpt::GlobalCheckpoint> completed;
  ImageCatalog catalog;
  double elapsed_seconds = 0;

  for (std::size_t k = 0;; ++k) {
    const bool first = k == 0;
    const FaultEvent* fault =
        k < plan.faults.size() ? &plan.faults[k] : nullptr;
    AttemptResult attempt =
        run_attempt(preset, make, ckpt_cfg, first ? requests : no_requests,
                    restore, resume, /*attach_tier=*/first,
                    fault ? fault->at : sim::Time{-1});

    if (!fault) {
      // Final attempt: ran to completion.
      out.restart_read_seconds = attempt.read_seconds;
      out.rerun_seconds = sim::to_seconds(attempt.done);
      out.total_seconds = elapsed_seconds + out.rerun_seconds;
      out.final_iterations = std::move(attempt.final_iterations);
      out.final_hashes = std::move(attempt.final_hashes);
      return out;
    }

    if (first) {
      completed = std::move(attempt.completed);
      catalog = std::move(attempt.catalog);
    }
    elapsed_seconds += sim::to_seconds(fault->at);
    failed[fault->rank] = 1;
    for (int r : fault->also_ranks) {
      if (r >= 0 && r < preset.nranks) failed[r] = 1;
    }

    Selection sel;
    if (plan.style == RecoveryStyle::kJobPause) {
      sel = select_job_pause(preset, completed, catalog, failed, fault->rank);
      if (!sel.used_checkpoint) {
        // Nothing to pause around (no checkpoint whose failed-rank image
        // survives): degrade to the full restart, dropping the pause
        // bookkeeping — exactly the classic fallback.
        sel = select_full_restart(preset, completed, catalog, failed);
      }
    } else {
      sel = select_full_restart(preset, completed, catalog, failed);
    }
    restore = std::move(sel.plan);
    resume = std::move(sel.resume);
    out.used_checkpoint = out.used_checkpoint || sel.used_checkpoint;
    out.rollback_iteration = sel.rollback_iteration;
    out.checkpoints_skipped += sel.checkpoints_skipped;
    out.ranks_restored_local += sel.restored_local;
    out.ranks_restored_replica += sel.restored_replica;
    out.ranks_restored_erasure += sel.restored_erasure;
    out.ranks_restored_pfs += sel.restored_pfs;
  }
}

RecoveryResult run_with_failure(const ClusterPreset& preset,
                                const WorkloadFactory& make,
                                const ckpt::CkptConfig& ckpt_cfg,
                                const std::vector<CkptRequest>& requests,
                                sim::Time failure_at, int failed_rank) {
  FaultPlan plan;
  plan.faults.push_back(FaultEvent{failure_at, failed_rank});
  return run_with_faults(preset, make, ckpt_cfg, requests, plan);
}

RecoveryResult run_with_single_failure(const ClusterPreset& preset,
                                       const WorkloadFactory& make,
                                       const ckpt::CkptConfig& ckpt_cfg,
                                       const std::vector<CkptRequest>& requests,
                                       sim::Time failure_at, int failed_rank,
                                       bool job_pause) {
  FaultPlan plan;
  plan.faults.push_back(FaultEvent{failure_at, failed_rank});
  plan.style =
      job_pause ? RecoveryStyle::kJobPause : RecoveryStyle::kFullRestart;
  return run_with_faults(preset, make, ckpt_cfg, requests, plan);
}

}  // namespace gbc::harness
