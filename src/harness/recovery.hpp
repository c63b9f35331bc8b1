#pragma once

#include "harness/experiment.hpp"

namespace gbc::harness {

/// One injected node failure. `at` is measured on the clock of the attempt
/// it interrupts: the first fault fires at `at` into the original run, the
/// second fires at `at` into the restarted run, and so on.
struct FaultEvent {
  sim::Time at = 0;
  int rank = 0;  ///< node that dies (its local-tier images die with it)
  /// Further nodes that die at the same instant (correlated failure, e.g. a
  /// shared PSU or switch): they join the dead set before recovery is
  /// chosen, so one event can erase up to m chunks of a parity group.
  std::vector<int> also_ranks;

  FaultEvent() = default;
  FaultEvent(sim::Time at_, int rank_, std::vector<int> also = {})
      : at(at_), rank(rank_), also_ranks(std::move(also)) {}
};

/// How each failure is recovered from.
enum class RecoveryStyle : std::uint8_t {
  /// The whole job dies (the paper's model): every rank reloads its image
  /// from wherever it durably lives and re-executes.
  kFullRestart,
  /// Job pause (Wang et al., IPDPS'07): healthy ranks pause in place and
  /// roll back from memory; only the failed rank reloads its image.
  kJobPause,
};

/// A replayable schedule of failures for one run.
struct FaultPlan {
  std::vector<FaultEvent> faults;  ///< in firing order, one per attempt
  RecoveryStyle style = RecoveryStyle::kFullRestart;
};

/// Outcome of a failure + restart experiment.
struct RecoveryResult {
  bool used_checkpoint = false;  ///< false: no completed ckpt, restarted cold
  int failures = 0;              ///< faults injected (FaultPlan size)
  sim::Time failure_at = 0;      ///< first fault's time
  double restart_read_seconds = 0;   ///< image reloads of the final restart
  double rerun_seconds = 0;          ///< re-execution after the last restart
  double total_seconds = 0;          ///< Σ fault times + restart + rerun
  std::uint64_t rollback_iteration = 0;  ///< of the last recovery
  std::vector<std::uint64_t> final_iterations;
  std::vector<std::uint64_t> final_hashes;

  // --- staging-tier restore provenance (all zero without a tier) ---
  /// Newer checkpoints that had to be passed over because the failed node's
  /// image was neither replicated nor drained to the PFS yet.
  int checkpoints_skipped = 0;
  int ranks_restored_local = 0;    ///< read back from the node-local tier
  int ranks_restored_replica = 0;  ///< fetched from the partner's replica
  int ranks_restored_erasure = 0;  ///< decoded from the erasure stripe
  int ranks_restored_pfs = 0;      ///< read from the shared PFS
};

/// The FaultPlan replay loop: runs the workload with the given checkpoint
/// requests, fires plan.faults[k] into attempt k (attempt 0 is the original
/// run; each later attempt is a restart), after each fault restores from
/// the most recent *recoverable* global checkpoint per plan.style, and
/// finally re-executes to completion. The set of dead nodes accumulates
/// across faults: once a node died, its local-tier images stay lost for
/// every later recovery, and restarted attempts take no new checkpoints —
/// so a second failure can force recovery onto an older (or no) checkpoint.
///
/// With one fault this is exactly the classic single-failure experiment;
/// run_with_failure / run_with_single_failure are thin wrappers over it.
RecoveryResult run_with_faults(const ClusterPreset& preset,
                               const WorkloadFactory& make,
                               const ckpt::CkptConfig& ckpt_cfg,
                               const std::vector<CkptRequest>& requests,
                               const FaultPlan& plan);

/// Runs the workload with the given checkpoint requests, injects a fatal
/// failure at `failure_at` (the whole job dies — the paper's model, where a
/// node crash forces a global rollback), restores from the most recent
/// *recoverable* global checkpoint, and re-executes to completion.
///
/// Restore semantics (DESIGN.md substitution): instead of reloading exact
/// BLCR process images, every rank rolls back to the highest iteration
/// committed by *all* snapshots ("coordinated rollback"), whose hash-chain
/// value is in the snapshot's resume blob. Restart still pays the real
/// costs: every rank reads its image back from wherever it durably lives,
/// then rebuilds connections lazily.
///
/// Every restore reads what the image catalog says it costs: an incremental
/// image reads its whole chain back to the last full image. Without a
/// staging tier every image is on the shared PFS and the latest completed
/// checkpoint is always recoverable. With `preset.tier` enabled
/// the crash also destroys `failed_rank`'s node-local storage, so a
/// checkpoint is recoverable only if the failed rank's image reached the
/// partner replica or the PFS drain finished; otherwise recovery falls back
/// to an older fully-durable checkpoint (possibly none — cold restart).
/// Healthy ranks restore from their surviving local images at local-tier
/// bandwidth (DESIGN.md §10).
RecoveryResult run_with_failure(const ClusterPreset& preset,
                                const WorkloadFactory& make,
                                const ckpt::CkptConfig& ckpt_cfg,
                                const std::vector<CkptRequest>& requests,
                                sim::Time failure_at, int failed_rank = 0);

/// Single-node failure with the *job pause* recovery style (Wang et al.,
/// IPDPS'07 — discussed in the paper's related work): healthy processes are
/// paused in place and roll back from memory; only `failed_rank` reloads its
/// image (onto a spare node) — from the partner replica or the PFS when a
/// staging tier is active, from the shared storage otherwise. Much cheaper
/// than a full-job restart, which re-reads every image through the same
/// bottleneck. With job_pause=false this degrades to the full restart for
/// comparison.
RecoveryResult run_with_single_failure(const ClusterPreset& preset,
                                       const WorkloadFactory& make,
                                       const ckpt::CkptConfig& ckpt_cfg,
                                       const std::vector<CkptRequest>& requests,
                                       sim::Time failure_at, int failed_rank,
                                       bool job_pause);

}  // namespace gbc::harness
