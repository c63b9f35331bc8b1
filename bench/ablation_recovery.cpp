// Extension experiment: recovery styles. Full-job restart re-reads every
// image through the shared-storage bottleneck; the job-pause style (Wang et
// al., IPDPS'07, discussed in the paper's related work) reloads only the
// failed rank's image onto a spare node while healthy ranks roll back in
// place. Incremental snapshots change the trade-off again: images are
// smaller to write but chain on restore (ImageCatalog::restore_bytes).
#include "bench_util.hpp"
#include "harness/recovery.hpp"

int main() {
  using namespace gbc;
  bench::banner("Recovery styles after a failure",
                "extension (related work [23] comparison)");
  const auto preset = harness::icpp07_cluster();
  auto factory = bench::comm_group_factory(4, 2400);  // ~4 min of work
  ckpt::CkptConfig cc;
  cc.group_size = 4;
  std::vector<harness::CkptRequest> reqs;
  reqs.push_back(
      harness::CkptRequest{sim::from_seconds(30), ckpt::Protocol::kGroupBased});
  const sim::Time failure = sim::from_seconds(120);

  harness::Table t({"recovery_style", "image_reads_s", "time_to_solution_s"});
  auto full = harness::run_with_single_failure(preset, factory, cc, reqs,
                                               failure, 5, false);
  auto pause = harness::run_with_single_failure(preset, factory, cc, reqs,
                                                failure, 5, true);
  t.add_row({"full restart (all 32 images)",
             harness::Table::num(full.restart_read_seconds),
             harness::Table::num(full.total_seconds, 1)});
  t.add_row({"job pause (1 image, rest in place)",
             harness::Table::num(pause.restart_read_seconds),
             harness::Table::num(pause.total_seconds, 1)});
  t.print();
  const bool same = full.final_hashes == pause.final_hashes;
  std::printf("\nresults identical: %s\n", same ? "YES" : "NO");

  // Incremental snapshots on a two-checkpoint schedule (the second request
  // queues behind the first cycle; both complete before the failure): the
  // second image is only the pages dirtied since the first, but a full
  // restart reads the whole chain back to the first (full) image.
  std::vector<harness::CkptRequest> two = reqs;
  two.push_back(
      harness::CkptRequest{sim::from_seconds(60), ckpt::Protocol::kGroupBased});
  auto full_images = harness::run_with_single_failure(preset, factory, cc, two,
                                                      failure, 5, false);
  ckpt::CkptConfig inc_cc = cc;
  inc_cc.incremental = true;
  inc_cc.dirty_rate_per_second = 0.005;  // slow dirtying: a real increment
  auto chained = harness::run_with_single_failure(preset, factory, inc_cc,
                                                  two, failure, 5, false);
  std::printf(
      "\nfull restart after two checkpoints: image_reads_s %s with full "
      "images, %s with incremental images (chain)\n",
      harness::Table::num(full_images.restart_read_seconds).c_str(),
      harness::Table::num(chained.restart_read_seconds).c_str());
  const bool chain_same = chained.final_hashes == full.final_hashes &&
                          full_images.final_hashes == full.final_hashes;
  std::printf(
      "\nExpected: job pause cuts the image-read phase from the full-job\n"
      "storage-bottleneck read down to a single client's read, with an\n"
      "identical recomputed result.\n");
  return same && chain_same ? 0 : 1;
}
