// Figure-3-shaped experiment pushed past the paper's 32 ranks: effective
// checkpoint delay vs checkpoint-group size at 1k/4k/16k ranks on a
// fat-tree, run on the full protocol stack (harness::SimCluster, sharded).
// Each rank-count point does one base (checkpoint-free) run plus one run
// per group size {All, n/4, n/16, n/64}; points run sequentially so the
// sharded engine gets the whole thread budget. The PFS grows with the job
// (one server per 64 ranks, at least 4, each adding 35 MB/s), and the
// per-rank footprint is scaled down from the paper's 180 MiB so a 16k-rank
// point stays a CI-sized job — the group-size *curve*, not the absolute
// seconds, is the object of study.
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "bench_util.hpp"
#include "harness/cli.hpp"
#include "harness/thread_budget.hpp"
#include "net/topology.hpp"

namespace {

using namespace gbc;

harness::ClusterPreset scale_cluster(int nranks, const net::TopologySpec& topo,
                                     int shards) {
  harness::ClusterPreset p = harness::icpp07_cluster();
  p.nranks = nranks;
  p.shards = std::min(shards, nranks);
  p.threads = 0;  // lease from the shared budget
  p.net.topology = topo;
  const int servers = std::max(4, nranks / 64);
  p.storage.num_servers = servers;
  p.storage.aggregate_cap_mbps = 35.0 * servers;
  p.storage.congestion_knee = servers;
  return p;
}

}  // namespace

int main(int argc, char** argv) {
  harness::FlagSet flags("scale_groupsize");
  flags.add_int("ranks", 0, "rank count; 0 sweeps 1024, 4096, 16384");
  flags.add_int("shards", 4, "DES shards");
  flags.add_string("topology", "fat-tree:32", "flat | fat-tree:<radix>");
  flags.add_int("iterations", 12, "compute iterations per rank");
  flags.add_double("footprint-mib", 16.0, "checkpoint image per rank (MiB)");
  flags.add_double("issuance", 0.4, "checkpoint issuance time (s)");
  if (!flags.parse(argc - 1, argv + 1)) {
    if (flags.help_requested()) {
      std::fputs(flags.usage().c_str(), stdout);
      return 0;
    }
    std::fprintf(stderr, "%s\n%s", flags.error().c_str(),
                 flags.usage().c_str());
    return 2;
  }
  const auto topo = net::parse_topology(flags.get_string("topology"));
  if (!topo) {
    std::fprintf(stderr, "invalid --topology '%s': expected flat or "
                 "fat-tree:<radix> with radix >= 2\n",
                 flags.get_string("topology").c_str());
    return 2;
  }
  if (flags.get_int("shards") < 1) {
    std::fprintf(stderr, "--shards must be >= 1\n");
    return 2;
  }

  std::vector<int> rank_points;
  if (flags.get_int("ranks") > 0) {
    rank_points.push_back(flags.get_int("ranks"));
  } else {
    rank_points = {1024, 4096, 16384};
  }

  workloads::CommGroupBenchConfig wcfg;
  wcfg.comm_group_size = 16;
  wcfg.compute_per_iter = 100 * sim::kMillisecond;
  wcfg.iterations = static_cast<std::uint64_t>(flags.get_int("iterations"));
  wcfg.footprint_mib = flags.get_double("footprint-mib");
  const harness::WorkloadFactory factory = [wcfg](int n) {
    return std::make_unique<workloads::CommGroupBench>(n, wcfg);
  };
  const std::vector<harness::CkptRequest> requests{
      {sim::from_seconds(flags.get_double("issuance")),
       ckpt::Protocol::kGroupBased}};

  bench::banner("group size at scale (1k-16k ranks, full stack, sharded)",
                "the group-size study of Fig. 3 beyond paper scale");

  harness::Table t({"ranks", "group", "base_s", "eff_delay_s", "indiv_s",
                    "total_s", "events"});
  std::FILE* csv = std::fopen(bench::csv_path("scale_groupsize").c_str(), "w");
  // The CSV carries only simulated results (no event counts, which depend
  // on the shard layout, and no host-side stats), so the shards-mode
  // determinism check can require it byte-identical between --shards 1
  // and --shards 4.
  if (csv) {
    std::fprintf(csv,
                 "ranks,ckpt_group,base_seconds,effective_delay_seconds,"
                 "individual_seconds,total_seconds\n");
  }

  const auto wall_start = std::chrono::steady_clock::now();
  std::uint64_t total_events = 0;
  std::size_t points = 0;
  harness::ClusterPreset preset;
  for (int nranks : rank_points) {
    preset = scale_cluster(nranks, *topo, flags.get_int("shards"));
    const auto base = harness::run_experiment(preset, factory, {});
    total_events += base.events_processed;
    ++points;
    for (int group : {0, nranks / 4, nranks / 16, nranks / 64}) {
      ckpt::CkptConfig cc;
      cc.group_size = group;
      const auto r = harness::run_experiment(preset, factory, cc, requests);
      total_events += r.events_processed;
      ++points;
      if (r.checkpoints.empty()) {
        std::fprintf(stderr, "no checkpoint completed at %d ranks, group %d\n",
                     nranks, group);
        return 1;
      }
      const auto& gc = r.checkpoints.front();
      const double delay = r.completion_seconds() - base.completion_seconds();
      const double indiv = sim::to_seconds(gc.max_individual_time());
      const double total = sim::to_seconds(gc.total_checkpoint_time());
      t.add_row({std::to_string(nranks), bench::group_label(nranks, group),
                 harness::Table::num(base.completion_seconds()),
                 harness::Table::num(delay), harness::Table::num(indiv),
                 harness::Table::num(total),
                 std::to_string(r.events_processed)});
      if (csv) {
        std::fprintf(csv, "%d,%d,%.6f,%.6f,%.6f,%.6f\n", nranks, group,
                     base.completion_seconds(), delay, indiv, total);
      }
    }
  }
  if (csv) std::fclose(csv);
  t.print();

  harness::SweepStats stats;
  // Points run one at a time, each leasing min(shards, budget) threads.
  stats.threads = std::min(preset.shards,
                           harness::ThreadBudget::shared().capacity());
  stats.wall_seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                    wall_start)
          .count();
  stats.points.resize(points);
  if (points) stats.points[0].events_processed = total_events;
  const std::string topo_name = net::topology_to_string(*topo);
  const std::string sweep_name =
      flags.get_int("ranks") > 0
          ? "scale_groupsize/" + std::to_string(flags.get_int("ranks")) + "/" +
                topo_name
          : "scale_groupsize/sweep/" + topo_name;
  bench::report_sweep(sweep_name, stats,
                      flags.get_int("ranks") > 0 ? &preset : nullptr);
  return 0;
}
