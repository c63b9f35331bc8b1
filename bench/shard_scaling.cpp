// Shard-scaling benchmark: one fixed full-stack configuration (the `gbcsim
// run` stack: MiniMPI + Fabric + two group-based checkpoints) run at 1, 2,
// 4 and 8 shards. Each row reports host events/s, the engine's windows,
// rounds, cross-shard events and window balance, the per-shard event split
// with shard 0's share, and the root service LP's share of bus deliveries —
// the number the per-rank LP partition (DESIGN.md §13) drives down to the
// service traffic. On a many-core host the wall time drops with shards; on
// a constrained box (where the thread budget degrades every run to one
// worker) the balance statistics still show whether the partition would
// parallelize. State hashes are printed so a scaling run doubles as a
// determinism check: every row must agree.
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "bench_util.hpp"
#include "harness/cli.hpp"
#include "harness/sim_cluster.hpp"
#include "net/topology.hpp"
#include "workloads/microbench.hpp"

namespace {

using namespace gbc;

// One full-stack run at a given shard count. Mirrors harness::run_experiment
// but keeps the cluster in scope so the engine and bus counters survive the
// run.
struct Row {
  int threads_used = 1;
  double wall = 0;
  sim::Time completion = 0;
  std::uint64_t events = 0;
  std::uint64_t windows = 0;
  std::uint64_t rounds = 0;
  std::uint64_t cross_events = 0;
  double window_balance = 1.0;
  std::vector<std::uint64_t> shard_events;
  double shard0_share = 0;
  // Per-LP delivery split from the bus (rank LPs 0..n-1, then the root
  // service LP): the decomposition metric. service_shard0_share is the
  // root LP's fraction of all bus deliveries — what remains of the old
  // monolithic service LP after coordinators and storage servers moved out.
  std::vector<std::uint64_t> lp_delivered;
  double service_shard0_share = 0;
  std::uint64_t hash = 0;
};

Row run_at(int nranks, const net::TopologySpec& topo, int shards,
           std::uint64_t iterations) {
  harness::ClusterPreset p = harness::icpp07_cluster();
  p.nranks = nranks;
  p.shards = shards;
  p.threads = 0;  // lease from the shared budget
  p.net.topology = topo;

  ckpt::CkptConfig cc;
  cc.group_size = std::max(1, nranks / 4);

  workloads::CommGroupBenchConfig wcfg;
  wcfg.comm_group_size = std::max(2, nranks / 4);
  wcfg.compute_per_iter = 50 * sim::kMillisecond;
  wcfg.iterations = iterations;
  wcfg.footprint_mib = 64.0;

  const auto start = std::chrono::steady_clock::now();
  harness::SimCluster cluster(p, cc);
  auto wl = std::make_unique<workloads::CommGroupBench>(nranks, wcfg);
  wl->setup(cluster.mpi());
  wl->attach(cluster.checkpoints());
  // Two checkpoint cycles landing mid-run, whatever the iteration count, so
  // the service LP carries realistic coordination + storage traffic.
  const sim::Time span =
      static_cast<sim::Time>(iterations) * wcfg.compute_per_iter;
  cluster.checkpoints().request_at(span / 3, ckpt::Protocol::kGroupBased);
  cluster.checkpoints().request_at(2 * span / 3, ckpt::Protocol::kGroupBased);

  std::vector<sim::Time> done(nranks, 0);
  cluster.spawn_ranks([&](mpi::RankCtx& rank) {
    return [](workloads::Workload* w, mpi::RankCtx* rk,
              sim::Time* slot) -> sim::Task<void> {
      co_await w->run_rank(*rk, {});
      *slot = rk->engine().now();
    }(wl.get(), &rank, &done[rank.world_rank()]);
  });
  cluster.run();

  Row row;
  row.wall = std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                           start)
                 .count();
  const sim::ShardedEngine& se = cluster.sharded();
  row.threads_used = se.threads();
  row.completion = *std::max_element(done.begin(), done.end());
  row.events = se.total_events();
  row.windows = se.windows();
  row.rounds = se.rounds();
  row.cross_events = se.cross_events();
  row.window_balance = se.window_balance();
  for (int s = 0; s < shards; ++s) {
    row.shard_events.push_back(se.stats(s).events);
  }
  row.shard0_share =
      row.events > 0
          ? static_cast<double>(row.shard_events[0]) / row.events
          : 0.0;
  const sim::LpBus& bus = cluster.bus();
  std::uint64_t delivered_total = 0;
  for (int lp = 0; lp <= nranks; ++lp) {
    row.lp_delivered.push_back(bus.delivered(lp));
    delivered_total += bus.delivered(lp);
  }
  row.service_shard0_share =
      delivered_total > 0
          ? static_cast<double>(row.lp_delivered.back()) / delivered_total
          : 0.0;
  // Fold completion + per-rank state into one comparable digest.
  std::uint64_t h = static_cast<std::uint64_t>(row.completion);
  for (int r = 0; r < nranks; ++r) {
    h = h * 1000003 + wl->state(r).hash;
  }
  row.hash = h;
  return row;
}

void append_record(int ranks, const std::string& topo, int shards,
                   const Row& r) {
  const char* json = std::getenv("GBC_BENCH_JSON");
  if (!json || !*json) return;
  std::FILE* f = std::fopen(json, "a");
  if (!f) return;
  const char* sha = std::getenv("GBC_GIT_SHA");
  const double ev = static_cast<double>(r.events);
  std::fprintf(f,
               "{\"sweep\":\"shard_scaling/%d\",\"git_sha\":\"%s\","
               "\"mode\":\"fullstack\",\"topology\":\"%s\",\"ranks\":%d,"
               "\"shards\":%d,\"threads\":%d,\"points\":1,"
               "\"wall_seconds\":%.6f,\"completion_seconds\":%.6f,"
               "\"events\":%llu,\"events_per_second\":%.0f,"
               "\"windows\":%llu,\"rounds\":%llu,\"windows_per_event\":%.6f,"
               "\"cross_events\":%llu,\"cross_ratio\":%.6f,"
               "\"window_balance\":%.4f,\"shard0_events\":%llu,"
               "\"shard0_share\":%.4f,\"service_shard0_share\":%.4f,"
               "\"state_hash\":\"%016llx\",\"shard_events\":[",
               shards, sha && *sha ? sha : "unknown", topo.c_str(), ranks,
               shards, r.threads_used, r.wall,
               sim::to_seconds(r.completion),
               static_cast<unsigned long long>(r.events),
               r.wall > 0 ? ev / r.wall : 0.0,
               static_cast<unsigned long long>(r.windows),
               static_cast<unsigned long long>(r.rounds),
               ev > 0 ? static_cast<double>(r.windows) / ev : 0.0,
               static_cast<unsigned long long>(r.cross_events),
               ev > 0 ? static_cast<double>(r.cross_events) / ev : 0.0,
               r.window_balance,
               static_cast<unsigned long long>(r.shard_events[0]),
               r.shard0_share, r.service_shard0_share,
               static_cast<unsigned long long>(r.hash));
  for (std::size_t s = 0; s < r.shard_events.size(); ++s) {
    std::fprintf(f, "%s%llu", s ? "," : "",
                 static_cast<unsigned long long>(r.shard_events[s]));
  }
  // The full per-LP delivery split (rank LPs 0..n-1, then the service LP):
  // which *logical process* the traffic lands on, independent of how LPs are
  // packed onto shards.
  std::fprintf(f, "],\"lp_delivered\":[");
  for (std::size_t lp = 0; lp < r.lp_delivered.size(); ++lp) {
    std::fprintf(f, "%s%llu", lp ? "," : "",
                 static_cast<unsigned long long>(r.lp_delivered[lp]));
  }
  std::fprintf(f, "]}\n");
  std::fclose(f);
}

}  // namespace

int main(int argc, char** argv) {
  harness::FlagSet flags("shard_scaling");
  flags.add_int("ranks", 1024, "simulated MPI processes");
  flags.add_int("iterations", 240, "compute iterations per rank");
  flags.add_string("topology", "fat-tree:32", "flat | fat-tree:<radix>");
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
  const int ranks = flags.get_int("ranks");
  const int iterations = flags.get_int("iterations");
  if (ranks < 2 || iterations < 1) {
    std::fprintf(stderr, "--ranks must be >= 2 and --iterations >= 1\n");
    return 2;
  }
  const std::string topo_name = net::topology_to_string(*topo);

  bench::banner("shard scaling, full protocol stack (events/s vs DES shards)",
                "per-rank LP sharding, DESIGN.md 13");
  std::printf("%d ranks on %s, %d iterations\n\n", ranks, topo_name.c_str(),
              iterations);

  harness::Table t({"shards", "threads", "wall_s", "events", "Mev_per_s",
                    "windows", "rounds", "cross", "balance", "shard0_share",
                    "svc_share", "state_hash"});
  std::FILE* csv = std::fopen(bench::csv_path("shard_scaling").c_str(), "w");
  if (csv) {
    std::fprintf(csv,
                 "shards,threads,wall_seconds,completion_seconds,events,"
                 "events_per_second,windows,rounds,cross_events,"
                 "window_balance,shard0_events,shard0_share,"
                 "service_shard0_share,state_hash\n");
  }
  std::uint64_t first_hash = 0;
  bool hashes_agree = true;
  for (int shards : {1, 2, 4, 8}) {
    if (shards > ranks) continue;
    const Row r = run_at(ranks, *topo, shards,
                         static_cast<std::uint64_t>(iterations));
    if (shards == 1) first_hash = r.hash;
    hashes_agree = hashes_agree && r.hash == first_hash;
    char hash[32];
    std::snprintf(hash, sizeof hash, "%016llx",
                  static_cast<unsigned long long>(r.hash));
    const double eps = r.wall > 0 ? static_cast<double>(r.events) / r.wall : 0;
    t.add_row({std::to_string(shards), std::to_string(r.threads_used),
               harness::Table::num(r.wall), std::to_string(r.events),
               harness::Table::num(eps / 1e6), std::to_string(r.windows),
               std::to_string(r.rounds), std::to_string(r.cross_events),
               harness::Table::num(r.window_balance),
               harness::Table::num(r.shard0_share),
               harness::Table::num(r.service_shard0_share), hash});
    if (csv) {
      std::fprintf(csv,
                   "%d,%d,%.6f,%.6f,%llu,%.0f,%llu,%llu,%llu,%.4f,%llu,%.4f,"
                   "%.4f,%016llx\n",
                   shards, r.threads_used, r.wall,
                   sim::to_seconds(r.completion),
                   static_cast<unsigned long long>(r.events), eps,
                   static_cast<unsigned long long>(r.windows),
                   static_cast<unsigned long long>(r.rounds),
                   static_cast<unsigned long long>(r.cross_events),
                   r.window_balance,
                   static_cast<unsigned long long>(r.shard_events[0]),
                   r.shard0_share, r.service_shard0_share,
                   static_cast<unsigned long long>(r.hash));
    }
    append_record(ranks, topo_name, shards, r);
  }
  if (csv) std::fclose(csv);
  t.print();
  std::printf("\nstate hashes %s across shard counts\n",
              hashes_agree ? "IDENTICAL" : "DIVERGED");
  return hashes_agree ? 0 : 1;
}
