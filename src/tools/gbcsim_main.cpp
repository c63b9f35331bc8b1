// gbcsim — command-line driver for the group-based checkpointing simulator.
//
//   gbcsim run      one full-stack run, CSV row out (shardable, --shards)
//   gbcsim delay    measure the Effective Checkpoint Delay of one checkpoint
//   gbcsim sweep    delay vs. checkpoint group size (Fig. 3/5/7 style row)
//   gbcsim trace    ASCII Gantt of a checkpoint schedule (Fig. 2 style)
//   gbcsim recover  inject a failure and restart from the last checkpoint
//   gbcsim mtbf     time-to-solution under Poisson failures
//   gbcsim storage  the storage-bottleneck curve (Fig. 1 style)
//
// Every run is deterministic. `gbcsim <command> --help` lists the flags.
#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <memory>
#include <stdexcept>
#include <string>

#include "harness/cli.hpp"
#include "net/topology.hpp"
#include "sim/trace_chrome.hpp"
#include "harness/experiment.hpp"
#include "harness/sim_cluster.hpp"
#include "harness/gantt.hpp"
#include "harness/interval.hpp"
#include "harness/recovery.hpp"
#include "harness/table.hpp"
#include "workloads/hpl.hpp"
#include "workloads/microbench.hpp"
#include "workloads/motifminer.hpp"
#include "workloads/stencil.hpp"

namespace {

using namespace gbc;

void add_common_flags(harness::FlagSet& flags) {
  flags.add_string("workload", "microbench",
                   "microbench | barrier | hpl | motifminer | stencil");
  flags.add_int("ranks", 32, "number of MPI processes");
  flags.add_int("comm-group", 8, "communication group size (microbench)");
  flags.add_double("footprint-mib", 180.0, "per-process image size (microbench)");
  flags.add_int("group-size", 8, "checkpoint group size (0 = all at once)");
  flags.add_bool("dynamic", false, "dynamic group formation from traffic");
  flags.add_bool("incremental", false, "incremental (dirty-page) snapshots");
  flags.add_bool("no-helper", false, "disable the async-progress helper");
  flags.add_string("protocol", "group",
                   "group | blocking | chandy-lamport | uncoordinated");
  flags.add_int("stripe", 0, "storage stripe_count (0 = pooled model)");
  flags.add_bool("tier", false, "enable the node-local staging tier");
  flags.add_double("local-write-mbps", 400.0,
                   "local tier write bandwidth per node (MB/s)");
  flags.add_double("tier-capacity-mib", 0.0,
                   "local tier capacity per node (MiB, 0 = unbounded)");
  flags.add_double("drain-mbps", 50.0,
                   "background drain rate to the PFS (MB/s, 0 = never drain)");
  flags.add_bool("replicate", false, "copy each image to a partner node");
  flags.add_string("tier-erasure", "",
                   "erasure-code staged images as k,m data/parity chunks "
                   "scattered across a parity group (e.g. 4,2; implies "
                   "--tier; m=1 uses the XOR codec)");
}

// Parses/validates --tier-erasure k,m into the preset (empty = disabled).
// Prints an error + usage and returns false on a bad spec; callers exit 2.
bool apply_erasure_flag(const harness::FlagSet& flags,
                        harness::ClusterPreset* p) {
  const std::string spec = flags.get_string("tier-erasure");
  if (spec.empty()) return true;
  int k = 0, m = 0;
  char extra = 0;
  if (std::sscanf(spec.c_str(), "%d,%d%c", &k, &m, &extra) != 2) {
    std::fprintf(stderr, "--tier-erasure expects k,m (e.g. 4,2)\n%s",
                 flags.usage().c_str());
    return false;
  }
  std::string err;
  if (k < 1) {
    err = "--tier-erasure: k must be >= 1";
  } else if (m < 0) {
    err = "--tier-erasure: m must be >= 0";
  } else if (k + m > p->nranks) {
    err = "--tier-erasure: k+m must be <= --ranks";
  } else if (k + m > p->nranks - 1) {
    err = "--tier-erasure: the k+m chunks need k+m distinct nodes besides "
          "the writer (k+m <= ranks-1)";
  }
  if (!err.empty()) {
    std::fprintf(stderr, "%s\n%s", err.c_str(), flags.usage().c_str());
    return false;
  }
  p->tier.enabled = true;  // the stripe lives on top of the staging tier
  p->tier.erasure.enabled = true;
  p->tier.erasure.k = k;
  p->tier.erasure.m = m;
  p->tier.erasure.codec =
      m == 1 ? storage::ErasureCodec::kXor : storage::ErasureCodec::kRs;
  return true;
}

// The scaling flag group of `run`: --shards/--threads/--topology.
void add_shard_flags(harness::FlagSet& flags) {
  flags.add_int("shards", 1,
                "DES shards advancing in conservative-lookahead windows");
  flags.add_int("threads", 0,
                "worker threads for the shards (0 = lease from the shared "
                "thread budget)");
  flags.add_string("topology", "flat", "flat | fat-tree:<radix>");
}

// Validates the scaling flags against the rank count and applies them to
// the preset. Returns false after printing a usage message; callers exit 2.
bool apply_shard_flags(const harness::FlagSet& flags,
                       harness::ClusterPreset* p) {
  const int ranks = p->nranks;
  const int shards = flags.get_int("shards");
  const int threads = flags.get_int("threads");
  if (ranks < 1) {
    std::fprintf(stderr, "--ranks must be >= 1\n%s", flags.usage().c_str());
    return false;
  }
  if (shards < 1 || shards > ranks) {
    std::fprintf(stderr, "--shards must be in [1, --ranks]\n%s",
                 flags.usage().c_str());
    return false;
  }
  // Workers beyond the shard count are clamped by the engine itself
  // (ShardedEngine::Options::threads is [1, shards]), so any non-negative
  // value is acceptable here — --shards 3 --threads 4 runs 3 workers.
  if (threads < 0) {
    std::fprintf(stderr,
                 "--threads must be >= 0 (0 = lease from the shared "
                 "thread budget)\n%s",
                 flags.usage().c_str());
    return false;
  }
  const auto topo = net::parse_topology(flags.get_string("topology"));
  if (!topo) {
    std::fprintf(stderr,
                 "invalid --topology '%s': expected flat or "
                 "fat-tree:<radix> with radix >= 2\n%s",
                 flags.get_string("topology").c_str(), flags.usage().c_str());
    return false;
  }
  p->shards = shards;
  p->threads = threads;
  p->net.topology = *topo;
  return true;
}

ckpt::Protocol parse_protocol(const std::string& s) {
  if (s == "blocking") return ckpt::Protocol::kBlockingCoordinated;
  if (s == "chandy-lamport") return ckpt::Protocol::kChandyLamport;
  if (s == "uncoordinated") return ckpt::Protocol::kUncoordinatedLogging;
  return ckpt::Protocol::kGroupBased;
}

harness::ClusterPreset make_cluster(const harness::FlagSet& flags) {
  harness::ClusterPreset p = harness::icpp07_cluster();
  p.nranks = flags.get_int("ranks");
  p.storage.stripe_count = flags.get_int("stripe");
  p.tier.enabled = flags.get_bool("tier");
  p.tier.local_write_mbps = flags.get_double("local-write-mbps");
  p.tier.local_capacity_mib = flags.get_double("tier-capacity-mib");
  p.tier.drain_mbps = flags.get_double("drain-mbps");
  p.tier.replicate = flags.get_bool("replicate");
  return p;
}

ckpt::CkptConfig make_ckpt_config(const harness::FlagSet& flags) {
  ckpt::CkptConfig cc;
  cc.group_size = flags.get_int("group-size");
  cc.dynamic_formation = flags.get_bool("dynamic");
  cc.incremental = flags.get_bool("incremental");
  cc.async_progress = !flags.get_bool("no-helper");
  return cc;
}

harness::WorkloadFactory make_workload(const harness::FlagSet& flags,
                                       int nranks) {
  const std::string name = flags.get_string("workload");
  if (name == "hpl") {
    workloads::HplConfig cfg;
    if (nranks != cfg.grid_p * cfg.grid_q) {
      cfg.grid_p = nranks > 4 ? nranks / 4 : nranks;
      cfg.grid_q = nranks / cfg.grid_p;
    }
    return [cfg](int n) { return std::make_unique<workloads::HplSim>(n, cfg); };
  }
  if (name == "motifminer") {
    workloads::MotifMinerConfig cfg;
    return [cfg](int n) {
      return std::make_unique<workloads::MotifMinerSim>(n, cfg);
    };
  }
  if (name == "stencil") {
    workloads::StencilConfig cfg;
    if (nranks != cfg.px * cfg.py) {
      cfg.px = nranks > 4 ? nranks / 4 : nranks;
      cfg.py = nranks / cfg.px;
    }
    return [cfg](int n) {
      return std::make_unique<workloads::StencilSim>(n, cfg);
    };
  }
  if (name == "barrier") {
    workloads::BarrierBenchConfig cfg;
    cfg.comm_group_size = flags.get_int("comm-group");
    cfg.footprint_mib = flags.get_double("footprint-mib");
    cfg.iterations = 1800;
    return [cfg](int n) {
      return std::make_unique<workloads::BarrierBench>(n, cfg);
    };
  }
  workloads::CommGroupBenchConfig cfg;
  cfg.comm_group_size = flags.get_int("comm-group");
  cfg.footprint_mib = flags.get_double("footprint-mib");
  cfg.iterations = 1200;
  return [cfg](int n) {
    return std::make_unique<workloads::CommGroupBench>(n, cfg);
  };
}

// One full-stack run (base + checkpointed), printed and appended as a CSV
// row. The command accepts --shards/--threads: each rank runs on its home
// shard and the service LP on shard 0 (DESIGN.md §13), and every reported
// column is byte-identical to the serial run at any shard/thread count —
// which tests/determinism_check.cmake MODE=shards asserts. With
// --topology fat-tree:<radix> it is also the 1k-16k rank scale study.
int cmd_run(int argc, const char* const* argv) {
  harness::FlagSet flags("gbcsim run");
  add_common_flags(flags);
  add_shard_flags(flags);
  flags.add_double("issuance", 30.0, "checkpoint request time (seconds)");
  flags.add_int("iterations", 0,
                "iteration override (microbench/barrier, 0 = default)");
  flags.add_string("csv", "run",
                   "CSV basename, written under $GBC_BENCH_OUT (or "
                   "bench_results/)");
  if (!flags.parse(argc, argv)) {
    std::fprintf(stderr, "%s\n%s", flags.error().c_str(),
                 flags.usage().c_str());
    return flags.help_requested() ? 0 : 2;
  }
  harness::ClusterPreset preset = make_cluster(flags);
  if (!apply_shard_flags(flags, &preset)) return 2;
  if (!apply_erasure_flag(flags, &preset)) return 2;

  harness::WorkloadFactory factory;
  const int iters = flags.get_int("iterations");
  const std::string wname = flags.get_string("workload");
  if (iters > 0 && wname == "barrier") {
    workloads::BarrierBenchConfig cfg;
    cfg.comm_group_size = flags.get_int("comm-group");
    cfg.footprint_mib = flags.get_double("footprint-mib");
    cfg.iterations = static_cast<std::uint64_t>(iters);
    factory = [cfg](int n) {
      return std::make_unique<workloads::BarrierBench>(n, cfg);
    };
  } else if (iters > 0 && wname == "microbench") {
    workloads::CommGroupBenchConfig cfg;
    cfg.comm_group_size = flags.get_int("comm-group");
    cfg.footprint_mib = flags.get_double("footprint-mib");
    cfg.iterations = static_cast<std::uint64_t>(iters);
    factory = [cfg](int n) {
      return std::make_unique<workloads::CommGroupBench>(n, cfg);
    };
  } else {
    factory = make_workload(flags, preset.nranks);
  }

  const auto cc = make_ckpt_config(flags);
  const auto protocol = parse_protocol(flags.get_string("protocol"));
  auto base = harness::run_experiment(preset, factory, cc);
  std::vector<harness::CkptRequest> reqs;
  reqs.push_back(harness::CkptRequest{
      sim::from_seconds(flags.get_double("issuance")), protocol});
  auto ck = harness::run_experiment(preset, factory, cc, reqs);

  // Order-sensitive digest of the final per-rank states: any event-order
  // divergence between serial and sharded runs lands here.
  std::uint64_t digest = 1469598103934665603ull;  // FNV-1a
  for (std::uint64_t h : ck.final_hashes) {
    digest ^= h;
    digest *= 1099511628211ull;
  }

  const double delay = ck.completion_seconds() - base.completion_seconds();
  double individual = 0.0;
  double total = 0.0;
  if (!ck.checkpoints.empty()) {
    const auto& gc = ck.checkpoints.front();
    individual = sim::to_seconds(gc.max_individual_time());
    total = sim::to_seconds(gc.total_checkpoint_time());
  }

  std::printf("base run                   : %9.3f s\n",
              base.completion_seconds());
  std::printf("with checkpoint            : %9.3f s\n",
              ck.completion_seconds());
  std::printf("Effective Checkpoint Delay : %9.3f s\n", delay);
  std::printf("Individual Checkpoint Time : %9.3f s\n", individual);
  std::printf("Total Checkpoint Time      : %9.3f s\n", total);
  std::printf("state digest               : %016llx\n",
              static_cast<unsigned long long>(digest));

  const char* env = std::getenv("GBC_BENCH_OUT");
  const std::string dir = env && *env ? env : "bench_results";
  std::filesystem::create_directories(dir);
  const std::string path = dir + "/" + flags.get_string("csv") + ".csv";
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (!f) {
    std::fprintf(stderr, "cannot open %s\n", path.c_str());
    return 1;
  }
  std::fprintf(f,
               "workload,ranks,comm_group,ckpt_group,protocol,base_s,"
               "with_ckpt_s,effective_delay_s,individual_s,total_s,"
               "state_digest\n");
  std::fprintf(f, "%s,%d,%d,%d,%s,%.6f,%.6f,%.6f,%.6f,%.6f,%016llx\n",
               wname.c_str(), preset.nranks, flags.get_int("comm-group"),
               cc.group_size, flags.get_string("protocol").c_str(),
               base.completion_seconds(), ck.completion_seconds(), delay,
               individual, total, static_cast<unsigned long long>(digest));
  std::fclose(f);
  return 0;
}

int cmd_delay(int argc, const char* const* argv) {
  harness::FlagSet flags("gbcsim delay");
  add_common_flags(flags);
  flags.add_double("issuance", 30.0, "checkpoint request time (seconds)");
  if (!flags.parse(argc, argv)) {
    std::fprintf(stderr, "%s\n%s", flags.error().c_str(),
                 flags.usage().c_str());
    return flags.help_requested() ? 0 : 2;
  }
  auto cluster = make_cluster(flags);
  if (!apply_erasure_flag(flags, &cluster)) return 2;
  auto factory = make_workload(flags, cluster.nranks);
  auto m = harness::measure_effective_delay(
      cluster, factory, make_ckpt_config(flags),
      sim::from_seconds(flags.get_double("issuance")),
      parse_protocol(flags.get_string("protocol")));
  std::printf("base run                   : %9.2f s\n", m.base_seconds);
  std::printf("with checkpoint            : %9.2f s\n", m.with_ckpt_seconds);
  std::printf("Effective Checkpoint Delay : %9.2f s\n",
              m.effective_delay_seconds());
  std::printf("Individual Checkpoint Time : %9.2f s\n",
              m.individual_seconds());
  std::printf("Total Checkpoint Time      : %9.2f s\n", m.total_seconds());
  std::printf("storage fraction of downtime: %8.1f %%\n",
              m.checkpoint.storage_fraction() * 100.0);
  return 0;
}

int cmd_sweep(int argc, const char* const* argv) {
  harness::FlagSet flags("gbcsim sweep");
  add_common_flags(flags);
  flags.add_double("issuance", 30.0, "checkpoint request time (seconds)");
  if (!flags.parse(argc, argv)) {
    std::fprintf(stderr, "%s\n%s", flags.error().c_str(),
                 flags.usage().c_str());
    return flags.help_requested() ? 0 : 2;
  }
  auto cluster = make_cluster(flags);
  if (!apply_erasure_flag(flags, &cluster)) return 2;
  auto factory = make_workload(flags, cluster.nranks);
  auto cc = make_ckpt_config(flags);
  const double base =
      harness::run_experiment(cluster, factory, cc).completion_seconds();
  harness::Table t({"ckpt_group", "effective_delay_s", "individual_s",
                    "total_s"});
  for (int size = 0; size <= cluster.nranks; size = size == 0 ? 1 : size * 2) {
    if (size > cluster.nranks / 2 && size != 0) break;
    ckpt::CkptConfig c2 = cc;
    c2.group_size = size;
    auto m = harness::measure_effective_delay_with_base(
        cluster, factory, c2, sim::from_seconds(flags.get_double("issuance")),
        ckpt::Protocol::kGroupBased, base);
    t.add_row({size == 0 ? "All" : std::to_string(size),
               harness::Table::num(m.effective_delay_seconds()),
               harness::Table::num(m.individual_seconds()),
               harness::Table::num(m.total_seconds())});
    std::fflush(stdout);
  }
  t.print();
  return 0;
}

int cmd_trace(int argc, const char* const* argv) {
  harness::FlagSet flags("gbcsim trace");
  add_common_flags(flags);
  flags.add_double("issuance", 5.0, "checkpoint request time (seconds)");
  flags.add_string("trace-out", "",
                   "write a chrome://tracing JSON file of the schedule");
  if (!flags.parse(argc, argv)) {
    std::fprintf(stderr, "%s\n%s", flags.error().c_str(),
                 flags.usage().c_str());
    return flags.help_requested() ? 0 : 2;
  }
  auto cluster = make_cluster(flags);
  if (cluster.nranks > 16) cluster.nranks = 16;  // keep the chart readable
  if (!apply_erasure_flag(flags, &cluster)) return 2;
  auto factory = make_workload(flags, cluster.nranks);
  std::vector<harness::CkptRequest> reqs;
  reqs.push_back(
      harness::CkptRequest{sim::from_seconds(flags.get_double("issuance")),
                           parse_protocol(flags.get_string("protocol"))});
  const std::string trace_out = flags.get_string("trace-out");
  sim::Trace trace;
  trace.enable(!trace_out.empty());
  auto res = harness::run_experiment(cluster, factory, make_ckpt_config(flags),
                                     reqs, nullptr, &trace);
  if (res.checkpoints.empty()) {
    std::fprintf(stderr, "no checkpoint completed\n");
    return 1;
  }
  if (!trace_out.empty()) {
    std::FILE* f = std::fopen(trace_out.c_str(), "w");
    if (!f) {
      std::fprintf(stderr, "cannot open %s\n", trace_out.c_str());
      return 1;
    }
    const std::string json = sim::trace_to_chrome_json(trace);
    std::fwrite(json.data(), 1, json.size(), f);
    std::fclose(f);
    std::fprintf(stderr, "wrote %s (%zu events)\n", trace_out.c_str(),
                 trace.events().size());
  }
  std::vector<std::pair<std::string, ckpt::GlobalCheckpoint>> runs;
  runs.emplace_back("checkpoint schedule", res.checkpoints.front());
  std::fputs(harness::render_gantt_comparison(runs).c_str(), stdout);
  return 0;
}

int cmd_recover(int argc, const char* const* argv) {
  harness::FlagSet flags("gbcsim recover");
  add_common_flags(flags);
  flags.add_double("ckpt-at", 20.0, "checkpoint request time (seconds)");
  flags.add_double("fail-at", 60.0, "failure injection time (seconds)");
  flags.add_int("failed-rank", 0, "rank whose node dies (staging tier)");
  if (!flags.parse(argc, argv)) {
    std::fprintf(stderr, "%s\n%s", flags.error().c_str(),
                 flags.usage().c_str());
    return flags.help_requested() ? 0 : 2;
  }
  auto cluster = make_cluster(flags);
  if (!apply_erasure_flag(flags, &cluster)) return 2;
  auto factory = make_workload(flags, cluster.nranks);
  auto cc = make_ckpt_config(flags);
  auto clean = harness::run_experiment(cluster, factory, cc);
  std::vector<harness::CkptRequest> reqs;
  reqs.push_back(
      harness::CkptRequest{sim::from_seconds(flags.get_double("ckpt-at")),
                           parse_protocol(flags.get_string("protocol"))});
  auto rec = harness::run_with_failure(
      cluster, factory, cc, reqs,
      sim::from_seconds(flags.get_double("fail-at")),
      flags.get_int("failed-rank"));
  std::printf("clean completion      : %8.1f s\n", clean.completion_seconds());
  std::printf("failure at            : %8.1f s\n",
              sim::to_seconds(rec.failure_at));
  std::printf("restored from ckpt    : %s (rollback to iteration %llu)\n",
              rec.used_checkpoint ? "yes" : "no (cold restart)",
              static_cast<unsigned long long>(rec.rollback_iteration));
  if (cluster.tier.enabled) {
    std::printf("ckpts skipped (tier)  : %8d\n", rec.checkpoints_skipped);
    std::printf("restored loc/rep/ec/pfs: %3d /%4d /%4d /%4d\n",
                rec.ranks_restored_local, rec.ranks_restored_replica,
                rec.ranks_restored_erasure, rec.ranks_restored_pfs);
  }
  std::printf("restart image reads   : %8.1f s\n", rec.restart_read_seconds);
  std::printf("time to solution      : %8.1f s\n", rec.total_seconds);
  const bool ok = rec.final_hashes == clean.final_hashes;
  std::printf("result matches clean  : %s\n", ok ? "YES" : "NO");
  return ok ? 0 : 1;
}

int cmd_mtbf(int argc, const char* const* argv) {
  harness::FlagSet flags("gbcsim mtbf");
  add_common_flags(flags);
  flags.add_double("interval", 60.0, "checkpoint interval (seconds)");
  flags.add_double("mtbf", 300.0, "mean time between failures (seconds)");
  flags.add_int("seed", 1, "failure-sequence seed");
  if (!flags.parse(argc, argv)) {
    std::fprintf(stderr, "%s\n%s", flags.error().c_str(),
                 flags.usage().c_str());
    return flags.help_requested() ? 0 : 2;
  }
  auto cluster = make_cluster(flags);
  if (!apply_erasure_flag(flags, &cluster)) return 2;
  auto factory = make_workload(flags, cluster.nranks);
  harness::FailureModel fm;
  fm.mtbf_seconds = flags.get_double("mtbf");
  fm.seed = static_cast<std::uint64_t>(flags.get_int("seed"));
  auto res = harness::run_with_poisson_failures(
      cluster, factory, make_ckpt_config(flags),
      parse_protocol(flags.get_string("protocol")),
      sim::from_seconds(flags.get_double("interval")), fm);
  std::printf("time to solution   : %10.1f s\n", res.total_seconds);
  std::printf("failures           : %10d\n", res.failures);
  std::printf("ckpts completed    : %10d\n", res.checkpoints_completed);
  std::printf("lost work          : %10llu iterations\n",
              static_cast<unsigned long long>(res.lost_work_iterations));
  std::printf("Young-optimal gap  : %10.1f s (for C=10s)\n",
              harness::young_interval_seconds(10.0, fm.mtbf_seconds));
  return 0;
}

int cmd_storage(int argc, const char* const* argv) {
  harness::FlagSet flags("gbcsim storage");
  flags.add_int("max-clients", 32, "sweep 1..max concurrent writers");
  flags.add_int("stripe", 0, "stripe_count (0 = pooled)");
  flags.add_double("file-mib", 256.0, "file size per client");
  if (!flags.parse(argc, argv)) {
    std::fprintf(stderr, "%s\n%s", flags.error().c_str(),
                 flags.usage().c_str());
    return flags.help_requested() ? 0 : 2;
  }
  harness::Table t({"clients", "per_client_MBps", "aggregate_MBps"});
  for (int clients = 1; clients <= flags.get_int("max-clients");
       clients *= 2) {
    harness::ClusterPreset preset;
    preset.nranks = clients;
    preset.storage.stripe_count = flags.get_int("stripe");
    harness::SimCluster cluster(preset);
    sim::Engine& eng = cluster.engine();
    storage::StorageSystem& fs = cluster.shared_fs();
    const storage::Bytes file = storage::mib(flags.get_double("file-mib"));
    sim::Time slowest = 0;
    for (int c = 0; c < clients; ++c) {
      eng.spawn([](storage::StorageSystem& s, storage::Bytes b,
                   sim::Engine& e, sim::Time& out) -> sim::Task<void> {
        co_await s.write(b);
        if (e.now() > out) out = e.now();
      }(fs, file, eng, slowest));
    }
    eng.run();
    const double secs = sim::to_seconds(slowest);
    const double total_mb = static_cast<double>(file) * clients /
                            static_cast<double>(storage::kMiB);
    t.add_row({std::to_string(clients),
               harness::Table::num(total_mb / clients / secs),
               harness::Table::num(total_mb / secs)});
  }
  t.print();
  return 0;
}

void print_toplevel_usage() {
  std::puts(
      "gbcsim — group-based coordinated checkpointing simulator\n"
      "\n"
      "commands:\n"
      "  run       one full-stack run, CSV row out (shardable: --shards)\n"
      "  delay     measure the Effective Checkpoint Delay of one checkpoint\n"
      "  sweep     delay vs. checkpoint group size\n"
      "  trace     ASCII Gantt chart of a checkpoint schedule\n"
      "  recover   inject a failure and restart from the last checkpoint\n"
      "  mtbf      time-to-solution under Poisson failures\n"
      "  storage   storage-bottleneck curve (per-client bandwidth)\n"
      "\n"
      "scaling flags (run):\n"
      "  --shards N              partition the DES into N conservative shards\n"
      "  --threads N             worker threads (0 = lease from the budget)\n"
      "  --topology SPEC         flat | fat-tree:<radix>\n"
      "\n"
      "staging-tier flags (delay/sweep/trace/recover/mtbf):\n"
      "  --tier                  enable the node-local staging tier\n"
      "  --local-write-mbps N    local tier write bandwidth per node (MB/s)\n"
      "  --tier-capacity-mib N   local tier capacity per node (0 = unbounded)\n"
      "  --drain-mbps N          background drain rate to the PFS (0 = never)\n"
      "  --replicate             copy each image to a partner node\n"
      "  --tier-erasure K,M      erasure-code images into K data + M parity\n"
      "                          chunks scattered over K+M nodes (implies\n"
      "                          --tier; M=1 uses the XOR codec)\n"
      "\n"
      "tracing / recovery flags:\n"
      "  --trace-out FILE        (trace) chrome://tracing JSON of the schedule\n"
      "  --failed-rank R         (recover) rank whose node dies\n"
      "\n"
      "run `gbcsim <command> --help` for the full flag list of a command;\n"
      "unknown flags or stray arguments exit with status 2");
}

int dispatch(int argc, char** argv) {
  if (argc < 2) {
    print_toplevel_usage();
    return 2;
  }
  const std::string cmd = argv[1];
  const int rest_argc = argc - 2;
  const char* const* rest_argv = argv + 2;
  if (cmd == "run") return cmd_run(rest_argc, rest_argv);
  if (cmd == "delay") return cmd_delay(rest_argc, rest_argv);
  if (cmd == "sweep") return cmd_sweep(rest_argc, rest_argv);
  if (cmd == "trace") return cmd_trace(rest_argc, rest_argv);
  if (cmd == "recover") return cmd_recover(rest_argc, rest_argv);
  if (cmd == "mtbf") return cmd_mtbf(rest_argc, rest_argv);
  if (cmd == "storage") return cmd_storage(rest_argc, rest_argv);
  if (cmd == "--help" || cmd == "-h" || cmd == "help") {
    print_toplevel_usage();
    return 0;
  }
  std::fprintf(stderr, "unknown command '%s'\n", cmd.c_str());
  print_toplevel_usage();
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    return dispatch(argc, argv);
  } catch (const std::invalid_argument& e) {
    // A configuration the model rejects (e.g. SimCluster's tier +
    // incremental rule): report it like any other usage error.
    std::fprintf(stderr, "gbcsim: %s\n", e.what());
    return 2;
  }
}
