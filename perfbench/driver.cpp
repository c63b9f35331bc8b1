// perfbench driver: runs one benchmark workload through the simulator's
// public entry points (harness::SimCluster, run_experiment's launch
// pattern, run_with_faults), checks every simulated run, and prints one
// JSON result line. run.py builds this binary and forwards its result.
//
//   perfbench_driver --workload NAME --seed N --seconds S --trace 0|1
//                    [--ranks N] [--break-check] [--spans-out FILE]
//
// --trace 0 measures the end-to-end metrics (tracing off); --trace 1 makes
// one untraced and one traced pass and prints the per-layer metrics.
// --ranks scales every workload down (the self-test uses 64).
// --break-check plants a wrong expected hash, so the base run must be
// reported as a failed operation.

#include <malloc.h>
#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <limits>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "ckpt/checkpoint.hpp"
#include "harness/experiment.hpp"
#include "harness/recovery.hpp"
#include "harness/sim_cluster.hpp"
#include "sim/random.hpp"
#include "sim/trace.hpp"
#include "storage/erasure.hpp"
#include "workloads/microbench.hpp"

namespace {

using namespace gbc;
using Clock = std::chrono::steady_clock;

double since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

double median(std::vector<double> v) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const std::size_t h = v.size() / 2;
  return v.size() % 2 ? v[h] : 0.5 * (v[h - 1] + v[h]);
}

// ---------------------------------------------------------------------------
// Workloads
// ---------------------------------------------------------------------------

constexpr std::uint64_t kIterations = 1200;
constexpr storage::Bytes kMessageBytes = 64 * storage::kKiB;

/// One benchmark workload, fully generated from (name, seed, ranks).
struct Spec {
  std::string name;
  harness::ClusterPreset preset;
  int comm_group = 1;
  ckpt::CkptConfig ckpt;
  std::vector<harness::CkptRequest> requests;
  harness::FaultPlan faults;  ///< empty: no replay operation
  bool single_checkpoint() const { return requests.size() == 1; }
};

harness::WorkloadFactory factory(int comm_group) {
  return [comm_group](int n) -> std::unique_ptr<workloads::Workload> {
    workloads::CommGroupBenchConfig c;  // Fig. 3: 180 MiB, 100 ms, 64 KiB
    c.comm_group_size = comm_group;
    c.iterations = kIterations;
    c.message_bytes = kMessageBytes;
    return std::make_unique<workloads::CommGroupBench>(n, c);
  };
}

/// Seconds in [-span, +span], millisecond resolution.
sim::Time jitter(sim::Rng& rng, int span_ms) {
  const auto ms = static_cast<sim::Time>(
                      rng.uniform_int(2 * static_cast<std::uint64_t>(span_ms) +
                                      1)) -
                  span_ms;
  return ms * sim::kMillisecond;
}

/// Picks the dead nodes: a lone node, then a correlated adjacent pair, such
/// that no erasure stripe loses more than m chunk holders (the erasure path
/// must stay the one recovery uses, whatever the seed).
std::vector<int> pick_fault_nodes(sim::Rng& rng, const harness::ClusterPreset& p) {
  const int n = p.nranks;
  sim::Engine unused;
  const storage::ErasureTier layout(unused, p.tier.erasure, n,
                                    p.tier.replica_offset);
  for (;;) {
    const int a = static_cast<int>(rng.uniform_int(n));
    const int b = static_cast<int>(rng.uniform_int(n));
    const int c = (b + 1) % n;
    if (a == b || a == c) continue;
    std::vector<char> dead(n, 0);
    dead[a] = dead[b] = dead[c] = 1;
    bool ok = true;
    for (int x = 0; x < n && ok; ++x) {
      int lost = 0;
      for (int h : layout.parity_group(x)) lost += dead[h];
      ok = lost <= p.tier.erasure.m;
    }
    if (ok) return {a, b, c};
  }
}

Spec make_spec(const std::string& name, std::uint64_t seed, int ranks) {
  sim::Rng rng(seed ^ 0x5eed0fbe9c4ull);
  Spec s;
  s.name = name;
  const auto gb = ckpt::Protocol::kGroupBased;
  if (name == "ring-1024-serial" || name == "ring-2048-sharded") {
    const bool sharded = name == "ring-2048-sharded";
    s.preset.nranks = ranks > 0 ? ranks : (sharded ? 2048 : 1024);
    s.preset.shards = sharded ? 4 : 1;
    s.preset.threads = sharded ? 4 : 1;
    s.comm_group = 16;
    s.ckpt.group_size = 8;
    s.requests.push_back({30 * sim::kSecond + jitter(rng, 2500), gb});
  } else if (name == "staged-faults-1024") {
    s.preset.nranks = ranks > 0 ? ranks : 1024;
    s.comm_group = 1;
    s.preset.tier.enabled = true;
    s.preset.tier.erasure.enabled = true;
    s.preset.tier.erasure.k = 4;
    s.preset.tier.erasure.m = 2;
    s.ckpt.group_size = 32;
    for (int i = 1; i <= 10; ++i) {
      s.requests.push_back({i * 10 * sim::kSecond + jitter(rng, 2000), gb});
    }
    const std::vector<int> dead = pick_fault_nodes(rng, s.preset);
    s.faults.style = harness::RecoveryStyle::kFullRestart;
    s.faults.faults.emplace_back(50 * sim::kSecond + jitter(rng, 3000),
                                 dead[0]);
    s.faults.faults.emplace_back(40 * sim::kSecond + jitter(rng, 3000),
                                 dead[1], std::vector<int>{dead[2]});
  } else {
    throw std::invalid_argument("unknown workload '" + name + "'");
  }
  return s;
}

// ---------------------------------------------------------------------------
// Operations
// ---------------------------------------------------------------------------

/// Per-layer counters read from the public accessors after a run.
struct Counters {
  double events = 0, windows = 0, rounds = 0, cross = 0, imbalance = 1;
  double bus = 0, root_share = 0;
  double packets = 0, bytes = 0, reused = 0, outstanding = 0;
  double conn_setups = 0, conn_teardowns = 0;
  mpi::MpiStats mpi;
  double pfs_flows = 0, pfs_bytes = 0, pfs_peak = 0, pfs_busy_s = 0;
  double ec_images = 0, ec_chunks = 0, ec_chunk_bytes = 0;
  double drained = 0, write_throughs = 0;
};

/// One simulated run driven from outside: host time per stage, its
/// simulated outcome, and the layer counters.
struct Op {
  double setup_s = 0, run_s = 0, teardown_s = 0;
  sim::Time completion = 0;
  std::vector<ckpt::GlobalCheckpoint> history;
  std::vector<std::uint64_t> iterations, hashes;
  Counters c;
  bool ring_ok = true;  ///< traffic followed the comm-group ring
};

/// A host-time span of the traced run (one simulated-time slice).
struct Span {
  std::string op, label;
  double host_begin = 0, host_end = 0;
  sim::Time sim_from = 0, sim_to = 0;
};

struct TraceCtx {
  sim::Trace* trace = nullptr;           ///< protocol/phase trace
  std::vector<sim::Time> boundaries;     ///< run_until stepping points
  std::vector<std::pair<sim::Time, sim::Time>> active;  ///< ckpt windows
  std::vector<Span>* spans = nullptr;
  Clock::time_point epoch;
};

Counters read_counters(harness::SimCluster& cl) {
  Counters c;
  sim::ShardedEngine& se = cl.sharded();
  c.events = static_cast<double>(se.total_events());
  c.windows = static_cast<double>(se.windows());
  c.rounds = static_cast<double>(se.rounds());
  c.cross = static_cast<double>(se.cross_events());
  c.imbalance = se.window_balance();
  c.bus = static_cast<double>(cl.bus().delivered_total());
  c.root_share = c.bus > 0 ? cl.bus().delivered(cl.bus().svc_lp()) / c.bus : 0;
  net::Fabric& f = cl.fabric();
  c.packets = static_cast<double>(f.packets_sent());
  c.bytes = static_cast<double>(f.bytes_sent());
  c.reused = static_cast<double>(f.flight_recs_reused());
  c.outstanding = static_cast<double>(f.flight_recs_outstanding());
  c.conn_setups = static_cast<double>(cl.connections().total_setups());
  c.conn_teardowns = static_cast<double>(cl.connections().total_teardowns());
  c.mpi = cl.mpi().stats();
  storage::StorageSystem& fs = cl.shared_fs();
  c.pfs_flows = static_cast<double>(fs.completed_flows());
  c.pfs_bytes = static_cast<double>(fs.bytes_transferred());
  c.pfs_peak = fs.peak_concurrency();
  c.pfs_busy_s = sim::to_seconds(fs.busy_time());
  if (storage::TieredStore* t = cl.tier()) {
    c.drained = static_cast<double>(t->images_drained());
    c.write_throughs = static_cast<double>(t->write_throughs());
    if (storage::ErasureTier* ec = t->erasure()) {
      c.ec_images = static_cast<double>(ec->images_encoded());
      c.ec_chunks = static_cast<double>(ec->chunks_placed());
      c.ec_chunk_bytes = static_cast<double>(ec->chunk_bytes_sent());
    }
  }
  return c;
}

/// Builds the cluster, attaches the workload and spawns every rank (the
/// set-up a driver pays before the first event), exactly as
/// run_experiment does.
struct Launched {
  std::unique_ptr<workloads::Workload> wl;
  std::vector<sim::Time> done_at;
  std::unique_ptr<harness::SimCluster> cluster;
};

void launch(const Spec& s, bool with_ckpt, const ckpt::CkptConfig& cfg,
            sim::Trace* trace, Launched* out) {
  out->cluster = std::make_unique<harness::SimCluster>(
      s.preset, cfg, harness::SimClusterOptions{.trace = trace});
  out->wl = factory(s.comm_group)(s.preset.nranks);
  out->wl->setup(out->cluster->mpi());
  out->wl->attach(out->cluster->checkpoints());
  if (with_ckpt) {
    for (const auto& r : s.requests) {
      out->cluster->checkpoints().request_at(r.at, r.protocol);
    }
  }
  out->done_at.assign(s.preset.nranks, 0);
  out->cluster->spawn_ranks([out](mpi::RankCtx& rank) {
    return [](workloads::Workload* w, mpi::RankCtx* rk,
              sim::Time* done) -> sim::Task<void> {
      co_await w->run_rank(*rk);
      *done = rk->engine().now();
    }(out->wl.get(), &rank, &out->done_at[rank.world_rank()]);
  });
}

Op run_op(const Spec& s, bool with_ckpt, const harness::ClusterPreset& preset,
          TraceCtx* tc, const std::string& op_name) {
  Spec sp = s;
  sp.preset = preset;
  Op op;
  Launched l;
  auto t0 = Clock::now();
  launch(sp, with_ckpt, s.ckpt, tc ? tc->trace : nullptr, &l);
  op.setup_s = since(t0);
  harness::SimCluster& cl = *l.cluster;

  auto t1 = Clock::now();
  if (tc && tc->spans) {
    // Traced pass: step across the untraced run's simulated boundaries and
    // time each slice, labelled by whether a checkpoint was in progress.
    sim::Time prev = 0;
    auto slice = [&](sim::Time to, bool last) {
      const auto h0 = Clock::now();
      if (last) {
        cl.run();
      } else {
        cl.run_until(to);
      }
      const auto h1 = Clock::now();
      bool active = false;
      for (const auto& [a, b] : tc->active) active |= prev >= a && to <= b;
      using std::chrono::duration;
      tc->spans->push_back(
          {op_name, active ? "checkpoint-active" : "app-only",
           duration<double>(h0 - tc->epoch).count(),
           duration<double>(h1 - tc->epoch).count(), prev, to});
      prev = to;
    };
    for (sim::Time b : tc->boundaries) slice(b, false);
    slice(sim::kMaxSimTime, true);
  } else {
    cl.run();
  }
  op.run_s = since(t1);

  for (sim::Time t : l.done_at) op.completion = std::max(op.completion, t);
  if (tc && tc->spans && !tc->spans->empty()) {
    tc->spans->back().sim_to = op.completion;
  }
  op.history = cl.checkpoints().history();
  for (int r = 0; r < preset.nranks; ++r) {
    op.iterations.push_back(l.wl->state(r).iteration);
    op.hashes.push_back(l.wl->state(r).hash);
  }
  op.c = read_counters(cl);
  // The ring pattern itself: every rank's right neighbour inside its comm
  // group carried at least one payload per iteration, and those ring pairs
  // carried every byte the fabric moved.
  if (s.comm_group > 1) {
    const int n = preset.nranks, g = s.comm_group;
    double ring_bytes = 0;
    op.ring_ok = true;
    for (int r = 0; r < n; ++r) {
      const int base = r / g * g, gs = std::min(g, n - base);
      const int right = base + (r - base + 1) % gs;
      const auto b = cl.fabric().bytes_between(r, right);
      ring_bytes += static_cast<double>(b);
      op.ring_ok &= b >= static_cast<storage::Bytes>(kIterations) * kMessageBytes;
    }
    op.ring_ok &= ring_bytes == op.c.bytes;
  }

  auto t2 = Clock::now();
  l.cluster.reset();
  op.teardown_s = since(t2);
  return op;
}

/// Set-up only: build, attach, spawn, tear down without running.
double setup_sample(const Spec& s) {
  Launched l;
  auto t0 = Clock::now();
  launch(s, true, s.ckpt, nullptr, &l);
  const double dt = since(t0);
  l.cluster.reset();
  return dt;
}

// ---------------------------------------------------------------------------
// Checks
// ---------------------------------------------------------------------------

struct Tally {
  int attempted = 0, failed = 0;
  void record(const std::string& op, const std::vector<std::string>& errs) {
    ++attempted;
    if (errs.empty()) return;
    ++failed;
    for (const auto& e : errs) std::fprintf(stderr, "FAIL %s: %s\n", op.c_str(), e.c_str());
  }
};

/// Hash chain an uninterrupted CommGroupBench rank ends with.
std::vector<std::uint64_t> expected_hashes(int n, bool broken) {
  std::vector<std::uint64_t> h(n, 0);
  for (int r = 0; r < n; ++r) {
    for (std::uint64_t it = 0; it < kIterations; ++it) {
      h[r] = workloads::mix_hash(h[r], (static_cast<std::uint64_t>(r) << 32) | it);
    }
  }
  if (broken) h[0] ^= 1;
  return h;
}

void check_run(const Spec& s, const Op& op,
               const std::vector<std::uint64_t>& want_hashes, bool with_ckpt,
               std::vector<std::string>* errs) {
  auto fail = [errs](std::string m) { errs->push_back(std::move(m)); };
  const int n = s.preset.nranks;
  if (op.completion <= 0) fail("run did not complete");
  for (int r = 0; r < n; ++r) {
    if (op.iterations[r] != kIterations) {
      fail("rank " + std::to_string(r) + " stopped at iteration " +
           std::to_string(op.iterations[r]));
      break;
    }
  }
  if (op.hashes != want_hashes) fail("final hashes differ from the reference");
  if (op.c.outstanding != 0) fail("flight records outstanding at the end");
  const double msgs = s.comm_group > 1 ? double(n) * kIterations : 0;
  if (op.c.mpi.sends != msgs || op.c.mpi.recvs != msgs) {
    fail("MPI sends/recvs " + std::to_string(op.c.mpi.sends) + "/" +
         std::to_string(op.c.mpi.recvs) + ", expected " +
         std::to_string(static_cast<long long>(msgs)));
  }
  if (!op.ring_ok) {
    fail("ring traffic does not follow the comm group pattern");
  }
  const std::size_t want_ckpts = with_ckpt ? s.requests.size() : 0;
  if (op.history.size() != want_ckpts) {
    fail("completed " + std::to_string(op.history.size()) +
         " checkpoints, expected " + std::to_string(want_ckpts));
  }
  for (const auto& gc : op.history) {
    if (gc.completed_at <= gc.requested_at ||
        static_cast<int>(gc.snapshots.size()) != n) {
      fail("incomplete checkpoint record");
      break;
    }
  }
}

// ---------------------------------------------------------------------------
// One repetition of a workload
// ---------------------------------------------------------------------------

/// The simulated (deterministic) end-to-end outcome of one repetition.
struct SimOutcome {
  double effective = 0, individual = 0, total = 0, tts = 0;
  bool operator==(const SimOutcome&) const = default;
};

struct Rep {
  double wall_s = 0, sim_s = 0, run_host_s = 0;
  Op base, ckpt;
  harness::RecoveryResult rec;
  double replay_host_s = 0;
  SimOutcome out;
};

SimOutcome outcome(const Spec& s, const Rep& r) {
  SimOutcome o;
  o.effective = sim::to_seconds(r.ckpt.completion - r.base.completion);
  for (const auto& gc : r.ckpt.history) {
    o.individual = std::max(o.individual,
                            sim::to_seconds(gc.max_individual_time()));
    o.total += sim::to_seconds(gc.total_checkpoint_time());
  }
  o.tts = s.faults.faults.empty() ? sim::to_seconds(r.ckpt.completion)
                                  : r.rec.total_seconds;
  return o;
}

Rep run_rep(const Spec& s, const std::vector<std::uint64_t>& reference,
            Tally* tally) {
  Rep rep;
  const auto t0 = Clock::now();
  rep.base = run_op(s, false, s.preset, nullptr, "base");
  std::vector<std::string> errs;
  check_run(s, rep.base, reference, false, &errs);
  tally->record("base", errs);

  rep.ckpt = run_op(s, true, s.preset, nullptr, "checkpointed");
  errs.clear();
  check_run(s, rep.ckpt, rep.base.hashes, true, &errs);
  rep.out = outcome(s, rep);
  if (rep.ckpt.completion <= rep.base.completion) {
    errs.push_back("checkpointed run is not slower than the base run");
  }
  if (s.single_checkpoint() &&
      !(rep.out.individual <= rep.out.effective &&
        rep.out.effective <= rep.out.total)) {
    errs.push_back("Individual <= Effective <= Total violated");
  }
  tally->record("checkpointed", errs);

  if (!s.faults.faults.empty()) {
    const auto t = Clock::now();
    rep.rec = harness::run_with_faults(s.preset, factory(s.comm_group), s.ckpt,
                                       s.requests, s.faults);
    rep.replay_host_s = since(t);
    errs.clear();
    if (rep.rec.final_hashes != rep.base.hashes) {
      errs.push_back("restart hashes differ from the clean run");
    }
    if (rep.rec.ranks_restored_erasure <= 0) errs.push_back("no erasure restore");
    if (rep.rec.checkpoints_skipped != 0) errs.push_back("checkpoints skipped");
    if (rep.rec.ranks_restored_pfs != 0) errs.push_back("PFS restores");
    if (!rep.rec.used_checkpoint) errs.push_back("cold restart");
    tally->record("faults", errs);
    rep.out = outcome(s, rep);
  }
  rep.wall_s = since(t0);
  rep.sim_s = sim::to_seconds(rep.base.completion + rep.ckpt.completion) +
              (s.faults.faults.empty() ? 0 : rep.rec.total_seconds);
  rep.run_host_s = rep.base.run_s + rep.ckpt.run_s + rep.replay_host_s;
  std::fprintf(stderr,
               "%s: base %.3f s, checkpointed %.3f s, replay %.3f s, "
               "wall %.3f s\n",
               s.name.c_str(), rep.base.run_s, rep.ckpt.run_s,
               rep.replay_host_s, rep.wall_s);
  return rep;
}

/// One checked, untimed checkpointed run: it grows the heap and the
/// simulator's pools to their working size, so the untraced and the traced
/// runs that per_layer compares both start warm.
void warm_up(const Spec& s, const std::vector<std::uint64_t>& reference,
             Tally* tally) {
  const Op op = run_op(s, true, s.preset, nullptr, "warm-up");
  std::vector<std::string> errs;
  check_run(s, op, reference, true, &errs);
  tally->record("warm-up", errs);
}

// ---------------------------------------------------------------------------
// Output
// ---------------------------------------------------------------------------

struct Metric {
  std::string name, unit;
  double value;
};

void print_result(const Tally& t, const std::vector<Metric>& ms) {
  std::string out = "{\"correct\": ";
  out += t.failed == 0 ? "true" : "false";
  out += ", \"attempted\": " + std::to_string(t.attempted);
  out += ", \"failed\": " + std::to_string(t.failed) + ", \"metrics\": {";
  char buf[64];
  for (std::size_t i = 0; i < ms.size(); ++i) {
    std::snprintf(buf, sizeof buf, "%.17g", ms[i].value);
    out += (i ? ", \"" : "\"") + ms[i].name + "\": {\"value\": " + buf +
           ", \"unit\": \"" + ms[i].unit + "\"}";
  }
  out += "}}";
  std::printf("%s\n", out.c_str());
}

double peak_rss_mib() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // KiB on Linux
}

/// Σ(end) − Σ(begin) of one phase's spans, in simulated seconds.
std::map<std::string, double> phase_seconds(const sim::Trace& tr) {
  std::map<std::string, double> sum;
  for (const char* p :
       {"quiesce", "drain", "teardown", "snapshot", "rebuild", "resume"}) {
    sum[p] = 0;
  }
  for (const auto& e : tr.events()) {
    if (e.category.rfind("phase/", 0) != 0) continue;
    const double t = sim::to_seconds(e.t);
    sum[e.category.substr(6)] += e.detail == "end" ? t : -t;
  }
  return sum;
}

void write_spans(const std::string& path, const std::vector<Span>& spans) {
  if (path.empty()) return;
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (!f) {
    std::fprintf(stderr, "cannot write spans to %s\n", path.c_str());
    return;
  }
  // chrome://tracing "complete" events, host microseconds.
  std::fprintf(f, "{\"traceEvents\": [\n");
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const Span& s = spans[i];
    std::fprintf(f,
                 "%s{\"name\": \"%s\", \"cat\": \"%s\", \"ph\": \"X\", "
                 "\"ts\": %.3f, \"dur\": %.3f, \"pid\": 0, \"tid\": 0, "
                 "\"args\": {\"sim_from_s\": %.9f, \"sim_to_s\": %.9f}}\n",
                 i ? "," : "", s.label.c_str(), s.op.c_str(),
                 s.host_begin * 1e6, (s.host_end - s.host_begin) * 1e6,
                 sim::to_seconds(s.sim_from), sim::to_seconds(s.sim_to));
  }
  std::fprintf(f, "]}\n");
  std::fclose(f);
}

// ---------------------------------------------------------------------------
// Modes
// ---------------------------------------------------------------------------

struct Args {
  std::string workload, spans_out;
  std::uint64_t seed = 1;
  double seconds = 10;
  int trace = 0;
  int ranks = 0;
  bool break_check = false;
};

/// --trace 0: repeat the workload for the time budget, report medians.
std::vector<Metric> end_to_end(const Spec& s, const Args& a, Tally* tally) {
  const auto t0 = Clock::now();
  const auto reference = expected_hashes(s.preset.nranks, a.break_check);
  // Set-up is cheap next to a run: sample it many times. No warm-up run
  // here: it would cost a third of the budget on the ring workloads, and the
  // median over repetitions absorbs the slower first one.
  std::vector<double> setups;
  for (int i = 0; i < 15; ++i) setups.push_back(setup_sample(s));
  SimOutcome first{};
  std::vector<double> walls, rates;
  do {
    Rep rep = run_rep(s, reference, tally);
    if (walls.empty()) {
      first = rep.out;
    } else if (!(rep.out == first)) {
      tally->record("repeat", {"simulated outcome differs between repetitions"});
    }
    walls.push_back(rep.wall_s);
    rates.push_back(rep.sim_s / rep.run_host_s);
    // Start another repetition only if it should fit the budget.
  } while (since(t0) + median(walls) <= a.seconds);
  return {
      {"wall_s", "s", median(walls)},
      {"setup_s", "s", median(setups)},
      {"sim_rate", "sim_s/s", median(rates)},
      {"peak_rss_mib", "MiB", peak_rss_mib()},
      {"effective_delay_s", "sim_s", first.effective},
      {"individual_s", "sim_s", first.individual},
      {"total_ckpt_s", "sim_s", first.total},
      {"tts_s", "sim_s", first.tts},
  };
}

/// --trace 1: one untraced repetition for the counters and host split,
/// then the checkpointed run again with tracing on.
std::vector<Metric> per_layer(const Spec& s, const Args& a, Tally* tally) {
  const auto reference = expected_hashes(s.preset.nranks, a.break_check);
  warm_up(s, reference, tally);
  Rep rep = run_rep(s, reference, tally);
  const Op& b = rep.base;
  const Op& k = rep.ckpt;

  // Traced pass of the checkpointed run.
  sim::Trace trace;
  trace.enable(true);
  std::vector<Span> spans;
  TraceCtx tc;
  tc.trace = &trace;
  tc.spans = &spans;
  tc.epoch = Clock::now();
  for (const auto& gc : k.history) {
    tc.active.emplace_back(gc.requested_at, gc.completed_at);
    tc.boundaries.push_back(gc.requested_at);
    tc.boundaries.push_back(gc.completed_at);
    for (const auto& grp : gc.plan.groups) {
      sim::Time freeze = sim::kMaxSimTime, resume = 0;
      for (int m : grp) {
        freeze = std::min(freeze, gc.snapshots[m].freeze_begin);
        resume = std::max(resume, gc.snapshots[m].resume_at);
      }
      tc.boundaries.push_back(freeze);
      tc.boundaries.push_back(resume);
    }
  }
  std::sort(tc.boundaries.begin(), tc.boundaries.end());
  tc.boundaries.erase(std::unique(tc.boundaries.begin(), tc.boundaries.end()),
                      tc.boundaries.end());
  const Op traced = run_op(s, true, s.preset, &tc, "checkpointed");
  std::vector<std::string> errs;
  if (traced.completion != k.completion || traced.hashes != k.hashes) {
    errs.push_back("traced run diverged from the untraced run");
  }
  tally->record("traced", errs);
  double app_s = 0, ckpt_s = 0;
  for (const Span& sp : spans) {
    (sp.label == "app-only" ? app_s : ckpt_s) += sp.host_end - sp.host_begin;
  }
  write_spans(a.spans_out, spans);
  const auto phases = phase_seconds(trace);

  // Thread speedup: the same checkpointed run at one thread.
  double speedup = 1;
  if (s.preset.threads > 1) {
    harness::ClusterPreset one = s.preset;
    one.threads = 1;
    const Op serial = run_op(s, true, one, nullptr, "one-thread");
    errs.clear();
    if (serial.hashes != k.hashes || serial.completion != k.completion) {
      errs.push_back("one-thread run diverged from the threaded run");
    }
    tally->record("one-thread", errs);
    speedup = serial.run_s / k.run_s;
  }

  const double run_ns = (b.run_s + k.run_s) * 1e9;
  const double events = b.c.events + k.c.events;
  const double packets = b.c.packets + k.c.packets;
  double fraction = 0;
  int groups = 0;
  for (const auto& gc : k.history) {
    fraction += gc.storage_fraction();
    groups += gc.plan.size();
  }
  if (!k.history.empty()) fraction /= static_cast<double>(k.history.size());
  const auto& m = k.c.mpi;
  std::vector<Metric> out = {
      {"sim.events", "count", events},
      {"sim.ns_per_event", "ns", events > 0 ? run_ns / events : 0},
      {"sim.windows", "count", b.c.windows + k.c.windows},
      {"sim.rounds", "count", b.c.rounds + k.c.rounds},
      {"sim.cross_shard_msgs", "count", b.c.cross + k.c.cross},
      {"sim.shard_imbalance", "ratio", k.c.imbalance},
      {"sim.bus_deliveries", "count", b.c.bus + k.c.bus},
      {"sim.root_lp_share", "ratio", k.c.root_share},
      {"sim.thread_speedup", "x", speedup},
      {"net.packets", "count", packets},
      {"net.bytes", "B", b.c.bytes + k.c.bytes},
      {"net.ns_per_packet", "ns", packets > 0 ? run_ns / packets : 0},
      {"net.flight_reuse", "ratio",
       packets > 0 ? (b.c.reused + k.c.reused) / packets : 0},
      {"net.conn_setups", "count", k.c.conn_setups},
      {"net.conn_teardowns", "count", k.c.conn_teardowns},
      {"mpi.sends", "count", static_cast<double>(m.sends)},
      {"mpi.recvs", "count", static_cast<double>(m.recvs)},
      {"mpi.msgs_buffered", "count", static_cast<double>(m.messages_buffered)},
      {"mpi.reqs_buffered", "count", static_cast<double>(m.requests_buffered)},
      {"mpi.buffered_bytes", "B",
       static_cast<double>(m.message_buffered_bytes + m.request_buffered_bytes)},
      {"mpi.peak_buffer_bytes", "B", static_cast<double>(m.peak_message_buffer)},
      {"storage.pfs_flows", "count", k.c.pfs_flows},
      {"storage.pfs_bytes", "B", k.c.pfs_bytes},
      {"storage.pfs_peak_concurrency", "count", k.c.pfs_peak},
      {"storage.pfs_busy_s", "sim_s", k.c.pfs_busy_s},
      {"storage.ec_images", "count", k.c.ec_images},
      {"storage.ec_chunks", "count", k.c.ec_chunks},
      {"storage.ec_chunk_bytes", "B", k.c.ec_chunk_bytes},
      {"storage.images_drained", "count", k.c.drained},
      {"storage.write_throughs", "count", k.c.write_throughs},
      {"ckpt.host_s", "s", k.run_s - b.run_s},
      {"ckpt.cycles", "count", static_cast<double>(k.history.size())},
      {"ckpt.groups", "count", static_cast<double>(groups)},
      {"ckpt.storage_fraction", "ratio", fraction},
  };
  for (const char* p :
       {"quiesce", "drain", "teardown", "snapshot", "rebuild", "resume"}) {
    out.push_back({std::string("ckpt.phase.") + p + "_s", "sim_s", phases.at(p)});
  }
  const auto& r = rep.rec;
  out.insert(out.end(), {
      {"harness.teardown_s", "s", k.teardown_s},
      {"recovery.replay_host_s", "s", rep.replay_host_s},
      {"recovery.restored_local", "count", double(r.ranks_restored_local)},
      {"recovery.restored_replica", "count", double(r.ranks_restored_replica)},
      {"recovery.restored_erasure", "count", double(r.ranks_restored_erasure)},
      {"recovery.restored_pfs", "count", double(r.ranks_restored_pfs)},
      {"recovery.ckpts_skipped", "count", double(r.checkpoints_skipped)},
      {"trace.app_host_s", "s", app_s},
      {"trace.ckpt_host_s", "s", ckpt_s},
      {"trace.overhead", "ratio", traced.run_s / k.run_s},
  });
  return out;
}

bool parse(int argc, char** argv, Args* a) {
  for (int i = 1; i < argc; ++i) {
    const std::string f = argv[i];
    auto val = [&]() -> const char* { return i + 1 < argc ? argv[++i] : nullptr; };
    const char* v = nullptr;
    if (f == "--break-check") {
      a->break_check = true;
      continue;
    }
    if (!(v = val())) return false;
    if (f == "--workload") a->workload = v;
    else if (f == "--seed") a->seed = std::strtoull(v, nullptr, 10);
    else if (f == "--seconds") a->seconds = std::atof(v);
    else if (f == "--trace") a->trace = std::atoi(v);
    else if (f == "--ranks") a->ranks = std::atoi(v);
    else if (f == "--spans-out") a->spans_out = v;
    else return false;
  }
  return !a->workload.empty() && (a->trace == 0 || a->trace == 1);
}

}  // namespace

int main(int argc, char** argv) {
  Args a;
  if (!parse(argc, argv, &a)) {
    std::fprintf(stderr,
                 "usage: perfbench_driver --workload NAME --seed N --seconds S "
                 "--trace 0|1 [--ranks N] [--break-check] [--spans-out FILE]\n");
    return 2;
  }
  // Keep freed memory in the process: no mmap'd chunks and no heap trim.
  // Otherwise glibc's adaptive mmap threshold decides per run whether the
  // large per-cluster arrays are reused from the heap or faulted in afresh,
  // which makes set-up and run times bimodal.
  mallopt(M_MMAP_MAX, 0);
  mallopt(M_TRIM_THRESHOLD, std::numeric_limits<int>::max());
  try {
    const Spec s = make_spec(a.workload, a.seed, a.ranks);
    Tally tally;
    const auto metrics = a.trace ? per_layer(s, a, &tally) : end_to_end(s, a, &tally);
    print_result(tally, metrics);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench_driver: %s\n", e.what());
    return 1;
  }
  return 0;
}
