#pragma once

#include <algorithm>
#include <cassert>
#include <cstdint>
#include <utility>
#include <vector>

#include "sim/condition.hpp"
#include "sim/engine.hpp"
#include "sim/inline_fn.hpp"
#include "sim/shard_engine.hpp"
#include "sim/task.hpp"
#include "sim/time.hpp"

namespace gbc::sim {

/// Which shard owns logical process `lp` when `nlps` LPs are split across
/// `shards` contiguous blocks (DESIGN.md §13): rank r lives on shard r*S/n,
/// and the root service LP (id = nlps) is pinned to shard 0.
constexpr int lp_owner_shard(int lp, int nlps, int shards) {
  return static_cast<int>(static_cast<std::int64_t>(lp) * shards / nlps);
}

/// Message bus between logical processes (LPs) of one simulated cluster.
///
/// LP ids 0..nranks-1 are the MPI ranks; id nranks is the *root service LP*
/// (inter-group checkpoint sequencing, connection manager, shared PFS),
/// pinned to shard 0. Every cross-LP interaction — wire flights, control
/// messages, RPCs — flows through here with latency >= `floor()`, the
/// engine's uniform lookahead, so the conservative horizons of ShardedEngine
/// stay valid and no LP ever reaches into another LP's state directly.
///
/// ## Determinism: the settle-sweep discipline
///
/// Cross-shard merge order at equal timestamps is (t, src_shard, seq),
/// which is not shard-count-invariant. The bus therefore never hands a
/// message straight to model code: every delivery lands in its destination
/// shard's *settle bucket* for the delivery time, and one back-band sweep
/// event per (shard, t) — scheduled after every normal event at t
/// (Engine::schedule_at_back) — sorts the bucket by (dst LP, origin LP,
/// per-origin sequence) and runs it. The key depends only on the model,
/// never on the shard layout, so the delivery order each LP observes is
/// canonical at any shard/thread count.
///
/// Two paths feed a bucket:
///  - *Same-shard fast path*: the sender pushes the entry straight into the
///    bucket at send time — no wrapper event, no cross-shard post. Because
///    every message carries latency >= floor() > 0, the entry is in place
///    strictly before its delivery time executes.
///  - *Cross-shard path*: a wrapper posted through ShardedEngine runs as a
///    normal event at the delivery time and pushes the entry then; the
///    back-band sweep at the same t runs after it by construction.
///
/// Handlers run inside the sweep only touch their own LP's state (the LP
/// discipline), so the interleaving of *different* LPs' handlers at one
/// (shard, t) — the only thing the layout can change — is unobservable.
///
/// With one shard every LP shares shard 0's engine and every send takes the
/// fast path, so serial and sharded runs deliver in the same canonical
/// order.
class LpBus {
 public:
  /// Rank LPs in contiguous blocks across se.shards().
  LpBus(ShardedEngine& se, int nranks, Time floor)
      : se_(se),
        nranks_(nranks),
        floor_(floor),
        shards_(static_cast<std::size_t>(se.shards())),
        oseq_(static_cast<std::size_t>(nranks) + 1),
        delivered_(static_cast<std::size_t>(nranks) + 1, 0) {
    assert(floor_ > 0 && "LpBus floor must be positive");
  }

  LpBus(const LpBus&) = delete;
  LpBus& operator=(const LpBus&) = delete;

  int nranks() const noexcept { return nranks_; }
  /// The root service LP: connection manager, shared PFS, inter-group
  /// checkpoint sequencing and ledger commit. Group coordinators and
  /// storage servers live on rank LPs (harness/service_map.hpp).
  int svc_lp() const noexcept { return nranks_; }
  /// Minimum cross-LP message latency (the engine's lookahead).
  Time floor() const noexcept { return floor_; }

  int shards() const noexcept { return se_.shards(); }

  int shard_of(int lp) const {
    return lp >= nranks_ ? 0 : lp_owner_shard(lp, nranks_, se_.shards());
  }

  /// Lowest rank LP owned by shard `s` (the inverse of lp_owner_shard for
  /// contiguous blocks). Used to place per-shard mirror state — e.g. the
  /// deferral gate's shard views — on a canonical LP of that shard.
  int first_lp_of_shard(int s) const {
    const int S = shards();
    return static_cast<int>(
        (static_cast<std::int64_t>(s) * nranks_ + S - 1) / S);
  }

  Engine& engine_of(int lp) { return se_.shard(shard_of(lp)); }

  /// Next canonical sequence number for messages originated by `origin`.
  /// Must be called on origin's shard; assignment order equals origin's
  /// execution order, which is shard-count-invariant.
  std::uint64_t next_oseq(int origin) { return ++oseq_[origin].v; }

  /// Appends a delivery for `dst_lp` to its shard's settle bucket at
  /// absolute time t. Callable from any LP on dst's shard (the same-shard
  /// fast path calls it at send time with a future t; cross-shard wrappers
  /// call it at the delivery time via inbox_push). The first entry for a
  /// (shard, t) schedules that shard's back-band sweep.
  void inbox_push_at(int dst_lp, int origin, std::uint64_t oseq, Time t,
                     InlineFn fn) {
    bucket_at(shard_of(dst_lp), t)
        .entries.push_back(Entry{dst_lp, origin, oseq, std::move(fn)});
  }

  /// Appends to dst's settle bucket at the current time. Must run on dst's
  /// shard at the delivery time; this is the zero-allocation entry the
  /// fabric's cross-shard flight wrappers use.
  void inbox_push(int dst_lp, int origin, std::uint64_t oseq, InlineFn fn) {
    inbox_push_at(dst_lp, origin, oseq, engine_of(dst_lp).now(),
                  std::move(fn));
  }

  /// Runs `fn` in lp's shard's settle sweep at time t, *before* the sorted
  /// deliveries, in push order. No origin sequencing: only for callbacks
  /// that mutate lp's own state and need no canonical order against other
  /// LPs' callbacks — the fabric's sender-side completion counters, whose
  /// push order is the pushing LP's own execution order at any layout.
  /// Must be called from lp's shard with t in its future.
  void settle_at(int lp, Time t, InlineFn fn) {
    bucket_at(shard_of(lp), t).pre.push_back(Pre{lp, std::move(fn)});
  }

  /// Raw cross-shard dispatch at absolute time t, bypassing the settle
  /// buckets (no origin sequencing). Only for callers that do their own
  /// canonical ordering at the destination — the fabric's pooled flight
  /// path, whose wrapper pushes into the bucket itself on arrival. `t` must
  /// respect the floor.
  void post_raw(int src_lp, int dst_lp, Time t, InlineFn fn) {
    const int ss = shard_of(src_lp);
    const int ds = shard_of(dst_lp);
    if (ss == ds) {
      se_.shard(ds).schedule_at(t, std::move(fn));
    } else {
      se_.post(ss, ds, t, std::move(fn));
    }
  }

  /// Delivers `fn` into dst's settle bucket at absolute time t, clamped up
  /// to src-now + floor(). Call from code running on src's shard.
  void send_at(int src_lp, int dst_lp, Time t, InlineFn fn) {
    Engine& src_eng = engine_of(src_lp);
    const Time t_eff = std::max(t, src_eng.now() + floor_);
    const std::uint64_t oseq = next_oseq(src_lp);
    const int ss = shard_of(src_lp);
    const int ds = shard_of(dst_lp);
    if (ss == ds) {
      inbox_push_at(dst_lp, src_lp, oseq, t_eff, std::move(fn));
    } else {
      se_.post(ss, ds, t_eff,
               [this, dst_lp, src_lp, oseq, fn = std::move(fn)]() mutable {
                 inbox_push(dst_lp, src_lp, oseq, std::move(fn));
               });
    }
  }

  /// Delivers `fn` one floor hop from now (the common control-plane case).
  void send(int src_lp, int dst_lp, InlineFn fn) {
    send_at(src_lp, dst_lp, engine_of(src_lp).now() + floor_,
            std::move(fn));
  }

  /// RPC: runs the Task produced by `work()` on dst's engine, then resumes
  /// the caller one floor hop after it completes. Must be awaited from a
  /// coroutine running on src's shard; the request pays a floor hop too.
  /// `work` is invoked on dst's shard, so it may touch dst-owned state.
  template <typename F>
  Task<void> call(int src_lp, int dst_lp, F work) {
    RpcWait w(engine_of(src_lp));
    send(src_lp, dst_lp, [this, src_lp, dst_lp, &w, work = std::move(work)]() mutable {
      engine_of(dst_lp).spawn(
          run_remote(this, src_lp, dst_lp, &w, std::move(work)));
    });
    while (!w.done) co_await w.cv.wait();
  }

  /// Messages delivered to `lp` so far (settle-sweep executions). Owner
  /// shard writes, anyone may read at a quiescent point — the per-LP event
  /// split bench/shard_scaling reports.
  std::uint64_t delivered(int lp) const {
    return delivered_[static_cast<std::size_t>(lp)];
  }
  std::uint64_t delivered_total() const {
    std::uint64_t sum = 0;
    for (std::uint64_t d : delivered_) sum += d;
    return sum;
  }

  /// Drops every queued settle bucket (teardown of an aborted run): entry
  /// destructors run, releasing pooled resources they hold. The engines'
  /// pending sweep events are dropped by abort_all alongside.
  void clear() {
    for (ShardState& st : shards_) {
      st.buckets.clear();
      st.pool.clear();
    }
  }

 private:
  struct Entry {
    int dst;
    int origin;
    std::uint64_t oseq;
    InlineFn fn;
  };
  struct Pre {
    int lp;
    InlineFn fn;
  };
  /// All deliveries for one (shard, t); exists iff a sweep is scheduled.
  struct Bucket {
    Time t = 0;
    std::vector<Pre> pre;       // unsequenced own-LP callbacks, push order
    std::vector<Entry> entries; // sorted by (dst, origin, oseq) at sweep
  };
  struct alignas(64) ShardState {
    std::vector<Bucket> buckets;  // ascending t
    std::vector<Bucket> pool;     // recycled buckets (vectors keep capacity)
  };
  struct RpcWait {
    explicit RpcWait(Engine& eng) : cv(eng) {}
    bool done = false;
    Condition cv;
  };
  struct alignas(64) OriginSeq {
    std::uint64_t v = 0;
  };

  /// The settle bucket for (shard, t), creating it — and scheduling the
  /// shard's back-band sweep at t — on first touch. Buckets are kept
  /// sorted by t; inserts land at/near the back in practice (arrivals are
  /// roughly time-ordered), and the count of live buckets is the number of
  /// distinct pending delivery times on the shard, which stays small.
  Bucket& bucket_at(int shard, Time t) {
    ShardState& st = shards_[shard];
    auto it = std::lower_bound(
        st.buckets.begin(), st.buckets.end(), t,
        [](const Bucket& b, Time when) { return b.t < when; });
    if (it == st.buckets.end() || it->t != t) {
      Bucket b;
      if (!st.pool.empty()) {
        b = std::move(st.pool.back());
        st.pool.pop_back();
      }
      b.t = t;
      it = st.buckets.insert(it, std::move(b));
      se_.shard(shard).schedule_at_back(
          t, [this, shard] { sweep(shard); });
    }
    return *it;
  }

  template <typename F>
  static Task<void> run_remote(LpBus* bus, int src_lp, int dst_lp,
                               RpcWait* w, F work) {
    co_await work();
    bus->send(dst_lp, src_lp, [w] {
      w->done = true;
      w->cv.notify_all();
    });
  }

  /// The per-(shard, t) settle sweep: runs the pre-lane in push order, then
  /// sorts the deliveries by the canonical (dst LP, origin, oseq) key and
  /// runs them. Runs back-band, after every normal event at t, so all
  /// same-instant arrivals are already in.
  void sweep(int shard) {
    ShardState& st = shards_[shard];
    Engine& eng = se_.shard(shard);
    if (st.buckets.empty() || st.buckets.front().t != eng.now()) {
      return;  // bus cleared under a still-queued sweep (aborted run)
    }
    Bucket batch = std::move(st.buckets.front());
    st.buckets.erase(st.buckets.begin());
    for (Pre& p : batch.pre) {
      ++delivered_[static_cast<std::size_t>(p.lp)];
      p.fn();
    }
    if (batch.entries.size() > 1) {
      std::sort(batch.entries.begin(), batch.entries.end(),
                [](const Entry& a, const Entry& b) {
                  if (a.dst != b.dst) return a.dst < b.dst;
                  return a.origin != b.origin ? a.origin < b.origin
                                              : a.oseq < b.oseq;
                });
    }
    for (Entry& e : batch.entries) {
      ++delivered_[static_cast<std::size_t>(e.dst)];
      e.fn();
    }
    batch.pre.clear();
    batch.entries.clear();
    st.pool.push_back(std::move(batch));
  }

  ShardedEngine& se_;
  int nranks_;
  Time floor_;
  std::vector<ShardState> shards_;
  std::vector<OriginSeq> oseq_;
  std::vector<std::uint64_t> delivered_;
};

}  // namespace gbc::sim
