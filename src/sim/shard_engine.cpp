#include "sim/shard_engine.hpp"

#include <algorithm>
#include <cassert>
#include <condition_variable>
#include <exception>
#include <mutex>
#include <stdexcept>
#include <thread>

namespace gbc::sim {

/// Shard-private state. Padded so two worker threads never share a line
/// through the hot seq counter / mailbox tails.
struct alignas(64) ShardedEngine::Shard {
  Engine eng;
  /// One SPSC mailbox per destination shard; this shard's worker is the
  /// only producer, the coordinator (at a barrier) the only consumer.
  std::vector<std::unique_ptr<SpscQueue<CrossEvent>>> out;
  std::uint64_t next_seq = 0;
  ShardStats stats;
  std::uint64_t events_before_window = 0;
  std::exception_ptr error;
};

namespace {

/// Addition that saturates at kMaxSimTime instead of overflowing: an idle
/// shard's next event time is kMaxSimTime.
Time sat_add(Time a, Time b) noexcept {
  if (a >= kMaxSimTime - b) return kMaxSimTime;
  return a + b;
}

}  // namespace

/// Generation-counted round barrier: the coordinator publishes per-shard
/// horizons (ends_), workers run their statically-assigned runnable shards
/// (shard s belongs to worker s % threads), and the coordinator waits for
/// all of them before merging mailboxes. Static assignment keeps each
/// Engine thread-affine for the whole run, which also fixes the SPSC
/// producer role per mailbox.
struct ShardedEngine::Pool {
  std::mutex m;
  std::condition_variable start_cv;
  std::condition_variable done_cv;
  std::uint64_t generation = 0;
  int done = 0;
  bool stop = false;
  std::vector<std::thread> workers;
};

ShardedEngine::ShardedEngine(const Options& opts) {
  if (opts.shards < 1) {
    throw std::invalid_argument("ShardedEngine: shards must be >= 1");
  }
  const int S = opts.shards;
  if (S > 1 && opts.lookahead <= 0) {
    throw std::invalid_argument(
        "ShardedEngine: a positive lookahead is required for > 1 shard");
  }
  lookahead_ = S > 1 ? opts.lookahead : 0;

  threads_ = std::clamp(opts.threads, 1, S);
  next_.resize(S);
  ends_.assign(S, 0);
  drained_.assign(S, 0);
  injected_.assign(S, false);
  shards_.reserve(S);
  for (int s = 0; s < S; ++s) {
    auto sh = std::make_unique<Shard>();
    sh->out.reserve(S);
    for (int d = 0; d < S; ++d) {
      sh->out.push_back(std::make_unique<SpscQueue<CrossEvent>>());
    }
    shards_.push_back(std::move(sh));
  }
}

ShardedEngine::~ShardedEngine() { stop_pool(); }

Engine& ShardedEngine::shard(int s) { return shards_[s]->eng; }

const ShardStats& ShardedEngine::stats(int s) const {
  return shards_[s]->stats;
}

void ShardedEngine::post(int src, int dst, Time t, InlineFn fn) {
  assert(src >= 0 && src < shards() && dst >= 0 && dst < shards());
  if (src == dst) {
    shards_[src]->eng.schedule_at(t, std::move(fn));
    return;
  }
  Shard& from = *shards_[src];
  assert(t >= from.eng.now() + lookahead_ &&
         "cross-shard post inside the conservative horizon");
  ++from.stats.cross_sent;
  from.out[dst]->push(CrossEvent{t, from.next_seq++, std::move(fn)});
}

std::size_t ShardedEngine::drain_and_inject() {
  batch_.clear();
  const int n = shards();
  CrossEvent ev;
  for (int src = 0; src < n; ++src) {
    Shard& sh = *shards_[src];
    // Most rounds of a loosely-coupled model post nothing: the running count
    // of cross posts (read coherently here — producers are quiescent at the
    // round barrier) gates the O(shards) mailbox scan per source.
    if (sh.stats.cross_sent == drained_[src]) continue;
    drained_[src] = sh.stats.cross_sent;
    for (int dst = 0; dst < n; ++dst) {
      if (dst == src) continue;
      auto& mb = *sh.out[dst];
      while (mb.pop(ev)) {
        batch_.push_back(Staged{ev.t, static_cast<std::uint32_t>(src), ev.seq,
                                static_cast<std::uint32_t>(dst),
                                std::move(ev.fn)});
      }
    }
  }
  // Deterministic merge order (t, src, seq); a round with <= 1 cross event
  // skips the sort. Keys are unique: seq is per source shard.
  if (batch_.size() > 1) {
    std::sort(batch_.begin(), batch_.end(),
              [](const Staged& a, const Staged& b) {
                if (a.t != b.t) return a.t < b.t;
                if (a.src != b.src) return a.src < b.src;
                return a.seq < b.seq;
              });
  }
  // Inject straight into the destination wheels: every delivery time is at
  // or past the destination's horizon, so nothing lands in a shard's past
  // and no staging heap is needed.
  for (Staged& st : batch_) {
    Engine& de = shards_[st.dst]->eng;
    injected_[st.dst] = true;
    de.schedule_at(st.t, std::move(st.fn));
  }
  return batch_.size();
}

void ShardedEngine::run_shard_window(int s) {
  Shard& sh = *shards_[s];
  sh.events_before_window = sh.eng.events_processed();
  const Time end = ends_[s];
  try {
    // Horizon [next, end): Time is integral, so "strictly below end" is
    // run_until(end - 1). The engine parks with now() == end - 1, safely
    // behind any merge-injected arrival (all of which are >= end).
    sh.eng.run_until(end == kMaxSimTime ? kMaxSimTime : end - 1);
  } catch (...) {
    sh.error = std::current_exception();
  }
  const std::uint64_t n = sh.eng.events_processed() - sh.events_before_window;
  if (n > 0) {
    sh.stats.events += n;
    ++sh.stats.busy_windows;
    sh.stats.max_window_events = std::max(sh.stats.max_window_events, n);
  }
}

void ShardedEngine::worker_loop(int worker) {
  std::uint64_t seen = 0;
  for (;;) {
    {
      std::unique_lock<std::mutex> lk(pool_->m);
      pool_->start_cv.wait(
          lk, [&] { return pool_->stop || pool_->generation != seen; });
      if (pool_->stop) return;
      seen = pool_->generation;
    }
    for (int s = worker; s < shards(); s += threads_) {
      if (ends_[s] != 0) run_shard_window(s);
    }
    {
      std::lock_guard<std::mutex> lk(pool_->m);
      if (++pool_->done == threads_ - 1) pool_->done_cv.notify_one();
    }
  }
}

void ShardedEngine::stop_pool() {
  if (!pool_) return;
  {
    std::lock_guard<std::mutex> lk(pool_->m);
    pool_->stop = true;
  }
  pool_->start_cv.notify_all();
  for (auto& w : pool_->workers) w.join();
  pool_.reset();
}

void ShardedEngine::run_rounds(Time cap) {
  const int S = shards();
  bool first = true;
  for (;;) {
    // Merge first: anything posted during the previous round (or before the
    // run started) lands in the wheels before horizons are computed, so
    // in-flight traffic is fully accounted by next-event times.
    std::fill(injected_.begin(), injected_.end(), false);
    if (drain_and_inject() > 0) ++windows_;

    // A shard's earliest pending time only moves when the shard ran last
    // round (ends_ still holds that round's horizons) or the merge just
    // injected into it; everyone else answers from the previous round's
    // next_. The first round recomputes everything — the caller may have
    // scheduled into any shard since the last run.
    Time tmin = kMaxSimTime;
    for (int s = 0; s < S; ++s) {
      if (first || ends_[s] != 0 || injected_[s]) {
        next_[s] = shards_[s]->eng.next_event_time();
      }
      tmin = std::min(tmin, next_[s]);
    }
    first = false;
    if (tmin > cap || tmin == kMaxSimTime) {
      std::fill(ends_.begin(), ends_.end(), Time{0});
      return;
    }

    // Earliest-input-time horizons. Every other shard's bound is the
    // global minimum of next_; the shard holding it is bounded by the
    // runner-up instead. The shard holding the globally earliest event
    // always has end > next (L > 0), so each round makes progress.
    int first_s = 0;
    for (int s = 1; s < S; ++s) {
      if (next_[s] < next_[first_s]) first_s = s;
    }
    Time second = kMaxSimTime;
    for (int s = 0; s < S; ++s) {
      if (s != first_s) second = std::min(second, next_[s]);
    }
    int runnable = 0;
    int sole = -1;
    for (int s = 0; s < S; ++s) {
      const Time others = s == first_s ? second : tmin;
      Time e = std::min(sat_add(next_[s], 2 * lookahead_),
                        sat_add(others, lookahead_));
      if (cap != kMaxSimTime && e > cap) e = cap + 1;
      if (e > next_[s]) {
        ends_[s] = e;
        ++runnable;
        sole = s;
      } else {
        ends_[s] = 0;
      }
    }
    assert(runnable > 0 && "conservative horizon made no progress");
    ++rounds_;

    if (runnable == 1) {
      // Most rounds of a loosely-coupled model run exactly one shard; skip
      // the pool barrier entirely.
      run_shard_window(sole);
    } else if (threads_ == 1) {
      for (int s = 0; s < S; ++s) {
        if (ends_[s] != 0) run_shard_window(s);
      }
    } else {
      if (!pool_) {
        pool_ = std::make_unique<Pool>();
        pool_->workers.reserve(threads_ - 1);
        for (int w = 1; w < threads_; ++w) {
          pool_->workers.emplace_back([this, w] { worker_loop(w); });
        }
      }
      {
        std::lock_guard<std::mutex> lk(pool_->m);
        pool_->done = 0;
        ++pool_->generation;
      }
      pool_->start_cv.notify_all();
      // The coordinator doubles as worker 0.
      for (int s = 0; s < S; s += threads_) {
        if (ends_[s] != 0) run_shard_window(s);
      }
      std::unique_lock<std::mutex> lk(pool_->m);
      pool_->done_cv.wait(lk, [&] { return pool_->done == threads_ - 1; });
    }

    for (auto& sh : shards_) {
      if (sh->error) {
        auto e = sh->error;
        sh->error = nullptr;
        stop_pool();
        std::rethrow_exception(e);
      }
    }
  }
}

void ShardedEngine::run() {
  if (shards() == 1) {
    ++windows_;
    ++rounds_;
    Shard& sh = *shards_[0];
    sh.events_before_window = sh.eng.events_processed();
    sh.eng.run();
    const std::uint64_t n =
        sh.eng.events_processed() - sh.events_before_window;
    sh.stats.events += n;
    if (n > 0) {
      sh.stats.busy_windows = 1;
      sh.stats.max_window_events = std::max(sh.stats.max_window_events, n);
    }
    return;
  }
  run_rounds(kMaxSimTime);
  stop_pool();
}

void ShardedEngine::run_until(Time t) {
  if (shards() == 1) {
    ++windows_;
    ++rounds_;
    Shard& sh = *shards_[0];
    sh.events_before_window = sh.eng.events_processed();
    sh.eng.run_until(t);
    const std::uint64_t n =
        sh.eng.events_processed() - sh.events_before_window;
    sh.stats.events += n;
    if (n > 0) {
      sh.stats.busy_windows = 1;
      sh.stats.max_window_events = std::max(sh.stats.max_window_events, n);
    }
    return;
  }
  run_rounds(t);
  stop_pool();
  // Nothing at or before t is pending anywhere; advance every clock to t so
  // callers observe the serial run_until postcondition on each shard.
  for (auto& sh : shards_) sh->eng.run_until(t);
}

void ShardedEngine::abort_all() {
  stop_pool();
  for (auto& sh : shards_) sh->eng.abort_all();
  // Drop in-flight cross traffic: its targets are gone. InlineFn destructors
  // release any captured resources.
  CrossEvent ev;
  for (int s = 0; s < shards(); ++s) {
    for (auto& mb : shards_[s]->out) {
      while (mb->pop(ev)) {
      }
    }
    drained_[s] = shards_[s]->stats.cross_sent;
  }
}

std::uint64_t ShardedEngine::total_events() const {
  std::uint64_t n = 0;
  for (const auto& sh : shards_) n += sh->stats.events;
  return n;
}

std::uint64_t ShardedEngine::cross_events() const {
  std::uint64_t n = 0;
  for (const auto& sh : shards_) n += sh->stats.cross_sent;
  return n;
}

double ShardedEngine::window_balance() const {
  const std::uint64_t total = total_events();
  if (total == 0 || shards_.empty()) return 1.0;
  std::uint64_t mx = 0;
  for (const auto& sh : shards_) mx = std::max(mx, sh->stats.events);
  const double mean = static_cast<double>(total) / shards_.size();
  return static_cast<double>(mx) / mean;
}

}  // namespace gbc::sim
