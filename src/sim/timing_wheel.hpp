#pragma once

#include <algorithm>
#include <bit>
#include <cassert>
#include <cstdint>
#include <limits>
#include <queue>
#include <vector>

#include "sim/time.hpp"

namespace gbc::sim {

/// One scheduled engine event: fire the callable stored in slot `slot` at
/// simulated time `t`. `seq` is a monotonic schedule counter that breaks
/// timestamp ties in schedule order — the strict FIFO guarantee that keeps
/// runs byte-deterministic.
struct WheelEvent {
  Time t;
  std::uint64_t seq;
  std::uint32_t slot;
};

/// Hierarchical timing wheel (calendar queue) — the engine's event scheduler.
///
/// Replaces the binary heap: push and pop are O(1) amortized instead of
/// O(log n), and both touch a couple of cache lines instead of sifting
/// through the heap array.
///
/// Structure, fastest first:
///
/// 1. A one-event *register* holds the earliest pending event whenever that
///    is provably safe (the wheel is otherwise empty when it parks, or the
///    new event displaces a smaller-(t,seq) register). A simulation whose
///    queue oscillates around one event — e.g. a coroutine sleeping in a
///    loop — schedules and pops through the register alone and never touches
///    the wheel.
/// 2. kLevels wheels of kSlots slots each. A level-k slot spans 2^(6k) ns,
///    so level 0 resolves single nanoseconds and the wheels jointly cover
///    one kHorizon = 2^48 ns epoch (~78 simulated hours). An event is placed
///    by the highest bit in which its timestamp differs from the wheel clock
///    `cur_` (level = bit/6): it then lands strictly after the clock's slot
///    on that level, which keeps cascading finite and means pending slots
///    are always scanned forward (no circular wrap-around). Per-level
///    occupancy bitmaps plus a level summary mask make the scan a few
///    bit-operations.
/// 3. Events in a different 2^48-aligned epoch than the clock wait in a
///    (t, seq)-ordered min-heap overflow bucket; they migrate into the
///    wheels when the clock enters their epoch. While the wheels are
///    non-empty the clock cannot change epoch, so migration is only checked
///    on the wheels-empty path — never per pop.
///
/// Determinism: events pop in strictly ascending (t, seq) order. A leaf
/// bucket can mix directly-inserted events with events cascaded down from
/// coarser wheels (whose seq may be lower), so each leaf bucket is sorted by
/// seq once when its drain starts; events appended *during* the drain
/// (schedule_now from a callback) run in append position. For normal
/// schedules that equals seq order (a fresh schedule always draws a larger
/// seq than everything already sorted); an appended event can carry a
/// smaller raw key than a back-band (Engine::kBackBand) event already in
/// the bucket, but append-position execution is exactly the contract there:
/// work spawned at t after the settle sweep runs after it.
///
/// Clock invariant: cur_ only moves forward, never past the earliest pending
/// event and never past the pop limit (run_until must be able to schedule at
/// times just after its boundary).
class TimingWheel {
 public:
  static constexpr int kSlotBits = 6;
  static constexpr int kSlots = 1 << kSlotBits;  // 64
  static constexpr int kLevels = 8;
  static constexpr Time kHorizon = Time{1} << (kSlotBits * kLevels);  // 2^48

  bool empty() const noexcept { return size_ == 0; }
  std::size_t size() const noexcept { return size_; }
  /// The wheel clock (<= earliest pending event time).
  Time current() const noexcept { return cur_; }

  void push(const WheelEvent& ev) {
    ++size_;
    if (min_valid_ && ev.t < min_cache_) min_cache_ = ev.t;
    if (has_reg_) {
      // The register stays the (t, seq) minimum. The full key comparison
      // matters for back-band events (Engine::schedule_at_back): an ordinary
      // schedule at t draws a *lower* key than a back-band event at t
      // already parked here, and must displace it.
      if (ev.t < reg_.t || (ev.t == reg_.t && ev.seq < reg_.seq)) {
        wheel_push(reg_);
        reg_ = ev;
      } else {
        wheel_push(ev);
      }
      return;
    }
    if (wheel_empty()) {
      reg_ = ev;
      has_reg_ = true;
      return;
    }
    // The wheel may hold an earlier (t, seq) than this event, so it cannot
    // claim the register.
    wheel_push(ev);
  }

  /// Pops the earliest pending event into `out` if its timestamp is <=
  /// limit; returns false otherwise (leaving the event queued).
  bool pop(Time limit, WheelEvent& out) {
    if (!has_reg_) {
      // Refill from the wheel. Delivery is immediate (same call), so the
      // register never holds a wheel-sourced event across pops — pushes
      // between pops can rely on "register events were never in a drain".
      if (!wheel_pop(limit, reg_)) return false;
    } else if (reg_.t > limit) {
      return false;
    }
    out = reg_;
    has_reg_ = false;
    --size_;
    // The popped event *was* the minimum; the runner-up is unknown until the
    // next peek rescans.
    min_valid_ = false;
    return true;
  }

  /// Timestamp of the earliest pending event without removing it — and
  /// without advancing the wheel clock, which matters: the caller (a shard
  /// coordinator placing the next conservative window) will still schedule
  /// events earlier than this timestamp, so cur_ must stay put.
  ///
  /// O(1) in the steady state: the result is memoized, pushes fold into the
  /// cached minimum, and only the first peek after a pop pays the slot scan.
  /// A shard that sits idle across many barriers answers every
  /// `next_event_time()` from the cache (or the register).
  bool peek_time(Time& t) const {
    if (has_reg_) {
      t = reg_.t;
      return true;
    }
    if (size_ == 0) return false;
    if (min_valid_) {
      t = min_cache_;
      return true;
    }
    // Slots within a level cover disjoint ascending time ranges, so the
    // level's minimum lives in its first occupied slot; leaf slots pin the
    // timestamp exactly, coarse buckets are scanned for their true minimum.
    Time best = kMaxTime;
    std::uint32_t m = levels_;
    while (m != 0) {
      const int k = std::countr_zero(m);
      m &= m - 1;
      const int from = index_at(k, cur_);
      const std::uint64_t ge = from != 0 ? occupied_[k] >> from : occupied_[k];
      assert(ge != 0 && "pending slot behind the wheel clock");
      const int slot = from + std::countr_zero(ge);
      if (k == 0) {
        best = std::min(best, slot_start(0, slot));
      } else {
        best = std::min(best, buckets_[k][slot].min_time());
      }
    }
    if (!overflow_.empty()) best = std::min(best, overflow_.top().t);
    min_cache_ = best;
    min_valid_ = true;
    t = best;
    return true;
  }

  /// Drops every pending event (abort_all). The clock is left where it is.
  void clear() noexcept {
    for (int k = 0; k < kLevels; ++k) {
      std::uint64_t occ = occupied_[k];
      while (occ != 0) {
        buckets_[k][std::countr_zero(occ)].clear();
        occ &= occ - 1;
      }
      occupied_[k] = 0;
    }
    levels_ = 0;
    while (!overflow_.empty()) overflow_.pop();
    drain_slot_ = -1;
    drain_pos_ = 0;
    has_reg_ = false;
    size_ = 0;
    min_valid_ = false;
  }

 private:
  static constexpr Time kMaxTime = std::numeric_limits<Time>::max();

  /// Bucket of same-slot events: two inline entries, heap array beyond.
  /// clear() keeps capacity, so steady-state runs stop allocating; the
  /// whole wheel's buckets are freed wholesale with the engine.
  class Bucket {
   public:
    Bucket() = default;
    Bucket(const Bucket&) = delete;
    Bucket& operator=(const Bucket&) = delete;
    ~Bucket() { delete[] heap_; }

    std::uint32_t size() const noexcept { return n_; }
    /// Smallest timestamp in the bucket (kMaxTime when empty) — folded in on
    /// push so peek_time never scans a coarse bucket's contents.
    Time min_time() const noexcept { return min_t_; }
    WheelEvent* data() noexcept { return heap_ != nullptr ? heap_ : inline_; }
    const WheelEvent& operator[](std::uint32_t i) const noexcept {
      return (heap_ != nullptr ? heap_ : inline_)[i];
    }
    void push_back(const WheelEvent& ev) {
      if (n_ == cap_) grow();
      if (ev.t < min_t_) min_t_ = ev.t;
      data()[n_++] = ev;
    }
    void clear() noexcept {
      n_ = 0;
      min_t_ = kMaxTime;
    }

   private:
    void grow() {
      const std::uint32_t ncap = cap_ * 4;
      WheelEvent* nh = new WheelEvent[ncap];
      std::copy(data(), data() + n_, nh);
      delete[] heap_;
      heap_ = nh;
      cap_ = ncap;
    }

    std::uint32_t n_ = 0;
    std::uint32_t cap_ = 2;
    Time min_t_ = kMaxTime;
    WheelEvent* heap_ = nullptr;
    WheelEvent inline_[2];
  };

  bool wheel_empty() const noexcept {
    return levels_ == 0 && drain_slot_ < 0 && overflow_.empty();
  }

  void wheel_push(const WheelEvent& ev) {
    assert(ev.t >= cur_ && "scheduling into the wheel's past");
    if (!same_epoch(ev.t)) {
      overflow_.push(ev);
      return;
    }
    insert(ev);
  }

  bool wheel_pop(Time limit, WheelEvent& out) {
    for (;;) {
      // Fast path: continue draining the current leaf bucket.
      if (drain_slot_ >= 0) {
        Bucket& b = buckets_[0][drain_slot_];
        if (drain_pos_ < b.size()) {
          if (cur_ > limit) return false;
          out = b[drain_pos_++];
          return true;
        }
        b.clear();
        drain_pos_ = 0;
        occupied_[0] &= ~(std::uint64_t{1} << drain_slot_);
        if (occupied_[0] == 0) levels_ &= ~1u;
        drain_slot_ = -1;
      }
      if (levels_ == 0) {
        // Wheels empty: enter the overflow's epoch and migrate it in. This
        // is the only place migration can be needed — while the wheels hold
        // events the clock stays inside its epoch.
        if (overflow_.empty()) return false;
        if (overflow_.top().t > limit) return false;
        cur_ = overflow_.top().t;
        do {
          insert(overflow_.top());
          overflow_.pop();
        } while (!overflow_.empty() && same_epoch(overflow_.top().t));
      }

      // Find the earliest candidate: the first occupied slot at or after
      // the clock's slot on each level (placement guarantees no pending
      // slot is behind it). For level 0 the slot start IS the event time;
      // for coarser levels it is a lower bound, so a coarse candidate at or
      // before the leaf candidate must be cascaded before dispatching (its
      // events at equal t could carry lower seq).
      Time leaf_t = kMaxTime;
      int leaf_slot = -1;
      Time coarse_t = kMaxTime;
      int coarse_level = -1;
      int coarse_slot = -1;
      std::uint32_t m = levels_;
      do {
        const int k = std::countr_zero(m);
        m &= m - 1;
        const int from = index_at(k, cur_);
        const std::uint64_t ge =
            from != 0 ? occupied_[k] >> from : occupied_[k];
        assert(ge != 0 && "pending slot behind the wheel clock");
        const int slot = from + std::countr_zero(ge);
        const Time t = slot_start(k, slot);
        if (k == 0) {
          leaf_t = t;
          leaf_slot = slot;
        } else if (t < coarse_t) {
          coarse_t = t;
          coarse_level = k;
          coarse_slot = slot;
        }
      } while (m != 0);

      if (coarse_t <= leaf_t) {
        const Time lb = coarse_t > cur_ ? coarse_t : cur_;
        if (lb > limit) return false;
        cur_ = lb;
        cascade(coarse_level, coarse_slot);
        continue;
      }
      if (leaf_t > limit) return false;
      cur_ = leaf_t;
      begin_drain(leaf_slot);
    }
  }

  static int index_at(int level, Time t) noexcept {
    return static_cast<int>(
        (static_cast<std::uint64_t>(t) >> (kSlotBits * level)) & (kSlots - 1));
  }

  /// True when t shares the clock's kHorizon-aligned epoch, i.e. fits the
  /// wheels; anything else waits in the overflow heap.
  bool same_epoch(Time t) const noexcept {
    return ((static_cast<std::uint64_t>(t) ^ static_cast<std::uint64_t>(cur_)) &
            ~(static_cast<std::uint64_t>(kHorizon) - 1)) == 0;
  }

  /// Absolute start time of `slot` on `level`. Valid because every pending
  /// slot shares the clock's bits above its level's span.
  Time slot_start(int level, int slot) const noexcept {
    const int span_bits = kSlotBits * (level + 1);
    const Time base =
        static_cast<Time>((static_cast<std::uint64_t>(cur_) >> span_bits)
                          << span_bits);
    return base + (Time(slot) << (kSlotBits * level));
  }

  void insert(const WheelEvent& ev) {
    // Place by the highest differing bit vs the clock: t and cur_ then
    // disagree inside that level's 6-bit slot field, so the event's slot is
    // strictly after the clock's slot at that level (t >= cur_), never on
    // it. A plain delta-based level can violate that when a carry crosses a
    // level boundary (e.g. cur_=63, t=4096: delta 4033 maps to level 1 slot
    // 0 == the clock's slot) and corrupt the clock's monotonicity.
    const std::uint64_t diff =
        static_cast<std::uint64_t>(ev.t) ^ static_cast<std::uint64_t>(cur_);
    int level = 0;
    if ((diff >> kSlotBits) != 0) {
      level = (63 - std::countl_zero(diff)) / kSlotBits;
    }
    const int idx = index_at(level, ev.t);
    buckets_[level][idx].push_back(ev);
    occupied_[level] |= std::uint64_t{1} << idx;
    levels_ |= 1u << level;
  }

  /// Re-distributes a coarse bucket's events into finer wheels. Never
  /// re-targets the same bucket: cascading happens when the clock has entered
  /// the slot, so every event in it now agrees with cur_ on all bits >= 6k
  /// and re-inserts at a level below k.
  void cascade(int k, int idx) {
    Bucket& b = buckets_[k][idx];
    occupied_[k] &= ~(std::uint64_t{1} << idx);
    if (occupied_[k] == 0) levels_ &= ~(1u << k);
    const std::uint32_t n = b.size();
    for (std::uint32_t i = 0; i < n; ++i) insert(b[i]);
    b.clear();
  }

  void begin_drain(int slot) {
    Bucket& b = buckets_[0][slot];
    // Cascaded events may interleave out of seq order with direct inserts;
    // one sort at drain start restores FIFO. Almost always size 1–2.
    if (b.size() > 1) {
      std::sort(b.data(), b.data() + b.size(),
                [](const WheelEvent& a, const WheelEvent& z) {
                  return a.seq < z.seq;
                });
    }
    drain_slot_ = slot;
    drain_pos_ = 0;
  }

  struct OverflowLater {
    bool operator()(const WheelEvent& a, const WheelEvent& b) const noexcept {
      return a.t != b.t ? a.t > b.t : a.seq > b.seq;
    }
  };

  Bucket buckets_[kLevels][kSlots];
  std::uint64_t occupied_[kLevels] = {};
  std::uint32_t levels_ = 0;  // summary mask: bit k = level k has events
  std::priority_queue<WheelEvent, std::vector<WheelEvent>, OverflowLater>
      overflow_;
  WheelEvent reg_{};  // the pending (t, seq) minimum, when has_reg_
  bool has_reg_ = false;
  // Memoized earliest pending timestamp (peek_time): pushes fold in via
  // min(), pops invalidate. Mutable because peek_time is logically const.
  mutable Time min_cache_ = 0;
  mutable bool min_valid_ = false;
  Time cur_ = 0;
  std::size_t size_ = 0;
  int drain_slot_ = -1;
  std::uint32_t drain_pos_ = 0;
};

}  // namespace gbc::sim
