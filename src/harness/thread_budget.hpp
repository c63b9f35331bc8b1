#pragma once

#include <mutex>

namespace gbc::harness {

/// Process-wide arbiter for host worker threads, shared by everything that
/// parallelizes: SweepRunner batches (one thread per sweep point) and
/// sim::ShardedEngine windows (one thread per shard). Each caller asks for
/// the width it could use and is granted what the machine has left, so a
/// sweep of sharded runs never oversubscribes the host with
/// GBC_SWEEP_THREADS x shards threads — late arrivals degrade toward
/// running inline (grant == 1) instead.
///
/// The calling thread is never counted against the budget: a grant of W
/// means "your own thread plus W - 1 helpers". Capacity comes from
/// GBC_THREAD_BUDGET when set (>= 1), else std::thread::hardware_concurrency.
class ThreadBudget {
 public:
  static ThreadBudget& shared();

  /// Requests up to `want` threads of width; returns the grant in
  /// [1, max(1, want)]. The grant leases (grant - 1) helper slots, which the
  /// caller MUST return via release(grant) when the parallel section ends.
  int acquire(int want);
  void release(int granted);

  int capacity() const;
  int leased() const;
  /// High-water mark of leased helper slots; lets tests assert the sweep x
  /// shards composition never exceeded the budget.
  int peak_leased() const;

  /// Test hook: overrides capacity (cap >= 1) or re-derives it from the
  /// environment (cap == 0). Resets the peak.
  void set_capacity_for_test(int cap);

 private:
  ThreadBudget();

  mutable std::mutex m_;
  int capacity_ = 1;
  int leased_ = 0;
  int peak_ = 0;
};

/// A grant from the shared budget held for a scope: acquires up to `want`
/// threads on construction (nothing when want is 0) and releases them on
/// destruction.
class ThreadLease {
 public:
  explicit ThreadLease(int want)
      : granted_(want > 0 ? ThreadBudget::shared().acquire(want) : 0) {}
  ~ThreadLease() { ThreadBudget::shared().release(granted_); }
  ThreadLease(const ThreadLease&) = delete;
  ThreadLease& operator=(const ThreadLease&) = delete;

  /// Width granted: 0 when nothing was asked for, else in [1, want].
  int granted() const noexcept { return granted_; }

 private:
  int granted_;
};

}  // namespace gbc::harness
