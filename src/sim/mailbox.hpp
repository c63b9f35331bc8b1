#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <utility>

#include "sim/inline_fn.hpp"
#include "sim/time.hpp"

namespace gbc::sim {

/// One cross-shard event: run `fn` on the destination shard at simulated
/// time `t`. `seq` is a per-source-shard monotonic counter, so
/// (t, src_shard, seq) totally orders every cross-shard message — the key
/// the coordinator merges mailboxes by, which is what keeps sharded runs
/// byte-deterministic regardless of thread timing.
struct CrossEvent {
  Time t = 0;
  std::uint64_t seq = 0;
  InlineFn fn;
};

/// Unbounded lock-free single-producer / single-consumer queue.
///
/// Storage is a linked list of fixed-size segments. The producer writes an
/// entry, then publishes it with a release store of the segment's filled
/// count; the consumer acquire-loads that count, drains up to it, and frees
/// segments it has exhausted. Only those two counters (and the segment link)
/// are shared, so the fast path is one atomic store per push and one atomic
/// load per pop — no CAS, no locks.
///
/// Roles are fixed: in the sharded engine each (src, dst) shard pair owns
/// one queue, the source shard's worker thread is the only producer and the
/// coordinator (at a window barrier, i.e. with the producer parked) is the
/// only consumer. The queue itself is nonetheless a correct concurrent SPSC
/// — producer and consumer may run simultaneously — which is what the TSan
/// stress test exercises.
template <typename T, std::size_t kSegmentSize = 512>
class SpscQueue {
 public:
  SpscQueue() {
    Segment* seg = new Segment;
    head_ = seg;
    tail_ = seg;
  }
  SpscQueue(const SpscQueue&) = delete;
  SpscQueue& operator=(const SpscQueue&) = delete;
  ~SpscQueue() {
    Segment* s = head_;
    while (s != nullptr) {
      Segment* next = s->next.load(std::memory_order_relaxed);
      delete s;
      s = next;
    }
  }

  /// Producer side. Single-threaded with respect to itself.
  void push(T v) {
    if (tail_pos_ == kSegmentSize) {
      Segment* seg = new Segment;
      // Publish the new segment only after it is fully constructed.
      tail_->next.store(seg, std::memory_order_release);
      tail_ = seg;
      tail_pos_ = 0;
    }
    tail_->items[tail_pos_] = std::move(v);
    // The release store makes the item (and, transitively, everything the
    // producer wrote before pushing) visible to the consumer's acquire load.
    tail_->filled.store(tail_pos_ + 1, std::memory_order_release);
    ++tail_pos_;
  }

  /// Consumer side. Returns false when no published entry is available.
  bool pop(T& out) {
    for (;;) {
      const std::size_t filled = head_->filled.load(std::memory_order_acquire);
      if (head_pos_ < filled) {
        out = std::move(head_->items[head_pos_++]);
        return true;
      }
      if (head_pos_ < kSegmentSize) return false;  // producer still here
      Segment* next = head_->next.load(std::memory_order_acquire);
      if (next == nullptr) return false;  // successor not published yet
      delete head_;
      head_ = next;
      head_pos_ = 0;
    }
  }

 private:
  struct Segment {
    T items[kSegmentSize];
    std::atomic<std::size_t> filled{0};
    std::atomic<Segment*> next{nullptr};
  };

  // Producer-owned end.
  alignas(64) Segment* tail_;
  std::size_t tail_pos_ = 0;
  // Consumer-owned end.
  alignas(64) Segment* head_;
  std::size_t head_pos_ = 0;
};

}  // namespace gbc::sim
