#pragma once

#include <cassert>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <mutex>
#include <new>
#include <utility>
#include <vector>

// Memory pools for the simulation hot path. Every simulated send, buffered
// message, suspension and coroutine frame used to be a fresh heap allocation;
// at millions of events per sweep point the allocator dominates. The pools
// here trade a little slab bookkeeping for steady-state allocation-free
// operation. None of them uses atomics: a Pool belongs to one owner that one
// thread runs at a time (DESIGN.md §8), and the RecordPool/FramePool caches
// are thread-local.
//
// Under AddressSanitizer the pools degrade to plain new/delete so recycling
// cannot mask use-after-free bugs in the code they serve.
#if defined(__SANITIZE_ADDRESS__)
#define GBC_POOLS_PASSTHROUGH 1
#elif defined(__has_feature)
#if __has_feature(address_sanitizer)
#define GBC_POOLS_PASSTHROUGH 1
#endif
#endif
#ifndef GBC_POOLS_PASSTHROUGH
#define GBC_POOLS_PASSTHROUGH 0
#endif

namespace gbc::sim {

/// Typed slab allocator. Objects are carved out of fixed-size slabs and
/// recycled through an intrusive free list (the link lives in the freed
/// node's own storage), so steady-state acquire/release touches no heap.
template <typename T>
class Pool {
 public:
  explicit Pool(std::size_t nodes_per_slab = 64)
      : per_slab_(nodes_per_slab ? nodes_per_slab : 1) {}
  Pool(const Pool&) = delete;
  Pool& operator=(const Pool&) = delete;
  ~Pool() { assert(outstanding_ == 0 && "Pool destroyed with live objects"); }

  /// Constructs a T in recycled (or freshly-slabbed) storage.
  template <typename... Args>
  T* acquire(Args&&... args) {
#if GBC_POOLS_PASSTHROUGH
    ++outstanding_;
    return new T(std::forward<Args>(args)...);
#else
    Slot* s = free_;
    if (s != nullptr) {
      free_ = s->next;
      ++reused_;
    } else {
      s = grow();
    }
    ++outstanding_;
    return ::new (static_cast<void*>(s->raw)) T(std::forward<Args>(args)...);
#endif
  }

  /// Destroys *p and returns its storage to the free list.
  void release(T* p) noexcept {
    assert(outstanding_ > 0);
    --outstanding_;
#if GBC_POOLS_PASSTHROUGH
    delete p;
#else
    p->~T();
    Slot* s = reinterpret_cast<Slot*>(p);
    s->next = free_;
    free_ = s;
#endif
  }

  std::size_t outstanding() const noexcept { return outstanding_; }
  /// Acquisitions served from the free list (i.e. recycled storage).
  std::uint64_t reused() const noexcept { return reused_; }

 private:
  union Slot {
    Slot* next;
    alignas(alignof(T)) std::byte raw[sizeof(T)];
  };

  Slot* grow() {
    slabs_.push_back(std::make_unique<Slot[]>(per_slab_));
    Slot* base = slabs_.back().get();
    // Hand out the first node; chain the rest onto the free list in address
    // order so reuse patterns stay deterministic.
    for (std::size_t i = per_slab_; i-- > 1;) {
      base[i].next = free_;
      free_ = &base[i];
    }
    return base;
  }

  std::size_t per_slab_;
  std::vector<std::unique_ptr<Slot[]>> slabs_;
  Slot* free_ = nullptr;
  std::size_t outstanding_ = 0;
  std::uint64_t reused_ = 0;
};

/// Thread-local free list of blocks for one per-message record type
/// (mpi::ReqState, sim::SuspendState). The mechanism is FramePool's: blocks
/// come from plain ::operator new, so a record released on another thread
/// than it was created on just migrates to that thread's cache, and a record
/// outliving whatever created it (its rank, its engine, the whole cluster)
/// needs no shared core to free itself.
template <typename T>
class RecordPool {
 public:
  template <typename... Args>
  static T* create(Args&&... args) {
    Cache& c = cache();
    ++c.live;
#if GBC_POOLS_PASSTHROUGH
    return new T(std::forward<Args>(args)...);
#else
    void* p = c.free;
    if (p != nullptr) {
      c.free = *static_cast<void**>(p);
      ++c.reused;
    } else {
      p = ::operator new(kBlock);
    }
    return ::new (p) T(std::forward<Args>(args)...);
#endif
  }

  /// Out of line, so PoolRef's destructor — run at every handle copy's end
  /// — stays a decrement and a branch the compiler inlines.
  [[gnu::noinline]] static void destroy(T* p) noexcept {
    Cache& c = cache();
    --c.live;
#if GBC_POOLS_PASSTHROUGH
    delete p;
#else
    p->~T();
    *reinterpret_cast<void**>(p) = c.free;
    c.free = p;
#endif
  }

  /// Creations the calling thread served from its free list.
  static std::uint64_t reused() noexcept { return cache().reused; }

  /// Records alive process-wide: created minus destroyed over every thread,
  /// exited ones included. Reads the other threads' plain counters, so call
  /// it only while no simulation is running (after run() returned).
  static std::int64_t outstanding() {
    Registry& r = registry();
    std::lock_guard<std::mutex> lk(r.mu);
    std::int64_t n = r.retired;
    for (const Cache* c : r.caches) n += c->live;
    return n;
  }

 private:
  static constexpr std::size_t kBlock =
      sizeof(T) > sizeof(void*) ? sizeof(T) : sizeof(void*);

  struct Cache;
  struct Registry {
    std::mutex mu;
    std::vector<const Cache*> caches;
    std::int64_t retired = 0;  // net live count of exited threads
  };
  // Never destroyed: threads of a static-lifetime pool (the shared
  // SweepRunner) exit, and unregister their caches, during static
  // destruction.
  static Registry& registry() {
    static Registry* r = new Registry;
    return *r;
  }

  struct Cache {
    void* free = nullptr;
    std::int64_t live = 0;  // created minus destroyed on this thread
    std::uint64_t reused = 0;
    Cache() {
      Registry& r = registry();
      std::lock_guard<std::mutex> lk(r.mu);
      r.caches.push_back(this);
    }
    ~Cache() {
      {
        Registry& r = registry();
        std::lock_guard<std::mutex> lk(r.mu);
        std::erase(r.caches, this);
        r.retired += live;
      }
      while (free != nullptr) {
        void* next = *static_cast<void**>(free);
        ::operator delete(free);
        free = next;
      }
    }
  };
  static Cache& cache() {
    static thread_local Cache c;
    return c;
  }
};

/// Base of a RecordPool record: the reference count PoolRef maintains.
struct PooledRecord {
  int refs = 0;
};

/// Intrusive counted handle to a RecordPool<T> record (T derives from
/// PooledRecord); the last handle released destroys the record into the
/// releasing thread's cache. The count is a plain int, not an atomic: all
/// handles to one record must be copied and released by one thread at a
/// time. Simulation records satisfy this by the owner-shard rule — a record
/// is created, shared and dropped only by events of its owner's shard
/// (DESIGN.md §9).
template <typename T>
class PoolRef {
 public:
  PoolRef() noexcept = default;
  PoolRef(std::nullptr_t) noexcept {}  // NOLINT: implicit, like a pointer
  /// Takes one more reference to a live record (or to nothing).
  explicit PoolRef(T* p) noexcept : p_(p) {
    if (p_ != nullptr) ++p_->refs;
  }
  PoolRef(const PoolRef& o) noexcept : PoolRef(o.p_) {}
  PoolRef(PoolRef&& o) noexcept : p_(std::exchange(o.p_, nullptr)) {}
  PoolRef& operator=(PoolRef o) noexcept {
    std::swap(p_, o.p_);
    return *this;
  }
  ~PoolRef() {
    if (p_ != nullptr && --p_->refs == 0) RecordPool<T>::destroy(p_);
  }

  /// Creates a record in the calling thread's pool.
  template <typename... Args>
  static PoolRef make(Args&&... args) {
    return PoolRef(RecordPool<T>::create(std::forward<Args>(args)...));
  }

  T* get() const noexcept { return p_; }
  T* operator->() const noexcept { return p_; }
  T& operator*() const noexcept { return *p_; }
  explicit operator bool() const noexcept { return p_ != nullptr; }
  friend bool operator==(const PoolRef& a, const PoolRef& b) noexcept {
    return a.p_ == b.p_;
  }
  friend bool operator==(const PoolRef& a, std::nullptr_t) noexcept {
    return a.p_ == nullptr;
  }

 private:
  T* p_ = nullptr;
};

/// Thread-local size-class recycler for coroutine frames. Frames for
/// send/recv/wait/pump/checkpoint coroutines are created and destroyed at
/// event rate; this keeps the storage on a per-thread free list. Blocks come
/// from plain ::operator new, so a frame freed on a different thread than it
/// was allocated on (the sweep pool moves engines between workers across
/// batches, never concurrently) just migrates to that thread's cache.
class FramePool {
 public:
  static constexpr std::size_t kGranularity = 64;
  static constexpr std::size_t kClasses = 32;  // frames up to 2 KiB recycled

  static void* allocate(std::size_t n) {
    const std::size_t cls = (n + kGranularity - 1) / kGranularity;
    if (GBC_POOLS_PASSTHROUGH || cls == 0 || cls > kClasses) {
      return ::operator new(n);
    }
    void*& head = cache().free[cls - 1];
    if (head != nullptr) {
      void* p = head;
      head = *static_cast<void**>(p);
      return p;
    }
    return ::operator new(cls * kGranularity);
  }

  static void deallocate(void* p, std::size_t n) noexcept {
    const std::size_t cls = (n + kGranularity - 1) / kGranularity;
    if (GBC_POOLS_PASSTHROUGH || cls == 0 || cls > kClasses) {
      ::operator delete(p);
      return;
    }
    void*& head = cache().free[cls - 1];
    *static_cast<void**>(p) = head;
    head = p;
  }

 private:
  struct Cache {
    void* free[kClasses] = {};
    ~Cache() {
      for (void* head : free) {
        while (head != nullptr) {
          void* next = *static_cast<void**>(head);
          ::operator delete(head);
          head = next;
        }
      }
    }
  };
  static Cache& cache() {
    static thread_local Cache c;
    return c;
  }
};

/// Mixin for coroutine promise types: routes the coroutine frame through
/// FramePool. C++20 looks the operators up on the promise, so inheriting
/// this is all a promise type needs.
struct PooledFrame {
  static void* operator new(std::size_t n) { return FramePool::allocate(n); }
  static void operator delete(void* p, std::size_t n) noexcept {
    FramePool::deallocate(p, n);
  }
};

}  // namespace gbc::sim
