// netbase/ring.hpp — the bounded lock-free MPSC ring.
//
// Vyukov's sequence-number ring: each slot carries an atomic sequence
// that hands the slot back and forth between producers and the single
// consumer, so push and pop are two atomic ops each on the fast path
// and never allocate. Producers claim a position with one CAS and
// never wait; a full ring makes try_push fail, and what that means
// (drop and count, or park and retry) is the caller's policy. Only one
// thread may pop at a time: callers with several would-be consumers
// serialize them under a mutex.
//
// Users: the live shard queues (live/queue.hpp wraps the ring in a
// park/condvar layer), the zsobs journal and the causal hop tracer.

#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <utility>

namespace zombiescope::netbase {

template <typename T>
class Ring {
 public:
  /// Capacity is rounded up to a power of two (minimum 2).
  explicit Ring(std::size_t capacity) {
    std::size_t cap = 2;
    while (cap < capacity) cap <<= 1;
    capacity_ = cap;
    slots_ = std::make_unique<Slot[]>(cap);
    for (std::size_t i = 0; i < cap; ++i) {
      slots_[i].seq.store(i, std::memory_order_relaxed);
    }
  }
  Ring(const Ring&) = delete;
  Ring& operator=(const Ring&) = delete;

  std::size_t capacity() const { return capacity_; }

  /// Lock-free multi-producer push; false when the ring is full.
  template <typename U>
  bool try_push(U&& item) {
    std::uint64_t pos = enqueue_pos_.load(std::memory_order_relaxed);
    for (;;) {
      Slot& slot = slots_[pos & (capacity_ - 1)];
      const std::uint64_t seq = slot.seq.load(std::memory_order_acquire);
      const auto dif = static_cast<std::intptr_t>(seq) - static_cast<std::intptr_t>(pos);
      if (dif == 0) {
        if (enqueue_pos_.compare_exchange_weak(pos, pos + 1,
                                               std::memory_order_relaxed)) {
          slot.value = std::forward<U>(item);
          slot.seq.store(pos + 1, std::memory_order_release);
          return true;
        }
      } else if (dif < 0) {
        return false;  // full
      } else {
        pos = enqueue_pos_.load(std::memory_order_relaxed);
      }
    }
  }

  /// Single-consumer pop; false when empty.
  bool try_pop(T& out) {
    const std::uint64_t pos = dequeue_pos_.load(std::memory_order_relaxed);
    Slot& slot = slots_[pos & (capacity_ - 1)];
    const std::uint64_t seq = slot.seq.load(std::memory_order_acquire);
    if (static_cast<std::intptr_t>(seq) - static_cast<std::intptr_t>(pos + 1) < 0) {
      return false;
    }
    out = std::move(slot.value);
    slot.value = T{};  // release owned resources while the slot idles
    slot.seq.store(pos + capacity_, std::memory_order_release);
    dequeue_pos_.store(pos + 1, std::memory_order_relaxed);
    return true;
  }

  /// Approximate fill (racy by nature; for gauges and stats).
  std::size_t approx_size() const {
    const std::uint64_t enq = enqueue_pos_.load(std::memory_order_relaxed);
    const std::uint64_t deq = dequeue_pos_.load(std::memory_order_relaxed);
    return enq >= deq ? static_cast<std::size_t>(enq - deq) : 0;
  }

 private:
  struct Slot {
    std::atomic<std::uint64_t> seq{0};
    T value{};
  };

  std::size_t capacity_ = 0;
  std::unique_ptr<Slot[]> slots_;
  alignas(64) std::atomic<std::uint64_t> enqueue_pos_{0};
  alignas(64) std::atomic<std::uint64_t> dequeue_pos_{0};
};

}  // namespace zombiescope::netbase
