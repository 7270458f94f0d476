// live/queue.hpp — the bounded MPSC ring between feed sources and
// shard workers.
//
// The lock-free core is netbase::Ring (a queued MrtRecord owns prefix
// vectors, so the ring moves elements). Blocking is deliberately
// layered *around* the ring, not inside it: try_push/try_pop never
// wait, and the condvar pair is only touched when one side has
// announced (via an atomic flag) that it is parked. Live feeds use try_push and count the drop when a shard is
// saturated (backpressure must never slow the wire); replay and bench
// producers use push_blocking, which turns a full queue into
// backpressure instead of data loss — that is why the throughput
// bench reports zero drops by construction.

#pragma once

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <mutex>

#include "netbase/ring.hpp"

namespace zombiescope::live {

template <typename T>
class BoundedMpscQueue {
 public:
  /// Capacity is rounded up to a power of two (minimum 2).
  explicit BoundedMpscQueue(std::size_t capacity) : ring_(capacity) {}
  BoundedMpscQueue(const BoundedMpscQueue&) = delete;
  BoundedMpscQueue& operator=(const BoundedMpscQueue&) = delete;

  std::size_t capacity() const { return ring_.capacity(); }

  /// Non-blocking push; false when the ring is full or closed.
  bool try_push(T&& item) {
    if (closed_.load(std::memory_order_relaxed)) return false;
    if (!ring_.try_push(std::move(item))) return false;
    if (consumer_parked_.load(std::memory_order_acquire)) {
      std::lock_guard<std::mutex> lock(wait_mutex_);
      not_empty_.notify_one();
    }
    return true;
  }

  /// Waits for space instead of dropping. Returns false only when the
  /// queue is closed.
  bool push_blocking(T&& item) {
    while (!try_push(std::move(item))) {
      if (closed_.load(std::memory_order_relaxed)) return false;
      std::unique_lock<std::mutex> lock(wait_mutex_);
      producer_parked_.fetch_add(1, std::memory_order_release);
      // Bounded wait: a missed notify costs one timeout, never a hang.
      not_full_.wait_for(lock, std::chrono::milliseconds(10));
      producer_parked_.fetch_sub(1, std::memory_order_release);
    }
    return true;
  }

  /// Single-consumer pop; false when empty.
  bool try_pop(T& out) { return ring_.try_pop(out); }

  /// Consumer-side wait-for-item with a bounded timeout; false on
  /// timeout (call again) or when closed and drained.
  bool pop_wait(T& out, std::chrono::milliseconds timeout) {
    if (try_pop(out)) return true;
    std::unique_lock<std::mutex> lock(wait_mutex_);
    consumer_parked_.store(true, std::memory_order_release);
    const auto deadline = std::chrono::steady_clock::now() + timeout;
    bool got = false;
    while (!(got = try_pop(out))) {
      if (closed_.load(std::memory_order_relaxed)) {
        got = try_pop(out);  // final drain race
        break;
      }
      if (not_empty_.wait_until(lock, deadline) == std::cv_status::timeout) {
        got = try_pop(out);
        break;
      }
    }
    consumer_parked_.store(false, std::memory_order_release);
    return got;
  }

  /// Consumer calls this after draining a batch so parked producers
  /// re-check for space.
  void notify_space() {
    if (producer_parked_.load(std::memory_order_acquire) > 0) {
      std::lock_guard<std::mutex> lock(wait_mutex_);
      not_full_.notify_all();
    }
  }

  /// Marks the queue closed: pushes start failing, parked threads wake.
  void close() {
    closed_.store(true, std::memory_order_release);
    std::lock_guard<std::mutex> lock(wait_mutex_);
    not_empty_.notify_all();
    not_full_.notify_all();
  }
  bool closed() const { return closed_.load(std::memory_order_relaxed); }

  /// Approximate fill (racy by nature; for gauges and stats).
  std::size_t approx_size() const { return ring_.approx_size(); }

 private:
  netbase::Ring<T> ring_;
  std::atomic<bool> closed_{false};
  std::atomic<bool> consumer_parked_{false};
  std::atomic<int> producer_parked_{0};
  std::mutex wait_mutex_;
  std::condition_variable not_empty_;
  std::condition_variable not_full_;
};

}  // namespace zombiescope::live
