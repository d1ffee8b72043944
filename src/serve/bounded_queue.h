// Bounded MPMC queue with explicit overflow policies.
//
// The serving tier (§3's per-request budget at FinOrg scale) must keep
// latency bounded when offered load exceeds scoring capacity.  An
// unbounded queue converts overload into unbounded latency; a bounded
// queue forces an explicit decision at the admission edge:
//
//   kBlock  — producers wait for space (lossless; backpressure is
//             pushed upstream to the caller's accept loop);
//   kReject — refuse the new request immediately (caller falls back to
//             its UA-only risk path and retries later).
//
// A refused item stays with the producer, never silently discarded, so
// the engine answers every admitted request and reports every refusal
// synchronously.
#pragma once

#include <chrono>
#include <condition_variable>
#include <cstddef>
#include <deque>
#include <mutex>
#include <utility>
#include <vector>

#include "obs/prof/contention.h"

namespace bp::serve {

enum class OverflowPolicy {
  kBlock,
  kReject,
};

enum class PushResult {
  kAccepted,  // item enqueued
  kRejected,  // queue full under kReject; item not enqueued
  kClosed,    // queue closed; item not enqueued
};

template <typename T>
class BoundedQueue {
 public:
  BoundedQueue(std::size_t capacity, OverflowPolicy policy)
      : capacity_(capacity == 0 ? 1 : capacity), policy_(policy) {}

  // Push under the configured policy.
  PushResult push(T item) {
    std::unique_lock lock(mutex_);
    if (closed_) return PushResult::kClosed;
    if (items_.size() >= capacity_) {
      if (policy_ == OverflowPolicy::kReject) return PushResult::kRejected;
      ++waiting_producers_;
      const auto wait_begin = push_block_site_ != nullptr
                                  ? std::chrono::steady_clock::now()
                                  : std::chrono::steady_clock::time_point{};
      not_full_.wait(lock,
                     [&] { return closed_ || items_.size() < capacity_; });
      --waiting_producers_;
      if (push_block_site_ != nullptr) {
        push_block_site_->record_block(static_cast<std::uint64_t>(
            std::chrono::duration_cast<std::chrono::nanoseconds>(
                std::chrono::steady_clock::now() - wait_begin)
                .count()));
      }
      if (closed_) return PushResult::kClosed;
    }
    items_.push_back(std::move(item));
    // Waiter-counted wakeups: under load the consumers are almost never
    // parked (they drain in batches), yet every push used to issue a
    // futex syscall anyway — per-item kernel round-trips that dominated
    // the queue's cost once producers outnumbered cores.  The counters
    // are mutex-protected, so a consumer that is *about to* wait is
    // either counted (gets the notify) or hasn't released the lock yet
    // (will see the item before waiting).
    if (waiting_consumers_ > 0) not_empty_.notify_one();
    return PushResult::kAccepted;
  }

  // Blocks until at least one item is available (or the queue closes),
  // then drains up to `max_batch` items into `out` (cleared first).
  // Returns false only when the queue is closed and fully drained.
  bool pop_batch(std::vector<T>& out, std::size_t max_batch) {
    out.clear();
    std::unique_lock lock(mutex_);
    if (closed_ || !items_.empty()) {
      // Fast path: skip the wait bookkeeping entirely when work is
      // already queued (the steady state under load).
    } else {
      ++waiting_consumers_;
      const auto wait_begin = pop_wait_site_ != nullptr
                                  ? std::chrono::steady_clock::now()
                                  : std::chrono::steady_clock::time_point{};
      not_empty_.wait(lock, [&] { return closed_ || !items_.empty(); });
      --waiting_consumers_;
      if (pop_wait_site_ != nullptr) {
        pop_wait_site_->record_block(static_cast<std::uint64_t>(
            std::chrono::duration_cast<std::chrono::nanoseconds>(
                std::chrono::steady_clock::now() - wait_begin)
                .count()));
      }
    }
    if (items_.empty()) return false;  // closed and drained
    const std::size_t n = std::min(max_batch, items_.size());
    for (std::size_t i = 0; i < n; ++i) {
      out.push_back(std::move(items_.front()));
      items_.pop_front();
    }
    if (policy_ == OverflowPolicy::kBlock && waiting_producers_ > 0) {
      not_full_.notify_all();
    }
    return true;
  }

  bool pop(T& out) {
    std::vector<T> batch;
    if (!pop_batch(batch, 1)) return false;
    out = std::move(batch.front());
    return true;
  }

  // Wakes all waiters; subsequent pushes fail with kClosed.  Items
  // already queued remain poppable until drained.
  void close() {
    {
      std::lock_guard lock(mutex_);
      closed_ = true;
    }
    not_empty_.notify_all();
    not_full_.notify_all();
  }

  bool closed() const {
    std::lock_guard lock(mutex_);
    return closed_;
  }

  std::size_t size() const {
    std::lock_guard lock(mutex_);
    return items_.size();
  }

  // Attribute blocking waits to named contention sites (/contentionz).
  // Null (the default) skips the clock reads entirely.  Call before the
  // queue goes concurrent — typically right after construction.
  void set_contention_sites(obs::prof::ContentionSite* push_block,
                            obs::prof::ContentionSite* pop_wait) noexcept {
    push_block_site_ = push_block;
    pop_wait_site_ = pop_wait;
  }

 private:
  const std::size_t capacity_;
  const OverflowPolicy policy_;
  mutable std::mutex mutex_;
  std::condition_variable not_empty_;
  std::condition_variable not_full_;
  std::deque<T> items_;
  bool closed_ = false;
  // Parked-thread counts (guarded by mutex_) so push/pop skip the
  // condition-variable syscall when nobody is waiting.
  std::size_t waiting_producers_ = 0;
  std::size_t waiting_consumers_ = 0;
  obs::prof::ContentionSite* push_block_site_ = nullptr;
  obs::prof::ContentionSite* pop_wait_site_ = nullptr;
};

}  // namespace bp::serve
