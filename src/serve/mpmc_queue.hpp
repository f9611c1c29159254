#pragma once

#include <algorithm>
#include <condition_variable>
#include <cstddef>
#include <deque>
#include <mutex>
#include <utility>

namespace plim::serve {

/// Bounded multi-producer/multi-consumer FIFO queue — the work conduit
/// between the compile server's request readers and its worker pool.
///
/// One mutex guards a std::deque: producers park on `not_full_` while
/// the queue holds `capacity()` elements, consumers park on
/// `not_empty_` while it is empty. A job costs a compile (milliseconds
/// to seconds), so one lock acquisition per push and pop is never the
/// bottleneck.
///
/// close() ends the stream: subsequent pushes are refused, parked
/// threads wake, and pop() keeps draining until the queue is empty —
/// the graceful-shutdown contract (answer everything already accepted,
/// accept nothing new).
template <typename T>
class MpmcQueue {
 public:
  /// A capacity of 0 is treated as 1.
  explicit MpmcQueue(std::size_t capacity)
      : capacity_(std::max<std::size_t>(capacity, 1)) {}

  MpmcQueue(const MpmcQueue&) = delete;
  MpmcQueue& operator=(const MpmcQueue&) = delete;

  [[nodiscard]] std::size_t capacity() const noexcept { return capacity_; }

  /// Blocking enqueue: parks while the queue is full. False once closed
  /// (the element is not enqueued), also when close() runs while this
  /// push is parked.
  bool push(T value) {
    {
      std::unique_lock<std::mutex> lock(mutex_);
      not_full_.wait(lock,
                     [this]() { return closed_ || items_.size() < capacity_; });
      if (closed_) {
        return false;
      }
      items_.push_back(std::move(value));
    }
    not_empty_.notify_one();
    return true;
  }

  /// Blocking dequeue: parks while the queue is empty. False only when
  /// the queue is closed *and* fully drained — pending elements are
  /// always delivered first.
  bool pop(T& out) {
    {
      std::unique_lock<std::mutex> lock(mutex_);
      not_empty_.wait(lock, [this]() { return closed_ || !items_.empty(); });
      if (items_.empty()) {
        return false;  // closed and drained
      }
      out = std::move(items_.front());
      items_.pop_front();
    }
    not_full_.notify_one();
    return true;
  }

  /// Refuses future pushes and wakes every parked thread; elements
  /// already enqueued remain poppable.
  void close() {
    {
      const std::lock_guard<std::mutex> lock(mutex_);
      closed_ = true;
    }
    not_empty_.notify_all();
    not_full_.notify_all();
  }

  [[nodiscard]] bool closed() const {
    const std::lock_guard<std::mutex> lock(mutex_);
    return closed_;
  }

  /// Elements currently queued (the queue-depth gauge).
  [[nodiscard]] std::size_t size() const {
    const std::lock_guard<std::mutex> lock(mutex_);
    return items_.size();
  }

 private:
  const std::size_t capacity_;
  mutable std::mutex mutex_;
  std::condition_variable not_empty_;
  std::condition_variable not_full_;
  std::deque<T> items_;
  bool closed_ = false;
};

}  // namespace plim::serve
