// Growable ring buffer with deque semantics for the packet hot path.
//
// `std::deque` allocates and frees a ~512-byte chunk every few packets as a
// FIFO window slides through it, which puts the allocator on the per-packet
// path of every egress queue. This ring keeps one power-of-two buffer that
// starts small and only grows (capacity is retained for the rest of the
// run), so steady-state enqueue/dequeue never touches the heap.
#pragma once

#include <cstddef>
#include <utility>
#include <vector>

namespace amrt::net {

template <typename T>
class RingDeque {
 public:
  static constexpr std::size_t kFirstCapacity = 4;  // a power of two

  [[nodiscard]] bool empty() const { return size_ == 0; }
  [[nodiscard]] std::size_t size() const { return size_; }
  [[nodiscard]] std::size_t capacity() const { return buf_.size(); }

  [[nodiscard]] T& front() { return buf_[head_]; }
  [[nodiscard]] const T& front() const { return buf_[head_]; }
  // Index 0 is the front (oldest element).
  [[nodiscard]] T& operator[](std::size_t i) { return buf_[wrap(head_ + i)]; }
  [[nodiscard]] const T& operator[](std::size_t i) const { return buf_[wrap(head_ + i)]; }

  void push_back(T&& v) {
    if (size_ == buf_.size()) grow();
    buf_[wrap(head_ + size_)] = std::move(v);
    ++size_;
  }

  // Prepends: the new element becomes index 0 (used by loss-repair queues,
  // where fresh detections jump ahead of scheduled retries).
  void push_front(T&& v) {
    if (size_ == buf_.size()) grow();
    head_ = wrap(head_ + buf_.size() - 1);
    buf_[head_] = std::move(v);
    ++size_;
  }

  T pop_front() {
    T out = std::move(buf_[head_]);
    head_ = wrap(head_ + 1);
    --size_;
    return out;
  }

  // Removes the element at `i`, shifting the (younger) tail side forward.
  void erase(std::size_t i) {
    for (std::size_t j = i; j + 1 < size_; ++j) {
      (*this)[j] = std::move((*this)[j + 1]);
    }
    --size_;
  }

 private:
  [[nodiscard]] std::size_t wrap(std::size_t i) const { return i & (buf_.size() - 1); }

  void grow() {
    // Start at 4 and double. Most of a large fabric's queues never hold more
    // than a few packets, and the first buffer is kept for the rest of the
    // run on every queue that ever sees a packet; a deep incast queue
    // replays the ladder only once (DESIGN.md §8).
    const std::size_t cap = buf_.empty() ? kFirstCapacity : buf_.size() * 2;
    std::vector<T> next(cap);
    for (std::size_t i = 0; i < size_; ++i) next[i] = std::move((*this)[i]);
    buf_ = std::move(next);
    head_ = 0;
  }

  std::vector<T> buf_;
  std::size_t head_ = 0;
  std::size_t size_ = 0;
};

}  // namespace amrt::net
