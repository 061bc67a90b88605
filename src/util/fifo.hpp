// Flat FIFO queue in place of std::deque: contiguous storage, O(1)
// amortized pop via a head cursor. A drained queue keeps its buffer; a
// long-lived one compacts once the consumed prefix outweighs the rest.
// Protocols keep their per-node send queues in it. The simulator's
// outboxes are not Fifos: one per half-edge would keep every edge's
// deepest backlog, so they share the chunked congest/message_store.hpp.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

namespace dsketch {

template <typename T>
class Fifo {
 public:
  bool empty() const { return head_ == q_.size(); }
  std::size_t size() const { return q_.size() - head_; }
  void push(const T& v) { q_.push_back(v); }
  T& front() { return q_[head_]; }
  void pop() {
    if (++head_ == q_.size()) {
      clear();
    } else if (head_ >= 64 && head_ * 2 >= q_.size()) {
      q_.erase(q_.begin(), q_.begin() + head_);
      head_ = 0;
    }
  }
  void clear() {
    q_.clear();
    head_ = 0;
  }

 private:
  std::vector<T> q_;
  std::uint32_t head_ = 0;
};

}  // namespace dsketch
