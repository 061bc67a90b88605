#include "congest/message_store.hpp"

#include <algorithm>

namespace dsketch {

namespace {
// Chunks per allocated block (about 52 KB at two messages a chunk).
constexpr std::size_t kBlockChunks = 512;
}  // namespace

MessageStore::MessageStore(std::size_t lanes)
    : lanes_(std::max<std::size_t>(lanes, 1)) {}

MessageStore::Chunk* MessageStore::take(std::size_t lane) {
  Lane& l = lanes_[lane];
  if (l.free == nullptr) {
    auto block = std::make_unique<Chunk[]>(kBlockChunks);
    // Threaded so the block is handed out in address order.
    for (std::size_t i = kBlockChunks; i-- > 0;) {
      block[i].next = l.free;
      l.free = &block[i];
    }
    l.free_count += kBlockChunks;
    l.blocks.push_back(std::move(block));
  }
  Chunk* c = l.free;
  l.free = c->next;
  --l.free_count;
  return c;
}

void MessageStore::give(Chunk* c, std::size_t lane) {
  Lane& l = lanes_[lane];
  c->next = l.free;
  l.free = c;
  ++l.free_count;
}

void MessageStore::push(Queue& q, const Message& m, std::size_t lane) {
  // An empty queue's head cursor is 0, so its first message takes slot 0.
  const std::size_t slot = (q.head_pos_ + q.size_) % kChunkMessages;
  if (q.size_ == 0) {
    q.head_ = q.tail_ = take(lane);
  } else if (slot == 0) {
    Chunk* c = take(lane);
    q.tail_->next = c;
    q.tail_ = c;
  }
  q.tail_->msgs[slot] = m;
  ++q.size_;
}

void MessageStore::pop(Queue& q, std::size_t lane) {
  if (--q.size_ == 0) {
    give(q.head_, lane);
    q = Queue{};
  } else if (++q.head_pos_ == kChunkMessages) {
    Chunk* done = q.head_;
    q.head_ = done->next;
    q.head_pos_ = 0;
    give(done, lane);
  }
}

void MessageStore::release(Queue& q, std::size_t lane) {
  if (q.size_ == 0) return;
  // The tail's `next` is stale, so the walk stops at the tail.
  for (Chunk* c = q.head_;;) {
    Chunk* next = c->next;
    const bool last = c == q.tail_;
    give(c, lane);
    if (last) break;
    c = next;
  }
  q = Queue{};
}

void MessageStore::rebalance() {
  if (lanes_.size() == 1) return;
  const std::size_t target = free_chunks() / lanes_.size();
  const auto move_top = [](Chunk*& from, Chunk*& to) {
    Chunk* c = from;
    from = c->next;
    c->next = to;
    to = c;
  };
  // Lists above the target give their surplus to a spare list, which
  // fills the lists below it; the remainder (fewer chunks than lanes)
  // goes to lane 0.
  Chunk* spare = nullptr;
  for (Lane& l : lanes_) {
    for (; l.free_count > target; --l.free_count) move_top(l.free, spare);
  }
  for (Lane& l : lanes_) {
    for (; l.free_count < target; ++l.free_count) move_top(spare, l.free);
  }
  while (spare != nullptr) {
    move_top(spare, lanes_[0].free);
    ++lanes_[0].free_count;
  }
}

std::size_t MessageStore::allocated_chunks() const {
  std::size_t blocks = 0;
  for (const Lane& l : lanes_) blocks += l.blocks.size();
  return blocks * kBlockChunks;
}

std::size_t MessageStore::free_chunks() const {
  std::size_t total = 0;
  for (const Lane& l : lanes_) total += l.free_count;
  return total;
}

}  // namespace dsketch
