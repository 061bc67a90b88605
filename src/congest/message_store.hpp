// The simulator's one message store. Every half-edge's outbox is a Queue
// whose messages sit in fixed chunks of kChunkMessages, and every chunk
// comes from, and goes back to, a per-lane LIFO free list. A queue is a
// chain of chunks with a head cursor (the front's slot in the first chunk)
// and a size, and it holds a chunk only while a message of it is queued.
// So the store's footprint follows the messages in flight, plus at most a
// partly used chunk at each end of each busy queue, not every edge's
// deepest backlog.
//
// Lanes: push and pop take the lane id of the loop they run in
// (ThreadPool::for_each_dynamic hands it out), and a lane takes and
// returns chunks on its own list only. No lock is needed while each queue
// is touched by one lane at a time: in the simulator a node's step owns
// its outgoing queues and a receiver's pull its incoming ones. Senders and
// receivers run on different lanes, so chunks drift between the lists;
// rebalance(), called in a serial phase, evens them out. A lane whose list
// is empty allocates a block of chunks; blocks live as long as the store.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <vector>

#include "congest/message.hpp"

namespace dsketch {

class MessageStore {
  struct Chunk;

 public:
  /// Messages per chunk. Small chunks strand little of a queue's tail;
  /// two read best on the ladder's n = 1,024 build.
  static constexpr std::size_t kChunkMessages = 2;

  /// A FIFO of messages in the store. A default-constructed queue is
  /// empty, and an empty queue holds no chunk.
  class Queue {
   public:
    bool empty() const { return size_ == 0; }
    std::size_t size() const { return size_; }
    /// The oldest message; valid until the next pop or release of this
    /// queue.
    const Message& front() const { return head_->msgs[head_pos_]; }

   private:
    friend class MessageStore;
    Chunk* head_ = nullptr;
    Chunk* tail_ = nullptr;
    std::uint32_t head_pos_ = 0;  // the front's slot in *head_
    std::uint32_t size_ = 0;
  };

  /// A store with `lanes` free lists (at least one).
  explicit MessageStore(std::size_t lanes = 1);
  MessageStore(const MessageStore&) = delete;
  MessageStore& operator=(const MessageStore&) = delete;

  /// Appends m to q; takes a chunk from `lane`'s list when q's last chunk
  /// is full or q is empty.
  void push(Queue& q, const Message& m, std::size_t lane);
  /// Removes q's front (q must not be empty); gives its chunk back to
  /// `lane`'s list when no queued message is left in it.
  void pop(Queue& q, std::size_t lane);
  /// Drops every message of q and gives all of its chunks back to
  /// `lane`'s list.
  void release(Queue& q, std::size_t lane);
  /// Evens out the free lists, keeping their total. Serial phases only.
  void rebalance();

  /// Chunks allocated so far, queued or free.
  std::size_t allocated_chunks() const;
  /// Chunks on every free list together.
  std::size_t free_chunks() const;
  /// Chunks on `lane`'s free list.
  std::size_t free_chunks(std::size_t lane) const {
    return lanes_[lane].free_count;
  }

 private:
  struct Chunk {
    Message msgs[kChunkMessages];
    Chunk* next;  // the queue's next chunk, or the free list's
  };
  // One lane's free list and the blocks it allocated; a cache line of its
  // own, since every lane writes its list in the parallel phases.
  struct alignas(64) Lane {
    Chunk* free = nullptr;
    std::size_t free_count = 0;
    std::vector<std::unique_ptr<Chunk[]>> blocks;
  };

  Chunk* take(std::size_t lane);
  void give(Chunk* c, std::size_t lane);

  std::vector<Lane> lanes_;
};

}  // namespace dsketch
