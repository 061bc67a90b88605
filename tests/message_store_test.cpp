// The simulator's outbox queue and the chunked message store behind it:
// FIFO order through chains of many chunks, chunks handed back as soon as
// a queue no longer needs them (LIFO, so the next push reuses the chunk
// freed last), release() returning a whole chain, and rebalance() evening
// out the lanes' free lists without losing a chunk.
#include <gtest/gtest.h>

#include <cstddef>
#include <deque>
#include <vector>

#include "congest/message_store.hpp"

namespace dsketch {
namespace {

constexpr std::size_t kChunk = MessageStore::kChunkMessages;

TEST(MessageStore, QueueIsFifoFarAboveTheChunkSize) {
  MessageStore store;
  MessageStore::Queue q;
  std::deque<Word> expected;
  Word next = 0;
  const auto pop_and_check = [&] {
    ASSERT_FALSE(q.empty());
    EXPECT_EQ(q.front().at(0), expected.front());
    expected.pop_front();
    store.pop(q, 0);
  };
  // Grow to a depth of 300 chunks' worth, popping one message for every
  // three pushed, then shrink while still pushing.
  while (expected.size() < 300 * kChunk) {
    for (int i = 0; i < 3; ++i) {
      store.push(q, Message{next}, 0);
      expected.push_back(next++);
    }
    pop_and_check();
  }
  EXPECT_EQ(q.size(), expected.size());
  while (expected.size() > 3) {
    store.push(q, Message{next}, 0);
    expected.push_back(next++);
    pop_and_check();
    pop_and_check();
  }
  while (!expected.empty()) pop_and_check();
  EXPECT_TRUE(q.empty());
  EXPECT_EQ(store.free_chunks(), store.allocated_chunks());
}

TEST(MessageStore, DrainedQueueHoldsNoChunkAndTheNextPushReusesTheLastFreed) {
  MessageStore store;
  MessageStore::Queue q;
  for (Word w = 0; w <= kChunk; ++w) store.push(q, Message{w}, 0);
  // kChunk + 1 messages span two chunks.
  EXPECT_EQ(store.allocated_chunks() - store.free_chunks(), 2u);
  for (std::size_t i = 0; i < kChunk; ++i) store.pop(q, 0);
  EXPECT_EQ(store.allocated_chunks() - store.free_chunks(), 1u);
  const Message* last = &q.front();
  store.pop(q, 0);
  EXPECT_TRUE(q.empty());
  EXPECT_EQ(store.free_chunks(), store.allocated_chunks());

  MessageStore::Queue other;
  store.push(other, Message{7}, 0);
  EXPECT_EQ(&other.front(), last);
  EXPECT_EQ(other.front().at(0), 7u);
}

TEST(MessageStore, ReleaseReturnsEveryChunk) {
  MessageStore store(2);
  std::vector<MessageStore::Queue> queues(5);
  for (std::size_t i = 0; i < queues.size(); ++i) {
    for (std::size_t m = 0; m < 1 + 7 * i; ++m) {
      store.push(queues[i], Message{m}, i % 2);
    }
  }
  // Pop part of one queue so a release starts mid-chunk.
  store.pop(queues[3], 1);
  EXPECT_LT(store.free_chunks(), store.allocated_chunks());
  for (MessageStore::Queue& q : queues) {
    store.release(q, 0);
    EXPECT_TRUE(q.empty());
  }
  EXPECT_EQ(store.free_chunks(), store.allocated_chunks());
  // A released queue is usable again.
  store.push(queues[0], Message{3}, 1);
  EXPECT_EQ(queues[0].front().at(0), 3u);
}

TEST(MessageStore, RebalanceKeepsTheTotalAndEvensTheLists) {
  constexpr std::size_t kLanes = 3;
  MessageStore store(kLanes);
  // Chunks taken on lane 0 and given back on lane 2: lane 2 ends up with
  // every free chunk it did not allocate.
  std::vector<MessageStore::Queue> queues(40);
  for (MessageStore::Queue& q : queues) {
    for (Word w = 0; w < 25; ++w) store.push(q, Message{w}, 0);
  }
  for (MessageStore::Queue& q : queues) {
    while (!q.empty()) store.pop(q, 2);
  }
  const std::size_t allocated = store.allocated_chunks();
  EXPECT_EQ(store.free_chunks(1), 0u);
  EXPECT_GT(store.free_chunks(2), store.free_chunks(0));

  store.rebalance();
  EXPECT_EQ(store.allocated_chunks(), allocated);
  EXPECT_EQ(store.free_chunks(), allocated);
  const std::size_t target = allocated / kLanes;
  EXPECT_EQ(store.free_chunks(0), allocated - (kLanes - 1) * target);
  for (std::size_t lane = 1; lane < kLanes; ++lane) {
    EXPECT_EQ(store.free_chunks(lane), target);
  }
  // Lane 1 now serves a push from its new share: nothing is allocated.
  store.push(queues[0], Message{1}, 1);
  EXPECT_EQ(store.allocated_chunks(), allocated);
  EXPECT_EQ(store.free_chunks(1), target - 1);
}

}  // namespace
}  // namespace dsketch
