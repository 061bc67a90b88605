// CONGEST messages: word-counted payloads with inline storage.
//
// The model (§2.2) allows one message of O(log n) bits per edge per direction
// per round. A *word* is a block of O(log n) bits holding one node ID or one
// distance. Protocols in this library use messages of at most a small
// constant number of words (TZ DATA/ECHO and label-exchange chunks = 4,
// plus one header word when the reliable link layer frames them); the
// simulator enforces a configurable cap so no protocol can smuggle
// super-constant payloads through an edge in one round.
//
// Messages are trivially copyable: the payload lives in a fixed inline
// array of kMaxMessageCapacity = 5 words, the widest message any protocol
// sends (a reliable-framed TZ DATA/ECHO), so a Message is 48 bytes and an
// Inbound 56. Queuing a message is a plain copy into a flat buffer — no
// per-message heap allocation — and the bytes per message are what the
// simulator's delivery cost scales with once the working set outgrows the
// caches.
#pragma once

#include <cstdint>
#include <initializer_list>

#include "util/assert.hpp"

namespace dsketch {

using Word = std::uint64_t;

/// Compile-time ceiling on words per message. SimConfig::max_message_words
/// (the model's O(log n) budget, default 4; 5 under the reliable layer) must
/// stay at or below this.
inline constexpr std::size_t kMaxMessageCapacity = 5;

struct Message {
  Message() = default;
  Message(std::initializer_list<Word> ws) {
    for (const Word w : ws) push(w);
  }

  std::size_t size_words() const { return size_; }

  Message& push(Word w) {
    DS_CHECK(size_ < kMaxMessageCapacity);
    words_[size_++] = w;
    return *this;
  }
  Word at(std::size_t i) const {
    DS_CHECK(i < size_);
    return words_[i];
  }

 private:
  Word words_[kMaxMessageCapacity];
  std::uint32_t size_ = 0;
};

/// A message delivered to a node this round, tagged with the local index of
/// the edge it arrived on.
struct Inbound {
  std::uint32_t local_edge;
  Message msg;
};

static_assert(sizeof(Message) == 48 && sizeof(Inbound) == 56);

}  // namespace dsketch
