// A vector of words streamed over one edge as pipelined CONGEST messages:
// the framing shared by CDG label dissemination (sketch/cdg_sketch) and the
// query-time sketch exchange (congest/sketch_exchange).
//
//   <kStreamChunk, seq, w0, w1>   words [2 seq, 2 seq + 2) of the stream,
//                                 the last chunk zero-padded;
//   <kStreamEnd, total_words>     the stream's length.
//
// Chunks carry their sequence number, so a stream survives asynchronous,
// non-FIFO links and arrives whole in any order: ceil(words / 2) + 1
// messages, 4 words each except the 2-word end marker.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "congest/message.hpp"
#include "congest/protocol.hpp"

namespace dsketch {

/// Tags of a stream's messages. A protocol that sends messages of its own
/// beside a stream tags them with other values.
inline constexpr Word kStreamChunk = 1;
inline constexpr Word kStreamEnd = 2;

/// Queues `words` on `edge`: the chunks in order, then the end marker.
void send_word_stream(NodeCtx& ctx, std::uint32_t edge,
                      const std::vector<Word>& words);

/// Reassembles one stream from its chunk and end messages, in any order.
class WordStreamAssembler {
 public:
  /// Takes one kStreamChunk or kStreamEnd message; a repeated chunk is
  /// kept once.
  void absorb(const Message& m);
  /// True once the end marker and every chunk it announces have arrived.
  bool complete() const {
    return have_total_ && chunks_ == (total_ + 1) / 2;
  }
  /// The stream's words; the stream must be complete.
  std::vector<Word> words() const;

 private:
  std::vector<Word> words_;     ///< chunk payloads, by sequence number
  std::vector<char> received_;  ///< per sequence number: chunk arrived
  std::size_t chunks_ = 0;      ///< distinct chunks arrived
  std::size_t total_ = 0;
  bool have_total_ = false;
};

}  // namespace dsketch
