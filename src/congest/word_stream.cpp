#include "congest/word_stream.hpp"

#include "util/assert.hpp"

namespace dsketch {

void send_word_stream(NodeCtx& ctx, std::uint32_t edge,
                      const std::vector<Word>& words) {
  for (std::size_t i = 0; i < words.size(); i += 2) {
    ctx.send(edge, Message{kStreamChunk, i / 2, words[i],
                           i + 1 < words.size() ? words[i + 1] : 0});
  }
  ctx.send(edge, Message{kStreamEnd, words.size()});
}

void WordStreamAssembler::absorb(const Message& m) {
  if (m.at(0) == kStreamEnd) {
    total_ = static_cast<std::size_t>(m.at(1));
    have_total_ = true;
    return;
  }
  DS_CHECK(m.at(0) == kStreamChunk);
  const auto seq = static_cast<std::size_t>(m.at(1));
  if (seq >= received_.size()) {
    received_.resize(seq + 1, 0);
    words_.resize(2 * seq + 2, 0);
  }
  if (received_[seq]) return;
  received_[seq] = 1;
  ++chunks_;
  words_[2 * seq] = m.at(2);
  words_[2 * seq + 1] = m.at(3);
}

std::vector<Word> WordStreamAssembler::words() const {
  DS_CHECK(complete() && received_.size() == chunks_);
  return std::vector<Word>(words_.begin(),
                           words_.begin() + static_cast<std::ptrdiff_t>(total_));
}

}  // namespace dsketch
