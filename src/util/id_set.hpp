// A set of ids below a fixed bound, kept as a two-level bitset: one bit
// per id, and one summary bit per 64-id word that is nonzero. insert() is
// O(1); drain() lists the members in increasing order and empties the
// set, reading one summary word per 4,096 ids and one word per nonempty
// group of 64. The simulator keeps its activation sets in it, so they
// come out in id order without a sort.
#pragma once

#include <bit>
#include <cstddef>
#include <cstdint>
#include <vector>

namespace dsketch {

class IdSet {
 public:
  IdSet() = default;
  /// An empty set for ids in [0, bound).
  explicit IdSet(std::size_t bound)
      : words_((bound + 63) / 64), summary_((words_.size() + 63) / 64) {}

  bool empty() const { return size_ == 0; }
  std::size_t size() const { return size_; }

  /// Adds id; false when it was a member already.
  bool insert(std::uint32_t id) {
    std::uint64_t& word = words_[id / 64];
    const std::uint64_t bit = std::uint64_t{1} << (id % 64);
    if ((word & bit) != 0) return false;
    word |= bit;
    summary_[id / 4096] |= std::uint64_t{1} << (id / 64 % 64);
    ++size_;
    return true;
  }

  /// Replaces `out` with the members in increasing order and empties the
  /// set.
  void drain(std::vector<std::uint32_t>& out) {
    out.clear();
    for (std::size_t s = 0; s < summary_.size(); ++s) {
      for (std::uint64_t sw = summary_[s]; sw != 0; sw &= sw - 1) {
        const std::size_t w = s * 64 + std::countr_zero(sw);
        for (std::uint64_t bits = words_[w]; bits != 0; bits &= bits - 1) {
          out.push_back(static_cast<std::uint32_t>(w * 64) +
                        static_cast<std::uint32_t>(std::countr_zero(bits)));
        }
        words_[w] = 0;
      }
      summary_[s] = 0;
    }
    size_ = 0;
  }

 private:
  std::vector<std::uint64_t> words_;
  std::vector<std::uint64_t> summary_;
  std::size_t size_ = 0;
};

}  // namespace dsketch
