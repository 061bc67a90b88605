/// \file
/// The query service's per-shard answer cache: a flat set-associative map
/// from 64-bit pair keys (util/pair_key.hpp) to distances.
///
/// All slots are allocated at construction. A set is four (key, distance)
/// slots in one 64-byte cache line, so a probe touches one line and a miss
/// neither frees nor allocates. Within a set the slots are kept in recency
/// order, slot 0 the most recent: a hit moves its entry to the front and
/// an insert into a full set drops the last slot — LRU within a set, with
/// no index structure and no per-entry links. Capacity is rounded up to
/// whole sets; capacity 0 disables the cache. Single-threaded: the query
/// service gives each shard its own.
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <vector>

#include "graph/graph.hpp"

namespace dsketch {

/// Pair key -> distance, 4-way set-associative (see the file comment).
class AnswerCache {
 public:
  /// Entries per set: 4 keys and 4 distances fill one cache line.
  static constexpr std::size_t kWays = 4;

  /// Room for at least `capacity` entries; 0 disables the cache (get()
  /// always misses, put() drops).
  explicit AnswerCache(std::size_t capacity = 0)
      : sets_((capacity + kWays - 1) / kWays) {}

  /// Entries the cache can hold: the requested capacity rounded up to
  /// whole sets.
  std::size_t capacity() const { return sets_.size() * kWays; }
  /// Entries held.
  std::size_t size() const { return size_; }

  /// The cached distance for `key` (valid until the next put or clear),
  /// or nullptr. A hit becomes its set's most recent entry.
  const Dist* get(std::uint64_t key) {
    // The empty-slot marker is the pair (kInvalidNode, kInvalidNode),
    // never a valid query; it must miss, so the oracle rejects it.
    if (sets_.empty() || key == kEmpty) return nullptr;
    Set& set = set_of(key);
    for (std::size_t w = 0; w < kWays; ++w) {
      if (set.keys[w] == key) {
        promote(set, w);
        return &set.values[0];
      }
    }
    return nullptr;
  }

  /// Caches `key` -> `value` as its set's most recent entry, evicting the
  /// set's least recent one when the key is new and the set is full.
  void put(std::uint64_t key, Dist value) {
    if (sets_.empty()) return;
    Set& set = set_of(key);
    // Occupied slots are a prefix of the set, so when the key is absent
    // the last slot is either empty or the least recent entry.
    std::size_t w = 0;
    while (w + 1 < kWays && set.keys[w] != key) ++w;
    if (set.keys[w] == kEmpty) ++size_;
    set.keys[w] = key;
    set.values[w] = value;
    promote(set, w);
  }

  /// Drops every entry (a generation change); keeps the slots.
  void clear() {
    std::fill(sets_.begin(), sets_.end(), Set{});
    size_ = 0;
  }

 private:
  static constexpr std::uint64_t kEmpty = ~std::uint64_t{0};

  struct alignas(64) Set {
    std::uint64_t keys[kWays] = {kEmpty, kEmpty, kEmpty, kEmpty};
    Dist values[kWays] = {};
  };
  static_assert(sizeof(Set) == 64, "a set is one cache line");

  Set& set_of(std::uint64_t key) {
    // Fibonacci hashing, then the high word scaled onto the set count
    // (Lemire's multiply-shift range reduction): the shard was chosen by
    // a splitmix of the canonical key, so the set index takes other bits
    // of another mix.
    const std::uint64_t h = (key * 0x9e3779b97f4a7c15ULL) >> 32;
    return sets_[static_cast<std::size_t>((h * sets_.size()) >> 32)];
  }

  /// Moves slot `w` to the front of its set, shifting the more recent
  /// slots back by one.
  static void promote(Set& set, std::size_t w) {
    const std::uint64_t key = set.keys[w];
    const Dist value = set.values[w];
    for (; w > 0; --w) {
      set.keys[w] = set.keys[w - 1];
      set.values[w] = set.values[w - 1];
    }
    set.keys[0] = key;
    set.values[0] = value;
  }

  std::vector<Set> sets_;
  std::size_t size_ = 0;
};

}  // namespace dsketch
