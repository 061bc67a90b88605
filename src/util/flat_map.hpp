// Open-addressing hash map for per-node protocol state.
//
// Linear probing over a power-of-two slot array. Deletion shifts the rest
// of the probe run back into the hole (no tombstones), so every lookup
// stops at the first empty slot. clear() empties the table but keeps its
// slots: a map that is filled and cleared once per protocol phase
// allocates only while it is still growing.
//
// Keys are a 32-bit node id or an (id, 64-bit value) pair. The all-ones
// id (kInvalidNode) marks an empty slot and is never a valid key.
#pragma once

#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

#include "util/assert.hpp"

namespace dsketch {

template <typename K, typename V>
class FlatMap {
 public:
  std::size_t size() const { return size_; }
  bool empty() const { return size_ == 0; }
  std::size_t capacity() const { return slots_.size(); }

  /// Index of the slot holding `key`, or capacity() when absent.
  std::size_t slot_of(const K& key) const {
    if (size_ == 0) return slots_.size();
    for (std::size_t i = home(key);; i = next(i)) {
      if (is_free(slots_[i].key)) return slots_.size();
      if (slots_[i].key == key) return i;
    }
  }

  /// The value stored under `key`, or nullptr.
  V* find(const K& key) {
    const std::size_t i = slot_of(key);
    return i == slots_.size() ? nullptr : &slots_[i].value;
  }

  /// The value under `key`, value-initialized first when absent; the flag
  /// is true when the entry was inserted. The pointer is valid until the
  /// next insertion or erase.
  std::pair<V*, bool> try_emplace(const K& key) {
    DS_CHECK(id_of(key) != kFreeId);
    if ((size_ + 1) * 2 > slots_.size()) grow();
    std::size_t i = home(key);
    for (; !is_free(slots_[i].key); i = next(i)) {
      if (slots_[i].key == key) return {&slots_[i].value, false};
    }
    slots_[i].key = key;
    slots_[i].value = V{};
    ++size_;
    return {&slots_[i].value, true};
  }
  V& operator[](const K& key) { return *try_emplace(key).first; }

  /// Removes `key`; returns false when it was absent.
  bool erase(const K& key) {
    std::size_t hole = slot_of(key);
    if (hole == slots_.size()) return false;
    // Backward shift: an entry further along the run moves into the hole
    // when the hole lies on its probe path (between its home and its slot).
    const std::size_t mask = slots_.size() - 1;
    for (std::size_t j = next(hole); !is_free(slots_[j].key); j = next(j)) {
      const std::size_t from_home = (j - home(slots_[j].key)) & mask;
      const std::size_t from_hole = (j - hole) & mask;
      if (from_hole <= from_home) {
        slots_[hole] = std::move(slots_[j]);
        hole = j;
      }
    }
    mark_free(slots_[hole].key);
    --size_;
    return true;
  }

  /// Empties the map; the slot array keeps its size.
  void clear() {
    if (size_ == 0) return;
    for (Slot& s : slots_) mark_free(s.key);
    size_ = 0;
  }

  /// Calls f(key, value) once per entry, in slot order.
  template <typename F>
  void for_each(F&& f) const {
    for (const Slot& s : slots_) {
      if (!is_free(s.key)) f(s.key, s.value);
    }
  }

 private:
  struct Slot {
    K key;
    V value;
  };

  static constexpr std::uint32_t kFreeId = ~std::uint32_t{0};

  static std::uint32_t id_of(std::uint32_t key) { return key; }
  static std::uint32_t id_of(const std::pair<std::uint32_t, std::uint64_t>& key) {
    return key.first;
  }
  static bool is_free(const K& key) { return id_of(key) == kFreeId; }
  static void mark_free(std::uint32_t& key) { key = kFreeId; }
  static void mark_free(std::pair<std::uint32_t, std::uint64_t>& key) {
    key.first = kFreeId;
  }

  // Multiplicative (Fibonacci) hashing: the slot is the top bits.
  static std::uint64_t mix(std::uint32_t key) {
    return key * 0x9E3779B97F4A7C15ULL;
  }
  static std::uint64_t mix(const std::pair<std::uint32_t, std::uint64_t>& key) {
    return (key.first * 0x9E3779B97F4A7C15ULL) ^
           (key.second * 0xC2B2AE3D27D4EB4FULL);
  }
  std::size_t home(const K& key) const {
    return static_cast<std::size_t>(mix(key) >> shift_);
  }
  std::size_t next(std::size_t i) const { return (i + 1) & (slots_.size() - 1); }

  /// Doubles the slot array (8 slots at first) and reinserts every entry;
  /// keeps the load at or below one half.
  void grow() {
    std::vector<Slot> old = std::move(slots_);
    const std::size_t cap = old.empty() ? 8 : 2 * old.size();
    slots_.assign(cap, Slot{});
    for (Slot& s : slots_) mark_free(s.key);
    shift_ = 64;
    for (std::size_t c = cap; c > 1; c >>= 1) --shift_;
    for (Slot& s : old) {
      if (is_free(s.key)) continue;
      std::size_t i = home(s.key);
      while (!is_free(slots_[i].key)) i = next(i);
      slots_[i] = std::move(s);
    }
  }

  std::vector<Slot> slots_;
  std::size_t size_ = 0;
  unsigned shift_ = 64;
};

}  // namespace dsketch
