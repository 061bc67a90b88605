/// \file
/// Generation-tagged oracle snapshots — the hot-swap primitive of the
/// serving tier.
///
/// A serving frontend holds its DistanceOracle behind an OracleSlot. The
/// query path pins the slot once per batch and works against the pinned
/// snapshots for the whole batch: oracle pointer, generation number, and
/// the capability bits the cache policy needs are captured together, so a
/// concurrent swap can never tear a batch across two oracles. One mutex
/// guards the (current, previous) pair: a pin or a publish holds it only
/// long enough to copy two shared_ptrs, so a reader waits at most that
/// long, once per batch. The old oracle stays alive until the last
/// in-flight batch drops its shared_ptr.
///
/// Generations are strictly increasing and identify which oracle answered
/// a batch; the query service invalidates per-shard caches by comparing
/// the shard's recorded generation against the pinned snapshot's.
#pragma once

#include <cstdint>
#include <memory>
#include <mutex>
#include <utility>

#include "core/oracle.hpp"
#include "util/assert.hpp"

namespace dsketch {

/// One immutable published oracle: what a batch pins at its start.
struct OracleSnapshot {
  std::shared_ptr<const DistanceOracle> oracle;
  std::uint64_t generation = 0;
  /// Cached oracle->capabilities().symmetric: whether a cache in front
  /// of this oracle may key the canonical (min, max) pair.
  bool symmetric = false;
};

/// What a batch pins: the current snapshot and the one it displaced (the
/// query service's failover target for a slice whose batch call throws;
/// its oracle is null until the first store()).
struct PinnedSnapshots {
  OracleSnapshot current;   ///< what answers the batch
  OracleSnapshot previous;  ///< what current displaced
};

/// The swappable slot. Every member is safe from any thread.
class OracleSlot {
 public:
  /// The slot always holds an oracle; generation starts at 0.
  explicit OracleSlot(std::shared_ptr<const DistanceOracle> initial)
      : pinned_{make_snapshot(std::move(initial)), {}} {}

  /// The current and previous snapshots, read under one lock so they are
  /// always a consistent pair.
  PinnedSnapshots pin() const {
    std::lock_guard<std::mutex> lock(mu_);
    return pinned_;
  }

  /// The current snapshot.
  OracleSnapshot load() const {
    std::lock_guard<std::mutex> lock(mu_);
    return pinned_.current;
  }

  /// Publishes `next` under the next generation and returns it; the
  /// displaced snapshot becomes the previous one.
  std::uint64_t store(std::shared_ptr<const DistanceOracle> next) {
    OracleSnapshot snap = make_snapshot(std::move(next));
    OracleSnapshot dropped;  // released after the lock: a free can be slow
    std::lock_guard<std::mutex> lock(mu_);
    snap.generation = pinned_.current.generation + 1;
    dropped = std::exchange(pinned_.previous,
                            std::exchange(pinned_.current, std::move(snap)));
    return pinned_.current.generation;
  }

  /// Generation of the current snapshot.
  std::uint64_t generation() const {
    std::lock_guard<std::mutex> lock(mu_);
    return pinned_.current.generation;
  }

 private:
  /// A generation-0 snapshot of `oracle`; store() sets the generation.
  static OracleSnapshot make_snapshot(
      std::shared_ptr<const DistanceOracle> oracle) {
    DS_CHECK(oracle != nullptr);
    OracleSnapshot snap;
    snap.symmetric = oracle->capabilities().symmetric;
    snap.oracle = std::move(oracle);
    return snap;
  }

  mutable std::mutex mu_;
  PinnedSnapshots pinned_;
};

/// Wraps a caller-owned oracle reference in a non-owning shared_ptr (the
/// compat path for services constructed over a bare reference).
inline std::shared_ptr<const DistanceOracle> borrow_oracle(
    const DistanceOracle& oracle) {
  return std::shared_ptr<const DistanceOracle>(
      std::shared_ptr<const DistanceOracle>{}, &oracle);
}

}  // namespace dsketch
