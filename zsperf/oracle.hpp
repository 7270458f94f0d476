// zsperf/oracle.hpp — the correctness oracle every run checks.
//
// A workload's answer is a set of ⟨prefix, peer⟩ pairs. The live
// workloads must emerge exactly the pairs the batch
// LongLivedZombieDetector finds over the same inputs (the repository's
// live == batch and wire == batch contract); the batch workload's
// long-lived pass must equal a single-threaded realtime detector's, and
// its noisy-peer pass must rediscover the scenario's ground truth.

#pragma once

#include <cstddef>
#include <set>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "beacon/schedule.hpp"
#include "mrt/record.hpp"
#include "netbase/time.hpp"
#include "zombie/longlived.hpp"
#include "zombie/types.hpp"

namespace zsperf {

namespace zs = zombiescope;

using PairSet = std::vector<std::pair<zs::netbase::Prefix, zs::zombie::PeerKey>>;

/// The detection threshold every workload uses (the paper's 90 min).
inline constexpr zs::netbase::Duration kThreshold = 90 * zs::netbase::kMinute;

/// Emerged pairs of the default longlived2024 spec on its default seed
/// (tests/live_e2e_test.cpp and tests/wire_e2e_test.cpp pin the same).
inline constexpr std::size_t kPinnedDefaultLongLivedPairs = 604;
/// The same for the benchmark's longlived2024 spec (60 monitor
/// sessions) on the default seed.
inline constexpr std::size_t kPinnedBenchLongLivedPairs = 696;

/// Batch reference: LongLivedZombieDetector over the records.
PairSet batch_pairs(std::span<const zs::mrt::MrtRecord> records,
                    std::span<const zs::beacon::BeaconEvent> events,
                    const std::set<zs::zombie::PeerKey>& excluded = {});

/// A single-threaded RealTimeZombieDetector over the records, with the
/// beacon expects delivered in stream order (the way a live shard
/// releases them) and the clock advanced one second past the last
/// deadline at the end. Returns the emerged (non-resurrected) pairs.
PairSet realtime_pairs(std::span<const zs::mrt::MrtRecord> records,
                       std::span<const zs::beacon::BeaconEvent> events,
                       const std::set<zs::zombie::PeerKey>& excluded = {});

/// A run's oracle result. The first failed requirement names the
/// failure; later ones only keep it failed.
struct Verdict {
  bool ok = true;
  std::string detail;  // empty when ok

  void require(bool condition, const std::string& what);
};

/// Compares two pair sets; on mismatch names the sizes and the first
/// extra and first missing pair.
void check_pairs(Verdict& verdict, const PairSet& got, const PairSet& want,
                 const std::string& what);

}  // namespace zsperf
