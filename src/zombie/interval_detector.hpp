// zombie/interval_detector.hpp — the paper's §3 replication
// methodology for RIPE RIS beacons.
//
// Messages are divided into 4-hour intervals starting at the beacon
// announcement times; each interval is processed independently with
// no prior routing state. A beacon is a zombie at a peer if, at
// withdraw_time + threshold, the last in-interval update for it is an
// announcement. The *revised* methodology additionally decodes the
// Aggregator IP clock of the stuck announcement: if it predates this
// interval's announcement, the zombie belongs to a previous interval
// and is a duplicate (double-counting elimination). Noisy peers can
// be excluded.

#pragma once

#include <set>
#include <span>
#include <vector>

#include "beacon/schedule.hpp"
#include "mrt/record.hpp"
#include "zombie/state.hpp"
#include "zombie/types.hpp"

namespace zombiescope::zombie {

struct IntervalDetectorConfig : PeerFilter {
  /// Stuck threshold after the withdrawal (the paper: 90 minutes).
  netbase::Duration threshold = 90 * netbase::kMinute;
};

struct IntervalDetectionResult {
  /// Every stuck route found, including duplicates (flagged).
  std::vector<ZombieRoute> routes;
  /// Outbreaks including duplicates — "with double-counting".
  std::vector<ZombieOutbreak> outbreaks_with_duplicates;
  /// Outbreaks after the Aggregator filter — "without double-counting".
  std::vector<ZombieOutbreak> outbreaks_deduplicated;
  /// ⟨beacon, interval⟩ pairs visible at >= 1 peer (Table 1's
  /// "#visible prefixes").
  int visible_prefixes = 0;
  /// Per ⟨beacon, interval⟩ peer-AS visibility, for emergence rates:
  /// pairs (prefix, interval_start, set of peer ASNs that announced).
  struct Visibility {
    netbase::Prefix prefix;
    netbase::TimePoint interval_start;
    std::set<bgp::Asn> announcing_asns;
  };
  std::vector<Visibility> visibility;

  /// Per ⟨beacon, interval, peer⟩ path observation for the Fig. 6
  /// analysis: the "normal" path held when the beacon was withdrawn
  /// and, if the peer became a zombie, the stuck path.
  struct PathObservation {
    netbase::Prefix prefix;
    netbase::TimePoint interval_start = 0;
    PeerKey peer;
    std::optional<bgp::AsPath> normal_path;  // best path at withdraw time
    std::optional<bgp::AsPath> zombie_path;  // stuck path at check time
    bool duplicate = false;                  // zombie flagged by the Aggregator filter
    bool is_zombie() const { return zombie_path.has_value(); }
  };
  std::vector<PathObservation> observations;
};

class IntervalZombieDetector {
 public:
  explicit IntervalZombieDetector(IntervalDetectorConfig config) : config_(config) {}

  /// Runs detection over a time-sorted record stream for the given
  /// beacon events (from RisBeaconSchedule::events).
  IntervalDetectionResult detect(std::span<const mrt::MrtRecord> records,
                                 std::span<const beacon::BeaconEvent> events) const;

 private:
  IntervalDetectorConfig config_;
};

/// Convenience filters over outbreak lists.
std::vector<ZombieOutbreak> filter_family(std::span<const ZombieOutbreak> outbreaks,
                                          netbase::AddressFamily family);

}  // namespace zombiescope::zombie
