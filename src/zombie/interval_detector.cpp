#include "zombie/interval_detector.hpp"

#include <algorithm>
#include <map>

#include "beacon/clock.hpp"
#include "obs/journal.hpp"
#include "obs/trace.hpp"
#include "zombie/detector_metrics.hpp"

namespace zombiescope::zombie {

namespace {

using netbase::TimePoint;

/// Per-interval, per-peer, per-prefix fold of the last update before
/// the check time, with no state carried across intervals (§3.1).
struct LastUpdate {
  bool announced = false;       // last message type
  bool seen_announce = false;   // any announcement inside [A, check)
  bgp::AsPath path;
  std::optional<bgp::Aggregator> aggregator;
  TimePoint at = 0;
  /// State at the beacon's withdrawal instant (the "normal" route).
  bool normal_present = false;
  bgp::AsPath normal_path;
};

}  // namespace

IntervalDetectionResult IntervalZombieDetector::detect(
    std::span<const mrt::MrtRecord> records,
    std::span<const beacon::BeaconEvent> events) const {
  obs::ScopedSpan span("zombie.detect.interval");
  internal::PassTimer timer;
  internal::DetectorMetrics& metrics = internal::detector_metrics();
  metrics.records_scanned.inc(records.size());
  IntervalDetectionResult result;

  // Index events by announce time; intervals inherit the RIS period.
  std::vector<beacon::BeaconEvent> sorted(events.begin(), events.end());
  std::sort(sorted.begin(), sorted.end(),
            [](const auto& a, const auto& b) { return a.announce_time < b.announce_time; });
  if (sorted.empty()) return result;

  // Group events that share an announce time into one interval.
  struct Interval {
    TimePoint start;
    TimePoint end;  // next announce time (exclusive)
    std::vector<beacon::BeaconEvent> beacons;
  };
  std::vector<Interval> intervals;
  for (const auto& event : sorted) {
    if (intervals.empty() || intervals.back().start != event.announce_time)
      intervals.push_back({event.announce_time, 0, {}});
    intervals.back().beacons.push_back(event);
  }
  for (std::size_t i = 0; i < intervals.size(); ++i)
    intervals[i].end = i + 1 < intervals.size()
                           ? intervals[i + 1].start
                           : intervals[i].start + beacon::RisBeaconSchedule::kPeriod;

  // Single chronological sweep: records and intervals are both sorted.
  std::size_t cursor = 0;
  for (const auto& interval : intervals) {
    // Skip records before this interval (already consumed by earlier
    // intervals; the paper's per-interval independence means records
    // before the announcement are deliberately ignored).
    while (cursor < records.size() &&
           mrt::record_timestamp(records[cursor]) < interval.start)
      ++cursor;

    // Collect the interval's messages for the beacons of interest.
    std::map<netbase::Prefix, std::map<PeerKey, LastUpdate>> table;
    std::map<netbase::Prefix, const beacon::BeaconEvent*> beacon_of;
    TimePoint max_check = 0;
    for (const auto& event : interval.beacons) {
      beacon_of[event.prefix] = &event;
      max_check = std::max(max_check, event.withdraw_time + config_.threshold);
    }

    std::size_t scan = cursor;
    while (scan < records.size()) {
      const auto& record = records[scan];
      const TimePoint t = mrt::record_timestamp(record);
      if (t >= interval.end || t > max_check) break;
      ++scan;
      if (const auto* msg = std::get_if<mrt::Bgp4mpMessage>(&record)) {
        const PeerKey peer{msg->peer_asn, msg->peer_address};
        if (config_.excludes(peer)) continue;
        for (const auto& prefix : msg->update.withdrawn) {
          auto it = beacon_of.find(prefix);
          if (it == beacon_of.end() || t > it->second->withdraw_time + config_.threshold)
            continue;
          LastUpdate& last = table[prefix][peer];
          if (t <= it->second->withdraw_time) last.normal_present = false;
          last.announced = false;
          last.at = t;
        }
        for (const auto& prefix : msg->update.announced) {
          auto it = beacon_of.find(prefix);
          if (it == beacon_of.end() || t > it->second->withdraw_time + config_.threshold)
            continue;
          LastUpdate& last = table[prefix][peer];
          last.announced = true;
          last.seen_announce = true;
          last.path = msg->update.attributes.as_path;
          last.aggregator = msg->update.attributes.aggregator;
          last.at = t;
          if (t <= it->second->withdraw_time) {
            last.normal_present = true;
            last.normal_path = last.path;
          }
        }
      } else if (const auto* state = std::get_if<mrt::Bgp4mpStateChange>(&record)) {
        // A session leaving Established removes the peer's routes.
        if (state->old_state == bgp::SessionState::kEstablished &&
            state->new_state != bgp::SessionState::kEstablished) {
          const PeerKey peer{state->peer_asn, state->peer_address};
          for (auto& [prefix, peers] : table) {
            auto it = peers.find(peer);
            if (it == peers.end()) continue;
            if (it->second.announced) {
              it->second.announced = false;
              it->second.at = state->timestamp;
            }
            auto beacon_it = beacon_of.find(prefix);
            if (beacon_it != beacon_of.end() &&
                state->timestamp <= beacon_it->second->withdraw_time)
              it->second.normal_present = false;
          }
        }
      }
    }

    // Evaluate each beacon of the interval.
    for (const auto& event : interval.beacons) {
      auto table_it = table.find(event.prefix);
      if (table_it == table.end()) continue;

      IntervalDetectionResult::Visibility vis;
      vis.prefix = event.prefix;
      vis.interval_start = interval.start;

      ZombieOutbreak outbreak;
      outbreak.prefix = event.prefix;
      outbreak.interval_start = interval.start;
      outbreak.withdraw_time = event.withdraw_time;
      ZombieOutbreak deduped = outbreak;

      metrics.candidates.inc(table_it->second.size());
      for (const auto& [peer, last] : table_it->second) {
        if (last.seen_announce) vis.announcing_asns.insert(peer.asn);

        IntervalDetectionResult::PathObservation obs;
        obs.prefix = event.prefix;
        obs.interval_start = interval.start;
        obs.peer = peer;
        if (last.normal_present) obs.normal_path = last.normal_path;

        if (!last.announced) {  // withdrawn (or flushed) in time
          if (obs.normal_path.has_value()) result.observations.push_back(std::move(obs));
          continue;
        }

        ZombieRoute route;
        route.peer = peer;
        route.prefix = event.prefix;
        route.interval_start = interval.start;
        route.withdraw_time = event.withdraw_time;
        route.path = last.path;
        if (last.aggregator.has_value())
          route.aggregator_time = beacon::decode_aggregator_clock(
              last.aggregator->address, last.at);
        // Revised methodology: a stuck announcement whose clock
        // predates this interval's announcement was already counted.
        route.duplicate =
            route.aggregator_time.has_value() && *route.aggregator_time < interval.start;

        obs.zombie_path = route.path;
        obs.duplicate = route.duplicate;
        result.observations.push_back(std::move(obs));

        obs::Journal& journal = obs::Journal::global();
        if (journal.enabled(obs::kCatDetector)) {
          obs::JournalEvent ev;
          ev.time = event.withdraw_time + config_.threshold;
          ev.has_prefix = true;
          ev.prefix = event.prefix;
          ev.has_peer = true;
          ev.peer_asn = peer.asn;
          ev.peer_address = peer.address;
          ev.a = config_.threshold;
          ev.b = event.withdraw_time;
          ev.c = interval.start;
          ev.type = obs::JournalEventType::kThresholdCrossed;
          journal.emit<obs::kCatDetector>(ev);
          if (route.duplicate) {
            ev.type = obs::JournalEventType::kDuplicateSuppressed;
            ev.a = *route.aggregator_time;
            ev.b = interval.start;
            ev.c = 0;
          } else {
            ev.type = obs::JournalEventType::kZombieDeclared;
          }
          journal.emit<obs::kCatDetector>(ev);
        }

        outbreak.routes.push_back(route);
        if (!route.duplicate) deduped.routes.push_back(route);
        result.routes.push_back(std::move(route));
      }

      if (!vis.announcing_asns.empty()) {
        ++result.visible_prefixes;
        result.visibility.push_back(std::move(vis));
      }
      if (!outbreak.routes.empty())
        result.outbreaks_with_duplicates.push_back(std::move(outbreak));
      if (!deduped.routes.empty())
        result.outbreaks_deduplicated.push_back(std::move(deduped));
    }

    cursor = scan;
  }

  metrics.outbreaks.inc(result.outbreaks_deduplicated.size());
  metrics.routes.inc(result.routes.size());
  return result;
}

std::vector<ZombieOutbreak> filter_family(std::span<const ZombieOutbreak> outbreaks,
                                          netbase::AddressFamily family) {
  std::vector<ZombieOutbreak> out;
  for (const auto& outbreak : outbreaks)
    if (outbreak.prefix.family() == family) out.push_back(outbreak);
  return out;
}

}  // namespace zombiescope::zombie
