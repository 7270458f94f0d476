#include "zombie/longlived.hpp"

#include <algorithm>
#include <map>

#include "obs/journal.hpp"
#include "obs/trace.hpp"
#include "zombie/detector_metrics.hpp"
#include "zombie/realtime.hpp"

namespace zombiescope::zombie {

namespace {

using internal::PassTimer;
using internal::detector_metrics;
using netbase::Duration;
using netbase::Prefix;
using netbase::TimePoint;

}  // namespace

LongLivedResult LongLivedZombieDetector::detect(
    std::span<const mrt::MrtRecord> records, std::span<const beacon::BeaconEvent> events,
    Duration threshold) const {
  obs::ScopedSpan span("zombie.detect.longlived");
  PassTimer timer;
  internal::DetectorMetrics& metrics = detector_metrics();
  metrics.records_scanned.inc(records.size());
  LongLivedResult result;

  RealTimeZombieDetector engine(RealTimeConfig{config_, threshold});

  ExpectQueue expects;
  std::vector<const beacon::BeaconEvent*> studied;
  TimePoint last_deadline = 0;
  for (const auto& event : events) {
    if (event.superseded) continue;
    expects.push(event);
    studied.push_back(&event);
    last_deadline = std::max(last_deadline, event.withdraw_time + threshold);
  }
  result.total_announcements = static_cast<int>(studied.size());

  // The engine keeps one watch per prefix, so an alert belongs to the
  // event released last for its prefix.
  std::map<Prefix, std::size_t> watching;
  const ExpectQueue::OnRelease on_release = [&](const beacon::BeaconEvent& event,
                                                std::size_t ticket) {
    watching[event.prefix] = ticket;
  };
  std::vector<std::vector<ZombieRoute>> stuck(studied.size());
  engine.on_alert([&](const ZombieAlert& alert) {
    // Only the deadline check is the stuck rule's verdict; a later
    // alert is a route announced again after a clean deadline.
    if (alert.raised_at != alert.withdrawn_at + threshold) return;
    const std::size_t ticket = watching.at(alert.prefix);
    const beacon::BeaconEvent& event = *studied[ticket];
    ZombieRoute route;
    route.peer = alert.peer;
    route.prefix = event.prefix;
    route.interval_start = event.announce_time;
    route.withdraw_time = event.withdraw_time;
    route.path = alert.stuck_path;
    stuck[ticket].push_back(std::move(route));
  });
  for (const auto& record : records) {
    expects.release_until(mrt::record_timestamp(record), engine, on_release);
    engine.ingest(record);
  }
  expects.release_until(last_deadline, engine, on_release);
  engine.advance(last_deadline);
  metrics.candidates.inc(static_cast<std::uint64_t>(engine.alerts_raised()));

  // Assemble outbreaks in event order, routes in peer order.
  obs::Journal& journal = obs::Journal::global();
  for (std::size_t i = 0; i < studied.size(); ++i) {
    if (stuck[i].empty()) continue;
    const beacon::BeaconEvent& event = *studied[i];
    if (journal.enabled(obs::kCatDetector)) {
      for (const ZombieRoute& route : stuck[i]) {
        obs::JournalEvent ev;
        ev.time = event.withdraw_time + threshold;
        ev.has_prefix = true;
        ev.prefix = event.prefix;
        ev.has_peer = true;
        ev.peer_asn = route.peer.asn;
        ev.peer_address = route.peer.address;
        ev.a = threshold;
        ev.b = event.withdraw_time;
        ev.c = event.announce_time;
        ev.type = obs::JournalEventType::kThresholdCrossed;
        journal.emit(obs::kCatDetector, ev);
        ev.type = obs::JournalEventType::kZombieDeclared;
        journal.emit(obs::kCatDetector, ev);
      }
    }
    ZombieOutbreak outbreak;
    outbreak.prefix = event.prefix;
    outbreak.interval_start = event.announce_time;
    outbreak.withdraw_time = event.withdraw_time;
    outbreak.routes = std::move(stuck[i]);
    result.outbreaks.push_back(std::move(outbreak));
  }
  metrics.outbreaks.inc(result.outbreaks.size());
  metrics.routes.inc(static_cast<std::uint64_t>(result.route_count()));
  return result;
}

std::vector<SweepPoint> LongLivedZombieDetector::sweep(
    std::span<const mrt::MrtRecord> records, std::span<const beacon::BeaconEvent> events,
    std::span<const Duration> thresholds) const {
  std::vector<SweepPoint> out;
  for (Duration threshold : thresholds) {
    const LongLivedResult result = detect(records, events, threshold);
    SweepPoint point;
    point.threshold = threshold;
    point.outbreaks = static_cast<int>(result.outbreaks.size());
    point.routes = result.route_count();
    point.announcement_fraction = result.outbreak_fraction();
    out.push_back(point);
  }
  return out;
}

std::vector<OutbreakLifespan> LifespanAnalyzer::analyze(
    std::span<const mrt::MrtRecord> rib_dumps, std::span<const beacon::BeaconEvent> events,
    Duration dump_interval) const {
  obs::ScopedSpan span("zombie.analyze.lifespans");
  PassTimer timer;
  internal::DetectorMetrics& metrics = detector_metrics();
  metrics.records_scanned.inc(rib_dumps.size());
  // Final withdrawal time per studied prefix.
  std::map<Prefix, TimePoint> final_withdrawal;
  for (const auto& event : events) {
    if (event.superseded) continue;
    auto [it, inserted] = final_withdrawal.try_emplace(event.prefix, event.withdraw_time);
    if (!inserted) it->second = std::max(it->second, event.withdraw_time);
  }

  // Sightings per (prefix, peer): sorted dump timestamps + path.
  struct Sighting {
    TimePoint at;
    bgp::AsPath path;
  };
  std::map<Prefix, std::map<PeerKey, std::vector<Sighting>>> sightings;

  mrt::PeerIndexTable current_index;
  for (const auto& record : rib_dumps) {
    if (const auto* index = std::get_if<mrt::PeerIndexTable>(&record)) {
      current_index = *index;
      continue;
    }
    const auto* rib = std::get_if<mrt::RibEntryRecord>(&record);
    if (rib == nullptr) continue;
    auto fw = final_withdrawal.find(rib->prefix);
    if (fw == final_withdrawal.end()) continue;
    if (rib->timestamp <= fw->second) continue;  // before the final withdrawal
    for (const auto& entry : rib->entries) {
      if (entry.peer_index >= current_index.peers.size()) continue;
      const auto& dir = current_index.peers[entry.peer_index];
      const PeerKey peer{dir.asn, dir.address};
      if (config_.excludes(peer)) continue;
      sightings[rib->prefix][peer].push_back({rib->timestamp, entry.attributes.as_path});
    }
  }

  std::vector<OutbreakLifespan> out;
  for (auto& [prefix, peers] : sightings) {
    OutbreakLifespan lifespan;
    lifespan.prefix = prefix;
    lifespan.withdraw_time = final_withdrawal.at(prefix);

    // Per-peer presence intervals: consecutive dumps (gap <= dump
    // interval) merge into one interval.
    for (auto& [peer, list] : peers) {
      std::sort(list.begin(), list.end(),
                [](const Sighting& a, const Sighting& b) { return a.at < b.at; });
      PresenceInterval interval;
      interval.peer = peer;
      for (std::size_t i = 0; i < list.size(); ++i) {
        if (i == 0 || list[i].at - list[i - 1].at > dump_interval) {
          if (i != 0) lifespan.intervals.push_back(interval);
          interval.first_seen = list[i].at;
        }
        interval.last_seen = list[i].at;
        interval.path = list[i].path;
      }
      lifespan.intervals.push_back(interval);
      lifespan.last_seen = std::max(lifespan.last_seen, interval.last_seen);
    }

    // Resurrections at the prefix level: the union of presence across
    // peers goes dark for more than one dump period, then a peer sees
    // the route again (with no beacon announcement possible — all
    // sightings are past the final withdrawal).
    // Coverage starts at the withdrawal: a first appearance more than
    // one dump period later is already a resurrection (the Fig. 4
    // prefix was withdrawn on 06-21 and first re-appeared on 06-29).
    TimePoint covered_until = lifespan.withdraw_time;
    std::vector<const PresenceInterval*> sorted;
    for (const auto& interval : lifespan.intervals) sorted.push_back(&interval);
    std::sort(sorted.begin(), sorted.end(), [](const auto* a, const auto* b) {
      return a->first_seen < b->first_seen;
    });
    obs::Journal& journal = obs::Journal::global();
    for (const auto* interval : sorted) {
      if (interval->first_seen > covered_until + dump_interval) {
        OutbreakLifespan::Resurrection res;
        res.vanished_at = covered_until;
        res.reappeared_at = interval->first_seen;
        res.peer = interval->peer;
        if (journal.enabled(obs::kCatLifespan)) {
          obs::JournalEvent ev;
          ev.type = obs::JournalEventType::kResurrectionDetected;
          ev.time = res.reappeared_at;
          ev.has_prefix = true;
          ev.prefix = prefix;
          ev.has_peer = true;
          ev.peer_asn = res.peer.asn;
          ev.peer_address = res.peer.address;
          ev.a = res.vanished_at;
          ev.b = res.reappeared_at;
          journal.emit(obs::kCatLifespan, ev);
        }
        lifespan.resurrections.push_back(res);
      }
      covered_until = std::max(covered_until, interval->last_seen);
    }
    if (journal.enabled(obs::kCatLifespan)) {
      obs::JournalEvent ev;
      ev.type = obs::JournalEventType::kLifespanClosed;
      ev.time = lifespan.last_seen;
      ev.has_prefix = true;
      ev.prefix = prefix;
      ev.a = lifespan.withdraw_time;
      ev.b = lifespan.last_seen;
      journal.emit(obs::kCatLifespan, ev);
    }

    out.push_back(std::move(lifespan));
  }
  metrics.lifespans.inc(out.size());
  return out;
}

}  // namespace zombiescope::zombie
