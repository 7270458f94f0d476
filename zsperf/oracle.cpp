#include "oracle.hpp"

#include <algorithm>
#include <iterator>
#include <numeric>

#include "zombie/realtime.hpp"

namespace zsperf {

namespace {

/// Sorted, deduplicated ⟨prefix, peer⟩ set of a long-lived result.
PairSet pairs_of(const zs::zombie::LongLivedResult& result) {
  std::set<std::pair<zs::netbase::Prefix, zs::zombie::PeerKey>> merged;
  for (const auto& outbreak : result.outbreaks)
    for (const auto& route : outbreak.routes) merged.insert({outbreak.prefix, route.peer});
  return {merged.begin(), merged.end()};
}

}  // namespace

PairSet batch_pairs(std::span<const zs::mrt::MrtRecord> records,
                    std::span<const zs::beacon::BeaconEvent> events,
                    const std::set<zs::zombie::PeerKey>& excluded) {
  zs::zombie::LongLivedConfig config;
  config.excluded_peers = excluded;
  const zs::zombie::LongLivedZombieDetector detector{config};
  return pairs_of(detector.detect(records, events, kThreshold));
}

PairSet realtime_pairs(std::span<const zs::mrt::MrtRecord> records,
                       std::span<const zs::beacon::BeaconEvent> events,
                       const std::set<zs::zombie::PeerKey>& excluded) {
  zs::zombie::RealTimeConfig config;
  config.threshold = kThreshold;
  config.excluded_peers = excluded;
  zs::zombie::RealTimeZombieDetector detector(config);
  std::set<std::pair<zs::netbase::Prefix, zs::zombie::PeerKey>> emerged;
  detector.on_alert([&](const zs::zombie::ZombieAlert& alert) {
    if (alert.raised_at <= alert.withdrawn_at + kThreshold)
      emerged.insert({alert.prefix, alert.peer});
  });
  // Stream order: by announce time, registration order breaking ties.
  std::vector<std::size_t> order(events.size());
  std::iota(order.begin(), order.end(), std::size_t{0});
  std::stable_sort(order.begin(), order.end(), [&](std::size_t a, std::size_t b) {
    return events[a].announce_time < events[b].announce_time;
  });
  zs::netbase::TimePoint last_deadline = 0;
  for (const auto& event : events)
    if (!event.superseded)
      last_deadline = std::max(last_deadline, event.withdraw_time + kThreshold);
  std::size_t next = 0;
  const auto deliver_until = [&](zs::netbase::TimePoint t) {
    while (next < order.size() && events[order[next]].announce_time <= t) {
      const auto& event = events[order[next++]];
      detector.advance(event.announce_time);
      detector.expect(event);
    }
  };
  for (const auto& record : records) {
    deliver_until(zs::mrt::record_timestamp(record));
    detector.ingest(record);
  }
  deliver_until(last_deadline + 1);
  detector.advance(last_deadline + 1);
  return {emerged.begin(), emerged.end()};
}

void Verdict::require(bool condition, const std::string& what) {
  if (condition) return;
  if (ok) detail = what;
  ok = false;
}

void check_pairs(Verdict& verdict, const PairSet& got, const PairSet& want,
                 const std::string& what) {
  if (got == want) return;
  PairSet extra;
  PairSet missing;
  std::set_difference(got.begin(), got.end(), want.begin(), want.end(),
                      std::back_inserter(extra));
  std::set_difference(want.begin(), want.end(), got.begin(), got.end(),
                      std::back_inserter(missing));
  std::string detail = what + ": " + std::to_string(got.size()) + " pairs, expected " +
                       std::to_string(want.size());
  const auto name = [](const PairSet::value_type& pair) {
    return pair.first.to_string() + " " + zs::zombie::to_string(pair.second);
  };
  if (!extra.empty())
    detail += "; " + std::to_string(extra.size()) + " extra, first " + name(extra.front());
  if (!missing.empty())
    detail += "; " + std::to_string(missing.size()) + " missing, first " + name(missing.front());
  verdict.require(false, detail);
}

}  // namespace zsperf
