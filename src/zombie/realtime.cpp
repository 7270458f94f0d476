#include "zombie/realtime.hpp"

namespace zombiescope::zombie {

void RealTimeZombieDetector::expect(const beacon::BeaconEvent& event) {
  if (event.superseded) return;
  // A recycled prefix supersedes the previous watch. Any zombie the old
  // watch had raised is resolved at the recycle instant: the fresh
  // announcement replaces the stuck route, so the route is no longer
  // stale even though no withdrawal ever cleared it.
  Watch& watch = watches_[event.prefix];
  for (const auto& [peer, state] : watch.peers) {
    (void)state;
    resolve(watch, peer, event.announce_time);
  }
  watch = Watch{};
  watch.event = event;
  watch.id = next_watch_id_++;
  deadlines_.emplace(event.withdraw_time + config_.threshold, event.prefix, watch.id);
}

void RealTimeZombieDetector::resolve(Watch& watch, const PeerKey& peer,
                                     netbase::TimePoint at) {
  auto it = watch.peers.find(peer);
  if (it == watch.peers.end()) return;
  if (it->second.alerted) {
    ++resolutions_;
    if (resolution_fn_) {
      ZombieResolution resolution;
      resolution.prefix = watch.event.prefix;
      resolution.peer = peer;
      resolution.withdrawn_at = watch.event.withdraw_time;
      resolution.resolved_at = at;
      resolution_fn_(resolution);
    }
  }
  it->second.announced = false;
  it->second.alerted = false;
}

void RealTimeZombieDetector::raise(const Watch& watch, const PeerKey& peer,
                                   Watch::PeerState& state, netbase::TimePoint at) {
  state.alerted = true;
  ++alerts_raised_;
  if (!alert_fn_) return;
  ZombieAlert alert;
  alert.prefix = watch.event.prefix;
  alert.peer = peer;
  alert.withdrawn_at = watch.event.withdraw_time;
  alert.raised_at = at;
  alert.stuck_path = state.path;
  alert_fn_(alert);
}

void RealTimeZombieDetector::fire_due(netbase::TimePoint last) {
  while (!deadlines_.empty() && std::get<0>(deadlines_.top()) <= last) {
    const auto [deadline, prefix, id] = deadlines_.top();
    deadlines_.pop();
    auto it = watches_.find(prefix);
    if (it == watches_.end() || it->second.id != id) continue;  // superseded
    Watch& watch = it->second;
    watch.deadline_fired = true;
    for (auto& [peer, state] : watch.peers) {
      if (state.announced && !state.alerted) raise(watch, peer, state, deadline);
    }
  }
}

void RealTimeZombieDetector::advance(netbase::TimePoint now) { fire_due(now); }

void RealTimeZombieDetector::ingest(const mrt::MrtRecord& record) {
  // Timestamps are whole seconds: a record stamped t still counts
  // towards a deadline at t.
  fire_due(mrt::record_timestamp(record) - 1);

  if (const auto* msg = std::get_if<mrt::Bgp4mpMessage>(&record)) {
    const PeerKey peer{msg->peer_asn, msg->peer_address};
    if (config_.excludes(peer)) return;
    const netbase::TimePoint t = msg->timestamp;
    for (const auto& prefix : msg->update.withdrawn) {
      auto it = watches_.find(prefix);
      if (it == watches_.end() || t < it->second.event.announce_time) continue;
      resolve(it->second, peer, t);
    }
    for (const auto& prefix : msg->update.announced) {
      auto it = watches_.find(prefix);
      if (it == watches_.end() || t < it->second.event.announce_time) continue;
      Watch& watch = it->second;
      auto& state = watch.peers[peer];
      state.announced = true;
      state.path = msg->update.attributes.as_path;
      // A (re)announcement after the deadline: the route is stuck or
      // resurrected — alert immediately.
      if (watch.deadline_fired && !state.alerted) raise(watch, peer, state, t);
    }
    return;
  }
  if (const auto* state_msg = std::get_if<mrt::Bgp4mpStateChange>(&record)) {
    if (state_msg->old_state == bgp::SessionState::kEstablished &&
        state_msg->new_state != bgp::SessionState::kEstablished) {
      const PeerKey peer{state_msg->peer_asn, state_msg->peer_address};
      for (auto& [prefix, watch] : watches_) {
        (void)prefix;
        resolve(watch, peer, state_msg->timestamp);
      }
    }
  }
}

std::vector<ZombieAlert> RealTimeZombieDetector::active_zombies() const {
  std::vector<ZombieAlert> out;
  for (const auto& [prefix, watch] : watches_) {
    for (const auto& [peer, state] : watch.peers) {
      if (!state.alerted) continue;
      ZombieAlert alert;
      alert.prefix = prefix;
      alert.peer = peer;
      alert.withdrawn_at = watch.event.withdraw_time;
      alert.stuck_path = state.path;
      out.push_back(std::move(alert));
    }
  }
  return out;
}

void ExpectQueue::release_until(netbase::TimePoint t, RealTimeZombieDetector& detector,
                                const OnRelease& on_release) {
  while (!pending_.empty() && pending_.begin()->first.first <= t) {
    const auto next = pending_.extract(pending_.begin());
    const auto [announce_time, ticket] = next.key();
    detector.advance(announce_time - 1);
    detector.expect(next.mapped());
    if (on_release) on_release(next.mapped(), ticket);
  }
}

}  // namespace zombiescope::zombie
