#include "collector/collector.hpp"

#include <algorithm>

#include "obs/journal.hpp"

namespace zombiescope::collector {

namespace {

// Collector-side noise and session lifecycle events. These are the
// ground truth zsreport cross-checks detector decisions against: a
// kWithdrawalLost here explains a later kZombieDeclared.
void journal_noise(obs::JournalEventType type, netbase::TimePoint at,
                   bgp::Asn peer_asn, const netbase::IpAddress& peer_address,
                   const netbase::Prefix* prefix = nullptr, std::int64_t a = 0) {
  obs::Journal& journal = obs::Journal::global();
  constexpr std::uint32_t kCats = obs::kCatNoise | obs::kCatCollector;
  if (!journal.enabled(kCats)) return;
  obs::JournalEvent ev;
  ev.type = type;
  ev.time = at;
  if (prefix != nullptr) {
    ev.has_prefix = true;
    ev.prefix = *prefix;
  }
  ev.has_peer = true;
  ev.peer_asn = peer_asn;
  ev.peer_address = peer_address;
  ev.a = a;
  journal.emit(obs::category_of(type), ev);
}

}  // namespace

PeerSession::PeerSession(Collector& owner, SessionConfig config, netbase::Rng rng)
    : owner_(owner), config_(std::move(config)), rng_(std::move(rng)) {}

void PeerSession::record_announce(netbase::TimePoint t, const netbase::Prefix& prefix,
                                  const ViewEntry& entry) {
  mrt::Bgp4mpMessage m;
  m.timestamp = t;
  m.peer_asn = config_.peer_asn;
  m.local_asn = owner_.asn();
  m.peer_address = config_.peer_address;
  m.local_address = owner_.address(config_.peer_address.family());
  m.update.announced.push_back(prefix);
  m.update.attributes = entry.attributes;
  m.update.attributes.as_path = entry.path;
  // The next hop of a collector-facing session is the peer router.
  m.update.attributes.next_hop = config_.peer_address;
  owner_.append_update(std::move(m));
}

void PeerSession::record_withdraw(netbase::TimePoint t, const netbase::Prefix& prefix) {
  mrt::Bgp4mpMessage m;
  m.timestamp = t;
  m.peer_asn = config_.peer_asn;
  m.local_asn = owner_.asn();
  m.peer_address = config_.peer_address;
  m.local_address = owner_.address(config_.peer_address.family());
  m.update.withdrawn.push_back(prefix);
  owner_.append_update(std::move(m));
}

void PeerSession::record_state(netbase::TimePoint t, bgp::SessionState from,
                               bgp::SessionState to) {
  mrt::Bgp4mpStateChange s;
  s.timestamp = t;
  s.peer_asn = config_.peer_asn;
  s.local_asn = owner_.asn();
  s.peer_address = config_.peer_address;
  s.local_address = owner_.address(config_.peer_address.family());
  s.old_state = from;
  s.new_state = to;
  owner_.append_update(std::move(s));
}

void PeerSession::on_route_change(netbase::TimePoint t, const simnet::RibChange& change) {
  owner_.m_monitor_events_.inc();
  if (!established_) return;  // messages sent while the session is down are lost

  if (change.is_announcement()) {
    ViewEntry entry;
    entry.path = change.new_best->path.prepend(config_.peer_asn);
    entry.attributes = change.new_best->attributes;
    entry.learned = t;
    view_[change.prefix] = entry;
    ++generation_[change.prefix];
    record_announce(t, change.prefix, entry);
    return;
  }

  // Deterministic forced delays take precedence (the §5.1 uptick).
  for (const auto& forced : config_.forced_delays) {
    if (forced.prefix != change.prefix || sim_ == nullptr) continue;
    const std::uint64_t generation = generation_[change.prefix];
    const netbase::Prefix prefix = change.prefix;
    sim_->schedule_callback(t + forced.delay, [this, prefix, generation] {
      if (!established_) return;
      if (generation_[prefix] != generation) return;
      if (view_.erase(prefix) > 0) record_withdraw(sim_->now(), prefix);
    });
    return;
  }

  // Withdrawal. A noisy session may lose it: the collector's view (and
  // the archive) keep the stale route — a collector-side zombie.
  const bool noise_matches = !config_.noise_prefix_filter.has_value() ||
                             config_.noise_prefix_filter->covers(change.prefix);
  const double loss = config_.loss_probability_for(change.prefix.family());
  if (noise_matches && loss > 0.0 && rng_.chance(loss)) {
    owner_.m_withdrawals_lost_.inc();
    journal_noise(obs::JournalEventType::kWithdrawalLost, t, config_.peer_asn,
                  config_.peer_address, &change.prefix);
    return;
  }

  // Slow convergence: record the withdrawal late, unless a newer
  // announcement supersedes it first.
  if (noise_matches && sim_ != nullptr && config_.withdrawal_delay_probability > 0.0 &&
      rng_.chance(config_.withdrawal_delay_probability)) {
    const netbase::Duration delay = rng_.uniform_int(config_.withdrawal_delay_min,
                                                     config_.withdrawal_delay_max);
    journal_noise(obs::JournalEventType::kWithdrawalDelayed, t, config_.peer_asn,
                  config_.peer_address, &change.prefix, delay);
    const std::uint64_t generation = generation_[change.prefix];
    const netbase::Prefix prefix = change.prefix;
    sim_->schedule_callback(t + delay, [this, prefix, generation] {
      if (!established_) return;
      if (generation_[prefix] != generation) return;  // superseded
      if (view_.erase(prefix) > 0) record_withdraw(sim_->now(), prefix);
    });
    return;
  }

  auto view_it = view_.find(change.prefix);
  if (view_it == view_.end()) return;
  const ViewEntry withdrawn_entry = view_it->second;
  view_.erase(view_it);
  record_withdraw(t, change.prefix);

  // Phantom re-announcement of the stale route, shortly after.
  if (noise_matches && sim_ != nullptr && config_.phantom_reannounce_probability > 0.0 &&
      rng_.chance(config_.phantom_reannounce_probability)) {
    const netbase::Duration delay = rng_.uniform_int(config_.phantom_reannounce_min,
                                                     config_.phantom_reannounce_max);
    journal_noise(obs::JournalEventType::kPhantomReannounce, t, config_.peer_asn,
                  config_.peer_address, &change.prefix, delay);
    const std::uint64_t generation = ++generation_[change.prefix];
    const netbase::Prefix prefix = change.prefix;
    sim_->schedule_callback(t + delay, [this, prefix, generation, withdrawn_entry] {
      if (!established_) return;
      if (generation_[prefix] != generation) return;  // a real update got there first
      ViewEntry entry = withdrawn_entry;
      entry.learned = sim_->now();
      view_[prefix] = entry;
      record_announce(sim_->now(), prefix, entry);
    });
  }
}

void PeerSession::schedule_reset(simnet::Simulation& sim, netbase::TimePoint down,
                                 netbase::TimePoint up) {
  sim_ = &sim;
  sim.schedule_callback(down, [this] {
    if (!established_) return;
    established_ = false;
    const netbase::TimePoint t = sim_->now();
    record_state(t, bgp::SessionState::kEstablished, bgp::SessionState::kIdle);
    journal_noise(obs::JournalEventType::kCollectorSessionDown, t, config_.peer_asn,
                  config_.peer_address);
    // Session flush: every route of this peer is withdrawn from the
    // collector's point of view (RIS handles STATE messages exactly
    // this way, which the detectors must honor).
    view_.clear();
    for (auto& [prefix, generation] : generation_) {
      (void)prefix;
      ++generation;  // cancel pending delayed withdrawals
    }
  });
  sim.schedule_callback(up, [this] {
    if (established_) return;
    established_ = true;
    const netbase::TimePoint t = sim_->now();
    record_state(t, bgp::SessionState::kIdle, bgp::SessionState::kEstablished);
    journal_noise(obs::JournalEventType::kCollectorSessionUp, t, config_.peer_asn,
                  config_.peer_address);
    // The peer re-advertises its current table — including any route
    // still stuck in its RIB (zombie re-learn, Fig. 4's reappearance).
    const auto& peer_router = sim_->router(config_.peer_asn);
    for (const auto& [prefix, route] : peer_router.full_table()) {
      ViewEntry entry;
      entry.path = route.path.prepend(config_.peer_asn);
      entry.attributes = route.attributes;
      entry.learned = t;
      view_[prefix] = entry;
      ++generation_[prefix];
      record_announce(t, prefix, entry);
    }
  });
}

PeerSession& Collector::add_peer(simnet::Simulation& sim, const SessionConfig& config,
                                 netbase::Rng rng) {
  sessions_.push_back(std::make_unique<PeerSession>(*this, config, std::move(rng)));
  sessions_.back()->bind(sim);
  sim.attach_monitor(config.peer_asn, sessions_.back().get());
  return *sessions_.back();
}

void Collector::dump_ribs(netbase::TimePoint t) {
  m_rib_dumps_.inc();
  const std::size_t before = rib_dumps_.size();
  mrt::PeerIndexTable table;
  table.timestamp = t;
  table.collector_bgp_id = address_v4_.v4_value();
  table.view_name = name_;
  for (const auto& session : sessions_) {
    table.peers.push_back(
        {static_cast<std::uint32_t>(table.peers.size() + 1), session->config().peer_address,
         session->config().peer_asn});
  }
  rib_dumps_.push_back(table);

  // Gather prefixes visible in any session.
  std::map<netbase::Prefix, std::vector<std::pair<std::uint16_t, const ViewEntry*>>> by_prefix;
  for (std::size_t i = 0; i < sessions_.size(); ++i) {
    for (const auto& [prefix, entry] : sessions_[i]->view())
      by_prefix[prefix].emplace_back(static_cast<std::uint16_t>(i), &entry);
  }
  std::uint32_t sequence = 0;
  for (const auto& [prefix, entries] : by_prefix) {
    mrt::RibEntryRecord record;
    record.timestamp = t;
    record.sequence = sequence++;
    record.prefix = prefix;
    for (const auto& [peer_index, entry] : entries) {
      mrt::RibEntryRecord::Entry e;
      e.peer_index = peer_index;
      e.originated_time = entry->learned;
      e.attributes = entry->attributes;
      e.attributes.as_path = entry->path;
      // Dump next hops must match the prefix family (a v6-over-v4
      // session, like the paper's 176.119.234.201 peer, has a v4
      // session address but v6 routes).
      const auto& peer_addr = sessions_[peer_index]->config().peer_address;
      if (peer_addr.family() == prefix.family())
        e.attributes.next_hop = peer_addr;
      else
        e.attributes.next_hop.reset();
      record.entries.push_back(std::move(e));
    }
    rib_dumps_.push_back(std::move(record));
  }
  m_rib_records_.inc(rib_dumps_.size() - before);
}

void Collector::schedule_rib_dumps(simnet::Simulation& sim, netbase::TimePoint start,
                                   netbase::TimePoint end, netbase::Duration interval) {
  for (netbase::TimePoint t = start; t <= end; t += interval)
    sim.schedule_callback(t, [this, t] { dump_ribs(t); });
}

}  // namespace zombiescope::collector
