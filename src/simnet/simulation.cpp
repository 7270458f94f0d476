#include "simnet/simulation.hpp"

#include <algorithm>
#include <stdexcept>

#include "obs/journal.hpp"

namespace zombiescope::simnet {

namespace {

std::pair<bgp::Asn, bgp::Asn> norm(bgp::Asn a, bgp::Asn b) {
  return a < b ? std::make_pair(a, b) : std::make_pair(b, a);
}

// Fault injections are the causes the journal exists to record: a
// zombie declared downstream traces back to one of these events.
void journal_fault(obs::JournalEventType type, netbase::TimePoint at, bgp::Asn from,
                   bgp::Asn to, const netbase::Prefix* prefix = nullptr) {
  obs::Journal& journal = obs::Journal::global();
  if (!journal.enabled(obs::kCatFault)) return;
  obs::JournalEvent ev;
  ev.type = type;
  ev.time = at;
  if (prefix != nullptr) {
    ev.has_prefix = true;
    ev.prefix = *prefix;
  }
  ev.a = from;
  ev.b = to;
  journal.emit(obs::kCatFault, ev);
}

// Causal-tracing hook: one HopRecord per link traversal outcome.
// Costs one branch (ctx.sampled()) per hop of an unsampled wave.
void record_hop(const obs::TraceContext& ctx, const netbase::Prefix& prefix,
                bgp::Asn from, bgp::Asn to, netbase::TimePoint at, obs::TraceKind kind,
                obs::HopDecision decision) {
  if (!ctx.sampled()) return;
  obs::HopRecord record;
  record.trace_id = ctx.trace_id;
  record.prefix = prefix;
  record.from_asn = from;
  record.to_asn = to;
  record.time = at;
  record.hop = ctx.hop;
  record.kind = kind;
  record.decision = decision;
  obs::causal_record(record);
}

}  // namespace

Simulation::Simulation(const topology::Topology& topo, const SimConfig& config,
                       netbase::Rng rng)
    : topo_(topo),
      config_(config),
      rng_(std::move(rng)),
      m_events_(obs::Registry::global().counter("zs_simnet_events_processed_total")),
      m_delivered_(obs::Registry::global().counter("zs_simnet_messages_delivered_total")),
      m_suppressed_(obs::Registry::global().counter("zs_simnet_messages_suppressed_total")),
      m_stalled_(obs::Registry::global().counter("zs_simnet_messages_stalled_total")),
      m_rib_changes_(obs::Registry::global().counter("zs_simnet_rib_changes_total")),
      m_queue_depth_(obs::Registry::global().gauge("zs_simnet_event_queue_depth")) {
  for (bgp::Asn asn : topo.all_asns()) {
    std::map<bgp::Asn, topology::Relationship> neighbors;
    for (const auto& [neighbor, rel] : topo.neighbors(asn)) neighbors[neighbor] = rel;
    routers_.emplace(asn, Router(asn, std::move(neighbors), rpki::RovPolicy::kNone));
  }
  // Draw one symmetric delay per link.
  for (bgp::Asn asn : topo.all_asns()) {
    for (const auto& [neighbor, rel] : topo.neighbors(asn)) {
      (void)rel;
      const auto key = norm(asn, neighbor);
      if (!delays_.contains(key))
        delays_[key] = rng_.uniform_int(config_.min_link_delay, config_.max_link_delay);
    }
  }
}

void Simulation::set_roa_table(const rpki::RoaTable* roas) { roas_ = roas; }

void Simulation::set_rov_policy(bgp::Asn asn, rpki::RovPolicy policy) {
  Router& r = router(asn);
  r = Router(r.asn(), r.neighbors(), policy);
}

void Simulation::add_withdrawal_suppression(const WithdrawalSuppression& fault) {
  suppressions_.push_back(fault);
}

void Simulation::add_receive_stall(const ReceiveStall& fault) { stalls_.push_back(fault); }

void Simulation::schedule_session_reset(netbase::TimePoint at, bgp::Asn a, bgp::Asn b) {
  schedule_session_outage(at, at + config_.session_reset_downtime, a, b);
}

void Simulation::schedule_session_outage(netbase::TimePoint down_at,
                                         netbase::TimePoint up_at, bgp::Asn a, bgp::Asn b) {
  push(down_at, SessionDown{a, b});
  push(up_at, SessionUp{a, b});
}

void Simulation::announce(netbase::TimePoint at, bgp::Asn origin,
                          const netbase::Prefix& prefix, bgp::PathAttributes attributes) {
  push(at, OriginateAction{origin, prefix, std::move(attributes), true});
}

void Simulation::withdraw(netbase::TimePoint at, bgp::Asn origin,
                          const netbase::Prefix& prefix) {
  push(at, OriginateAction{origin, prefix, {}, false});
}

void Simulation::attach_monitor(bgp::Asn asn, MonitorSink* sink) {
  if (!topo_.has_as(asn))
    throw std::invalid_argument("monitor on unknown AS " + std::to_string(asn));
  monitors_.emplace(asn, sink);
}

void Simulation::schedule_callback(netbase::TimePoint at, std::function<void()> fn) {
  push(at, Callback{std::move(fn)});
}

bool Simulation::evict_prefix(bgp::Asn asn, const netbase::Prefix& prefix) {
  auto change = router(asn).drop_learned_routes(prefix);
  if (!change.has_value()) return false;
  journal_fault(obs::JournalEventType::kPrefixEvicted, now_, asn, 0, &prefix);
  apply_change(now_, asn, *change, begin_local_trace(now_, asn, *change));
  return true;
}

obs::TraceContext Simulation::begin_local_trace(netbase::TimePoint t, bgp::Asn asn,
                                                const RibChange& change) {
  const obs::TraceKind kind = change.is_withdrawal() ? obs::TraceKind::kWithdrawal
                                                     : obs::TraceKind::kAnnouncement;
  obs::TraceContext trace = obs::causal_begin_trace(kind);
  record_hop(trace, change.prefix, 0, asn, t, kind, obs::HopDecision::kOriginated);
  return trace;
}

const Router& Simulation::router(bgp::Asn asn) const {
  auto it = routers_.find(asn);
  if (it == routers_.end())
    throw std::invalid_argument("unknown router AS " + std::to_string(asn));
  return it->second;
}

Router& Simulation::router(bgp::Asn asn) {
  auto it = routers_.find(asn);
  if (it == routers_.end())
    throw std::invalid_argument("unknown router AS " + std::to_string(asn));
  return it->second;
}

netbase::Duration Simulation::link_delay(bgp::Asn a, bgp::Asn b) const {
  auto it = delays_.find(norm(a, b));
  if (it == delays_.end())
    throw std::invalid_argument("no link " + std::to_string(a) + "-" + std::to_string(b));
  return it->second;
}

void Simulation::push(netbase::TimePoint at, Payload payload) {
  queue_.push(Event{at, next_seq_++, std::move(payload)});
}

bool Simulation::link_down(bgp::Asn a, bgp::Asn b) const {
  return down_links_.contains(norm(a, b));
}

bool Simulation::suppression_matches(netbase::TimePoint t, bgp::Asn from, bgp::Asn to,
                                     const netbase::Prefix& prefix) {
  for (const auto& fault : suppressions_) {
    if (fault.from_asn != from) continue;
    if (fault.to_asn != 0 && fault.to_asn != to) continue;
    if (!fault.window.contains(t)) continue;
    if (fault.prefix_filter.has_value() && !fault.prefix_filter->covers(prefix)) continue;
    if (fault.probability >= 1.0 || rng_.chance(fault.probability)) return true;
  }
  return false;
}

bool Simulation::stall_matches(netbase::TimePoint t, bgp::Asn to, bgp::Asn from,
                               netbase::AddressFamily family) const {
  for (const auto& fault : stalls_) {
    if (fault.asn != to) continue;
    if (fault.from_asn != 0 && fault.from_asn != from) continue;
    if (fault.family.has_value() && *fault.family != family) continue;
    if (fault.window.contains(t)) return true;
  }
  return false;
}

void Simulation::apply_change(netbase::TimePoint t, bgp::Asn router_asn,
                              const RibChange& change, obs::TraceContext trace) {
  ++stats_.rib_changes;
  Router& r = router(router_asn);

  // Notify collector sessions first; what a monitor sees is exactly the
  // AS's best-route evolution (a full-feed peering).
  auto [lo, hi] = monitors_.equal_range(router_asn);
  for (auto it = lo; it != hi; ++it) it->second->on_route_change(t, change);

  for (const auto& [neighbor, rel] : topo_.neighbors(router_asn)) {
    const bool session_up = !link_down(router_asn, neighbor);
    const bool eligible = change.is_announcement() &&
                          Router::may_export(change.new_best_source, rel) &&
                          neighbor != change.new_best_neighbor;
    if (eligible) {
      if (!session_up) continue;  // state re-syncs on SessionUp
      RouteEntry exported = *change.new_best;
      exported.path = exported.path.prepend(router_asn);
      exported.learned = t + link_delay(router_asn, neighbor);
      push(exported.learned, AnnounceDelivery{router_asn, neighbor, change.prefix,
                                              std::move(exported), trace.child()});
      r.mark_advertised(neighbor, change.prefix, true);
    } else if (r.advertised_to(neighbor, change.prefix)) {
      // Either the prefix is gone, or the new best must not be
      // exported to this neighbor: send a withdrawal...
      r.mark_advertised(neighbor, change.prefix, false);
      if (!session_up) continue;
      // ...unless a withdrawal-suppression fault eats it. This is the
      // zombie seed: the neighbor keeps the stale route.
      if (suppression_matches(t, router_asn, neighbor, change.prefix)) {
        ++stats_.messages_suppressed;
        journal_fault(obs::JournalEventType::kFaultWithdrawalSuppressed, t,
                      router_asn, neighbor, &change.prefix);
        record_hop(trace.child(), change.prefix, router_asn, neighbor, t,
                   obs::TraceKind::kWithdrawal, obs::HopDecision::kSuppressedByFault);
        continue;
      }
      push(t + link_delay(router_asn, neighbor),
           WithdrawDelivery{router_asn, neighbor, change.prefix, trace.child()});
    }
  }
}

void Simulation::readvertise_full_table(netbase::TimePoint t, bgp::Asn from, bgp::Asn to) {
  Router& r = router(from);
  const auto rel_to = topo_.relationship(from, to);
  if (!rel_to.has_value()) return;
  for (const auto& [prefix, entry] : r.full_table()) {
    const auto source = r.best_source(prefix);
    if (!source.has_value() || !Router::may_export(*source, *rel_to)) continue;
    RouteEntry exported = entry;
    exported.path = exported.path.prepend(from);
    exported.learned = t + link_delay(from, to);
    // Each re-advertised prefix roots a fresh (announcement-sampled)
    // trace: a resurrection wave is a new causal story, not a
    // continuation of whatever installed the table entry.
    obs::TraceContext trace = obs::causal_begin_trace(obs::TraceKind::kAnnouncement);
    record_hop(trace, prefix, 0, from, t, obs::TraceKind::kAnnouncement,
               obs::HopDecision::kOriginated);
    push(exported.learned,
         AnnounceDelivery{from, to, prefix, std::move(exported), trace.child()});
    r.mark_advertised(to, prefix, true);
  }
}

void Simulation::process(Event& event) {
  now_ = event.time;
  ++stats_.events_processed;

  if (auto* announce = std::get_if<AnnounceDelivery>(&event.payload)) {
    if (link_down(announce->from, announce->to)) return;
    if (stall_matches(now_, announce->to, announce->from, announce->prefix.family())) {
      ++stats_.messages_stalled;
      journal_fault(obs::JournalEventType::kFaultReceiveStall, now_, announce->from,
                    announce->to, &announce->prefix);
      record_hop(announce->trace, announce->prefix, announce->from, announce->to, now_,
                 obs::TraceKind::kAnnouncement, obs::HopDecision::kStalled);
      return;
    }
    ++stats_.messages_delivered;
    ImportContext ctx{now_, roas_};
    Router::ImportVerdict verdict = Router::ImportVerdict::kAccepted;
    if (auto change = router(announce->to)
                          .learn(announce->from, announce->prefix, announce->route, ctx,
                                 &verdict);
        change.has_value()) {
      record_hop(announce->trace, announce->prefix, announce->from, announce->to, now_,
                 obs::TraceKind::kAnnouncement, obs::HopDecision::kForwarded);
      apply_change(now_, announce->to, *change, announce->trace);
    } else {
      record_hop(announce->trace, announce->prefix, announce->from, announce->to, now_,
                 obs::TraceKind::kAnnouncement,
                 verdict == Router::ImportVerdict::kAccepted
                     ? obs::HopDecision::kImplicitlyWithdrawn
                     : obs::HopDecision::kPolicyFiltered);
    }
    return;
  }
  if (auto* withdraw = std::get_if<WithdrawDelivery>(&event.payload)) {
    if (link_down(withdraw->from, withdraw->to)) return;
    if (stall_matches(now_, withdraw->to, withdraw->from, withdraw->prefix.family())) {
      ++stats_.messages_stalled;
      journal_fault(obs::JournalEventType::kFaultReceiveStall, now_, withdraw->from,
                    withdraw->to, &withdraw->prefix);
      record_hop(withdraw->trace, withdraw->prefix, withdraw->from, withdraw->to, now_,
                 obs::TraceKind::kWithdrawal, obs::HopDecision::kStalled);
      return;
    }
    ++stats_.messages_delivered;
    if (auto change = router(withdraw->to).unlearn(withdraw->from, withdraw->prefix);
        change.has_value()) {
      // The wave continues as withdrawals only while the withdrawn
      // route was the best; an alternate taking over means downstream
      // sees announcements (implicit withdrawal).
      record_hop(withdraw->trace, withdraw->prefix, withdraw->from, withdraw->to, now_,
                 obs::TraceKind::kWithdrawal,
                 change->is_withdrawal() ? obs::HopDecision::kForwarded
                                         : obs::HopDecision::kImplicitlyWithdrawn);
      apply_change(now_, withdraw->to, *change, withdraw->trace);
    } else {
      record_hop(withdraw->trace, withdraw->prefix, withdraw->from, withdraw->to, now_,
                 obs::TraceKind::kWithdrawal, obs::HopDecision::kImplicitlyWithdrawn);
    }
    return;
  }
  if (auto* action = std::get_if<OriginateAction>(&event.payload)) {
    Router& r = router(action->origin);
    std::optional<RibChange> change =
        action->announce ? r.originate(action->prefix, action->attributes, now_)
                         : r.withdraw_origin(action->prefix);
    if (change.has_value()) {
      const obs::TraceKind kind = action->announce ? obs::TraceKind::kAnnouncement
                                                   : obs::TraceKind::kWithdrawal;
      obs::TraceContext trace = obs::causal_begin_trace(kind);
      record_hop(trace, action->prefix, 0, action->origin, now_, kind,
                 obs::HopDecision::kOriginated);
      apply_change(now_, action->origin, *change, trace);
    }
    return;
  }
  if (auto* down = std::get_if<SessionDown>(&event.payload)) {
    down_links_.insert(norm(down->a, down->b));
    journal_fault(obs::JournalEventType::kSimSessionDown, now_, down->a, down->b);
    // Both ends drop what they learned over the session and clear the
    // Adj-RIB-Out state for it.
    for (auto [x, y] : {std::pair{down->a, down->b}, std::pair{down->b, down->a}}) {
      Router& rx = router(x);
      for (const auto& [prefix, entry] : rx.full_table()) {
        (void)entry;
        rx.mark_advertised(y, prefix, false);
      }
      for (auto& change : rx.flush_neighbor(y))
        apply_change(now_, x, change, begin_local_trace(now_, x, change));
    }
    return;
  }
  if (auto* up = std::get_if<SessionUp>(&event.payload)) {
    down_links_.erase(norm(up->a, up->b));
    journal_fault(obs::JournalEventType::kSimSessionUp, now_, up->a, up->b);
    // Fresh session: both ends advertise their current tables. If one
    // end still holds a zombie, the other now (re)learns it — months
    // after the original withdrawal, this is a zombie resurrection.
    readvertise_full_table(now_, up->a, up->b);
    readvertise_full_table(now_, up->b, up->a);
    return;
  }
  if (auto* callback = std::get_if<Callback>(&event.payload)) {
    callback->fn();
    return;
  }
  if (std::get_if<RovChange>(&event.payload) != nullptr) {
    ImportContext ctx{now_, roas_};
    for (auto& [asn, r] : routers_) {
      for (auto& change : r.revalidate(ctx))
        apply_change(now_, asn, change, begin_local_trace(now_, asn, change));
    }
    return;
  }
}

void Simulation::run_until(netbase::TimePoint until) {
  // Lazily schedule ROV re-validation passes for ROA change times we
  // have not yet covered.
  if (roas_ != nullptr) {
    for (netbase::TimePoint t : roas_->change_times()) {
      if (t <= until && !scheduled_rov_times_.contains(t)) {
        scheduled_rov_times_.insert(t);
        push(t, RovChange{});
      }
    }
  }
  while (!queue_.empty() && queue_.top().time <= until) {
    Event event = queue_.top();
    queue_.pop();
    process(event);
  }
  now_ = std::max(now_, until);
  flush_metrics();
}

void Simulation::run_all() {
  while (!queue_.empty()) {
    Event event = queue_.top();
    queue_.pop();
    process(event);
  }
  flush_metrics();
}

void Simulation::flush_metrics() {
  m_events_.inc(stats_.events_processed - flushed_.events_processed);
  m_delivered_.inc(stats_.messages_delivered - flushed_.messages_delivered);
  m_suppressed_.inc(stats_.messages_suppressed - flushed_.messages_suppressed);
  m_stalled_.inc(stats_.messages_stalled - flushed_.messages_stalled);
  m_rib_changes_.inc(stats_.rib_changes - flushed_.rib_changes);
  flushed_ = stats_;
  m_queue_depth_.set(static_cast<std::int64_t>(queue_.size()));
}

}  // namespace zombiescope::simnet
