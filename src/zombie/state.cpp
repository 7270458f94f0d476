#include "zombie/state.hpp"

#include <algorithm>

#include "obs/journal.hpp"

namespace zombiescope::zombie {

namespace {

// The message-granularity journal layer (kCatState). Chatty — one
// event per prefix per update — so call sites are all guarded by the
// enabled() check their caller performs once per record.
void journal_message(obs::JournalEventType type, const PeerKey& peer,
                     const netbase::Prefix& prefix, netbase::TimePoint at) {
  obs::JournalEvent ev;
  ev.type = type;
  ev.time = at;
  ev.has_prefix = true;
  ev.prefix = prefix;
  ev.has_peer = true;
  ev.peer_asn = peer.asn;
  ev.peer_address = peer.address;
  obs::Journal::global().emit(obs::kCatState, ev);
}

}  // namespace

std::string to_string(const PeerKey& peer) {
  return peer.address.to_string() + " (AS" + std::to_string(peer.asn) + ")";
}

int ZombieOutbreak::peer_as_count() const {
  std::vector<bgp::Asn> asns;
  for (const auto& route : routes) asns.push_back(route.peer.asn);
  std::sort(asns.begin(), asns.end());
  asns.erase(std::unique(asns.begin(), asns.end()), asns.end());
  return static_cast<int>(asns.size());
}

void StateTracker::apply(const mrt::MrtRecord& record) {
  const bool journal_on = obs::Journal::global().enabled(obs::kCatState);
  if (const auto* msg = std::get_if<mrt::Bgp4mpMessage>(&record)) {
    const PeerKey peer{msg->peer_asn, msg->peer_address};
    auto& table = state_[peer];
    for (const auto& prefix : msg->update.withdrawn) {
      RouteStatus& status = table[prefix];
      status.present = false;
      status.last_change = msg->timestamp;
      if (journal_on)
        journal_message(obs::JournalEventType::kWithdrawSeen, peer, prefix,
                        msg->timestamp);
    }
    for (const auto& prefix : msg->update.announced) {
      RouteStatus& status = table[prefix];
      status.present = true;
      status.path = msg->update.attributes.as_path;
      status.attributes = msg->update.attributes;
      status.last_change = msg->timestamp;
      if (journal_on)
        journal_message(obs::JournalEventType::kAnnounceSeen, peer, prefix,
                        msg->timestamp);
    }
    return;
  }
  if (const auto* state = std::get_if<mrt::Bgp4mpStateChange>(&record)) {
    if (state->old_state == bgp::SessionState::kEstablished &&
        state->new_state != bgp::SessionState::kEstablished) {
      const PeerKey peer{state->peer_asn, state->peer_address};
      auto it = state_.find(peer);
      if (it != state_.end()) {
        for (auto& [prefix, status] : it->second) {
          (void)prefix;
          if (status.present) {
            status.present = false;
            status.last_change = state->timestamp;
          }
        }
      }
      if (journal_on) {
        obs::JournalEvent ev;
        ev.type = obs::JournalEventType::kSessionFlush;
        ev.time = state->timestamp;
        ev.has_peer = true;
        ev.peer_asn = peer.asn;
        ev.peer_address = peer.address;
        obs::Journal::global().emit(obs::kCatState, ev);
      }
    }
    return;
  }
  if (const auto* rib = std::get_if<mrt::RibEntryRecord>(&record)) {
    // RIB dumps assert presence; the peer index table must have been
    // applied... RIB records in this library carry no peer directory,
    // so dump-based tracking is handled by the lifespan analyzer which
    // pairs PeerIndexTable + RibEntryRecord itself. Here we ignore the
    // record unless a directory was seen.
    if (!last_index_.peers.empty()) {
      for (const auto& entry : rib->entries) {
        if (entry.peer_index >= last_index_.peers.size()) continue;
        const auto& dir = last_index_.peers[entry.peer_index];
        RouteStatus& status = state_[PeerKey{dir.asn, dir.address}][rib->prefix];
        status.present = true;
        status.path = entry.attributes.as_path;
        status.attributes = entry.attributes;
        status.last_change = rib->timestamp;
      }
    }
    return;
  }
  if (const auto* index = std::get_if<mrt::PeerIndexTable>(&record)) {
    last_index_ = *index;
    return;
  }
}

const RouteStatus* StateTracker::status(const PeerKey& peer,
                                        const netbase::Prefix& prefix) const {
  auto it = state_.find(peer);
  if (it == state_.end()) return nullptr;
  auto jt = it->second.find(prefix);
  return jt == it->second.end() ? nullptr : &jt->second;
}

std::vector<PeerKey> StateTracker::holders(const netbase::Prefix& prefix) const {
  std::vector<PeerKey> out;
  for (const auto& [peer, table] : state_) {
    auto it = table.find(prefix);
    if (it != table.end() && it->second.present) out.push_back(peer);
  }
  return out;
}

std::vector<PeerKey> StateTracker::peers() const {
  std::vector<PeerKey> out;
  out.reserve(state_.size());
  for (const auto& [peer, table] : state_) {
    (void)table;
    out.push_back(peer);
  }
  return out;
}

std::vector<mrt::MrtRecord> merge_archives(
    std::span<const std::vector<mrt::MrtRecord>* const> archives) {
  std::vector<mrt::MrtRecord> merged;
  std::size_t total = 0;
  for (const auto* archive : archives) total += archive->size();
  merged.reserve(total);
  for (const auto* archive : archives)
    merged.insert(merged.end(), archive->begin(), archive->end());
  std::stable_sort(merged.begin(), merged.end(),
                   [](const mrt::MrtRecord& a, const mrt::MrtRecord& b) {
                     return mrt::record_timestamp(a) < mrt::record_timestamp(b);
                   });
  return merged;
}

}  // namespace zombiescope::zombie
