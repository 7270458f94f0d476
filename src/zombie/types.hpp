// zombie/types.hpp — vocabulary of the zombie detection pipeline.

#pragma once

#include <compare>
#include <optional>
#include <set>
#include <string>
#include <vector>

#include "bgp/aspath.hpp"
#include "netbase/ip.hpp"
#include "netbase/time.hpp"

namespace zombiescope::zombie {

/// Identifies one collector peering session: peer AS + peer router
/// address. The paper counts zombie routes per peer *router* (e.g.
/// AS211509 contributes two noisy routers over different transports)
/// and outbreak spread per peer *AS*.
struct PeerKey {
  bgp::Asn asn = 0;
  netbase::IpAddress address;

  friend auto operator<=>(const PeerKey&, const PeerKey&) = default;
};

std::string to_string(const PeerKey& peer);

/// Peers whose updates a detector ignores: single peer routers (the
/// noisy peers) or every router of a peer AS (the paper excludes
/// AS16347). Detector configs derive from it.
struct PeerFilter {
  std::set<PeerKey> excluded_peers;
  std::set<bgp::Asn> excluded_peer_asns;

  bool excludes(const PeerKey& peer) const {
    return excluded_peers.contains(peer) || excluded_peer_asns.contains(peer.asn);
  }
};

/// One stuck route: a ⟨beacon, interval, peer⟩ triple whose last
/// in-interval update at check time was an announcement.
struct ZombieRoute {
  PeerKey peer;
  netbase::Prefix prefix;
  /// Announcement time of the beacon interval being checked.
  netbase::TimePoint interval_start = 0;
  /// The withdrawal the route survived.
  netbase::TimePoint withdraw_time = 0;
  /// AS path of the stuck route (as archived, peer ASN first).
  bgp::AsPath path;
  /// Decoded Aggregator clock of the stuck announcement, if present.
  std::optional<netbase::TimePoint> aggregator_time;
  /// True if the Aggregator clock shows the announcement belongs to an
  /// earlier interval — a duplicate under the revised methodology.
  bool duplicate = false;
};

/// A zombie outbreak: all zombie routes of one prefix in one interval.
struct ZombieOutbreak {
  netbase::Prefix prefix;
  netbase::TimePoint interval_start = 0;
  netbase::TimePoint withdraw_time = 0;
  std::vector<ZombieRoute> routes;

  int route_count() const { return static_cast<int>(routes.size()); }
  /// Distinct peer ASes infected (the paper's "24 peer routers and 21
  /// peer ASes" distinction).
  int peer_as_count() const;
  int peer_router_count() const { return route_count(); }
};

}  // namespace zombiescope::zombie
