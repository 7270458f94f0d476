// zombie/realtime.hpp — streaming (online) zombie detection.
//
// §6 of the paper: "Real-time detection of a zombie outbreak and
// identification of the AS causing it will notify the network
// operators of the infected ASes to examine and resolve the issue
// more quickly." This detector consumes MRT records incrementally,
// knows the beacon schedule, and raises an alert the moment a peer's
// route survives `threshold` past its withdrawal — plus a resolution
// event when the stuck route finally clears, which yields live zombie
// lifetimes.
//
// It is the only implementation of the stuck rule: the batch
// LongLivedZombieDetector (zombie/longlived.hpp) drives it over an
// archive, and each zslive shard worker drives it over a feed.

#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <queue>
#include <tuple>
#include <utility>
#include <vector>

#include "beacon/schedule.hpp"
#include "mrt/record.hpp"
#include "zombie/types.hpp"

namespace zombiescope::zombie {

/// Raised when a route outlives the threshold after its withdrawal.
struct ZombieAlert {
  netbase::Prefix prefix;
  PeerKey peer;
  netbase::TimePoint withdrawn_at = 0;
  netbase::TimePoint raised_at = 0;
  bgp::AsPath stuck_path;
};

/// Raised when a previously alerted route clears (withdrawal, session
/// flush, or a new beacon announcement superseding it).
struct ZombieResolution {
  netbase::Prefix prefix;
  PeerKey peer;
  netbase::TimePoint withdrawn_at = 0;
  netbase::TimePoint resolved_at = 0;
  netbase::Duration stuck_for() const { return resolved_at - withdrawn_at; }
};

struct RealTimeConfig : PeerFilter {
  netbase::Duration threshold = 90 * netbase::kMinute;
};

/// Online detector. Usage:
///   RealTimeZombieDetector det(config);
///   det.on_alert([](const ZombieAlert& a) { ... });
///   det.expect(event);              // register beacon schedule
///   for (record : stream) det.ingest(record);
///   det.advance(now);               // heartbeat fires due alerts
///
/// Deadline rule: a route is stuck if its last update at D =
/// withdraw_time + threshold is not a withdrawal, so a record stamped
/// at or before D applies before D fires. ingest() of a record stamped
/// t fires only deadlines D < t; advance(now) fires every D <= now.
/// The deadline check raises its alerts with raised_at == D; a later
/// alert (raised_at > D) is a route announced again after a clean
/// deadline.
class RealTimeZombieDetector {
 public:
  explicit RealTimeZombieDetector(RealTimeConfig config) : config_(std::move(config)) {}

  void on_alert(std::function<void(const ZombieAlert&)> fn) { alert_fn_ = std::move(fn); }
  void on_resolution(std::function<void(const ZombieResolution&)> fn) {
    resolution_fn_ = std::move(fn);
  }

  /// Registers an upcoming beacon announce/withdraw pair. Superseded
  /// events are ignored per the paper's collision rule. A prefix has
  /// one watch: a new event for it replaces the old watch, whose
  /// deadline then never fires.
  void expect(const beacon::BeaconEvent& event);

  /// Feeds one record stamped t: fires the deadlines before t, then
  /// applies the record.
  void ingest(const mrt::MrtRecord& record);

  /// Fires every deadline at or before `now`. The caller promises that
  /// no record stamped at or before `now` is still to come.
  void advance(netbase::TimePoint now);

  /// Currently stuck (alerted, unresolved) routes.
  std::vector<ZombieAlert> active_zombies() const;

  int alerts_raised() const { return alerts_raised_; }
  int resolutions() const { return resolutions_; }

 private:
  struct Watch {
    beacon::BeaconEvent event;
    /// Matches the watch's entry in deadlines_; an entry whose id no
    /// longer matches belongs to a superseded watch.
    std::uint64_t id = 0;
    /// Last known state per peer inside this watch.
    struct PeerState {
      bool announced = false;
      bgp::AsPath path;
      bool alerted = false;
    };
    std::map<PeerKey, PeerState> peers;
    bool deadline_fired = false;
  };
  /// (deadline, prefix, watch id); equal deadlines fire in prefix order.
  using Deadline = std::tuple<netbase::TimePoint, netbase::Prefix, std::uint64_t>;

  void fire_due(netbase::TimePoint last);
  void raise(const Watch& watch, const PeerKey& peer, Watch::PeerState& state,
             netbase::TimePoint at);
  void resolve(Watch& watch, const PeerKey& peer, netbase::TimePoint at);

  RealTimeConfig config_;
  std::function<void(const ZombieAlert&)> alert_fn_;
  std::function<void(const ZombieResolution&)> resolution_fn_;
  /// Watches keyed by prefix; a new expect() for the same prefix
  /// supersedes the old watch (prefix recycled).
  std::map<netbase::Prefix, Watch> watches_;
  /// Min-heap of pending deadlines, one entry per expect().
  std::priority_queue<Deadline, std::vector<Deadline>, std::greater<>> deadlines_;
  std::uint64_t next_watch_id_ = 0;
  int alerts_raised_ = 0;
  int resolutions_ = 0;
};

/// Beacon events held back until the record stream reaches their
/// announce instant, then handed to a detector in stream order: by
/// announce_time, push order breaking ties. Registering a whole
/// schedule upfront would not do: each expect() supersedes the
/// prefix's previous watch before its deadline could fire.
class ExpectQueue {
 public:
  /// Called after each released event; `ticket` is the event's push
  /// order (0 for the first push()).
  using OnRelease = std::function<void(const beacon::BeaconEvent& event, std::size_t ticket)>;

  void push(const beacon::BeaconEvent& event) {
    pending_.emplace(std::pair{event.announce_time, next_ticket_++}, event);
  }

  /// Releases every held event announced at or before `t`. Before each
  /// expect() the detector fires the deadlines due strictly before the
  /// announce instant; a deadline at the instant itself waits for the
  /// records stamped there.
  void release_until(netbase::TimePoint t, RealTimeZombieDetector& detector,
                     const OnRelease& on_release = nullptr);

 private:
  /// Keyed by (announce_time, ticket): iteration order is stream order.
  std::map<std::pair<netbase::TimePoint, std::size_t>, beacon::BeaconEvent> pending_;
  std::size_t next_ticket_ = 0;
};

}  // namespace zombiescope::zombie
