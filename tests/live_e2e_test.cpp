// End-to-end equivalence for the zslive service: replaying the
// longlived2024 scenario's update archives through the sharded live
// pipeline must produce exactly the zombie set the batch detector
// (zsdetect's LongLivedZombieDetector) finds over the same archives —
// independent of shard count and of replay pacing. This is the
// contract that makes the live daemon trustworthy: an operator watching
// /live/events sees the same outbreaks a forensic batch run would
// reconstruct later.

#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "live/feed.hpp"
#include "live/service.hpp"
#include "scenarios/longlived2024.hpp"
#include "zombie/longlived.hpp"
#include "zombie/noisy.hpp"
#include "zombie/state.hpp"

namespace zombiescope::live {
namespace {

using netbase::Prefix;
using netbase::TimePoint;
using zombie::PeerKey;

using PairSet = std::vector<std::pair<Prefix, PeerKey>>;

/// The batch reference: every (prefix, peer) the LongLivedZombieDetector
/// reports stuck at withdrawal + threshold, deduplicated across
/// intervals — the same key space LiveService::emerged_pairs() uses.
PairSet batch_pairs(const scenarios::LongLived2024Output& out,
                    netbase::Duration threshold) {
  zombie::LongLivedZombieDetector detector{zombie::LongLivedConfig{}};
  const auto result = detector.detect(out.updates, out.events, threshold);
  std::set<std::pair<Prefix, PeerKey>> merged;
  for (const auto& outbreak : result.outbreaks) {
    for (const auto& route : outbreak.routes) {
      merged.insert({outbreak.prefix, route.peer});
    }
  }
  return {merged.begin(), merged.end()};
}

PairSet live_pairs(const scenarios::LongLived2024Output& out,
                   netbase::Duration threshold, std::size_t shards,
                   double speed) {
  LiveConfig config;
  config.shards = shards;
  config.block_on_full = true;  // equivalence demands zero drops
  config.detector.threshold = threshold;
  LiveService service(config);
  service.start();
  for (const auto& event : out.events) service.expect(event);
  ReplayFeedSource feed(out.updates, speed);
  const auto stats = feed.run(service);
  EXPECT_EQ(stats.records, out.updates.size());
  service.finalize();
  EXPECT_EQ(service.drops(), 0u);
  EXPECT_EQ(service.processed(), service.submitted());
  auto pairs = service.emerged_pairs();
  service.stop();
  return pairs;
}

// --- Records stamped exactly at a deadline D = withdraw + threshold --------

mrt::Bgp4mpMessage update(TimePoint t, const PeerKey& peer, const Prefix& prefix,
                          bool announced) {
  mrt::Bgp4mpMessage m;
  m.timestamp = t;
  m.peer_asn = peer.asn;
  m.peer_address = peer.address;
  m.local_asn = 12654;
  m.local_address = netbase::IpAddress::parse("193.0.4.28");
  if (announced) {
    m.update.announced.push_back(prefix);
    m.update.attributes.as_path = bgp::AsPath{peer.asn, 25091, 210312};
    m.update.attributes.next_hop = peer.address;
  } else {
    m.update.withdrawn.push_back(prefix);
  }
  return m;
}

PairSet live_pairs(const std::vector<mrt::MrtRecord>& records,
                   const std::vector<beacon::BeaconEvent>& events,
                   netbase::Duration threshold, std::size_t shards) {
  scenarios::LongLived2024Output out;
  out.updates = records;
  out.events = events;
  return live_pairs(out, threshold, shards, /*speed=*/0.0);
}

PairSet batch_pairs(const std::vector<mrt::MrtRecord>& records,
                    const std::vector<beacon::BeaconEvent>& events,
                    netbase::Duration threshold) {
  scenarios::LongLived2024Output out;
  out.updates = records;
  out.events = events;
  return batch_pairs(out, threshold);
}

struct DeadlineTie {
  static constexpr netbase::Duration kThreshold = 90 * netbase::kMinute;
  const TimePoint announce = netbase::utc(2024, 6, 4, 12, 0, 0);
  const TimePoint withdraw = announce + 15 * netbase::kMinute;
  const TimePoint deadline = withdraw + kThreshold;
  const Prefix beacon = Prefix::parse("2a0d:3dc1:1200::/48");
  const PeerKey a{64500, netbase::IpAddress::parse("192.0.2.1")};
  const PeerKey b{64501, netbase::IpAddress::parse("192.0.2.2")};
  std::vector<beacon::BeaconEvent> events{{beacon, announce, withdraw, false}};
  // a withdraws exactly at the deadline: in time. b withdraws late.
  std::vector<mrt::MrtRecord> records{
      update(announce + 10, a, beacon, true),
      update(announce + 10, b, beacon, true),
      update(deadline, a, beacon, false),
      update(deadline + 10, b, beacon, false),
  };
};

TEST(LiveDeadlineTie, WithdrawalAtTheDeadlineMatchesBatch) {
  const DeadlineTie tie;
  const PairSet batch = batch_pairs(tie.records, tie.events, DeadlineTie::kThreshold);
  EXPECT_EQ(batch, (PairSet{{tie.beacon, tie.b}}));
  EXPECT_EQ(live_pairs(tie.records, tie.events, DeadlineTie::kThreshold, 2), batch);
}

TEST(LiveDeadlineTie, AnotherPrefixAnnouncedAtTheDeadlineMatchesBatch) {
  // A second beacon on the same shard is announced at the first one's
  // deadline. Releasing it there must not fire that deadline before the
  // withdrawal stamped at the same instant applies.
  DeadlineTie tie;
  Prefix other;
  for (int slot = 1215;; ++slot) {
    other = Prefix::parse("2a0d:3dc1:" + std::to_string(slot) + "::/48");
    if (shard_for(other, 2) == shard_for(tie.beacon, 2)) break;
  }
  tie.events.push_back({other, tie.deadline, tie.deadline + 15 * netbase::kMinute, false});
  tie.records.insert(tie.records.begin() + 2, update(tie.deadline, tie.a, other, true));
  const PairSet batch = batch_pairs(tie.records, tie.events, DeadlineTie::kThreshold);
  PairSet want{{tie.beacon, tie.b}, {other, tie.a}};
  std::sort(want.begin(), want.end());
  EXPECT_EQ(batch, want);
  EXPECT_EQ(live_pairs(tie.records, tie.events, DeadlineTie::kThreshold, 2), batch);
}

class LiveE2E : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    scenarios::LongLived2024Spec spec;
    output_ = new scenarios::LongLived2024Output(
        scenarios::run_longlived2024(spec));
  }
  static void TearDownTestSuite() {
    delete output_;
    output_ = nullptr;
  }

  static scenarios::LongLived2024Output* output_;
};

scenarios::LongLived2024Output* LiveE2E::output_ = nullptr;

TEST_F(LiveE2E, ReplayMatchesBatchDetectorExactly) {
  const netbase::Duration threshold = 90 * netbase::kMinute;
  const auto batch = batch_pairs(*output_, threshold);
  ASSERT_FALSE(batch.empty()) << "scenario produced no zombies to compare";
  const auto live = live_pairs(*output_, threshold, 4, /*speed=*/0.0);
  EXPECT_EQ(live, batch);
}

TEST_F(LiveE2E, ShardCountDoesNotChangeTheZombieSet) {
  const netbase::Duration threshold = 90 * netbase::kMinute;
  const auto one = live_pairs(*output_, threshold, 1, /*speed=*/0.0);
  const auto eight = live_pairs(*output_, threshold, 8, /*speed=*/0.0);
  EXPECT_EQ(one, eight);
  ASSERT_FALSE(one.empty());
}

TEST_F(LiveE2E, PacedReplayMatchesBatchOnTruncatedWindow) {
  // A paced replay of the full eleven-month archive would take hours;
  // pacing is a wall-clock behavior, so one beacon day exercises it
  // fully. Truncate records and events to the first day, pace the
  // replay so it takes a few wall seconds, and demand the same exact
  // set the batch detector computes over the truncated inputs.
  const netbase::Duration threshold = 90 * netbase::kMinute;
  TimePoint first = 0;
  for (const auto& event : output_->events) {
    if (first == 0 || event.announce_time < first) first = event.announce_time;
  }
  ASSERT_NE(first, 0);
  const TimePoint cutoff = first + netbase::kDay;

  scenarios::LongLived2024Output day;
  for (const auto& event : output_->events) {
    // Keep only events whose whole check window fits inside the day.
    if (event.withdraw_time + threshold < cutoff) day.events.push_back(event);
  }
  for (const auto& record : output_->updates) {
    if (mrt::record_timestamp(record) < cutoff) day.updates.push_back(record);
  }
  ASSERT_FALSE(day.events.empty());
  ASSERT_FALSE(day.updates.empty());

  const auto batch = batch_pairs(day, threshold);
  // One simulated day in ~3 wall seconds.
  const double speed = static_cast<double>(netbase::kDay) / 3.0;
  const auto paced = live_pairs(day, threshold, 4, speed);
  const auto flat_out = live_pairs(day, threshold, 4, /*speed=*/0.0);
  EXPECT_EQ(paced, flat_out);
  EXPECT_EQ(paced, batch);
}

TEST_F(LiveE2E, NoisyPeerSetMatchesBatchFilterExactly) {
  // The streaming classifier (PeerQAccumulator + PeerTableBuilder) must
  // converge, after finalize(), to the *exact* peer set the batch
  // statistics pass in zsdetect --filter-noisy computes: dedicated
  // detector run -> NoisyPeerFilter over (routes, tracker.peers(),
  // pass.total_announcements). Same floor, same median multiplier, same
  // universe, same denominator.
  const netbase::Duration threshold = 90 * netbase::kMinute;

  // Batch reference, mirroring the longlived branch of zsdetect's
  // statistics pass verbatim.
  zombie::StateTracker tracker;
  for (const auto& record : output_->updates) tracker.apply(record);
  zombie::LongLivedZombieDetector detector{zombie::LongLivedConfig{}};
  const auto pass = detector.detect(output_->updates, output_->events, threshold);
  std::vector<zombie::ZombieRoute> routes;
  for (const auto& outbreak : pass.outbreaks)
    for (const auto& route : outbreak.routes) routes.push_back(route);
  const zombie::NoisyPeerFilter filter;
  const std::set<PeerKey> batch =
      filter.noisy_peer_keys(routes, tracker.peers(), pass.total_announcements);

  // Live side: replay flat-out, finalize (which runs the converge pass
  // that drops the streaming hysteresis), read the published table.
  LiveConfig config;
  config.shards = 4;
  config.block_on_full = true;
  config.detector.threshold = threshold;
  LiveService service(config);
  service.start();
  for (const auto& event : output_->events) service.expect(event);
  ReplayFeedSource feed(output_->updates, /*speed=*/0.0);
  const auto stats = feed.run(service);
  EXPECT_EQ(stats.records, output_->updates.size());
  service.finalize();
  EXPECT_EQ(service.drops(), 0u);

  const auto table = service.peers();
  ASSERT_NE(table, nullptr);
  // The denominator must line up exactly: closed beacon cycles ==
  // studied announcements of the batch pass.
  EXPECT_EQ(table->total_cycles,
            static_cast<std::uint64_t>(pass.total_announcements));
  // Same peer universe as StateTracker.
  EXPECT_EQ(table->rows.size(), tracker.peers().size());
  // And the headline claim: identical noisy sets.
  EXPECT_EQ(table->noisy_set(), batch);
  service.stop();
}

TEST_F(LiveE2E, PeerTableCountsMatchBatchStats) {
  // Beyond set equality, per-peer numerators must agree with the batch
  // PeerStats: stuck == zombie_routes for every tracked peer.
  const netbase::Duration threshold = 90 * netbase::kMinute;

  zombie::StateTracker tracker;
  for (const auto& record : output_->updates) tracker.apply(record);
  zombie::LongLivedZombieDetector detector{zombie::LongLivedConfig{}};
  const auto pass = detector.detect(output_->updates, output_->events, threshold);
  std::vector<zombie::ZombieRoute> routes;
  for (const auto& outbreak : pass.outbreaks)
    for (const auto& route : outbreak.routes) routes.push_back(route);
  const zombie::NoisyPeerFilter filter;
  const auto stats =
      filter.stats(routes, tracker.peers(), pass.total_announcements);

  LiveConfig config;
  config.shards = 2;
  config.block_on_full = true;
  config.detector.threshold = threshold;
  LiveService service(config);
  service.start();
  for (const auto& event : output_->events) service.expect(event);
  ReplayFeedSource feed(output_->updates, /*speed=*/0.0);
  feed.run(service);
  service.finalize();
  EXPECT_EQ(service.drops(), 0u);

  const auto table = service.peers();
  ASSERT_NE(table, nullptr);
  for (const auto& ps : stats) {
    const PeerRow* row = table->find(ps.peer);
    ASSERT_NE(row, nullptr) << zombie::to_string(ps.peer);
    EXPECT_EQ(row->stuck, static_cast<std::uint64_t>(ps.zombie_routes))
        << zombie::to_string(ps.peer);
  }
  service.stop();
}

}  // namespace
}  // namespace zombiescope::live
