// The benchmark's own tests: seeded inputs are reproducible, a forced
// drop shows in fail_ratio, the oracle rejects a result with one pair
// missing, the span arithmetic is right on a hand-built tree, and the
// default longlived2024 spec still lands the pinned 604 pairs. A
// disabled test reproduces the detectors' disagreement at the deadline
// instant.
//
// Build and run with `python3 zsperf/run.py --self-test` from the
// repository root (the input tests simulate scenarios: about a minute).

#include <gtest/gtest.h>

#include <unistd.h>

#include <filesystem>
#include <string>
#include <vector>

#include "inputs.hpp"
#include "oracle.hpp"
#include "spans.hpp"
#include "workloads.hpp"

namespace zsperf {
namespace {

namespace fs = std::filesystem;
using zs::netbase::IpAddress;
using zs::netbase::Prefix;
using zs::netbase::TimePoint;

constexpr TimePoint kT0 = 1'700'000'000;

zs::mrt::MrtRecord message(TimePoint at, zs::bgp::Asn peer, bool announce,
                           const Prefix& prefix) {
  zs::mrt::Bgp4mpMessage msg;
  msg.timestamp = at;
  msg.peer_asn = peer;
  msg.local_asn = 12654;
  msg.peer_address = IpAddress::v4(0x0a000000u + peer);
  msg.local_address = IpAddress::v4(0x0a0000feu);
  if (announce) {
    msg.update.announced.push_back(prefix);
    msg.update.attributes.as_path = zs::bgp::AsPath{peer, 64500};
    msg.update.attributes.next_hop = msg.peer_address;
  } else {
    msg.update.withdrawn.push_back(prefix);
  }
  return msg;
}

/// Two beacon cycles seen by three peers; peer 3 never withdraws, so
/// it is a zombie in both cycles. `filler` adds re-announcements from
/// peer 1 to make the stream long.
struct Synthetic {
  std::vector<zs::mrt::MrtRecord> records;
  std::vector<zs::beacon::BeaconEvent> events;
};

Synthetic synthetic(std::size_t filler) {
  Synthetic s;
  const Prefix beacon = Prefix::parse("84.205.64.0/24");
  const Prefix other = Prefix::parse("84.205.65.0/24");
  for (int cycle = 0; cycle < 2; ++cycle) {
    const TimePoint announce = kT0 + cycle * 4 * zs::netbase::kHour;
    const TimePoint withdraw = announce + 2 * zs::netbase::kHour;
    s.events.push_back({beacon, announce, withdraw, false});
    for (zs::bgp::Asn peer = 1; peer <= 3; ++peer)
      s.records.push_back(message(announce + 10, peer, true, beacon));
    for (std::size_t i = 0; i < filler; ++i)
      s.records.push_back(
          message(announce + 20 + static_cast<TimePoint>(i % 3000), 1, true, other));
    for (zs::bgp::Asn peer = 1; peer <= 2; ++peer)
      s.records.push_back(message(withdraw + 10, peer, false, beacon));
  }
  return s;
}

std::string scratch_dir(const std::string& name) {
  const std::string dir = ".bench_out/test-" + std::to_string(::getpid()) + "-" + name;
  fs::create_directories(dir);
  return dir;
}

TEST(Inputs, SameSeedGivesIdenticalDigest) {
  const std::string a = scratch_dir("a");
  const std::string b = scratch_dir("b");
  const auto pa = ensure_input(a, InputName::kLongLived, 7);
  const auto pb = ensure_input(b, InputName::kLongLived, 7);
  const InputMeta ma = read_meta(pa.meta);
  const InputMeta mb = read_meta(pb.meta);
  EXPECT_EQ(ma.digest, mb.digest);
  EXPECT_EQ(ma.digest, file_digest(pa.archive));
  EXPECT_EQ(ma.records, mb.records);
  EXPECT_EQ(ma.events.size(), mb.events.size());
  EXPECT_EQ(ma.noisy_peers, mb.noisy_peers);
  // A cached set is reused as is.
  const auto again = ensure_input(a, InputName::kLongLived, 7);
  EXPECT_EQ(file_digest(again.archive), ma.digest);
  fs::remove_all(a);
  fs::remove_all(b);
}

TEST(Inputs, MetaRoundTrips) {
  const std::string dir = scratch_dir("meta");
  InputMeta meta;
  meta.events.push_back({Prefix::parse("2001:7fb:fe00::/48"), kT0, kT0 + 7200, true});
  meta.noisy_peers.insert({16347, IpAddress::parse("2001:db8::1")});
  meta.records = 42;
  meta.digest = 0xfeedbeefULL;
  write_meta(dir + "/m.meta", meta);
  const InputMeta back = read_meta(dir + "/m.meta");
  ASSERT_EQ(back.events.size(), 1u);
  EXPECT_EQ(back.events[0].prefix, meta.events[0].prefix);
  EXPECT_EQ(back.events[0].withdraw_time, kT0 + 7200);
  EXPECT_TRUE(back.events[0].superseded);
  EXPECT_EQ(back.noisy_peers, meta.noisy_peers);
  EXPECT_EQ(back.digest, meta.digest);
  fs::remove_all(dir);
}

TEST(FailRatio, ForcedDropRaisesIt) {
  const Synthetic s = synthetic(20000);
  SpanRecorder spans(false, 0);
  zs::live::LiveConfig lossless;
  lossless.shards = 2;
  lossless.block_on_full = true;
  const ReplayPass clean = replay_pass(lossless, s.records, s.events, spans);
  EXPECT_EQ(clean.failed, 0u);
  EXPECT_EQ(fail_ratio(clean.offered, clean.failed, true), 0.0);

  zs::live::LiveConfig lossy = lossless;
  lossy.block_on_full = false;
  lossy.queue_depth = 1;
  const ReplayPass dropped = replay_pass(lossy, s.records, s.events, spans);
  EXPECT_GT(dropped.dropped, 0u);
  EXPECT_GT(dropped.failed, 0u);
  EXPECT_GT(fail_ratio(dropped.offered, dropped.failed, true), 0.0);
  EXPECT_LE(fail_ratio(dropped.offered, dropped.failed, true), 1.0);
  // A result that fails the oracle counts as total failure.
  EXPECT_EQ(fail_ratio(clean.offered, 0, false), 1.0);
}

TEST(Oracle, LiveBatchAndRealtimeAgreeOnSynthetic) {
  const Synthetic s = synthetic(100);
  SpanRecorder spans(false, 0);
  zs::live::LiveConfig config;
  config.shards = 2;
  config.block_on_full = true;
  const PairSet live = replay_pass(config, s.records, s.events, spans).pairs;
  const PairSet batch = batch_pairs(s.records, s.events);
  const PairSet rt = realtime_pairs(s.records, s.events);
  ASSERT_EQ(batch.size(), 1u);  // peer 3 on the beacon
  Verdict verdict;
  check_pairs(verdict, live, batch, "live vs batch");
  check_pairs(verdict, rt, batch, "realtime vs batch");
  EXPECT_TRUE(verdict.ok) << verdict.detail;
}

// A withdrawal stamped exactly withdraw_time + threshold. The batch
// detector counts it inside the check window, so the route was withdrawn
// in time. RealTimeZombieDetector::ingest advances its clock first, which
// fires the deadline, and only then applies the withdrawal, so the live
// service emerges the pair. Longlived seeds 104, 209 and 310 hit this in
// the benchmark. Disabled until the detectors agree at that instant; run
// it with --gtest_also_run_disabled_tests.
TEST(Oracle, DISABLED_WithdrawalAtTheDeadlineInstantAgrees) {
  const Prefix beacon = Prefix::parse("84.205.64.0/24");
  const TimePoint announce = kT0;
  const TimePoint withdraw = announce + 2 * zs::netbase::kHour;
  const std::vector<zs::beacon::BeaconEvent> events{{beacon, announce, withdraw, false}};
  const std::vector<zs::mrt::MrtRecord> records{
      message(announce + 10, 1, true, beacon),
      message(announce + 10, 2, true, beacon),
      message(withdraw + 10, 1, false, beacon),
      message(withdraw + kThreshold, 2, false, beacon),
  };
  SpanRecorder spans(false, 0);
  zs::live::LiveConfig config;
  config.shards = 2;
  config.block_on_full = true;
  config.detector.threshold = kThreshold;
  const PairSet live = replay_pass(config, records, events, spans).pairs;
  const PairSet batch = batch_pairs(records, events);
  EXPECT_TRUE(batch.empty());
  Verdict verdict;
  check_pairs(verdict, live, batch, "live vs batch");
  check_pairs(verdict, realtime_pairs(records, events), batch, "realtime vs batch");
  EXPECT_TRUE(verdict.ok) << verdict.detail;
}

TEST(Oracle, ResultWithOnePairRemovedFails) {
  const Synthetic s = synthetic(0);
  const PairSet want = batch_pairs(s.records, s.events);
  ASSERT_FALSE(want.empty());
  PairSet got = want;
  got.pop_back();
  Verdict verdict;
  check_pairs(verdict, got, want, "trimmed result");
  EXPECT_FALSE(verdict.ok);
  EXPECT_NE(verdict.detail.find("trimmed result"), std::string::npos);
  EXPECT_NE(verdict.detail.find("1 missing"), std::string::npos);
  // The first failure is kept; later checks do not overwrite it.
  check_pairs(verdict, PairSet{}, want, "second");
  EXPECT_EQ(verdict.detail.find("second"), std::string::npos);
}

TEST(Spans, SelfTimeAndCoverageOnHandBuiltTree) {
  // root [0,100] on thread 0
  //   a [10,40]          b [35,60]   (siblings overlapping by 5)
  //     c [20,30]
  // d [0,100] on thread 1, a root of its own
  std::vector<Span> spans = {
      {"root", 0, 100, -1, 0, 1}, {"a", 10, 40, 0, 0, 1}, {"b", 35, 60, 0, 0, 1},
      {"c", 20, 30, 1, 0, 1},     {"d", 0, 100, -1, 1, 1},
  };
  const auto self = self_times(spans);
  EXPECT_DOUBLE_EQ(self[0], 50.0);  // 100 - |[10,60]|
  EXPECT_DOUBLE_EQ(self[1], 20.0);  // 30 - 10
  EXPECT_DOUBLE_EQ(self[2], 25.0);
  EXPECT_DOUBLE_EQ(self[3], 10.0);
  EXPECT_DOUBLE_EQ(self[4], 100.0);
  // (20 + 25 + 10) / 100; d is on another thread and does not count.
  EXPECT_DOUBLE_EQ(coverage(spans, 0), 0.55);
  EXPECT_DOUBLE_EQ(coverage(spans, 1), 10.0 / 30.0);

  const auto summary = summarize(spans);
  ASSERT_EQ(summary.size(), 5u);
  EXPECT_EQ(summary[0].name, "d");  // sorted by self time
  EXPECT_EQ(summary[0].count, 1u);
}

TEST(Spans, RecorderNestsPerThread) {
  SpanRecorder recorder(true, 9);
  {
    SpanRecorder::Scope outer(recorder, "outer");
    { SpanRecorder::Scope inner(recorder, "inner"); }
    { SpanRecorder::Scope inner(recorder, "inner"); }
  }
  const auto spans = recorder.spans();
  ASSERT_EQ(spans.size(), 3u);
  EXPECT_EQ(spans[0].parent, -1);
  EXPECT_EQ(spans[1].parent, 0);
  EXPECT_EQ(spans[2].parent, 0);
  EXPECT_EQ(spans[2].run_id, 9u);
  EXPECT_GE(spans[0].end_ns, spans[2].end_ns);
  EXPECT_GE(coverage(spans, 0), 0.0);
  EXPECT_LE(coverage(spans, 0), 1.0);

  SpanRecorder off(false, 1);
  { SpanRecorder::Scope ignored(off, "x"); }
  EXPECT_TRUE(off.spans().empty());
}

TEST(Spans, NearestRankQuantile) {
  EXPECT_EQ(quantile({}, 0.5), 0.0);
  EXPECT_EQ(quantile({3, 1, 2}, 0.5), 2.0);
  std::vector<double> hundred;
  for (int i = 1; i <= 100; ++i) hundred.push_back(i);
  EXPECT_EQ(quantile(hundred, 0.99), 99.0);
  EXPECT_EQ(quantile(hundred, 1.0), 100.0);
}

TEST(Pins, DefaultLongLivedSpecLandsThePinnedPairs) {
  const auto out = zs::scenarios::run_longlived2024(zs::scenarios::LongLived2024Spec{});
  SpanRecorder spans(false, 0);
  zs::live::LiveConfig config;
  config.shards = 2;
  config.block_on_full = true;
  const ReplayPass pass = replay_pass(config, out.updates, out.events, spans);
  EXPECT_EQ(pass.pairs.size(), kPinnedDefaultLongLivedPairs);
  EXPECT_EQ(pass.pairs, batch_pairs(out.updates, out.events));
  EXPECT_EQ(pass.failed, 0u);
}

}  // namespace
}  // namespace zsperf
