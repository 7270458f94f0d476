// Tests for the causal propagation tracer: journal codec packing,
// sampling policy, the lock-free record ring, the per-prefix store,
// tree rendering, and the propagation-tree analysis
// (zombie/propagation.hpp) that zsroot builds on.

#include <gtest/gtest.h>

#include <atomic>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "obs/causal.hpp"
#include "obs/journal.hpp"
#include "zombie/propagation.hpp"

namespace zombiescope::obs {
namespace {

netbase::Prefix p(const std::string& text) { return netbase::Prefix::parse(text); }

HopRecord make_hop(std::uint64_t trace_id, std::uint32_t from, std::uint32_t to,
                   std::uint16_t hop, HopDecision decision,
                   TraceKind kind = TraceKind::kWithdrawal,
                   netbase::TimePoint time = 1000,
                   const std::string& prefix = "203.0.113.0/24") {
  HopRecord record;
  record.trace_id = trace_id;
  record.prefix = p(prefix);
  record.from_asn = from;
  record.to_asn = to;
  record.time = time;
  record.hop = hop;
  record.kind = kind;
  record.decision = decision;
  return record;
}

/// Fixture: every test starts from a clean global tracer and leaves a
/// clean one behind (the tracer is process-wide state).
class ObsCausalTracer : public ::testing::Test {
 protected:
  void SetUp() override {
    CausalTracer::global().reset();
    CausalTracer::global().set_enabled(true);
    CausalTracer::global().set_announce_sample_rate(
        CausalTracer::kDefaultAnnounceSampleRate);
  }
  void TearDown() override { SetUp(); }
};

// --- journal codec -----------------------------------------------------------

TEST(ObsCausalCodec, JournalEventRoundTripsEveryKindAndDecision) {
  for (const TraceKind kind : {TraceKind::kAnnouncement, TraceKind::kWithdrawal}) {
    for (const HopDecision decision :
         {HopDecision::kOriginated, HopDecision::kForwarded,
          HopDecision::kSuppressedByFault, HopDecision::kStalled,
          HopDecision::kPolicyFiltered, HopDecision::kImplicitlyWithdrawn}) {
      const HopRecord record =
          make_hop(0x0123456789abcdefull, 65001, 65002, 7, decision, kind, 22'600);
      const JournalEvent event = to_journal_event(record);
      EXPECT_EQ(event.type, JournalEventType::kPropagationHop);
      EXPECT_EQ(category_of(event.type), kCatPropagation);
      const auto back = hop_from_event(event);
      ASSERT_TRUE(back.has_value());
      EXPECT_EQ(*back, record);
    }
  }
}

TEST(ObsCausalCodec, SurvivesNdjsonSerialization) {
  const HopRecord record = make_hop(42, 65000, 65100, 3, HopDecision::kStalled);
  const auto line = to_ndjson(to_journal_event(record));
  const auto event = parse_ndjson(line);
  ASSERT_TRUE(event.has_value()) << line;
  const auto back = hop_from_event(*event);
  ASSERT_TRUE(back.has_value());
  EXPECT_EQ(*back, record);
}

TEST(ObsCausalCodec, RejectsForeignAndCorruptEvents) {
  JournalEvent other;
  other.type = JournalEventType::kZombieDeclared;
  EXPECT_FALSE(hop_from_event(other).has_value());

  JournalEvent hop = to_journal_event(make_hop(1, 2, 3, 0, HopDecision::kForwarded));
  hop.has_prefix = false;  // a hop without its prefix is useless
  EXPECT_FALSE(hop_from_event(hop).has_value());

  JournalEvent bad_decision = to_journal_event(make_hop(1, 2, 3, 0, HopDecision::kForwarded));
  bad_decision.c = (bad_decision.c & ~0xffll) | 0x7f;  // decision byte out of range
  EXPECT_FALSE(hop_from_event(bad_decision).has_value());

  JournalEvent bad_kind = to_journal_event(make_hop(1, 2, 3, 0, HopDecision::kForwarded));
  bad_kind.c = (bad_kind.c & ~0xff00ll) | (0x7f << 8);  // kind byte out of range
  EXPECT_FALSE(hop_from_event(bad_kind).has_value());
}

TEST(ObsCausalCodec, DecisionAndKindNamesRoundTrip) {
  for (const HopDecision decision :
       {HopDecision::kOriginated, HopDecision::kForwarded, HopDecision::kSuppressedByFault,
        HopDecision::kStalled, HopDecision::kPolicyFiltered,
        HopDecision::kImplicitlyWithdrawn}) {
    const auto parsed = parse_hop_decision(to_string(decision));
    ASSERT_TRUE(parsed.has_value());
    EXPECT_EQ(*parsed, decision);
  }
  EXPECT_FALSE(parse_hop_decision("teleported").has_value());
  EXPECT_EQ(to_string(TraceKind::kAnnouncement), "announcement");
  EXPECT_EQ(to_string(TraceKind::kWithdrawal), "withdrawal");
}

// --- sampling policy ---------------------------------------------------------

TEST_F(ObsCausalTracer, WithdrawalsAlwaysSampledAnnouncementsByRate) {
  CausalTracer& tracer = CausalTracer::global();
  tracer.set_announce_sample_rate(0.0);
  for (int i = 0; i < 64; ++i) {
    EXPECT_TRUE(tracer.begin_trace(TraceKind::kWithdrawal).sampled());
    EXPECT_FALSE(tracer.begin_trace(TraceKind::kAnnouncement).sampled());
  }
  tracer.set_announce_sample_rate(1.0);
  for (int i = 0; i < 64; ++i)
    EXPECT_TRUE(tracer.begin_trace(TraceKind::kAnnouncement).sampled());
}

TEST_F(ObsCausalTracer, AnnouncementSamplingIsDeterministicPerSeed) {
  CausalTracer& tracer = CausalTracer::global();
  tracer.set_announce_sample_rate(0.5);
  tracer.set_sample_seed(0xfeedull);

  auto draw = [&] {
    std::vector<bool> sampled;
    for (int i = 0; i < 256; ++i)
      sampled.push_back(tracer.begin_trace(TraceKind::kAnnouncement).sampled());
    return sampled;
  };
  const std::vector<bool> first = draw();
  tracer.reset();  // restarts trace ids at 1
  tracer.set_sample_seed(0xfeedull);
  EXPECT_EQ(draw(), first);

  // The rate actually bites: roughly half sampled, not all or none.
  const auto hits = static_cast<std::size_t>(
      std::count(first.begin(), first.end(), true));
  EXPECT_GT(hits, first.size() / 4);
  EXPECT_LT(hits, 3 * first.size() / 4);
}

TEST_F(ObsCausalTracer, DisabledTracerSamplesAndRecordsNothing) {
  CausalTracer& tracer = CausalTracer::global();
  tracer.set_enabled(false);
  EXPECT_FALSE(tracer.begin_trace(TraceKind::kWithdrawal).sampled());
  tracer.record(make_hop(99, 1, 2, 0, HopDecision::kForwarded));
  tracer.set_enabled(true);
  tracer.record(make_hop(0, 1, 2, 0, HopDecision::kForwarded));  // unsampled id
  EXPECT_EQ(tracer.drain(), 0u);
  EXPECT_EQ(tracer.recorded(), 0u);
}

// --- ring + store ------------------------------------------------------------

TEST_F(ObsCausalTracer, RecordsLandInPerPrefixStoreOldestFirst) {
  CausalTracer& tracer = CausalTracer::global();
  const TraceContext root = tracer.begin_trace(TraceKind::kWithdrawal);
  ASSERT_TRUE(root.sampled());
  tracer.record(make_hop(root.trace_id, 0, 65000, 0, HopDecision::kOriginated));
  tracer.record(make_hop(root.trace_id, 65000, 65001, 1, HopDecision::kForwarded,
                         TraceKind::kWithdrawal, 1010));
  tracer.record(make_hop(root.trace_id, 65001, 65002, 2, HopDecision::kStalled,
                         TraceKind::kWithdrawal, 1020, "203.0.113.0/24"));
  tracer.record(make_hop(root.trace_id, 0, 65000, 0, HopDecision::kOriginated,
                         TraceKind::kAnnouncement, 1030, "198.51.100.0/24"));

  const auto hops = tracer.records_for(p("203.0.113.0/24"));
  ASSERT_EQ(hops.size(), 3u);
  EXPECT_EQ(hops[0].decision, HopDecision::kOriginated);
  EXPECT_EQ(hops[2].decision, HopDecision::kStalled);
  const auto prefixes = tracer.traced_prefixes();
  EXPECT_EQ(prefixes.size(), 2u);
  EXPECT_EQ(tracer.recorded(), 4u);
  EXPECT_EQ(tracer.dropped(), 0u);
}

TEST_F(ObsCausalTracer, RingOverflowDropsAndCountsInsteadOfBlocking) {
  CausalTracer& tracer = CausalTracer::global();
  const std::size_t n = CausalTracer::kRingCapacity + 100;
  for (std::size_t i = 0; i < n; ++i)
    tracer.record(make_hop(7, 1, 2, 0, HopDecision::kForwarded));
  EXPECT_EQ(tracer.dropped(), 100u);
  EXPECT_EQ(tracer.drain(), CausalTracer::kRingCapacity);
  EXPECT_EQ(tracer.recorded(), CausalTracer::kRingCapacity);
}

TEST_F(ObsCausalTracer, PerPrefixStoreIsBounded) {
  CausalTracer& tracer = CausalTracer::global();
  const std::size_t n = CausalTracer::kMaxRecordsPerPrefix + 50;
  for (std::size_t i = 0; i < n; ++i) {
    tracer.record(make_hop(7, 1, 2, 0, HopDecision::kForwarded, TraceKind::kWithdrawal,
                           static_cast<netbase::TimePoint>(i)));
    if (i % 1024 == 0) tracer.drain();  // keep the ring from overflowing
  }
  const auto hops = tracer.records_for(p("203.0.113.0/24"));
  ASSERT_EQ(hops.size(), CausalTracer::kMaxRecordsPerPrefix);
  // Oldest records were evicted; the newest survive.
  EXPECT_EQ(hops.back().time, static_cast<netbase::TimePoint>(n - 1));
  EXPECT_EQ(hops.front().time, static_cast<netbase::TimePoint>(50));
}

TEST_F(ObsCausalTracer, MirrorsIntoJournalWhenPropagationCategoryEnabled) {
  Journal& journal = Journal::global();
  journal.reset();
  const std::uint32_t saved = journal.enabled_categories();
  journal.set_enabled_categories(kCatPropagation);

  const HopRecord record = make_hop(11, 65000, 65001, 1, HopDecision::kSuppressedByFault);
  CausalTracer::global().record(record);
  journal.pump();
  bool found = false;
  for (const JournalEvent& event : journal.tail(64)) {
    const auto hop = hop_from_event(event);
    if (hop.has_value() && *hop == record) found = true;
  }
  EXPECT_TRUE(found);

  // Mask off: no mirroring.
  journal.set_enabled_categories(0);
  CausalTracer::global().record(make_hop(12, 1, 2, 0, HopDecision::kForwarded));
  journal.pump();
  EXPECT_EQ(journal.tail(64).size(), 1u);

  journal.set_enabled_categories(saved);
  journal.reset();
}

TEST_F(ObsCausalTracer, ConcurrentRecordersNeverCorruptOnlyDrop) {
  CausalTracer& tracer = CausalTracer::global();
  constexpr int kThreads = 4;
  constexpr int kPerThread = 20'000;  // > ring capacity in aggregate
  std::atomic<int> go{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&tracer, &go, t] {
      go.fetch_add(1);
      while (go.load() < kThreads) {
      }
      for (int i = 0; i < kPerThread; ++i)
        tracer.record(make_hop(static_cast<std::uint64_t>(t) + 1, 65000,
                               65001 + static_cast<std::uint32_t>(t), 1,
                               HopDecision::kForwarded));
    });
  }
  std::size_t drained = 0;
  while (go.load() < kThreads) {
  }
  for (int i = 0; i < 200; ++i) drained += tracer.drain();
  for (std::thread& thread : threads) thread.join();
  drained += tracer.drain();

  EXPECT_EQ(drained + tracer.dropped(),
            static_cast<std::size_t>(kThreads) * kPerThread);
  // Every drained record is one of the exact values some thread wrote —
  // no torn reads.
  for (const HopRecord& hop : tracer.records_for(p("203.0.113.0/24"))) {
    EXPECT_GE(hop.trace_id, 1u);
    EXPECT_LE(hop.trace_id, static_cast<std::uint64_t>(kThreads));
    EXPECT_EQ(hop.to_asn, 65000u + hop.trace_id);
    EXPECT_EQ(hop.decision, HopDecision::kForwarded);
  }
}

// --- tree rendering ----------------------------------------------------------

TEST(ObsCausalTree, RendersPalmTreeWithIndentedChildren) {
  const std::uint64_t id = 5;
  std::vector<HopRecord> hops{
      make_hop(id, 0, 65000, 0, HopDecision::kOriginated),
      make_hop(id, 65000, 65001, 1, HopDecision::kForwarded, TraceKind::kWithdrawal, 1010),
      make_hop(id, 65001, 65002, 2, HopDecision::kStalled, TraceKind::kWithdrawal, 1020),
      make_hop(id, 65001, 65003, 2, HopDecision::kForwarded, TraceKind::kWithdrawal, 1021),
  };
  const std::string tree = render_propagation_tree(p("203.0.113.0/24"), hops);
  EXPECT_NE(tree.find("203.0.113.0/24"), std::string::npos);
  EXPECT_NE(tree.find("trace 5"), std::string::npos);
  EXPECT_NE(tree.find("rooted at AS65000"), std::string::npos);
  // The stalled hop renders under its sender, deeper-indented.
  const auto origin_at = tree.find("AS65000 withdrawal originated");
  const auto fwd_at = tree.find("AS65001 withdrawal forwarded");
  const auto stall_at = tree.find("AS65002 withdrawal stalled");
  ASSERT_NE(origin_at, std::string::npos);
  ASSERT_NE(fwd_at, std::string::npos);
  ASSERT_NE(stall_at, std::string::npos);
  EXPECT_LT(origin_at, fwd_at);
  EXPECT_LT(fwd_at, stall_at);
}

TEST(ObsCausalTree, CapsRenderedTraceCountMostRecentFirst) {
  std::vector<HopRecord> hops;
  for (std::uint64_t id = 1; id <= 6; ++id)
    hops.push_back(make_hop(id, 0, 65000, 0, HopDecision::kOriginated,
                            TraceKind::kWithdrawal,
                            static_cast<netbase::TimePoint>(1000 + id)));
  const std::string tree = render_propagation_tree(p("203.0.113.0/24"), hops, 2);
  EXPECT_NE(tree.find("trace 6"), std::string::npos);
  EXPECT_NE(tree.find("trace 5"), std::string::npos);
  EXPECT_EQ(tree.find("trace 4"), std::string::npos);
}

}  // namespace
}  // namespace zombiescope::obs

// --- propagation-tree analysis (zombie/propagation.hpp) ----------------------

namespace zombiescope::zombie {
namespace {

using obs::HopDecision;
using obs::HopRecord;
using obs::TraceKind;

HopRecord hop(std::uint64_t id, std::uint32_t from, std::uint32_t to, std::uint16_t depth,
              HopDecision decision, TraceKind kind = TraceKind::kWithdrawal,
              netbase::TimePoint time = 1000) {
  HopRecord record;
  record.trace_id = id;
  record.prefix = netbase::Prefix::parse("203.0.113.0/24");
  record.from_asn = from;
  record.to_asn = to;
  record.time = time;
  record.hop = depth;
  record.kind = kind;
  record.decision = decision;
  return record;
}

TEST(ObsCausalPropagation, GroupsRecordsIntoSortedTraces) {
  std::vector<HopRecord> records{
      hop(2, 65000, 65001, 1, HopDecision::kForwarded, TraceKind::kAnnouncement, 900),
      hop(1, 65001, 65002, 2, HopDecision::kStalled, TraceKind::kWithdrawal, 1020),
      hop(1, 0, 65000, 0, HopDecision::kOriginated, TraceKind::kWithdrawal, 1000),
      hop(1, 65000, 65001, 1, HopDecision::kForwarded, TraceKind::kWithdrawal, 1010),
      hop(2, 0, 65000, 0, HopDecision::kOriginated, TraceKind::kAnnouncement, 890),
  };
  const auto traces = group_traces(records);
  ASSERT_EQ(traces.size(), 2u);
  EXPECT_EQ(traces[0].trace_id, 1u);
  EXPECT_TRUE(traces[0].is_withdrawal_rooted());
  ASSERT_TRUE(traces[0].origin_asn.has_value());
  EXPECT_EQ(*traces[0].origin_asn, 65000u);
  ASSERT_EQ(traces[0].hops.size(), 3u);
  EXPECT_EQ(traces[0].hops[0].decision, HopDecision::kOriginated);  // sorted by hop
  EXPECT_EQ(traces[0].hops[2].decision, HopDecision::kStalled);
  EXPECT_FALSE(traces[1].is_withdrawal_rooted());
}

TEST(ObsCausalPropagation, RootlessTraceIsNotWithdrawalRooted) {
  const auto traces =
      group_traces({hop(9, 65000, 65001, 1, HopDecision::kForwarded)});
  ASSERT_EQ(traces.size(), 1u);
  EXPECT_FALSE(traces[0].root_kind.has_value());
  EXPECT_FALSE(traces[0].is_withdrawal_rooted());
}

TEST(ObsCausalPropagation, FrontierSeparatesReachedFromCulprits) {
  const auto traces = group_traces({
      hop(1, 0, 65000, 0, HopDecision::kOriginated),
      hop(1, 65000, 65001, 1, HopDecision::kForwarded, TraceKind::kWithdrawal, 1010),
      hop(1, 65001, 65002, 2, HopDecision::kSuppressedByFault, TraceKind::kWithdrawal, 1020),
      hop(1, 65001, 65003, 2, HopDecision::kImplicitlyWithdrawn, TraceKind::kWithdrawal,
          1021),
  });
  ASSERT_EQ(traces.size(), 1u);
  const FrontierResult frontier = localize_frontier(traces[0]);
  EXPECT_EQ(frontier.reached, (std::vector<std::uint32_t>{65000, 65001, 65003}));
  ASSERT_EQ(frontier.culprits.size(), 1u);
  EXPECT_EQ(frontier.culprits[0].from_asn, 65001u);
  EXPECT_EQ(frontier.culprits[0].to_asn, 65002u);
  EXPECT_EQ(frontier.culprits[0].decision, HopDecision::kSuppressedByFault);
}

TEST(ObsCausalPropagation, LocalizeFrontiersSkipsAnnouncementRootedTraces) {
  const auto frontiers = localize_frontiers({
      hop(1, 0, 65000, 0, HopDecision::kOriginated, TraceKind::kAnnouncement),
      hop(1, 65000, 65001, 1, HopDecision::kForwarded, TraceKind::kAnnouncement, 1010),
      hop(2, 0, 65000, 0, HopDecision::kOriginated, TraceKind::kWithdrawal, 2000),
      hop(2, 65000, 65001, 1, HopDecision::kStalled, TraceKind::kWithdrawal, 2010),
  });
  ASSERT_EQ(frontiers.size(), 1u);
  EXPECT_EQ(frontiers[0].trace_id, 2u);
  ASSERT_EQ(frontiers[0].culprits.size(), 1u);
  EXPECT_EQ(frontiers[0].culprits[0].decision, HopDecision::kStalled);
}

}  // namespace
}  // namespace zombiescope::zombie
