// End-to-end causal tracing: the seeded fault scenarios must localize
// the exact injected link from the tracer's hop records, the
// palm-tree heuristic must score as designed, and a journal round-trip
// (what zsroot consumes offline) must preserve the localization.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <string>
#include <vector>

#include "netbase/rng.hpp"
#include "obs/causal.hpp"
#include "obs/journal.hpp"
#include "scenarios/faultlab.hpp"
#include "simnet/simulation.hpp"
#include "topology/topology.hpp"
#include "zombie/propagation.hpp"

namespace zombiescope::scenarios {
namespace {

TEST(ObsCausalE2E, SuiteLocalizesEveryInjectedFaultAcrossSeeds) {
  const auto suite = default_fault_suite(5);
  ASSERT_GE(suite.size(), 5u * 2u);  // >= 5 seeds x both fault kinds
  for (const FaultScenarioSpec& spec : suite) {
    const FaultScenarioResult result = run_fault_scenario(spec);

    // The simulator produced the zombie set the topology predicts.
    EXPECT_EQ(result.zombie_asns, result.expected_zombie_asns) << spec.name();

    // Causal localization: exactly the injected link, nothing else.
    EXPECT_TRUE(result.localized_exact) << spec.name();
    ASSERT_EQ(result.frontier.culprits.size(), 1u) << spec.name();
    const zombie::CulpritLink& culprit = result.frontier.culprits.front();
    EXPECT_EQ(culprit.from_asn, result.injected_from) << spec.name();
    EXPECT_EQ(culprit.to_asn, result.injected_to) << spec.name();
    EXPECT_EQ(culprit.decision, spec.kind == FaultKind::kWithdrawalSuppression
                                    ? obs::HopDecision::kSuppressedByFault
                                    : obs::HopDecision::kStalled)
        << spec.name();

    // Everyone upstream of the fault saw the withdraw; no zombie did.
    for (const std::uint32_t asn : result.frontier.reached)
      EXPECT_FALSE(std::binary_search(result.zombie_asns.begin(),
                                      result.zombie_asns.end(), asn))
          << spec.name() << ": AS" << asn << " both saw the withdraw and kept the route";

    // The palm-tree heuristic behaves exactly as §5.2 predicts: a
    // receive-side fault is named exactly; a send-side suppression is
    // pinned one AS downstream (the heuristic's documented blind spot).
    EXPECT_EQ(result.rootcause_score, spec.kind == FaultKind::kReceiveStall
                                          ? RootCauseScore::kExact
                                          : RootCauseScore::kOffByOneUpstream)
        << spec.name();
    ASSERT_TRUE(result.rootcause.suspect.has_value()) << spec.name();
    EXPECT_EQ(*result.rootcause.suspect, result.injected_to) << spec.name();
  }

  const FaultSuiteSummary summary = [&] {
    std::vector<FaultScenarioResult> results;
    for (const FaultScenarioSpec& spec : default_fault_suite(2))
      results.push_back(run_fault_scenario(spec));
    return summarize(results);
  }();
  EXPECT_EQ(summary.localized_exact, summary.total);
  EXPECT_EQ(summary.rootcause_wrong, 0);
  EXPECT_DOUBLE_EQ(summary.localization_accuracy(), 1.0);
  EXPECT_DOUBLE_EQ(summary.rootcause_link_rate(), 1.0);
}

TEST(ObsCausalE2E, CleanWithdrawalReachesEveryoneAndHasNoCulprits) {
  // No fault injected: the withdrawal reaches the whole tree, leaves no
  // zombies, and the frontier reports no dead links.
  topology::Topology topo;
  topo.add_as({65000, 3, "origin"});
  topo.add_as({65001, 2, "mid"});
  topo.add_as({65002, 1, "top"});
  topo.add_as({65003, 2, "fan"});
  topo.add_link(65000, 65001, topology::Relationship::kProvider);
  topo.add_link(65001, 65002, topology::Relationship::kProvider);
  topo.add_link(65002, 65003, topology::Relationship::kCustomer);

  obs::CausalTracer::global().reset();
  simnet::Simulation sim(topo, simnet::SimConfig{}, netbase::Rng(1));
  const netbase::Prefix prefix = netbase::Prefix::parse("203.0.113.0/24");
  sim.announce(1'000, 65000, prefix);
  sim.withdraw(10'000, 65000, prefix);
  sim.run_all();

  for (const bgp::Asn asn : {65001u, 65002u, 65003u})
    EXPECT_EQ(sim.router(asn).best(prefix), nullptr) << "AS" << asn << " kept a zombie";

  obs::CausalTracer& tracer = obs::CausalTracer::global();
  const auto frontiers = zombie::localize_frontiers(tracer.records_for(prefix));
  ASSERT_EQ(frontiers.size(), 1u);
  EXPECT_TRUE(frontiers[0].culprits.empty());
  EXPECT_EQ(frontiers[0].reached,
            (std::vector<std::uint32_t>{65000, 65001, 65002, 65003}));

  // Well-formed trace: rooted at hop 0 / pseudo-sender AS0, one id.
  const auto traces = zombie::group_traces(tracer.records_for(prefix));
  bool saw_withdrawal_trace = false;
  for (const zombie::PropagationTrace& trace : traces) {
    if (!trace.is_withdrawal_rooted()) continue;
    saw_withdrawal_trace = true;
    ASSERT_FALSE(trace.hops.empty());
    EXPECT_EQ(trace.hops.front().hop, 0u);
    EXPECT_EQ(trace.hops.front().from_asn, 0u);
    for (const obs::HopRecord& hop : trace.hops) EXPECT_EQ(hop.trace_id, trace.trace_id);
  }
  EXPECT_TRUE(saw_withdrawal_trace);
  tracer.reset();
}

TEST(ObsCausalE2E, JournalRoundTripPreservesLocalization) {
  // The offline path zsroot uses: mirror hops into the journal, write
  // an NDJSON file, read it back, and localize from the file alone.
  const std::string path = ::testing::TempDir() + "causal_e2e_journal.ndjson";

  obs::Journal& journal = obs::Journal::global();
  journal.reset();
  const std::uint32_t saved = journal.enabled_categories();
  journal.set_enabled_categories(obs::kCatPropagation);
  journal.attach_writer(
      std::make_unique<obs::JournalWriter>(path, obs::JournalFormat::kNdjson));

  FaultScenarioSpec spec;
  spec.seed = 3;
  spec.kind = FaultKind::kReceiveStall;
  spec.chain_len = 2;
  spec.fanout = 3;
  spec.leaves_per_fan = 1;
  const FaultScenarioResult live = run_fault_scenario(spec);
  ASSERT_TRUE(live.localized_exact);

  journal.close_writer();
  journal.set_enabled_categories(saved);

  std::vector<obs::HopRecord> hops;
  for (const obs::JournalEvent& event : obs::read_journal_file(path)) {
    const auto hop = obs::hop_from_event(event);
    if (hop.has_value() && hop->prefix == live.prefix) hops.push_back(*hop);
  }
  ASSERT_FALSE(hops.empty());

  const auto frontiers = zombie::localize_frontiers(hops);
  ASSERT_EQ(frontiers.size(), 1u);
  ASSERT_EQ(frontiers[0].culprits.size(), 1u);
  EXPECT_EQ(frontiers[0].culprits[0].from_asn, live.injected_from);
  EXPECT_EQ(frontiers[0].culprits[0].to_asn, live.injected_to);
  EXPECT_EQ(frontiers[0].culprits[0].decision, obs::HopDecision::kStalled);
  EXPECT_EQ(frontiers[0].reached, live.frontier.reached);

  std::remove(path.c_str());
  journal.reset();
}

}  // namespace
}  // namespace zombiescope::scenarios
