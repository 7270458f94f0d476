#include "scenarios/faultlab.hpp"

#include <algorithm>
#include <set>
#include <stdexcept>
#include <utility>

#include "obs/causal.hpp"
#include "scenarios/common.hpp"
#include "topology/topology.hpp"

namespace zombiescope::scenarios {
namespace {

constexpr bgp::Asn kOriginAsn = 65000;
constexpr bgp::Asn kHubAsn = 65100;
constexpr bgp::Asn kFirstFanAsn = 65101;
constexpr bgp::Asn kFirstLeafAsn = 65200;

constexpr netbase::TimePoint kAnnounceAt = 1'000;
constexpr netbase::TimePoint kWithdrawAt = kAnnounceAt + 6 * 3'600;

const char* kBeaconPrefix = "203.0.113.0/24";

bgp::Asn chain_asn(int i) { return kOriginAsn + 1 + static_cast<bgp::Asn>(i); }
bgp::Asn fan_asn(int i) { return kFirstFanAsn + static_cast<bgp::Asn>(i); }
bgp::Asn leaf_asn(int fan, int j) {
  return kFirstLeafAsn + static_cast<bgp::Asn>(fan) * 10 + static_cast<bgp::Asn>(j);
}

/// origin -> chain[0] -> ... -> chain[L-1] -> hub -> fans -> leaves,
/// every link customer->provider going up — a tree, so every route and
/// every withdrawal has exactly one path.
topology::Topology build_palm_topology(const FaultScenarioSpec& spec) {
  topology::Topology topo;
  topo.add_as({kOriginAsn, 3, "origin"});
  for (int i = 0; i < spec.chain_len; ++i) topo.add_as({chain_asn(i), 2, "chain"});
  topo.add_as({kHubAsn, 1, "hub"});
  for (int i = 0; i < spec.fanout; ++i) {
    topo.add_as({fan_asn(i), 2, "fan"});
    for (int j = 0; j < spec.leaves_per_fan; ++j) topo.add_as({leaf_asn(i, j), 3, "leaf"});
  }

  bgp::Asn below = kOriginAsn;
  for (int i = 0; i < spec.chain_len; ++i) {
    topo.add_link(below, chain_asn(i), topology::Relationship::kProvider);
    below = chain_asn(i);
  }
  topo.add_link(below, kHubAsn, topology::Relationship::kProvider);
  for (int i = 0; i < spec.fanout; ++i) {
    topo.add_link(kHubAsn, fan_asn(i), topology::Relationship::kCustomer);
    for (int j = 0; j < spec.leaves_per_fan; ++j)
      topo.add_link(fan_asn(i), leaf_asn(i, j), topology::Relationship::kCustomer);
  }
  return topo;
}

RootCauseScore score_rootcause(const zombie::RootCauseResult& rootcause, bgp::Asn culprit,
                               bgp::Asn injected_from, bgp::Asn injected_to) {
  if (!rootcause.suspect.has_value()) return RootCauseScore::kWrong;
  if (*rootcause.suspect == culprit) return RootCauseScore::kExact;
  const bgp::Asn other = culprit == injected_from ? injected_to : injected_from;
  if (*rootcause.suspect == other) return RootCauseScore::kOffByOneUpstream;
  return RootCauseScore::kWrong;
}

}  // namespace

std::string to_string(FaultKind kind) {
  switch (kind) {
    case FaultKind::kWithdrawalSuppression:
      return "withdrawal_suppression";
    case FaultKind::kReceiveStall:
      return "receive_stall";
  }
  return "unknown";
}

std::string to_string(RootCauseScore score) {
  switch (score) {
    case RootCauseScore::kExact:
      return "exact";
    case RootCauseScore::kOffByOneUpstream:
      return "off_by_one_upstream";
    case RootCauseScore::kWrong:
      return "wrong";
  }
  return "unknown";
}

std::string FaultScenarioSpec::name() const {
  return to_string(kind) + "_chain" + std::to_string(chain_len) + "_fan" +
         std::to_string(fanout) + "x" + std::to_string(leaves_per_fan) + "_seed" +
         std::to_string(seed);
}

FaultScenarioResult run_fault_scenario(const FaultScenarioSpec& spec) {
  if (spec.chain_len < 0 || spec.fanout < 2 || spec.leaves_per_fan < 0)
    throw std::invalid_argument("faultlab: bad scenario shape " + spec.name());

  FaultScenarioResult result;
  result.spec = spec;
  result.prefix = netbase::Prefix::parse(kBeaconPrefix);
  result.injected_from = spec.chain_len == 0 ? kOriginAsn : chain_asn(spec.chain_len - 1);
  result.injected_to = kHubAsn;
  result.culprit_asn = spec.kind == FaultKind::kWithdrawalSuppression ? result.injected_from
                                                                      : result.injected_to;

  const topology::Topology topo = build_palm_topology(spec);
  simnet::Simulation sim(topo, simnet::SimConfig{}, netbase::Rng(spec.seed));

  simnet::TimeWindow window;
  window.start = kWithdrawAt;  // open end: the fault persists
  switch (spec.kind) {
    case FaultKind::kWithdrawalSuppression: {
      simnet::WithdrawalSuppression fault;
      fault.from_asn = result.injected_from;
      fault.to_asn = result.injected_to;
      fault.window = window;
      fault.probability = 1.0;
      sim.add_withdrawal_suppression(fault);
      break;
    }
    case FaultKind::kReceiveStall: {
      simnet::ReceiveStall fault;
      fault.asn = result.injected_to;
      fault.from_asn = result.injected_from;
      fault.window = window;
      sim.add_receive_stall(fault);
      break;
    }
  }

  obs::CausalTracer::global().reset();

  sim.announce(kAnnounceAt, kOriginAsn, result.prefix);
  sim.withdraw(kWithdrawAt, kOriginAsn, result.prefix);
  sim.run_all();

  // Ground truth straight from router state: every non-origin AS still
  // holding a best route after the withdrawal settled is a zombie.
  zombie::ZombieOutbreak outbreak;
  outbreak.prefix = result.prefix;
  outbreak.interval_start = kAnnounceAt;
  outbreak.withdraw_time = kWithdrawAt;
  for (const bgp::Asn asn : topo.all_asns()) {
    if (asn == kOriginAsn) continue;
    const simnet::RouteEntry* best = sim.router(asn).best(result.prefix);
    if (best == nullptr) continue;
    result.zombie_asns.push_back(asn);
    zombie::ZombieRoute route;
    route.peer = zombie::PeerKey{asn, peer_address_for(asn, 0, false)};
    route.prefix = result.prefix;
    route.interval_start = kAnnounceAt;
    route.withdraw_time = kWithdrawAt;
    route.path = best->path.prepend(asn);
    outbreak.routes.push_back(std::move(route));
  }
  std::sort(result.zombie_asns.begin(), result.zombie_asns.end());

  result.expected_zombie_asns.push_back(kHubAsn);
  for (int i = 0; i < spec.fanout; ++i) {
    result.expected_zombie_asns.push_back(fan_asn(i));
    for (int j = 0; j < spec.leaves_per_fan; ++j)
      result.expected_zombie_asns.push_back(leaf_asn(i, j));
  }
  std::sort(result.expected_zombie_asns.begin(), result.expected_zombie_asns.end());

  auto& tracer = obs::CausalTracer::global();
  tracer.drain();
  const std::vector<zombie::FrontierResult> frontiers =
      zombie::localize_frontiers(tracer.records_for(result.prefix));
  if (frontiers.size() == 1) {
    result.frontier = frontiers.front();
    result.localized_exact =
        result.frontier.culprits.size() == 1 &&
        result.frontier.culprits.front().from_asn == result.injected_from &&
        result.frontier.culprits.front().to_asn == result.injected_to;
  }

  result.rootcause = zombie::infer_root_cause(outbreak);
  result.rootcause_score = score_rootcause(result.rootcause, result.culprit_asn,
                                           result.injected_from, result.injected_to);
  return result;
}

std::vector<FaultScenarioSpec> default_fault_suite(int seeds) {
  if (seeds < 1) throw std::invalid_argument("faultlab: seeds must be >= 1");
  // Shapes chosen to vary chain depth (including the degenerate
  // origin->hub link), branching factor, and subtree depth.
  struct Shape {
    int chain_len, fanout, leaves_per_fan;
  };
  constexpr Shape kShapes[] = {{0, 3, 2}, {1, 2, 0}, {2, 3, 2}, {3, 4, 1}};

  std::vector<FaultScenarioSpec> suite;
  for (int s = 0; s < seeds; ++s) {
    for (const Shape& shape : kShapes) {
      for (const FaultKind kind :
           {FaultKind::kWithdrawalSuppression, FaultKind::kReceiveStall}) {
        FaultScenarioSpec spec;
        spec.seed = 0xfa1715ull * 1'000 + static_cast<std::uint64_t>(s);
        spec.kind = kind;
        spec.chain_len = shape.chain_len;
        spec.fanout = shape.fanout;
        spec.leaves_per_fan = shape.leaves_per_fan;
        suite.push_back(spec);
      }
    }
  }
  return suite;
}

FaultSuiteSummary summarize(const std::vector<FaultScenarioResult>& results) {
  FaultSuiteSummary summary;
  summary.total = static_cast<int>(results.size());
  for (const FaultScenarioResult& result : results) {
    if (result.localized_exact) ++summary.localized_exact;
    switch (result.rootcause_score) {
      case RootCauseScore::kExact:
        ++summary.rootcause_exact;
        break;
      case RootCauseScore::kOffByOneUpstream:
        ++summary.rootcause_off_by_one;
        break;
      case RootCauseScore::kWrong:
        ++summary.rootcause_wrong;
        break;
    }
  }
  return summary;
}

}  // namespace zombiescope::scenarios
