// tsdb_overhead — quantifies what the zstsdb sampler costs the
// process it observes. Three angles:
//
//   * BM_TsdbSampleOnce: the absolute cost of one sampler tick
//     (registry sweep + latency quantiles + probes + rule evaluation)
//     as the probe count grows — this is the work the daemon pays
//     once per cadence on the sampler thread.
//   * BM_TsdbQueryRate: one /tsdb/query-equivalent rate() over a full
//     tier-0 ring — the read path an attached zstop drives every
//     second.
//   * BM_DecodeLoop{SamplerOff,SamplerOn1s}: the gated A/B — a
//     CPU-bound BGP decode loop with no store vs with a live sampler
//     at the production 1 s cadence. check_bench_regression.sh (and
//     the <5% acceptance bound in ISSUE/EXPERIMENTS) compare exactly
//     this pair across commits.
//
// No scenario cache: everything here is synthetic and runs in
// milliseconds.

#include <benchmark/benchmark.h>

#include <cstdint>
#include <memory>
#include <vector>

#include "beacon/clock.hpp"
#include "bench/bench_common.hpp"
#include "netbase/time.hpp"
#include "obs/tsdb.hpp"

using namespace zombiescope;

namespace {

bgp::UpdateMessage sample_update() {
  bgp::UpdateMessage msg;
  msg.announced.push_back(netbase::Prefix::parse("2a0d:3dc1:1851::/48"));
  msg.attributes.as_path =
      bgp::AsPath{61573, 28598, 10429, 12956, 3356, 34549, 8298, 210312};
  msg.attributes.next_hop = netbase::IpAddress::parse("2001:db8::1");
  msg.attributes.local_pref = 100;
  msg.attributes.aggregator =
      beacon::make_beacon_aggregator(12654, netbase::utc(2018, 7, 15, 12, 0, 0));
  msg.attributes.communities = {{8298, 100}, {8298, 20}};
  return msg;
}

/// A store with `probes` synthetic gauges and one sustained-duration
/// rule, pre-warmed so every series exists before timing starts.
std::unique_ptr<obs::Tsdb> make_store(int probes) {
  obs::TsdbConfig cfg;
  cfg.max_series = 2048;
  auto tsdb = std::make_unique<obs::Tsdb>(cfg);
  for (int i = 0; i < probes; ++i) {
    tsdb->add_probe("bench.probe_" + std::to_string(i), obs::SeriesKind::kGauge,
                    [i] { return static_cast<double>(i); });
  }
  obs::AlertRule rule;
  rule.name = "bench_rule";
  rule.metric = "bench.probe_0";
  rule.threshold = 1e9;  // never fires
  rule.for_seconds = 30.0;
  tsdb->add_rule(rule);
  tsdb->sample_once(0);
  return tsdb;
}

void BM_TsdbSampleOnce(benchmark::State& state) {
  auto tsdb = make_store(static_cast<int>(state.range(0)));
  std::int64_t t = 1000;
  for (auto _ : state) {
    tsdb->sample_once(t);
    t += 1000;
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_TsdbSampleOnce)->Arg(16)->Arg(128)->Arg(512);

void BM_TsdbQueryRate(benchmark::State& state) {
  obs::TsdbConfig cfg;
  auto tsdb = std::make_unique<obs::Tsdb>(cfg);
  std::int64_t counter = 0;
  tsdb->add_probe("bench.records_total", obs::SeriesKind::kCounter,
                  [&counter] { return static_cast<double>(counter); });
  // Fill tier 0 (900 slots) completely, so the query walks a full ring.
  for (std::int64_t t = 0; t < 1000; ++t) {
    counter += 100;
    tsdb->sample_once(t * 1000);
  }
  for (auto _ : state) {
    const auto q = tsdb->query("bench.records_total", 900'000, 0, true);
    benchmark::DoNotOptimize(q.points.size());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_TsdbQueryRate);

void decode_loop(benchmark::State& state) {
  const auto wire = sample_update().encode();
  for (auto _ : state) {
    auto msg = bgp::UpdateMessage::decode(wire);
    benchmark::DoNotOptimize(msg.announced.size());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}

void BM_DecodeLoopSamplerOff(benchmark::State& state) { decode_loop(state); }
BENCHMARK(BM_DecodeLoopSamplerOff);

void BM_DecodeLoopSamplerOn1s(benchmark::State& state) {
  auto tsdb = make_store(32);
  const bool started = tsdb->start();  // production cadence: 1 s
  decode_loop(state);
  if (started) tsdb->stop();
  state.counters["sampler"] = started ? 1.0 : 0.0;
}
BENCHMARK(BM_DecodeLoopSamplerOn1s);

}  // namespace

// Expanded BENCHMARK_MAIN so the run ends with a telemetry snapshot
// (BENCH_tsdb_overhead.json) for trajectory diffing — the sampler-on
// vs sampler-off pair is what the regression gate watches.
int main(int argc, char** argv) {
  zombiescope::bench::begin_bench_session();
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  zombiescope::bench::emit_metrics_snapshot("tsdb_overhead");
  return 0;
}
