// zsperf/workloads.hpp — the benchmark's workloads and their metrics.
//
// Four workloads, each driven through public library calls only:
//
//   longlived_replay  longlived2024 replayed flat out into a 2-shard
//                     LiveService with block_on_full (closed loop
//                     through backpressure, no HTTP).
//   longlived_paced   the same archive as an open loop at a mean 20k
//                     records/s released on the records' own relative
//                     timestamps, one SSE subscriber and one poller of
//                     GET /live/zombies at 50 req/s (no backpressure:
//                     overload shows as drops).
//   ris_batch         the zsdetect pipeline on ris2017mar, single
//                     threaded: decode, StateTracker, interval
//                     prepass, NoisyPeerFilter, long-lived and
//                     interval passes.
//   ris_wire          the four busiest ris2017mar sessions replayed
//                     over loopback BGP-4 (replay_over_wire →
//                     BgpFeedSource) into a 2-shard LiveService; one
//                     replay per process, no warm-up.
//
// BENCHMARK.json gates the two longlived workloads; README.md in this
// directory says why the RIS pair is run by hand, and holds the
// workload table and the per-layer → end-to-end prediction table.

#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "inputs.hpp"
#include "live/service.hpp"
#include "mrt/record.hpp"
#include "oracle.hpp"
#include "spans.hpp"

namespace zsperf {

struct RunOptions {
  std::string workload;
  std::uint64_t seed = 0;
  double seconds = 10.0;
  bool trace = false;
  std::string cache_dir = ".bench_cache";
  std::string out_dir = ".bench_out";
};

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

struct RunReport {
  bool correct = true;
  std::string detail;  // why the oracle failed
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<Metric> metrics;  // end-to-end, or per-layer when traced
  /// Workload-specific figures an untraced run prints besides the
  /// end-to-end set (not part of the JSON result).
  std::vector<Metric> printed;
};

/// The cached input set a workload reads.
InputName input_for(const std::string& workload);

/// Runs one workload per the options. Throws std::invalid_argument for
/// an unknown workload.
RunReport run_workload(const RunOptions& options);

/// Records dropped or never processed over records offered; a run whose
/// result failed the oracle counts as 1.0.
double fail_ratio(std::uint64_t attempted, std::uint64_t failed, bool correct);

// --- one flat-out live pass (exposed for the benchmark's tests) -------

struct ReplayPass {
  std::uint64_t offered = 0;
  std::uint64_t processed = 0;
  std::uint64_t dropped = 0;
  /// Records with a piece dropped at submit or never processed.
  std::uint64_t failed = 0;
  double setup_s = 0.0;   // service start + expect registration
  double answer_s = 0.0;  // first submit → finalized, read-back pairs
  double submit_s = 0.0;  // producer time inside submit()
  double finalize_s = 0.0;
  PairSet pairs;
  std::vector<zombiescope::live::ShardStats> stats;
  std::uint64_t epochs = 0;  // Σ shard snapshot epochs after the pass
  zombiescope::obs::LatSnapshot lag;  // the service's queue-wait histogram
};

/// Starts a service with `config`, registers `events`, submits every
/// record, finalizes and reads back the emerged pairs.
ReplayPass replay_pass(const zombiescope::live::LiveConfig& config,
                       const std::vector<zombiescope::mrt::MrtRecord>& records,
                       const std::vector<zombiescope::beacon::BeaconEvent>& events,
                       SpanRecorder& spans);

}  // namespace zsperf
