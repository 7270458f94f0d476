#include "bench/bench_common.hpp"

#include <errno.h>
#include <sys/resource.h>

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <filesystem>

#include "mrt/codec.hpp"
#include "obs/export.hpp"
#include "obs/heap.hpp"
#include "obs/lathist.hpp"
#include "obs/prof.hpp"
#include "obs/trace.hpp"

namespace zombiescope::bench {

namespace {

namespace fs = std::filesystem;

// Set by print_header so the at-exit snapshot can report the bench's
// wall time.
std::chrono::steady_clock::time_point g_bench_started;
bool g_bench_started_valid = false;

/// Peak RSS of this process in bytes (ru_maxrss is KiB on Linux).
long long peak_rss_bytes() {
  rusage usage{};
  if (getrusage(RUSAGE_SELF, &usage) != 0) return 0;
  return static_cast<long long>(usage.ru_maxrss) * 1024;
}

std::string period_tag(int which) {
  switch (which) {
    case 0:
      return "ris2018jul";
    case 1:
      return "ris2017oct";
    default:
      return "ris2017mar";
  }
}

// Rebuilds the deterministic (non-archive) parts of a period output.
void fill_ris_metadata(const scenarios::RisPeriodSpec& spec,
                       scenarios::ScenarioOutput& out) {
  const auto schedule = beacon::RisBeaconSchedule::classic();
  out.events = schedule.events(spec.start, spec.end);
  out.studied_announcements = static_cast<int>(out.events.size());
  out.noisy_peers = {zombie::PeerKey{
      scenarios::kNoisyRisPeerAsn,
      scenarios::peer_address_for(scenarios::kNoisyRisPeerAsn, 0, true)}};
  // Peer sessions are recovered from the archive itself (like the
  // paper, which learns the peer set from the data).
  std::set<zombie::PeerKey> peers;
  for (const auto& record : out.updates) {
    if (const auto* msg = std::get_if<mrt::Bgp4mpMessage>(&record))
      peers.insert({msg->peer_asn, msg->peer_address});
  }
  out.all_peers.assign(peers.begin(), peers.end());
}

}  // namespace

std::string cache_dir() {
  if (const char* env = std::getenv("ZS_CACHE_DIR"); env != nullptr && *env != '\0')
    return env;
  return "zs_bench_cache";
}

scenarios::RisPeriodSpec ris_spec(int which) {
  switch (which) {
    case 0:
      return scenarios::period_2018jul();
    case 1:
      return scenarios::period_2017oct();
    default:
      return scenarios::period_2017mar();
  }
}

scenarios::ScenarioOutput load_ris_period(int which) {
  obs::ScopedSpan span("bench.load_ris_period");
  const auto spec = ris_spec(which);
  const std::string path = cache_dir() + "/" + period_tag(which) + ".updates.mrt";
  scenarios::ScenarioOutput out;
  if (fs::exists(path)) {
    std::fprintf(stderr, "[cache] loading %s\n", path.c_str());
    out.updates = mrt::read_file(path);
  } else {
    std::fprintf(stderr, "[sim] running period %s (cache miss)\n", spec.label.c_str());
    out = scenarios::run_ris_period(spec);
    fs::create_directories(cache_dir());
    mrt::write_file(path, out.updates);
  }
  fill_ris_metadata(spec, out);
  return out;
}

scenarios::LongLived2024Output load_longlived2024() {
  obs::ScopedSpan span("bench.load_longlived2024");
  const scenarios::LongLived2024Spec spec;
  const std::string updates_path = cache_dir() + "/longlived2024.updates.mrt";
  const std::string dumps_path = cache_dir() + "/longlived2024.ribs.mrt";
  scenarios::LongLived2024Output out;
  if (fs::exists(updates_path) && fs::exists(dumps_path)) {
    std::fprintf(stderr, "[cache] loading %s\n", updates_path.c_str());
    out.updates = mrt::read_file(updates_path);
    out.rib_dumps = mrt::read_file(dumps_path);
    // Deterministic metadata, recomputed.
    const auto daily = beacon::LongLivedBeaconSchedule::paper_deployment(
        beacon::LongLivedBeaconSchedule::Approach::kDaily);
    const auto fifteen = beacon::LongLivedBeaconSchedule::paper_deployment(
        beacon::LongLivedBeaconSchedule::Approach::kFifteenDay);
    out.events =
        daily.events(netbase::utc(2024, 6, 4, 11, 45, 0), netbase::utc(2024, 6, 10, 9, 30, 0) + 1);
    auto second = fifteen.events(netbase::utc(2024, 6, 10, 11, 30, 0),
                                 netbase::utc(2024, 6, 22, 17, 30, 0) + 1);
    out.events.insert(out.events.end(), second.begin(), second.end());
    out.studied_announcements = 0;
    for (const auto& event : out.events)
      if (!event.superseded) ++out.studied_announcements;
    out.resurrected_prefix = fifteen.prefix_for(netbase::utc(2024, 6, 21, 18, 45, 0));
    out.impactful_prefix = fifteen.prefix_for(netbase::utc(2024, 6, 18, 22, 30, 0));
    out.longest_prefix = fifteen.prefix_for(netbase::utc(2024, 6, 18, 16, 0, 0));
    out.roa_removed_at = netbase::utc(2024, 6, 22, 19, 49, 0);
    out.rrc25_noisy_routers = {
        {scenarios::Cast::kNoisy1, netbase::IpAddress::parse("176.119.234.201")},
        {scenarios::Cast::kNoisy1, netbase::IpAddress::parse("2001:678:3f4:5::1")},
        {scenarios::Cast::kNoisy2, netbase::IpAddress::parse("2a0c:9a40:1031::504")}};
    for (const auto& key : out.rrc25_noisy_routers) out.noisy_peers.insert(key);
    std::set<zombie::PeerKey> peers;
    for (const auto& record : out.updates) {
      if (const auto* msg = std::get_if<mrt::Bgp4mpMessage>(&record))
        peers.insert({msg->peer_asn, msg->peer_address});
    }
    out.all_peers.assign(peers.begin(), peers.end());
  } else {
    std::fprintf(stderr, "[sim] running longlived2024 (cache miss)\n");
    out = scenarios::run_longlived2024(spec);
    fs::create_directories(cache_dir());
    mrt::write_file(updates_path, out.updates);
    mrt::write_file(dumps_path, out.rib_dumps);
  }
  return out;
}

void emit_metrics_snapshot(const std::string& name) {
  // Stop the profiling session (started by print_header) even when the
  // JSON snapshot itself is suppressed, so the timer is never left
  // armed past the harness's lifetime.
  obs::ProfileReport profile;
  if (obs::Profiler::global().running()) profile = obs::Profiler::global().stop();
  obs::HeapReport heap;
  if (obs::HeapProfiler::global().running()) {
    heap = obs::HeapProfiler::global().stop();  // also refreshes zs_heap_*
  }
  if (const char* env = std::getenv("ZS_NO_BENCH_JSON"); env != nullptr && *env != '\0')
    return;
  std::string dir = ".";
  if (const char* env = std::getenv("ZS_BENCH_JSON_DIR"); env != nullptr && *env != '\0')
    dir = env;
  const std::string path = dir + "/BENCH_" + name + ".json";
  try {
    char wall[32] = "0";
    if (g_bench_started_valid) {
      const std::chrono::duration<double> elapsed =
          std::chrono::steady_clock::now() - g_bench_started;
      std::snprintf(wall, sizeof(wall), "%.3f", elapsed.count());
    }
    obs::JsonSections extra;
    extra.emplace_back("bench", "\"" + name + "\"");
    extra.emplace_back("wall_time_s", wall);
    extra.emplace_back("peak_rss_bytes", std::to_string(peak_rss_bytes()));
    if (profile.valid) extra.emplace_back("profile", profile.to_json());
    if (heap.valid) extra.emplace_back("heap", heap.to_json());
    // The zslat stage-latency section (empty registry renders "{}",
    // skipped so snapshots without live pipelines stay unchanged).
    if (const std::string latency = obs::LatRegistry::global().to_json();
        latency != "{}") {
      extra.emplace_back("latency", latency);
    }
    const auto spans = obs::Tracer::global().snapshot();
    obs::write_text_file(
        path, obs::to_json(obs::Registry::global().snapshot(), spans, extra));
  } catch (const std::exception& e) {
    std::fprintf(stderr, "[obs] metrics snapshot failed: %s\n", e.what());
  }
}

void begin_bench_session() {
  static const bool started = [] {
    g_bench_started = std::chrono::steady_clock::now();
    g_bench_started_valid = true;
    if (std::getenv("ZS_NO_PROF") == nullptr) obs::Profiler::global().start();
    // The heap section rides along by default so every BENCH_*.json
    // carries allocation counts next to its profile ($ZS_NO_HEAP opts
    // out; a sanitizer build makes start() a graceful no-op).
    if (std::getenv("ZS_NO_HEAP") == nullptr)
      obs::HeapProfiler::global().start();
    return true;
  }();
  (void)started;
}

void print_header(const std::string& title, const std::string& paper_ref) {
  // The snapshot runs at exit so it captures everything the bench did
  // after this header, named after the binary itself. The zsprof
  // session starts here so the snapshot's profile section covers the
  // same window as its wall time ($ZS_NO_PROF opts out).
  static const bool installed = [] {
    begin_bench_session();
    std::atexit([] { emit_metrics_snapshot(program_invocation_short_name); });
    return true;
  }();
  (void)installed;
  std::printf("\n================================================================\n");
  std::printf("%s\n", title.c_str());
  std::printf("reproduces: %s\n", paper_ref.c_str());
  std::printf("================================================================\n");
}

}  // namespace zombiescope::bench
