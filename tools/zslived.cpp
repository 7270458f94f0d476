// zslived — the live zombie-detection daemon.
//
// Runs the zslive service (live/service.hpp) against one of three
// feeds and serves the result over HTTP while it happens:
//
//   zslived --replay updates.mrt --schedule daily --start 2024-03-01 \
//           --end 2024-03-02 --speed 60 --http-port 8080
//       replays an archived day at 60 simulated seconds per wall
//       second; curl /live/zombies for the current stuck set,
//       curl -N /live/events for the emerge/resurrect/die stream.
//
//   zslived --tap-demo --http-port 8080 --duration 30
//       self-contained demo: a small simulation with a collector
//       session that loses every withdrawal, so zombies emerge and
//       die while you watch. This is what the sanitizer soak runs.
//
//   zslived --tcp-port 9000 --schedule ris --start ... --end ...
//       accepts RIS-Live-style NDJSON on a TCP socket (one JSON
//       object per line) and detects on it as it arrives.
//
//   zslived --bgp-listen 1790 --schedule ris --start ... --end ...
//       a real BGP-4 collector: accepts peering sessions (RFC 4271
//       OPEN/KEEPALIVE/UPDATE over TCP), optionally with graceful-
//       restart stale retention (--gr-restart / --llgr-stale), and
//       detects on what the peers announce. --bgp-peer HOST:PORT
//       (repeatable) dials out as well. curl /sessions for the live
//       session table.
//
// Endpoints: /live/zombies (JSON snapshot, ETag = epoch), /live/events
// (SSE), /live/stats (shard health), /sessions (BGP mode), plus the
// standard zsobs set (/metrics, /healthz, /spans, /journal/tail,
// /causal, /profile, /heap).

#include <atomic>
#include <chrono>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "beacon/schedule.hpp"
#include "live/bgp_feed.hpp"
#include "live/feed.hpp"
#include "live/loopback.hpp"
#include "live/service.hpp"
#include "netbase/time.hpp"
#include "obs/build_info.hpp"
#include "obs/export.hpp"
#include "obs/heap.hpp"
#include "obs/http.hpp"
#include "obs/journal.hpp"
#include "obs/prof.hpp"
#include "obs/trace.hpp"
#include "obs/tsdb.hpp"

using namespace zombiescope;

namespace {

[[noreturn]] void usage(const char* argv0) {
  std::fprintf(
      stderr,
      "usage: %s (--replay FILE | --tcp-port N | --tap-demo | --bgp-listen N)\n"
      "          [--bgp-peer HOST:PORT]... [--local-asn N]\n"
      "          [--gr-restart SECONDS] [--llgr-stale SECONDS]\n"
      "          [--speed N] [--duration WALL_SECONDS]\n"
      "          [--schedule ris|daily|fifteen --start YYYY-MM-DD --end YYYY-MM-DD]\n"
      "          [--shards N] [--queue-depth N] [--threshold MINUTES]\n"
      "          [--block-on-full] [--http-port N] [--print-zombies]\n"
      "          [--stale-after SECONDS] [--no-loopback]\n"
      "          [--tsdb-cadence-ms N (0 disables)] [--sse-pump-ms N]\n"
      "          [--metrics-out FILE] [--metrics-format prom|json]\n"
      "          [--trace-out FILE] [--journal-out FILE]\n"
      "          [--journal-format ndjson|bin] [--journal-categories LIST]\n"
      "          [--profile-out FILE] [--heap-out FILE] [--version]\n",
      argv0);
  std::exit(2);
}

netbase::TimePoint parse_date(const char* argv0, const std::string& text) {
  int y = 0;
  int m = 0;
  int d = 0;
  if (std::sscanf(text.c_str(), "%d-%d-%d", &y, &m, &d) != 3) {
    std::fprintf(stderr, "error: bad date '%s' (want YYYY-MM-DD)\n", text.c_str());
    usage(argv0);
  }
  return netbase::utc(y, m, d);
}

volatile std::sig_atomic_t g_interrupted = 0;
void on_signal(int) { g_interrupted = 1; }

}  // namespace

int main(int argc, char** argv) {
  for (int i = 1; i < argc; ++i) {
    if (std::string_view(argv[i]) == "--version") {
      std::puts(obs::identity_line("zslived").c_str());
      return 0;
    }
  }

  std::string replay_path;
  int tcp_port = -1;
  bool tap_demo = false;
  int bgp_port = -1;
  std::vector<std::string> bgp_peers;
  std::uint32_t local_asn = 64999;
  long gr_restart = 0;   // > 0 enables graceful-restart retention
  long llgr_stale = 0;   // > 0 additionally enables LLGR
  double speed = 0.0;  // replay: <= 0 = max; tap: <= 0 = default 60
  long duration = 0;   // wall seconds; 0 = until the feed ends (replay) / forever
  std::string schedule;
  netbase::TimePoint start = 0;
  netbase::TimePoint end = 0;
  live::LiveConfig live_config;
  int http_port = -1;
  bool print_zombies = false;
  // /healthz readiness threshold: 0 keeps the plain liveness probe;
  // > 0 answers 503 degraded once no shard published within it.
  double stale_after = 0.0;
  // The end-to-end delivery-latency self-subscriber (live/loopback.hpp)
  // runs whenever HTTP is served; --no-loopback opts out.
  bool loopback = true;
  // zstsdb sampler cadence; 0 disables the store (and the alert rules
  // that ride on it).
  long tsdb_cadence_ms = 1000;
  // Fallback SSE pump interval; frame delivery itself is event-driven
  // (publish wakes the serving loop through a self-pipe).
  int sse_pump_ms = 0;  // 0 = server default
  std::string metrics_out;
  obs::Format metrics_format = obs::Format::kJson;
  std::string trace_out;
  std::string journal_out;
  obs::JournalFormat journal_format = obs::JournalFormat::kNdjson;
  std::uint32_t journal_categories = obs::kCatAll;
  std::string profile_out;
  std::string heap_out;

  auto need_value = [&](int& i) -> std::string {
    if (i + 1 >= argc) usage(argv[0]);
    return argv[++i];
  };
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    try {
      if (arg == "--replay") replay_path = need_value(i);
      else if (arg == "--tcp-port") tcp_port = std::stoi(need_value(i));
      else if (arg == "--tap-demo") tap_demo = true;
      else if (arg == "--bgp-listen") bgp_port = std::stoi(need_value(i));
      else if (arg == "--bgp-peer") bgp_peers.push_back(need_value(i));
      else if (arg == "--local-asn")
        local_asn = static_cast<std::uint32_t>(std::stoul(need_value(i)));
      else if (arg == "--gr-restart") gr_restart = std::stol(need_value(i));
      else if (arg == "--llgr-stale") llgr_stale = std::stol(need_value(i));
      else if (arg == "--speed") speed = std::stod(need_value(i));
      else if (arg == "--duration") duration = std::stol(need_value(i));
      else if (arg == "--schedule") schedule = need_value(i);
      else if (arg == "--start") start = parse_date(argv[0], need_value(i));
      else if (arg == "--end") end = parse_date(argv[0], need_value(i));
      else if (arg == "--shards")
        live_config.shards = static_cast<std::size_t>(std::stoul(need_value(i)));
      else if (arg == "--queue-depth")
        live_config.queue_depth = static_cast<std::size_t>(std::stoul(need_value(i)));
      else if (arg == "--threshold")
        live_config.detector.threshold = std::stol(need_value(i)) * netbase::kMinute;
      else if (arg == "--block-on-full") live_config.block_on_full = true;
      else if (arg == "--http-port") http_port = std::stoi(need_value(i));
      else if (arg == "--print-zombies") print_zombies = true;
      else if (arg == "--stale-after") stale_after = std::stod(need_value(i));
      else if (arg == "--no-loopback") loopback = false;
      else if (arg == "--tsdb-cadence-ms") tsdb_cadence_ms = std::stol(need_value(i));
      else if (arg == "--sse-pump-ms") sse_pump_ms = std::stoi(need_value(i));
      else if (arg == "--metrics-out") metrics_out = need_value(i);
      else if (arg == "--metrics-format") {
        const auto parsed = obs::parse_format(need_value(i));
        if (!parsed.has_value()) usage(argv[0]);
        metrics_format = *parsed;
      } else if (arg == "--trace-out") trace_out = need_value(i);
      else if (arg == "--journal-out") journal_out = need_value(i);
      else if (arg == "--journal-format") {
        const auto parsed = obs::parse_journal_format(need_value(i));
        if (!parsed.has_value()) usage(argv[0]);
        journal_format = *parsed;
      } else if (arg == "--journal-categories") {
        const auto parsed = obs::parse_categories(need_value(i));
        if (!parsed.has_value()) usage(argv[0]);
        journal_categories = *parsed;
      } else if (arg == "--profile-out") profile_out = need_value(i);
      else if (arg == "--heap-out") heap_out = need_value(i);
      else usage(argv[0]);
    } catch (const std::exception&) {
      usage(argv[0]);
    }
  }

  const int feed_modes = (replay_path.empty() ? 0 : 1) + (tcp_port >= 0 ? 1 : 0) +
                         (tap_demo ? 1 : 0) + (bgp_port >= 0 ? 1 : 0);
  if (feed_modes != 1) {
    std::fprintf(stderr,
                 "error: pick exactly one of --replay / --tcp-port / --tap-demo "
                 "/ --bgp-listen\n");
    usage(argv[0]);
  }
  if (!bgp_peers.empty() && bgp_port < 0) {
    std::fprintf(stderr, "error: --bgp-peer needs --bgp-listen (0 = ephemeral)\n");
    usage(argv[0]);
  }
  if (!schedule.empty() && (start == 0 || end == 0 || end <= start)) {
    std::fprintf(stderr, "error: --schedule needs --start and --end\n");
    usage(argv[0]);
  }

  obs::ScopedProfileSession profile(profile_out);
  obs::ScopedHeapSession heap(heap_out);
  obs::Journal& journal = obs::Journal::global();
  if (!journal_out.empty()) {
    try {
      journal.attach_writer(
          std::make_unique<obs::JournalWriter>(journal_out, journal_format));
    } catch (const std::exception& e) {
      std::fprintf(stderr, "error: %s\n", e.what());
      return 1;
    }
    journal.set_enabled_categories(journal_categories);
    // Shard workers emit concurrently; only the serving/drain side may
    // pump, so autopump (which pumps from producers) stays off.
  }

  // The tap demo defaults to a threshold scaled to its short beacon
  // cycle so transitions happen within a brief soak.
  if (tap_demo && live_config.detector.threshold == 90 * netbase::kMinute) {
    live_config.detector.threshold = 5 * netbase::kMinute;
  }

  live::LiveService service(live_config);
  service.start();

  // Beacon expectations: replay/tcp use the operator-provided
  // schedule; the tap generates its own.
  live::SimTapConfig tap_config;
  if (tap_demo) {
    tap_config.speed = speed > 0 ? speed : 60.0;
    if (duration > 0) {
      tap_config.duration =
          static_cast<netbase::Duration>(static_cast<double>(duration) * tap_config.speed);
    }
  }
  std::unique_ptr<live::FeedSource> feed;
  live::BgpFeedSource* bgp_feed = nullptr;  // borrowed view of `feed`
  std::vector<beacon::BeaconEvent> events;
  if (!schedule.empty()) {
    if (schedule == "ris") {
      events = beacon::RisBeaconSchedule::classic().events(start, end);
    } else if (schedule == "daily") {
      events = beacon::LongLivedBeaconSchedule::paper_deployment(
                   beacon::LongLivedBeaconSchedule::Approach::kDaily)
                   .events(start, end);
    } else if (schedule == "fifteen") {
      events = beacon::LongLivedBeaconSchedule::paper_deployment(
                   beacon::LongLivedBeaconSchedule::Approach::kFifteenDay)
                   .events(start, end);
    } else {
      std::fprintf(stderr, "error: unknown schedule '%s'\n", schedule.c_str());
      usage(argv[0]);
    }
  }
  try {
    if (!replay_path.empty()) {
      feed = live::ReplayFeedSource::from_file(replay_path, speed);
    } else if (tcp_port >= 0) {
      feed = std::make_unique<live::TcpNdjsonFeedSource>(
          static_cast<std::uint16_t>(tcp_port));
      std::fprintf(stderr, "NDJSON feed on port %u\n",
                   static_cast<live::TcpNdjsonFeedSource*>(feed.get())->port());
    } else if (bgp_port >= 0) {
      wire::SpeakerConfig speaker_config;
      speaker_config.local_asn = local_asn;
      if (gr_restart > 0) {
        speaker_config.retention.gr_enabled = true;
        speaker_config.advertised_restart_time = gr_restart;
        if (llgr_stale > 0) {
          speaker_config.retention.llgr_enabled = true;
          speaker_config.advertised_llgr_stale_time = llgr_stale;
        }
      }
      auto bgp = std::make_unique<live::BgpFeedSource>(
          speaker_config, static_cast<std::uint16_t>(bgp_port));
      for (const std::string& peer : bgp_peers) {
        const auto colon = peer.rfind(':');
        if (colon == std::string::npos) {
          std::fprintf(stderr, "error: --bgp-peer wants HOST:PORT, got '%s'\n",
                       peer.c_str());
          usage(argv[0]);
        }
        bgp->connect_to(peer.substr(0, colon),
                        static_cast<std::uint16_t>(
                            std::stoul(peer.substr(colon + 1))));
      }
      bgp_feed = bgp.get();
      std::fprintf(stderr, "BGP feed on port %u\n", bgp->port());
      feed = std::move(bgp);
    } else {
      auto tap = std::make_unique<live::SimTapFeedSource>(tap_config);
      events = tap->schedule();
      feed = std::move(tap);
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 1;
  }
  for (const beacon::BeaconEvent& event : events) service.expect(event);

  // The time-series store: samples the registries plus three service
  // probes each cadence, and watches the default alert rules. Declared
  // after `service` (probes reference it) and stopped before it.
  obs::TsdbConfig tsdb_config;
  tsdb_config.cadence_ms = tsdb_cadence_ms > 0 ? tsdb_cadence_ms : 1000;
  obs::Tsdb tsdb(tsdb_config);
  const bool tsdb_on = tsdb_cadence_ms > 0;
  if (tsdb_on) {
    tsdb.add_probe("live.snapshot_age_seconds", obs::SeriesKind::kGauge,
                   [&service] {
                     const double age = service.newest_publish_age_seconds();
                     return age < 0.0 ? 0.0 : age;
                   });
    tsdb.add_probe("live.queue_depth", obs::SeriesKind::kGauge, [&service] {
      std::size_t depth = 0;
      for (const live::ShardStats& s : service.stats()) depth += s.queue_depth;
      return static_cast<double>(depth);
    });
    tsdb.add_probe("live.active_zombies", obs::SeriesKind::kGauge, [&service] {
      std::size_t active = 0;
      for (const live::ShardStats& s : service.stats()) {
        active += s.active_zombies;
      }
      return static_cast<double>(active);
    });

    // Ingest drops: any sustained drop rate is a capacity problem.
    obs::AlertRule drops;
    drops.name = "queue_drops";
    drops.metric = "live.ingest_dropped_total";
    drops.mode = obs::AlertRule::Mode::kRate;
    drops.threshold = 0.0;
    drops.for_seconds = 30.0;
    drops.clear_for_seconds = 15.0;
    tsdb.add_rule(drops);

    // Delivery-latency regression: e2e p99 above 2x its own trailing
    // 5-minute baseline for a minute (hysteresis clears at 1.5x).
    obs::AlertRule p99;
    p99.name = "e2e_p99_regression";
    p99.metric = "latency:live.e2e:p99";
    p99.mode = obs::AlertRule::Mode::kBaselineRatio;
    p99.threshold = 2.0;
    p99.clear_threshold = 1.5;
    p99.for_seconds = 60.0;
    p99.clear_for_seconds = 30.0;
    p99.baseline_window_seconds = 300.0;
    p99.baseline_min_samples = 60;
    tsdb.add_rule(p99);

    // Stale snapshot: every worker wedged (or the service stopped)
    // shows up as a growing publish age well before operators notice.
    obs::AlertRule stale;
    stale.name = "stale_snapshot";
    stale.metric = "live.snapshot_age_seconds";
    stale.threshold = stale_after > 0.0 ? stale_after : 5.0;
    stale.clear_threshold = stale.threshold / 2.0;
    stale.for_seconds = 10.0;
    stale.clear_for_seconds = 5.0;
    tsdb.add_rule(stale);

    // Peer feed quality (zspeerq). The probe polls the merged peer
    // table each cadence, which also refreshes the zs_peer_* gauges
    // the registry sweep stores as peer.* — so noisy/silent counts and
    // the top-K offender slots get 1 s series without any extra work.
    tsdb.add_probe("peer.feeding_count_probe", obs::SeriesKind::kGauge,
                   [&service] {
                     const auto table = service.peers();
                     return static_cast<double>(table->feeding_count);
                   });

    // Every peer went quiet (kBelow: the feed floor dropped under 1
    // feeding peer) while the daemon keeps running — the exact failure
    // mode behind the paper's looking-glass disagreements. for=30 s
    // tolerates startup: the first updates arrive well inside that.
    obs::AlertRule silent_peers;
    silent_peers.name = "peers_silent";
    silent_peers.metric = "peer.feeding_count_probe";
    silent_peers.op = obs::AlertRule::Op::kBelow;
    silent_peers.threshold = 1.0;
    silent_peers.for_seconds = 30.0;
    silent_peers.clear_for_seconds = 5.0;
    tsdb.add_rule(silent_peers);

    // A noisy-peer population spike: statistically-excluded peers
    // sustained above zero means zombie counts upstream of the filter
    // are inflated and the feed needs operator attention.
    obs::AlertRule noisy_spike;
    noisy_spike.name = "noisy_count_spike";
    noisy_spike.metric = "peer.noisy_count";
    noisy_spike.threshold = 0.0;
    noisy_spike.for_seconds = 30.0;
    noisy_spike.clear_for_seconds = 15.0;
    tsdb.add_rule(noisy_spike);
  }

  obs::HttpServer http;
  std::unique_ptr<live::LoopbackLatencyClient> e2e_client;
  if (http_port >= 0) {
    if (sse_pump_ms > 0) http.set_stream_poll_interval_ms(sse_pump_ms);
    std::function<std::string()> alerts_degraded;
    if (tsdb_on) {
      alerts_degraded = [&tsdb]() -> std::string {
        const std::string firing = tsdb.firing_names();
        return firing.empty() ? std::string() : "alerts firing: " + firing;
      };
      tsdb.attach_http(http);
    }
    service.attach_http(http, stale_after, std::move(alerts_degraded));
    if (bgp_feed != nullptr) bgp_feed->attach_http(http);
    if (!http.start(static_cast<std::uint16_t>(http_port))) {
      std::fprintf(stderr, "error: cannot bind HTTP port %d\n", http_port);
      return 1;
    }
    std::fprintf(stderr, "serving http://127.0.0.1:%u/live/zombies\n", http.port());
    if (loopback) {
      // Subscribe to our own /live/events so GET /latency (and the
      // "stages" block of /live/stats) reports true end-to-end
      // delivery latency, not just the internal stage times.
      e2e_client = std::make_unique<live::LoopbackLatencyClient>(http.port());
      if (!e2e_client->start()) {
        std::fprintf(stderr, "warning: loopback latency subscriber failed to connect\n");
        e2e_client.reset();
      }
    }
  }

  if (tsdb_on) tsdb.start();

  std::signal(SIGINT, on_signal);
  std::signal(SIGTERM, on_signal);

  live::FeedSource::RunStats feed_stats;
  std::atomic<bool> feed_done{false};
  std::thread feeder([&] {
    obs::ScopedSpan span("zslived.feed");
    feed_stats = feed->run(service);
    feed_done.store(true, std::memory_order_release);
  });

  // Main thread: journal pump + wall-clock bound + signal watch. The
  // feeder returns on its own for a finite replay/tap; --duration (or
  // Ctrl-C) bounds the open-ended feeds.
  const auto wall0 = std::chrono::steady_clock::now();
  bool stop_requested = false;
  while (!feed_done.load(std::memory_order_acquire)) {
    std::this_thread::sleep_for(std::chrono::milliseconds(100));
    if (!journal_out.empty()) journal.pump();
    const double elapsed =
        std::chrono::duration<double>(std::chrono::steady_clock::now() - wall0)
            .count();
    if (!stop_requested &&
        (g_interrupted != 0 || (duration > 0 && elapsed >= static_cast<double>(duration)))) {
      feed->stop();
      stop_requested = true;
    }
  }
  feeder.join();

  // The replay delivered everything; fire the deadlines that fall
  // after the last record so the final state matches batch detection.
  if (!replay_path.empty()) service.finalize();

  std::fprintf(stderr,
               "feed done: %llu record(s), %llu parse error(s); "
               "%llu processed, %llu dropped, epoch %llu\n",
               static_cast<unsigned long long>(feed_stats.records),
               static_cast<unsigned long long>(feed_stats.parse_errors),
               static_cast<unsigned long long>(service.processed()),
               static_cast<unsigned long long>(service.drops()),
               static_cast<unsigned long long>(service.epoch()));
  if (print_zombies) std::printf("%s\n", service.zombies_json().c_str());

  try {
    if (!metrics_out.empty()) obs::write_metrics_file(metrics_out, metrics_format);
    if (!trace_out.empty()) obs::write_trace_file(trace_out);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 1;
  }
  if (!journal_out.empty()) {
    journal.close_writer();
    std::fprintf(stderr, "journal: %llu event(s) written to %s (%llu dropped)\n",
                 static_cast<unsigned long long>(journal.emitted()), journal_out.c_str(),
                 static_cast<unsigned long long>(journal.dropped()));
  }
  if (e2e_client) {
    std::fprintf(stderr, "loopback e2e: %llu delivery sample(s)\n",
                 static_cast<unsigned long long>(e2e_client->samples()));
    e2e_client->stop();
  }
  http.stop();
  tsdb.stop();
  service.stop();
  return 0;
}
