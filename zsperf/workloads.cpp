#include "workloads.hpp"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/resource.h>
#include <sys/socket.h>
#include <sys/time.h>
#include <time.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <filesystem>
#include <functional>
#include <map>
#include <stdexcept>
#include <thread>

#include "live/bgp_feed.hpp"
#include "live/loopback.hpp"
#include "live/peerq.hpp"
#include "mrt/codec.hpp"
#include "obs/heap.hpp"
#include "obs/http.hpp"
#include "obs/lathist.hpp"
#include "wire/bridge.hpp"
#include "wire/message.hpp"
#include "zombie/interval_detector.hpp"
#include "zombie/noisy.hpp"
#include "zombie/state.hpp"

namespace zsperf {

namespace live = zombiescope::live;
namespace mrt = zombiescope::mrt;
namespace obs = zombiescope::obs;
namespace wire = zombiescope::wire;
namespace zombie = zombiescope::zombie;
using Clock = std::chrono::steady_clock;

namespace {

constexpr std::size_t kShards = 2;
constexpr double kPacedRecordsPerSecond = 20000.0;
/// Simulated days the paced window covers per second of --seconds. The
/// archive holds 33k–45k records per simulated day depending on the
/// seed, so at 20k records/s a pass lasts 0.8–1.1 × --seconds.
constexpr double kPacedDaysPerSecond = 0.5;
constexpr double kPollsPerSecond = 50.0;
/// Set-ups measured per run at least (setup_s is their median).
constexpr int kMinSetups = 3;

double since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

double process_cpu_s() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + static_cast<double>(ts.tv_nsec) * 1e-9;
}

double peak_rss_mb() {
  rusage usage{};
  if (getrusage(RUSAGE_SELF, &usage) != 0) return 0.0;
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

double median(std::vector<double> values) { return quantile(std::move(values), 0.5); }

double ratio(double num, double den) { return den > 0.0 ? num / den : 0.0; }

/// A thread that is asked to stop and joined when the scope ends, on
/// exception paths too.
class StoppingThread {
 public:
  StoppingThread(std::function<void()> body, std::function<void()> stop)
      : stop_(std::move(stop)), thread_(std::move(body)) {}
  ~StoppingThread() { join(); }
  StoppingThread(const StoppingThread&) = delete;
  StoppingThread& operator=(const StoppingThread&) = delete;

  void join() {
    if (!thread_.joinable()) return;
    stop_();
    thread_.join();
  }

 private:
  std::function<void()> stop_;
  std::thread thread_;
};

obs::LatSnapshot lat_snapshot(const char* name) {
  return obs::LatRegistry::global().get(name).snapshot();
}

double lat_quantile_us(const obs::LatSnapshot& now, const obs::LatSnapshot& before,
                       double q) {
  return now.diff_since(before).quantile_ns(q) / 1e3;
}

/// Everything one run accumulates.
struct Run {
  explicit Run(const RunOptions& o)
      : opt(o), spans(o.trace, o.seed) {}

  const RunOptions& opt;
  SpanRecorder spans;
  InputMeta meta;
  std::string archive;
  RunReport report;
  Verdict verdict;
  std::vector<double> setup_s;
  /// records_per_s is the run's measured records ÷ its summed pass
  /// time: single passes vary by up to ±25% with the host's load.
  double rate_records = 0.0;
  double rate_seconds = 0.0;
  int passes = 0;
  double cpu_s = 0.0;
  std::uint64_t cpu_records = 0;
  std::map<std::string, double> layer;
  /// Figures printed by an untraced run besides the end-to-end set.
  std::vector<Metric> printed;

  /// Records one measured pass; returns its records/s.
  double timed_pass(std::uint64_t records, double seconds) {
    rate_records += static_cast<double>(records);
    rate_seconds += seconds;
    ++passes;
    return ratio(static_cast<double>(records), seconds);
  }

  void offered(std::uint64_t attempted, std::uint64_t failed) {
    report.attempted += attempted;
    report.failed += failed;
  }
};

std::vector<mrt::MrtRecord> read_archive(Run& run) {
  SpanRecorder::Scope span(run.spans, "mrt.read_file");
  return mrt::read_file(run.archive);
}

// ------------------------------------------------------- live layers

void record_live_layers(Run& run, const ReplayPass& pass,
                        const obs::LatSnapshot (&before)[3]) {
  const obs::LatSnapshot& lag = pass.lag;
  double busy_total = 0.0;
  double busy_max = 0.0;
  double processed_max = 0.0;
  for (const auto& s : pass.stats) {
    busy_total += s.busy_seconds;
    busy_max = std::max(busy_max, s.busy_seconds);
    processed_max = std::max(processed_max, static_cast<double>(s.processed));
  }
  const double processed = static_cast<double>(pass.processed);
  const double mean_processed = ratio(processed, static_cast<double>(pass.stats.size()));
  run.layer["live.submit_ns_per_record"] =
      ratio(pass.submit_s * 1e9, static_cast<double>(pass.offered));
  run.layer["live.worker_busy_ns_per_record"] = ratio(busy_total * 1e9, processed);
  run.layer["live.worker_busy_max_s"] = busy_max;
  run.layer["live.shard_skew"] = ratio(processed_max, mean_processed);
  run.layer["live.finalize_ms"] = pass.finalize_s * 1e3;
  run.layer["live.queue_wait_p50_us"] = lag.quantile_ns(0.50) / 1e3;
  run.layer["live.queue_wait_p99_us"] = lag.quantile_ns(0.99) / 1e3;
  run.layer["live.detect_p50_us"] = lat_quantile_us(lat_snapshot("live.detect"), before[0], 0.5);
  run.layer["live.publish_p50_us"] =
      lat_quantile_us(lat_snapshot("live.publish"), before[1], 0.5);
  run.layer["live.fanout_p50_us"] = lat_quantile_us(lat_snapshot("live.fanout"), before[2], 0.5);
  run.layer["live.records_per_publish"] = ratio(processed, static_cast<double>(pass.epochs));
}

void stage_snapshots(obs::LatSnapshot (&out)[3]) {
  out[0] = lat_snapshot("live.detect");
  out[1] = lat_snapshot("live.publish");
  out[2] = lat_snapshot("live.fanout");
}

/// Reads the service's counters after finalize(). `missing` counts
/// records that never reached submit(). A record split across shards is
/// one piece per shard; every dropped or unprocessed piece counts as a
/// failed record (an upper bound when one record loses several).
void collect_service(live::LiveService& service, ReplayPass& pass, std::uint64_t missing) {
  pass.processed = service.processed();
  pass.dropped = service.drops();
  const std::uint64_t accepted = service.submitted() - pass.dropped;
  const std::uint64_t unprocessed = accepted > pass.processed ? accepted - pass.processed : 0;
  pass.failed = std::min(pass.offered, missing + pass.dropped + unprocessed);
  pass.stats = service.stats();
  pass.epochs = service.epoch();
  pass.lag = service.lag_snapshot();
}

// ----------------------------------------------------------- HTTP poll

struct PollSample {
  bool ok = false;
  double ms = 0.0;
  std::size_t bytes = 0;
};

/// One GET over a fresh loopback connection (the server closes after
/// each response), timed from connect to the last byte.
PollSample http_get(std::uint16_t port, const char* target) {
  PollSample sample;
  const auto t0 = Clock::now();
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return sample;
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  const timeval limit{5, 0};  // a wedged server fails the poll, not the run
  ::setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &limit, sizeof(limit));
  ::setsockopt(fd, SOL_SOCKET, SO_SNDTIMEO, &limit, sizeof(limit));
  std::string response;
  if (::connect(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof(addr)) == 0) {
    const std::string request = std::string("GET ") + target +
                                " HTTP/1.1\r\nHost: 127.0.0.1\r\nConnection: close\r\n\r\n";
    if (::send(fd, request.data(), request.size(), MSG_NOSIGNAL) ==
        static_cast<ssize_t>(request.size())) {
      char buffer[16384];
      while (true) {
        const ssize_t n = ::recv(fd, buffer, sizeof(buffer), 0);
        if (n <= 0) break;
        response.append(buffer, static_cast<std::size_t>(n));
      }
    }
  }
  ::close(fd);
  sample.ms = since(t0) * 1e3;
  sample.bytes = response.size();
  sample.ok = response.rfind("HTTP/1.1 200", 0) == 0;
  return sample;
}

// -------------------------------------------- isolated layer passes

template <class F>
double timed_ns(SpanRecorder& spans, const char* name, F&& body) {
  SpanRecorder::Scope span(spans, name);
  const auto t0 = Clock::now();
  body();
  return since(t0) * 1e9;
}

/// Allocation count of `body` from a zsheap session (0 when the
/// allocator hooks are unavailable, e.g. in a sanitizer build).
template <class F>
double allocs_of(F&& body) {
  if constexpr (obs::kHeapCompiledIn) {
    auto& heap = obs::HeapProfiler::global();
    obs::HeapProfilerOptions options;
    options.sample_every = 0;
    if (heap.start(options)) {
      const std::uint64_t before = heap.allocs_observed();
      body();
      const std::uint64_t after = heap.allocs_observed();
      (void)heap.stop();
      return static_cast<double>(after - before);
    }
  }
  body();
  return 0.0;
}

void layer_passes(Run& run, const std::vector<mrt::MrtRecord>& records,
                  const std::vector<zombiescope::beacon::BeaconEvent>& events) {
  SpanRecorder::Scope root(run.spans, "layers");
  const double n = static_cast<double>(records.size());
  auto& L = run.layer;

  // mrt: decode the archive again, timed, then once more under a zsheap
  // session for the allocation count (the hooks would skew the time).
  {
    std::size_t decoded = 0;
    const double ns = timed_ns(run.spans, "layer.mrt_decode",
                               [&] { decoded = mrt::read_file(run.archive).size(); });
    const double allocs = allocs_of([&] { (void)mrt::read_file(run.archive); });
    const double d = static_cast<double>(std::max<std::size_t>(decoded, 1));
    L["mrt.decode_ns_per_record"] = ns / d;
    L["mrt.decode_allocs_per_record"] = allocs / d;
  }

  std::vector<const zombiescope::bgp::UpdateMessage*> updates;
  for (const auto& record : records)
    if (const auto* msg = std::get_if<mrt::Bgp4mpMessage>(&record))
      updates.push_back(&msg->update);
  const double u = static_cast<double>(std::max<std::size_t>(updates.size(), 1));
  std::size_t prefixes = 0;  // announced prefixes every decode must give back
  for (const auto* update : updates) prefixes += update->announced.size();

  // bgp: the UPDATE body codec.
  {
    std::vector<std::vector<std::uint8_t>> encoded(updates.size());
    L["bgp.update_encode_ns"] = timed_ns(run.spans, "layer.bgp_encode", [&] {
                                  for (std::size_t i = 0; i < updates.size(); ++i)
                                    encoded[i] = updates[i]->encode();
                                }) / u;
    std::size_t announced = 0;
    L["bgp.update_decode_ns"] = timed_ns(run.spans, "layer.bgp_decode", [&] {
                                  for (const auto& bytes : encoded)
                                    announced += zombiescope::bgp::UpdateMessage::decode(bytes)
                                                     .announced.size();
                                }) / u;
    run.verdict.require(announced == prefixes, "bgp layer pass lost announced prefixes");
  }

  // wire: split to wire-legal messages, frame, and decode.
  {
    std::vector<zombiescope::bgp::UpdateMessage> parts;
    for (const auto* update : updates)
      for (auto& part : wire::split_update(*update)) parts.push_back(std::move(part));
    const double m = static_cast<double>(std::max<std::size_t>(parts.size(), 1));
    std::vector<std::vector<std::uint8_t>> encoded(parts.size());
    const double encode_ns = timed_ns(run.spans, "layer.wire_encode", [&] {
      for (std::size_t i = 0; i < parts.size(); ++i) encoded[i] = wire::encode_update(parts[i]);
    });
    const double allocs = allocs_of([&] {
      for (const auto& part : parts) (void)wire::encode_update(part);
    });
    L["wire.encode_ns_per_msg"] = encode_ns / m;
    L["wire.encode_allocs_per_msg"] = allocs / m;
    std::size_t announced = 0;
    L["wire.decode_ns_per_msg"] = timed_ns(run.spans, "layer.wire_decode", [&] {
                                    for (const auto& bytes : encoded)
                                      announced += wire::decode_update(bytes).announced.size();
                                  }) / m;
    run.verdict.require(announced == prefixes, "wire layer pass lost announced prefixes");
    // Reassembly in 64 KiB socket-sized chunks.
    std::vector<std::uint8_t> stream;
    for (const auto& bytes : encoded) stream.insert(stream.end(), bytes.begin(), bytes.end());
    std::size_t frames = 0;
    L["wire.frame_ns_per_msg"] = timed_ns(run.spans, "layer.wire_frame", [&] {
                                   wire::FrameReader reader;
                                   constexpr std::size_t kChunk = 65536;
                                   for (std::size_t at = 0; at < stream.size(); at += kChunk) {
                                     reader.append(stream.data() + at,
                                                   std::min(kChunk, stream.size() - at));
                                     while (reader.next().has_value()) ++frames;
                                   }
                                 }) / m;
    run.verdict.require(frames == parts.size(), "wire layer pass lost frames");
  }

  // live: the per-peer feed-quality accumulator, single-threaded.
  L["live.peerq_ns_per_record"] = timed_ns(run.spans, "layer.peerq", [&] {
                                    live::PeerQAccumulator peerq;
                                    for (const auto& record : records) peerq.on_record(record);
                                  }) / n;

  // zombie: the detectors, single-threaded over the same records.
  PairSet rt;
  L["zombie.rt_ns_per_record"] =
      timed_ns(run.spans, "layer.zombie_rt", [&] { rt = realtime_pairs(records, events); }) /
      n;
  PairSet batch;
  L["zombie.batch_ns_per_record"] = timed_ns(run.spans, "layer.zombie_batch", [&] {
                                      batch = batch_pairs(records, events);
                                    }) / n;
  check_pairs(run.verdict, rt, batch, "layer pass: realtime vs batch detector");
  zombie::StateTracker tracker;
  L["zombie.state_ns_per_record"] = timed_ns(run.spans, "layer.zombie_state", [&] {
                                      for (const auto& record : records) tracker.apply(record);
                                    }) / n;
  zombie::IntervalDetectionResult interval;
  L["zombie.interval_ns_per_record"] = timed_ns(run.spans, "layer.zombie_interval", [&] {
                                         zombie::IntervalDetectorConfig config;
                                         config.threshold = kThreshold;
                                         interval = zombie::IntervalZombieDetector(config).detect(
                                             records, events);
                                       }) / n;
  std::vector<zombie::ZombieRoute> routes;
  for (const auto& route : interval.routes)
    if (!route.duplicate) routes.push_back(route);
  const auto peers = tracker.peers();
  L["zombie.noisy_ms"] = timed_ns(run.spans, "layer.zombie_noisy", [&] {
                           (void)zombie::NoisyPeerFilter().noisy_peer_keys(
                               routes, peers, static_cast<int>(events.size()));
                         }) / 1e6;
}

// ----------------------------------------------------------- workloads

live::LiveConfig replay_config() {
  live::LiveConfig config;
  config.shards = kShards;
  config.block_on_full = true;
  config.detector.threshold = kThreshold;
  return config;
}

void longlived_replay(Run& run) {
  PairSet reference;  // from the first pass's records, outside any timing
  const auto t0 = Clock::now();
  std::vector<mrt::MrtRecord> records;
  for (int i = 0; i < kMinSetups || since(t0) < run.opt.seconds; ++i) {
    // The first kMinSetups passes set up from the archive file; later
    // passes replay the records the last one decoded, so most of the
    // run is spent in the replay that records_per_s measures.
    const bool decode = i < kMinSetups;
    const auto setup0 = Clock::now();
    if (decode) {
      records.clear();
      records.shrink_to_fit();
      records = read_archive(run);
    }
    const double decode_s = since(setup0);
    obs::LatSnapshot before[3];
    stage_snapshots(before);
    const double cpu0 = process_cpu_s();
    ReplayPass pass = replay_pass(replay_config(), records, run.meta.events, run.spans);
    run.cpu_s += process_cpu_s() - cpu0;
    run.cpu_records += pass.offered;
    if (decode) run.setup_s.push_back(decode_s + pass.setup_s);
    const double rate = run.timed_pass(pass.offered, pass.answer_s);
    std::fprintf(stderr, "[zsperf] pass %d: setup %.3f s, %.0f records/s\n", i,
                 decode_s + pass.setup_s, rate);
    run.offered(pass.offered, pass.failed);
    if (i == 0) {
      reference = batch_pairs(records, run.meta.events);
      if (run.opt.seed == kDefaultLongLivedSeed)
        run.verdict.require(reference.size() == kPinnedBenchLongLivedPairs,
                            "batch reference on the default seed: " +
                                std::to_string(reference.size()) + " pairs, pinned " +
                                std::to_string(kPinnedBenchLongLivedPairs));
    }
    check_pairs(run.verdict, pass.pairs, reference, "live replay vs batch detector");
    if (run.opt.trace) record_live_layers(run, pass, before);
  }
  if (run.opt.trace) layer_passes(run, records, run.meta.events);
}

/// The paced window: the archive's records from its first timestamp
/// through `seconds × kPacedDaysPerSecond` simulated days (never past
/// the last beacon deadline), and the beacon events whose whole check
/// window lies inside it.
struct PacedWindow {
  std::size_t records = 0;
  std::vector<zombiescope::beacon::BeaconEvent> events;
  std::vector<double> offsets_s;  // release time of each record
};

PacedWindow paced_window(const std::vector<mrt::MrtRecord>& records,
                         const std::vector<zombiescope::beacon::BeaconEvent>& events,
                         double seconds) {
  PacedWindow window;
  if (records.empty()) return window;
  // A window of fixed simulated length holds the same beacon events on
  // every seed, so the detector has the same watches to scan; a fixed
  // record count would span fewer days on a seed with a denser archive
  // and cost less per record. The campaign ends at the last check
  // deadline. After it the archive has a sparse tail (about 160 records
  // over 260 simulated days); a window reaching into it would stretch
  // the time axis and squeeze the campaign into the pass's first seconds.
  zombiescope::netbase::TimePoint campaign_end = 0;
  for (const auto& event : events)
    campaign_end = std::max(campaign_end, event.withdraw_time + kThreshold);
  const auto window_end = std::min(
      campaign_end, mrt::record_timestamp(records.front()) +
                        static_cast<zombiescope::netbase::TimePoint>(
                            seconds * kPacedDaysPerSecond * zombiescope::netbase::kDay));
  std::size_t n = 1;
  while (n < records.size() && mrt::record_timestamp(records[n]) <= window_end) ++n;
  const auto cutoff = mrt::record_timestamp(records[n - 1]) + 1;
  window.records = n;
  for (const auto& event : events)
    if (event.withdraw_time + kThreshold < cutoff) window.events.push_back(event);
  const double first = static_cast<double>(mrt::record_timestamp(records.front()));
  const double span = static_cast<double>(mrt::record_timestamp(records[n - 1])) - first;
  const double wall = static_cast<double>(n) / kPacedRecordsPerSecond;
  window.offsets_s.reserve(n);
  for (std::size_t i = 0; i < n; ++i)
    window.offsets_s.push_back(
        span > 0.0 ? (static_cast<double>(mrt::record_timestamp(records[i])) - first) / span * wall
                   : 0.0);
  return window;
}

void longlived_paced(Run& run) {
  PacedWindow window;
  PairSet reference;
  {
    const auto records = mrt::read_file(run.archive);
    window = paced_window(records, run.meta.events, run.opt.seconds);
    reference = batch_pairs(std::span(records).first(window.records), window.events);
  }
  live::LiveConfig config;
  config.shards = kShards;
  config.block_on_full = false;  // open loop: overload shows as drops
  config.detector.threshold = kThreshold;

  // Set-up (timed, repeated): decode, service + HTTP + subscriber start,
  // expect registration. The last one serves the measured pass.
  std::vector<mrt::MrtRecord> records;
  std::unique_ptr<live::LiveService> service;
  std::unique_ptr<obs::HttpServer> server;
  std::unique_ptr<live::LoopbackLatencyClient> subscriber;
  for (int i = 0; i < kMinSetups; ++i) {
    subscriber.reset();  // the service must outlive the server
    server.reset();
    service.reset();
    records.clear();
    records.shrink_to_fit();
    const auto setup0 = Clock::now();
    records = read_archive(run);
    SpanRecorder::Scope span(run.spans, "setup.live");
    service = std::make_unique<live::LiveService>(config);
    service->start();
    server = std::make_unique<obs::HttpServer>();
    service->attach_http(*server);
    if (!server->start(0)) throw std::runtime_error("cannot start the HTTP server");
    subscriber = std::make_unique<live::LoopbackLatencyClient>(server->port());
    if (!subscriber->start()) throw std::runtime_error("cannot subscribe to /live/events");
    for (const auto& event : window.events) service->expect(event);
    run.setup_s.push_back(since(setup0));
  }

  // The poller: GET /live/zombies at a fixed rate, alongside the writes.
  std::atomic<bool> polling{true};
  std::vector<PollSample> polls;
  const std::uint16_t port = server->port();
  StoppingThread poller(
      [&] {
        const auto start = Clock::now();
        for (std::uint64_t k = 0; polling.load(std::memory_order_relaxed); ++k) {
          std::this_thread::sleep_until(
              start + std::chrono::duration_cast<Clock::duration>(std::chrono::duration<double>(
                          static_cast<double>(k) / kPollsPerSecond)));
          SpanRecorder::Scope span(run.spans, "obs.poll");
          polls.push_back(http_get(port, "/live/zombies"));
        }
      },
      [&] { polling.store(false); });

  obs::LatSnapshot before[3];
  stage_snapshots(before);
  const obs::LatSnapshot e2e_before = lat_snapshot("live.e2e");
  const std::uint64_t sse_bytes0 = subscriber->bytes_read();
  const std::uint64_t sse_samples0 = subscriber->samples();
  const double cpu0 = process_cpu_s();
  ReplayPass pass;
  std::vector<double> late_ms;
  late_ms.reserve(window.records);
  const auto t0 = Clock::now();
  {
    SpanRecorder::Scope span(run.spans, "live.paced_submit");
    for (std::size_t i = 0; i < window.records; ++i) {
      const auto due = t0 + std::chrono::duration_cast<Clock::duration>(
                                std::chrono::duration<double>(window.offsets_s[i]));
      if (Clock::now() < due) std::this_thread::sleep_until(due);
      late_ms.push_back(std::chrono::duration<double, std::milli>(Clock::now() - due).count());
      SpanRecorder::Scope submit(run.spans, "live.submit");
      const auto s0 = Clock::now();
      service->submit(live::FeedItem{records[i], due});
      pass.submit_s += since(s0);
    }
  }
  pass.offered = window.records;
  {
    SpanRecorder::Scope span(run.spans, "live.finalize");
    const auto f0 = Clock::now();
    service->finalize();
    pass.finalize_s = since(f0);
  }
  {
    SpanRecorder::Scope span(run.spans, "live.emerged_pairs");
    pass.pairs = service->emerged_pairs();
  }
  // Every transition must reach the subscriber before the pass ends.
  std::uint64_t transitions = 0;
  for (std::size_t s = 0; s < service->shards(); ++s) {
    const auto snap = service->snapshot(s);
    transitions += snap->emerged + snap->resurrected + snap->died;
  }
  {
    SpanRecorder::Scope span(run.spans, "obs.sse_drain");
    const auto wait0 = Clock::now();
    while (subscriber->samples() - sse_samples0 < transitions && since(wait0) < 10.0)
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  const double answer_s = since(t0);
  run.cpu_s += process_cpu_s() - cpu0;
  run.cpu_records += pass.offered;
  poller.join();
  collect_service(*service, pass, 0);
  const std::uint64_t delivered = subscriber->samples() - sse_samples0;
  const auto e2e = lat_snapshot("live.e2e").diff_since(e2e_before);

  run.timed_pass(pass.processed, answer_s);
  // Share of transitions delivered more than 10 ms after they were due.
  std::uint64_t over_10ms = 0;
  for (std::size_t i = 0; i < e2e.counts.size(); ++i)
    if (obs::lat_bucket_lower(i) >= 10'000'000ull) over_10ms += e2e.counts[i];
  std::size_t polls_failed = 0;
  std::vector<double> poll_ms;
  double poll_bytes = 0.0;
  for (const auto& poll : polls) {
    if (!poll.ok) ++polls_failed;
    poll_ms.push_back(poll.ms);
    poll_bytes += static_cast<double>(poll.bytes);
  }
  run.offered(pass.offered + polls.size(), pass.failed + polls_failed);
  check_pairs(run.verdict, pass.pairs, reference, "paced replay vs batch detector");
  run.verdict.require(delivered >= transitions,
                      "SSE subscriber saw " + std::to_string(delivered) + " of " +
                          std::to_string(transitions) + " transitions");
  std::fprintf(stderr,
               "[zsperf] paced: %zu records, %zu beacon events, %llu transitions, %llu "
               "delivered, %zu polls\n",
               window.records, window.events.size(),
               static_cast<unsigned long long>(transitions),
               static_cast<unsigned long long>(delivered), polls.size());
  const double over_10ms_share =
      ratio(static_cast<double>(over_10ms), static_cast<double>(e2e.count));
  run.printed = {
      {"e2e_p50_ms", e2e.quantile_ns(0.50) / 1e6, "ms"},
      {"e2e_p99_ms", e2e.quantile_ns(0.99) / 1e6, "ms"},
      {"e2e_over_10ms_share", over_10ms_share, "ratio"},
      {"e2e_samples", static_cast<double>(e2e.count), "count"},
      {"poll_p50_ms", quantile(poll_ms, 0.50), "ms"},
      {"poll_p99_ms", quantile(poll_ms, 0.99), "ms"},
      {"polls", static_cast<double>(polls.size()), "count"},
      {"gen_late_p99_ms", quantile(late_ms, 0.99), "ms"},
  };
  if (run.opt.trace) {
    record_live_layers(run, pass, before);
    run.layer["live.e2e_p50_ms"] = e2e.quantile_ns(0.50) / 1e6;
    run.layer["live.e2e_p99_ms"] = e2e.quantile_ns(0.99) / 1e6;
    run.layer["live.gen_late_p99_ms"] = quantile(late_ms, 0.99);
    run.layer["obs.e2e_over_10ms_share"] = over_10ms_share;
    run.layer["obs.poll_p50_ms"] = quantile(poll_ms, 0.50);
    run.layer["obs.poll_p99_ms"] = quantile(poll_ms, 0.99);
    run.layer["obs.poll_bytes"] = ratio(poll_bytes, static_cast<double>(polls.size()));
    run.layer["obs.sse_bytes_per_event"] =
        ratio(static_cast<double>(subscriber->bytes_read() - sse_bytes0),
              static_cast<double>(delivered));
  }
  subscriber.reset();
  server.reset();
  service.reset();
  if (run.opt.trace) {
    records.resize(window.records);
    layer_passes(run, records, window.events);
  }
}

void ris_batch(Run& run) {
  PairSet reference;  // from the first pass's records, outside any timing
  const auto& events = run.meta.events;
  const auto t0 = Clock::now();
  std::vector<mrt::MrtRecord> last_records;
  for (int i = 0; i < kMinSetups || since(t0) < run.opt.seconds; ++i) {
    const double cpu0 = process_cpu_s();
    const auto pass0 = Clock::now();
    auto records = read_archive(run);
    run.setup_s.push_back(since(pass0));
    zombie::StateTracker tracker;
    {
      SpanRecorder::Scope span(run.spans, "zombie.state");
      for (const auto& record : records) tracker.apply(record);
    }
    std::vector<zombie::ZombieRoute> routes;
    {
      SpanRecorder::Scope span(run.spans, "zombie.interval_prepass");
      zombie::IntervalDetectorConfig config;
      config.threshold = kThreshold;
      const auto prepass = zombie::IntervalZombieDetector(config).detect(records, events);
      for (const auto& route : prepass.routes)
        if (!route.duplicate) routes.push_back(route);
    }
    std::set<zombie::PeerKey> noisy;
    {
      SpanRecorder::Scope span(run.spans, "zombie.noisy");
      noisy = zombie::NoisyPeerFilter().noisy_peer_keys(routes, tracker.peers(),
                                                         static_cast<int>(events.size()));
    }
    PairSet pairs;
    {
      SpanRecorder::Scope span(run.spans, "zombie.longlived");
      pairs = batch_pairs(records, events, noisy);
    }
    {
      SpanRecorder::Scope span(run.spans, "zombie.interval");
      zombie::IntervalDetectorConfig config;
      config.threshold = kThreshold;
      config.excluded_peers = noisy;
      const auto result = zombie::IntervalZombieDetector(config).detect(records, events);
      run.verdict.require(result.visible_prefixes > 0, "interval pass saw no beacon");
    }
    const double answer_s = since(pass0);
    run.cpu_s += process_cpu_s() - cpu0;
    run.cpu_records += records.size();
    run.timed_pass(records.size(), answer_s);
    run.offered(records.size(), 0);
    if (i == 0) reference = realtime_pairs(records, events, run.meta.noisy_peers);
    run.verdict.require(noisy == run.meta.noisy_peers,
                        "noisy set: found " + std::to_string(noisy.size()) +
                            " peers, ground truth has " +
                            std::to_string(run.meta.noisy_peers.size()));
    check_pairs(run.verdict, pairs, reference, "batch long-lived vs realtime detector");
    if (run.opt.trace) last_records = std::move(records);
  }
  if (run.opt.trace) layer_passes(run, last_records, run.meta.events);
}

void ris_wire(Run& run) {
  PairSet reference;
  {
    const auto records = mrt::read_file(run.archive);
    reference = batch_pairs(records, run.meta.events);
  }
  wire::SpeakerConfig speaker_config;
  speaker_config.hold_time = 3600;  // flat-out replay is bursty
  speaker_config.keepalive_interval = 1200;

  // Set-up (timed, repeated): decode, service start, expects, speaker
  // bind, and one BGP-4 handshake per session of the input. The
  // handshakes go to a scratch speaker: a session on the feed's own
  // speaker would inject its state changes, stamped with today's clock,
  // into the replayed stream. The last set-up serves the replay.
  std::vector<mrt::MrtRecord> records;
  std::unique_ptr<live::LiveService> service;
  std::unique_ptr<live::BgpFeedSource> feed;
  std::vector<double> establish_ms;
  for (int i = 0; i < kMinSetups; ++i) {
    feed.reset();
    service.reset();
    records.clear();
    records.shrink_to_fit();
    establish_ms.clear();
    const auto setup0 = Clock::now();
    records = read_archive(run);
    SpanRecorder::Scope span(run.spans, "setup.wire");
    service = std::make_unique<live::LiveService>(replay_config());
    service->start();
    for (const auto& event : run.meta.events) service->expect(event);
    feed = std::make_unique<live::BgpFeedSource>(speaker_config, 0);
    std::set<zombie::PeerKey> sessions;
    for (const auto& record : records)
      if (const auto* msg = std::get_if<mrt::Bgp4mpMessage>(&record))
        sessions.insert({msg->peer_asn, msg->peer_address});
    {
      SpanRecorder::Scope establish(run.spans, "wire.establish");
      wire::BgpSpeaker probe(speaker_config, /*listen=*/true, /*port=*/0);
      StoppingThread prober([&] { probe.run(); }, [&] { probe.stop(); });
      std::uint32_t k = 0;
      for (const auto& peer : sessions) {
        const auto e0 = Clock::now();
        const int fd = wire::wire_connect("127.0.0.1", probe.port());
        wire::wire_handshake(fd, peer.asn, 0xc0000200u + k++, 3600, peer.address);
        ::close(fd);
        establish_ms.push_back(since(e0) * 1e3);
      }
      prober.join();
    }
    run.setup_s.push_back(since(setup0));
  }

  live::FeedSource::RunStats fed;
  StoppingThread feeder([&] { fed = feed->run(*service); }, [&] { feed->stop(); });

  obs::LatSnapshot before[3];
  stage_snapshots(before);
  const double cpu0 = process_cpu_s();
  const auto t0 = Clock::now();
  wire::BridgeStats bridge;
  double bridge_s = 0.0;
  double drain_s = 0.0;
  {
    SpanRecorder::Scope span(run.spans, "wire.replay_over_wire");
    wire::BridgeOptions options;
    options.hold_time = 3600;
    bridge = wire::replay_over_wire(records, "127.0.0.1", feed->port(), options);
    bridge_s = since(t0);
  }
  {
    SpanRecorder::Scope span(run.spans, "wire.drain");
    const auto d0 = Clock::now();
    while (!feed->speaker().snapshot().empty() && since(d0) < 150.0)
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    drain_s = since(d0);
  }
  feeder.join();
  ReplayPass pass;
  pass.offered = records.size();
  {
    SpanRecorder::Scope span(run.spans, "live.finalize");
    const auto f0 = Clock::now();
    service->finalize();
    pass.finalize_s = since(f0);
  }
  {
    SpanRecorder::Scope span(run.spans, "live.emerged_pairs");
    pass.pairs = service->emerged_pairs();
  }
  const double answer_s = since(t0);
  run.cpu_s += process_cpu_s() - cpu0;
  run.cpu_records += pass.offered;
  collect_service(*service, pass, pass.offered > fed.records ? pass.offered - fed.records : 0);
  run.timed_pass(pass.offered, answer_s);
  run.offered(pass.offered, pass.failed);
  check_pairs(run.verdict, pass.pairs, reference, "wire replay vs batch detector");
  run.printed = {{"wire_bridge_s", bridge_s, "s"}, {"wire_drain_s", drain_s, "s"}};
  std::fprintf(stderr, "[zsperf] wire: %zu sessions, bridge %.2f s, drain %.2f s\n",
               bridge.sessions, bridge_s, drain_s);
  if (run.opt.trace) {
    record_live_layers(run, pass, before);
    run.layer["wire.bridge_s"] = bridge_s;
    run.layer["wire.drain_s"] = drain_s;
    run.layer["wire.establish_ms"] = median(establish_ms);
    run.layer["wire.bytes_per_record"] =
        ratio(static_cast<double>(bridge.bytes_sent), static_cast<double>(records.size()));
    run.layer["wire.msgs_per_record"] =
        ratio(static_cast<double>(bridge.messages_sent), static_cast<double>(records.size()));
  }
  service->stop();
  if (run.opt.trace) layer_passes(run, records, run.meta.events);
}

// ------------------------------------------------------------ metrics

const std::vector<std::pair<std::string, std::string>>& per_layer_units() {
  static const std::vector<std::pair<std::string, std::string>> units = {
      {"mrt.decode_ns_per_record", "ns"},
      {"mrt.decode_allocs_per_record", "count"},
      {"bgp.update_decode_ns", "ns"},
      {"bgp.update_encode_ns", "ns"},
      {"wire.encode_ns_per_msg", "ns"},
      {"wire.decode_ns_per_msg", "ns"},
      {"wire.frame_ns_per_msg", "ns"},
      {"wire.encode_allocs_per_msg", "count"},
      {"wire.bridge_s", "s"},
      {"wire.drain_s", "s"},
      {"wire.establish_ms", "ms"},
      {"wire.bytes_per_record", "B"},
      {"wire.msgs_per_record", "count"},
      {"live.submit_ns_per_record", "ns"},
      {"live.worker_busy_ns_per_record", "ns"},
      {"live.worker_busy_max_s", "s"},
      {"live.shard_skew", "ratio"},
      {"live.finalize_ms", "ms"},
      {"live.queue_wait_p50_us", "us"},
      {"live.queue_wait_p99_us", "us"},
      {"live.detect_p50_us", "us"},
      {"live.publish_p50_us", "us"},
      {"live.fanout_p50_us", "us"},
      {"live.records_per_publish", "count"},
      {"live.peerq_ns_per_record", "ns"},
      {"live.gen_late_p99_ms", "ms"},
      {"live.e2e_p50_ms", "ms"},
      {"live.e2e_p99_ms", "ms"},
      {"zombie.rt_ns_per_record", "ns"},
      {"zombie.batch_ns_per_record", "ns"},
      {"zombie.interval_ns_per_record", "ns"},
      {"zombie.state_ns_per_record", "ns"},
      {"zombie.noisy_ms", "ms"},
      {"obs.sse_bytes_per_event", "B"},
      {"obs.poll_bytes", "B"},
      {"obs.e2e_over_10ms_share", "ratio"},
      {"obs.poll_p50_ms", "ms"},
      {"obs.poll_p99_ms", "ms"},
      {"trace.coverage", "ratio"},
      {"trace.overhead_pct", "%"},
  };
  return units;
}

/// Cost of one recorded span, measured on a scratch recorder.
double span_cost_ns() {
  SpanRecorder probe(true, 0);
  constexpr int kSpans = 100000;
  const auto t0 = Clock::now();
  for (int i = 0; i < kSpans; ++i) SpanRecorder::Scope span(probe, "probe");
  return since(t0) * 1e9 / kSpans;
}

void finish_trace(Run& run, double traced_wall_s) {
  const auto all = run.spans.spans();
  run.layer["trace.coverage"] = coverage(all, 0);
  run.layer["trace.overhead_pct"] =
      100.0 * ratio(static_cast<double>(all.size()) * span_cost_ns(), traced_wall_s * 1e9);
  std::filesystem::create_directories(run.opt.out_dir);
  const std::string stem =
      run.opt.out_dir + "/trace-" + run.opt.workload + "-s" + std::to_string(run.opt.seed);
  run.spans.write_jsonl(stem + ".jsonl");
  std::fprintf(stderr, "[zsperf] %zu spans -> %s.jsonl\n", all.size(), stem.c_str());
  std::fprintf(stderr, "%-28s %10s %12s %12s %12s\n", "span", "count", "self_ms", "p50_us",
               "p99_us");
  for (const auto& s : summarize(all))
    std::fprintf(stderr, "%-28s %10llu %12.2f %12.2f %12.2f\n", s.name.c_str(),
                 static_cast<unsigned long long>(s.count), s.self_ns / 1e6, s.p50_ns / 1e3,
                 s.p99_ns / 1e3);
}

}  // namespace

InputName input_for(const std::string& workload) {
  if (workload == "longlived_replay" || workload == "longlived_paced")
    return InputName::kLongLived;
  if (workload == "ris_batch") return InputName::kRis;
  if (workload == "ris_wire") return InputName::kRisTop4;
  throw std::invalid_argument("unknown workload '" + workload + "'");
}

double fail_ratio(std::uint64_t attempted, std::uint64_t failed, bool correct) {
  if (!correct) return 1.0;
  return attempted == 0 ? 1.0 : static_cast<double>(failed) / static_cast<double>(attempted);
}

ReplayPass replay_pass(const live::LiveConfig& config,
                       const std::vector<mrt::MrtRecord>& records,
                       const std::vector<zombiescope::beacon::BeaconEvent>& events,
                       SpanRecorder& spans) {
  ReplayPass pass;
  const auto setup0 = Clock::now();
  live::LiveService service(config);
  {
    SpanRecorder::Scope span(spans, "live.start");
    service.start();
  }
  {
    SpanRecorder::Scope span(spans, "live.expect");
    for (const auto& event : events) service.expect(event);
  }
  pass.setup_s = since(setup0);
  const auto t0 = Clock::now();
  {
    SpanRecorder::Scope span(spans, "live.replay_submit");
    for (const auto& record : records) service.submit(record);
  }
  pass.submit_s = since(t0);
  pass.offered = records.size();
  {
    SpanRecorder::Scope span(spans, "live.finalize");
    const auto f0 = Clock::now();
    service.finalize();
    pass.finalize_s = since(f0);
  }
  {
    SpanRecorder::Scope span(spans, "live.emerged_pairs");
    pass.pairs = service.emerged_pairs();
  }
  pass.answer_s = since(t0);
  collect_service(service, pass, 0);
  service.stop();
  return pass;
}

RunReport run_workload(const RunOptions& options) {
  Run run(options);
  const InputPaths paths = input_paths(options.cache_dir, input_for(options.workload), options.seed);
  run.archive = paths.archive;
  run.meta = read_meta(paths.meta);
  const auto t0 = Clock::now();
  {
    SpanRecorder::Scope root(run.spans, "run");
    if (options.workload == "longlived_replay") longlived_replay(run);
    else if (options.workload == "longlived_paced") longlived_paced(run);
    else if (options.workload == "ris_batch") ris_batch(run);
    else ris_wire(run);
  }
  const double wall_s = since(t0);

  RunReport& report = run.report;
  report.correct = run.verdict.ok;
  report.detail = run.verdict.detail;
  if (options.trace) {
    finish_trace(run, wall_s);
    for (const auto& [name, unit] : per_layer_units()) {
      const auto it = run.layer.find(name);
      report.metrics.push_back({name, it == run.layer.end() ? 0.0 : it->second, unit});
    }
    return report;
  }
  report.metrics = {
      {"setup_s", median(run.setup_s), "s"},
      {"records_per_s", ratio(run.rate_records, run.rate_seconds), "1/s"},
      {"cpu_us_per_record", ratio(run.cpu_s * 1e6, static_cast<double>(run.cpu_records)), "us"},
      {"peak_rss_mb", peak_rss_mb(), "MB"},
  };
  report.printed = std::move(run.printed);
  std::fprintf(stderr, "[zsperf] %s seed %llu: %d passes, fail_ratio %.6f%s%s\n",
               options.workload.c_str(), static_cast<unsigned long long>(options.seed),
               run.passes, fail_ratio(report.attempted, report.failed, report.correct),
               report.correct ? "" : ", ORACLE FAILED: ", report.detail.c_str());
  return report;
}

}  // namespace zsperf
