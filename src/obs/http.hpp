// obs/http.hpp — live introspection over HTTP.
//
// A deliberately tiny embedded server (POSIX sockets + poll, no
// external deps, one background thread) so a long zssim/zsdetect run
// — or the zslived daemon — can be inspected while it is running
// instead of only at exit:
//
//   GET /              JSON index of every served endpoint (capability
//                      detection for clients like zstop)
//   GET /metrics       Prometheus text exposition of the global registry
//   GET /healthz       {"status":"ok",...} liveness JSON
//   GET /spans         the global tracer's span ring as zsobs-trace-v1
//   GET /journal/tail  last events of the global journal as NDJSON
//                      (?n=N, default 256, capped at the recent buffer)
//   GET /profile       sample the process with zsprof for ?seconds=N
//                      (default 5, cap 60) and return folded stacks;
//                      409 if a profiling session is already active
//   GET /latency       the zslat stage-latency histograms as JSON
//                      (p50/p95/p99 per registered histogram) or
//                      folded per-bucket text with ?format=folded
//   GET /heap          observe allocations with zsheap for ?seconds=N
//                      (default 5, cap 60) and return per-span shares
//                      + top sampled sites; 409 if a heap session is
//                      already active, 501 when the allocator belongs
//                      to a sanitizer
//
// Subsystems register additional endpoints before start():
// add_endpoint() for plain request/response handlers (zslive's
// /live/zombies and /live/stats), add_stream() for Server-Sent-Events
// endpoints backed by an SseChannel (zslive's /live/events).
//
// The serving loop multiplexes every connection over one poll() set
// with non-blocking sockets and per-connection output buffers, so one
// slow or dead client can never head-of-line-block a /metrics scrape
// or starve the other SSE subscribers. Two policies bound a client's
// footprint:
//   * streaming clients whose unsent backlog exceeds
//     max_client_buffer() are evicted (counted in
//     zs_http_slow_clients_evicted_total and journalled as
//     live_client_evicted);
//   * non-streaming responses get a flush deadline; a client that
//     stops reading is closed when it expires.
//
// This is an operator port for a measurement tool, not a web server:
// bodies are ignored, HEAD is answered with the GET's headers and no
// payload, and any other method gets a 405. Handlers run on the
// serving thread (an on-demand
// /profile blocks other clients for its sampling window — it is an
// operator action, not a scrape target). Enabled with --http-port.

#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <deque>
#include <functional>
#include <mutex>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "obs/metrics.hpp"

namespace zombiescope::obs {

/// What a dynamic endpoint handler returns. `etag` (when non-empty) is
/// emitted as a strong ETag header so pollers can detect unchanged
/// snapshots.
struct HttpResponse {
  int status = 200;
  std::string content_type = "text/plain; charset=utf-8";
  std::string body;
  std::string etag;
};

/// Parses "?key=123" style query values; fallback on anything
/// malformed or absent. Exposed for endpoint handlers.
std::size_t query_uint(std::string_view target, std::string_view key,
                       std::size_t fallback);

/// Raw "?key=value" query lookup (with %xx decoding, so an encoded
/// prefix like 203.0.113.0%2F24 works). Empty if absent.
std::string query_string(std::string_view target, std::string_view key);

/// A broadcast hub for one Server-Sent-Events endpoint. Producers
/// (shard workers, any thread) publish() events; the serving thread
/// copies frames to every subscribed connection at its own pace. A
/// bounded deque of pre-framed events decouples the two: a client that
/// connects mid-stream starts at the current head (or at ?since=SEQ to
/// replay retained frames), and one that falls behind the retention
/// window gets a `: missed N` comment instead of silently skipped data.
class SseChannel {
 public:
  static constexpr std::size_t kDefaultMaxFrames = 1024;

  explicit SseChannel(std::size_t max_frames = kDefaultMaxFrames);
  SseChannel(const SseChannel&) = delete;
  SseChannel& operator=(const SseChannel&) = delete;

  /// Frames `data` (every '\n'-separated line becomes one `data:`
  /// line) under `event` with the next sequence number and retains it.
  void publish(std::string_view event, std::string_view data);

  /// The sequence number the *next* published frame will get. A new
  /// subscriber starting here sees only future events.
  std::uint64_t head() const;

  /// Appends every retained frame with seq >= cursor to `out` and
  /// returns the new cursor (head()). If `cursor` has fallen out of
  /// the retention window, a `: missed N events` comment is appended
  /// first.
  std::uint64_t collect(std::uint64_t cursor, std::string& out) const;

  std::uint64_t published() const {
    return published_.load(std::memory_order_relaxed);
  }

  /// Installs a fanout-latency observer: called once per frame copied
  /// into a subscriber's buffer with (now - publish instant) in ns —
  /// the "fanout" stage of the live pipeline. Install before the
  /// server starts; pass nullptr to remove. Replayed frames
  /// (?since=SEQ) report their true, large staleness.
  void set_latency_sink(std::function<void(std::uint64_t ns)> sink);

  /// Self-pipe wakeup: publish() writes one byte to `fd` so a poll()ing
  /// server wakes immediately instead of on its next pump interval.
  /// The server installs its pipe on start() and removes it (-1) on
  /// stop(); the fd is not owned. A full pipe is fine — a wakeup is
  /// already pending.
  void set_wakeup_fd(int fd);

  /// Pure SSE wire framing of one event (exposed for tests):
  ///   event: <name>\n
  ///   data: <line>\n      (repeated per line of `data`)
  ///   id: <id>\n
  ///   \n
  static std::string frame(std::string_view event, std::string_view data,
                           std::uint64_t id);

 private:
  struct Frame {
    std::string text;
    std::chrono::steady_clock::time_point published_at;
  };

  mutable std::mutex mutex_;
  std::deque<Frame> frames_;     // frames_[i] has seq first_seq_ + i
  std::uint64_t first_seq_ = 1;  // seq of frames_.front()
  std::uint64_t next_seq_ = 1;
  std::size_t max_frames_;
  std::atomic<std::uint64_t> published_{0};
  std::function<void(std::uint64_t)> latency_sink_;
  int wake_fd_ = -1;  // guarded by mutex_
};

class HttpServer {
 public:
  using Handler = std::function<HttpResponse(std::string_view target)>;

  HttpServer() = default;
  ~HttpServer() { stop(); }
  HttpServer(const HttpServer&) = delete;
  HttpServer& operator=(const HttpServer&) = delete;

  /// Registers a GET handler for the exact path (no trailing slash
  /// magic). Must be called before start(); the handler runs on the
  /// serving thread. Registering a built-in path overrides it.
  void add_endpoint(std::string path, Handler handler);

  /// Registers an SSE endpoint streaming `channel` (not owned; must
  /// outlive the server). Must be called before start().
  void add_stream(std::string path, SseChannel* channel);

  /// Comment-frame keepalive cadence for streaming connections.
  void set_heartbeat_interval_ms(int ms) { heartbeat_ms_ = ms; }
  /// Fallback poll interval while SSE clients are connected. Frame
  /// delivery is event-driven (each publish() wakes the loop through a
  /// self-pipe), so this only bounds heartbeat/eviction latency — it
  /// is no longer the frame-delivery floor.
  void set_stream_poll_interval_ms(int ms) {
    stream_poll_ms_ = ms < 1 ? 1 : ms;
  }
  int stream_poll_interval_ms() const { return stream_poll_ms_; }
  /// Unsent-backlog bound above which a streaming client is evicted.
  void set_max_client_buffer(std::size_t bytes) { max_client_buffer_ = bytes; }
  std::size_t max_client_buffer() const { return max_client_buffer_; }

  /// Binds 0.0.0.0:`port` (0 picks an ephemeral port) and starts the
  /// serving thread. Returns false (with no thread started) if the
  /// socket cannot be bound. Calling start() twice is an error.
  bool start(std::uint16_t port);

  /// Stops the serving thread and closes the socket and every
  /// connection. Idempotent.
  void stop();

  bool running() const { return listen_fd_ >= 0; }
  /// The bound port (the real one when started with port 0).
  std::uint16_t port() const { return port_; }
  std::uint64_t requests_served() const {
    return requests_.load(std::memory_order_relaxed);
  }
  std::uint64_t slow_clients_evicted() const {
    return evictions_.load(std::memory_order_relaxed);
  }

 private:
  struct Conn;
  struct Route {
    Handler handler;        // non-streaming endpoint
    SseChannel* channel = nullptr;  // streaming endpoint
  };

  void serve_loop();
  void accept_ready();
  void read_ready(Conn& conn);
  void dispatch(Conn& conn, std::string_view method, std::string_view target);
  void pump_stream(Conn& conn);
  void flush_out(Conn& conn);
  /// {"endpoints":[{"path":...,"stream":bool},...]} — built-ins plus
  /// everything registered, served on GET /.
  std::string index_json() const;

  int listen_fd_ = -1;
  int wake_rd_ = -1;  // self-pipe the SSE channels write to on publish
  int wake_wr_ = -1;
  std::uint16_t port_ = 0;
  std::thread thread_;
  std::atomic<bool> stop_{false};
  std::atomic<std::uint64_t> requests_{0};
  std::atomic<std::uint64_t> evictions_{0};
  int heartbeat_ms_ = 10'000;
  int stream_poll_ms_ = 100;
  std::size_t max_client_buffer_ = 256 * 1024;
  std::vector<std::pair<std::string, Route>> routes_;
  std::vector<Conn*> conns_;
  Counter m_requests_;
  Counter m_evictions_;
  Gauge m_open_conns_;
  Gauge m_sse_clients_;
};

}  // namespace zombiescope::obs
