#include "obs/http.hpp"

#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <ctime>
#include <thread>

#include "obs/causal.hpp"
#include "obs/export.hpp"
#include "obs/heap.hpp"
#include "obs/journal.hpp"
#include "obs/lathist.hpp"
#include "obs/prof.hpp"
#include "obs/trace.hpp"

namespace zombiescope::obs {

namespace {

constexpr int kPollIntervalMs = 100;
constexpr int kRequestTimeoutMs = 2000;
// A queued (non-streaming) response must drain within this bound; a
// client that stops reading is closed when it expires.
constexpr int kFlushTimeoutMs = 30'000;
constexpr std::size_t kMaxRequestBytes = 8192;
constexpr std::size_t kMaxConnections = 64;

using Clock = std::chrono::steady_clock;

std::string_view status_text(int status) {
  switch (status) {
    case 200: return "OK";
    case 404: return "Not Found";
    case 405: return "Method Not Allowed";
    case 409: return "Conflict";
    case 501: return "Not Implemented";
    case 503: return "Service Unavailable";
    default: return "Bad Request";
  }
}

bool set_nonblocking(int fd) {
  const int flags = ::fcntl(fd, F_GETFL, 0);
  return flags >= 0 && ::fcntl(fd, F_SETFL, flags | O_NONBLOCK) == 0;
}

// One HTTP/1.1 chunk (streams use chunked transfer coding).
std::string chunk(std::string_view payload) {
  char head[16];
  std::snprintf(head, sizeof(head), "%zx\r\n", payload.size());
  std::string out = head;
  out += payload;
  out += "\r\n";
  return out;
}

HttpResponse route(std::string_view method, std::string_view target) {
  const std::string_view path = target.substr(0, target.find('?'));
  if (method != "GET") {
    return {405, "text/plain; charset=utf-8", "method not allowed\n", {}};
  }
  if (path == "/metrics") {
    // Refresh the zs_heap_* gauges so scrapes see current allocation
    // counters even mid-session (no-op when zsheap never ran).
    heap_publish_metrics();
    return {200, "text/plain; version=0.0.4; charset=utf-8",
            to_prometheus(Registry::global().snapshot()), {}};
  }
  if (path == "/healthz") {
    std::string body = "{\"status\":\"ok\",\"spans_recorded\":" +
                       std::to_string(Tracer::global().total_recorded()) +
                       ",\"journal_emitted\":" +
                       std::to_string(Journal::global().emitted()) +
                       ",\"journal_dropped\":" +
                       std::to_string(Journal::global().dropped()) + "}\n";
    return {200, "application/json", std::move(body), {}};
  }
  if (path == "/latency") {
    // The zslat latency histograms (obs/lathist.hpp): every registered
    // pipeline-stage histogram as JSON with p50/p95/p99, or folded
    // per-bucket text with ?format=folded.
    if (query_string(target, "format") == "folded") {
      return {200, "text/plain; charset=utf-8",
              LatRegistry::global().to_folded(), {}};
    }
    return {200, "application/json", LatRegistry::global().to_json(), {}};
  }
  if (path == "/spans") {
    return {200, "application/json", trace_to_json(Tracer::global().snapshot()),
            {}};
  }
  if (path == "/journal/tail") {
    const std::size_t n = query_uint(target, "n", 256);
    std::uint32_t category_mask = kCatAll;
    if (const std::string categories = query_string(target, "category");
        !categories.empty()) {
      const auto parsed = parse_categories(categories);
      if (!parsed.has_value()) {
        return {400, "text/plain; charset=utf-8",
                "unknown category in ?category=" + categories + "\n", {}};
      }
      category_mask = *parsed;
    }
    std::string body;
    for (const JournalEvent& event : Journal::global().tail(n)) {
      if ((category_of(event.type) & category_mask) == 0) continue;
      body += to_ndjson(event);
      body += '\n';
    }
    return {200, "application/x-ndjson", std::move(body), {}};
  }
  if (path == "/causal") {
    const std::string prefix_text = query_string(target, "prefix");
    CausalTracer& tracer = CausalTracer::global();
    tracer.drain();
    if (prefix_text.empty()) {
      // Index: which prefixes have traces buffered.
      std::string body;
      for (const netbase::Prefix& prefix : tracer.traced_prefixes()) {
        body += prefix.to_string();
        body += '\n';
      }
      if (body.empty()) body = "no traced prefixes\n";
      return {200, "text/plain; charset=utf-8", std::move(body), {}};
    }
    const auto prefix = netbase::Prefix::try_parse(prefix_text);
    if (!prefix.has_value()) {
      return {400, "text/plain; charset=utf-8",
              "bad ?prefix=" + prefix_text + "\n", {}};
    }
    const std::size_t max_traces = query_uint(target, "max_traces", 8);
    return {200, "text/plain; charset=utf-8",
            render_propagation_tree(*prefix, tracer.records_for(*prefix),
                                    max_traces),
            {}};
  }
  if (path == "/profile") {
    // On-demand CPU profile: sample for ?seconds=N (default 5, cap 60)
    // and reply with the folded-stack text. Blocking the serving thread
    // is acceptable — /profile is an operator action, not a scrape
    // target — but it does stall other clients for the window.
    const std::size_t seconds =
        std::min<std::size_t>(query_uint(target, "seconds", 5), 60);
    Profiler& profiler = Profiler::global();
    if (!profiler.start()) {
      return {409, "text/plain; charset=utf-8",
              "profiler already running (another /profile or --profile-out "
              "session is active)\n",
              {}};
    }
    std::this_thread::sleep_for(std::chrono::seconds(seconds));
    const ProfileReport report = profiler.stop();
    std::string body = "# zsprof folded stacks; rate " +
                       std::to_string(report.rate_hz) + " Hz, " +
                       std::to_string(report.samples) + " samples over " +
                       std::to_string(seconds) + "s\n" + report.to_folded();
    return {200, "text/plain; charset=utf-8", std::move(body), {}};
  }
  if (path == "/heap") {
    if (!HeapProfiler::interposition_available()) {
      return {501, "text/plain; charset=utf-8",
              "allocator interposition unavailable (sanitizer build)\n", {}};
    }
    // On-demand allocation profile, same contract as /profile: observe
    // allocations for ?seconds=N (default 5, cap 60), blocking the
    // serving thread, then reply with per-span shares + top sites.
    const std::size_t seconds =
        std::min<std::size_t>(query_uint(target, "seconds", 5), 60);
    HeapProfiler& profiler = HeapProfiler::global();
    if (!profiler.start()) {
      return {409, "text/plain; charset=utf-8",
              "heap profiler already running (another /heap or --heap-out "
              "session is active)\n",
              {}};
    }
    std::this_thread::sleep_for(std::chrono::seconds(seconds));
    const HeapReport report = profiler.stop();
    return {200, "text/plain; charset=utf-8", report.top_report(20), {}};
  }
  return {404, "text/plain; charset=utf-8", "not found\n", {}};
}

}  // namespace

std::size_t query_uint(std::string_view target, std::string_view key,
                       std::size_t fallback) {
  const std::size_t q = target.find('?');
  if (q == std::string_view::npos) return fallback;
  std::string_view query = target.substr(q + 1);
  const std::string prefix = std::string(key) + "=";
  while (!query.empty()) {
    const std::size_t amp = query.find('&');
    std::string_view pair = query.substr(0, amp);
    query = amp == std::string_view::npos ? std::string_view{}
                                          : query.substr(amp + 1);
    if (pair.rfind(prefix, 0) != 0) continue;
    std::size_t value = 0;
    for (char c : pair.substr(prefix.size())) {
      if (c < '0' || c > '9') return fallback;
      value = value * 10 + static_cast<std::size_t>(c - '0');
      if (value > 1'000'000) return fallback;
    }
    return value == 0 ? fallback : value;
  }
  return fallback;
}

std::string query_string(std::string_view target, std::string_view key) {
  const std::size_t q = target.find('?');
  if (q == std::string_view::npos) return {};
  std::string_view query = target.substr(q + 1);
  const std::string prefix = std::string(key) + "=";
  while (!query.empty()) {
    const std::size_t amp = query.find('&');
    std::string_view pair = query.substr(0, amp);
    query = amp == std::string_view::npos ? std::string_view{}
                                          : query.substr(amp + 1);
    if (pair.rfind(prefix, 0) != 0) continue;
    std::string_view raw = pair.substr(prefix.size());
    std::string value;
    value.reserve(raw.size());
    for (std::size_t i = 0; i < raw.size(); ++i) {
      if (raw[i] == '%' && i + 2 < raw.size()) {
        const auto hex = [](char c) -> int {
          if (c >= '0' && c <= '9') return c - '0';
          if (c >= 'a' && c <= 'f') return c - 'a' + 10;
          if (c >= 'A' && c <= 'F') return c - 'A' + 10;
          return -1;
        };
        const int hi = hex(raw[i + 1]);
        const int lo = hex(raw[i + 2]);
        if (hi >= 0 && lo >= 0) {
          value.push_back(static_cast<char>(hi * 16 + lo));
          i += 2;
          continue;
        }
      }
      value.push_back(raw[i] == '+' ? ' ' : raw[i]);
    }
    return value;
  }
  return {};
}

// --- SseChannel ------------------------------------------------------

SseChannel::SseChannel(std::size_t max_frames)
    : max_frames_(max_frames == 0 ? 1 : max_frames) {}

std::string SseChannel::frame(std::string_view event, std::string_view data,
                              std::uint64_t id) {
  std::string f;
  f.reserve(event.size() + data.size() + 48);
  f += "event: ";
  f += event;
  f += '\n';
  std::size_t pos = 0;
  for (;;) {
    const std::size_t nl = data.find('\n', pos);
    f += "data: ";
    f += data.substr(pos, nl == std::string_view::npos ? std::string_view::npos
                                                       : nl - pos);
    f += '\n';
    if (nl == std::string_view::npos || nl + 1 >= data.size()) break;
    pos = nl + 1;
  }
  f += "id: ";
  f += std::to_string(id);
  f += "\n\n";
  return f;
}

void SseChannel::publish(std::string_view event, std::string_view data) {
  std::lock_guard<std::mutex> lock(mutex_);
  frames_.push_back(
      {frame(event, data, next_seq_), std::chrono::steady_clock::now()});
  ++next_seq_;
  if (frames_.size() > max_frames_) {
    frames_.pop_front();
    ++first_seq_;
  }
  published_.fetch_add(1, std::memory_order_relaxed);
  if (wake_fd_ >= 0) {
    // Wake the serving loop's poll() immediately; a failed write means
    // the pipe already holds a pending wakeup (or the server is gone),
    // both fine.
    const char byte = 1;
    [[maybe_unused]] const ssize_t n = ::write(wake_fd_, &byte, 1);
  }
}

void SseChannel::set_wakeup_fd(int fd) {
  std::lock_guard<std::mutex> lock(mutex_);
  wake_fd_ = fd;
}

void SseChannel::set_latency_sink(std::function<void(std::uint64_t)> sink) {
  std::lock_guard<std::mutex> lock(mutex_);
  latency_sink_ = std::move(sink);
}

std::uint64_t SseChannel::head() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return next_seq_;
}

std::uint64_t SseChannel::collect(std::uint64_t cursor, std::string& out) const {
  std::lock_guard<std::mutex> lock(mutex_);
  if (cursor == 0) {
    cursor = first_seq_;  // ?since=0 style "replay everything retained"
  } else if (cursor < first_seq_) {
    out += ": missed " + std::to_string(first_seq_ - cursor) + " events\n\n";
    cursor = first_seq_;
  }
  const auto now = std::chrono::steady_clock::now();
  for (std::uint64_t seq = cursor; seq < next_seq_; ++seq) {
    const Frame& f = frames_[static_cast<std::size_t>(seq - first_seq_)];
    out += f.text;
    if (latency_sink_) {
      const auto ns = std::chrono::duration_cast<std::chrono::nanoseconds>(
                          now - f.published_at)
                          .count();
      latency_sink_(ns > 0 ? static_cast<std::uint64_t>(ns) : 0);
    }
  }
  return next_seq_;
}

// --- HttpServer ------------------------------------------------------

struct HttpServer::Conn {
  int fd = -1;
  std::string in;
  std::string out;
  std::size_t out_off = 0;
  bool responded = false;  // request routed, response or stream head queued
  bool streaming = false;
  SseChannel* channel = nullptr;
  std::uint64_t cursor = 0;
  Clock::time_point read_deadline{};
  Clock::time_point flush_deadline{};  // non-streaming responses only
  Clock::time_point last_beat{};
  bool dead = false;
};

void HttpServer::add_endpoint(std::string path, Handler handler) {
  if (running()) return;  // registration is a startup-time operation
  routes_.push_back({std::move(path), Route{std::move(handler), nullptr}});
}

void HttpServer::add_stream(std::string path, SseChannel* channel) {
  if (running() || channel == nullptr) return;
  routes_.push_back({std::move(path), Route{nullptr, channel}});
}

bool HttpServer::start(std::uint16_t port) {
  if (listen_fd_ >= 0) return false;

  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return false;
  const int one = 1;
  ::setsockopt(fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));

  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_ANY);
  addr.sin_port = htons(port);
  if (::bind(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof(addr)) != 0 ||
      ::listen(fd, 16) != 0 || !set_nonblocking(fd)) {
    ::close(fd);
    return false;
  }

  sockaddr_in bound{};
  socklen_t bound_len = sizeof(bound);
  if (::getsockname(fd, reinterpret_cast<sockaddr*>(&bound), &bound_len) != 0) {
    ::close(fd);
    return false;
  }
  port_ = ntohs(bound.sin_port);
  listen_fd_ = fd;

  // Self-pipe: every SSE channel writes a byte on publish() so the
  // serving loop's poll() returns immediately instead of waiting out
  // its pump interval — frame delivery is event-driven.
  int pipe_fds[2] = {-1, -1};
  if (::pipe(pipe_fds) == 0 && set_nonblocking(pipe_fds[0]) &&
      set_nonblocking(pipe_fds[1])) {
    wake_rd_ = pipe_fds[0];
    wake_wr_ = pipe_fds[1];
    for (auto& [path, route] : routes_) {
      if (route.channel != nullptr) route.channel->set_wakeup_fd(wake_wr_);
    }
  } else if (pipe_fds[0] >= 0) {
    ::close(pipe_fds[0]);
    ::close(pipe_fds[1]);
  }

  stop_.store(false, std::memory_order_relaxed);
  Registry& reg = Registry::global();
  m_requests_ = reg.counter("zs_http_requests_total");
  m_evictions_ = reg.counter("zs_http_slow_clients_evicted_total");
  m_open_conns_ = reg.gauge("zs_http_open_connections");
  m_sse_clients_ = reg.gauge("zs_http_sse_clients");
  thread_ = std::thread([this] { serve_loop(); });
  return true;
}

void HttpServer::stop() {
  if (listen_fd_ < 0) return;
  stop_.store(true, std::memory_order_relaxed);
  if (wake_wr_ >= 0) {
    // Kick the poll() so shutdown is not delayed by a full interval.
    const char byte = 0;
    [[maybe_unused]] const ssize_t n = ::write(wake_wr_, &byte, 1);
  }
  if (thread_.joinable()) thread_.join();
  for (auto& [path, route] : routes_) {
    if (route.channel != nullptr) route.channel->set_wakeup_fd(-1);
  }
  if (wake_rd_ >= 0) ::close(wake_rd_);
  if (wake_wr_ >= 0) ::close(wake_wr_);
  wake_rd_ = wake_wr_ = -1;
  ::close(listen_fd_);
  listen_fd_ = -1;
  port_ = 0;
}

void HttpServer::serve_loop() {
  std::vector<pollfd> pfds;
  const std::size_t fixed = wake_rd_ >= 0 ? 2 : 1;
  while (!stop_.load(std::memory_order_relaxed)) {
    pfds.clear();
    pfds.push_back({listen_fd_, POLLIN, 0});
    if (wake_rd_ >= 0) pfds.push_back({wake_rd_, POLLIN, 0});
    bool any_stream = false;
    for (const Conn* c : conns_) {
      short events = POLLIN;  // always watch for data / orderly close
      if (c->out_off < c->out.size()) events |= POLLOUT;
      if (c->streaming) any_stream = true;
      pfds.push_back({c->fd, events, 0});
    }
    // With the publish self-pipe in the set, the stream interval is
    // only a heartbeat/eviction bound, not the frame-delivery floor.
    ::poll(pfds.data(), pfds.size(),
           any_stream ? stream_poll_ms_ : kPollIntervalMs);
    if (stop_.load(std::memory_order_relaxed)) break;

    if (wake_rd_ >= 0 && (pfds[1].revents & POLLIN) != 0) {
      char drain[256];
      while (::read(wake_rd_, drain, sizeof(drain)) > 0) {
      }
    }

    // Process the connections that were polled (accept afterwards, so
    // pfds and conns_ stay index-aligned here).
    const std::size_t polled = pfds.size() - fixed;
    const Clock::time_point now = Clock::now();
    for (std::size_t i = 0; i < polled; ++i) {
      Conn& c = *conns_[i];
      const short re = pfds[i + fixed].revents;
      if ((re & (POLLERR | POLLNVAL)) != 0) c.dead = true;
      if (!c.dead && (re & (POLLIN | POLLHUP)) != 0) read_ready(c);
      if (!c.dead && c.streaming) pump_stream(c);
      if (!c.dead && c.out_off < c.out.size()) flush_out(c);
      if (!c.dead && !c.responded && now > c.read_deadline) c.dead = true;
      if (!c.dead && c.responded && !c.streaming &&
          c.out_off < c.out.size() && now > c.flush_deadline) {
        c.dead = true;
      }
    }

    // Reap closed connections.
    for (std::size_t i = conns_.size(); i-- > 0;) {
      Conn* c = conns_[i];
      if (!c->dead) continue;
      if (c->streaming) m_sse_clients_.add(-1);
      m_open_conns_.add(-1);
      ::close(c->fd);
      delete c;
      conns_.erase(conns_.begin() + static_cast<std::ptrdiff_t>(i));
    }

    if ((pfds[0].revents & POLLIN) != 0) accept_ready();
  }

  for (Conn* c : conns_) {
    if (c->streaming) m_sse_clients_.add(-1);
    m_open_conns_.add(-1);
    ::close(c->fd);
    delete c;
  }
  conns_.clear();
}

void HttpServer::accept_ready() {
  for (;;) {
    const int fd = ::accept(listen_fd_, nullptr, nullptr);
    if (fd < 0) break;
    if (conns_.size() >= kMaxConnections || !set_nonblocking(fd)) {
      ::close(fd);
      continue;
    }
    // SSE frames are small writes on a long-lived stream; without
    // TCP_NODELAY Nagle holds each one until the previous is acked.
    const int one = 1;
    ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
    auto* c = new Conn;
    c->fd = fd;
    c->read_deadline =
        Clock::now() + std::chrono::milliseconds(kRequestTimeoutMs);
    conns_.push_back(c);
    m_open_conns_.add(1);
  }
}

void HttpServer::read_ready(Conn& c) {
  char buf[4096];
  for (;;) {
    const ssize_t n = ::recv(c.fd, buf, sizeof(buf), 0);
    if (n > 0) {
      if (!c.responded) {
        c.in.append(buf, static_cast<std::size_t>(n));
        if (c.in.size() > kMaxRequestBytes) {
          c.dead = true;
          return;
        }
      }
      // Bytes after the routed request are ignored (Connection: close).
      continue;
    }
    if (n == 0) {
      // Orderly close from the client. A streaming subscriber is gone;
      // a plain response still in flight may finish draining (bounded
      // by the flush deadline).
      if (!c.responded || c.streaming || c.out_off >= c.out.size()) {
        c.dead = true;
      }
      return;
    }
    if (errno == EAGAIN || errno == EWOULDBLOCK) break;
    if (errno == EINTR) continue;
    c.dead = true;
    return;
  }
  if (c.responded) return;

  const std::size_t head_end = c.in.find("\r\n\r\n");
  if (head_end == std::string::npos) return;

  // Request line: METHOD SP TARGET SP VERSION
  const std::size_t line_end = c.in.find("\r\n");
  std::string_view line(c.in.data(), line_end);
  const std::size_t sp1 = line.find(' ');
  if (sp1 == std::string_view::npos) {
    c.dead = true;
    return;
  }
  const std::size_t sp2 = line.find(' ', sp1 + 1);
  if (sp2 == std::string_view::npos) {
    c.dead = true;
    return;
  }
  const std::string_view method = line.substr(0, sp1);
  const std::string_view target = line.substr(sp1 + 1, sp2 - sp1 - 1);
  dispatch(c, method, target);
  c.in.clear();
}

void HttpServer::dispatch(Conn& c, std::string_view method,
                          std::string_view target) {
  requests_.fetch_add(1, std::memory_order_relaxed);
  m_requests_.inc();
  c.responded = true;

  // HEAD is GET without the body: route identically, keep the
  // Content-Length the GET would have had, send no payload.
  const bool is_head = method == "HEAD";
  const std::string_view eff_method = is_head ? std::string_view("GET")
                                              : method;

  const std::string_view path = target.substr(0, target.find('?'));
  const Route* matched = nullptr;
  for (const auto& [route_path, route] : routes_) {
    if (route_path == path) {
      matched = &route;
      break;
    }
  }

  if (matched != nullptr && matched->channel != nullptr &&
      eff_method == "GET") {
    if (is_head) {
      // Headers only; no subscription is created.
      c.out +=
          "HTTP/1.1 200 OK\r\n"
          "Content-Type: text/event-stream\r\n"
          "Cache-Control: no-cache\r\n"
          "Connection: close\r\n\r\n";
      flush_out(c);
      return;
    }
    // SSE subscription: chunked stream, one chunk per frame/heartbeat.
    c.out +=
        "HTTP/1.1 200 OK\r\n"
        "Content-Type: text/event-stream\r\n"
        "Cache-Control: no-cache\r\n"
        "Transfer-Encoding: chunked\r\n"
        "Connection: close\r\n\r\n";
    c.streaming = true;
    c.channel = matched->channel;
    // ?since=SEQ replays retained frames from SEQ (0 = everything
    // retained); without the parameter a subscriber starts at head —
    // only events published after subscription.
    c.cursor = query_string(target, "since").empty()
                   ? c.channel->head()
                   : query_uint(target, "since", 0);
    c.last_beat = Clock::now();
    m_sse_clients_.add(1);
    pump_stream(c);
    flush_out(c);
    return;
  }

  HttpResponse response;
  if (matched != nullptr && matched->handler != nullptr) {
    response = eff_method == "GET"
                   ? matched->handler(target)
                   : HttpResponse{405, "text/plain; charset=utf-8",
                                  "method not allowed\n", {}};
  } else if (path == "/" && eff_method == "GET") {
    // Endpoint index: what this daemon actually serves, so clients
    // (zstop) can detect capabilities instead of probing paths.
    response = {200, "application/json", index_json(), {}};
  } else {
    response = route(eff_method, target);
  }

  std::string head = "HTTP/1.1 " + std::to_string(response.status) + " " +
                     std::string(status_text(response.status)) + "\r\n";
  head += "Content-Type: " + response.content_type + "\r\n";
  head += "Content-Length: " + std::to_string(response.body.size()) + "\r\n";
  if (!response.etag.empty()) head += "ETag: \"" + response.etag + "\"\r\n";
  head += "Connection: close\r\n\r\n";
  c.out += head;
  if (!is_head) c.out += response.body;
  c.flush_deadline = Clock::now() + std::chrono::milliseconds(kFlushTimeoutMs);
  flush_out(c);
}

void HttpServer::pump_stream(Conn& c) {
  std::string fresh;
  c.cursor = c.channel->collect(c.cursor, fresh);
  const Clock::time_point now = Clock::now();
  if (!fresh.empty()) {
    c.out += chunk(fresh);
    c.last_beat = now;
  } else if (now - c.last_beat >=
             std::chrono::milliseconds(heartbeat_ms_)) {
    c.out += chunk(": hb\n\n");
    c.last_beat = now;
  }
  const std::size_t backlog = c.out.size() - c.out_off;
  if (backlog > max_client_buffer_) {
    // Slow-client eviction: the subscriber is not draining its socket
    // and its backlog passed the bound; drop it rather than grow.
    evictions_.fetch_add(1, std::memory_order_relaxed);
    m_evictions_.inc();
    Journal& journal = Journal::global();
    if (journal.enabled(kCatLive)) {
      JournalEvent ev;
      ev.type = JournalEventType::kLiveClientEvicted;
      ev.time = static_cast<netbase::TimePoint>(std::time(nullptr));
      ev.a = static_cast<std::int64_t>(backlog);
      journal.emit(kCatLive, ev);
    }
    c.dead = true;
  }
}

std::string HttpServer::index_json() const {
  // Built-ins first, then whatever the daemon registered; a registered
  // path that shadows a built-in (zslive's /healthz) appears once with
  // its registered shape.
  std::vector<std::pair<std::string, bool>> endpoints = {
      {"/", false},          {"/metrics", false},      {"/healthz", false},
      {"/latency", false},   {"/spans", false},        {"/journal/tail", false},
      {"/profile", false},   {"/heap", false},         {"/causal", false},
  };
  for (const auto& [path, route] : routes_) {
    bool seen = false;
    for (auto& [known, stream] : endpoints) {
      if (known == path) {
        stream = route.channel != nullptr;
        seen = true;
        break;
      }
    }
    if (!seen) endpoints.emplace_back(path, route.channel != nullptr);
  }
  std::sort(endpoints.begin(), endpoints.end());
  std::string body = "{\"service\":\"" + std::string("zsobs") +
                     "\",\"endpoints\":[";
  bool first = true;
  for (const auto& [path, stream] : endpoints) {
    if (!first) body += ',';
    first = false;
    body += "{\"path\":\"" + path + "\",\"stream\":" +
            (stream ? "true" : "false") + "}";
  }
  body += "]}\n";
  return body;
}

void HttpServer::flush_out(Conn& c) {
  while (c.out_off < c.out.size()) {
    const ssize_t n = ::send(c.fd, c.out.data() + c.out_off,
                             c.out.size() - c.out_off, MSG_NOSIGNAL);
    if (n > 0) {
      c.out_off += static_cast<std::size_t>(n);
      continue;
    }
    if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) break;
    if (n < 0 && errno == EINTR) continue;
    c.dead = true;
    return;
  }
  if (c.out_off == c.out.size()) {
    c.out.clear();
    c.out_off = 0;
    if (c.responded && !c.streaming) {
      // Response fully flushed: half-close so the client sees EOF.
      ::shutdown(c.fd, SHUT_WR);
      c.dead = true;
    }
  } else if (c.out_off > 65536) {
    c.out.erase(0, c.out_off);
    c.out_off = 0;
  }
}

}  // namespace zombiescope::obs
