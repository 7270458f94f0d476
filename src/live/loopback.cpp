#include "live/loopback.hpp"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <chrono>
#include <cstring>

namespace zombiescope::live {

namespace {

constexpr std::string_view kIngestKey = "\"ingest_ns\":";

std::uint64_t now_steady_ns() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

}  // namespace

LoopbackLatencyClient::LoopbackLatencyClient(std::uint16_t port,
                                             std::string target)
    : port_(port), target_(std::move(target)) {
  e2e_ = &obs::LatRegistry::global().get("live.e2e");
  m_e2e_seconds_ = obs::Registry::global().histogram(
      "zs_live_stage_seconds_e2e",
      {1e-6, 2.5e-6, 5e-6, 1e-5, 2.5e-5, 5e-5, 1e-4, 2.5e-4, 5e-4,
       1e-3, 2.5e-3, 5e-3, 1e-2, 2.5e-2, 5e-2, 0.1,  0.25,   0.5,
       1.0,  2.5,    5.0});
}

LoopbackLatencyClient::~LoopbackLatencyClient() { stop(); }

bool LoopbackLatencyClient::start() {
  if (fd_ >= 0) return true;
  fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd_ < 0) return false;
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port_);
  ::inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr);
  if (::connect(fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    ::close(fd_);
    fd_ = -1;
    return false;
  }
  // Bounded recv waits so stop() is honored even on a silent stream.
  timeval tv{};
  tv.tv_usec = 100 * 1000;
  ::setsockopt(fd_, SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof(tv));
  const int one = 1;
  ::setsockopt(fd_, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
  const std::string request = "GET " + target_ +
                              " HTTP/1.1\r\nHost: 127.0.0.1\r\nAccept: "
                              "text/event-stream\r\n\r\n";
  if (::send(fd_, request.data(), request.size(), MSG_NOSIGNAL) !=
      static_cast<ssize_t>(request.size())) {
    ::close(fd_);
    fd_ = -1;
    return false;
  }
  // The server places a subscriber's cursor at the channel head when it
  // writes the response header; events published before that never
  // reach this client. Return only once the 200 header is in, so every
  // transition after start() is delivered.
  std::string head;
  char buf[4096];
  for (int ticks = 0; head.find("\r\n\r\n") == std::string::npos;) {
    const ssize_t n = ::recv(fd_, buf, sizeof(buf), 0);
    const bool tick = n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK || errno == EINTR);
    if (n > 0) {
      head.append(buf, static_cast<std::size_t>(n));
    } else if (!tick || ++ticks > 50) {  // closed, failed, or silent for ~5 s
      break;
    }
  }
  if (head.find("\r\n\r\n") == std::string::npos || !head.starts_with("HTTP/1.1 200")) {
    ::close(fd_);
    fd_ = -1;
    return false;
  }
  bytes_.fetch_add(head.size(), std::memory_order_relaxed);
  scan(head.data(), head.size());  // the first events may share the segment
  stop_.store(false, std::memory_order_relaxed);
  thread_ = std::thread([this] { reader_loop(); });
  return true;
}

void LoopbackLatencyClient::stop() {
  stop_.store(true, std::memory_order_relaxed);
  if (fd_ >= 0) ::shutdown(fd_, SHUT_RDWR);
  if (thread_.joinable()) thread_.join();
  if (fd_ >= 0) {
    ::close(fd_);
    fd_ = -1;
  }
}

void LoopbackLatencyClient::reader_loop() {
  char buf[8192];
  while (!stop_.load(std::memory_order_relaxed)) {
    const ssize_t n = ::recv(fd_, buf, sizeof(buf), 0);
    if (n > 0) {
      bytes_.fetch_add(static_cast<std::uint64_t>(n),
                       std::memory_order_relaxed);
      scan(buf, static_cast<std::size_t>(n));
      continue;
    }
    if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK || errno == EINTR)) {
      continue;  // recv timeout tick; re-check stop_
    }
    break;  // peer closed or hard error
  }
}

void LoopbackLatencyClient::scan(const char* data, std::size_t len) {
  // Incremental match of `"ingest_ns":<digits>`; any byte boundary may
  // fall inside the key or the number (TCP segmentation), so the
  // partial state lives across calls. Chunked-transfer headers never
  // split a number: pump_stream frames whole SSE events per chunk.
  for (std::size_t i = 0; i < len; ++i) {
    const char c = data[i];
    if (in_number_) {
      if (c >= '0' && c <= '9') {
        number_ = number_ * 10 + static_cast<std::uint64_t>(c - '0');
        continue;
      }
      in_number_ = false;
      const std::uint64_t now = now_steady_ns();
      if (number_ != 0 && now > number_) {
        const std::uint64_t e2e_ns = now - number_;
        e2e_->record(e2e_ns);
        m_e2e_seconds_.observe(static_cast<double>(e2e_ns) * 1e-9);
        samples_.fetch_add(1, std::memory_order_relaxed);
      }
      number_ = 0;
      // fall through to key matching on this byte
    }
    if (c == kIngestKey[key_matched_]) {
      if (++key_matched_ == kIngestKey.size()) {
        key_matched_ = 0;
        in_number_ = true;
        number_ = 0;
      }
    } else {
      key_matched_ = c == kIngestKey[0] ? 1 : 0;
    }
  }
}

}  // namespace zombiescope::live
