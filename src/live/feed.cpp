#include "live/feed.hpp"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <chrono>
#include <cmath>
#include <cstdlib>
#include <stdexcept>
#include <thread>

#include "collector/collector.hpp"
#include "mrt/codec.hpp"
#include "netbase/json.hpp"
#include "netbase/rng.hpp"
#include "obs/metrics.hpp"
#include "simnet/simulation.hpp"
#include "topology/topology.hpp"

namespace zombiescope::live {

namespace {

obs::Counter feed_records_counter() {
  return obs::Registry::global().counter("zs_live_feed_records_total");
}
obs::Counter feed_parse_errors_counter() {
  return obs::Registry::global().counter("zs_live_feed_parse_errors_total");
}

using netbase::JsonValue;

using Kind = netbase::JsonValue::Kind;

/// A JSON number as an ASN; nullopt outside [0, 2^32).
std::optional<bgp::Asn> asn_from_number(double n) {
  if (!(n >= 0 && n <= 4294967295.0)) return std::nullopt;
  return static_cast<bgp::Asn>(n);
}

/// peer_asn arrives as "64500" in RIS-Live but some producers send a
/// bare number; accept both.
std::optional<bgp::Asn> parse_asn(const JsonValue* value) {
  if (value == nullptr) return std::nullopt;
  if (value->kind == Kind::kNumber) return asn_from_number(value->number);
  if (value->kind == Kind::kString) {
    const std::string& s = value->str;
    char* end = nullptr;
    const unsigned long long asn = std::strtoull(s.c_str(), &end, 10);
    if (end != s.c_str() + s.size() || asn > 4294967295ull) return std::nullopt;
    return static_cast<bgp::Asn>(asn);
  }
  return std::nullopt;
}

/// RIS-Live paths can contain AS_SET members as nested arrays; flatten
/// (the detector only matches paths textually). Out-of-range numbers
/// are skipped like other non-ASN elements.
void flatten_path(const std::vector<JsonValue>& array, std::vector<bgp::Asn>& out) {
  for (const JsonValue& element : array) {
    if (element.kind == Kind::kNumber) {
      if (const auto asn = asn_from_number(element.number)) out.push_back(*asn);
    } else if (element.kind == Kind::kArray) {
      flatten_path(element.array, out);
    }
  }
}

}  // namespace

std::optional<mrt::MrtRecord> parse_ris_live_line(std::string_view line) {
  const auto doc = netbase::parse_json(line);
  if (!doc || doc->kind != Kind::kObject) return std::nullopt;
  const JsonValue* object = &*doc;
  if (const JsonValue* data = object->find("data")) {
    if (data->kind != Kind::kObject) return std::nullopt;
    object = data;
  }

  std::string type = "UPDATE";
  if (const JsonValue* t = object->find("type")) {
    if (t->kind != Kind::kString) return std::nullopt;
    type = t->str;
  }

  netbase::TimePoint timestamp = 0;
  if (const JsonValue* ts = object->find("timestamp")) {
    // The range check keeps the integer conversion defined.
    if (ts->kind != Kind::kNumber || !(std::fabs(ts->number) < 9.2e18)) {
      return std::nullopt;
    }
    timestamp = static_cast<netbase::TimePoint>(std::floor(ts->number));
  }

  const JsonValue* peer = object->find("peer");
  if (peer == nullptr || peer->kind != Kind::kString) return std::nullopt;
  const auto peer_address = netbase::IpAddress::try_parse(peer->str);
  if (!peer_address) return std::nullopt;
  const auto peer_asn = parse_asn(object->find("peer_asn"));
  if (!peer_asn) return std::nullopt;

  if (type == "UPDATE") {
    mrt::Bgp4mpMessage message;
    message.timestamp = timestamp;
    message.peer_asn = *peer_asn;
    message.peer_address = *peer_address;
    if (const JsonValue* withdrawals = object->find("withdrawals")) {
      if (withdrawals->kind != Kind::kArray) return std::nullopt;
      for (const JsonValue& w : withdrawals->array) {
        if (w.kind != Kind::kString) return std::nullopt;
        const auto prefix = netbase::Prefix::try_parse(w.str);
        if (!prefix) return std::nullopt;
        message.update.withdrawn.push_back(*prefix);
      }
    }
    if (const JsonValue* announcements = object->find("announcements")) {
      if (announcements->kind != Kind::kArray) return std::nullopt;
      for (const JsonValue& entry : announcements->array) {
        if (entry.kind != Kind::kObject) return std::nullopt;
        if (const JsonValue* next_hop = entry.find("next_hop")) {
          if (next_hop->kind == Kind::kString) {
            message.update.attributes.next_hop =
                netbase::IpAddress::try_parse(next_hop->str);
          }
        }
        const JsonValue* prefixes = entry.find("prefixes");
        if (prefixes == nullptr || prefixes->kind != Kind::kArray) {
          return std::nullopt;
        }
        for (const JsonValue& p : prefixes->array) {
          if (p.kind != Kind::kString) return std::nullopt;
          const auto prefix = netbase::Prefix::try_parse(p.str);
          if (!prefix) return std::nullopt;
          message.update.announced.push_back(*prefix);
        }
      }
    }
    if (const JsonValue* path = object->find("path")) {
      if (path->kind == Kind::kArray) {
        std::vector<bgp::Asn> asns;
        flatten_path(path->array, asns);
        message.update.attributes.as_path = bgp::AsPath::sequence(asns);
      }
    }
    if (message.update.announced.empty() && message.update.withdrawn.empty()) {
      return std::nullopt;  // keepalive-ish UPDATE; nothing to detect on
    }
    return mrt::MrtRecord{std::move(message)};
  }

  if (type == "STATE" || type == "RIS_PEER_STATE") {
    std::string state;
    if (const JsonValue* s = object->find("state")) state = s->string_or("");
    const bool up =
        state == "connected" || state == "established" || state == "up";
    mrt::Bgp4mpStateChange change;
    change.timestamp = timestamp;
    change.peer_asn = *peer_asn;
    change.peer_address = *peer_address;
    change.old_state = up ? bgp::SessionState::kIdle : bgp::SessionState::kEstablished;
    change.new_state = up ? bgp::SessionState::kEstablished : bgp::SessionState::kIdle;
    return mrt::MrtRecord{change};
  }

  return std::nullopt;  // RIS_ERROR, pong, OPEN dumps, ...
}

// --- ReplayFeedSource ------------------------------------------------

ReplayFeedSource::ReplayFeedSource(std::vector<mrt::MrtRecord> records,
                                   double speed)
    : records_(std::move(records)), speed_(speed) {}

std::unique_ptr<ReplayFeedSource> ReplayFeedSource::from_file(
    const std::string& path, double speed) {
  return std::make_unique<ReplayFeedSource>(mrt::read_file(path), speed);
}

FeedSource::RunStats ReplayFeedSource::run(LiveService& service) {
  RunStats stats;
  if (records_.empty()) return stats;
  const obs::Counter m_records = feed_records_counter();
  const netbase::TimePoint t0 = mrt::record_timestamp(records_.front());
  const auto wall0 = std::chrono::steady_clock::now();
  for (const mrt::MrtRecord& record : records_) {
    if (stop_.load(std::memory_order_relaxed)) break;
    if (speed_ > 0) {
      const double offset =
          static_cast<double>(mrt::record_timestamp(record) - t0) / speed_;
      const auto target = wall0 + std::chrono::duration_cast<
                                      std::chrono::steady_clock::duration>(
                                      std::chrono::duration<double>(offset));
      while (!stop_.load(std::memory_order_relaxed) &&
             std::chrono::steady_clock::now() < target) {
        std::this_thread::sleep_for(std::chrono::milliseconds(2));
      }
    }
    // The ingest stamp is taken *after* the pacing wait: pacing models
    // inter-arrival time, so for latency purposes the record "arrives"
    // when the gate releases it.
    service.submit(FeedItem{record, std::chrono::steady_clock::now()});
    ++stats.records;
    m_records.inc();
  }
  return stats;
}

// --- SimTapFeedSource ------------------------------------------------

namespace {

constexpr bgp::Asn kTapOrigin = 65000;
constexpr bgp::Asn kTapTransitA = 65010;
constexpr bgp::Asn kTapTransitB = 65020;
constexpr bgp::Asn kTapPeerClean = 65030;
constexpr bgp::Asn kTapPeerLossy = 65040;
constexpr bgp::Asn kTapPeerFlaky = 65050;
constexpr netbase::TimePoint kTapStart = 300;  // let initial routing settle

netbase::Prefix tap_beacon_prefix(std::size_t i) {
  return netbase::Prefix::parse("100.64." + std::to_string(i % 256) + ".0/24");
}

topology::Topology tap_topology() {
  topology::Topology topo;
  topo.add_as({kTapOrigin, 3, "tap-origin"});
  topo.add_as({kTapTransitA, 1, "tap-transit-a"});
  topo.add_as({kTapTransitB, 1, "tap-transit-b"});
  topo.add_as({kTapPeerClean, 2, "tap-peer-clean"});
  topo.add_as({kTapPeerLossy, 2, "tap-peer-lossy"});
  topo.add_as({kTapPeerFlaky, 2, "tap-peer-flaky"});
  topo.add_link(kTapTransitA, kTapOrigin, topology::Relationship::kCustomer);
  topo.add_link(kTapTransitB, kTapOrigin, topology::Relationship::kCustomer);
  topo.add_link(kTapTransitA, kTapTransitB, topology::Relationship::kPeer);
  topo.add_link(kTapTransitA, kTapPeerClean, topology::Relationship::kCustomer);
  topo.add_link(kTapTransitB, kTapPeerLossy, topology::Relationship::kCustomer);
  topo.add_link(kTapTransitA, kTapPeerFlaky, topology::Relationship::kCustomer);
  topo.add_link(kTapTransitB, kTapPeerFlaky, topology::Relationship::kCustomer);
  return topo;
}

}  // namespace

std::vector<beacon::BeaconEvent> SimTapFeedSource::schedule() const {
  std::vector<beacon::BeaconEvent> events;
  for (std::size_t i = 0; i < config_.beacon_prefixes; ++i) {
    const netbase::Prefix prefix = tap_beacon_prefix(i);
    for (netbase::TimePoint t = kTapStart; t < config_.duration;
         t += config_.beacon_period) {
      events.push_back({prefix, t, t + config_.beacon_uptime, false});
    }
  }
  return events;
}

FeedSource::RunStats SimTapFeedSource::run(LiveService& service) {
  RunStats stats;
  const obs::Counter m_records = feed_records_counter();

  const topology::Topology topo = tap_topology();
  netbase::Rng rng(config_.seed);
  simnet::Simulation sim(topo, simnet::SimConfig{}, rng.fork());

  collector::Collector col("tap", 64999,
                           netbase::IpAddress::parse("198.51.100.1"));
  const netbase::Prefix beacon_covering = netbase::Prefix::parse("100.64.0.0/16");
  collector::SessionConfig clean;
  clean.peer_asn = kTapPeerClean;
  clean.peer_address = netbase::IpAddress::parse("192.0.2.30");
  col.add_peer(sim, clean, rng.fork());
  // The session that makes the demo interesting: it loses *every*
  // beacon withdrawal, so each cycle is a guaranteed zombie on this
  // peer until the next announcement supersedes it.
  collector::SessionConfig lossy;
  lossy.peer_asn = kTapPeerLossy;
  lossy.peer_address = netbase::IpAddress::parse("192.0.2.40");
  lossy.withdrawal_loss_probability = 1.0;
  lossy.noise_prefix_filter = beacon_covering;
  col.add_peer(sim, lossy, rng.fork());
  collector::SessionConfig flaky;
  flaky.peer_asn = kTapPeerFlaky;
  flaky.peer_address = netbase::IpAddress::parse("192.0.2.50");
  flaky.withdrawal_loss_probability = 0.5;
  flaky.noise_prefix_filter = beacon_covering;
  col.add_peer(sim, flaky, rng.fork());

  for (const beacon::BeaconEvent& event : schedule()) {
    sim.announce(event.announce_time, kTapOrigin, event.prefix);
    sim.withdraw(event.withdraw_time, kTapOrigin, event.prefix);
  }

  std::size_t next = 0;
  const auto drain = [&] {
    const std::vector<mrt::MrtRecord>& updates = col.updates();
    for (; next < updates.size(); ++next) {
      // Stamped per record at drain time — the moment the tap hands
      // the collector's update to the live pipeline.
      service.submit(
          FeedItem{updates[next], std::chrono::steady_clock::now()});
      ++stats.records;
      m_records.inc();
    }
  };

  if (config_.speed <= 0) {
    sim.run_until(config_.duration);
    drain();
    return stats;
  }

  const auto wall0 = std::chrono::steady_clock::now();
  while (!stop_.load(std::memory_order_relaxed)) {
    const double elapsed =
        std::chrono::duration<double>(std::chrono::steady_clock::now() - wall0)
            .count();
    const auto target = std::min<netbase::TimePoint>(
        config_.duration,
        static_cast<netbase::TimePoint>(elapsed * config_.speed));
    sim.run_until(target);
    drain();
    if (target >= config_.duration) break;
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
  }
  return stats;
}

// --- TcpNdjsonFeedSource ---------------------------------------------

TcpNdjsonFeedSource::TcpNdjsonFeedSource(std::uint16_t port) {
  listen_fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
  if (listen_fd_ < 0) throw std::runtime_error("zslive: socket() failed");
  const int one = 1;
  ::setsockopt(listen_fd_, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_ANY);
  addr.sin_port = htons(port);
  if (::bind(listen_fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) < 0 ||
      ::listen(listen_fd_, 8) < 0) {
    ::close(listen_fd_);
    listen_fd_ = -1;
    throw std::runtime_error("zslive: cannot bind NDJSON feed port " +
                             std::to_string(port));
  }
  socklen_t len = sizeof(addr);
  ::getsockname(listen_fd_, reinterpret_cast<sockaddr*>(&addr), &len);
  port_ = ntohs(addr.sin_port);
  ::fcntl(listen_fd_, F_SETFL, O_NONBLOCK);
}

TcpNdjsonFeedSource::~TcpNdjsonFeedSource() {
  if (listen_fd_ >= 0) ::close(listen_fd_);
}

FeedSource::RunStats TcpNdjsonFeedSource::run(LiveService& service) {
  RunStats stats;
  const obs::Counter m_records = feed_records_counter();
  const obs::Counter m_errors = feed_parse_errors_counter();

  struct Client {
    int fd = -1;
    std::string buffer;
  };
  std::vector<Client> clients;

  const auto consume = [&](Client& client, bool flush) {
    std::size_t start = 0;
    for (;;) {
      const std::size_t nl = client.buffer.find('\n', start);
      if (nl == std::string::npos) break;
      std::string_view line(client.buffer.data() + start, nl - start);
      if (!line.empty() && line.back() == '\r') line.remove_suffix(1);
      if (!line.empty()) {
        // Stamp before the parse: wire read → enqueue includes the
        // JSON decode cost in the ingest_enqueue stage.
        const auto ingest = std::chrono::steady_clock::now();
        if (auto record = parse_ris_live_line(line)) {
          service.submit(FeedItem{std::move(*record), ingest});
          ++stats.records;
          m_records.inc();
        } else {
          ++stats.parse_errors;
          m_errors.inc();
        }
      }
      start = nl + 1;
    }
    client.buffer.erase(0, start);
    if (flush && !client.buffer.empty()) {
      // A final unterminated line when the client hangs up.
      const auto ingest = std::chrono::steady_clock::now();
      if (auto record = parse_ris_live_line(client.buffer)) {
        service.submit(FeedItem{std::move(*record), ingest});
        ++stats.records;
        m_records.inc();
      } else {
        ++stats.parse_errors;
        m_errors.inc();
      }
      client.buffer.clear();
    }
  };

  while (!stop_.load(std::memory_order_relaxed)) {
    std::vector<pollfd> pfds;
    pfds.push_back({listen_fd_, POLLIN, 0});
    for (const Client& client : clients) {
      pfds.push_back({client.fd, POLLIN, 0});
    }
    const int ready = ::poll(pfds.data(), pfds.size(), 50);
    if (ready <= 0) continue;

    for (std::size_t i = 0; i < clients.size(); ++i) {
      if ((pfds[i + 1].revents & (POLLIN | POLLERR | POLLHUP)) == 0) continue;
      Client& client = clients[i];
      char buf[4096];
      for (;;) {
        const ssize_t n = ::recv(client.fd, buf, sizeof(buf), 0);
        if (n > 0) {
          client.buffer.append(buf, static_cast<std::size_t>(n));
          continue;
        }
        if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) break;
        consume(client, true);
        ::close(client.fd);
        client.fd = -1;
        break;
      }
      if (client.fd >= 0) consume(client, false);
    }
    std::erase_if(clients, [](const Client& client) { return client.fd < 0; });

    if ((pfds[0].revents & POLLIN) != 0) {
      for (;;) {
        const int fd = ::accept(listen_fd_, nullptr, nullptr);
        if (fd < 0) break;
        ::fcntl(fd, F_SETFL, O_NONBLOCK);
        clients.push_back({fd, {}});
      }
    }
  }
  for (Client& client : clients) {
    consume(client, true);
    ::close(client.fd);
  }
  return stats;
}

}  // namespace zombiescope::live
