#include "wire/speaker.hpp"

#include <arpa/inet.h>
#include <errno.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cstring>
#include <stdexcept>
#include <utility>

#include "netbase/json.hpp"
#include "obs/journal.hpp"
#include "obs/metrics.hpp"

namespace zombiescope::wire {

namespace {

netbase::TimePoint steady_seconds() {
  return std::chrono::duration_cast<std::chrono::seconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

netbase::TimePoint system_seconds() {
  return std::chrono::duration_cast<std::chrono::seconds>(
             std::chrono::system_clock::now().time_since_epoch())
      .count();
}

bgp::SessionState mrt_state(bgp::FsmState state) {
  switch (state) {
    case bgp::FsmState::kIdle:
      return bgp::SessionState::kIdle;
    case bgp::FsmState::kConnect:
      return bgp::SessionState::kConnect;
    case bgp::FsmState::kOpenSent:
      return bgp::SessionState::kOpenSent;
    case bgp::FsmState::kOpenConfirm:
      return bgp::SessionState::kOpenConfirm;
    case bgp::FsmState::kEstablished:
      return bgp::SessionState::kEstablished;
  }
  return bgp::SessionState::kIdle;
}

netbase::IpAddress peer_socket_address(int fd) {
  sockaddr_storage ss{};
  socklen_t len = sizeof(ss);
  if (::getpeername(fd, reinterpret_cast<sockaddr*>(&ss), &len) == 0) {
    if (ss.ss_family == AF_INET) {
      const auto* sin = reinterpret_cast<const sockaddr_in*>(&ss);
      return netbase::IpAddress::v4(ntohl(sin->sin_addr.s_addr));
    }
    if (ss.ss_family == AF_INET6) {
      const auto* sin6 = reinterpret_cast<const sockaddr_in6*>(&ss);
      std::array<std::uint8_t, 16> b{};
      std::memcpy(b.data(), sin6->sin6_addr.s6_addr, 16);
      return netbase::IpAddress::v6(b);
    }
  }
  return netbase::IpAddress::v4(0);
}

struct WireMetrics {
  obs::Counter msgs_in;
  obs::Counter msgs_out;
  obs::Counter updates_in;
  obs::Counter notify_in;
  obs::Counter notify_out;
  obs::Counter sessions_opened;
  obs::Counter sessions_closed;
  obs::Counter collisions;
  obs::Counter decode_errors;
  obs::Counter gr_retained_routes;
  obs::Counter gr_flushed_routes;
  obs::Gauge established;
  obs::Gauge stale_routes;

  static WireMetrics& get() {
    static WireMetrics m = [] {
      auto& r = obs::Registry::global();
      WireMetrics w;
      w.msgs_in = r.counter("zs_wire_messages_in_total");
      w.msgs_out = r.counter("zs_wire_messages_out_total");
      w.updates_in = r.counter("zs_wire_updates_in_total");
      w.notify_in = r.counter("zs_wire_notifications_in_total");
      w.notify_out = r.counter("zs_wire_notifications_out_total");
      w.sessions_opened = r.counter("zs_wire_sessions_opened_total");
      w.sessions_closed = r.counter("zs_wire_sessions_closed_total");
      w.collisions = r.counter("zs_wire_collisions_total");
      w.decode_errors = r.counter("zs_wire_decode_errors_total");
      w.gr_retained_routes = r.counter("zs_wire_gr_retained_routes_total");
      w.gr_flushed_routes = r.counter("zs_wire_gr_flushed_routes_total");
      w.established = r.gauge("zs_wire_sessions_established");
      w.stale_routes = r.gauge("zs_wire_stale_routes");
      return w;
    }();
    return m;
  }
};

void journal_session_event(obs::JournalEventType type, const SessionRef& ref,
                           std::int64_t a, std::int64_t b, std::int64_t c = 0) {
  auto& journal = obs::Journal::global();
  if (!journal.enabled(obs::kCatSession)) return;
  obs::JournalEvent event;
  event.type = type;
  event.time = system_seconds();
  event.has_peer = true;
  event.peer_asn = ref.peer_asn;
  event.peer_address = ref.peer_address;
  event.a = a;
  event.b = b;
  event.c = c;
  journal.emit(obs::kCatSession, event);
}

}  // namespace

// --- internal structs ------------------------------------------------

struct BgpSpeaker::Session {
  explicit Session(const bgp::FsmConfig& fsm_config,
                   const RetentionConfig& retention_config)
      : fsm(fsm_config), retention(retention_config) {}

  std::uint64_t id = 0;
  int fd = -1;
  bool passive = true;
  bool connecting = false;  // non-blocking connect still in flight
  std::size_t active_index = static_cast<std::size_t>(-1);
  bool dead = false;
  bool peer_notified = false;  // peer already got / sent a NOTIFICATION

  bgp::SessionFsm fsm;
  bgp::FsmState prev_state = bgp::FsmState::kIdle;
  bool was_established = false;

  FrameReader reader;
  std::vector<std::uint8_t> out;
  std::size_t out_off = 0;
  std::optional<netbase::TimePoint> send_hold_deadline;

  std::optional<OpenMessage> peer_open;
  netbase::IpAddress socket_address;
  netbase::IpAddress logical_address;
  bgp::Asn peer_asn = 0;
  bool bridged = false;

  StaleRetention retention;
  std::uint64_t messages_in = 0;
  std::uint64_t messages_out = 0;
  std::uint64_t updates_in = 0;
  std::uint64_t updates_out = 0;
  std::string last_event = "accepted";
};

struct BgpSpeaker::Ghost {
  SessionRef ref;
  StaleRetention retention;
};

struct BgpSpeaker::ActivePeer {
  std::string host;
  std::uint16_t port = 0;
  netbase::TimePoint next_attempt = 0;
  std::uint64_t session_id = 0;  // 0 = not dialed
  int seen_retries = 0;
};

// --- construction ----------------------------------------------------

BgpSpeaker::BgpSpeaker(SpeakerConfig config, bool listen, std::uint16_t port)
    : config_(config) {
  if (!listen) return;
  listen_fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
  if (listen_fd_ < 0) throw std::runtime_error("zswire: socket() failed");
  const int one = 1;
  ::setsockopt(listen_fd_, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_ANY);
  addr.sin_port = htons(port);
  if (::bind(listen_fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) < 0 ||
      ::listen(listen_fd_, 16) < 0) {
    ::close(listen_fd_);
    listen_fd_ = -1;
    throw std::runtime_error("zswire: cannot bind BGP port " +
                             std::to_string(port));
  }
  socklen_t len = sizeof(addr);
  ::getsockname(listen_fd_, reinterpret_cast<sockaddr*>(&addr), &len);
  port_ = ntohs(addr.sin_port);
  ::fcntl(listen_fd_, F_SETFL, O_NONBLOCK);
}

BgpSpeaker::~BgpSpeaker() {
  for (auto& session : sessions_) {
    if (session->fd >= 0) ::close(session->fd);
  }
  if (listen_fd_ >= 0) ::close(listen_fd_);
}

void BgpSpeaker::connect_to(const std::string& host, std::uint16_t port) {
  std::lock_guard<std::mutex> lock(active_mutex_);
  active_peers_.push_back(ActivePeer{host, port, 0, 0, 0});
}

netbase::TimePoint BgpSpeaker::wall_now() const { return steady_seconds(); }

SessionRef BgpSpeaker::ref_of(const Session& session) const {
  SessionRef ref;
  ref.id = session.id;
  ref.peer_asn = session.peer_asn;
  ref.peer_address = session.logical_address;
  ref.bridged = session.bridged;
  return ref;
}

std::vector<std::uint8_t> BgpSpeaker::encode_local_open() const {
  OpenMessage open;
  open.asn = config_.local_asn;
  open.hold_time = static_cast<std::uint16_t>(
      std::clamp<netbase::Duration>(config_.hold_time, 0, 0xffff));
  open.bgp_id = config_.bgp_id;
  open.cap_four_octet_asn = true;
  open.cap_route_refresh = config_.advertise_route_refresh;
  open.multiprotocol = {{1, 1}, {2, 1}};  // IPv4 + IPv6 unicast
  if (config_.retention.gr_enabled) {
    GracefulRestart gr;
    gr.restart_time = static_cast<std::uint16_t>(
        std::clamp<netbase::Duration>(config_.advertised_restart_time, 0, 0xfff));
    gr.tuples = {{1, 1, true}, {2, 1, true}};
    open.graceful_restart = std::move(gr);
    if (config_.retention.llgr_enabled &&
        config_.advertised_llgr_stale_time > 0) {
      LongLivedGracefulRestart llgr;
      const auto stale = static_cast<std::uint32_t>(std::clamp<netbase::Duration>(
          config_.advertised_llgr_stale_time, 0, 0xffffff));
      llgr.tuples = {{1, 1, stale}, {2, 1, stale}};
      open.llgr = std::move(llgr);
    }
  }
  return open.encode();
}

// --- the poll loop ---------------------------------------------------

void BgpSpeaker::run() {
  while (!stop_.load(std::memory_order_relaxed)) poll_once(50);
  // Graceful exit: tell every peer we are going away.
  const netbase::TimePoint now = wall_now();
  for (auto& session : sessions_) {
    if (session->fd < 0 || session->dead) continue;
    send_notification(*session, NotifyCode::kCease, kCeaseAdminShutdown, now);
    teardown(*session, "administrative stop", now);
  }
  std::erase_if(sessions_, [](const auto& s) { return s->dead; });
  rebuild_snapshot();
}

void BgpSpeaker::dial_due_peers(netbase::TimePoint now) {
  std::lock_guard<std::mutex> lock(active_mutex_);
  for (std::size_t i = 0; i < active_peers_.size(); ++i) {
    ActivePeer& peer = active_peers_[i];
    if (peer.session_id != 0 || now < peer.next_attempt) continue;
    const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
    if (fd < 0) {
      peer.next_attempt = now + std::max<netbase::Duration>(config_.connect_retry, 1);
      continue;
    }
    ::fcntl(fd, F_SETFL, O_NONBLOCK);
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(peer.port);
    if (::inet_pton(AF_INET, peer.host.c_str(), &addr.sin_addr) != 1) {
      ::close(fd);
      peer.next_attempt = now + std::max<netbase::Duration>(config_.connect_retry, 1);
      continue;
    }
    const int rc = ::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr));
    if (rc < 0 && errno != EINPROGRESS) {
      ::close(fd);
      peer.next_attempt = now + std::max<netbase::Duration>(config_.connect_retry, 1);
      continue;
    }
    bgp::FsmConfig fsm_config;
    fsm_config.hold_time = config_.hold_time;
    fsm_config.keepalive_interval = config_.keepalive_interval;
    fsm_config.send_hold_time = config_.send_hold_time;
    fsm_config.connect_retry = config_.connect_retry;
    auto session = std::make_unique<Session>(fsm_config, config_.retention);
    session->id = next_session_id_++;
    session->fd = fd;
    session->passive = false;
    session->connecting = rc < 0;  // EINPROGRESS
    session->active_index = i;
    session->last_event = "dialing " + peer.host + ":" + std::to_string(peer.port);
    session->fsm.start(now);
    if (!session->connecting) {
      session->socket_address = peer_socket_address(fd);
      session->logical_address = session->socket_address;
      session->fsm.connected(now);
    }
    peer.session_id = session->id;
    peer.seen_retries = 0;
    WireMetrics::get().sessions_opened.inc();
    sessions_.push_back(std::move(session));
  }
}

void BgpSpeaker::poll_once(int timeout_ms) {
  const netbase::TimePoint now = wall_now();
  dial_due_peers(now);

  std::vector<pollfd> pfds;
  pfds.reserve(sessions_.size() + 1);
  const bool have_listener = listen_fd_ >= 0;
  if (have_listener) pfds.push_back({listen_fd_, POLLIN, 0});
  for (const auto& session : sessions_) {
    short events = 0;
    if (session->connecting) {
      events = POLLOUT;
    } else {
      events = POLLIN;
      if (session->out_off < session->out.size()) events |= POLLOUT;
    }
    pfds.push_back({session->fd, events, 0});
  }
  ::poll(pfds.data(), pfds.size(), timeout_ms);

  const std::size_t base = have_listener ? 1 : 0;
  for (std::size_t i = 0; i < sessions_.size(); ++i) {
    Session& session = *sessions_[i];
    const short revents = pfds[base + i].revents;
    if (session.dead) continue;
    if (session.connecting) {
      if ((revents & (POLLOUT | POLLERR | POLLHUP)) == 0) continue;
      int err = 0;
      socklen_t err_len = sizeof(err);
      ::getsockopt(session.fd, SOL_SOCKET, SO_ERROR, &err, &err_len);
      if (err != 0 || (revents & (POLLERR | POLLHUP)) != 0) {
        teardown(session, "connect failed", now);
        continue;
      }
      session.connecting = false;
      session.socket_address = peer_socket_address(session.fd);
      session.logical_address = session.socket_address;
      session.fsm.connected(now);
      session.last_event = "connected";
      continue;
    }
    if ((revents & (POLLIN | POLLERR | POLLHUP)) != 0)
      handle_readable(session, now);
  }

  if (have_listener && (pfds[0].revents & POLLIN) != 0) {
    for (;;) {
      const int fd = ::accept(listen_fd_, nullptr, nullptr);
      if (fd < 0) break;
      ::fcntl(fd, F_SETFL, O_NONBLOCK);
      const int one = 1;
      ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
      bgp::FsmConfig fsm_config;
      fsm_config.hold_time = config_.hold_time;
      fsm_config.keepalive_interval = config_.keepalive_interval;
      fsm_config.send_hold_time = config_.send_hold_time;
      auto session = std::make_unique<Session>(fsm_config, config_.retention);
      session->id = next_session_id_++;
      session->fd = fd;
      session->passive = true;
      session->socket_address = peer_socket_address(fd);
      session->logical_address = session->socket_address;
      session->fsm.start(now);
      session->fsm.connected(now);
      WireMetrics::get().sessions_opened.inc();
      sessions_.push_back(std::move(session));
    }
  }

  // Timers, then outbound bytes for everyone.
  for (auto& sp : sessions_) {
    Session& session = *sp;
    if (session.dead) continue;
    const bgp::FsmState before = session.fsm.state();
    session.fsm.tick(now);
    if (session.fsm.state() != before) sync_fsm_state(session, now);
    if (session.dead) continue;
    // Active dial attempts that outlived the ConnectRetry timer are
    // abandoned and re-dialed by dial_due_peers next round.
    if (session.connecting &&
        session.fsm.connect_retries() > 0) {
      teardown(session, "connect retry", now);
      continue;
    }
    pump_fsm_out(session, now);
    flush_socket(session, now);
    // Socket-level RFC 9687: the peer accepted none of our bytes for
    // send_hold_time.
    if (session.send_hold_deadline.has_value() &&
        now >= *session.send_hold_deadline) {
      send_notification(session, NotifyCode::kSendHoldTimerExpired, 0, now);
      teardown(session, "send hold timer expired (RFC 9687)", now);
    }
  }

  tick_ghosts(now);
  std::erase_if(sessions_, [](const auto& s) { return s->dead; });
  rebuild_snapshot();
}

void BgpSpeaker::handle_readable(Session& session, netbase::TimePoint now) {
  char buf[65536];
  bool closed = false;
  for (;;) {
    const ssize_t n = ::recv(session.fd, buf, sizeof(buf), 0);
    if (n > 0) {
      session.reader.append(reinterpret_cast<const std::uint8_t*>(buf),
                            static_cast<std::size_t>(n));
      continue;
    }
    if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) break;
    closed = true;
    break;
  }
  try {
    while (auto frame = session.reader.next()) {
      const auto ingest = std::chrono::steady_clock::now();
      handle_frame(session, std::move(*frame), now, ingest);
      if (session.dead) return;
    }
  } catch (const WireError& e) {
    WireMetrics::get().decode_errors.inc();
    send_notification(session, e.code(), e.subcode(), now);
    teardown(session, std::string("decode error: ") + e.what(), now);
    return;
  } catch (const netbase::DecodeError& e) {
    WireMetrics::get().decode_errors.inc();
    send_notification(session, NotifyCode::kMessageHeaderError, 0, now);
    teardown(session, std::string("decode error: ") + e.what(), now);
    return;
  }
  if (closed) teardown(session, "connection closed by peer", now);
}

void BgpSpeaker::handle_frame(Session& session, std::vector<std::uint8_t> frame,
                              netbase::TimePoint now,
                              std::chrono::steady_clock::time_point ingest) {
  ++session.messages_in;
  WireMetrics::get().msgs_in.inc();
  const MessageHeader header = decode_header(frame);
  const bgp::FsmState before = session.fsm.state();
  switch (header.type) {
    case bgp::MessageType::kOpen: {
      OpenMessage open = OpenMessage::decode(frame);
      handle_open(session, std::move(open), now);
      break;
    }
    case bgp::MessageType::kKeepalive:
      session.fsm.receive(now, bgp::FsmMessage{bgp::MessageType::kKeepalive,
                                               std::nullopt, std::nullopt});
      break;
    case bgp::MessageType::kUpdate: {
      bgp::UpdateMessage update = decode_update(frame);
      ++session.updates_in;
      WireMetrics::get().updates_in.inc();
      session.fsm.receive(now, bgp::FsmMessage{bgp::MessageType::kUpdate,
                                               std::nullopt, std::nullopt});
      // End-of-RIB (RFC 4724 §2): the empty UPDATE. After a GR
      // reconnect it sweeps every route the peer did not refresh.
      const bool end_of_rib = update.withdrawn.empty() && update.announced.empty() &&
                              update.attributes == bgp::PathAttributes{};
      if (end_of_rib) {
        auto flushed = session.retention.end_of_rib();
        if (!flushed.empty()) {
          WireMetrics::get().gr_flushed_routes.inc(flushed.size());
          journal_session_event(obs::JournalEventType::kWireGrFlushed,
                                ref_of(session),
                                static_cast<std::int64_t>(flushed.size()),
                                static_cast<std::int64_t>(FlushReason::kEndOfRib));
          session.last_event = "end-of-rib swept " +
                               std::to_string(flushed.size()) + " stale";
          if (on_flush_)
            on_flush_(ref_of(session), std::move(flushed), FlushReason::kEndOfRib);
        }
        break;
      }
      for (const auto& prefix : update.announced)
        session.retention.route_announced(prefix);
      for (const auto& prefix : update.withdrawn)
        session.retention.route_withdrawn(prefix);
      if (on_update_) on_update_(ref_of(session), std::move(update), ingest);
      break;
    }
    case bgp::MessageType::kNotification: {
      const NotificationMessage notification = NotificationMessage::decode(frame);
      WireMetrics::get().notify_in.inc();
      session.peer_notified = true;
      session.last_event = "NOTIFICATION received: " + notification.to_string();
      journal_session_event(obs::JournalEventType::kWireNotifyReceived,
                            ref_of(session),
                            static_cast<std::int64_t>(notification.code),
                            notification.subcode);
      session.fsm.receive(now, bgp::FsmMessage{bgp::MessageType::kNotification,
                                               std::nullopt, std::nullopt});
      break;
    }
  }
  if (!session.dead && session.fsm.state() != before) sync_fsm_state(session, now);
}

void BgpSpeaker::handle_open(Session& session, OpenMessage open,
                             netbase::TimePoint now) {
  session.peer_asn = open.asn;
  session.bridged = open.bridge_peer_address.has_value();
  session.logical_address = session.bridged ? *open.bridge_peer_address
                                            : session.socket_address;
  // Learn the peer's retention windows from its GR/LLGR capabilities.
  netbase::Duration restart_time = 0;
  netbase::Duration llgr_stale = 0;
  if (open.graceful_restart.has_value())
    restart_time = open.graceful_restart->restart_time;
  if (open.llgr.has_value()) {
    for (const LlgrTuple& t : open.llgr->tuples)
      llgr_stale = std::max<netbase::Duration>(llgr_stale, t.stale_time);
  }
  session.retention.set_peer_times(restart_time, llgr_stale);

  // §6.8 collision resolution: a second connection to a peer we are
  // already opening with. The connection initiated by the higher BGP
  // Identifier survives; the other gets Cease/Collision Resolution.
  for (auto& other_ptr : sessions_) {
    Session& other = *other_ptr;
    if (other.id == session.id || other.dead) continue;
    if (!other.peer_open.has_value() && other.passive) continue;
    const bool other_openish = other.fsm.state() == bgp::FsmState::kOpenSent ||
                               other.fsm.state() == bgp::FsmState::kOpenConfirm;
    if (!other_openish) continue;
    const bool same_peer =
        (other.peer_open.has_value() && other.peer_open->bgp_id == open.bgp_id) ||
        (!other.passive && other.socket_address == session.socket_address);
    if (!same_peer) continue;
    WireMetrics::get().collisions.inc();
    // Evaluate for the locally-initiated connection of the pair.
    Session& local_conn = session.passive ? other : session;
    Session& remote_conn = session.passive ? session : other;
    const bool close_ours = bgp::SessionFsm::collision_close_local(
        config_.bgp_id, open.bgp_id, /*local_initiated=*/true);
    Session& loser = close_ours ? local_conn : remote_conn;
    journal_session_event(obs::JournalEventType::kWireCollision, ref_of(session),
                          close_ours ? 0 : 1, static_cast<std::int64_t>(loser.id));
    send_notification(loser, NotifyCode::kCease, kCeaseConnectionCollision, now);
    teardown(loser, "connection collision resolved", now);
    if (loser.id == session.id) return;
    break;
  }

  session.peer_open = std::move(open);
  bgp::FsmOpen fsm_open;
  fsm_open.hold_time = session.peer_open->hold_time;
  fsm_open.bgp_id = session.peer_open->bgp_id;
  fsm_open.asn = session.peer_open->asn;
  session.fsm.receive(now, bgp::FsmMessage{bgp::MessageType::kOpen, std::nullopt,
                                           fsm_open});
  session.last_event = "OPEN from AS" + std::to_string(session.peer_asn);
}

void BgpSpeaker::sync_fsm_state(Session& session, netbase::TimePoint now) {
  const bgp::FsmState old_state = session.prev_state;
  const bgp::FsmState new_state = session.fsm.state();
  if (old_state == new_state) return;
  session.prev_state = new_state;
  journal_session_event(obs::JournalEventType::kWireSessionState, ref_of(session),
                        static_cast<std::int64_t>(old_state),
                        static_cast<std::int64_t>(new_state));
  if (new_state == bgp::FsmState::kEstablished) {
    session.was_established = true;
    session.last_event = "established";
    // A GR peer returning: its ghost's stale routes come home to this
    // session, awaiting re-announcement or the End-of-RIB sweep.
    adopt_or_create_retention(session);
    if (on_state_)
      on_state_(ref_of(session), mrt_state(old_state), mrt_state(new_state),
                false);
    return;
  }
  if (old_state == bgp::FsmState::kEstablished &&
      new_state == bgp::FsmState::kIdle) {
    // The FSM decided the drop (hold timer, send-hold, NOTIFICATION);
    // close the transport to match.
    teardown(session, session.fsm.last_error(), now);
  }
}

void BgpSpeaker::adopt_or_create_retention(Session& session) {
  for (std::size_t i = 0; i < ghosts_.size(); ++i) {
    Ghost& ghost = ghosts_[i];
    if (ghost.ref.peer_asn != session.peer_asn ||
        !(ghost.ref.peer_address == session.logical_address))
      continue;
    WireMetrics::get().stale_routes.add(
        -static_cast<std::int64_t>(session.retention.stale_count()));
    session.retention = std::move(ghost.retention);
    session.retention.session_up(wall_now());
    session.last_event = "GR reconnect: " +
                         std::to_string(session.retention.stale_count()) +
                         " stale await re-sync";
    ghosts_.erase(ghosts_.begin() + static_cast<std::ptrdiff_t>(i));
    return;
  }
}

void BgpSpeaker::pump_fsm_out(Session& session, netbase::TimePoint now) {
  for (bgp::FsmMessage& message : session.fsm.drain(now, 64)) {
    switch (message.type) {
      case bgp::MessageType::kOpen: {
        const auto wire = encode_local_open();
        session.out.insert(session.out.end(), wire.begin(), wire.end());
        break;
      }
      case bgp::MessageType::kKeepalive: {
        const auto wire = encode_keepalive();
        session.out.insert(session.out.end(), wire.begin(), wire.end());
        break;
      }
      case bgp::MessageType::kUpdate: {
        if (!message.update.has_value()) break;
        const auto wire = encode_update(*message.update);
        session.out.insert(session.out.end(), wire.begin(), wire.end());
        ++session.updates_out;
        break;
      }
      case bgp::MessageType::kNotification:
        break;  // NOTIFICATIONs are sent via send_notification()
    }
    ++session.messages_out;
    WireMetrics::get().msgs_out.inc();
  }
  if (session.out_off < session.out.size() &&
      config_.send_hold_time > 0 && !session.send_hold_deadline.has_value())
    session.send_hold_deadline = now + config_.send_hold_time;
}

void BgpSpeaker::flush_socket(Session& session, netbase::TimePoint now) {
  if (session.fd < 0) return;
  bool progress = false;
  while (session.out_off < session.out.size()) {
    const ssize_t n = ::send(session.fd, session.out.data() + session.out_off,
                             session.out.size() - session.out_off, MSG_NOSIGNAL);
    if (n > 0) {
      session.out_off += static_cast<std::size_t>(n);
      progress = true;
      continue;
    }
    if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) break;
    if (n < 0 && errno == EINTR) continue;
    teardown(session, "send failed", now);
    return;
  }
  if (session.out_off >= session.out.size()) {
    session.out.clear();
    session.out_off = 0;
    session.send_hold_deadline.reset();
  } else if (progress && config_.send_hold_time > 0) {
    // RFC 9687: any accepted byte restarts the send-hold window.
    session.send_hold_deadline = now + config_.send_hold_time;
  }
}

void BgpSpeaker::send_notification(Session& session, NotifyCode code,
                                   std::uint8_t subcode, netbase::TimePoint now) {
  if (session.fd < 0 || session.peer_notified) return;
  NotificationMessage notification;
  notification.code = code;
  notification.subcode = subcode;
  const auto wire = notification.encode();
  session.out.insert(session.out.end(), wire.begin(), wire.end());
  flush_socket(session, now);  // best effort; a wedged peer gets nothing
  WireMetrics::get().notify_out.inc();
  session.last_event = "NOTIFICATION sent: " + notification.to_string();
  journal_session_event(obs::JournalEventType::kWireNotifySent, ref_of(session),
                        static_cast<std::int64_t>(code), subcode);
}

void BgpSpeaker::teardown(Session& session, const std::string& reason,
                          netbase::TimePoint now) {
  if (session.dead) return;
  session.dead = true;
  if (session.fd >= 0) {
    ::close(session.fd);
    session.fd = -1;
  }
  WireMetrics::get().sessions_closed.inc();
  session.last_event = reason;
  // Free the active-peer slot for a re-dial.
  if (session.active_index != static_cast<std::size_t>(-1)) {
    std::lock_guard<std::mutex> lock(active_mutex_);
    if (session.active_index < active_peers_.size() &&
        active_peers_[session.active_index].session_id == session.id) {
      active_peers_[session.active_index].session_id = 0;
      active_peers_[session.active_index].next_attempt =
          now + std::max<netbase::Duration>(config_.connect_retry, 1);
    }
  }
  if (!session.was_established) return;
  session.was_established = false;

  const SessionRef ref = ref_of(session);
  const bool retained = session.retention.session_down(now);
  if (retained) {
    WireMetrics::get().gr_retained_routes.inc(session.retention.stale_count());
    WireMetrics::get().stale_routes.add(
        static_cast<std::int64_t>(session.retention.stale_count()));
    journal_session_event(
        obs::JournalEventType::kWireGrRetained, ref,
        static_cast<std::int64_t>(session.retention.stale_count()),
        session.retention.deadline());
    ghosts_.push_back(Ghost{ref, std::move(session.retention)});
  }
  journal_session_event(obs::JournalEventType::kWireSessionState, ref,
                        static_cast<std::int64_t>(bgp::FsmState::kEstablished),
                        static_cast<std::int64_t>(bgp::FsmState::kIdle));
  if (on_state_)
    on_state_(ref, bgp::SessionState::kEstablished, bgp::SessionState::kIdle,
              retained);
}

void BgpSpeaker::tick_ghosts(netbase::TimePoint now) {
  for (auto it = ghosts_.begin(); it != ghosts_.end();) {
    auto flushed = it->retention.tick(now);
    if (flushed.empty()) {
      ++it;
      continue;
    }
    WireMetrics::get().gr_flushed_routes.inc(flushed.size());
    WireMetrics::get().stale_routes.add(-static_cast<std::int64_t>(flushed.size()));
    const FlushReason reason = it->retention.last_flush_reason();
    journal_session_event(obs::JournalEventType::kWireGrFlushed, it->ref,
                          static_cast<std::int64_t>(flushed.size()),
                          static_cast<std::int64_t>(reason));
    if (on_flush_) on_flush_(it->ref, std::move(flushed), reason);
    it = ghosts_.erase(it);
  }
}

// --- snapshots -------------------------------------------------------

void BgpSpeaker::rebuild_snapshot() {
  std::vector<SessionSnapshot> rows;
  rows.reserve(sessions_.size() + ghosts_.size());
  std::size_t established = 0;
  for (const auto& sp : sessions_) {
    const Session& session = *sp;
    SessionSnapshot row;
    row.id = session.id;
    row.passive = session.passive;
    row.bridged = session.bridged;
    row.state = bgp::to_string(session.fsm.state());
    if (session.fsm.state() == bgp::FsmState::kEstablished) ++established;
    row.peer_asn = session.peer_asn;
    row.peer_address = session.logical_address.to_string();
    row.peer_bgp_id = session.peer_open.has_value() ? session.peer_open->bgp_id : 0;
    row.negotiated_hold = session.fsm.negotiated_hold_time();
    row.gr = session.peer_open.has_value() &&
             session.peer_open->graceful_restart.has_value();
    row.llgr = session.peer_open.has_value() && session.peer_open->llgr.has_value();
    row.messages_in = session.messages_in;
    row.messages_out = session.messages_out;
    row.updates_in = session.updates_in;
    row.updates_out = session.updates_out;
    row.routes = session.retention.routes();
    row.stale_routes = session.retention.stale_count();
    row.last_event = session.last_event;
    rows.push_back(std::move(row));
  }
  for (const Ghost& ghost : ghosts_) {
    SessionSnapshot row;
    row.id = ghost.ref.id;
    row.bridged = ghost.ref.bridged;
    row.state = "GrStale";
    row.peer_asn = ghost.ref.peer_asn;
    row.peer_address = ghost.ref.peer_address.to_string();
    row.routes = ghost.retention.routes();
    row.stale_routes = ghost.retention.stale_count();
    row.last_event = "GR retention until t+" +
                     std::to_string(ghost.retention.deadline());
    rows.push_back(std::move(row));
  }
  std::lock_guard<std::mutex> lock(snap_mutex_);
  snap_ = std::move(rows);
  snap_established_ = established;
}

std::vector<SessionSnapshot> BgpSpeaker::snapshot() const {
  std::lock_guard<std::mutex> lock(snap_mutex_);
  return snap_;
}

std::size_t BgpSpeaker::established_count() const {
  std::lock_guard<std::mutex> lock(snap_mutex_);
  return snap_established_;
}

std::string BgpSpeaker::sessions_json() const {
  const auto rows = snapshot();
  std::size_t established = 0;
  std::size_t stale = 0;
  for (const auto& row : rows) {
    if (row.state == "Established") ++established;
    stale += row.stale_routes;
  }
  std::string out = "{\"local_asn\":" + std::to_string(config_.local_asn) +
                    ",\"established\":" + std::to_string(established) +
                    ",\"stale_routes\":" + std::to_string(stale) +
                    ",\"sessions\":[";
  bool first = true;
  for (const auto& row : rows) {
    if (!first) out += ',';
    first = false;
    out += "{\"id\":" + std::to_string(row.id);
    out += ",\"role\":\"";
    out += row.state == "GrStale" ? "ghost" : (row.passive ? "passive" : "active");
    out += "\",\"bridged\":";
    out += row.bridged ? "true" : "false";
    out += ",\"state\":\"";
    netbase::append_json_escaped(out, row.state);
    out += "\",\"asn\":" + std::to_string(row.peer_asn);
    out += ",\"address\":\"";
    netbase::append_json_escaped(out, row.peer_address);
    out += "\",\"hold\":" + std::to_string(row.negotiated_hold);
    out += ",\"gr\":";
    out += row.gr ? "true" : "false";
    out += ",\"llgr\":";
    out += row.llgr ? "true" : "false";
    out += ",\"messages_in\":" + std::to_string(row.messages_in);
    out += ",\"messages_out\":" + std::to_string(row.messages_out);
    out += ",\"updates_in\":" + std::to_string(row.updates_in);
    out += ",\"routes\":" + std::to_string(row.routes);
    out += ",\"stale\":" + std::to_string(row.stale_routes);
    out += ",\"last_event\":\"";
    netbase::append_json_escaped(out, row.last_event);
    out += "\"}";
  }
  out += "]}";
  return out;
}

}  // namespace zombiescope::wire
