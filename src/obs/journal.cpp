#include "obs/journal.hpp"

#include <cstdio>
#include <cstdlib>
#include <iostream>
#include <stdexcept>

#include "netbase/bytes.hpp"

namespace zombiescope::obs {

namespace {

struct CategoryName {
  std::uint32_t bit;
  std::string_view name;
};

constexpr CategoryName kCategoryNames[] = {
    {kCatRun, "run"},           {kCatState, "state"},
    {kCatDetector, "detector"}, {kCatNoise, "noise"},
    {kCatLifespan, "lifespan"}, {kCatCollector, "collector"},
    {kCatFault, "fault"},       {kCatPropagation, "propagation"},
    {kCatLive, "live"},     {kCatAlert, "alert"},
    {kCatPeer, "peer"},     {kCatSession, "session"},
};

}  // namespace

std::string_view category_name(std::uint32_t category) {
  for (const auto& entry : kCategoryNames) {
    if (entry.bit == category) return entry.name;
  }
  return {};
}

std::optional<std::uint32_t> parse_categories(std::string_view text) {
  std::uint32_t mask = 0;
  while (!text.empty()) {
    const std::size_t comma = text.find(',');
    const std::string_view token = text.substr(0, comma);
    text = comma == std::string_view::npos ? std::string_view{}
                                           : text.substr(comma + 1);
    if (token.empty()) continue;
    if (token == "all") {
      mask |= kCatAll;
      continue;
    }
    bool found = false;
    for (const auto& entry : kCategoryNames) {
      if (entry.name == token) {
        mask |= entry.bit;
        found = true;
        break;
      }
    }
    if (!found) return std::nullopt;
  }
  return mask;
}

namespace {

struct EventTypeName {
  JournalEventType type;
  std::string_view name;
  std::uint32_t category;
};

constexpr EventTypeName kEventTypeNames[] = {
    {JournalEventType::kRunMeta, "run_meta", kCatRun},
    {JournalEventType::kAnnounceSeen, "announce_seen", kCatState},
    {JournalEventType::kWithdrawSeen, "withdraw_seen", kCatState},
    {JournalEventType::kSessionFlush, "session_flush", kCatState},
    {JournalEventType::kThresholdCrossed, "threshold_crossed", kCatDetector},
    {JournalEventType::kZombieDeclared, "zombie_declared", kCatDetector},
    {JournalEventType::kZombieCleared, "zombie_cleared", kCatDetector},
    {JournalEventType::kDuplicateSuppressed, "duplicate_suppressed", kCatDetector},
    {JournalEventType::kNoisyPeerExcluded, "noisy_peer_excluded", kCatNoise},
    {JournalEventType::kWithdrawalLost, "withdrawal_lost", kCatNoise},
    {JournalEventType::kWithdrawalDelayed, "withdrawal_delayed", kCatNoise},
    {JournalEventType::kPhantomReannounce, "phantom_reannounce", kCatNoise},
    {JournalEventType::kResurrectionDetected, "resurrection_detected", kCatLifespan},
    {JournalEventType::kLifespanClosed, "lifespan_closed", kCatLifespan},
    {JournalEventType::kCollectorSessionDown, "collector_session_down", kCatCollector},
    {JournalEventType::kCollectorSessionUp, "collector_session_up", kCatCollector},
    {JournalEventType::kFaultWithdrawalSuppressed, "fault_withdrawal_suppressed", kCatFault},
    {JournalEventType::kFaultReceiveStall, "fault_receive_stall", kCatFault},
    {JournalEventType::kSimSessionDown, "sim_session_down", kCatFault},
    {JournalEventType::kSimSessionUp, "sim_session_up", kCatFault},
    {JournalEventType::kPrefixEvicted, "prefix_evicted", kCatFault},
    {JournalEventType::kPropagationHop, "propagation_hop", kCatPropagation},
    {JournalEventType::kLiveZombieEmerged, "live_zombie_emerged", kCatLive},
    {JournalEventType::kLiveZombieResurrected, "live_zombie_resurrected", kCatLive},
    {JournalEventType::kLiveZombieDied, "live_zombie_died", kCatLive},
    {JournalEventType::kLiveIngestDropped, "live_ingest_dropped", kCatLive},
    {JournalEventType::kLiveClientEvicted, "live_client_evicted", kCatLive},
    {JournalEventType::kAlertFiring, "alert_firing", kCatAlert},
    {JournalEventType::kAlertResolved, "alert_resolved", kCatAlert},
    {JournalEventType::kPeerNoisyEnter, "peer_noisy_enter", kCatPeer},
    {JournalEventType::kPeerNoisyExit, "peer_noisy_exit", kCatPeer},
    {JournalEventType::kPeerSilent, "peer_silent", kCatPeer},
    {JournalEventType::kWireSessionState, "wire_session_state", kCatSession},
    {JournalEventType::kWireNotifySent, "wire_notify_sent", kCatSession},
    {JournalEventType::kWireNotifyReceived, "wire_notify_received", kCatSession},
    {JournalEventType::kWireGrRetained, "wire_gr_retained", kCatSession},
    {JournalEventType::kWireGrFlushed, "wire_gr_flushed", kCatSession},
    {JournalEventType::kWireCollision, "wire_collision", kCatSession},
};

}  // namespace

std::string_view to_string(JournalEventType type) {
  for (const auto& entry : kEventTypeNames) {
    if (entry.type == type) return entry.name;
  }
  return "unknown";
}

std::optional<JournalEventType> parse_event_type(std::string_view name) {
  for (const auto& entry : kEventTypeNames) {
    if (entry.name == name) return entry.type;
  }
  return std::nullopt;
}

std::uint32_t category_of(JournalEventType type) {
  for (const auto& entry : kEventTypeNames) {
    if (entry.type == type) return entry.category;
  }
  return 0;
}

// ---------------------------------------------------------------------------
// NDJSON codec.

std::string to_ndjson(const JournalEvent& event) {
  std::string out;
  out.reserve(128);
  out += "{\"ev\":\"";
  out += to_string(event.type);
  out += "\",\"t\":";
  out += std::to_string(event.time);
  if (event.has_prefix) {
    out += ",\"prefix\":\"";
    out += event.prefix.to_string();
    out += '"';
  }
  if (event.has_peer) {
    out += ",\"peer_asn\":";
    out += std::to_string(event.peer_asn);
    out += ",\"peer\":\"";
    out += event.peer_address.to_string();
    out += '"';
  }
  out += ",\"a\":";
  out += std::to_string(event.a);
  out += ",\"b\":";
  out += std::to_string(event.b);
  out += ",\"c\":";
  out += std::to_string(event.c);
  out += '}';
  return out;
}

namespace {

// The journal controls its own serialization, so field extraction can
// scan for `"key":` directly: no journal value ever contains a quote,
// which is the only character that could fool the scan.
std::optional<std::string_view> json_field(std::string_view line,
                                           std::string_view key) {
  std::string pattern;
  pattern.reserve(key.size() + 3);
  pattern += '"';
  pattern += key;
  pattern += "\":";
  const std::size_t at = line.find(pattern);
  if (at == std::string_view::npos) return std::nullopt;
  std::string_view rest = line.substr(at + pattern.size());
  if (rest.empty()) return std::nullopt;
  if (rest.front() == '"') {
    rest.remove_prefix(1);
    const std::size_t end = rest.find('"');
    if (end == std::string_view::npos) return std::nullopt;
    return rest.substr(0, end);
  }
  std::size_t end = 0;
  while (end < rest.size() && rest[end] != ',' && rest[end] != '}') ++end;
  return rest.substr(0, end);
}

std::optional<std::int64_t> json_int(std::string_view line,
                                     std::string_view key) {
  const auto field = json_field(line, key);
  if (!field.has_value() || field->empty()) return std::nullopt;
  const std::string text(*field);
  char* end = nullptr;
  const long long value = std::strtoll(text.c_str(), &end, 10);
  if (end != text.c_str() + text.size()) return std::nullopt;
  return static_cast<std::int64_t>(value);
}

}  // namespace

std::optional<JournalEvent> parse_ndjson(std::string_view line) {
  const auto name = json_field(line, "ev");
  if (!name.has_value()) return std::nullopt;
  const auto type = parse_event_type(*name);
  if (!type.has_value()) return std::nullopt;

  JournalEvent event;
  event.type = *type;
  const auto time = json_int(line, "t");
  if (!time.has_value()) return std::nullopt;
  event.time = *time;

  if (const auto prefix = json_field(line, "prefix"); prefix.has_value()) {
    const auto parsed = netbase::Prefix::try_parse(*prefix);
    if (!parsed.has_value()) return std::nullopt;
    event.has_prefix = true;
    event.prefix = *parsed;
  }
  if (const auto peer = json_field(line, "peer"); peer.has_value()) {
    const auto parsed = netbase::IpAddress::try_parse(*peer);
    if (!parsed.has_value()) return std::nullopt;
    event.has_peer = true;
    event.peer_address = *parsed;
    const auto asn = json_int(line, "peer_asn");
    if (!asn.has_value() || *asn < 0) return std::nullopt;
    event.peer_asn = static_cast<std::uint32_t>(*asn);
  }
  event.a = json_int(line, "a").value_or(0);
  event.b = json_int(line, "b").value_or(0);
  event.c = json_int(line, "c").value_or(0);
  return event;
}

// ---------------------------------------------------------------------------
// Binary codec: u32 record length, then a fixed 74-byte big-endian
// payload (type, time, flags, prefix, peer, a/b/c). The length prefix
// leaves room for future record growth without breaking old readers.

namespace {

constexpr std::uint8_t kFlagHasPrefix = 0x01;
constexpr std::uint8_t kFlagHasPeer = 0x02;

void append_address(netbase::ByteWriter& w, const netbase::IpAddress& address) {
  w.u8(static_cast<std::uint8_t>(address.family()));
  w.bytes(address.bytes());
}

netbase::IpAddress read_address(netbase::ByteReader& r) {
  const std::uint8_t family = r.u8();
  const auto raw = r.bytes(16);
  std::array<std::uint8_t, 16> bytes{};
  std::copy(raw.begin(), raw.end(), bytes.begin());
  if (family == 4) {
    return netbase::IpAddress::v4(
        std::array<std::uint8_t, 4>{bytes[0], bytes[1], bytes[2], bytes[3]});
  }
  if (family == 6) return netbase::IpAddress::v6(bytes);
  throw netbase::DecodeError("journal: bad address family " +
                             std::to_string(family));
}

JournalEvent decode_binary_payload(netbase::ByteReader& r) {
  JournalEvent event;
  event.type = static_cast<JournalEventType>(r.u16());
  event.time = static_cast<netbase::TimePoint>(r.u64());
  const std::uint8_t flags = r.u8();
  event.has_prefix = (flags & kFlagHasPrefix) != 0;
  event.has_peer = (flags & kFlagHasPeer) != 0;
  const netbase::IpAddress prefix_address = read_address(r);
  const int prefix_length = r.u8();
  if (event.has_prefix) event.prefix = netbase::Prefix(prefix_address, prefix_length);
  event.peer_asn = r.u32();
  const netbase::IpAddress peer_address = read_address(r);
  if (event.has_peer) event.peer_address = peer_address;
  event.a = static_cast<std::int64_t>(r.u64());
  event.b = static_cast<std::int64_t>(r.u64());
  event.c = static_cast<std::int64_t>(r.u64());
  return event;
}

}  // namespace

void append_binary(std::vector<std::uint8_t>& out, const JournalEvent& event) {
  netbase::ByteWriter w;
  w.u16(static_cast<std::uint16_t>(event.type));
  w.u64(static_cast<std::uint64_t>(event.time));
  std::uint8_t flags = 0;
  if (event.has_prefix) flags |= kFlagHasPrefix;
  if (event.has_peer) flags |= kFlagHasPeer;
  w.u8(flags);
  append_address(w, event.prefix.address());
  w.u8(static_cast<std::uint8_t>(event.prefix.length()));
  w.u32(event.peer_asn);
  append_address(w, event.peer_address);
  w.u64(static_cast<std::uint64_t>(event.a));
  w.u64(static_cast<std::uint64_t>(event.b));
  w.u64(static_cast<std::uint64_t>(event.c));

  netbase::ByteWriter framed;
  framed.u32(static_cast<std::uint32_t>(w.size()));
  framed.bytes(w.data());
  const auto& bytes = framed.data();
  out.insert(out.end(), bytes.begin(), bytes.end());
}

std::optional<JournalFormat> parse_journal_format(std::string_view text) {
  if (text == "ndjson" || text == "json") return JournalFormat::kNdjson;
  if (text == "bin" || text == "binary") return JournalFormat::kBinary;
  return std::nullopt;
}

// ---------------------------------------------------------------------------
// File I/O.

JournalWriter::JournalWriter(const std::string& path, JournalFormat format)
    : path_(path), format_(format) {
  out_.open(path, std::ios::binary | std::ios::trunc);
  if (!out_.is_open()) {
    throw std::runtime_error("journal: cannot open " + path + " for writing");
  }
  if (format_ == JournalFormat::kBinary) {
    out_.write(kJournalBinaryMagic.data(),
               static_cast<std::streamsize>(kJournalBinaryMagic.size()));
  }
}

void JournalWriter::write(const JournalEvent& event) {
  if (format_ == JournalFormat::kNdjson) {
    const std::string line = to_ndjson(event);
    out_.write(line.data(), static_cast<std::streamsize>(line.size()));
    out_.put('\n');
  } else {
    std::vector<std::uint8_t> buf;
    append_binary(buf, event);
    out_.write(reinterpret_cast<const char*>(buf.data()),
               static_cast<std::streamsize>(buf.size()));
  }
}

void JournalWriter::flush() { out_.flush(); }

std::vector<JournalEvent> read_journal_file(const std::string& path) {
  std::vector<std::uint8_t> raw;
  if (path == "-") {
    // Piped journals ("zsdetect ... | zsreport -"): slurp stdin. The
    // auto-detection below works unchanged since both formats are
    // identified from the leading bytes.
    raw.assign(std::istreambuf_iterator<char>(std::cin),
               std::istreambuf_iterator<char>());
  } else {
    std::ifstream in(path, std::ios::binary);
    if (!in.is_open()) {
      throw std::runtime_error("journal: cannot open " + path);
    }
    raw.assign(std::istreambuf_iterator<char>(in),
               std::istreambuf_iterator<char>());
  }

  std::vector<JournalEvent> events;
  const std::string_view magic = kJournalBinaryMagic;
  const bool binary =
      raw.size() >= magic.size() &&
      std::equal(magic.begin(), magic.end(), raw.begin(),
                 [](char m, std::uint8_t b) {
                   return static_cast<std::uint8_t>(m) == b;
                 });
  if (binary) {
    netbase::ByteReader r{std::span<const std::uint8_t>(raw)};
    r.bytes(magic.size());
    try {
      while (!r.done()) {
        const std::uint32_t length = r.u32();
        netbase::ByteReader payload = r.sub(length);
        events.push_back(decode_binary_payload(payload));
      }
    } catch (const netbase::DecodeError& e) {
      throw std::runtime_error("journal: corrupt binary file " + path + ": " +
                               e.what());
    }
    return events;
  }

  std::string_view rest(reinterpret_cast<const char*>(raw.data()), raw.size());
  while (!rest.empty()) {
    const std::size_t newline = rest.find('\n');
    const std::string_view line = rest.substr(0, newline);
    rest = newline == std::string_view::npos ? std::string_view{}
                                             : rest.substr(newline + 1);
    if (line.empty()) continue;
    if (const auto event = parse_ndjson(line); event.has_value()) {
      events.push_back(*event);
    }
  }
  return events;
}

// ---------------------------------------------------------------------------
// The ring.

Journal::Journal(std::size_t capacity) : ring_(capacity) {}

Journal& Journal::global() {
  static Journal* journal = [] {
    auto* j = new Journal();
    j->bind_counters(
        Registry::global().counter("zs_journal_events_emitted_total"),
        Registry::global().counter("zs_journal_events_dropped_total"));
    return j;
  }();
  return *journal;
}

void Journal::bind_counters(Counter emitted, Counter dropped) {
  m_emitted_ = emitted;
  m_dropped_ = dropped;
}

void Journal::emit(std::uint32_t category, const JournalEvent& event) {
  if ((mask_.load(std::memory_order_relaxed) & category) == 0) return;
  if (ring_.try_push(event)) {
    emitted_.fetch_add(1, std::memory_order_relaxed);
    m_emitted_.inc();
    if (autopump_.load(std::memory_order_relaxed) &&
        approx_size() > capacity() / 2) {
      pump();
    }
  } else {
    dropped_.fetch_add(1, std::memory_order_relaxed);
    m_dropped_.inc();
  }
}

std::size_t Journal::pump() {
  std::lock_guard<std::mutex> lock(consumer_mutex_);
  std::size_t moved = 0;
  JournalEvent event;
  while (ring_.try_pop(event)) {
    if (writer_ != nullptr) writer_->write(event);
    recent_.push_back(event);
    while (recent_.size() > kRecentCapacity) recent_.pop_front();
    ++moved;
  }
  if (moved > 0 && writer_ != nullptr) writer_->flush();
  return moved;
}

std::vector<JournalEvent> Journal::tail(std::size_t n) {
  pump();
  std::lock_guard<std::mutex> lock(consumer_mutex_);
  const std::size_t count = std::min(n, recent_.size());
  return std::vector<JournalEvent>(recent_.end() - static_cast<std::ptrdiff_t>(count),
                                   recent_.end());
}

void Journal::attach_writer(std::unique_ptr<JournalWriter> writer) {
  std::lock_guard<std::mutex> lock(consumer_mutex_);
  writer_ = std::move(writer);
}

void Journal::close_writer() {
  pump();
  std::lock_guard<std::mutex> lock(consumer_mutex_);
  if (writer_ != nullptr) {
    writer_->flush();
    writer_.reset();
  }
}

void Journal::reset() {
  std::lock_guard<std::mutex> lock(consumer_mutex_);
  JournalEvent discard;
  while (ring_.try_pop(discard)) {
  }
  recent_.clear();
  emitted_.store(0, std::memory_order_relaxed);
  dropped_.store(0, std::memory_order_relaxed);
}

}  // namespace zombiescope::obs
