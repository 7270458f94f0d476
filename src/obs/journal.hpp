// obs/journal.hpp — the zombie flight recorder.
//
// A structured event journal for the zombie-detection pipeline: every
// lifecycle transition the detectors, collectors, and the simulator's
// fault injections decide on (announcement seen, withdraw seen/missed,
// stuck-threshold crossed, zombie declared/cleared, resurrection,
// noisy-peer exclusion, Aggregator double-count elimination) is
// recorded as one fixed-size, trivially-copyable JournalEvent with its
// cause metadata. A run that disagrees with the paper's tables can
// then be audited event by event instead of staring at aggregate
// counters — see tools/zsreport.cpp, which reconstructs per-prefix
// timelines and per-peer zombie probabilities from a journal file.
//
// Design rules (matching the rest of zsobs):
//  * zero overhead when idle — the journal is disabled by default; an
//    instrumented call site costs one relaxed atomic load;
//  * producers never block or allocate — emit() claims a slot in a
//    lock-free bounded MPSC ring (netbase::Ring) and copies the POD
//    event in; when the ring is full the event is dropped and counted,
//    never waited for;
//  * draining is strictly pull — pump() (the single consumer, guarded
//    by a mutex so the exit-time flush and the HTTP /journal/tail
//    endpoint can share it) moves events to the attached writer (NDJSON
//    or a length-prefixed binary format) and a bounded recent-events
//    buffer;
//  * categories are filterable at run time (set_enabled_categories),
//    so the chatty message-level layer can stay off in a production
//    run while the detector-decision layer records.

#pragma once

#include <atomic>
#include <cstdint>
#include <deque>
#include <fstream>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <string_view>
#include <type_traits>
#include <vector>

#include "netbase/ip.hpp"
#include "netbase/ring.hpp"
#include "netbase/time.hpp"
#include "obs/metrics.hpp"

namespace zombiescope::obs {

/// Event categories (bitmask). kCatState is the message-granularity
/// layer (one event per BGP update applied) and is by far the
/// chattiest; everything else records decisions.
enum JournalCategory : std::uint32_t {
  kCatRun = 1u << 0,        // run-level metadata
  kCatState = 1u << 1,      // per-message state reconstruction
  kCatDetector = 1u << 2,   // threshold checks, declarations, dedup
  kCatNoise = 1u << 3,      // noisy peers, collector-side noise
  kCatLifespan = 1u << 4,   // RIB-dump lifespans and resurrections
  kCatCollector = 1u << 5,  // collector session lifecycle
  kCatFault = 1u << 6,        // simnet fault injections
  kCatPropagation = 1u << 7,  // causal per-hop update provenance
  kCatLive = 1u << 8,         // zslive streaming service transitions
  kCatAlert = 1u << 9,        // zstsdb alert-rule transitions
  kCatPeer = 1u << 10,        // zspeerq feed-quality transitions
  kCatSession = 1u << 11,     // zswire BGP session lifecycle
  kCatAll = (1u << 12) - 1,
};

/// One name per bit ("run", "state", ...). Empty for unknown bits.
std::string_view category_name(std::uint32_t category);

/// Parses a comma-separated category list ("detector,fault,lifespan");
/// "all" enables everything. nullopt on an unknown name.
std::optional<std::uint32_t> parse_categories(std::string_view text);

enum class JournalEventType : std::uint16_t {
  // kCatRun
  kRunMeta = 1,  // a = studied announcements, b = threshold, c = end time
  // kCatState (per-message layer)
  kAnnounceSeen = 2,  // peer announced prefix
  kWithdrawSeen = 3,  // peer withdrew prefix
  kSessionFlush = 4,  // peer session left Established; its routes drop
  // kCatDetector
  kThresholdCrossed = 10,    // a = threshold, b = withdraw time; the
                             // route was still announced at b + a
  kZombieDeclared = 11,      // a = threshold, b = withdraw, c = interval
  kZombieCleared = 12,       // b = withdraw time (real-time resolution)
  kDuplicateSuppressed = 13, // a = Aggregator clock, b = interval start
  // kCatNoise
  kNoisyPeerExcluded = 14,
  kWithdrawalLost = 20,     // collector session noise ate a withdrawal
  kWithdrawalDelayed = 21,  // a = delay (slow convergence)
  kPhantomReannounce = 22,  // a = delay (stale path resurfaced)
  // kCatLifespan
  kResurrectionDetected = 15,  // a = vanished at, b = reappeared at
  kLifespanClosed = 16,        // a = withdraw time, b = last seen
  // kCatCollector
  kCollectorSessionDown = 23,
  kCollectorSessionUp = 24,
  // kCatFault (a = from AS, b = to AS unless noted)
  kFaultWithdrawalSuppressed = 30,
  kFaultReceiveStall = 31,
  kSimSessionDown = 32,
  kSimSessionUp = 33,
  kPrefixEvicted = 34,  // a = AS evicting the prefix (RoST)
  // kCatPropagation (packed by obs/causal.hpp: a = trace id,
  // b = from/to ASNs, c = hop + kind + decision — use
  // to_journal_event / hop_from_event, never the raw fields)
  kPropagationHop = 40,
  // kCatLive (zslive service; a/b per transition comments in
  // live/service.hpp)
  kLiveZombieEmerged = 50,      // a = threshold, b = withdraw time
  kLiveZombieResurrected = 51,  // a = raised at, b = withdraw time
  kLiveZombieDied = 52,         // a = withdraw time, b = stuck seconds
  kLiveIngestDropped = 53,      // a = shard, b = total drops so far
  kLiveClientEvicted = 54,      // a = buffered bytes at eviction
  // kCatAlert (zstsdb rule engine; rules are identified by index — the
  // names live in GET /alerts). Values are scaled by 1000 because the
  // journal carries integers (a = observed value, b = threshold, both
  // milli-units; c = rule index).
  kAlertFiring = 60,
  kAlertResolved = 61,
  // kCatPeer (zspeerq classifier; emitted at merge time, so `time` is
  // the merged stream clock)
  kPeerNoisyEnter = 70,  // a = stuck probability (ppm), b = median
                         // probability (ppm), c = stuck routes
  kPeerNoisyExit = 71,   // same fields as kPeerNoisyEnter
  kPeerSilent = 72,      // a = silent age (s), b = last update seen
  // kCatSession (zswire BGP-4 speaker; peer fields carry the session's
  // logical peer identity)
  kWireSessionState = 80,     // a = old FsmState, b = new FsmState
  kWireNotifySent = 81,       // a = error code, b = subcode
  kWireNotifyReceived = 82,   // a = error code, b = subcode
  kWireGrRetained = 83,       // a = routes retained, b = deadline (s)
  kWireGrFlushed = 84,        // a = routes flushed, b = FlushReason
  kWireCollision = 85,        // a = 1 kept our initiated connection
};

/// Snake-case wire name ("zombie_declared"). Used by both serializers.
std::string_view to_string(JournalEventType type);
std::optional<JournalEventType> parse_event_type(std::string_view name);

/// The category an event type reports under.
std::uint32_t category_of(JournalEventType type);

/// One journal record. Trivially copyable by design: the ring buffer
/// moves raw bytes, never runs constructors concurrently. The aux
/// fields a/b/c are type-specific (see JournalEventType comments);
/// times are simulation TimePoints (seconds since the epoch).
struct JournalEvent {
  JournalEventType type = JournalEventType::kRunMeta;
  netbase::TimePoint time = 0;
  bool has_prefix = false;
  bool has_peer = false;
  netbase::Prefix prefix;
  std::uint32_t peer_asn = 0;
  netbase::IpAddress peer_address;
  std::int64_t a = 0;
  std::int64_t b = 0;
  std::int64_t c = 0;

  friend bool operator==(const JournalEvent&, const JournalEvent&) = default;
};
static_assert(std::is_trivially_copyable_v<JournalEvent>,
              "the journal ring copies events as raw memory");

/// One NDJSON line (no trailing newline).
std::string to_ndjson(const JournalEvent& event);
/// Parses one NDJSON line back. nullopt on malformed input.
std::optional<JournalEvent> parse_ndjson(std::string_view line);
/// Appends one length-prefixed binary record.
void append_binary(std::vector<std::uint8_t>& out, const JournalEvent& event);

enum class JournalFormat { kNdjson, kBinary };

/// Parses "ndjson" / "bin" / "binary" (the --journal-format values).
std::optional<JournalFormat> parse_journal_format(std::string_view text);

/// File header of the binary format; NDJSON files start with '{'.
inline constexpr std::string_view kJournalBinaryMagic = "ZSJL1\n";

/// Streams events to a file in either format. Not thread-safe: owned
/// by the journal's consumer side.
class JournalWriter {
 public:
  /// Throws std::runtime_error if the file cannot be opened.
  JournalWriter(const std::string& path, JournalFormat format);

  void write(const JournalEvent& event);
  void flush();
  const std::string& path() const { return path_; }
  JournalFormat format() const { return format_; }

 private:
  std::string path_;
  JournalFormat format_;
  std::ofstream out_;
};

/// Reads a journal file back, auto-detecting the format; "-" reads
/// stdin (for piped journals). Throws std::runtime_error on an
/// unreadable or structurally corrupt file; unparseable NDJSON lines
/// are skipped (foreign tools may append).
std::vector<JournalEvent> read_journal_file(const std::string& path);

class Journal {
 public:
  static constexpr std::size_t kDefaultCapacity = 1u << 16;
  static constexpr std::size_t kRecentCapacity = 4096;

  explicit Journal(std::size_t capacity = kDefaultCapacity);
  Journal(const Journal&) = delete;
  Journal& operator=(const Journal&) = delete;

  /// The process-wide journal the instrumented modules report to.
  /// Disabled (mask 0) until a tool opts in via --journal-out.
  static Journal& global();

  std::uint32_t enabled_categories() const {
    return mask_.load(std::memory_order_relaxed);
  }
  void set_enabled_categories(std::uint32_t mask) {
    mask_.store(mask, std::memory_order_relaxed);
  }
  /// True if any of the given category bits is enabled. The one-load
  /// guard instrumented call sites use before building an event.
  bool enabled(std::uint32_t categories) const {
    return (mask_.load(std::memory_order_relaxed) & categories) != 0;
  }

  /// Records an event under `category`: a runtime mask check plus a
  /// lock-free ring enqueue.
  void emit(std::uint32_t category, const JournalEvent& event);

  /// Drains the ring: appends to the recent-events buffer and, if a
  /// writer is attached, streams to it. Safe to call from any thread
  /// (consumer side is mutex-guarded); returns events moved.
  std::size_t pump();

  /// The last `n` drained events, oldest first (pumps first so the
  /// tail is current).
  std::vector<JournalEvent> tail(std::size_t n);

  /// Attaches the output file; subsequent pump()s stream to it. With
  /// autopump on, emit() pumps whenever the ring passes half full —
  /// only safe when producers may take the consumer mutex (the
  /// single-threaded CLI tools; not arbitrary hot loops).
  void attach_writer(std::unique_ptr<JournalWriter> writer);
  /// Final pump + flush; detaches the writer.
  void close_writer();
  void set_autopump(bool on) { autopump_.store(on, std::memory_order_relaxed); }

  std::uint64_t emitted() const { return emitted_.load(std::memory_order_relaxed); }
  std::uint64_t dropped() const { return dropped_.load(std::memory_order_relaxed); }
  std::size_t capacity() const { return ring_.capacity(); }
  /// Events currently buffered (approximate under concurrent writers).
  std::size_t approx_size() const { return ring_.approx_size(); }

  /// Binds registry counters (zs_journal_events_*_total) so journal
  /// health shows up in /metrics. global() binds automatically.
  void bind_counters(Counter emitted, Counter dropped);

  /// Drops buffered and recent events and zeroes the counts. The
  /// writer, mask, and autopump setting are kept.
  void reset();

 private:
  std::atomic<std::uint32_t> mask_{0};
  std::atomic<bool> autopump_{false};
  std::atomic<std::uint64_t> emitted_{0};
  std::atomic<std::uint64_t> dropped_{0};
  Counter m_emitted_;
  Counter m_dropped_;

  netbase::Ring<JournalEvent> ring_;  // popped only under consumer_mutex_

  mutable std::mutex consumer_mutex_;
  std::deque<JournalEvent> recent_;
  std::unique_ptr<JournalWriter> writer_;
};

}  // namespace zombiescope::obs
