// obs/prof.hpp — zsprof, the in-process sampling profiler.
//
// A dependency-free CPU profiler built on POSIX timer_create + SIGPROF
// (default ~97 Hz, a prime rate so sampling does not beat against
// periodic work). The signal handler walks the frame-pointer chain of
// the interrupted thread into a lock-free per-thread sample ring and
// copies the thread's active zsobs span stack alongside it, so every
// sample is *phase-attributed*: output stacks read
// `scenario:longlived2024;detector:interval;trie_lookup`, not just raw
// function frames. A background drain thread aggregates the rings;
// stop() symbolizes (dladdr + demangling, in normal context) and
// returns a ProfileReport that renders as
//
//   * folded-stack text (flamegraph.pl / speedscope ready),
//   * a self/total top-N table,
//   * the `profile` JSON section of the BENCH_*.json snapshots
//     (per-phase CPU shares + top frames).
//
// Signal-safety rules (see DESIGN.md §7): the handler touches only
// pre-registered thread state — no allocation, no locks, no dladdr; a
// thread with no registered state loses the sample to a counter. The
// frame-pointer walk is bounds-checked against the thread's stack
// segment so a corrupt chain can never fault. Every target builds
// with -fno-omit-frame-pointer so the walk sees real frames.

#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <string_view>
#include <vector>

namespace zombiescope::obs {

struct ProfilerOptions {
  /// Samples per second of *process CPU time* (idle costs nothing).
  int rate_hz = 97;
  /// Per-thread sample ring capacity (rounded up to a power of two).
  std::size_t ring_capacity = 4096;
};

/// One symbolized frame of the top-N table.
struct ProfiledFrame {
  std::string symbol;
  std::uint64_t self = 0;   // samples with this frame innermost
  std::uint64_t total = 0;  // samples with this frame anywhere on stack
};

/// Aggregated result of one profiling session.
struct ProfileReport {
  bool valid = false;  // false: profiler never ran
  int rate_hz = 0;
  double duration_s = 0.0;  // wall time between start() and stop()
  std::uint64_t samples = 0;
  std::uint64_t dropped = 0;  // ring overflow + unregistered-thread hits

  /// Folded stacks: "span;span;frame;frame" (root first) -> samples.
  std::map<std::string, std::uint64_t> folded;
  /// Innermost active span ("(no span)" when none) -> samples.
  std::map<std::string, std::uint64_t> phase_samples;
  /// Symbol -> self/total sample counts, sorted by self descending.
  std::vector<ProfiledFrame> top_frames;

  /// Flamegraph-ready folded text: one "stack count" line per stack.
  std::string to_folded() const;
  /// Human-readable per-phase shares + top-N self/total table.
  std::string top_report(std::size_t n = 20) const;
  /// The "profile" section of BENCH_*.json: schema zsprof-v1 with
  /// per-phase CPU shares and the top frames.
  std::string to_json(std::size_t top_n = 20) const;
};

/// Parses folded text back to stack -> count (the to_folded inverse;
/// lines that do not end in " <count>" are skipped).
std::map<std::string, std::uint64_t> parse_folded(std::string_view text);

/// The process-wide sampling profiler. SIGPROF is a process-global
/// resource, so there is exactly one; start()/stop() are not
/// re-entrant but may be called from any thread.
class Profiler {
 public:
  /// The singleton every entry point (CLI --profile-out, the HTTP
  /// /profile endpoint, bench harness) shares.
  static Profiler& global();

  /// Installs the SIGPROF handler and arms the CPU-time timer.
  /// Returns false if already running or the timer cannot be created.
  bool start(const ProfilerOptions& options = {});

  /// Disarms the timer, drains every ring, symbolizes, and returns the
  /// aggregated report. Returns an invalid report when not running.
  ProfileReport stop();

  bool running() const;
  /// Samples captured so far in the active session (approximate).
  std::uint64_t samples_captured() const;

 private:
  Profiler() = default;
};

/// The --profile-out CLI helper: starts a global profiling session on
/// construction (when `path` is non-empty and the profiler is
/// available), and on destruction stops it, writes the folded stacks
/// to `path`, and prints the top-frames summary to stderr. Does
/// nothing at all for an empty path.
class ScopedProfileSession {
 public:
  explicit ScopedProfileSession(std::string path);
  ~ScopedProfileSession();
  ScopedProfileSession(const ScopedProfileSession&) = delete;
  ScopedProfileSession& operator=(const ScopedProfileSession&) = delete;

  bool active() const { return active_; }

 private:
  std::string path_;
  bool active_ = false;
};

// --- span-attribution hooks (used by obs/trace.cpp) -----------------
//
// ScopedSpan pushes its interned name while the profiler is active so
// the SIGPROF handler can read the span stack signal-safely. All of
// this is a no-op when no profiler runs.

/// One relaxed atomic load: should spans register with the profiler?
bool prof_attribution_active() noexcept;
/// Returns a pointer that stays valid forever (names are interned).
const char* prof_intern(std::string_view name);
/// Pushes/pops the calling thread's active-span stack.
void prof_push_span(const char* interned_name) noexcept;
void prof_pop_span() noexcept;
/// Puts the calling thread in the profiler's thread registry so a
/// session started later (e.g. via GET /profile mid-run) can sample
/// it. After the first call per thread this is one thread_local read.
void prof_register_thread() noexcept;

}  // namespace zombiescope::obs
