// zsperf/spans.hpp — the benchmark's own span recorder.
//
// Spans are recorded only in the benchmark's files, around each public
// library call (nothing inside src/ is instrumented). A span carries
// its name, start and end (steady-clock ns), the span that was open on
// the same thread when it began, and the run id. They are kept in
// memory and written out when the run ends. A disabled recorder makes
// every scope a single branch, so untraced runs pay nothing that shows.

#pragma once

#include <atomic>
#include <cstdint>
#include <mutex>
#include <string>
#include <vector>

namespace zsperf {

struct Span {
  const char* name = "";       // string literal, never freed
  std::uint64_t start_ns = 0;  // steady_clock
  std::uint64_t end_ns = 0;
  std::int64_t parent = -1;    // index into the recorder's spans, -1 = root
  std::uint32_t thread = 0;    // recorder-local thread number
  std::uint64_t run_id = 0;
};

std::uint64_t now_ns();

class SpanRecorder {
 public:
  SpanRecorder(bool enabled, std::uint64_t run_id);
  SpanRecorder(const SpanRecorder&) = delete;
  SpanRecorder& operator=(const SpanRecorder&) = delete;

  /// RAII span on the calling thread; nests under the thread's
  /// innermost open span of this recorder.
  class Scope {
   public:
    Scope(SpanRecorder& recorder, const char* name);
    ~Scope();
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    SpanRecorder* recorder_ = nullptr;
    std::int64_t index_ = -1;
    std::int64_t saved_parent_ = -1;
  };

  /// Copy of every span recorded so far (closed or not).
  std::vector<Span> spans() const;

  /// Writes the spans as JSON lines to `path` (best effort; returns
  /// false when the file cannot be written).
  bool write_jsonl(const std::string& path) const;

 private:
  std::int64_t open(const char* name, std::int64_t parent);
  void close(std::int64_t index);

  bool enabled_;
  std::uint64_t run_id_;
  std::uint64_t id_;  // process-unique, keys the per-thread span stack
  mutable std::mutex mu_;  // guards spans_ and threads_
  std::vector<Span> spans_;
  std::uint32_t threads_ = 0;
};

/// Per-name aggregate of a span set.
struct SpanSummary {
  std::string name;
  std::uint64_t count = 0;
  double total_ns = 0.0;  // summed durations
  double self_ns = 0.0;   // summed durations minus child coverage
  double p50_ns = 0.0;    // of durations
  double p99_ns = 0.0;
};

/// A span's self time: its duration minus the union of the intervals
/// its direct children cover (clipped to the span, overlaps merged).
std::vector<double> self_times(const std::vector<Span>& spans);

/// Count, self time, p50 and p99 per span name, sorted by self time.
std::vector<SpanSummary> summarize(const std::vector<Span>& spans);

/// Share of a root span's duration that its descendants on the same
/// thread attribute to named layers: the summed self time of every
/// span below `root` on root's thread, divided by root's duration.
double coverage(const std::vector<Span>& spans, std::int64_t root);

/// Nearest-rank quantile of an unsorted sample (0 when empty).
double quantile(std::vector<double> values, double q);

}  // namespace zsperf
