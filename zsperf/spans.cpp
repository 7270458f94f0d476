#include "spans.hpp"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <fstream>
#include <map>

namespace zsperf {

namespace {

// Per-thread state: which recorder this thread last used, its thread
// number there, and the innermost open span.
struct ThreadState {
  std::uint64_t recorder = 0;  // SpanRecorder::id_ (0 = none)
  std::uint32_t thread = 0;
  std::int64_t open = -1;
};
thread_local ThreadState t_state;

std::atomic<std::uint64_t> g_next_recorder_id{1};

}  // namespace

std::uint64_t now_ns() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

SpanRecorder::SpanRecorder(bool enabled, std::uint64_t run_id)
    : enabled_(enabled),
      run_id_(run_id),
      id_(g_next_recorder_id.fetch_add(1, std::memory_order_relaxed)) {}

std::int64_t SpanRecorder::open(const char* name, std::int64_t parent) {
  const std::uint64_t start = now_ns();
  std::lock_guard<std::mutex> lock(mu_);
  if (t_state.recorder != id_) {
    t_state.recorder = id_;
    t_state.thread = threads_++;
    t_state.open = -1;
  }
  Span span;
  span.name = name;
  span.start_ns = start;
  span.parent = parent;
  span.thread = t_state.thread;
  span.run_id = run_id_;
  spans_.push_back(span);
  return static_cast<std::int64_t>(spans_.size()) - 1;
}

void SpanRecorder::close(std::int64_t index) {
  const std::uint64_t end = now_ns();
  std::lock_guard<std::mutex> lock(mu_);
  spans_[static_cast<std::size_t>(index)].end_ns = end;
}

SpanRecorder::Scope::Scope(SpanRecorder& recorder, const char* name) {
  if (!recorder.enabled_) return;
  recorder_ = &recorder;
  saved_parent_ = t_state.recorder == recorder.id_ ? t_state.open : -1;
  index_ = recorder.open(name, saved_parent_);
  t_state.open = index_;
}

SpanRecorder::Scope::~Scope() {
  if (recorder_ == nullptr) return;
  recorder_->close(index_);
  t_state.open = saved_parent_;
}

std::vector<Span> SpanRecorder::spans() const {
  std::lock_guard<std::mutex> lock(mu_);
  return spans_;
}

bool SpanRecorder::write_jsonl(const std::string& path) const {
  const auto all = spans();
  std::ofstream out(path);
  if (!out) return false;
  for (const auto& s : all)
    out << "{\"name\":\"" << s.name << "\",\"start_ns\":" << s.start_ns
        << ",\"end_ns\":" << s.end_ns << ",\"parent\":" << s.parent
        << ",\"thread\":" << s.thread << ",\"run\":" << s.run_id << "}\n";
  return static_cast<bool>(out.flush());
}

std::vector<double> self_times(const std::vector<Span>& spans) {
  std::vector<std::vector<std::size_t>> children(spans.size());
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const auto parent = spans[i].parent;
    if (parent >= 0 && static_cast<std::size_t>(parent) < spans.size())
      children[static_cast<std::size_t>(parent)].push_back(i);
  }
  std::vector<double> self(spans.size(), 0.0);
  std::vector<std::pair<std::uint64_t, std::uint64_t>> cover;
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const Span& s = spans[i];
    const std::uint64_t begin = s.start_ns;
    const std::uint64_t end = std::max(s.end_ns, s.start_ns);
    cover.clear();
    for (std::size_t c : children[i]) {
      const std::uint64_t cb = std::max(spans[c].start_ns, begin);
      const std::uint64_t ce = std::min(std::max(spans[c].end_ns, spans[c].start_ns), end);
      if (ce > cb) cover.emplace_back(cb, ce);
    }
    std::sort(cover.begin(), cover.end());
    std::uint64_t covered = 0;
    std::uint64_t run_begin = 0;
    std::uint64_t run_end = 0;
    bool have = false;
    for (const auto& [cb, ce] : cover) {
      if (!have || cb > run_end) {
        if (have) covered += run_end - run_begin;
        run_begin = cb;
        run_end = ce;
        have = true;
      } else {
        run_end = std::max(run_end, ce);
      }
    }
    if (have) covered += run_end - run_begin;
    self[i] = static_cast<double>(end - begin) - static_cast<double>(covered);
  }
  return self;
}

double quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double rank = std::ceil(q * static_cast<double>(values.size()));
  const std::size_t index =
      rank < 1.0 ? 0 : std::min(values.size() - 1, static_cast<std::size_t>(rank) - 1);
  return values[index];
}

std::vector<SpanSummary> summarize(const std::vector<Span>& spans) {
  const auto self = self_times(spans);
  std::map<std::string, std::vector<double>> durations;
  std::map<std::string, SpanSummary> by_name;
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const Span& s = spans[i];
    const double duration =
        static_cast<double>(std::max(s.end_ns, s.start_ns) - s.start_ns);
    SpanSummary& summary = by_name[s.name];
    summary.name = s.name;
    ++summary.count;
    summary.total_ns += duration;
    summary.self_ns += self[i];
    durations[s.name].push_back(duration);
  }
  std::vector<SpanSummary> out;
  for (auto& [name, summary] : by_name) {
    summary.p50_ns = quantile(durations[name], 0.50);
    summary.p99_ns = quantile(durations[name], 0.99);
    out.push_back(summary);
  }
  std::sort(out.begin(), out.end(), [](const SpanSummary& a, const SpanSummary& b) {
    return a.self_ns > b.self_ns;
  });
  return out;
}

double coverage(const std::vector<Span>& spans, std::int64_t root) {
  if (root < 0 || static_cast<std::size_t>(root) >= spans.size()) return 0.0;
  const Span& r = spans[static_cast<std::size_t>(root)];
  const double wall = static_cast<double>(std::max(r.end_ns, r.start_ns) - r.start_ns);
  if (wall <= 0.0) return 0.0;
  const auto self = self_times(spans);
  // A span is below root when walking its parents reaches root.
  std::vector<int> below(spans.size(), -1);  // -1 unknown, 0 no, 1 yes
  below[static_cast<std::size_t>(root)] = 0;
  double covered = 0.0;
  for (std::size_t i = 0; i < spans.size(); ++i) {
    if (spans[i].thread != r.thread) continue;
    std::vector<std::size_t> chain;
    std::int64_t at = static_cast<std::int64_t>(i);
    int verdict = 0;
    while (at >= 0) {
      const auto u = static_cast<std::size_t>(at);
      if (below[u] != -1) {
        verdict = below[u];
        break;
      }
      chain.push_back(u);
      const std::int64_t parent = spans[u].parent;
      if (parent == root) {
        verdict = 1;
        break;
      }
      at = parent;
    }
    for (std::size_t u : chain) below[u] = verdict;
    if (below[i] == 1) covered += self[i];
  }
  return covered / wall;
}

}  // namespace zsperf
