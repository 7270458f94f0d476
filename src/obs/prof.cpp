#include "obs/prof.hpp"

#include <algorithm>
#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <cstring>

#include <cxxabi.h>
#include <dlfcn.h>
#include <errno.h>
#include <pthread.h>
#include <signal.h>
#include <time.h>
#include <ucontext.h>

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <map>
#include <memory>
#include <mutex>
#include <thread>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "netbase/json.hpp"

// The SIGPROF handler and the frame-pointer walk must not be
// instrumented: sanitizer runtimes are not async-signal-safe, and the
// walk deliberately reads raw stack memory (bounds-checked against the
// thread's stack segment, but inside ASan redzones).
#if defined(__GNUC__) || defined(__clang__)
#define ZS_PROF_NO_SANITIZE \
  __attribute__((no_sanitize("address", "thread", "undefined")))
#else
#define ZS_PROF_NO_SANITIZE
#endif

namespace zombiescope::obs {

namespace {

std::string format_share(double v) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.4f", v);
  return buf;
}

}  // namespace

// ---------------------------------------------------------------------------
// Report rendering (pure data).

std::string ProfileReport::to_folded() const {
  std::string out;
  for (const auto& [stack, count] : folded) {
    out += stack;
    out += ' ';
    out += std::to_string(count);
    out += '\n';
  }
  return out;
}

std::map<std::string, std::uint64_t> parse_folded(std::string_view text) {
  std::map<std::string, std::uint64_t> out;
  std::size_t pos = 0;
  while (pos < text.size()) {
    std::size_t eol = text.find('\n', pos);
    if (eol == std::string_view::npos) eol = text.size();
    std::string_view line = text.substr(pos, eol - pos);
    pos = eol + 1;
    if (line.empty() || line[0] == '#') continue;
    const std::size_t space = line.rfind(' ');
    if (space == std::string_view::npos || space + 1 >= line.size()) continue;
    std::uint64_t count = 0;
    bool numeric = true;
    for (char c : line.substr(space + 1)) {
      if (c < '0' || c > '9') {
        numeric = false;
        break;
      }
      count = count * 10 + static_cast<std::uint64_t>(c - '0');
    }
    if (!numeric) continue;
    out[std::string(line.substr(0, space))] += count;
  }
  return out;
}

std::string ProfileReport::top_report(std::size_t n) const {
  std::string out;
  char buf[256];
  std::snprintf(buf, sizeof(buf),
                "== zsprof: %" PRIu64 " sample(s) @ %d Hz over %.2f s (%" PRIu64
                " dropped)\n",
                samples, rate_hz, duration_s, dropped);
  out += buf;
  if (!phase_samples.empty()) {
    out += "== per-phase CPU shares\n";
    std::vector<std::pair<std::string, std::uint64_t>> phases(
        phase_samples.begin(), phase_samples.end());
    std::sort(phases.begin(), phases.end(),
              [](const auto& a, const auto& b) { return a.second > b.second; });
    for (const auto& [name, count] : phases) {
      const double share =
          samples == 0 ? 0.0
                       : static_cast<double>(count) / static_cast<double>(samples);
      std::snprintf(buf, sizeof(buf), "  %6.2f%%  %8" PRIu64 "  %s\n",
                    100.0 * share, count, name.c_str());
      out += buf;
    }
  }
  if (!top_frames.empty()) {
    out += "== top frames (self / total samples)\n";
    std::size_t shown = 0;
    for (const auto& frame : top_frames) {
      if (++shown > n) break;
      const double share = samples == 0 ? 0.0
                                        : static_cast<double>(frame.self) /
                                              static_cast<double>(samples);
      std::snprintf(buf, sizeof(buf), "  %6.2f%%  %8" PRIu64 "  %8" PRIu64 "  %s\n",
                    100.0 * share, frame.self, frame.total, frame.symbol.c_str());
      out += buf;
    }
  }
  return out;
}

std::string ProfileReport::to_json(std::size_t top_n) const {
  std::string out = "{\"schema\": \"zsprof-v1\"";
  out += ", \"valid\": " + std::string(valid ? "true" : "false");
  out += ", \"rate_hz\": " + std::to_string(rate_hz);
  out += ", \"duration_s\": " + format_share(duration_s);
  out += ", \"samples\": " + std::to_string(samples);
  out += ", \"dropped\": " + std::to_string(dropped);
  out += ", \"phases\": {";
  bool first = true;
  for (const auto& [name, count] : phase_samples) {
    if (!first) out += ", ";
    first = false;
    const double share =
        samples == 0 ? 0.0
                     : static_cast<double>(count) / static_cast<double>(samples);
    out += "\"" + netbase::json_escape(name) + "\": {\"samples\": " +
           std::to_string(count) + ", \"share\": " + format_share(share) + "}";
  }
  out += "}, \"top_frames\": [";
  std::size_t shown = 0;
  for (const auto& frame : top_frames) {
    if (shown >= top_n) break;
    if (shown != 0) out += ", ";
    ++shown;
    out += "{\"symbol\": \"" + netbase::json_escape(frame.symbol) +
           "\", \"self\": " + std::to_string(frame.self) +
           ", \"total\": " + std::to_string(frame.total) + "}";
  }
  out += "]}";
  return out;
}

// ---------------------------------------------------------------------------
// Thread state and the signal handler.

namespace {

constexpr std::size_t kMaxFrames = 48;
constexpr std::size_t kMaxSpanDepth = 16;

/// One captured sample: raw pcs + the active span-name stack, both
/// trivially copyable so the ring moves plain bytes.
struct RawSample {
  std::uint32_t n_pcs = 0;
  std::uint32_t n_spans = 0;
  std::uintptr_t pcs[kMaxFrames];
  const char* spans[kMaxSpanDepth];
};

/// SPSC ring: producer is the SIGPROF handler running on the owner
/// thread, consumer is the drain thread (or stop()).
struct SampleRing {
  explicit SampleRing(std::size_t capacity) {
    std::size_t cap = 64;
    while (cap < capacity) cap <<= 1;
    slots = std::make_unique<RawSample[]>(cap);
    mask = cap - 1;
  }
  std::unique_ptr<RawSample[]> slots;
  std::size_t mask = 0;
  alignas(64) std::atomic<std::uint64_t> head{0};
  alignas(64) std::atomic<std::uint64_t> tail{0};
};

struct ThreadState {
  std::atomic<SampleRing*> ring{nullptr};
  // Active-span stack, maintained by prof_push_span/prof_pop_span on
  // the owner thread and read by the SIGPROF handler on the same
  // thread — signal fences order the two, no cross-thread access.
  const char* span_stack[kMaxSpanDepth] = {};
  std::atomic<std::uint32_t> span_depth{0};
  // Stack segment bounds for the frame-pointer walk.
  std::uintptr_t stack_lo = 0;
  std::uintptr_t stack_hi = 0;
};

// Every thread that ever registered. Entries (and their rings) are
// never freed: the handler may fire concurrently with a thread
// exiting, so reclamation would race; the leak is a few KB per thread
// that ever profiled.
std::mutex g_threads_mutex;
std::vector<ThreadState*>& thread_registry() {
  static auto* v = new std::vector<ThreadState*>();
  return *v;
}

thread_local ThreadState* t_state = nullptr;

std::atomic<bool> g_attribution_active{false};
std::atomic<std::uint64_t> g_lost{0};      // full ring or unregistered thread
std::atomic<std::uint64_t> g_captured{0};  // samples enqueued
std::size_t g_ring_capacity = 4096;        // active session's option

void thread_stack_bounds(std::uintptr_t& lo, std::uintptr_t& hi) {
  lo = 0;
  hi = 0;
  pthread_attr_t attr;
  if (pthread_getattr_np(pthread_self(), &attr) != 0) return;
  void* addr = nullptr;
  std::size_t size = 0;
  if (pthread_attr_getstack(&attr, &addr, &size) == 0) {
    lo = reinterpret_cast<std::uintptr_t>(addr);
    hi = lo + size;
  }
  pthread_attr_destroy(&attr);
}

ThreadState* ensure_thread_state() {
  ThreadState* ts = t_state;
  if (ts != nullptr) return ts;
  ts = new ThreadState();
  thread_stack_bounds(ts->stack_lo, ts->stack_hi);
  {
    std::lock_guard lock(g_threads_mutex);
    thread_registry().push_back(ts);
    if (g_attribution_active.load(std::memory_order_relaxed))
      ts->ring.store(new SampleRing(g_ring_capacity), std::memory_order_release);
  }
  t_state = ts;
  return ts;
}

/// Interned span names live forever, so a drained sample's name
/// pointer is valid long after the span (and its std::string) died.
const char* intern_name(std::string_view name) {
  static std::mutex mutex;
  static auto* names = new std::unordered_set<std::string>();
  std::lock_guard lock(mutex);
  return names->emplace(name).first->c_str();
}

ZS_PROF_NO_SANITIZE
std::uint32_t capture_stack(void* context, const ThreadState* ts,
                            std::uintptr_t* pcs) {
  std::uintptr_t pc = 0;
  std::uintptr_t fp = 0;
#if defined(__x86_64__)
  const auto* uc = static_cast<const ucontext_t*>(context);
  pc = static_cast<std::uintptr_t>(uc->uc_mcontext.gregs[REG_RIP]);
  fp = static_cast<std::uintptr_t>(uc->uc_mcontext.gregs[REG_RBP]);
#elif defined(__aarch64__)
  const auto* uc = static_cast<const ucontext_t*>(context);
  pc = static_cast<std::uintptr_t>(uc->uc_mcontext.pc);
  fp = static_cast<std::uintptr_t>(uc->uc_mcontext.regs[29]);
#else
  (void)context;
#endif
  std::uint32_t n = 0;
  if (pc != 0) pcs[n++] = pc;
  // Frame-pointer chain walk. Every candidate frame must lie inside
  // the thread's stack segment, be pointer-aligned, and move strictly
  // upward — a corrupt chain terminates the walk, it cannot fault.
  const std::uintptr_t lo = ts->stack_lo;
  const std::uintptr_t hi = ts->stack_hi;
  while (n < kMaxFrames && fp >= lo && hi >= 2 * sizeof(std::uintptr_t) &&
         fp <= hi - 2 * sizeof(std::uintptr_t) &&
         (fp & (sizeof(std::uintptr_t) - 1)) == 0) {
    const auto* frame = reinterpret_cast<const std::uintptr_t*>(fp);
    const std::uintptr_t ret = frame[1];
    const std::uintptr_t next = frame[0];
    if (ret < 0x1000) break;  // not a plausible return address
    pcs[n++] = ret;
    if (next <= fp) break;  // frames must move up the stack
    fp = next;
  }
  return n;
}

ZS_PROF_NO_SANITIZE
void sigprof_handler(int, siginfo_t*, void* context) {
  const int saved_errno = errno;
  ThreadState* ts = t_state;
  SampleRing* ring =
      ts == nullptr ? nullptr : ts->ring.load(std::memory_order_acquire);
  if (ring == nullptr) {
    g_lost.fetch_add(1, std::memory_order_relaxed);
    errno = saved_errno;
    return;
  }
  const std::uint64_t head = ring->head.load(std::memory_order_relaxed);
  const std::uint64_t tail = ring->tail.load(std::memory_order_acquire);
  if (head - tail > ring->mask) {  // full: drop, never wait
    g_lost.fetch_add(1, std::memory_order_relaxed);
    errno = saved_errno;
    return;
  }
  RawSample& sample = ring->slots[head & ring->mask];
  std::uint32_t depth = ts->span_depth.load(std::memory_order_relaxed);
  std::atomic_signal_fence(std::memory_order_acquire);
  if (depth > kMaxSpanDepth) depth = kMaxSpanDepth;
  for (std::uint32_t i = 0; i < depth; ++i) sample.spans[i] = ts->span_stack[i];
  sample.n_spans = depth;
  sample.n_pcs = capture_stack(context, ts, sample.pcs);
  ring->head.store(head + 1, std::memory_order_release);
  g_captured.fetch_add(1, std::memory_order_relaxed);
  errno = saved_errno;
}

// ---------------------------------------------------------------------------
// The consumer side: aggregation, symbolization, session control.

/// Aggregation key: n_spans, span pointers (root first), pcs (leaf
/// first) — cheap to build from a RawSample, folds identical stacks.
using StackKey = std::vector<std::uintptr_t>;

struct Session {
  bool running = false;
  ProfilerOptions options;
  std::chrono::steady_clock::time_point started_at;
  timer_t timer{};
  bool timer_valid = false;
  std::thread drain_thread;
  std::mutex drain_mutex;
  std::condition_variable drain_cv;
  bool drain_stop = false;
  std::map<StackKey, std::uint64_t> aggregate;
};

std::mutex g_control_mutex;  // serializes start()/stop()
Session& session() {
  static auto* s = new Session();
  return *s;
}

void drain_ring(ThreadState* ts, std::map<StackKey, std::uint64_t>& aggregate) {
  SampleRing* ring = ts->ring.load(std::memory_order_acquire);
  if (ring == nullptr) return;
  std::uint64_t tail = ring->tail.load(std::memory_order_relaxed);
  const std::uint64_t head = ring->head.load(std::memory_order_acquire);
  StackKey key;
  while (tail != head) {
    const RawSample& sample = ring->slots[tail & ring->mask];
    key.clear();
    key.reserve(1 + sample.n_spans + sample.n_pcs);
    key.push_back(sample.n_spans);
    for (std::uint32_t i = 0; i < sample.n_spans; ++i)
      key.push_back(reinterpret_cast<std::uintptr_t>(sample.spans[i]));
    for (std::uint32_t i = 0; i < sample.n_pcs; ++i) key.push_back(sample.pcs[i]);
    ++aggregate[key];
    ++tail;
    ring->tail.store(tail, std::memory_order_release);
  }
}

void drain_all(std::map<StackKey, std::uint64_t>& aggregate) {
  std::vector<ThreadState*> threads;
  {
    std::lock_guard lock(g_threads_mutex);
    threads = thread_registry();
  }
  for (ThreadState* ts : threads) drain_ring(ts, aggregate);
}

void drain_loop() {
  // The drain thread must never receive SIGPROF itself: its samples
  // would always be unattributable profiler overhead.
  sigset_t mask;
  sigemptyset(&mask);
  sigaddset(&mask, SIGPROF);
  pthread_sigmask(SIG_BLOCK, &mask, nullptr);
  Session& s = session();
  std::unique_lock lock(s.drain_mutex);
  while (!s.drain_stop) {
    s.drain_cv.wait_for(lock, std::chrono::milliseconds(100));
    drain_all(s.aggregate);
  }
}

std::string symbolize(std::uintptr_t pc,
                      std::unordered_map<std::uintptr_t, std::string>& cache) {
  const auto it = cache.find(pc);
  if (it != cache.end()) return it->second;
  std::string name;
  Dl_info info{};
  if (dladdr(reinterpret_cast<void*>(pc), &info) != 0 &&
      info.dli_sname != nullptr) {
    int status = 1;
    char* demangled = abi::__cxa_demangle(info.dli_sname, nullptr, nullptr, &status);
    name = (status == 0 && demangled != nullptr) ? demangled : info.dli_sname;
    std::free(demangled);
  } else {
    // No symbol (static function, stripped object): module+offset,
    // resolvable offline with addr2line.
    const char* module = info.dli_fname != nullptr ? info.dli_fname : "?";
    if (const char* slash = std::strrchr(module, '/'); slash != nullptr)
      module = slash + 1;
    const std::uintptr_t base = reinterpret_cast<std::uintptr_t>(info.dli_fbase);
    char buf[256];
    std::snprintf(buf, sizeof(buf), "%s+0x%" PRIxPTR, module,
                  base != 0 && pc >= base ? pc - base : pc);
    name = buf;
  }
  // Frames are joined with ';' in folded output; scrub the separator.
  for (char& c : name) {
    if (c == ';') c = ':';
    if (c == '\n' || c == '\r') c = ' ';
  }
  cache.emplace(pc, name);
  return name;
}

ProfileReport build_report(const Session& s, std::uint64_t dropped) {
  ProfileReport report;
  report.valid = true;
  report.rate_hz = s.options.rate_hz;
  report.duration_s =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - s.started_at)
          .count();
  report.dropped = dropped;

  std::unordered_map<std::uintptr_t, std::string> symbol_cache;
  std::map<std::string, std::pair<std::uint64_t, std::uint64_t>> frames;
  for (const auto& [key, count] : s.aggregate) {
    report.samples += count;
    const std::size_t n_spans = static_cast<std::size_t>(key[0]);
    const std::size_t n_pcs = key.size() - 1 - n_spans;

    // Phase attribution: the innermost active span.
    std::string phase = "(no span)";
    if (n_spans > 0) {
      const char* innermost = reinterpret_cast<const char*>(key[n_spans]);
      phase = innermost;
    }
    report.phase_samples[phase] += count;

    // Folded stack: spans root-first, then frames root-first (pcs are
    // captured leaf-first).
    std::string stack;
    for (std::size_t i = 0; i < n_spans; ++i) {
      if (!stack.empty()) stack += ';';
      stack += reinterpret_cast<const char*>(key[1 + i]);
    }
    std::vector<std::string> symbols(n_pcs);
    for (std::size_t i = 0; i < n_pcs; ++i)
      symbols[i] = symbolize(key[1 + n_spans + i], symbol_cache);
    for (std::size_t i = n_pcs; i-- > 0;) {
      if (!stack.empty()) stack += ';';
      stack += symbols[i];
    }
    if (stack.empty()) stack = "(unknown)";
    report.folded[stack] += count;

    // Self/total accounting per symbol (total counts a stack once even
    // if the symbol recurses).
    if (n_pcs > 0) frames[symbols[0]].first += count;
    std::unordered_set<std::string_view> seen;
    for (const auto& symbol : symbols) {
      if (seen.insert(symbol).second) frames[symbol].second += count;
    }
  }
  report.top_frames.reserve(frames.size());
  for (auto& [symbol, counts] : frames)
    report.top_frames.push_back({symbol, counts.first, counts.second});
  std::sort(report.top_frames.begin(), report.top_frames.end(),
            [](const ProfiledFrame& a, const ProfiledFrame& b) {
              if (a.self != b.self) return a.self > b.self;
              if (a.total != b.total) return a.total > b.total;
              return a.symbol < b.symbol;
            });
  return report;
}

}  // namespace

bool prof_attribution_active() noexcept {
  return g_attribution_active.load(std::memory_order_relaxed);
}

const char* prof_intern(std::string_view name) { return intern_name(name); }

void prof_push_span(const char* interned_name) noexcept {
  ThreadState* ts = ensure_thread_state();
  const std::uint32_t depth = ts->span_depth.load(std::memory_order_relaxed);
  if (depth < kMaxSpanDepth) ts->span_stack[depth] = interned_name;
  // The name store must be visible before the depth covers it; a
  // signal fence suffices because the reader is a handler on this
  // same thread.
  std::atomic_signal_fence(std::memory_order_release);
  ts->span_depth.store(depth + 1, std::memory_order_relaxed);
}

void prof_pop_span() noexcept {
  ThreadState* ts = t_state;
  if (ts == nullptr) return;
  const std::uint32_t depth = ts->span_depth.load(std::memory_order_relaxed);
  if (depth > 0) ts->span_depth.store(depth - 1, std::memory_order_relaxed);
}

void prof_register_thread() noexcept { ensure_thread_state(); }

Profiler& Profiler::global() {
  static auto* profiler = new Profiler();
  return *profiler;
}

bool Profiler::running() const {
  return g_attribution_active.load(std::memory_order_relaxed);
}

std::uint64_t Profiler::samples_captured() const {
  return g_captured.load(std::memory_order_relaxed);
}

bool Profiler::start(const ProfilerOptions& options) {
  std::lock_guard control(g_control_mutex);
  Session& s = session();
  if (s.running || options.rate_hz <= 0) return false;

  s.options = options;
  s.aggregate.clear();
  s.drain_stop = false;
  g_lost.store(0, std::memory_order_relaxed);
  g_captured.store(0, std::memory_order_relaxed);

  // Register the calling thread, give every known thread a ring, and
  // discard any straggler samples from a previous session.
  ensure_thread_state();
  {
    std::lock_guard lock(g_threads_mutex);
    g_ring_capacity = options.ring_capacity;
    for (ThreadState* ts : thread_registry()) {
      SampleRing* ring = ts->ring.load(std::memory_order_relaxed);
      if (ring == nullptr) {
        ts->ring.store(new SampleRing(g_ring_capacity), std::memory_order_release);
      } else {
        ring->tail.store(ring->head.load(std::memory_order_acquire),
                         std::memory_order_release);
      }
    }
  }

  struct sigaction action {};
  action.sa_sigaction = &sigprof_handler;
  action.sa_flags = SA_SIGINFO | SA_RESTART;
  sigemptyset(&action.sa_mask);
  if (sigaction(SIGPROF, &action, nullptr) != 0) return false;

  // A CPU-time clock: an idle process generates no samples, which is
  // exactly right for "where did the CPU go". Fall back to the
  // monotonic clock (wall-time sampling) where unsupported.
  sigevent sev{};
  sev.sigev_notify = SIGEV_SIGNAL;
  sev.sigev_signo = SIGPROF;
  if (timer_create(CLOCK_PROCESS_CPUTIME_ID, &sev, &s.timer) != 0 &&
      timer_create(CLOCK_MONOTONIC, &sev, &s.timer) != 0) {
    return false;
  }
  s.timer_valid = true;

  g_attribution_active.store(true, std::memory_order_relaxed);
  s.started_at = std::chrono::steady_clock::now();
  s.drain_thread = std::thread(drain_loop);

  const long period_ns = 1'000'000'000L / options.rate_hz;
  itimerspec spec{};
  spec.it_interval.tv_sec = period_ns / 1'000'000'000L;
  spec.it_interval.tv_nsec = period_ns % 1'000'000'000L;
  spec.it_value = spec.it_interval;
  if (timer_settime(s.timer, 0, &spec, nullptr) != 0) {
    g_attribution_active.store(false, std::memory_order_relaxed);
    timer_delete(s.timer);
    s.timer_valid = false;
    {
      std::lock_guard lock(s.drain_mutex);
      s.drain_stop = true;
    }
    s.drain_cv.notify_all();
    s.drain_thread.join();
    return false;
  }
  s.running = true;
  return true;
}

ProfileReport Profiler::stop() {
  std::lock_guard control(g_control_mutex);
  Session& s = session();
  if (!s.running) return {};

  // Disarm first so no new expirations queue; the handler stays
  // installed (restoring the old disposition could turn one in-flight
  // SIGPROF into process termination).
  if (s.timer_valid) {
    timer_delete(s.timer);
    s.timer_valid = false;
  }
  g_attribution_active.store(false, std::memory_order_relaxed);
  {
    std::lock_guard lock(s.drain_mutex);
    s.drain_stop = true;
  }
  s.drain_cv.notify_all();
  if (s.drain_thread.joinable()) s.drain_thread.join();
  drain_all(s.aggregate);

  ProfileReport report = build_report(s, g_lost.load(std::memory_order_relaxed));
  s.aggregate.clear();
  s.running = false;
  return report;
}

ScopedProfileSession::ScopedProfileSession(std::string path)
    : path_(std::move(path)) {
  if (path_.empty()) return;
  active_ = Profiler::global().start();
  if (!active_)
    std::fprintf(stderr, "--profile-out ignored: cannot start profiler "
                         "(already running?)\n");
}

ScopedProfileSession::~ScopedProfileSession() {
  if (!active_) return;
  const ProfileReport report = Profiler::global().stop();
  std::FILE* out = std::fopen(path_.c_str(), "wb");
  if (out == nullptr) {
    std::fprintf(stderr, "error: cannot write profile to %s\n", path_.c_str());
  } else {
    const std::string folded = report.to_folded();
    std::fwrite(folded.data(), 1, folded.size(), out);
    std::fclose(out);
  }
  std::fprintf(stderr, "%s", report.top_report(15).c_str());
  std::fprintf(stderr, "profile: %" PRIu64 " sample(s) at %d Hz -> %s\n",
               report.samples, report.rate_hz, path_.c_str());
}

}  // namespace zombiescope::obs
