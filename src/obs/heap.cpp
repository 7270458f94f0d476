#include "obs/heap.hpp"

#include <algorithm>
#include <cerrno>
#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <cstring>

#include "netbase/json.hpp"
#include "obs/metrics.hpp"

#include <cxxabi.h>
#include <dlfcn.h>
#include <pthread.h>

#include <atomic>
#include <chrono>
#include <map>
#include <mutex>
#include <new>
#include <unordered_map>
#include <unordered_set>
#include <vector>

// Interposition wants glibc's __libc_malloc family as the backing
// allocator (no dlsym bootstrap problem) and must never compete with a
// sanitizer runtime, which interposes malloc itself. Sanitized builds
// therefore compile the strong-symbol overrides out entirely; the
// runtime check in interposition_available() additionally catches a
// sanitizer runtime linked into a binary whose heap.cpp was compiled
// clean (weak __asan/__tsan/__msan symbols resolve non-null).
#if defined(__has_feature)
#if __has_feature(address_sanitizer) || __has_feature(thread_sanitizer) || \
    __has_feature(memory_sanitizer) || __has_feature(leak_sanitizer)
#define ZS_HEAP_UNDER_SANITIZER 1
#endif
#endif
#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
#define ZS_HEAP_UNDER_SANITIZER 1
#endif
#ifndef ZS_HEAP_UNDER_SANITIZER
#define ZS_HEAP_UNDER_SANITIZER 0
#endif

#if defined(__GLIBC__) && defined(__linux__) && !ZS_HEAP_UNDER_SANITIZER
#define ZS_HEAP_INTERPOSE 1
#else
#define ZS_HEAP_INTERPOSE 0
#endif

// Weak references to the sanitizer runtimes' init entry points: when a
// sanitizer runtime is linked anywhere in the process these resolve
// non-null and zsheap refuses to start (DESIGN.md §7).
extern "C" {
__attribute__((weak)) void __asan_init();
__attribute__((weak)) void __tsan_init();
__attribute__((weak)) void __msan_init();
}

#if ZS_HEAP_INTERPOSE
#include <malloc.h>  // malloc_usable_size

// glibc's public backing allocator, callable from inside the
// interposed symbols without recursing through them.
extern "C" {
void* __libc_malloc(std::size_t size);
void __libc_free(void* ptr);
void* __libc_calloc(std::size_t n, std::size_t size);
void* __libc_realloc(void* ptr, std::size_t size);
void* __libc_memalign(std::size_t alignment, std::size_t size);
}
#endif

// The frame-pointer walk deliberately reads raw stack memory
// (bounds-checked against the thread's stack segment); keep the
// sanitizers out of it like prof.cpp does.
#if defined(__GNUC__) || defined(__clang__)
#define ZS_HEAP_NO_SANITIZE \
  __attribute__((no_sanitize("address", "thread", "undefined")))
#else
#define ZS_HEAP_NO_SANITIZE
#endif

namespace zombiescope::obs {

namespace {

std::string heap_format_double(double v) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.4f", v);
  return buf;
}

/// The size-class histogram's JSON/report label for class i: its upper
/// bound in bytes, "big" for the overflow class.
std::string size_class_label(std::size_t i) {
  if (i + 1 >= kHeapSizeClasses) return "big";
  return std::to_string(std::size_t{16} << i);
}

}  // namespace

// ---------------------------------------------------------------------------
// Report rendering (pure data).

std::string HeapReport::to_folded() const {
  std::string out;
  for (const HeapSite& site : top_sites) {
    out += site.stack;
    out += ' ';
    out += std::to_string(site.bytes);
    out += '\n';
  }
  return out;
}

std::string HeapReport::top_report(std::size_t n) const {
  std::string out;
  char buf[256];
  std::snprintf(buf, sizeof(buf),
                "== zsheap: %" PRIu64 " alloc(s), %" PRIu64
                " bytes over %.2f s (peak live +%" PRIu64 " bytes, %" PRIu64
                " sampled stacks, %" PRIu64 " dropped)\n",
                allocs, total_bytes, duration_s, peak_live_bytes, samples,
                dropped);
  out += buf;
  if (!span_bytes.empty()) {
    out += "== per-span allocation shares (exhaustive)\n";
    std::vector<std::pair<std::string, HeapSpanAlloc>> spans(span_bytes.begin(),
                                                             span_bytes.end());
    std::sort(spans.begin(), spans.end(), [](const auto& a, const auto& b) {
      return a.second.bytes > b.second.bytes;
    });
    for (const auto& [name, alloc] : spans) {
      const double share = total_bytes == 0
                               ? 0.0
                               : static_cast<double>(alloc.bytes) /
                                     static_cast<double>(total_bytes);
      std::snprintf(buf, sizeof(buf),
                    "  %6.2f%%  %14" PRIu64 " B  %10" PRIu64 "  %s\n",
                    100.0 * share, alloc.bytes, alloc.allocs, name.c_str());
      out += buf;
    }
  }
  if (!top_sites.empty()) {
    std::snprintf(buf, sizeof(buf),
                  "== top allocation sites (1-in-%" PRIu64
                  " sampled bytes / allocs)\n",
                  sample_every);
    out += buf;
    std::size_t shown = 0;
    for (const HeapSite& site : top_sites) {
      if (++shown > n) break;
      const double share = sampled_bytes == 0
                               ? 0.0
                               : static_cast<double>(site.bytes) /
                                     static_cast<double>(sampled_bytes);
      std::snprintf(buf, sizeof(buf),
                    "  %6.2f%%  %12" PRIu64 " B  %8" PRIu64 "  %s\n",
                    100.0 * share, site.bytes, site.allocs, site.stack.c_str());
      out += buf;
    }
  }
  return out;
}

std::string HeapReport::to_json(std::size_t top_n) const {
  std::string out = "{\"schema\": \"zsheap-v1\"";
  out += ", \"valid\": " + std::string(valid ? "true" : "false");
  out += ", \"duration_s\": " + heap_format_double(duration_s);
  out += ", \"sample_every\": " + std::to_string(sample_every);
  out += ", \"total_bytes\": " + std::to_string(total_bytes);
  out += ", \"allocs\": " + std::to_string(allocs);
  out += ", \"frees\": " + std::to_string(frees);
  out += ", \"freed_bytes\": " + std::to_string(freed_bytes);
  out += ", \"live_bytes\": " + std::to_string(live_bytes);
  out += ", \"peak_live_bytes\": " + std::to_string(peak_live_bytes);
  out += ", \"samples\": " + std::to_string(samples);
  out += ", \"sampled_bytes\": " + std::to_string(sampled_bytes);
  out += ", \"dropped\": " + std::to_string(dropped);
  out += ", \"size_class_allocs\": {";
  bool first = true;
  for (std::size_t i = 0; i < kHeapSizeClasses; ++i) {
    if (size_class_allocs[i] == 0) continue;
    if (!first) out += ", ";
    first = false;
    out += "\"" + size_class_label(i) +
           "\": " + std::to_string(size_class_allocs[i]);
  }
  out += "}, \"spans\": {";
  first = true;
  for (const auto& [name, alloc] : span_bytes) {
    if (!first) out += ", ";
    first = false;
    out += "\"" + netbase::json_escape(name) +
           "\": {\"bytes\": " + std::to_string(alloc.bytes) +
           ", \"allocs\": " + std::to_string(alloc.allocs) + "}";
  }
  out += "}, \"top_sites\": [";
  std::size_t shown = 0;
  for (const HeapSite& site : top_sites) {
    if (shown >= top_n) break;
    if (shown != 0) out += ", ";
    ++shown;
    out += "{\"stack\": \"" + netbase::json_escape(site.stack) +
           "\", \"bytes\": " + std::to_string(site.bytes) +
           ", \"allocs\": " + std::to_string(site.allocs) + "}";
  }
  out += "]}";
  return out;
}

namespace {

bool sanitizer_runtime_linked() {
  return &__asan_init != nullptr || &__tsan_init != nullptr ||
         &__msan_init != nullptr;
}

/// Interned span names live forever, so attribution cells can key on
/// the pointer and reports can read the text long after the span died.
const char* heap_intern_name(std::string_view name) {
  static std::mutex mutex;
  static auto* names = new std::unordered_set<std::string>();
  std::lock_guard lock(mutex);
  return names->emplace(name).first->c_str();
}

}  // namespace

#if ZS_HEAP_INTERPOSE

// ---------------------------------------------------------------------------
// Thread state and the accounting hooks.

namespace {

constexpr std::size_t kMaxFrames = 32;
constexpr std::size_t kMaxSpanDepth = 16;

/// One sampled allocation: the usable size, the innermost active span,
/// and the raw frame-pointer stack. Trivially copyable so the ring
/// moves plain bytes.
struct RawAllocSample {
  std::uint64_t bytes = 0;
  const char* span = nullptr;
  std::uint32_t n_pcs = 0;
  std::uintptr_t pcs[kMaxFrames];
};

/// SPSC ring: producer is the owner thread's allocation hook, consumer
/// is stop() on whichever thread ends the session. Allocated from
/// __libc_malloc and never freed (a thread may die mid-session).
struct AllocSampleRing {
  RawAllocSample* slots = nullptr;
  std::size_t mask = 0;
  alignas(64) std::atomic<std::uint64_t> head{0};
  alignas(64) std::atomic<std::uint64_t> tail{0};
};

AllocSampleRing* new_sample_ring(std::size_t capacity) {
  std::size_t cap = 64;
  while (cap < capacity) cap <<= 1;
  void* ring_mem = __libc_malloc(sizeof(AllocSampleRing));
  void* slot_mem = __libc_malloc(cap * sizeof(RawAllocSample));
  if (ring_mem == nullptr || slot_mem == nullptr) {
    __libc_free(ring_mem);
    __libc_free(slot_mem);
    return nullptr;
  }
  auto* ring = new (ring_mem) AllocSampleRing();
  ring->slots = static_cast<RawAllocSample*>(slot_mem);
  ring->mask = cap - 1;
  return ring;
}

/// Owner-thread increment of a counter that stop() reads cross-thread:
/// a relaxed load+store pair compiles to a plain add (no lock prefix)
/// because the owner is the only writer — this is what keeps the
/// active-session hot path cheap enough for the <5% bench bound.
inline void bump(std::atomic<std::uint64_t>& cell, std::uint64_t delta) {
  cell.store(cell.load(std::memory_order_relaxed) + delta,
             std::memory_order_relaxed);
}

struct HeapThreadState {
  // Exhaustive counters, owner-written (bump), aggregated by stop().
  std::atomic<std::uint64_t> total_bytes{0};
  std::atomic<std::uint64_t> allocs{0};
  std::atomic<std::uint64_t> frees{0};
  std::atomic<std::uint64_t> freed_bytes{0};
  std::atomic<std::uint64_t> size_class[kHeapSizeClasses] = {};

  // Per-span attribution: a small open-address table keyed by the
  // interned name pointer. Spans are few (tens per process); overflow
  // lands in a catch-all bucket so the table never grows in the hook.
  static constexpr std::size_t kSpanSlots = 64;
  std::atomic<const char*> span_name[kSpanSlots] = {};
  std::atomic<std::uint64_t> span_bytes[kSpanSlots] = {};
  std::atomic<std::uint64_t> span_allocs[kSpanSlots] = {};
  std::atomic<std::uint64_t> span_other_bytes{0};
  std::atomic<std::uint64_t> span_other_allocs{0};
  std::atomic<std::uint64_t> unattributed_bytes{0};
  std::atomic<std::uint64_t> unattributed_allocs{0};

  // Active-span stack, maintained by heap_push_span/heap_pop_span on
  // the owner thread and read by the allocation hook on the same
  // thread — the same two-relaxed-stores discipline as prof.cpp's
  // ThreadState (signal fences order the name store before the depth
  // store, so a mid-push hook never reads a stale name).
  const char* span_stack[kMaxSpanDepth] = {};
  std::atomic<std::uint32_t> span_depth{0};

  // 1-in-N stack sampling.
  std::atomic<std::uint64_t> countdown{0};
  std::atomic<AllocSampleRing*> ring{nullptr};

  // Stack segment bounds for the frame-pointer walk.
  std::uintptr_t stack_lo = 0;
  std::uintptr_t stack_hi = 0;
};

// Every thread that ever touched the profiler. Entries (and their
// rings) are never freed: a hook may race a thread exiting, so
// reclamation would be unsound; the leak is a few KB per thread.
std::mutex g_heap_threads_mutex;
std::vector<HeapThreadState*>& heap_thread_registry() {
  static auto* v = new std::vector<HeapThreadState*>();
  return *v;
}

// The hook fast path reads only these. All constant-initialized so an
// allocation before dynamic initialization (dlopen, iostream setup)
// sees a coherent "inactive" state.
constinit std::atomic<bool> g_heap_active{false};
constinit std::atomic<std::uint64_t> g_heap_sample_every{1024};
constinit std::atomic<std::int64_t> g_heap_live{0};
constinit std::atomic<std::uint64_t> g_heap_peak{0};
constinit std::atomic<std::uint64_t> g_heap_sample_drops{0};
std::size_t g_heap_ring_capacity = 4096;  // active session's option

// Reentrancy guard: internal allocations (thread-state setup,
// pthread_getattr_np's /proc read) route through the interposed
// symbols too; the guard keeps them out of the accounting. Plain POD
// thread_locals so first access never allocates.
thread_local bool t_heap_in_hook = false;
thread_local HeapThreadState* t_heap = nullptr;

void heap_thread_stack_bounds(std::uintptr_t& lo, std::uintptr_t& hi) {
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

HeapThreadState* ensure_heap_thread() {
  HeapThreadState* ts = t_heap;
  if (ts != nullptr) return ts;
  const bool saved = t_heap_in_hook;
  t_heap_in_hook = true;
  void* mem = __libc_malloc(sizeof(HeapThreadState));
  if (mem == nullptr) {
    t_heap_in_hook = saved;
    return nullptr;
  }
  ts = new (mem) HeapThreadState();
  heap_thread_stack_bounds(ts->stack_lo, ts->stack_hi);
  ts->countdown.store(g_heap_sample_every.load(std::memory_order_relaxed),
                      std::memory_order_relaxed);
  {
    std::lock_guard lock(g_heap_threads_mutex);
    heap_thread_registry().push_back(ts);
    if (g_heap_active.load(std::memory_order_relaxed))
      ts->ring.store(new_sample_ring(g_heap_ring_capacity),
                     std::memory_order_release);
  }
  t_heap_in_hook = saved;
  t_heap = ts;
  return ts;
}

/// Requested-size histogram class: i covers sizes <= 16 << i, the last
/// class is the overflow bucket.
inline std::size_t size_class_of(std::size_t size) {
  if (size <= 16) return 0;
  const std::size_t bits =
      64u - static_cast<std::size_t>(
                __builtin_clzll(static_cast<unsigned long long>(size - 1)));
  const std::size_t cls = bits - 4;
  return cls < kHeapSizeClasses ? cls : kHeapSizeClasses - 1;
}

/// FP-chain walk from the hook itself — bounds-checked against the
/// thread's stack segment exactly like prof.cpp's walker: every frame
/// must lie inside the segment, be pointer-aligned, and move strictly
/// upward, so a corrupt chain terminates the walk, it cannot fault.
ZS_HEAP_NO_SANITIZE
std::uint32_t heap_capture_stack(const HeapThreadState* ts,
                                 std::uintptr_t* pcs) {
  std::uintptr_t fp =
      reinterpret_cast<std::uintptr_t>(__builtin_frame_address(0));
  const std::uintptr_t lo = ts->stack_lo;
  const std::uintptr_t hi = ts->stack_hi;
  std::uint32_t n = 0;
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

/// The innermost active span of the calling thread (nullptr if none) —
/// two relaxed loads mirroring the push side's two relaxed stores.
inline const char* innermost_span(const HeapThreadState* ts) {
  std::uint32_t depth = ts->span_depth.load(std::memory_order_relaxed);
  std::atomic_signal_fence(std::memory_order_acquire);
  if (depth == 0) return nullptr;
  if (depth > kMaxSpanDepth) depth = kMaxSpanDepth;
  return ts->span_stack[depth - 1];
}

void attribute_span(HeapThreadState* ts, const char* span, std::uint64_t bytes) {
  if (span == nullptr) {
    bump(ts->unattributed_bytes, bytes);
    bump(ts->unattributed_allocs, 1);
    return;
  }
  const std::uintptr_t key = reinterpret_cast<std::uintptr_t>(span);
  std::size_t slot = (key >> 4) * 0x9E3779B97F4A7C15ull >>
                     (64 - 6);  // 2^6 == kSpanSlots
  for (std::size_t probe = 0; probe < HeapThreadState::kSpanSlots; ++probe) {
    const char* existing = ts->span_name[slot].load(std::memory_order_relaxed);
    if (existing == nullptr) {
      // Owner thread is the only writer; the relaxed store publishes
      // the slot for stop()'s cross-thread read.
      ts->span_name[slot].store(span, std::memory_order_relaxed);
      existing = span;
    }
    if (existing == span) {
      bump(ts->span_bytes[slot], bytes);
      bump(ts->span_allocs[slot], 1);
      return;
    }
    slot = (slot + 1) & (HeapThreadState::kSpanSlots - 1);
  }
  bump(ts->span_other_bytes, bytes);
  bump(ts->span_other_allocs, 1);
}

ZS_HEAP_NO_SANITIZE
void maybe_sample(HeapThreadState* ts, const char* span, std::uint64_t bytes) {
  const std::uint64_t countdown =
      ts->countdown.load(std::memory_order_relaxed);
  if (countdown == 0) return;  // sampling disabled (sample_every == 0)
  if (countdown > 1) {
    ts->countdown.store(countdown - 1, std::memory_order_relaxed);
    return;
  }
  ts->countdown.store(g_heap_sample_every.load(std::memory_order_relaxed),
                      std::memory_order_relaxed);
  AllocSampleRing* ring = ts->ring.load(std::memory_order_acquire);
  if (ring == nullptr) {
    g_heap_sample_drops.fetch_add(1, std::memory_order_relaxed);
    return;
  }
  const std::uint64_t head = ring->head.load(std::memory_order_relaxed);
  const std::uint64_t tail = ring->tail.load(std::memory_order_acquire);
  if (head - tail > ring->mask) {  // full: drop, never wait
    g_heap_sample_drops.fetch_add(1, std::memory_order_relaxed);
    return;
  }
  RawAllocSample& sample = ring->slots[head & ring->mask];
  sample.bytes = bytes;
  sample.span = span;
  sample.n_pcs = heap_capture_stack(ts, sample.pcs);
  ring->head.store(head + 1, std::memory_order_release);
}

}  // namespace

namespace heap_detail {

/// The accounting hook behind every interposed allocation entry point.
/// Inactive sessions cost one relaxed load; active ones do per-thread
/// plain-add counters plus one global fetch_add for live/peak.
void note_alloc(void* ptr, std::size_t requested) noexcept {
  if (!g_heap_active.load(std::memory_order_relaxed)) return;
  if (ptr == nullptr || t_heap_in_hook) return;
  HeapThreadState* ts = ensure_heap_thread();
  if (ts == nullptr) return;
  t_heap_in_hook = true;
  const std::uint64_t usable = malloc_usable_size(ptr);
  bump(ts->total_bytes, usable);
  bump(ts->allocs, 1);
  bump(ts->size_class[size_class_of(requested)], 1);
  const char* span = innermost_span(ts);
  attribute_span(ts, span, usable);
  const std::int64_t live =
      g_heap_live.fetch_add(static_cast<std::int64_t>(usable),
                            std::memory_order_relaxed) +
      static_cast<std::int64_t>(usable);
  if (live > 0) {
    const auto live_u = static_cast<std::uint64_t>(live);
    std::uint64_t peak = g_heap_peak.load(std::memory_order_relaxed);
    while (live_u > peak && !g_heap_peak.compare_exchange_weak(
                                peak, live_u, std::memory_order_relaxed)) {
    }
  }
  maybe_sample(ts, span, usable);
  t_heap_in_hook = false;
}

void note_free_bytes(std::size_t usable) noexcept {
  if (!g_heap_active.load(std::memory_order_relaxed)) return;
  if (t_heap_in_hook) return;
  HeapThreadState* ts = ensure_heap_thread();
  if (ts == nullptr) return;
  t_heap_in_hook = true;
  bump(ts->frees, 1);
  bump(ts->freed_bytes, usable);
  g_heap_live.fetch_sub(static_cast<std::int64_t>(usable),
                        std::memory_order_relaxed);
  t_heap_in_hook = false;
}

void note_free(void* ptr) noexcept {
  if (ptr == nullptr) return;
  if (!g_heap_active.load(std::memory_order_relaxed)) return;
  note_free_bytes(malloc_usable_size(ptr));
}

bool active() noexcept {
  return g_heap_active.load(std::memory_order_relaxed);
}

}  // namespace heap_detail

// ---------------------------------------------------------------------------
// Span hooks (called from obs/trace.cpp while a session is active).

bool heap_attribution_active() noexcept {
  return g_heap_active.load(std::memory_order_relaxed);
}

const char* heap_intern(std::string_view name) {
  return heap_intern_name(name);
}

void heap_push_span(const char* interned_name) noexcept {
  HeapThreadState* ts = ensure_heap_thread();
  if (ts == nullptr) return;
  const std::uint32_t depth = ts->span_depth.load(std::memory_order_relaxed);
  if (depth < kMaxSpanDepth) ts->span_stack[depth] = interned_name;
  // The name store must be visible before the depth covers it; the
  // reader is the allocation hook on this same thread, so a signal
  // fence suffices (prof.cpp's SIGPROF discipline, reused verbatim).
  std::atomic_signal_fence(std::memory_order_release);
  ts->span_depth.store(depth + 1, std::memory_order_relaxed);
}

void heap_pop_span() noexcept {
  HeapThreadState* ts = t_heap;
  if (ts == nullptr) return;
  const std::uint32_t depth = ts->span_depth.load(std::memory_order_relaxed);
  if (depth > 0) ts->span_depth.store(depth - 1, std::memory_order_relaxed);
}

// ---------------------------------------------------------------------------
// Session control, aggregation, symbolization.

namespace {

struct HeapSession {
  bool running = false;
  HeapProfilerOptions options;
  std::chrono::steady_clock::time_point started_at;
};

std::mutex g_heap_control_mutex;  // serializes start()/stop()
HeapSession& heap_session() {
  static auto* s = new HeapSession();
  return *s;
}

/// Sum of the exhaustive per-thread counters (cross-thread relaxed
/// reads of owner-written cells; exact once the session is stopped).
struct HeapTotals {
  std::uint64_t total_bytes = 0;
  std::uint64_t allocs = 0;
  std::uint64_t frees = 0;
  std::uint64_t freed_bytes = 0;
  std::array<std::uint64_t, kHeapSizeClasses> size_class_allocs{};
  std::map<std::string, HeapSpanAlloc> span_bytes;
};

HeapTotals aggregate_totals() {
  HeapTotals totals;
  std::vector<HeapThreadState*> threads;
  {
    std::lock_guard lock(g_heap_threads_mutex);
    threads = heap_thread_registry();
  }
  std::uint64_t other_bytes = 0;
  std::uint64_t other_allocs = 0;
  std::uint64_t none_bytes = 0;
  std::uint64_t none_allocs = 0;
  for (const HeapThreadState* ts : threads) {
    totals.total_bytes += ts->total_bytes.load(std::memory_order_relaxed);
    totals.allocs += ts->allocs.load(std::memory_order_relaxed);
    totals.frees += ts->frees.load(std::memory_order_relaxed);
    totals.freed_bytes += ts->freed_bytes.load(std::memory_order_relaxed);
    for (std::size_t i = 0; i < kHeapSizeClasses; ++i)
      totals.size_class_allocs[i] +=
          ts->size_class[i].load(std::memory_order_relaxed);
    for (std::size_t i = 0; i < HeapThreadState::kSpanSlots; ++i) {
      const char* name = ts->span_name[i].load(std::memory_order_relaxed);
      if (name == nullptr) continue;
      HeapSpanAlloc& cell = totals.span_bytes[name];
      cell.bytes += ts->span_bytes[i].load(std::memory_order_relaxed);
      cell.allocs += ts->span_allocs[i].load(std::memory_order_relaxed);
    }
    other_bytes += ts->span_other_bytes.load(std::memory_order_relaxed);
    other_allocs += ts->span_other_allocs.load(std::memory_order_relaxed);
    none_bytes += ts->unattributed_bytes.load(std::memory_order_relaxed);
    none_allocs += ts->unattributed_allocs.load(std::memory_order_relaxed);
  }
  if (other_allocs != 0)
    totals.span_bytes["(other spans)"] = {other_bytes, other_allocs};
  if (none_allocs != 0)
    totals.span_bytes["(no span)"] = {none_bytes, none_allocs};
  return totals;
}

std::string heap_symbolize(
    std::uintptr_t pc, std::unordered_map<std::uintptr_t, std::string>& cache) {
  const auto it = cache.find(pc);
  if (it != cache.end()) return it->second;
  std::string name;
  Dl_info info{};
  if (dladdr(reinterpret_cast<void*>(pc), &info) != 0 &&
      info.dli_sname != nullptr) {
    int status = 1;
    char* demangled =
        abi::__cxa_demangle(info.dli_sname, nullptr, nullptr, &status);
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

/// Drains every ring and folds the samples into symbolized sites.
void drain_and_fold(HeapReport& report) {
  std::vector<HeapThreadState*> threads;
  {
    std::lock_guard lock(g_heap_threads_mutex);
    threads = heap_thread_registry();
  }
  // Aggregate by raw (span pointer, pcs) first: symbolization is
  // expensive and identical stacks collapse before it runs.
  using StackKey = std::vector<std::uintptr_t>;
  std::map<StackKey, std::pair<std::uint64_t, std::uint64_t>> aggregate;
  StackKey key;
  for (HeapThreadState* ts : threads) {
    AllocSampleRing* ring = ts->ring.load(std::memory_order_acquire);
    if (ring == nullptr) continue;
    std::uint64_t tail = ring->tail.load(std::memory_order_relaxed);
    const std::uint64_t head = ring->head.load(std::memory_order_acquire);
    while (tail != head) {
      const RawAllocSample& sample = ring->slots[tail & ring->mask];
      key.clear();
      key.reserve(1 + sample.n_pcs);
      key.push_back(reinterpret_cast<std::uintptr_t>(sample.span));
      for (std::uint32_t i = 0; i < sample.n_pcs; ++i)
        key.push_back(sample.pcs[i]);
      auto& cell = aggregate[key];
      cell.first += sample.bytes;
      cell.second += 1;
      report.samples += 1;
      report.sampled_bytes += sample.bytes;
      ++tail;
      ring->tail.store(tail, std::memory_order_release);
    }
  }
  std::unordered_map<std::uintptr_t, std::string> symbol_cache;
  std::map<std::string, std::pair<std::uint64_t, std::uint64_t>> folded;
  for (const auto& [k, cell] : aggregate) {
    // Root-first: the span, then the frames (captured leaf-first).
    std::string stack;
    if (k[0] != 0) stack = reinterpret_cast<const char*>(k[0]);
    const std::size_t n_pcs = k.size() - 1;
    for (std::size_t i = n_pcs; i-- > 0;) {
      if (!stack.empty()) stack += ';';
      stack += heap_symbolize(k[1 + i], symbol_cache);
    }
    if (stack.empty()) stack = "(unknown)";
    auto& f = folded[stack];
    f.first += cell.first;
    f.second += cell.second;
  }
  report.top_sites.reserve(folded.size());
  for (const auto& [stack, cell] : folded)
    report.top_sites.push_back({stack, cell.first, cell.second});
  std::sort(report.top_sites.begin(), report.top_sites.end(),
            [](const HeapSite& a, const HeapSite& b) {
              if (a.bytes != b.bytes) return a.bytes > b.bytes;
              return a.stack < b.stack;
            });
}

}  // namespace

HeapProfiler& HeapProfiler::global() {
  static auto* profiler = new HeapProfiler();
  return *profiler;
}

bool HeapProfiler::interposition_compiled() { return true; }

bool HeapProfiler::interposition_available() {
  return !sanitizer_runtime_linked();
}

bool HeapProfiler::running() const {
  return g_heap_active.load(std::memory_order_relaxed);
}

std::uint64_t HeapProfiler::allocs_observed() const {
  std::uint64_t sum = 0;
  std::lock_guard lock(g_heap_threads_mutex);
  for (const HeapThreadState* ts : heap_thread_registry())
    sum += ts->allocs.load(std::memory_order_relaxed);
  return sum;
}

bool HeapProfiler::start(const HeapProfilerOptions& options) {
  if (!interposition_available()) return false;
  std::lock_guard control(g_heap_control_mutex);
  HeapSession& s = heap_session();
  if (s.running) return false;

  s.options = options;
  g_heap_sample_every.store(options.sample_every, std::memory_order_relaxed);
  g_heap_live.store(0, std::memory_order_relaxed);
  g_heap_peak.store(0, std::memory_order_relaxed);
  g_heap_sample_drops.store(0, std::memory_order_relaxed);

  // Register the calling thread, then zero every known thread's
  // counters and give it a (drained) ring. No hook is active between
  // sessions, so the cross-thread relaxed stores cannot collide with
  // owner writes.
  ensure_heap_thread();
  {
    std::lock_guard lock(g_heap_threads_mutex);
    g_heap_ring_capacity = options.ring_capacity;
    for (HeapThreadState* ts : heap_thread_registry()) {
      ts->total_bytes.store(0, std::memory_order_relaxed);
      ts->allocs.store(0, std::memory_order_relaxed);
      ts->frees.store(0, std::memory_order_relaxed);
      ts->freed_bytes.store(0, std::memory_order_relaxed);
      for (std::size_t i = 0; i < kHeapSizeClasses; ++i)
        ts->size_class[i].store(0, std::memory_order_relaxed);
      for (std::size_t i = 0; i < HeapThreadState::kSpanSlots; ++i) {
        ts->span_name[i].store(nullptr, std::memory_order_relaxed);
        ts->span_bytes[i].store(0, std::memory_order_relaxed);
        ts->span_allocs[i].store(0, std::memory_order_relaxed);
      }
      ts->span_other_bytes.store(0, std::memory_order_relaxed);
      ts->span_other_allocs.store(0, std::memory_order_relaxed);
      ts->unattributed_bytes.store(0, std::memory_order_relaxed);
      ts->unattributed_allocs.store(0, std::memory_order_relaxed);
      ts->countdown.store(options.sample_every, std::memory_order_relaxed);
      AllocSampleRing* ring = ts->ring.load(std::memory_order_relaxed);
      if (ring == nullptr) {
        ts->ring.store(new_sample_ring(g_heap_ring_capacity),
                       std::memory_order_release);
      } else {
        ring->tail.store(ring->head.load(std::memory_order_acquire),
                         std::memory_order_release);
      }
    }
  }

  s.started_at = std::chrono::steady_clock::now();
  s.running = true;
  g_heap_active.store(true, std::memory_order_relaxed);
  return true;
}

HeapReport HeapProfiler::stop() {
  std::lock_guard control(g_heap_control_mutex);
  HeapSession& s = heap_session();
  if (!s.running) return {};

  g_heap_active.store(false, std::memory_order_relaxed);

  HeapReport report;
  report.valid = true;
  report.sample_every = s.options.sample_every;
  report.duration_s = std::chrono::duration<double>(
                          std::chrono::steady_clock::now() - s.started_at)
                          .count();
  const HeapTotals totals = aggregate_totals();
  report.total_bytes = totals.total_bytes;
  report.allocs = totals.allocs;
  report.frees = totals.frees;
  report.freed_bytes = totals.freed_bytes;
  report.size_class_allocs = totals.size_class_allocs;
  report.span_bytes = totals.span_bytes;
  report.live_bytes = g_heap_live.load(std::memory_order_relaxed);
  report.peak_live_bytes = g_heap_peak.load(std::memory_order_relaxed);
  report.dropped = g_heap_sample_drops.load(std::memory_order_relaxed);
  drain_and_fold(report);

  s.running = false;
  heap_publish_metrics();
  return report;
}

void heap_publish_metrics() {
  // Lazily registered gauges (registration allocates; fine in normal
  // context). Gauges, not counters: they snapshot the current/last
  // session rather than a process-lifetime monotone series.
  static const struct Cells {
    Gauge active = Registry::global().gauge("zs_heap_session_active");
    Gauge total_bytes = Registry::global().gauge("zs_heap_total_bytes");
    Gauge allocs = Registry::global().gauge("zs_heap_allocs");
    Gauge frees = Registry::global().gauge("zs_heap_frees");
    Gauge freed_bytes = Registry::global().gauge("zs_heap_freed_bytes");
    Gauge live_bytes = Registry::global().gauge("zs_heap_live_bytes");
    Gauge peak_live = Registry::global().gauge("zs_heap_peak_live_bytes");
    Gauge drops = Registry::global().gauge("zs_heap_sample_drops");
  } cells;
  const HeapTotals totals = aggregate_totals();
  cells.active.set(g_heap_active.load(std::memory_order_relaxed) ? 1 : 0);
  cells.total_bytes.set(static_cast<std::int64_t>(totals.total_bytes));
  cells.allocs.set(static_cast<std::int64_t>(totals.allocs));
  cells.frees.set(static_cast<std::int64_t>(totals.frees));
  cells.freed_bytes.set(static_cast<std::int64_t>(totals.freed_bytes));
  cells.live_bytes.set(g_heap_live.load(std::memory_order_relaxed));
  cells.peak_live.set(
      static_cast<std::int64_t>(g_heap_peak.load(std::memory_order_relaxed)));
  cells.drops.set(static_cast<std::int64_t>(
      g_heap_sample_drops.load(std::memory_order_relaxed)));
}

}  // namespace zombiescope::obs

// ---------------------------------------------------------------------------
// The interposed allocator symbols. Strong definitions in any binary
// linking zs_obs override glibc's weak malloc family process-wide; the
// backing allocator is always __libc_*, so pointers stay exchangeable
// with code that never heard of zsheap.

extern "C" void* malloc(std::size_t size) noexcept {
  void* ptr = __libc_malloc(size);
  zombiescope::obs::heap_detail::note_alloc(ptr, size);
  return ptr;
}

extern "C" void free(void* ptr) noexcept {
  zombiescope::obs::heap_detail::note_free(ptr);
  __libc_free(ptr);
}

extern "C" void* calloc(std::size_t n, std::size_t size) noexcept {
  void* ptr = __libc_calloc(n, size);
  zombiescope::obs::heap_detail::note_alloc(ptr, n * size);
  return ptr;
}

extern "C" void* realloc(void* ptr, std::size_t size) noexcept {
  const std::size_t old_usable =
      (ptr != nullptr && zombiescope::obs::heap_detail::active())
          ? malloc_usable_size(ptr)
          : 0;
  void* out = __libc_realloc(ptr, size);
  // The old block is gone on success, and also on realloc(p, 0).
  if (ptr != nullptr && (out != nullptr || size == 0))
    zombiescope::obs::heap_detail::note_free_bytes(old_usable);
  if (out != nullptr && size != 0)
    zombiescope::obs::heap_detail::note_alloc(out, size);
  return out;
}

extern "C" void* aligned_alloc(std::size_t alignment, std::size_t size) noexcept {
  void* ptr = __libc_memalign(alignment, size);
  zombiescope::obs::heap_detail::note_alloc(ptr, size);
  return ptr;
}

extern "C" int posix_memalign(void** out, std::size_t alignment,
                              std::size_t size) noexcept {
  if (alignment < sizeof(void*) || (alignment & (alignment - 1)) != 0)
    return EINVAL;
  void* ptr = __libc_memalign(alignment, size);
  if (ptr == nullptr) return ENOMEM;
  zombiescope::obs::heap_detail::note_alloc(ptr, size);
  *out = ptr;
  return 0;
}

// Replaceable operator new/delete, forwarded through the interposed C
// entry points so accounting stays single-path (malloc notes the
// allocation; operator new adds only the bad_alloc contract).

void* operator new(std::size_t size) {
  void* ptr = malloc(size == 0 ? 1 : size);
  if (ptr == nullptr) throw std::bad_alloc();
  return ptr;
}

void* operator new[](std::size_t size) {
  void* ptr = malloc(size == 0 ? 1 : size);
  if (ptr == nullptr) throw std::bad_alloc();
  return ptr;
}

void* operator new(std::size_t size, const std::nothrow_t&) noexcept {
  return malloc(size == 0 ? 1 : size);
}

void* operator new[](std::size_t size, const std::nothrow_t&) noexcept {
  return malloc(size == 0 ? 1 : size);
}

void* operator new(std::size_t size, std::align_val_t alignment) {
  void* ptr = __libc_memalign(static_cast<std::size_t>(alignment),
                              size == 0 ? 1 : size);
  if (ptr == nullptr) throw std::bad_alloc();
  zombiescope::obs::heap_detail::note_alloc(ptr, size);
  return ptr;
}

void* operator new[](std::size_t size, std::align_val_t alignment) {
  void* ptr = __libc_memalign(static_cast<std::size_t>(alignment),
                              size == 0 ? 1 : size);
  if (ptr == nullptr) throw std::bad_alloc();
  zombiescope::obs::heap_detail::note_alloc(ptr, size);
  return ptr;
}

void operator delete(void* ptr) noexcept { free(ptr); }
void operator delete[](void* ptr) noexcept { free(ptr); }
void operator delete(void* ptr, std::size_t) noexcept { free(ptr); }
void operator delete[](void* ptr, std::size_t) noexcept { free(ptr); }
void operator delete(void* ptr, const std::nothrow_t&) noexcept { free(ptr); }
void operator delete[](void* ptr, const std::nothrow_t&) noexcept { free(ptr); }
void operator delete(void* ptr, std::align_val_t) noexcept { free(ptr); }
void operator delete[](void* ptr, std::align_val_t) noexcept { free(ptr); }
void operator delete(void* ptr, std::size_t, std::align_val_t) noexcept {
  free(ptr);
}
void operator delete[](void* ptr, std::size_t, std::align_val_t) noexcept {
  free(ptr);
}

namespace zombiescope::obs {

#else  // no interposition: a sanitizer build or a non-glibc platform

// The sanitizer owns malloc; zsheap's hooks stay inert so the two
// never fight (DESIGN.md §7).

bool heap_attribution_active() noexcept { return false; }
const char* heap_intern(std::string_view name) { return heap_intern_name(name); }
void heap_push_span(const char*) noexcept {}
void heap_pop_span() noexcept {}

HeapProfiler& HeapProfiler::global() {
  static auto* profiler = new HeapProfiler();
  return *profiler;
}
bool HeapProfiler::interposition_compiled() { return false; }
bool HeapProfiler::interposition_available() { return false; }
bool HeapProfiler::start(const HeapProfilerOptions&) { return false; }
HeapReport HeapProfiler::stop() { return {}; }
bool HeapProfiler::running() const { return false; }
std::uint64_t HeapProfiler::allocs_observed() const { return 0; }
void heap_publish_metrics() {}

#endif  // ZS_HEAP_INTERPOSE

ScopedHeapSession::ScopedHeapSession(std::string path)
    : path_(std::move(path)) {
  if (path_.empty()) return;
  if (!HeapProfiler::interposition_available()) {
    std::fprintf(stderr,
                 "--heap-out ignored: allocator interposition unavailable "
                 "(sanitizer build)\n");
    return;
  }
  active_ = HeapProfiler::global().start();
  if (!active_)
    std::fprintf(stderr, "--heap-out ignored: cannot start heap profiler "
                         "(already running?)\n");
}

ScopedHeapSession::~ScopedHeapSession() {
  if (!active_) return;
  const HeapReport report = HeapProfiler::global().stop();
  std::FILE* out = std::fopen(path_.c_str(), "wb");
  if (out == nullptr) {
    std::fprintf(stderr, "error: cannot write heap profile to %s\n",
                 path_.c_str());
  } else {
    const std::string json = report.to_json();
    std::fwrite(json.data(), 1, json.size(), out);
    std::fclose(out);
  }
  std::fprintf(stderr, "%s", report.top_report(15).c_str());
  std::fprintf(stderr,
               "heap profile: %" PRIu64 " alloc(s), %" PRIu64
               " bytes -> %s\n",
               report.allocs, report.total_bytes, path_.c_str());
}

}  // namespace zombiescope::obs
