// zsheap allocation profiler tests. Session tests need the interposed
// allocator, which steps aside under sanitizers (ASan/TSan own malloc)
// — those skip there, while the shape/rendering tests run everywhere,
// so the sanitizer tier-1 legs still exercise this binary.

#include <dlfcn.h>
#include <gtest/gtest.h>

#include <cstring>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "obs/export.hpp"
#include "obs/heap.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"

namespace obs = zombiescope::obs;

namespace {

// Keeps allocations observable: the optimizer cannot elide a store to
// a volatile global.
volatile char g_sink = 0;

void touch(char* p, std::size_t n) {
  std::memset(p, 0x5a, n);
  g_sink = p[n / 2];
}

/// Allocates `count` blocks of `size` bytes and frees them all.
void churn(std::size_t count, std::size_t size) {
  std::vector<std::unique_ptr<char[]>> blocks;
  blocks.reserve(count);
  for (std::size_t i = 0; i < count; ++i) {
    blocks.emplace_back(new char[size]);
    touch(blocks.back().get(), size);
  }
  blocks.clear();
}

bool sessions_available() {
  return obs::HeapProfiler::interposition_available();
}

#define SKIP_WITHOUT_INTERPOSITION()                                     \
  do {                                                                   \
    if (!sessions_available())                                           \
      GTEST_SKIP() << "allocator interposition unavailable (sanitizer " \
                      "or compiled-out build)";                          \
  } while (0)

TEST(ObsHeap, InterposedSymbolsLiveInThisBinary) {
  SKIP_WITHOUT_INTERPOSITION();
  // With interposition available, the global-scope malloc must
  // resolve to this executable's strong override, not to libc.
  void* addr = dlsym(RTLD_DEFAULT, "malloc");
  ASSERT_NE(addr, nullptr);
  Dl_info info{};
  ASSERT_NE(dladdr(addr, &info), 0);
  ASSERT_NE(info.dli_fname, nullptr);
  EXPECT_EQ(std::strstr(info.dli_fname, "libc"), nullptr)
      << "malloc resolves to " << info.dli_fname
      << " — the interposed override is missing";
}

TEST(ObsHeap, SessionCountsAllocationsAndFrees) {
  SKIP_WITHOUT_INTERPOSITION();
  obs::HeapProfiler& profiler = obs::HeapProfiler::global();
  ASSERT_TRUE(profiler.start());
  EXPECT_TRUE(profiler.running());
  constexpr std::size_t kCount = 500;
  constexpr std::size_t kSize = 1000;
  churn(kCount, kSize);
  EXPECT_GE(profiler.allocs_observed(), kCount);
  const obs::HeapReport report = profiler.stop();
  EXPECT_FALSE(profiler.running());
  ASSERT_TRUE(report.valid);
  EXPECT_GE(report.allocs, kCount);
  EXPECT_GE(report.total_bytes, kCount * kSize);
  EXPECT_GE(report.frees, kCount);
  EXPECT_GE(report.freed_bytes, kCount * kSize);
  EXPECT_GT(report.duration_s, 0.0);
  // 1000-byte requests land in the <=1024 class (index 6).
  EXPECT_GE(report.size_class_allocs[6], kCount);
}

TEST(ObsHeap, SecondStartFailsWhileRunning) {
  SKIP_WITHOUT_INTERPOSITION();
  obs::HeapProfiler& profiler = obs::HeapProfiler::global();
  ASSERT_TRUE(profiler.start());
  EXPECT_FALSE(profiler.start());
  EXPECT_TRUE(profiler.stop().valid);
  EXPECT_FALSE(profiler.stop().valid);  // not running anymore
}

TEST(ObsHeap, PeakTracksLiveHighWaterMark) {
  SKIP_WITHOUT_INTERPOSITION();
  obs::HeapProfiler& profiler = obs::HeapProfiler::global();
  ASSERT_TRUE(profiler.start());
  constexpr std::size_t kBig = 8u << 20;  // 8 MiB, dwarfs test noise
  {
    std::unique_ptr<char[]> block(new char[kBig]);
    touch(block.get(), kBig);
  }
  const obs::HeapReport report = profiler.stop();
  ASSERT_TRUE(report.valid);
  EXPECT_GE(report.peak_live_bytes, kBig);
  // The block was freed inside the session, so the net live delta must
  // sit well below the peak.
  EXPECT_LT(report.live_bytes, static_cast<std::int64_t>(kBig));
}

TEST(ObsHeap, SpansAttributeAllocations) {
  SKIP_WITHOUT_INTERPOSITION();
  obs::HeapProfiler& profiler = obs::HeapProfiler::global();
  ASSERT_TRUE(profiler.start());
  constexpr std::size_t kCount = 200;
  constexpr std::size_t kSize = 4096;
  {
    obs::ScopedSpan outer("heap_test.outer");
    churn(kCount, kSize);
    {
      obs::ScopedSpan inner("heap_test.inner");
      churn(kCount, kSize);
    }
  }
  const obs::HeapReport report = profiler.stop();
  ASSERT_TRUE(report.valid);
  const auto outer = report.span_bytes.find("heap_test.outer");
  const auto inner = report.span_bytes.find("heap_test.inner");
  ASSERT_NE(outer, report.span_bytes.end());
  ASSERT_NE(inner, report.span_bytes.end());
  // Attribution is innermost-wins: each span saw its own churn.
  EXPECT_GE(outer->second.bytes, kCount * kSize);
  EXPECT_GE(outer->second.allocs, kCount);
  EXPECT_GE(inner->second.bytes, kCount * kSize);
  EXPECT_GE(inner->second.allocs, kCount);
}

TEST(ObsHeap, SpansAttributeAcrossThreads) {
  SKIP_WITHOUT_INTERPOSITION();
  obs::HeapProfiler& profiler = obs::HeapProfiler::global();
  ASSERT_TRUE(profiler.start());
  constexpr std::size_t kCount = 300;
  constexpr std::size_t kSize = 512;
  std::vector<std::thread> workers;
  for (int t = 0; t < 4; ++t) {
    workers.emplace_back([] {
      obs::ScopedSpan span("heap_test.worker");
      churn(kCount, kSize);
    });
  }
  for (auto& w : workers) w.join();
  const obs::HeapReport report = profiler.stop();
  ASSERT_TRUE(report.valid);
  const auto it = report.span_bytes.find("heap_test.worker");
  ASSERT_NE(it, report.span_bytes.end());
  EXPECT_GE(it->second.allocs, 4 * kCount);
  EXPECT_GE(it->second.bytes, 4 * kCount * kSize);
}

TEST(ObsHeap, SamplerCapturesAllocationSites) {
  SKIP_WITHOUT_INTERPOSITION();
  obs::HeapProfiler& profiler = obs::HeapProfiler::global();
  obs::HeapProfilerOptions options;
  options.sample_every = 1;  // sample everything: sites must appear
  ASSERT_TRUE(profiler.start(options));
  {
    obs::ScopedSpan span("heap_test.sampled");
    churn(100, 2048);
  }
  const obs::HeapReport report = profiler.stop();
  ASSERT_TRUE(report.valid);
  EXPECT_GT(report.samples, 0u);
  EXPECT_GT(report.sampled_bytes, 0u);
  ASSERT_FALSE(report.top_sites.empty());
  // Some site must carry the active span as its root and real bytes.
  bool saw_span_rooted = false;
  for (const auto& site : report.top_sites) {
    EXPECT_GT(site.bytes, 0u);
    EXPECT_GT(site.allocs, 0u);
    if (site.stack.rfind("heap_test.sampled", 0) == 0) saw_span_rooted = true;
  }
  EXPECT_TRUE(saw_span_rooted);
  // Folded output is one "stack bytes" line per site.
  const std::string folded = report.to_folded();
  EXPECT_NE(folded.find("heap_test.sampled"), std::string::npos);
}

TEST(ObsHeap, SamplingDisabledWithZeroRate) {
  SKIP_WITHOUT_INTERPOSITION();
  obs::HeapProfiler& profiler = obs::HeapProfiler::global();
  obs::HeapProfilerOptions options;
  options.sample_every = 0;
  ASSERT_TRUE(profiler.start(options));
  churn(100, 1024);
  const obs::HeapReport report = profiler.stop();
  ASSERT_TRUE(report.valid);
  EXPECT_EQ(report.samples, 0u);
  EXPECT_TRUE(report.top_sites.empty());
  EXPECT_GE(report.allocs, 100u);  // exhaustive counters unaffected
}

TEST(ObsHeap, ScopedSessionWritesJsonReport) {
  SKIP_WITHOUT_INTERPOSITION();
  const std::string path = ::testing::TempDir() + "/zs_heap_session.json";
  {
    obs::ScopedHeapSession session(path);
    ASSERT_TRUE(session.active());
    obs::ScopedSpan span("heap_test.scoped");
    churn(50, 1024);
  }
  std::FILE* in = std::fopen(path.c_str(), "rb");
  ASSERT_NE(in, nullptr);
  std::string json;
  char buf[4096];
  for (std::size_t n; (n = std::fread(buf, 1, sizeof(buf), in)) > 0;)
    json.append(buf, n);
  std::fclose(in);
  EXPECT_NE(json.find("\"schema\": \"zsheap-v1\""), std::string::npos);
  EXPECT_NE(json.find("\"valid\": true"), std::string::npos);
  EXPECT_NE(json.find("\"total_bytes\": "), std::string::npos);
  EXPECT_NE(json.find("heap_test.scoped"), std::string::npos);
  std::remove(path.c_str());
}

TEST(ObsHeap, PublishesRegistryGauges) {
  SKIP_WITHOUT_INTERPOSITION();
  obs::HeapProfiler& profiler = obs::HeapProfiler::global();
  ASSERT_TRUE(profiler.start());
  churn(50, 256);
  profiler.stop();  // stop() publishes the zs_heap_* gauges
  const std::string prom =
      obs::to_prometheus(obs::Registry::global().snapshot());
  EXPECT_NE(prom.find("zs_heap_total_bytes"), std::string::npos);
  EXPECT_NE(prom.find("zs_heap_allocs"), std::string::npos);
  EXPECT_NE(prom.find("zs_heap_peak_live_bytes"), std::string::npos);
}

// --- pure-rendering tests (run under sanitizers too) ----------------

TEST(ObsHeapReport, JsonShape) {
  obs::HeapReport report;
  report.valid = true;
  report.duration_s = 1.5;
  report.sample_every = 1024;
  report.total_bytes = 4096;
  report.allocs = 4;
  report.frees = 2;
  report.freed_bytes = 2048;
  report.live_bytes = -128;  // negative net delta must render
  report.peak_live_bytes = 4096;
  report.samples = 2;
  report.sampled_bytes = 2048;
  report.size_class_allocs[0] = 1;
  report.size_class_allocs[obs::kHeapSizeClasses - 1] = 3;
  report.span_bytes["decode"] = {4000, 3};
  report.top_sites.push_back({"decode;mrt::read", 2048, 2});
  const std::string json = report.to_json();
  EXPECT_NE(json.find("\"schema\": \"zsheap-v1\""), std::string::npos);
  EXPECT_NE(json.find("\"total_bytes\": 4096"), std::string::npos);
  EXPECT_NE(json.find("\"live_bytes\": -128"), std::string::npos);
  EXPECT_NE(json.find("\"16\": 1"), std::string::npos);
  EXPECT_NE(json.find("\"big\": 3"), std::string::npos);
  EXPECT_NE(json.find("\"decode\": {\"bytes\": 4000, \"allocs\": 3}"),
            std::string::npos);
  EXPECT_NE(json.find("\"stack\": \"decode;mrt::read\""), std::string::npos);
}

TEST(ObsHeapReport, TopReportRanksSpansByBytes) {
  obs::HeapReport report;
  report.valid = true;
  report.total_bytes = 100;
  report.span_bytes["small"] = {10, 1};
  report.span_bytes["large"] = {90, 2};
  const std::string text = report.top_report();
  const std::size_t large_at = text.find("large");
  const std::size_t small_at = text.find("small");
  ASSERT_NE(large_at, std::string::npos);
  ASSERT_NE(small_at, std::string::npos);
  EXPECT_LT(large_at, small_at);
}

TEST(ObsHeapReport, InvalidReportRendersEmpty) {
  const obs::HeapReport report;
  EXPECT_FALSE(report.valid);
  EXPECT_NE(report.to_json().find("\"valid\": false"), std::string::npos);
  EXPECT_TRUE(report.to_folded().empty());
}

}  // namespace
