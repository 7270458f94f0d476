// Tests for obs/prof — the zsprof sampling profiler.
//
// Timing-sensitive assertions here are deliberately loose: the suite
// runs under sanitizers and on loaded single-core CI boxes. The hard
// ≤5% overhead acceptance bound is checked on micro_hotpaths by
// scripts/check_bench_regression.sh, not by unit-test wall clocks.

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <thread>

#include "obs/prof.hpp"
#include "obs/trace.hpp"

namespace obs = zombiescope::obs;

namespace {

/// Spins the CPU until roughly `ms` of wall time has passed, returning
/// a value the optimizer cannot discard.
std::uint64_t spin_for_ms(int ms) {
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::milliseconds(ms);
  std::uint64_t acc = 0x9e3779b97f4a7c15ull;
  while (std::chrono::steady_clock::now() < deadline) {
    for (int i = 0; i < 10000; ++i) acc = acc * 6364136223846793005ull + 1442695040888963407ull;
  }
  return acc;
}

TEST(ObsProf, StartStopProducesSamples) {
  obs::Profiler& profiler = obs::Profiler::global();
  ASSERT_TRUE(profiler.start());
  EXPECT_TRUE(profiler.running());
  volatile std::uint64_t sink = spin_for_ms(400);
  (void)sink;
  const obs::ProfileReport report = profiler.stop();
  EXPECT_FALSE(profiler.running());
  EXPECT_TRUE(report.valid);
  EXPECT_EQ(report.rate_hz, 97);
  EXPECT_GT(report.duration_s, 0.0);
  // 400ms of pure spinning at 97 Hz of CPU time is ~38 expirations;
  // require a handful so a heavily loaded box still passes.
  EXPECT_GE(report.samples, 5u);
  EXPECT_FALSE(report.folded.empty());
}

TEST(ObsProf, SessionStartedMidSpanStillSamples) {
  // The GET /profile shape: the session starts on one thread while the
  // worker is already deep inside spans it opened long before. The
  // worker must still get a sample ring (it registered at span open);
  // its samples are span-less until it opens a fresh span.
  std::atomic<bool> span_open{false};
  std::atomic<bool> quit{false};
  std::atomic<std::uint64_t> sink{0};
  std::thread worker([&] {
    obs::ScopedSpan span("proftest.pre_session_busy");
    span_open.store(true);
    while (!quit.load(std::memory_order_relaxed)) sink += spin_for_ms(10);
  });
  while (!span_open.load()) std::this_thread::yield();

  obs::Profiler& profiler = obs::Profiler::global();
  ASSERT_TRUE(profiler.start());
  std::this_thread::sleep_for(std::chrono::milliseconds(500));
  const obs::ProfileReport report = profiler.stop();
  quit.store(true);
  worker.join();

  ASSERT_TRUE(report.valid);
  EXPECT_GE(report.samples, 5u)
      << "a session started mid-span captured nothing; folded:\n"
      << report.to_folded();
}

TEST(ObsProf, StartWhileRunningFails) {
  obs::Profiler& profiler = obs::Profiler::global();
  ASSERT_TRUE(profiler.start());
  EXPECT_FALSE(profiler.start());
  (void)profiler.stop();
  // A fresh session works after stop().
  ASSERT_TRUE(profiler.start());
  (void)profiler.stop();
}

TEST(ObsProf, StopWithoutStartIsInvalid) {
  const obs::ProfileReport report = obs::Profiler::global().stop();
  EXPECT_FALSE(report.valid);
  EXPECT_EQ(report.samples, 0u);
}

TEST(ObsProf, SamplesAttributeToActiveSpan) {
  obs::Profiler& profiler = obs::Profiler::global();
  ASSERT_TRUE(profiler.start());
  {
    obs::ScopedSpan span("proftest.phase_a");
    volatile std::uint64_t sink = spin_for_ms(500);
    (void)sink;
  }
  const obs::ProfileReport report = profiler.stop();
  ASSERT_TRUE(report.valid);
  ASSERT_GE(report.samples, 3u);
  // The dominant phase must be the span that was active while
  // spinning; folded stacks must carry it as the root component.
  ASSERT_TRUE(report.phase_samples.contains("proftest.phase_a"))
      << report.top_report();
  std::uint64_t in_phase = 0;
  for (const auto& [stack, count] : report.folded)
    if (stack.rfind("proftest.phase_a", 0) == 0) in_phase += count;
  EXPECT_GT(in_phase, 0u);
}

TEST(ObsProf, ConcurrentThreadsAttributeToTheirOwnSpans) {
  obs::Profiler& profiler = obs::Profiler::global();
  ASSERT_TRUE(profiler.start());
  std::atomic<bool> stop{false};
  auto worker = [&stop](const char* span_name) {
    obs::ScopedSpan span(span_name);
    std::uint64_t acc = 1;
    while (!stop.load(std::memory_order_relaxed))
      for (int i = 0; i < 10000; ++i) acc = acc * 2862933555777941757ull + 3037000493ull;
    return acc;
  };
  std::thread t1([&] { (void)worker("proftest.thread_one"); });
  std::thread t2([&] { (void)worker("proftest.thread_two"); });
  volatile std::uint64_t sink = spin_for_ms(800);
  (void)sink;
  stop.store(true, std::memory_order_relaxed);
  t1.join();
  t2.join();
  const obs::ProfileReport report = profiler.stop();
  ASSERT_TRUE(report.valid);
  // On a single core the scheduler decides who gets the CPU-time
  // expirations; with 800ms of three spinning threads both workers
  // should still be hit at least once.
  EXPECT_TRUE(report.phase_samples.contains("proftest.thread_one"));
  EXPECT_TRUE(report.phase_samples.contains("proftest.thread_two"));
  // No cross-talk: a stack attributed to thread_one never also claims
  // thread_two (span stacks are per-thread).
  for (const auto& [stack, count] : report.folded) {
    (void)count;
    const bool one = stack.find("proftest.thread_one") != std::string::npos;
    const bool two = stack.find("proftest.thread_two") != std::string::npos;
    EXPECT_FALSE(one && two) << stack;
  }
}

TEST(ObsProf, SessionAccountingIsConsistent) {
  obs::Profiler& profiler = obs::Profiler::global();
  ASSERT_TRUE(profiler.start());
  volatile std::uint64_t sink = spin_for_ms(300);
  (void)sink;
  const obs::ProfileReport report = profiler.stop();
  ASSERT_TRUE(report.valid);
  std::uint64_t folded_total = 0;
  for (const auto& [stack, count] : report.folded) {
    (void)stack;
    folded_total += count;
  }
  std::uint64_t phase_total = 0;
  for (const auto& [phase, count] : report.phase_samples) {
    (void)phase;
    phase_total += count;
  }
  // Every captured sample lands in exactly one folded stack and one
  // phase bucket.
  EXPECT_EQ(folded_total, report.samples);
  EXPECT_EQ(phase_total, report.samples);
}

TEST(ObsProf, FoldedRoundTrip) {
  obs::ProfileReport report;
  report.valid = true;
  report.folded["main;run;hot_loop"] = 42;
  report.folded["main;run;cold_path"] = 1;
  report.folded["(no span);idle"] = 7;
  const std::string text = report.to_folded();
  const auto parsed = obs::parse_folded(text);
  EXPECT_EQ(parsed, report.folded);
}

TEST(ObsProf, ParseFoldedSkipsMalformedLines) {
  const auto parsed = obs::parse_folded(
      "ok;stack 10\n"
      "no trailing count\n"
      "count not numeric x\n"
      "\n"
      "another;ok 3\n");
  ASSERT_EQ(parsed.size(), 2u);
  EXPECT_EQ(parsed.at("ok;stack"), 10u);
  EXPECT_EQ(parsed.at("another;ok"), 3u);
}

TEST(ObsProf, ReportJsonShape) {
  obs::ProfileReport report;
  report.valid = true;
  report.rate_hz = 97;
  report.duration_s = 1.5;
  report.samples = 50;
  report.phase_samples["detector.pass"] = 40;
  report.phase_samples["(no span)"] = 10;
  report.top_frames.push_back({"hot_function()", 30, 45});
  const std::string json = report.to_json();
  EXPECT_NE(json.find("\"schema\": \"zsprof-v1\""), std::string::npos);
  EXPECT_NE(json.find("\"rate_hz\": 97"), std::string::npos);
  EXPECT_NE(json.find("\"detector.pass\""), std::string::npos);
  EXPECT_NE(json.find("\"hot_function()\""), std::string::npos);
  // Shares sum to 1 over the phases: 0.8 and 0.2.
  EXPECT_NE(json.find("0.8"), std::string::npos);
  EXPECT_NE(json.find("0.2"), std::string::npos);
}

TEST(ObsProf, ProfilerOffCostsNothingMeasurable) {
  // With no session running the span hooks reduce to one relaxed
  // atomic load. This is a smoke check that tracing while idle does
  // not explode, not a benchmark (that lives in micro_hotpaths).
  for (int i = 0; i < 1000; ++i) {
    obs::ScopedSpan span("proftest.idle");
    EXPECT_FALSE(obs::prof_attribution_active());
  }
}

}  // namespace
