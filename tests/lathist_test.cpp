// Tests for zslat (obs/lathist.hpp): the bucket geometry's bounded
// relative error, quantile math on snapshots, exact bucket-wise merge
// and diff, lock-free concurrent recording, and the leaked-singleton
// registry with its JSON/folded renderings. Suites are Obs-prefixed so
// scripts/run_tier1.sh reruns them under TSan (record() promises
// lock-free cross-thread use) and ASan+UBSan.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <thread>
#include <vector>

#include "obs/lathist.hpp"

namespace zombiescope::obs {
namespace {

// Deterministic 64-bit values spanning the whole range (splitmix64).
std::uint64_t mix(std::uint64_t& state) {
  std::uint64_t z = (state += 0x9e3779b97f4a7c15ull);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
  return z ^ (z >> 31);
}

// ---------------------------------------------------------------------------
// Bucket geometry
// ---------------------------------------------------------------------------

TEST(ObsLatHist, SmallValuesGetExactBuckets) {
  for (std::uint64_t v = 0; v < kLatSubBuckets; ++v) {
    EXPECT_EQ(lat_bucket_index(v), v);
    EXPECT_EQ(lat_bucket_lower(v), v);
    EXPECT_EQ(lat_bucket_upper(v), v);
  }
}

TEST(ObsLatHist, EdgesAreConsistentWithIndexing) {
  // Every bucket's own edges must map back to that bucket, edges must
  // tile the value space with no gap or overlap, and the first
  // log-spaced bucket must start right after the exact range.
  for (std::size_t i = 0; i < 20 * kLatSubBuckets; ++i) {
    EXPECT_EQ(lat_bucket_index(lat_bucket_lower(i)), i) << "bucket " << i;
    EXPECT_EQ(lat_bucket_index(lat_bucket_upper(i)), i) << "bucket " << i;
    if (i > 0) EXPECT_EQ(lat_bucket_lower(i), lat_bucket_upper(i - 1) + 1);
  }
  EXPECT_EQ(lat_bucket_lower(kLatSubBuckets), kLatSubBuckets);
  // The largest representable latency maps inside the table.
  EXPECT_LT(lat_bucket_index(~0ull), kLatBucketCount);
}

TEST(ObsLatHist, RelativeErrorBoundedBySubBucketWidth) {
  // Property: any value's bucket spans at most v / kLatSubBuckets, so
  // reporting any point inside the bucket errs by < 1/32 = 3.125%.
  std::uint64_t state = 42;
  for (int i = 0; i < 200000; ++i) {
    // Cover every magnitude: shift a full-entropy value by 0..63 bits.
    const std::uint64_t v = mix(state) >> (i % 64);
    if (v < kLatSubBuckets) continue;  // exact down there
    const std::size_t idx = lat_bucket_index(v);
    const std::uint64_t lo = lat_bucket_lower(idx);
    const std::uint64_t hi = lat_bucket_upper(idx);
    ASSERT_LE(lo, v);
    ASSERT_GE(hi, v);
    const double width = static_cast<double>(hi - lo + 1);
    EXPECT_LE(width / static_cast<double>(v),
              1.0 / static_cast<double>(kLatSubBuckets) + 1e-12)
        << "value " << v << " bucket [" << lo << "," << hi << "]";
  }
}

// ---------------------------------------------------------------------------
// Recording and quantiles
// ---------------------------------------------------------------------------

TEST(ObsLatHist, QuantilesTrackAKnownDistribution) {
  LatHist hist;
  for (std::uint64_t v = 1; v <= 10000; ++v) hist.record(v * 1000);  // 1..10ms
  const LatSnapshot snap = hist.snapshot();
  EXPECT_EQ(snap.count, 10000u);
  EXPECT_EQ(snap.min_ns, 1000u);
  EXPECT_EQ(snap.max_ns, 10000000u);
  // True quantiles of the uniform grid, within the 3.125% bucket bound
  // (plus a little slack for the within-bucket interpolation).
  EXPECT_NEAR(snap.quantile_ns(0.50), 5000500.0, 0.04 * 5000500.0);
  EXPECT_NEAR(snap.quantile_ns(0.95), 9500000.0, 0.04 * 9500000.0);
  EXPECT_NEAR(snap.quantile_ns(0.99), 9900000.0, 0.04 * 9900000.0);
  // Quantiles are monotone and clamped to the observed extremes.
  double last = 0.0;
  for (double q : {0.0, 0.1, 0.5, 0.9, 0.99, 1.0}) {
    const double x = snap.quantile_ns(q);
    EXPECT_GE(x, last);
    EXPECT_GE(x, static_cast<double>(snap.min_ns));
    EXPECT_LE(x, static_cast<double>(snap.max_ns));
    last = x;
  }
}

TEST(ObsLatHist, SingleValueIsReportedExactly) {
  LatHist hist;
  hist.record(123456);
  const LatSnapshot snap = hist.snapshot();
  EXPECT_EQ(snap.count, 1u);
  EXPECT_EQ(snap.min_ns, 123456u);
  EXPECT_EQ(snap.max_ns, 123456u);
  // Min/max clamping makes the single observation exact at any q.
  EXPECT_DOUBLE_EQ(snap.quantile_ns(0.5), 123456.0);
  EXPECT_DOUBLE_EQ(snap.quantile_ns(0.99), 123456.0);
  EXPECT_DOUBLE_EQ(snap.mean_ns(), 123456.0);
}

TEST(ObsLatHist, EmptySnapshotIsInert) {
  LatHist hist;
  const LatSnapshot snap = hist.snapshot();
  EXPECT_TRUE(snap.empty());
  EXPECT_EQ(snap.quantile_ns(0.99), 0.0);
  EXPECT_EQ(snap.mean_ns(), 0.0);
}

// ---------------------------------------------------------------------------
// Merge and diff
// ---------------------------------------------------------------------------

TEST(ObsLatHist, MergeEqualsRecordingIntoOne) {
  // Shard-per-histogram aggregation must be exact: merging the shards'
  // snapshots gives the same state as one histogram fed everything.
  LatHist combined;
  LatHist shard_a;
  LatHist shard_b;
  std::uint64_t state = 7;
  for (int i = 0; i < 5000; ++i) {
    const std::uint64_t v = mix(state) >> (i % 40);
    combined.record(v);
    (i % 2 == 0 ? shard_a : shard_b).record(v);
  }
  LatSnapshot merged = shard_a.snapshot();
  merged.merge(shard_b.snapshot());
  const LatSnapshot direct = combined.snapshot();
  EXPECT_EQ(merged.count, direct.count);
  EXPECT_EQ(merged.sum_ns, direct.sum_ns);
  EXPECT_EQ(merged.min_ns, direct.min_ns);
  EXPECT_EQ(merged.max_ns, direct.max_ns);
  EXPECT_EQ(merged.counts, direct.counts);
  for (double q : {0.5, 0.95, 0.99})
    EXPECT_DOUBLE_EQ(merged.quantile_ns(q), direct.quantile_ns(q));
}

TEST(ObsLatHist, MergeIntoEmptyAdoptsOther) {
  LatHist hist;
  hist.record(500);
  hist.record(900);
  LatSnapshot empty;
  empty.merge(hist.snapshot());
  EXPECT_EQ(empty.count, 2u);
  EXPECT_EQ(empty.min_ns, 500u);
  EXPECT_EQ(empty.max_ns, 900u);
}

TEST(ObsLatHist, DiffSinceIsolatesTheInterval) {
  LatHist hist;
  for (int i = 0; i < 100; ++i) hist.record(1000);
  const LatSnapshot before = hist.snapshot();
  for (int i = 0; i < 50; ++i) hist.record(8000);
  const LatSnapshot interval = hist.snapshot().diff_since(before);
  EXPECT_EQ(interval.count, 50u);
  EXPECT_EQ(interval.sum_ns, 50u * 8000u);
  // The interval's extremes come from its own buckets: the earlier
  // 1000ns observations must not leak into it (bucketed bounds, so
  // only assert the bucket's 3.125% window around 8000).
  EXPECT_GT(interval.min_ns, 7000u);
  EXPECT_NEAR(interval.quantile_ns(0.5), 8000.0, 0.04 * 8000.0);
  // Diffing identical snapshots yields an empty interval.
  const LatSnapshot now = hist.snapshot();
  EXPECT_TRUE(now.diff_since(now).empty());
}

// ---------------------------------------------------------------------------
// Concurrency
// ---------------------------------------------------------------------------

TEST(ObsLatHist, ConcurrentRecordersLoseNothing) {
  // 4 recorders hammer one histogram; counts, sums, and the bucket
  // total must all agree afterwards. TSan (run_tier1.sh) checks the
  // memory model; this checks the arithmetic.
  LatHist hist;
  constexpr int kThreads = 4;
  constexpr std::uint64_t kPerThread = 100000;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&hist, t] {
      for (std::uint64_t i = 1; i <= kPerThread; ++i)
        hist.record(i + static_cast<std::uint64_t>(t));
    });
  }
  for (auto& thread : threads) thread.join();
  const LatSnapshot snap = hist.snapshot();
  EXPECT_EQ(snap.count, kThreads * kPerThread);
  std::uint64_t bucket_total = 0;
  for (const std::uint64_t c : snap.counts) bucket_total += c;
  EXPECT_EQ(bucket_total, snap.count);
  EXPECT_EQ(snap.min_ns, 1u);
  EXPECT_EQ(snap.max_ns, kPerThread + kThreads - 1);
}

// ---------------------------------------------------------------------------
// Registry
// ---------------------------------------------------------------------------

TEST(ObsLatHist, RegistryReturnsTheSameInstanceForever) {
  LatHist& a = LatRegistry::global().get("lathist_test.same");
  LatHist& b = LatRegistry::global().get("lathist_test.same");
  EXPECT_EQ(&a, &b);
  LatHist& c = LatRegistry::global().get("lathist_test.other");
  EXPECT_NE(&a, &c);
}

TEST(ObsLatHist, RegistryJsonSkipsEmptyAndRendersRecorded) {
  LatRegistry& reg = LatRegistry::global();
  (void)reg.get("lathist_test.render_empty");  // registered, never recorded
  LatHist& hist = reg.get("lathist_test.render");
  const std::uint64_t before = hist.count();
  hist.record(2500);
  const std::string json = reg.to_json();
  EXPECT_EQ(json.find("lathist_test.render_empty"), std::string::npos);
  EXPECT_NE(json.find("\"lathist_test.render\":{\"count\":"), std::string::npos);
  EXPECT_NE(json.find("\"p99_ns\":"), std::string::npos);
  const std::string folded = reg.to_folded();
  EXPECT_NE(folded.find("lathist_test.render;le_"), std::string::npos);
  EXPECT_NE(folded.find("lathist_test.render;count "), std::string::npos);
  EXPECT_EQ(hist.count(), before + 1);
}

TEST(ObsLatHist, SnapshotAllIsSortedByName) {
  LatRegistry& reg = LatRegistry::global();
  (void)reg.get("lathist_test.zz");
  (void)reg.get("lathist_test.aa");
  const auto all = reg.snapshot_all();
  ASSERT_GE(all.size(), 2u);
  EXPECT_TRUE(std::is_sorted(
      all.begin(), all.end(),
      [](const auto& x, const auto& y) { return x.first < y.first; }));
}

}  // namespace
}  // namespace zombiescope::obs
