// Tests for the process-wide metrics registry: counter/duration/histogram
// snapshot behavior, deterministic (sorted) snapshot ordering, the atomic
// Reset() epoch (no increment may be lost or double-counted when resets
// race with writers — the TSan job runs this file), and the thread-local
// stage label.
//
// The registry is a process singleton, so every test uses metric names
// unique to itself and asserts on deltas rather than absolute totals.

#include "crew/common/metrics.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <string>
#include <thread>
#include <vector>

#include "crew/common/logging.h"

namespace crew {
namespace {

const MetricEntry& MetricOrDie(const MetricsSnapshot& snapshot,
                               const std::string& name) {
  const MetricEntry* entry = FindMetric(snapshot, name);
  CREW_CHECK(entry != nullptr) << name;
  return *entry;
}

TEST(MetricsRegistryTest, CounterAccumulatesAndInterns) {
  MetricsRegistry& reg = MetricsRegistry::Global();
  Counter* c = reg.GetCounter("test/registry/counter_a");
  EXPECT_EQ(reg.GetCounter("test/registry/counter_a"), c);  // interned

  const MetricsSnapshot before = reg.Snapshot();
  c->Add(5);
  c->Increment();
  const MetricsSnapshot delta = MetricsDelta(reg.Snapshot(), before);
  const MetricEntry& entry = MetricOrDie(delta, "test/registry/counter_a");
  EXPECT_EQ(entry.kind, MetricKind::kCounter);
  EXPECT_EQ(entry.count, 6);
  EXPECT_EQ(entry.total_ms, 0.0);
}

TEST(MetricsRegistryTest, DurationRecordsCountAndTotal) {
  MetricsRegistry& reg = MetricsRegistry::Global();
  DurationStat* d = reg.GetDuration("test/registry/duration_a");
  const MetricsSnapshot before = reg.Snapshot();
  d->Add(0.25);
  d->Add(0.5);
  const MetricsSnapshot delta = MetricsDelta(reg.Snapshot(), before);
  const MetricEntry& entry = MetricOrDie(delta, "test/registry/duration_a");
  EXPECT_EQ(entry.kind, MetricKind::kDuration);
  EXPECT_EQ(entry.count, 2);
  EXPECT_NEAR(entry.total_ms, 750.0, 1e-6);
}

TEST(MetricsRegistryTest, ScopedDurationTimesItsScope) {
  MetricsRegistry& reg = MetricsRegistry::Global();
  DurationStat* d = reg.GetDuration("test/registry/scoped_duration");
  const MetricsSnapshot before = reg.Snapshot();
  { ScopedDuration scope(d); }
  const MetricsSnapshot delta = MetricsDelta(reg.Snapshot(), before);
  const MetricEntry& entry =
      MetricOrDie(delta, "test/registry/scoped_duration");
  EXPECT_EQ(entry.count, 1);
  EXPECT_GE(entry.total_ms, 0.0);
}

TEST(MetricsRegistryTest, HistogramExpandsToFixedBucketSet) {
  MetricsRegistry& reg = MetricsRegistry::Global();
  Histogram* h = reg.GetHistogram("test/registry/hist");
  const MetricsSnapshot before = reg.Snapshot();
  h->Observe(1);     // le_0001
  h->Observe(2);     // le_0002
  h->Observe(3);     // le_0004
  h->Observe(1024);  // le_1024
  h->Observe(5000);  // le_inf
  const MetricsSnapshot after = reg.Snapshot();
  const MetricsSnapshot delta = MetricsDelta(after, before);

  // The full bucket set is present (with zero counts) even before any
  // observation lands in it, so snapshot shape never depends on the data.
  int buckets = 0;
  for (const MetricEntry& entry : after) {
    if (entry.name.rfind("test/registry/hist/le_", 0) == 0) ++buckets;
  }
  EXPECT_EQ(buckets, Histogram::kNumBuckets);

  EXPECT_EQ(MetricOrDie(delta, "test/registry/hist/le_0001").count, 1);
  EXPECT_EQ(MetricOrDie(delta, "test/registry/hist/le_0002").count, 1);
  EXPECT_EQ(MetricOrDie(delta, "test/registry/hist/le_0004").count, 1);
  EXPECT_EQ(MetricOrDie(delta, "test/registry/hist/le_1024").count, 1);
  EXPECT_EQ(MetricOrDie(delta, "test/registry/hist/le_inf").count, 1);
}

TEST(MetricsRegistryTest, SnapshotIsSortedByName) {
  MetricsRegistry& reg = MetricsRegistry::Global();
  // Register deliberately out of order; snapshot must still be sorted.
  reg.GetCounter("test/registry/sort_z");
  reg.GetCounter("test/registry/sort_a");
  reg.GetCounter("test/registry/sort_m");
  const MetricsSnapshot snapshot = reg.Snapshot();
  EXPECT_TRUE(std::is_sorted(snapshot.begin(), snapshot.end(),
                             [](const MetricEntry& a, const MetricEntry& b) {
                               return a.name < b.name;
                             }));
}

TEST(MetricsRegistryTest, ShardsSumAcrossThreads) {
  MetricsRegistry& reg = MetricsRegistry::Global();
  Counter* c = reg.GetCounter("test/registry/threaded");
  const MetricsSnapshot before = reg.Snapshot();
  constexpr int kThreads = 4;
  constexpr int kAdds = 1000;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([c] {
      for (int i = 0; i < kAdds; ++i) c->Increment();
    });
  }
  for (auto& t : threads) t.join();
  const MetricsSnapshot delta = MetricsDelta(reg.Snapshot(), before);
  EXPECT_EQ(MetricOrDie(delta, "test/registry/threaded").count,
            kThreads * kAdds);
}

TEST(MetricsRegistryTest, ResetRebasesWithoutLosingIncrements) {
  // The epoch contract: every increment lands in exactly one snapshot —
  // either the delta a Reset() returns or a later snapshot, never both,
  // never neither. Hammer a counter from several threads while another
  // thread resets in a loop, then check the captured deltas plus the final
  // snapshot account for every increment exactly once. Run under TSan to
  // cover the reset race.
  MetricsRegistry& reg = MetricsRegistry::Global();
  Counter* c = reg.GetCounter("test/registry/reset_race");
  // Rebase so earlier tests' writes to other metrics don't matter; we only
  // read this one counter from the captured snapshots.
  std::int64_t base =
      MetricOrDie(reg.Snapshot(), "test/registry/reset_race").count;

  constexpr int kThreads = 4;
  constexpr int kAdds = 5000;
  std::atomic<bool> done{false};
  std::vector<std::thread> writers;
  for (int t = 0; t < kThreads; ++t) {
    writers.emplace_back([c] {
      for (int i = 0; i < kAdds; ++i) c->Increment();
    });
  }
  std::int64_t captured = 0;
  std::thread resetter([&] {
    while (!done.load(std::memory_order_acquire)) {
      captured += MetricOrDie(reg.Reset(), "test/registry/reset_race").count;
    }
  });
  for (auto& t : writers) t.join();
  done.store(true, std::memory_order_release);
  resetter.join();
  const std::int64_t remaining =
      MetricOrDie(reg.Snapshot(), "test/registry/reset_race").count;
  EXPECT_EQ(captured + remaining, base + kThreads * kAdds);
}

TEST(MetricsDeltaTest, SubtractsByNameAndKeepsNewEntries) {
  MetricsSnapshot before;
  before.push_back({"a", MetricKind::kCounter, 3, 0.0});
  before.push_back({"d", MetricKind::kDuration, 1, 10.0});
  MetricsSnapshot after;
  after.push_back({"a", MetricKind::kCounter, 10, 0.0});
  after.push_back({"b", MetricKind::kCounter, 2, 0.0});  // registered later
  after.push_back({"d", MetricKind::kDuration, 4, 35.0});
  const MetricsSnapshot delta = MetricsDelta(after, before);
  EXPECT_EQ(MetricOrDie(delta, "a").count, 7);
  EXPECT_EQ(MetricOrDie(delta, "b").count, 2);
  EXPECT_EQ(MetricOrDie(delta, "d").count, 3);
  EXPECT_NEAR(MetricOrDie(delta, "d").total_ms, 25.0, 1e-9);
}

TEST(MetricsSumTest, SumsByNameSorted) {
  MetricsSnapshot a;
  a.push_back({"x", MetricKind::kCounter, 1, 0.0});
  a.push_back({"y", MetricKind::kDuration, 2, 5.0});
  MetricsSnapshot b;
  b.push_back({"w", MetricKind::kCounter, 4, 0.0});
  b.push_back({"x", MetricKind::kCounter, 2, 0.0});
  const MetricsSnapshot sum = MetricsSum({a, b});
  EXPECT_TRUE(std::is_sorted(sum.begin(), sum.end(),
                             [](const MetricEntry& p, const MetricEntry& q) {
                               return p.name < q.name;
                             }));
  EXPECT_EQ(MetricOrDie(sum, "w").count, 4);
  EXPECT_EQ(MetricOrDie(sum, "x").count, 3);
  EXPECT_EQ(MetricOrDie(sum, "y").count, 2);
  EXPECT_NEAR(MetricOrDie(sum, "y").total_ms, 5.0, 1e-9);
}

TEST(MetricsSumTest, SumIsIndependentOfSnapshotAndEntryOrder) {
  // Regression test for the --metrics summary of resumed runs: a resumed
  // grid hands MetricsSum the same per-cell deltas in a different order
  // (and restored cells' registries were re-sorted on parse), so the merge
  // must canonicalize — sorted by name — rather than echo input order.
  MetricsSnapshot a;
  a.push_back({"b/metric", MetricKind::kCounter, 1, 0.0});
  a.push_back({"c/metric", MetricKind::kDuration, 2, 3.0});
  MetricsSnapshot b;
  b.push_back({"a/metric", MetricKind::kCounter, 5, 0.0});
  b.push_back({"b/metric", MetricKind::kCounter, 7, 0.0});
  MetricsSnapshot b_reversed(b.rbegin(), b.rend());

  const MetricsSnapshot forward = MetricsSum({a, b});
  const MetricsSnapshot backward = MetricsSum({b_reversed, a});
  ASSERT_EQ(forward.size(), 3u);
  ASSERT_EQ(backward.size(), 3u);
  for (size_t i = 0; i < forward.size(); ++i) {
    EXPECT_EQ(forward[i].name, backward[i].name);
    EXPECT_EQ(forward[i].kind, backward[i].kind);
    EXPECT_EQ(forward[i].count, backward[i].count);
    EXPECT_EQ(forward[i].total_ms, backward[i].total_ms);
  }
  EXPECT_EQ(forward[0].name, "a/metric");
  EXPECT_EQ(forward[1].name, "b/metric");
  EXPECT_EQ(forward[1].count, 8);
  EXPECT_EQ(forward[2].name, "c/metric");
}

TEST(DropZeroMetricsTest, KeepsOnlyEntriesWithActivity) {
  // Per-cell registry deltas are filtered through this so a cell's delta
  // shape does not depend on which metrics earlier cells registered —
  // the property that makes cell output independent of execution order.
  MetricsSnapshot snapshot;
  snapshot.push_back({"active/count", MetricKind::kCounter, 3, 0.0});
  snapshot.push_back({"idle", MetricKind::kCounter, 0, 0.0});
  snapshot.push_back({"active/ms", MetricKind::kDuration, 0, 1.5});
  snapshot.push_back({"idle/duration", MetricKind::kDuration, 0, 0.0});
  const MetricsSnapshot kept = DropZeroMetrics(snapshot);
  ASSERT_EQ(kept.size(), 2u);
  EXPECT_EQ(kept[0].name, "active/count");
  EXPECT_EQ(kept[1].name, "active/ms");
  EXPECT_TRUE(DropZeroMetrics(MetricsSnapshot()).empty());
}

TEST(FindMetricTest, ReturnsNullForMissing) {
  MetricsSnapshot snapshot;
  snapshot.push_back({"present", MetricKind::kCounter, 1, 0.0});
  EXPECT_NE(FindMetric(snapshot, "present"), nullptr);
  EXPECT_EQ(FindMetric(snapshot, "absent"), nullptr);
}

TEST(ScopedMetricStageTest, NestsAndRestores) {
  EXPECT_STREQ(CurrentMetricStage(), "other");
  {
    ScopedMetricStage outer("attribution");
    EXPECT_STREQ(CurrentMetricStage(), "attribution");
    {
      ScopedMetricStage inner("eval");
      EXPECT_STREQ(CurrentMetricStage(), "eval");
    }
    EXPECT_STREQ(CurrentMetricStage(), "attribution");
  }
  EXPECT_STREQ(CurrentMetricStage(), "other");
}

TEST(ScopedMetricStageTest, IsThreadLocal) {
  ScopedMetricStage stage("attribution");
  const char* seen = nullptr;
  std::thread t([&] { seen = CurrentMetricStage(); });
  t.join();
  EXPECT_STREQ(seen, "other");  // the label never leaks across threads
  EXPECT_STREQ(CurrentMetricStage(), "attribution");
}

}  // namespace
}  // namespace crew
