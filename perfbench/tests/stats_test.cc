// Tests of the benchmark's own statistics: percentiles and the
// highest-supported-percentile rule, open-loop due-time accounting, the
// Zipf sampler, error counting, and span self time.

#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <thread>
#include <vector>

#include "spans.h"
#include "stats.h"

namespace perfbench {
namespace {

TEST(PercentileTest, NearestRank) {
  std::vector<double> v;
  for (int i = 100; i >= 1; --i) v.push_back(i);  // unsorted input
  EXPECT_EQ(Percentile(v, 50.0), 50.0);
  EXPECT_EQ(Percentile(v, 99.0), 99.0);
  EXPECT_EQ(Percentile(v, 100.0), 100.0);
  EXPECT_EQ(Percentile(v, 0.0), 1.0);
  EXPECT_EQ(Percentile({}, 50.0), 0.0);
  EXPECT_EQ(Percentile({7.0}, 99.0), 7.0);
}

TEST(PercentileTest, SamplesBeyond) {
  EXPECT_EQ(SamplesBeyond(1000, 99.0), 10u);
  EXPECT_EQ(SamplesBeyond(999, 99.0), 9u);
  EXPECT_EQ(SamplesBeyond(20, 50.0), 10u);
  EXPECT_EQ(SamplesBeyond(0, 50.0), 0u);
}

TEST(PercentileTest, HighestSupportedNeedsTenBeyond) {
  EXPECT_EQ(HighestSupportedPercentile(100000), 99.99);
  EXPECT_EQ(HighestSupportedPercentile(99999), 99.9);
  EXPECT_EQ(HighestSupportedPercentile(10000), 99.9);
  EXPECT_EQ(HighestSupportedPercentile(9999), 99.0);
  EXPECT_EQ(HighestSupportedPercentile(1000), 99.0);
  EXPECT_EQ(HighestSupportedPercentile(999), 95.0);
  EXPECT_EQ(HighestSupportedPercentile(20), 50.0);
  // Fewer than 20 samples support no percentile at all, not even p50.
  EXPECT_EQ(HighestSupportedPercentile(19), 0.0);
  EXPECT_EQ(HighestSupportedPercentile(0), 0.0);
}

TEST(PercentileTest, SummarizeReportsTheSupportedTail) {
  std::vector<double> v(2000);
  for (size_t i = 0; i < v.size(); ++i) v[i] = static_cast<double>(i + 1);
  const Summary s = Summarize(v);
  EXPECT_EQ(s.count, 2000u);
  EXPECT_EQ(s.p50, 1000.0);
  EXPECT_EQ(s.tail_q, 99.0);
  EXPECT_EQ(s.tail, 1980.0);
  const Summary few = Summarize({1.0, 2.0, 3.0});
  EXPECT_EQ(few.tail_q, 0.0);
  EXPECT_EQ(few.p50, 2.0);
}

TEST(PercentileTest, IntervalPercentilesSkipUnsupportedSlices) {
  std::vector<double> at, values;
  for (int i = 0; i < 3000; ++i) {  // 1000 samples in each of 3 slices
    at.push_back(i / 1000.0);
    values.push_back(i % 1000 + 1 + (i >= 2000 ? 5000 : 0));
  }
  at.push_back(3.5);  // a fourth slice with one sample: no supported p99
  values.push_back(1e9);
  const std::vector<double> p99 = IntervalPercentiles(at, values, 1.0, 99.0);
  ASSERT_EQ(p99.size(), 3u);
  EXPECT_EQ(p99[0], 990.0);
  EXPECT_EQ(p99[1], 990.0);
  EXPECT_EQ(p99[2], 5990.0);
  EXPECT_EQ(Percentile(p99, 50.0), 990.0);  // one noisy slice cannot move it
}

// A handler that stalls once: in an open loop every request due during the
// stall is charged the wait, and the generator reports itself late.
TEST(OpenLoopTest, StallIsChargedToRequestsBehindIt) {
  constexpr double kRate = 1000.0;  // one request due every 1 ms
  constexpr int kStalled = 20;
  constexpr int kStallMs = 40;
  const OpenLoopResult r = RunOpenLoop(
      1, kRate, 0.2, [=](int, int64_t index) {
        if (index == kStalled) {
          std::this_thread::sleep_for(std::chrono::milliseconds(kStallMs));
        }
        return true;
      });
  ASSERT_EQ(r.sent, 200);
  ASSERT_EQ(r.latency_us.size(), 200u);
  EXPECT_EQ(r.failed, 0);
  // The stalled request itself, and request k behind it, waited about
  // kStallMs - (k - kStalled) ms.
  EXPECT_GE(r.latency_us[kStalled], kStallMs * 1000.0);
  EXPECT_GE(r.latency_us[kStalled + 10], (kStallMs - 11) * 1000.0);
  EXPECT_GE(r.late_us[kStalled + 10], (kStallMs - 11) * 1000.0);
  int delayed = 0;
  for (double us : r.latency_us) delayed += us > 5000.0 ? 1 : 0;
  EXPECT_GE(delayed, kStallMs - 6);
  // Requests due well after the stall are back on schedule.
  EXPECT_LT(*std::min_element(r.late_us.begin() + 150, r.late_us.end()),
            1000.0);
}

TEST(OpenLoopTest, FailuresAreCountedNotTimed) {
  const OpenLoopResult r =
      RunOpenLoop(2, 2000.0, 0.05,
                  [](int, int64_t index) { return index % 10 != 0; });
  EXPECT_EQ(r.sent, 100);
  EXPECT_EQ(r.failed, 10);
  EXPECT_EQ(r.latency_us.size(), 90u);
  EXPECT_EQ(r.late_us.size(), 100u);
}

TEST(OpenLoopTest, StopEndsTheLoopEarly) {
  std::atomic<bool> stop{false};
  const OpenLoopResult r = RunOpenLoop(
      1, 1000.0, 10.0,
      [&](int, int64_t index) {
        if (index == 9) stop.store(true);
        return true;
      },
      &stop);
  EXPECT_EQ(r.sent, 10);
}

TEST(ZipfTest, RankFrequenciesFollowOneOverRank) {
  constexpr int kItems = 1000;
  constexpr int kDraws = 400000;
  const ZipfSampler zipf(kItems, 1.0, 42);
  mlp::Pcg32 rng(7);
  std::vector<int> count(kItems, 0);
  for (int i = 0; i < kDraws; ++i) ++count[zipf.Sample(rng)];
  double harmonic = 0.0;
  for (int r = 1; r <= kItems; ++r) harmonic += 1.0 / r;
  for (int rank : {0, 1, 2, 9, 99}) {
    const double expected = kDraws / ((rank + 1) * harmonic);
    const double observed = count[zipf.ItemAtRank(rank)];
    EXPECT_NEAR(observed / expected, 1.0, 5.0 / std::sqrt(expected))
        << "rank " << rank;
  }
  // Ranks are scattered over the id space, not sorted by id.
  EXPECT_NE(zipf.ItemAtRank(0), 0);
}

TEST(ZipfTest, SameSeedSameMapping) {
  const ZipfSampler a(100, 1.0, 3);
  const ZipfSampler b(100, 1.0, 3);
  for (int r = 0; r < 100; ++r) EXPECT_EQ(a.ItemAtRank(r), b.ItemAtRank(r));
}

TEST(TallyTest, CountsAttemptsAndFailuresAcrossThreads) {
  Tally tally;
  std::vector<std::thread> threads;
  for (int t = 0; t < 4; ++t) {
    threads.emplace_back([&] {
      for (int i = 0; i < 1000; ++i) {
        if (i % 100 == 0) {
          tally.Fail("request " + std::to_string(i));
        } else {
          tally.Ok();
        }
      }
    });
  }
  for (std::thread& t : threads) t.join();
  EXPECT_EQ(tally.attempted(), 4000u);
  EXPECT_EQ(tally.failed(), 40u);
  EXPECT_DOUBLE_EQ(tally.error_pct(), 1.0);
  EXPECT_EQ(tally.failures().size(), 8u);  // only the first few are kept
}

TEST(TallyTest, RecordCountsBothOutcomes) {
  Tally tally;
  EXPECT_EQ(tally.error_pct(), 0.0);
  tally.Record(true, "ok");
  tally.Record(false, "bad body");
  EXPECT_EQ(tally.attempted(), 2u);
  EXPECT_EQ(tally.failed(), 1u);
  ASSERT_EQ(tally.failures().size(), 1u);
  EXPECT_EQ(tally.failures()[0], "bad body");
}

TEST(SpanTest, SelfTimeExcludesChildren) {
  SpanRecorder spans(1);
  spans.set_enabled(true);
  {
    Span parent(&spans, "layer.parent");
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
    {
      Span child(&spans, "layer.child");
      std::this_thread::sleep_for(std::chrono::milliseconds(20));
    }
  }
  const auto totals = spans.Totals();
  const SpanTotals& parent = totals.at("layer.parent");
  const SpanTotals& child = totals.at("layer.child");
  EXPECT_GE(parent.total_ms, 25.0);
  EXPECT_NEAR(parent.self_ms, parent.total_ms - child.total_ms, 0.01);
  EXPECT_NEAR(child.self_ms, child.total_ms, 1e-9);
  const std::vector<SpanRecord> records = spans.Snapshot();
  ASSERT_EQ(records.size(), 2u);
  EXPECT_EQ(records[0].parent, records[1].id);  // child closed first
}

TEST(SpanTest, DisabledRecorderRecordsNothing) {
  SpanRecorder spans(1);
  { Span span(&spans, "layer.call"); }
  { Span span(nullptr, "layer.call"); }
  EXPECT_TRUE(spans.Snapshot().empty());
  spans.set_enabled(true);
  { Span span(&spans, "layer.root"); }  // no parent left open behind them
  ASSERT_EQ(spans.Snapshot().size(), 1u);
  EXPECT_EQ(spans.Snapshot()[0].parent, 0u);
}

}  // namespace
}  // namespace perfbench
