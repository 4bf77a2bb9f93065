// Tests for src/obs: metrics registry (sharded counters, histograms,
// Prometheus rendering), trace spans, the fit-profile breakdown helper,
// and the logging satellites (ParseLogLevel, thread ordinals). The
// concurrent cases double as the TSan targets (CI runs obs_test under
// -fsanitize=thread): N writer threads hammer a counter/histogram while a
// reader scrapes mid-update.

#include <atomic>
#include <cstdio>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "common/logging.h"
#include "obs/fit_profile.h"
#include "obs/metrics.h"
#include "obs/request_trace.h"
#include "obs/ring_log.h"
#include "obs/trace.h"

namespace mlp {
namespace obs {
namespace {

// ------------------------------------------------------------- counters

TEST(CounterTest, SingleThreadedSum) {
  Counter counter;
  EXPECT_EQ(counter.Value(), 0u);
  counter.Add();
  counter.Add(41);
  EXPECT_EQ(counter.Value(), 42u);
  counter.Reset();
  EXPECT_EQ(counter.Value(), 0u);
}

TEST(CounterTest, ConcurrentIncrementsSumExactly) {
  Counter counter;
  constexpr int kThreads = 8;
  constexpr int kIncrementsPerThread = 100000;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&counter] {
      for (int i = 0; i < kIncrementsPerThread; ++i) counter.Add();
    });
  }
  for (std::thread& thread : threads) thread.join();
  EXPECT_EQ(counter.Value(),
            static_cast<uint64_t>(kThreads) * kIncrementsPerThread);
}

TEST(CounterTest, ScrapeDuringUpdateIsCleanAndMonotonic) {
  // The reader races the writers on purpose: relaxed sharded cells promise
  // no torn reads and a monotonically growing total, which is exactly what
  // a /metricsz scrape relies on. TSan validates the absence of data races.
  Counter counter;
  std::atomic<bool> stop{false};
  std::vector<std::thread> writers;
  for (int t = 0; t < 4; ++t) {
    writers.emplace_back([&] {
      while (!stop.load(std::memory_order_relaxed)) counter.Add();
    });
  }
  uint64_t last = 0;
  for (int i = 0; i < 1000; ++i) {
    uint64_t now = counter.Value();
    EXPECT_GE(now, last);
    last = now;
  }
  stop.store(true);
  for (std::thread& writer : writers) writer.join();
  EXPECT_GE(counter.Value(), last);
}

// --------------------------------------------------------------- gauges

TEST(GaugeTest, SetAndAdd) {
  Gauge gauge;
  EXPECT_EQ(gauge.Value(), 0);
  gauge.Set(10);
  gauge.Add(-3);
  EXPECT_EQ(gauge.Value(), 7);
  gauge.Set(-5);
  EXPECT_EQ(gauge.Value(), -5);
}

// ----------------------------------------------------------- histograms

TEST(HistogramTest, BucketBoundariesAreUpperInclusive) {
  // Prometheus `le` semantics: a value equal to a bound lands IN that
  // bound's bucket; one past it spills to the next.
  Histogram histogram({10, 100, 1000});
  histogram.Record(0);     // -> le=10
  histogram.Record(10);    // -> le=10 (inclusive)
  histogram.Record(11);    // -> le=100
  histogram.Record(100);   // -> le=100
  histogram.Record(1000);  // -> le=1000
  histogram.Record(1001);  // -> +Inf
  Histogram::Snapshot snap = histogram.GetSnapshot();
  ASSERT_EQ(snap.bucket_counts.size(), 4u);
  EXPECT_EQ(snap.bucket_counts[0], 2u);
  EXPECT_EQ(snap.bucket_counts[1], 2u);
  EXPECT_EQ(snap.bucket_counts[2], 1u);
  EXPECT_EQ(snap.bucket_counts[3], 1u);
  EXPECT_EQ(snap.count, 6u);
  EXPECT_EQ(snap.sum, 0 + 10 + 11 + 100 + 1000 + 1001);
}

TEST(HistogramTest, ConcurrentRecordsSumExactly) {
  Histogram histogram({5, 50});
  constexpr int kThreads = 6;
  constexpr int kPerThread = 50000;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&histogram] {
      for (int i = 0; i < kPerThread; ++i) histogram.Record(i % 100);
    });
  }
  for (std::thread& thread : threads) thread.join();
  Histogram::Snapshot snap = histogram.GetSnapshot();
  EXPECT_EQ(snap.count, static_cast<uint64_t>(kThreads) * kPerThread);
  // i%100: 6 of each residue per thread pass -> 500 cycles * 6 values
  // 0..5 inclusive => bucket0 = 6 residues per 100.
  EXPECT_EQ(snap.bucket_counts[0],
            static_cast<uint64_t>(kThreads) * kPerThread * 6 / 100);
  EXPECT_EQ(snap.bucket_counts[1],
            static_cast<uint64_t>(kThreads) * kPerThread * 45 / 100);
}

TEST(HistogramTest, ScrapeDuringRecordTSan) {
  Histogram histogram({10, 100});
  std::atomic<bool> stop{false};
  std::vector<std::thread> writers;
  for (int t = 0; t < 4; ++t) {
    writers.emplace_back([&] {
      int64_t i = 0;
      while (!stop.load(std::memory_order_relaxed)) histogram.Record(i++ % 200);
    });
  }
  uint64_t last_count = 0;
  for (int i = 0; i < 500; ++i) {
    // Mid-update scrapes: relaxed cells make no cross-location promises,
    // so the only invariant worth asserting while writers run is that the
    // total count never moves backwards. The real check is TSan cleanliness.
    Histogram::Snapshot snap = histogram.GetSnapshot();
    EXPECT_GE(snap.count, last_count);
    last_count = snap.count;
  }
  stop.store(true);
  for (std::thread& writer : writers) writer.join();
  Histogram::Snapshot final_snap = histogram.GetSnapshot();
  uint64_t total = 0;
  for (uint64_t c : final_snap.bucket_counts) total += c;
  EXPECT_EQ(final_snap.count, total);
}

TEST(HistogramTest, EmptySnapshotScrapesCleanly) {
  Histogram histogram({10, 100});
  Histogram::Snapshot snap = histogram.GetSnapshot();
  EXPECT_EQ(snap.count, 0u);
  EXPECT_EQ(snap.sum, 0);
  ASSERT_EQ(snap.bucket_counts.size(), 3u);  // two bounds + the +Inf slot
  for (uint64_t c : snap.bucket_counts) EXPECT_EQ(c, 0u);
  EXPECT_DOUBLE_EQ(HistogramQuantile(snap, 0.5), 0.0);
}

TEST(HistogramQuantileTest, InterpolatesWithinBucket) {
  Histogram histogram({100, 200});
  for (int i = 0; i < 100; ++i) histogram.Record(150);  // all in (100, 200]
  Histogram::Snapshot snap = histogram.GetSnapshot();
  // Linear interpolation inside the (100, 200] bucket: p50 is the middle.
  EXPECT_DOUBLE_EQ(HistogramQuantile(snap, 0.5), 150.0);
  EXPECT_DOUBLE_EQ(HistogramQuantile(snap, 1.0), 200.0);
}

TEST(HistogramQuantileTest, ValueEqualToBoundStaysInLowerBucket) {
  // Upper-inclusive semantics carry into the quantile: a population of
  // exactly-at-bound values is attributed to that bound's bucket, so every
  // quantile lands at or below the bound — never in the next bucket.
  Histogram histogram({10, 100});
  for (int i = 0; i < 8; ++i) histogram.Record(10);
  Histogram::Snapshot snap = histogram.GetSnapshot();
  EXPECT_EQ(snap.bucket_counts[0], 8u);
  EXPECT_LE(HistogramQuantile(snap, 0.99), 10.0);
}

TEST(HistogramQuantileTest, OverflowBucketClampsToLastFiniteBound) {
  Histogram histogram({10, 100});
  histogram.Record(5000);  // +Inf bucket
  histogram.Record(7000);
  Histogram::Snapshot snap = histogram.GetSnapshot();
  EXPECT_EQ(snap.bucket_counts.back(), 2u);
  // A quantile falling in +Inf cannot interpolate to infinity; it reports
  // the last finite bound as the best lower estimate.
  EXPECT_DOUBLE_EQ(HistogramQuantile(snap, 0.99), 100.0);
}

TEST(HistogramQuantileTest, ClampsQAndSkipsEmptyLeadingBuckets) {
  Histogram histogram({10, 100, 1000});
  histogram.Record(50);
  Histogram::Snapshot snap = histogram.GetSnapshot();
  EXPECT_DOUBLE_EQ(HistogramQuantile(snap, -1.0),
                   HistogramQuantile(snap, 0.0));
  EXPECT_DOUBLE_EQ(HistogramQuantile(snap, 2.0),
                   HistogramQuantile(snap, 1.0));
  // The single sample lives in (10, 100]; every quantile stays there.
  EXPECT_GT(HistogramQuantile(snap, 0.5), 10.0);
  EXPECT_LE(HistogramQuantile(snap, 0.5), 100.0);
}

// ------------------------------------------------------------- registry

TEST(RegistryTest, SameNameReturnsSameHandle) {
  Registry& registry = Registry::Global();
  Counter* a = registry.GetCounter("obs_test_same_name");
  Counter* b = registry.GetCounter("obs_test_same_name");
  EXPECT_EQ(a, b);
  Gauge* g1 = registry.GetGauge("obs_test_same_gauge");
  Gauge* g2 = registry.GetGauge("obs_test_same_gauge");
  EXPECT_EQ(g1, g2);
}

TEST(RegistryTest, CounterValuesSnapshotsRegisteredCounters) {
  Registry& registry = Registry::Global();
  registry.GetCounter("obs_test_snapshot_counter")->Add(7);
  std::map<std::string, uint64_t> values = registry.CounterValues();
  ASSERT_TRUE(values.count("obs_test_snapshot_counter"));
  EXPECT_GE(values["obs_test_snapshot_counter"], 7u);
}

TEST(RegistryTest, RenderPrometheusExposition) {
  Registry& registry = Registry::Global();
  registry.GetCounter("obs_test_prom_counter")->Add(3);
  registry.GetGauge("obs_test_prom_gauge")->Set(-2);
  registry.GetHistogram("obs_test_prom_hist", {1, 10})->Record(5);
  const std::string text = registry.RenderPrometheus();
  EXPECT_NE(text.find("# TYPE obs_test_prom_counter counter"),
            std::string::npos);
  EXPECT_NE(text.find("obs_test_prom_counter 3"), std::string::npos);
  EXPECT_NE(text.find("# TYPE obs_test_prom_gauge gauge"), std::string::npos);
  EXPECT_NE(text.find("obs_test_prom_gauge -2"), std::string::npos);
  EXPECT_NE(text.find("# TYPE obs_test_prom_hist histogram"),
            std::string::npos);
  EXPECT_NE(text.find("obs_test_prom_hist_bucket{le=\"1\"} 0"),
            std::string::npos);
  EXPECT_NE(text.find("obs_test_prom_hist_bucket{le=\"10\"} 1"),
            std::string::npos);
  EXPECT_NE(text.find("obs_test_prom_hist_bucket{le=\"+Inf\"} 1"),
            std::string::npos);
  EXPECT_NE(text.find("obs_test_prom_hist_sum 5"), std::string::npos);
  EXPECT_NE(text.find("obs_test_prom_hist_count 1"), std::string::npos);
}

TEST(RegistryTest, ConcurrentGetOrCreateIsSafe) {
  Registry& registry = Registry::Global();
  std::vector<std::thread> threads;
  std::vector<Counter*> handles(8, nullptr);
  for (int t = 0; t < 8; ++t) {
    threads.emplace_back([&registry, &handles, t] {
      handles[t] = registry.GetCounter("obs_test_concurrent_get");
      handles[t]->Add(1);
    });
  }
  for (std::thread& thread : threads) thread.join();
  for (int t = 1; t < 8; ++t) EXPECT_EQ(handles[t], handles[0]);
  EXPECT_EQ(handles[0]->Value(), 8u);
}

// ------------------------------------------------------- spans and trace

TEST(TraceTest, ScopedSpanAccumulatesIntoCounter) {
  Counter counter;
  { ScopedSpan span(&counter, "obs_test_span"); }
  EXPECT_GT(counter.Value(), 0u);
}

TEST(TraceTest, DisabledSkipsCountingEntirely) {
  Counter counter;
  SetEnabled(false);
  { ScopedSpan span(&counter, "obs_test_disabled_span"); }
  EXPECT_EQ(EndSpan(&counter, "obs_test_disabled_end", NowNs()), 0);
  SetEnabled(true);
  EXPECT_EQ(counter.Value(), 0u);
}

TEST(TraceTest, RecorderCollectsSpansAndWritesChromeTrace) {
  TraceRecorder recorder;
  SetTraceRecorder(&recorder);
  {
    ScopedSpan span(nullptr, "traced_phase");
  }
  EndSpan(nullptr, "manual_phase", NowNs());
  SetTraceRecorder(nullptr);
  EXPECT_EQ(recorder.event_count(), 2u);

  const std::string path = ::testing::TempDir() + "/obs_test_trace.json";
  ASSERT_TRUE(recorder.WriteChromeTrace(path).ok());
  std::FILE* f = std::fopen(path.c_str(), "rb");
  ASSERT_NE(f, nullptr);
  std::string contents(1 << 14, '\0');
  contents.resize(std::fread(contents.data(), 1, contents.size(), f));
  std::fclose(f);
  EXPECT_NE(contents.find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(contents.find("\"name\":\"traced_phase\""), std::string::npos);
  EXPECT_NE(contents.find("\"ph\":\"X\""), std::string::npos);
  std::remove(path.c_str());
}

TEST(TraceTest, NoRecorderInstalledStillCounts) {
  ASSERT_EQ(GetTraceRecorder(), nullptr);
  Counter counter;
  { ScopedSpan span(&counter, "uninstalled"); }
  EXPECT_GT(counter.Value(), 0u);
}

// -------------------------------------------------------- request traces

TEST(RequestTraceTest, IdsAreProcessMonotonic) {
  RequestTrace a;
  RequestTrace b;
  RequestTrace c;
  EXPECT_LT(a.id(), b.id());
  EXPECT_LT(b.id(), c.id());
}

TEST(RequestTraceTest, StageAccumulationAndDefaults) {
  RequestTrace trace;
  EXPECT_STREQ(trace.endpoint(), "other");
  EXPECT_STREQ(trace.outcome(), "none");
  trace.AddStageNs(RequestStage::kRender, 100);
  trace.AddStageNs(RequestStage::kRender, 50);
  trace.AddStageNs(RequestStage::kParse, 0);    // ignored
  trace.AddStageNs(RequestStage::kParse, -10);  // ignored
  EXPECT_EQ(trace.stage_ns(RequestStage::kRender), 150);
  EXPECT_EQ(trace.stage_ns(RequestStage::kParse), 0);
}

TEST(RequestTraceTest, StageTimerRecordsElapsedAndToleratesNull) {
  RequestTrace trace;
  {
    RequestTrace::StageTimer timer(&trace, RequestStage::kRender);
  }
  EXPECT_GT(trace.stage_ns(RequestStage::kRender), 0);
  {
    RequestTrace::StageTimer timer(nullptr, RequestStage::kRender);
  }  // must not crash
}

TEST(RequestTraceTest, FinishIsIdempotent) {
  RequestTrace trace;
  const int64_t first = trace.Finish();
  EXPECT_GE(first, 0);
  EXPECT_EQ(trace.Finish(), first);
  EXPECT_EQ(trace.total_ns(), first);
}

TEST(RequestTraceTest, DisabledStillAssignsIdsButSkipsTimings) {
  SetEnabled(false);
  RequestTrace a;
  RequestTrace b;
  EXPECT_LT(a.id(), b.id());  // access-log correlation survives the switch
  EXPECT_EQ(a.start_ns(), 0);
  {
    RequestTrace::StageTimer timer(&a, RequestStage::kRender);
  }
  EXPECT_EQ(a.stage_ns(RequestStage::kRender), 0);
  EXPECT_EQ(a.Finish(), 0);
  SetEnabled(true);
}

TEST(RequestTraceTest, RebaseStartMovesTheClockBack) {
  RequestTrace trace;
  const int64_t earlier = trace.start_ns() - 1000;
  trace.RebaseStart(earlier);
  EXPECT_EQ(trace.start_ns(), earlier);
  trace.RebaseStart(0);  // ignored: no first byte observed
  EXPECT_EQ(trace.start_ns(), earlier);
}

TEST(RequestTraceTest, StageNamesAndCounterNamesAlign) {
  EXPECT_STREQ(RequestStageName(RequestStage::kParse), "parse");
  EXPECT_STREQ(RequestStageName(RequestStage::kRender), "render");
  EXPECT_STREQ(RequestStageCounterName(RequestStage::kParse),
               kServeStageParseNs);
  EXPECT_STREQ(RequestStageCounterName(RequestStage::kWrite),
               kServeStageWriteNs);
}

// -------------------------------------------------------- slow-query ring

RequestTraceRecord TestRecord(uint64_t id) {
  RequestTraceRecord record;
  record.id = id;
  record.method = "GET";
  record.target = "/v1/user/" + std::to_string(id);
  return record;
}

TEST(RingLogTest, RetainsInsertionOrderBelowCapacity) {
  RingLog ring(4);
  ring.Push(TestRecord(1));
  ring.Push(TestRecord(2));
  std::vector<RequestTraceRecord> snap = ring.Snapshot();
  ASSERT_EQ(snap.size(), 2u);
  EXPECT_EQ(snap[0].id, 1u);
  EXPECT_EQ(snap[1].id, 2u);
  EXPECT_EQ(ring.total_pushed(), 2u);
}

TEST(RingLogTest, WrapsKeepingNewestOldestFirst) {
  RingLog ring(3);
  for (uint64_t id = 1; id <= 5; ++id) ring.Push(TestRecord(id));
  std::vector<RequestTraceRecord> snap = ring.Snapshot();
  ASSERT_EQ(snap.size(), 3u);
  EXPECT_EQ(snap[0].id, 3u);  // 1 and 2 aged out
  EXPECT_EQ(snap[1].id, 4u);
  EXPECT_EQ(snap[2].id, 5u);
  EXPECT_EQ(ring.capacity(), 3u);
  EXPECT_EQ(ring.total_pushed(), 5u);
}

TEST(RingLogTest, ZeroCapacityClampsToOne) {
  RingLog ring(0);
  EXPECT_EQ(ring.capacity(), 1u);
  ring.Push(TestRecord(7));
  ring.Push(TestRecord(8));
  std::vector<RequestTraceRecord> snap = ring.Snapshot();
  ASSERT_EQ(snap.size(), 1u);
  EXPECT_EQ(snap[0].id, 8u);
}

TEST(RingLogTest, MakeRecordFlattensTheTrace) {
  RequestTrace trace;
  trace.set_endpoint("user");
  trace.set_outcome("miss");
  trace.set_status(200);
  trace.set_generation(3);
  trace.AddStageNs(RequestStage::kRender, 1234);
  trace.Finish();
  RequestTraceRecord record = MakeRecord(trace, "GET", "/v1/user/9");
  EXPECT_EQ(record.id, trace.id());
  EXPECT_EQ(record.total_ns, trace.total_ns());
  EXPECT_EQ(record.stage_ns[static_cast<int>(RequestStage::kRender)], 1234);
  EXPECT_STREQ(record.endpoint, "user");
  EXPECT_STREQ(record.outcome, "miss");
  EXPECT_EQ(record.status, 200);
  EXPECT_EQ(record.generation, 3u);
  EXPECT_EQ(record.method, "GET");
  EXPECT_EQ(record.target, "/v1/user/9");
}

// ----------------------------------------------------------- fit profile

TEST(FitProfileTest, BreakdownNormalizesWorkerPhasesByThreads) {
  // Every in-sweep engine phase runs inside a parallel section now
  // (region-sliced refresh/merge, per-sub-shard kernel/fold, the rebuild
  // of the alias proposal tables), so each one accumulates across the 4
  // threads and normalizes down by 4 to a wall-clock-equivalent.
  std::map<std::string, uint64_t> before;
  std::map<std::string, uint64_t> after;
  after[kFitSweepsTotal] = 10;
  after[kFitSweepNs] = 100000000;          // 100 ms of sweep wall
  after[kFitReplicaRefreshNs] = 24000000;  // 24 ms across 4 threads = 6 ms
  after[kFitAliasRebuildNs] = 16000000;    // 16 ms across 4 threads = 4 ms
  after[kFitShardKernelNs] = 240000000;    // 240 ms across 4 threads = 60 ms
  after[kFitDeltaFoldNs] = 16000000;       // 16 ms across 4 threads = 4 ms
  after[kFitBarrierWaitNs] = 80000000;     // 80 ms across 4 threads = 20 ms
  after[kFitDeltaMergeNs] = 24000000;      // 24 ms across 4 threads = 6 ms
  FitProfile profile = ComputeFitProfile(before, after, 4);
  EXPECT_EQ(profile.sweeps, 10u);
  EXPECT_DOUBLE_EQ(profile.sweep_wall_ms, 100.0);
  // 6 + 4 + 60 + 4 + 20 + 6 = 100 ms attributed.
  EXPECT_NEAR(profile.accounted_pct, 100.0, 1e-9);
  double kernel_ms = -1.0, barrier_ms = -1.0, fold_ms = -1.0,
         refresh_ms = -1.0;
  for (const PhaseRow& row : profile.rows) {
    if (row.counter == kFitShardKernelNs) kernel_ms = row.wall_ms;
    if (row.counter == kFitBarrierWaitNs) barrier_ms = row.wall_ms;
    if (row.counter == kFitDeltaFoldNs) fold_ms = row.wall_ms;
    if (row.counter == kFitReplicaRefreshNs) refresh_ms = row.wall_ms;
  }
  EXPECT_DOUBLE_EQ(kernel_ms, 60.0);
  EXPECT_DOUBLE_EQ(barrier_ms, 20.0);
  EXPECT_DOUBLE_EQ(fold_ms, 4.0);
  EXPECT_DOUBLE_EQ(refresh_ms, 6.0);
}

TEST(FitProfileTest, PruneAndRebalanceReportedOutsideTheSweepBudget) {
  std::map<std::string, uint64_t> before;
  std::map<std::string, uint64_t> after;
  after[kFitSweepNs] = 100000000;   // 100 ms
  after[kFitPruneNs] = 5000000;     // 5 ms between sweeps
  after[kFitRebalanceNs] = 2000000; // 2 ms between sweeps
  after[kFitAccumulateNs] = 8000000; // 8 ms between sweeps, main thread
  FitProfile profile = ComputeFitProfile(before, after, 4);
  // Between-sweeps phases never count toward the in-sweep 100%.
  EXPECT_NEAR(profile.accounted_pct, 0.0, 1e-9);
  double prune_ms = -1.0, rebalance_ms = -1.0, accumulate_ms = -1.0,
         accumulate_pct = -1.0;
  std::string accumulate_phase;
  for (const PhaseRow& row : profile.rows) {
    if (row.counter == kFitPruneNs) prune_ms = row.wall_ms;
    if (row.counter == kFitRebalanceNs) rebalance_ms = row.wall_ms;
    if (row.counter == kFitAccumulateNs) {
      accumulate_ms = row.wall_ms;
      accumulate_pct = row.pct_of_sweep;
      accumulate_phase = row.phase;
    }
  }
  EXPECT_DOUBLE_EQ(prune_ms, 5.0);
  EXPECT_DOUBLE_EQ(rebalance_ms, 2.0);
  // The accumulate is single-threaded: not divided by the 4 workers.
  EXPECT_DOUBLE_EQ(accumulate_ms, 8.0);
  EXPECT_DOUBLE_EQ(accumulate_pct, 8.0);
  EXPECT_EQ(accumulate_phase, "posterior accumulate (between sweeps)");
}

TEST(FitProfileTest, DiffsAgainstBeforeSnapshot) {
  std::map<std::string, uint64_t> before{{kFitSweepNs, 40},
                                         {kFitSweepsTotal, 2}};
  std::map<std::string, uint64_t> after{{kFitSweepNs, 100},
                                        {kFitSweepsTotal, 5}};
  FitProfile profile = ComputeFitProfile(before, after, 1);
  EXPECT_EQ(profile.sweeps, 3u);
  EXPECT_DOUBLE_EQ(profile.sweep_wall_ms, 60e-6);
}

}  // namespace
}  // namespace obs

// --------------------------------------------- logging satellites (common/)

namespace {

TEST(LoggingTest, ParseLogLevelAcceptsAliasesCaseInsensitive) {
  LogLevel level = LogLevel::kInfo;
  EXPECT_TRUE(ParseLogLevel("debug", &level));
  EXPECT_EQ(level, LogLevel::kDebug);
  EXPECT_TRUE(ParseLogLevel("WARN", &level));
  EXPECT_EQ(level, LogLevel::kWarning);
  EXPECT_TRUE(ParseLogLevel("Warning", &level));
  EXPECT_EQ(level, LogLevel::kWarning);
  EXPECT_TRUE(ParseLogLevel("ERROR", &level));
  EXPECT_EQ(level, LogLevel::kError);
  EXPECT_TRUE(ParseLogLevel("info", &level));
  EXPECT_EQ(level, LogLevel::kInfo);
  EXPECT_FALSE(ParseLogLevel("verbose", &level));
  EXPECT_FALSE(ParseLogLevel("", &level));
  EXPECT_EQ(level, LogLevel::kInfo);  // untouched on failure
}

TEST(LoggingTest, SetLogLevelRoundTrips) {
  const LogLevel original = GetLogLevel();
  SetLogLevel(LogLevel::kError);
  EXPECT_EQ(GetLogLevel(), LogLevel::kError);
  SetLogLevel(original);
}

TEST(LoggingTest, EveryLevelNameRoundTripsThroughParseAndSet) {
  // The MLP_LOG_LEVEL environment variable goes through exactly this path
  // (ParseLogLevel then the atomic level store) at process start, so the
  // canonical spelling of every level must survive a full round trip.
  const LogLevel original = GetLogLevel();
  const struct {
    const char* name;
    LogLevel level;
  } kLevels[] = {{"debug", LogLevel::kDebug},
                 {"info", LogLevel::kInfo},
                 {"warning", LogLevel::kWarning},
                 {"error", LogLevel::kError}};
  for (const auto& entry : kLevels) {
    LogLevel parsed = LogLevel::kInfo;
    ASSERT_TRUE(ParseLogLevel(entry.name, &parsed)) << entry.name;
    EXPECT_EQ(parsed, entry.level) << entry.name;
    SetLogLevel(parsed);
    EXPECT_EQ(GetLogLevel(), entry.level) << entry.name;
  }
  SetLogLevel(original);
}

TEST(LoggingTest, ThreadOrdinalsAreStableAndDistinct) {
  const int mine = CurrentThreadOrdinal();
  EXPECT_EQ(CurrentThreadOrdinal(), mine);  // stable within a thread
  int other = -1;
  std::thread([&other] { other = CurrentThreadOrdinal(); }).join();
  EXPECT_NE(other, mine);
}

TEST(LoggingTest, MonotonicMicrosNeverGoesBackwards) {
  int64_t last = MonotonicMicros();
  for (int i = 0; i < 100; ++i) {
    int64_t now = MonotonicMicros();
    EXPECT_GE(now, last);
    last = now;
  }
}

}  // namespace
}  // namespace mlp
