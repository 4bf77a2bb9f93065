#ifndef PERFBENCH_STATS_H_
#define PERFBENCH_STATS_H_

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <mutex>
#include <string>
#include <vector>

#include "common/random.h"

namespace perfbench {

/// Nearest-rank percentile (q in [0, 100]) of `samples`, which need not be
/// sorted. 0 for an empty sample.
double Percentile(std::vector<double> samples, double q);

/// How many of `n` samples lie strictly above the nearest-rank q-th
/// percentile.
size_t SamplesBeyond(size_t n, double q);

/// The highest percentile of {99.99, 99.9, 99, 95, 90, 75, 50} that has at
/// least `min_beyond` samples beyond it, or 0 when even the median has
/// fewer — the "report the highest percentile the sample supports" rule.
double HighestSupportedPercentile(size_t n, size_t min_beyond = 10);

/// Median plus the highest supported tail of one set of timings.
struct Summary {
  size_t count = 0;
  double p50 = 0.0;
  double tail_q = 0.0;  // percentile reported as `tail` (0: none supported)
  double tail = 0.0;
};
Summary Summarize(const std::vector<double>& samples);

double Mean(const std::vector<double>& samples);

/// The q-th percentile of `values` within each `interval_s`-long slice of
/// the run (`at_s[i]` is when sample i was due, in seconds from the start),
/// for every slice that has at least `min_beyond` samples beyond its
/// percentile. The median of these is a tail estimate that one noisy
/// second cannot move.
std::vector<double> IntervalPercentiles(const std::vector<double>& at_s,
                                        const std::vector<double>& values,
                                        double interval_s, double q,
                                        size_t min_beyond = 10);

/// Zipf(s) over `n` items: rank r (0-based) is drawn with probability
/// ∝ 1/(r+1)^s, and ranks are mapped onto item ids through a permutation
/// drawn from `seed`, so the hottest items are scattered over the id space.
class ZipfSampler {
 public:
  ZipfSampler(int n, double s, uint64_t seed);

  int Sample(mlp::Pcg32& rng) const;
  /// The item id at popularity rank `rank`.
  int ItemAtRank(int rank) const { return items_[rank]; }

 private:
  std::vector<double> cdf_;
  std::vector<int> items_;
};

/// Thread-safe count of attempted and failed operations (requests,
/// batches, build steps, output checks). Keeps the first few failure
/// descriptions for the report.
class Tally {
 public:
  void Record(bool ok, const std::string& what);
  void Ok() { attempted_.fetch_add(1, std::memory_order_relaxed); }
  void Fail(const std::string& what) { Record(false, what); }

  uint64_t attempted() const { return attempted_.load(); }
  uint64_t failed() const { return failed_.load(); }
  /// 100 · failed / attempted; 0 when nothing was attempted.
  double error_pct() const;
  std::vector<std::string> failures() const;

 private:
  static constexpr size_t kKeptFailures = 8;
  std::atomic<uint64_t> attempted_{0};
  std::atomic<uint64_t> failed_{0};
  mutable std::mutex mu_;
  std::vector<std::string> failures_;
};

int64_t NowNs();

/// What an open-loop phase observed. Latencies run from each request's due
/// time, so a stall is charged to every request scheduled behind it;
/// lateness is how far behind schedule the generator sent each request.
struct OpenLoopResult {
  std::vector<double> latency_us;  // successful requests only
  std::vector<double> at_s;        // their due times, seconds from start
  std::vector<double> late_us;     // every request sent
  int64_t sent = 0;
  int64_t failed = 0;
};

/// Runs an open loop: request i is due at start + i / rate_per_s, for
/// `seconds`. Each of `lanes` threads takes the next due index, waits for
/// its due time, and calls `send(lane, index)`, which returns whether the
/// request succeeded. Requests are never skipped: a lane that falls behind
/// sends late and the lateness counts in the latency. Ends early, without
/// sending further requests, once `stop` (optional) is set.
OpenLoopResult RunOpenLoop(int lanes, double rate_per_s, double seconds,
                           const std::function<bool(int, int64_t)>& send,
                           const std::atomic<bool>* stop = nullptr);

}  // namespace perfbench

#endif  // PERFBENCH_STATS_H_
