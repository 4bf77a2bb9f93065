#include "stats.h"

#include <sys/prctl.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <map>
#include <numeric>
#include <thread>

namespace perfbench {

namespace {

size_t NearestRank(size_t n, double q) {
  // The epsilon keeps products like 99.9% of 10000 from rounding up a rank.
  const double rank = std::ceil(q * static_cast<double>(n) / 100.0 - 1e-9);
  return std::clamp<size_t>(static_cast<size_t>(rank), 1, n);
}

}  // namespace

double Percentile(std::vector<double> samples, double q) {
  if (samples.empty()) return 0.0;
  const size_t index = NearestRank(samples.size(), q) - 1;
  std::nth_element(samples.begin(), samples.begin() + index, samples.end());
  return samples[index];
}

size_t SamplesBeyond(size_t n, double q) {
  return n == 0 ? 0 : n - NearestRank(n, q);
}

double HighestSupportedPercentile(size_t n, size_t min_beyond) {
  for (double q : {99.99, 99.9, 99.0, 95.0, 90.0, 75.0, 50.0}) {
    if (SamplesBeyond(n, q) >= min_beyond) return q;
  }
  return 0.0;
}

Summary Summarize(const std::vector<double>& samples) {
  Summary s;
  s.count = samples.size();
  s.p50 = Percentile(samples, 50.0);
  s.tail_q = HighestSupportedPercentile(samples.size());
  s.tail = s.tail_q > 0.0 ? Percentile(samples, s.tail_q) : 0.0;
  return s;
}

double Mean(const std::vector<double>& samples) {
  if (samples.empty()) return 0.0;
  return std::accumulate(samples.begin(), samples.end(), 0.0) /
         static_cast<double>(samples.size());
}

std::vector<double> IntervalPercentiles(const std::vector<double>& at_s,
                                        const std::vector<double>& values,
                                        double interval_s, double q,
                                        size_t min_beyond) {
  std::map<int64_t, std::vector<double>> slices;
  for (size_t i = 0; i < values.size() && i < at_s.size(); ++i) {
    slices[static_cast<int64_t>(at_s[i] / interval_s)].push_back(values[i]);
  }
  std::vector<double> out;
  for (auto& [slice, samples] : slices) {
    if (SamplesBeyond(samples.size(), q) >= min_beyond) {
      out.push_back(Percentile(std::move(samples), q));
    }
  }
  return out;
}

ZipfSampler::ZipfSampler(int n, double s, uint64_t seed) {
  cdf_.resize(n);
  double total = 0.0;
  for (int r = 0; r < n; ++r) {
    total += 1.0 / std::pow(static_cast<double>(r + 1), s);
    cdf_[r] = total;
  }
  for (double& c : cdf_) c /= total;
  items_.resize(n);
  std::iota(items_.begin(), items_.end(), 0);
  mlp::Pcg32 rng(seed, 0x2545f4914f6cdd1dULL);
  std::shuffle(items_.begin(), items_.end(), rng);
}

int ZipfSampler::Sample(mlp::Pcg32& rng) const {
  const double u = rng.NextDouble();
  const size_t rank = static_cast<size_t>(
      std::upper_bound(cdf_.begin(), cdf_.end(), u) - cdf_.begin());
  return items_[std::min(rank, items_.size() - 1)];
}

void Tally::Record(bool ok, const std::string& what) {
  attempted_.fetch_add(1, std::memory_order_relaxed);
  if (ok) return;
  failed_.fetch_add(1, std::memory_order_relaxed);
  std::lock_guard<std::mutex> lock(mu_);
  if (failures_.size() < kKeptFailures) failures_.push_back(what);
}

double Tally::error_pct() const {
  const uint64_t n = attempted();
  return n == 0 ? 0.0
                : 100.0 * static_cast<double>(failed()) /
                      static_cast<double>(n);
}

std::vector<std::string> Tally::failures() const {
  std::lock_guard<std::mutex> lock(mu_);
  return failures_;
}

int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

OpenLoopResult RunOpenLoop(int lanes, double rate_per_s, double seconds,
                           const std::function<bool(int, int64_t)>& send,
                           const std::atomic<bool>* stop) {
  const double interval_ns = 1e9 / rate_per_s;
  const int64_t total = static_cast<int64_t>(seconds * rate_per_s);
  // Sleeping lands tens of microseconds late; the last stretch before a
  // due time is spun so the schedule, not the sleep granularity, sets the
  // send time.
  constexpr int64_t kSpinNs = 60000;
  std::atomic<int64_t> next{0};
  std::vector<OpenLoopResult> per_lane(lanes);
  const int64_t start = NowNs() + 1000000;
  std::vector<std::thread> threads;
  for (int lane = 0; lane < lanes; ++lane) {
    threads.emplace_back([&, lane] {
      // Fine-grained sleeps: the default 50 us timer slack would otherwise
      // push every wake-up past the spin window.
      prctl(PR_SET_TIMERSLACK, 1UL, 0UL, 0UL, 0UL);
      OpenLoopResult& out = per_lane[lane];
      while (true) {
        const int64_t i = next.fetch_add(1);
        if (i >= total) break;
        const int64_t due =
            start + static_cast<int64_t>(static_cast<double>(i) * interval_ns);
        int64_t now = NowNs();
        if (due - now > kSpinNs) {
          std::this_thread::sleep_for(
              std::chrono::nanoseconds(due - now - kSpinNs));
        }
        while ((now = NowNs()) < due) {
        }
        if (stop != nullptr && stop->load(std::memory_order_acquire)) break;
        out.late_us.push_back(static_cast<double>(now - due) / 1e3);
        ++out.sent;
        const bool ok = send(lane, i);
        const int64_t done = NowNs();
        if (ok) {
          out.latency_us.push_back(static_cast<double>(done - due) / 1e3);
          out.at_s.push_back(static_cast<double>(due - start) / 1e9);
        } else {
          ++out.failed;
        }
      }
    });
  }
  for (std::thread& t : threads) t.join();
  OpenLoopResult merged;
  for (OpenLoopResult& lane : per_lane) {
    merged.latency_us.insert(merged.latency_us.end(), lane.latency_us.begin(),
                             lane.latency_us.end());
    merged.at_s.insert(merged.at_s.end(), lane.at_s.begin(), lane.at_s.end());
    merged.late_us.insert(merged.late_us.end(), lane.late_us.begin(),
                          lane.late_us.end());
    merged.sent += lane.sent;
    merged.failed += lane.failed;
  }
  return merged;
}

}  // namespace perfbench
