#include "common/random.h"

#include <cmath>

#include "common/logging.h"

namespace mlp {

Pcg32::Pcg32(uint64_t seed, uint64_t stream) : state_(0), inc_((stream << 1u) | 1u) {
  NextU32();
  state_ += seed;
  NextU32();
}

void Pcg32::ZeroBoundFailed() {
  internal::CheckFailed("bound > 0", __FILE__, __LINE__);
}

int Pcg32::UniformInt(int lo, int hi) {
  MLP_CHECK(lo <= hi);
  uint32_t span = static_cast<uint32_t>(hi - lo) + 1u;
  if (span == 0) return static_cast<int>(NextU32());  // full range
  return lo + static_cast<int>(UniformU32(span));
}

double Pcg32::UniformDouble(double lo, double hi) {
  return lo + (hi - lo) * NextDouble();
}

double Pcg32::Normal(double mean, double stddev) {
  if (has_cached_normal_) {
    has_cached_normal_ = false;
    return mean + stddev * cached_normal_;
  }
  double u1;
  do {
    u1 = NextDouble();
  } while (u1 <= 1e-300);
  double u2 = NextDouble();
  double r = std::sqrt(-2.0 * std::log(u1));
  double theta = 2.0 * M_PI * u2;
  cached_normal_ = r * std::sin(theta);
  has_cached_normal_ = true;
  return mean + stddev * r * std::cos(theta);
}

double Pcg32::Exponential(double lambda) {
  MLP_CHECK(lambda > 0.0);
  double u;
  do {
    u = NextDouble();
  } while (u <= 1e-300);
  return -std::log(u) / lambda;
}

double Pcg32::Gamma(double shape) {
  MLP_CHECK(shape > 0.0);
  if (shape < 1.0) {
    // Boost to shape+1 and scale back (Marsaglia–Tsang note).
    double u;
    do {
      u = NextDouble();
    } while (u <= 1e-300);
    return Gamma(shape + 1.0) * std::pow(u, 1.0 / shape);
  }
  double d = shape - 1.0 / 3.0;
  double c = 1.0 / std::sqrt(9.0 * d);
  for (;;) {
    double x = Normal();
    double v = 1.0 + c * x;
    if (v <= 0.0) continue;
    v = v * v * v;
    double u = NextDouble();
    if (u < 1.0 - 0.0331 * x * x * x * x) return d * v;
    if (u > 1e-300 &&
        std::log(u) < 0.5 * x * x + d * (1.0 - v + std::log(v))) {
      return d * v;
    }
  }
}

int Pcg32::Poisson(double mean) {
  MLP_CHECK(mean >= 0.0);
  if (mean == 0.0) return 0;
  if (mean < 30.0) {
    // Knuth's multiplication method.
    double limit = std::exp(-mean);
    double product = NextDouble();
    int count = 0;
    while (product > limit) {
      ++count;
      product *= NextDouble();
    }
    return count;
  }
  // Normal approximation with continuity correction; adequate for the
  // workload-generation use cases in this library.
  double draw = Normal(mean, std::sqrt(mean));
  return draw < 0.0 ? 0 : static_cast<int>(draw + 0.5);
}

int Pcg32::Categorical(const std::vector<double>& weights) {
  double total = 0.0;
  for (double w : weights) total += w;
  if (total <= 0.0 || weights.empty()) return -1;
  double target = NextDouble() * total;
  double acc = 0.0;
  for (size_t i = 0; i < weights.size(); ++i) {
    acc += weights[i];
    if (target < acc) return static_cast<int>(i);
  }
  return static_cast<int>(weights.size()) - 1;
}

std::vector<double> Pcg32::Dirichlet(const std::vector<double>& alpha) {
  std::vector<double> out(alpha.size());
  double total = 0.0;
  for (size_t i = 0; i < alpha.size(); ++i) {
    MLP_CHECK(alpha[i] > 0.0);
    out[i] = Gamma(alpha[i]);
    total += out[i];
  }
  if (total <= 0.0) {
    // Degenerate draw (all gammas underflowed); fall back to uniform.
    double uniform = 1.0 / static_cast<double>(alpha.size());
    for (double& x : out) x = uniform;
    return out;
  }
  for (double& x : out) x /= total;
  return out;
}

Pcg32 Pcg32::Fork() {
  uint64_t seed = NextU64();
  uint64_t stream = NextU64();
  return Pcg32(seed, stream);
}

Pcg32State Pcg32::SaveState() const {
  Pcg32State s;
  s.state = state_;
  s.inc = inc_;
  s.has_cached_normal = has_cached_normal_ ? 1 : 0;
  s.cached_normal = cached_normal_;
  return s;
}

void Pcg32::RestoreState(const Pcg32State& state) {
  state_ = state.state;
  inc_ = state.inc;
  has_cached_normal_ = state.has_cached_normal != 0;
  cached_normal_ = state.cached_normal;
}

}  // namespace mlp
