#ifndef MLP_COMMON_RANDOM_H_
#define MLP_COMMON_RANDOM_H_

#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

namespace mlp {

/// Complete serializable state of a Pcg32 — the generator resumed from a
/// saved state continues its stream exactly (io/model_snapshot.{h,cc}
/// persists these for warm-started fits). The Box–Muller cache is part of
/// the state: Normal() alternates between drawing two uniforms and
/// replaying the cached second deviate.
struct Pcg32State {
  uint64_t state = 0;
  uint64_t inc = 0;
  uint8_t has_cached_normal = 0;
  double cached_normal = 0.0;
};

/// PCG-XSH-RR 64/32 pseudo-random generator (O'Neill 2014).
///
/// Deterministic given a seed, fast, and with a tiny state — every sampler,
/// generator and test in the library takes one of these so runs are exactly
/// reproducible. Satisfies UniformRandomBitGenerator.
class Pcg32 {
 public:
  using result_type = uint32_t;

  explicit Pcg32(uint64_t seed = 0x853c49e6748fea9bULL,
                 uint64_t stream = 0xda3e39cb94b95bdbULL);

  static constexpr result_type min() { return 0; }
  static constexpr result_type max() { return 0xffffffffu; }

  // The draws the samplers' inner loops make (NextU32, NextU64,
  // NextDouble, UniformU32, Bernoulli) are defined inline here, so an
  // alias-MH proposal pays no call per draw.

  /// Next raw 32-bit draw.
  uint32_t operator()() { return NextU32(); }
  uint32_t NextU32() {
    const uint64_t oldstate = state_;
    state_ = oldstate * 6364136223846793005ULL + inc_;
    const uint32_t xorshifted =
        static_cast<uint32_t>(((oldstate >> 18u) ^ oldstate) >> 27u);
    const uint32_t rot = static_cast<uint32_t>(oldstate >> 59u);
    return (xorshifted >> rot) | (xorshifted << ((-rot) & 31));
  }
  uint64_t NextU64() {
    const uint64_t hi = NextU32();
    return (hi << 32) | NextU32();
  }

  /// Uniform in [0, 1).
  double NextDouble() {
    // 53 random bits into the mantissa for a uniform double in [0, 1).
    return static_cast<double>(NextU64() >> 11) * 0x1.0p-53;
  }

  /// Uniform integer in [0, bound) without modulo bias. bound must be > 0.
  uint32_t UniformU32(uint32_t bound) {
    if (bound == 0) ZeroBoundFailed();
    // Lemire's unbiased rejection method.
    const uint32_t threshold = (-bound) % bound;
    for (;;) {
      const uint32_t r = NextU32();
      if (r >= threshold) return r % bound;
    }
  }

  /// Uniform integer in [lo, hi] inclusive.
  int UniformInt(int lo, int hi);

  /// Uniform real in [lo, hi).
  double UniformDouble(double lo, double hi);

  /// Bernoulli draw with success probability p (clamped to [0,1]).
  bool Bernoulli(double p) {
    if (p <= 0.0) return false;
    if (p >= 1.0) return true;
    return NextDouble() < p;
  }

  /// Standard normal via Box–Muller.
  double Normal(double mean = 0.0, double stddev = 1.0);

  /// Exponential with rate lambda (> 0).
  double Exponential(double lambda);

  /// Gamma(shape, 1.0) via Marsaglia–Tsang; shape > 0.
  double Gamma(double shape);

  /// Poisson with given mean (Knuth for small mean, PTRS-like rejection
  /// through normal approximation threshold for large mean).
  int Poisson(double mean);

  /// Index draw from unnormalized non-negative weights. Linear scan;
  /// for repeated sampling from the same weights use stats::AliasTable.
  /// Returns weights.size()-1 on numeric fallthrough; -1 when all weights
  /// are zero or the vector is empty.
  int Categorical(const std::vector<double>& weights);

  /// Dirichlet draw with concentration `alpha` (all entries > 0).
  std::vector<double> Dirichlet(const std::vector<double>& alpha);

  /// Fisher–Yates shuffle.
  template <typename T>
  void Shuffle(std::vector<T>* v) {
    if (v->empty()) return;
    for (size_t i = v->size() - 1; i > 0; --i) {
      size_t j = UniformU32(static_cast<uint32_t>(i + 1));
      std::swap((*v)[i], (*v)[j]);
    }
  }

  /// Child generator with a decorrelated stream; use to give each component
  /// its own RNG derived from one master seed.
  Pcg32 Fork();

  /// Snapshot / resume of the exact generator position.
  Pcg32State SaveState() const;
  void RestoreState(const Pcg32State& state);

 private:
  /// UniformU32's `bound > 0` check failure, kept out of line and cold so
  /// the inlined draw carries only a compare and a branch.
  [[noreturn]] [[gnu::cold]] static void ZeroBoundFailed();

  uint64_t state_;
  uint64_t inc_;
  bool has_cached_normal_ = false;
  double cached_normal_ = 0.0;
};

}  // namespace mlp

#endif  // MLP_COMMON_RANDOM_H_
