// Deterministic, fast pseudo-random number generation for simulations.
//
// Every stochastic component in quamax (channel draws, AWGN, ICE noise,
// Metropolis sweeps) takes an explicit Rng so that experiments are exactly
// reproducible from a single seed.  The generator is xoshiro256**, seeded
// through splitmix64 as its authors recommend; it satisfies the C++
// UniformRandomBitGenerator concept so it also composes with <random>
// distributions when convenient.
#pragma once

#include <array>
#include <cmath>
#include <cstdint>
#include <limits>

namespace quamax {

/// xoshiro256** engine (Blackman & Vigna). Fast, 256-bit state, passes BigCrush.
class Rng {
 public:
  using result_type = std::uint64_t;

  /// Seeds the full 256-bit state from a single 64-bit seed via splitmix64.
  explicit Rng(std::uint64_t seed = 0x9e3779b97f4a7c15ull) noexcept { reseed(seed); }

  void reseed(std::uint64_t seed) noexcept {
    for (auto& word : state_) word = splitmix64(seed);
  }

  static constexpr result_type min() noexcept { return 0; }
  static constexpr result_type max() noexcept {
    return std::numeric_limits<result_type>::max();
  }

  result_type operator()() noexcept {
    result_type result;
    next(state_[0], state_[1], state_[2], state_[3], result);
    return result;
  }

  /// One xoshiro256** step on the four state words s0..s3, its draw written
  /// to `result` — operator() is this step on the generator's own state.  A
  /// kernel that advances several generators in lockstep (SaEngine's
  /// threshold32 draw pass) runs it on words copied out with state() and
  /// written back with set_state(), replaying exactly the draws operator()
  /// would make.  U is std::uint64_t or a GCC/Clang vector of them (one
  /// generator per lane); the multiplies are written as shift-adds, which
  /// vector units have.  The draw is an out-parameter, and the rotations
  /// are written out, because a function compiled without AVX that returns
  /// a 32-byte vector has another ABI than an AVX caller (-Wpsabi).
  template <typename U>
  static void next(U& s0, U& s1, U& s2, U& s3, U& result) noexcept {
    U x = (s1 << 2) + s1;      // s1 * 5
    x = (x << 7) | (x >> 57);  // rotl(x, 7)
    result = (x << 3) + x;     // * 9
    const U t = s1 << 17;
    s2 ^= s0;
    s3 ^= s1;
    s1 ^= s2;
    s0 ^= s3;
    s2 ^= t;
    s3 = (s3 << 45) | (s3 >> 19);  // rotl(s3, 45)
  }
  const std::array<std::uint64_t, 4>& state() const noexcept { return state_; }
  void set_state(const std::array<std::uint64_t, 4>& state) noexcept {
    state_ = state;
  }

  /// Uniform double in [0, 1) with 53 bits of precision.
  double uniform() noexcept {
    return static_cast<double>((*this)() >> 11) * 0x1.0p-53;
  }

  /// Uniform double in [lo, hi).
  double uniform(double lo, double hi) noexcept { return lo + (hi - lo) * uniform(); }

  /// Uniform integer in [0, n). n must be > 0.
  std::uint64_t uniform_index(std::uint64_t n) noexcept {
    // Lemire's unbiased bounded generation (rejection on the low word).
    std::uint64_t x = (*this)();
    __uint128_t m = static_cast<__uint128_t>(x) * n;
    auto lo = static_cast<std::uint64_t>(m);
    if (lo < n) {
      const std::uint64_t threshold = -n % n;
      while (lo < threshold) {
        x = (*this)();
        m = static_cast<__uint128_t>(x) * n;
        lo = static_cast<std::uint64_t>(m);
      }
    }
    return static_cast<std::uint64_t>(m >> 64);
  }

  /// Fair coin flip.
  bool coin() noexcept { return ((*this)() >> 63) != 0; }

  /// Standard normal deviate (Marsaglia polar method, cached spare).
  double normal() noexcept {
    if (has_spare_) {
      has_spare_ = false;
      return spare_;
    }
    double u, v, s;
    do {
      u = uniform(-1.0, 1.0);
      v = uniform(-1.0, 1.0);
      s = u * u + v * v;
    } while (s >= 1.0 || s == 0.0);
    const double factor = std::sqrt(-2.0 * std::log(s) / s);
    spare_ = v * factor;
    has_spare_ = true;
    return u * factor;
  }

  /// Normal deviate with the given mean and standard deviation.
  double normal(double mean, double stddev) noexcept { return mean + stddev * normal(); }

  /// Derives an independent child generator (for parallel / per-instance streams).
  Rng split() noexcept { return Rng{(*this)()}; }

  /// Counter-derived stream `i` of the family keyed by `key`: the generator
  /// for (key, i) is a pure function of its arguments, so a batch of anneals
  /// can hand stream a to anneal a and obtain the SAME draws no matter which
  /// thread runs it or in what order.  The counter is decorrelated through a
  /// splitmix64 step before keying so that adjacent stream ids do not yield
  /// related xoshiro states.
  static Rng for_stream(std::uint64_t key, std::uint64_t stream) noexcept {
    std::uint64_t s = stream;
    return Rng{splitmix64(s) ^ key};
  }

 private:
  static std::uint64_t splitmix64(std::uint64_t& x) noexcept {
    x += 0x9e3779b97f4a7c15ull;
    std::uint64_t z = x;
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
    return z ^ (z >> 31);
  }

  std::array<std::uint64_t, 4> state_{};
  double spare_ = 0.0;
  bool has_spare_ = false;
};

}  // namespace quamax
