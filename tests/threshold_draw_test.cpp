// Parity of threshold32's draw pass on its own.  The kernel pre-draws one
// uniform u per replica per decision and turns it into an energy threshold
// t = -log(u) / beta and a coin (1 iff u < 1/2).  Spins and stream states,
// which kernel_dispatch_test and sa_reference_test compare, show an error
// in t only when some decision's energy change falls between the right and
// the wrong threshold, so an error of a few float ulps can pass them.  This
// test compares the drawn thresholds and coins themselves:
//
//  * the AVX2 copy (four generators per vector) against the 16-byte
//    baseline copy, bit for bit, with the streams left in the same state;
//  * the baseline copy against the contract: coin == (u < 1/2) exactly and
//    t within the transform's error of -log(u) / beta, u being the stream's
//    next uniform(), in decision order.
//
// Both run at every replica width the kernel runs (W in {1, 2, 4, 8}) on
// full and partial pre-draw blocks over several temperatures.
// ThresholdDrawSeam is the engine's friend for this test only: it runs the
// private draw entry with the copy chosen by the test instead of by CPUID.

#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <string>
#include <vector>

#include "quamax/anneal/sa_engine.hpp"
#include "quamax/common/error.hpp"

namespace quamax::anneal {

struct ThresholdDrawSeam {
  /// One draw block of `count` decisions for the rngs.size() streams, on
  /// the AVX2 copy when `avx2`; entry k*W + r is replica r's decision k.
  static void draw(std::vector<Rng>& rngs, std::size_t count, double beta, bool avx2,
                   std::vector<float>& thresholds, std::vector<float>& coins) {
    std::vector<Rng*> streams;
    for (Rng& rng : rngs) streams.push_back(&rng);
    thresholds.assign(count * rngs.size(), -1.0f);
    coins.assign(count * rngs.size(), -1.0f);
    SaEngine::draw_thresholds(streams.data(), rngs.size(), count, beta, avx2,
                              thresholds.data(), coins.data());
  }
};

namespace {

/// The kernel's pre-draw block: decisions per draw call.
constexpr std::size_t kDrawBlock = 64;
constexpr double kBetas[] = {0.03, 0.4, 1.0, 3.7, 25.0};

bool cpu_has_avx2() {
#if defined(__x86_64__)
  return __builtin_cpu_supports("avx2");
#else
  return false;
#endif
}

std::vector<Rng> streams(std::size_t W, std::uint64_t seed) {
  std::vector<Rng> out;
  for (std::size_t r = 0; r < W; ++r) out.push_back(Rng::for_stream(seed, r));
  return out;
}

std::string where(std::size_t W, double beta, std::size_t block, std::size_t k,
                  std::size_t r) {
  return "W=" + std::to_string(W) + " beta=" + std::to_string(beta) + " block " +
         std::to_string(block) + " decision " + std::to_string(k) + " replica " +
         std::to_string(r);
}

TEST(ThresholdDrawTest, Avx2CopyMatchesBaselineBitForBit) {
  if (!cpu_has_avx2()) GTEST_SKIP() << "no AVX2 in CPUID: only the baseline copy runs";
  std::uint64_t seed = 0x7D0;
  for (const std::size_t W : {1ul, 2ul, 4ul, 8ul})
    for (const double beta : kBetas) {
      std::vector<Rng> base_rngs = streams(W, ++seed);
      std::vector<Rng> avx2_rngs = streams(W, seed);
      // Full blocks, then a partial one, from streams that carry on.
      const std::size_t counts[] = {kDrawBlock, kDrawBlock, 13, kDrawBlock};
      for (std::size_t b = 0; b < std::size(counts); ++b) {
        std::vector<float> base_t, base_c, avx2_t, avx2_c;
        ThresholdDrawSeam::draw(base_rngs, counts[b], beta, false, base_t, base_c);
        ThresholdDrawSeam::draw(avx2_rngs, counts[b], beta, true, avx2_t, avx2_c);
        for (std::size_t k = 0; k < counts[b]; ++k)
          for (std::size_t r = 0; r < W; ++r) {
            const std::size_t e = k * W + r;
            ASSERT_EQ(std::bit_cast<std::uint32_t>(avx2_t[e]),
                      std::bit_cast<std::uint32_t>(base_t[e]))
                << where(W, beta, b, k, r) << ": threshold " << avx2_t[e] << " vs "
                << base_t[e];
            ASSERT_EQ(std::bit_cast<std::uint32_t>(avx2_c[e]),
                      std::bit_cast<std::uint32_t>(base_c[e]))
                << where(W, beta, b, k, r) << ": coin";
          }
        for (std::size_t r = 0; r < W; ++r)
          ASSERT_EQ(avx2_rngs[r].state(), base_rngs[r].state())
              << where(W, beta, b, 0, r) << ": stream state";
      }
    }
}

TEST(ThresholdDrawTest, BaselineDrawsTheContract) {
  std::uint64_t seed = 0x7D1;
  for (const std::size_t W : {1ul, 2ul, 4ul, 8ul})
    for (const double beta : kBetas) {
      std::vector<Rng> rngs = streams(W, ++seed);
      std::vector<Rng> reference = streams(W, seed);
      for (std::size_t b = 0; b < 3; ++b) {
        const std::size_t count = b == 1 ? 29 : kDrawBlock;
        std::vector<float> t, coins;
        ThresholdDrawSeam::draw(rngs, count, beta, false, t, coins);
        // Replica r's uniforms are consumed in decision order.
        for (std::size_t r = 0; r < W; ++r)
          for (std::size_t k = 0; k < count; ++k) {
            const double u = reference[r].uniform();
            const double exact = -std::log(u) / beta;
            // The polynomial log is within 4e-8 absolute; the float32
            // rounding adds half an ulp of t.
            const double tolerance = 1e-7 / beta + 1e-7 * std::abs(exact);
            const std::size_t e = k * W + r;
            ASSERT_NEAR(t[e], exact, tolerance) << where(W, beta, b, k, r);
            ASSERT_EQ(coins[e], u < 0.5 ? 1.0f : 0.0f) << where(W, beta, b, k, r);
          }
        for (std::size_t r = 0; r < W; ++r)
          ASSERT_EQ(rngs[r].state(), reference[r].state())
              << where(W, beta, b, 0, r) << ": stream state";
      }
    }
}

TEST(ThresholdDrawTest, RejectsBlocksTheKernelNeverDraws) {
  std::vector<float> t, coins;
  std::vector<Rng> three = streams(3, 1);
  EXPECT_THROW(ThresholdDrawSeam::draw(three, 8, 1.0, false, t, coins), InvalidArgument);
  std::vector<Rng> four = streams(4, 1);
  EXPECT_THROW(ThresholdDrawSeam::draw(four, kDrawBlock + 1, 1.0, false, t, coins),
               InvalidArgument);
}

}  // namespace
}  // namespace quamax::anneal
