// Dispatch parity of the threshold32 sweep kernel: the copy compiled for
// AVX2 (32-byte vector parts, four generators per draw vector) must give
// the same spins and leave every stream in the same state as the 16-byte
// baseline copy, and an AVX2 host must be dispatched to the AVX2 copy.
//
// The cases are sa_reference_test's table: integer and smooth couplings,
// with and without groups, cold, warm and reverse schedules, shared and
// per-replica (ICE) coefficients, R in {1, 3, 5, 8, 16}.  KernelIsaSeam
// is the engine's friend for this test only: it runs the private batch
// front end with the ISA chosen by the test instead of by CPUID.

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "quamax/anneal/sa_engine.hpp"
#include "quamax/anneal/schedule.hpp"

namespace quamax::anneal {

struct KernelIsaSeam {
  /// anneal_batch (ice == false) or anneal_batch_with in threshold32 mode,
  /// on the AVX2 copy when `avx2`, else on the baseline copy.
  static std::vector<qubo::SpinVec> anneal(const SaEngine& engine, bool avx2, bool ice,
                                           const std::vector<double>& betas,
                                           const std::vector<double>& fields,
                                           const std::vector<double>& couplings,
                                           std::vector<Rng>& rngs,
                                           const qubo::SpinVec* initial) {
    return ice ? engine.batch_dispatch(betas, fields.data(), couplings.data(), true, rngs,
                                       initial, AcceptMode::kThreshold32, avx2)
               : engine.batch_dispatch(betas, engine.base_fields().data(),
                                       engine.base_couplings().data(), false, rngs, initial,
                                       AcceptMode::kThreshold32, avx2);
  }
};

namespace {

bool cpu_has_avx2() {
#if defined(__x86_64__)
  return __builtin_cpu_supports("avx2");
#else
  return false;
#endif
}

using Groups = std::vector<std::vector<std::uint32_t>>;

/// Sparse random problem; integer coefficients make zero-cost decisions
/// (the coin rule) common, `smooth` draws normals.
qubo::IsingModel random_problem(std::size_t n, bool smooth, std::uint64_t seed) {
  Rng rng{seed};
  qubo::IsingModel m(n);
  const auto value = [&] {
    return smooth ? rng.normal() : static_cast<double>(rng.uniform_index(5)) - 2.0;
  };
  for (std::size_t i = 0; i < n; ++i) m.field(i) = value();
  for (std::size_t i = 0; i < n; ++i)
    for (std::size_t j = i + 1; j < n; ++j)
      if (j == i + 1 || rng.uniform() < 0.12) m.add_coupling(i, j, value());
  return m;
}

/// Chains of 2-5 consecutive spins over the first ~3/4 of the spin set.
Groups chains(std::size_t n) {
  Groups out;
  std::uint32_t next = 0;
  for (std::uint32_t len = 2; next + len <= 3 * n / 4; len = len % 5 + 2) {
    out.emplace_back();
    for (std::uint32_t k = 0; k < len; ++k) out.back().push_back(next++);
  }
  return out;
}

std::vector<double> perturbed(const std::vector<double>& base, std::size_t R, Rng& rng) {
  std::vector<double> out;
  for (std::size_t r = 0; r < R; ++r)
    for (const double v : base) out.push_back(v + 0.25 * rng.normal());
  return out;
}

/// One case: R replicas of a fresh 37-spin problem through both copies
/// from matched streams; spins and final stream states must agree.
void expect_copies_agree(const std::vector<double>& betas, bool smooth, bool grouped,
                         bool warm, bool ice, std::size_t R, std::uint64_t seed) {
  const std::size_t n = 37;
  const qubo::IsingModel problem = random_problem(n, smooth, seed);
  SaEngine engine(problem);
  engine.set_groups(grouped ? chains(n) : Groups{});
  Rng aux{seed ^ 0xACE};
  qubo::SpinVec start(n);
  for (auto& v : start) v = aux.coin() ? 1 : -1;
  const std::size_t nf = ice ? R : 1;
  const std::vector<double> fields = perturbed(problem.fields(), nf, aux);
  std::vector<double> base_couplings;
  for (const auto& e : problem.couplings()) base_couplings.push_back(e.g);
  const std::vector<double> couplings = perturbed(base_couplings, nf, aux);

  std::vector<Rng> base_rngs, avx2_rngs;
  for (std::size_t r = 0; r < R; ++r) {
    base_rngs.push_back(Rng::for_stream(seed, r));
    avx2_rngs.push_back(Rng::for_stream(seed, r));
  }
  const qubo::SpinVec* initial = warm ? &start : nullptr;
  const auto base = KernelIsaSeam::anneal(engine, false, ice, betas, fields, couplings,
                                          base_rngs, initial);
  const auto avx2 = KernelIsaSeam::anneal(engine, true, ice, betas, fields, couplings,
                                          avx2_rngs, initial);
  ASSERT_EQ(base.size(), R);
  ASSERT_EQ(avx2.size(), R);
  for (std::size_t r = 0; r < R; ++r) {
    const std::string where = "R=" + std::to_string(R) + " r=" + std::to_string(r) +
                              (smooth ? " smooth" : " integer") + (grouped ? " groups" : "") +
                              (warm ? " warm" : " cold") + (ice ? " ice" : " shared");
    EXPECT_EQ(avx2[r], base[r]) << where;
    EXPECT_EQ(avx2_rngs[r].state(), base_rngs[r].state()) << where << ": stream state";
  }
}

TEST(KernelDispatchTest, Avx2HostRunsTheAvx2Copy) {
  EXPECT_STREQ(kernel_isa(AcceptMode::kThreshold32), cpu_has_avx2() ? "avx2" : "baseline");
  EXPECT_STREQ(kernel_isa(AcceptMode::kExact), "baseline");
}

TEST(KernelDispatchTest, Avx2CopyMatchesBaselineCopy) {
  if (!cpu_has_avx2()) GTEST_SKIP() << "no AVX2 in CPUID: only the baseline copy runs";
  Schedule schedule;
  schedule.anneal_time_us = 3.0;
  const std::vector<double> betas = schedule.betas();
  const std::vector<double> reverse =
      Schedule{.anneal_time_us = 3.0, .pause_time_us = 0.5, .reverse = true,
               .reverse_depth = 0.5}
          .betas();
  std::uint64_t seed = 0xD15;
  for (const bool smooth : {false, true})
    for (const bool grouped : {false, true})
      for (const bool ice : {false, true})
        for (const std::size_t R : {1ul, 3ul, 5ul, 8ul, 16ul}) {
          expect_copies_agree(betas, smooth, grouped, /*warm=*/false, ice, R, ++seed);
          expect_copies_agree(betas, smooth, grouped, /*warm=*/true, ice, R, ++seed);
          expect_copies_agree(reverse, smooth, grouped, /*warm=*/true, ice, R, ++seed);
        }
}

}  // namespace
}  // namespace quamax::anneal
