// Reference sweep: the SA kernel's determinism contract written out as a
// plain scalar loop, one replica at a time, and a differential test of
// SaEngine::anneal_batch / anneal_batch_with against it, bit for bit.
//
// The batched kernel must reproduce, per replica r with generator rngs[r]:
//  * cold start: N coins in spin order (coin() ? +1 : -1); warm start: the
//    caller's configuration, broadcast to every replica;
//  * local fields hloc_i = f_i + (sum over i's incident couplings, in
//    coupling-list order, of c * s_j), accumulated from zero;
//  * per temperature step: every spin in index order, then every group in
//    declaration order, one decision each;
//  * threshold32: each decision draws ONE uniform u, t = float(-log(u) /
//    beta) through the documented degree-8 transform; delta == 0 flips iff
//    u < 1/2, otherwise iff delta <= t; all state and coefficients in float;
//  * exact: delta > 0 draws u and rejects iff u >= exp(-beta * delta);
//    delta == 0 rejects on a coin; all in double;
//  * a flip negates s_i and adds (2 c) * s_i to each neighbour's field in
//    coupling-list order; a group's delta is -2 (sum_m s_m h_m
//    - 2 sum_e c_e s_i s_j) over members in order and internal couplings
//    in ascending id, and its members then flip in order.
// Nothing here reads the kernel's code, so a change of draw order, of the
// zero-cost rule or of any accumulation order shows up as a mismatch.

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <vector>

#include "quamax/anneal/sa_engine.hpp"
#include "quamax/anneal/schedule.hpp"

namespace quamax {
namespace {

using Groups = std::vector<std::vector<std::uint32_t>>;

// -log(u) as the threshold32 contract defines it: u + 2^-64, then a degree-8
// Chebyshev log1p of the mantissa plus exponent * ln 2.
double neg_log(double u) {
  u += 0x1.0p-64;
  const auto bits = std::bit_cast<std::uint64_t>(u);
  const double e = static_cast<double>(static_cast<int>(bits >> 52) - 1023);
  const double s =
      std::bit_cast<double>((bits & 0x000FFFFFFFFFFFFFull) | 0x3FF0000000000000ull) - 1.0;
  const double log_m =
      3.910905551047888e-08 +
      s * (0.999993630258511 +
           s * (-0.4998254986432544 +
                s * (0.3314466522409298 +
                     s * (-0.2394333707341008 +
                          s * (0.16499812980507367 +
                               s * (-0.09229041734252756 +
                                    s * (0.03426459993010727 +
                                         s * -0.006006605044038654)))))));
  return -(e * 0.693147180559945309417232121458 + log_m);
}

template <typename Real>
qubo::SpinVec reference_anneal(const qubo::IsingModel& problem,
                               const std::vector<double>& fields,
                               const std::vector<double>& couplings,
                               const Groups& groups,
                               const std::vector<double>& betas, Rng& rng,
                               const qubo::SpinVec* initial) {
  constexpr bool kThreshold = std::is_same_v<Real, float>;
  const std::size_t n = problem.num_spins();
  const auto& edges = problem.couplings();
  std::vector<std::vector<std::size_t>> incident(n);  // coupling ids, in order
  for (std::size_t e = 0; e < edges.size(); ++e) {
    incident[edges[e].i].push_back(e);
    incident[edges[e].j].push_back(e);
  }
  const auto other = [&](std::size_t e, std::size_t i) {
    return edges[e].i == i ? edges[e].j : edges[e].i;
  };
  const auto c = [&](std::size_t e) { return static_cast<Real>(couplings[e]); };

  qubo::SpinVec s(n);
  for (std::size_t i = 0; i < n; ++i)
    s[i] = initial != nullptr ? (*initial)[i] : (rng.coin() ? 1 : -1);
  std::vector<Real> h(n);
  for (std::size_t i = 0; i < n; ++i) {
    Real acc = 0;
    for (const std::size_t e : incident[i]) acc += c(e) * static_cast<Real>(s[other(e, i)]);
    h[i] = static_cast<Real>(fields[i]) + acc;
  }
  const auto flip = [&](std::size_t i) {
    s[i] = static_cast<std::int8_t>(-s[i]);
    for (const std::size_t e : incident[i])
      h[other(e, i)] += Real(2) * c(e) * static_cast<Real>(s[i]);
  };
  const auto accept = [&](double beta, Real delta) {
    if constexpr (kThreshold) {
      const double u = rng.uniform();
      const auto t = static_cast<Real>(neg_log(u) * (1.0 / beta));
      return delta == Real(0) ? u < 0.5 : delta <= t;
    } else {
      if (delta > 0 && rng.uniform() >= std::exp(-beta * delta)) return false;
      return !(delta == 0 && rng.coin());
    }
  };

  for (const double beta : betas) {
    for (std::size_t i = 0; i < n; ++i)
      if (accept(beta, Real(-2) * static_cast<Real>(s[i]) * h[i])) flip(i);
    for (const auto& members : groups) {
      std::vector<std::size_t> internal;
      for (std::size_t e = 0; e < edges.size(); ++e)
        if (std::count(members.begin(), members.end(), edges[e].i) &&
            std::count(members.begin(), members.end(), edges[e].j))
          internal.push_back(e);
      Real sum_local = 0;
      for (const std::uint32_t m : members) sum_local += static_cast<Real>(s[m]) * h[m];
      Real sum_internal = 0;
      for (const std::size_t e : internal)
        sum_internal += c(e) * static_cast<Real>(s[edges[e].i]) *
                        static_cast<Real>(s[edges[e].j]);
      if (accept(beta, Real(-2) * (sum_local - Real(2) * sum_internal)))
        for (const std::uint32_t m : members) flip(m);
    }
  }
  return s;
}

/// Sparse random problem.  Integer-valued coefficients make zero-cost
/// decisions common, so the coin rule is exercised; `smooth` draws normals.
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

/// Runs one case of the differential table: R replicas of a fresh 37-spin
/// problem through anneal_batch (or anneal_batch_with, for `ice`) and each
/// through the reference sweep, comparing spins and stream states.
void expect_matches_reference(const std::vector<double>& betas, bool smooth, bool grouped,
                              bool warm, bool ice, anneal::AcceptMode mode, std::size_t R,
                              std::uint64_t seed) {
  const std::size_t n = 37;
  const qubo::IsingModel problem = random_problem(n, smooth, seed);
  anneal::SaEngine engine(problem);
  const Groups groups = grouped ? chains(n) : Groups{};
  engine.set_groups(groups);
  Rng aux{seed ^ 0xACE};
  qubo::SpinVec start(n);
  for (auto& v : start) v = aux.coin() ? 1 : -1;
  const qubo::SpinVec* initial = warm ? &start : nullptr;
  const std::size_t nf = ice ? R : 1;
  const std::vector<double> fields = perturbed(problem.fields(), nf, aux);
  std::vector<double> base_couplings;
  for (const auto& e : problem.couplings()) base_couplings.push_back(e.g);
  const std::vector<double> couplings = perturbed(base_couplings, nf, aux);

  std::vector<Rng> rngs;
  for (std::size_t r = 0; r < R; ++r) rngs.push_back(Rng::for_stream(seed, r));
  const auto batched = ice ? engine.anneal_batch_with(betas, fields, couplings, rngs, initial, mode)
                           : engine.anneal_batch(betas, rngs, initial, mode);
  ASSERT_EQ(batched.size(), R);
  for (std::size_t r = 0; r < R; ++r) {
    const std::size_t fo = ice ? r * n : 0;
    const std::size_t co = ice ? r * base_couplings.size() : 0;
    const std::vector<double> f_r(fields.begin() + fo, fields.begin() + fo + n);
    const std::vector<double> c_r(couplings.begin() + co,
                                  couplings.begin() + co + base_couplings.size());
    // anneal_batch reads the engine's own coefficients.
    const auto& f_ref = ice ? f_r : problem.fields();
    const auto& c_ref = ice ? c_r : base_couplings;
    Rng ref_rng = Rng::for_stream(seed, r);
    const qubo::SpinVec expected =
        mode == anneal::AcceptMode::kThreshold32
            ? reference_anneal<float>(problem, f_ref, c_ref, groups, betas, ref_rng, initial)
            : reference_anneal<double>(problem, f_ref, c_ref, groups, betas, ref_rng, initial);
    const std::string where = std::string(anneal::to_string(mode)) + " R=" + std::to_string(R) +
                              " r=" + std::to_string(r) + (smooth ? " smooth" : " integer") +
                              (grouped ? " groups" : "") + (warm ? " warm" : " cold") +
                              (ice ? " ice" : " shared");
    EXPECT_EQ(batched[r], expected) << where;
    EXPECT_EQ(rngs[r](), ref_rng()) << where << ": stream state";
  }
}

TEST(SaReferenceTest, BatchedKernelMatchesReferenceSweep) {
  anneal::Schedule schedule;
  schedule.anneal_time_us = 3.0;
  const std::vector<double> betas = schedule.betas();
  std::uint64_t seed = 0x5A0;
  for (const bool smooth : {false, true})
    for (const bool grouped : {false, true})
      for (const bool warm : {false, true})
        for (const bool ice : {false, true})
          for (const auto mode : {anneal::AcceptMode::kThreshold32, anneal::AcceptMode::kExact})
            for (const std::size_t R : {1ul, 3ul, 5ul, 8ul, 16ul})
              expect_matches_reference(betas, smooth, grouped, warm, ice, mode, R, ++seed);
}

// Reverse anneals: warm-started, reheated from beta_final back to half the
// ramp through a pause and forward again, so every decision runs at a beta
// sequence that falls and then rises.
TEST(SaReferenceTest, ReverseScheduleMatchesReferenceSweep) {
  const std::vector<double> betas =
      anneal::Schedule{.anneal_time_us = 3.0, .pause_time_us = 0.5, .reverse = true,
                       .reverse_depth = 0.5}
          .betas();
  std::uint64_t seed = 0x7E0;
  for (const bool smooth : {false, true})
    for (const bool grouped : {false, true})
      for (const bool ice : {false, true})
        for (const auto mode : {anneal::AcceptMode::kThreshold32, anneal::AcceptMode::kExact})
          for (const std::size_t R : {1ul, 3ul, 5ul, 8ul, 16ul})
            expect_matches_reference(betas, smooth, grouped, /*warm=*/true, ice, mode, R, ++seed);
}

}  // namespace
}  // namespace quamax
