#include "quamax/anneal/sa_engine.hpp"

#include <algorithm>
#include <bit>
#include <cmath>
#include <type_traits>

#include "quamax/obs/profile.hpp"

namespace quamax::anneal {

const char* to_string(AcceptMode mode) noexcept {
  return mode == AcceptMode::kThreshold32 ? "threshold32" : "exact";
}

namespace {

/// Branch-free -log(u) for u in [0, 1), the threshold-mode transform: write
/// u = m * 2^e with m in [1, 2), then approximate log m = log1p(m - 1) by a
/// degree-8 Chebyshev interpolant on [0, 1) (max absolute error 3.9e-8,
/// which perturbs acceptance probabilities by O(beta * 4e-8) — far inside
/// the statistical-parity tolerance accept_mode_test enforces).  Adding
/// 2^-64 up front maps u == 0 to an effectively always-accept threshold
/// (-log(0) = +inf) while leaving every u >= 2^-11 bit-exactly unchanged
/// (2^-64 is below half an ulp there) — an additive clamp instead of a
/// compare, which GCC 12 fails to if-convert.  Pure integer/FMA ops — no
/// table, no division, no branch; the transform loop auto-vectorizes.
inline double branchless_neg_log(double u) noexcept {
  constexpr double kMin = 0x1.0p-64;
  u = u + kMin;  // branch-free zero guard; invisible above 2^-11
  const std::uint64_t bits = std::bit_cast<std::uint64_t>(u);
  // Exponent extraction without an int64->double convert (which SSE2/AVX2
  // cannot vectorize): drop the 11-bit biased exponent into the mantissa of
  // 2^52 and subtract (2^52 + bias) — pure shift/or/sub, all packed ops.
  const double e =
      std::bit_cast<double>((bits >> 52) | 0x4330000000000000ull) -
      (4503599627370496.0 + 1023.0);
  const double m = std::bit_cast<double>((bits & 0x000FFFFFFFFFFFFFull) |
                                         0x3FF0000000000000ull);
  const double s = m - 1.0;  // log1p argument, in [0, 1)
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
  constexpr double kLn2 = 0.693147180559945309417232121458;
  return -(e * kLn2 + log_m);
}

/// Transposes R replica-major blocks of `count` entries (block r at
/// rm[r*count ..)) into the kernel's replica-interleaved layout
/// (il[i*R + r]); for Real == float the transpose doubles as the float32
/// rounding pass.  O(R*count) once per batch — negligible against the sweep
/// loop.
template <typename Real>
void interleave(const double* rm, std::size_t count, std::size_t R,
                std::vector<Real>& il) {
  il.resize(count * R);
  for (std::size_t r = 0; r < R; ++r)
    for (std::size_t i = 0; i < count; ++i)
      il[i * R + r] = static_cast<Real>(rm[r * count + i]);
}

}  // namespace

SaEngine::SaEngine(const qubo::IsingModel& problem) {
  const std::size_t n = problem.num_spins();
  fields_ = problem.fields();

  const auto& couplings = problem.couplings();
  coupling_values_.reserve(couplings.size());
  edge_i_.reserve(couplings.size());
  edge_j_.reserve(couplings.size());

  std::vector<std::uint32_t> degree(n, 0);
  for (const qubo::Coupling& c : couplings) {
    ++degree[c.i];
    ++degree[c.j];
  }
  row_offset_.assign(n + 1, 0);
  for (std::size_t i = 0; i < n; ++i) row_offset_[i + 1] = row_offset_[i] + degree[i];

  neighbor_.resize(row_offset_[n]);
  coupling_index_.resize(row_offset_[n]);
  std::vector<std::uint32_t> cursor(row_offset_.begin(), row_offset_.end() - 1);
  for (std::size_t idx = 0; idx < couplings.size(); ++idx) {
    const qubo::Coupling& c = couplings[idx];
    coupling_values_.push_back(c.g);
    edge_i_.push_back(c.i);
    edge_j_.push_back(c.j);
    neighbor_[cursor[c.i]] = c.j;
    coupling_index_[cursor[c.i]++] = static_cast<std::uint32_t>(idx);
    neighbor_[cursor[c.j]] = c.i;
    coupling_index_[cursor[c.j]++] = static_cast<std::uint32_t>(idx);
  }

  fields_f32_.assign(fields_.begin(), fields_.end());
  couplings_f32_.assign(coupling_values_.begin(), coupling_values_.end());
}

void SaEngine::set_groups(std::vector<std::vector<std::uint32_t>> groups) {
  groups_.clear();
  groups_.reserve(groups.size());
  // Membership mask for internal-edge detection, reused across groups.
  std::vector<std::uint8_t> member_of(num_spins(), 0u);
  for (auto& members : groups) {
    Group group;
    for (const std::uint32_t m : members) {
      require(m < num_spins(), "SaEngine::set_groups: member out of range");
      member_of[m] = 1u;
    }
    // Walk each member's CSR row, taking an edge from its i endpoint only;
    // ascending edge order keeps the kernel's accumulation order.
    for (const std::uint32_t m : members)
      for (std::uint32_t k = row_offset_[m]; k < row_offset_[m + 1]; ++k)
        if (member_of[neighbor_[k]] && edge_i_[coupling_index_[k]] == m)
          group.internal_edges.push_back(coupling_index_[k]);
    std::sort(group.internal_edges.begin(), group.internal_edges.end());
    group.internal_edges.erase(
        std::unique(group.internal_edges.begin(), group.internal_edges.end()),
        group.internal_edges.end());
    for (const std::uint32_t m : members) member_of[m] = 0u;
    group.members = std::move(members);
    groups_.push_back(std::move(group));
  }
}

// The batched sweep kernel.  State arrays (spins, local fields) are
// replica-interleaved (entry index*R + r) so that at a fixed spin/edge the R
// replica values are contiguous: the CSR row indices are loaded once per
// spin for ALL replicas and the per-replica inner loops run over adjacent
// memory.  Coefficients are replica-interleaved too (the ICE path, one
// perturbed realization per replica) unless SharedCoeffs, in which case all
// replicas read the same flat base arrays — identical values, so the two
// modes are bit-identical whenever the per-replica blocks are copies of the
// base arrays.  Bit-identity with the scalar path is preserved by (a)
// drawing replica r's randomness only from rngs[r], under exactly the
// scalar path's conditions and order, and (b) performing each replica's
// floating-point accumulations in the scalar path's order (edges within a
// CSR row, members within a group).
//
// The two accept passes, selected by Real:
//
//  * Real == double (AcceptMode::kExact): the v1 Metropolis rule.  RNG
//    consumption is data-dependent (uniform only on uphill, coin only on
//    zero cost), so the decision loop carries two unpredictable branches
//    and a libm exp() per uphill proposal and cannot vectorize.
//  * Real == float (kThreshold32): every replica pre-draws ONE uniform per
//    decision in a fixed order, the draws are transformed once into energy
//    thresholds t_r = -log(u_r)/beta by a branch-free vector pass, and
//    acceptance is the straight-line compare delta_e <= t_r (zero-cost
//    moves reuse u_r as the coin: u_r < 1/2).  No exp(), no data-dependent
//    RNG, no branches — the decision loop compiles to vector compares plus
//    a branch-free index compaction.
template <bool SharedCoeffs, typename Real>
void SaEngine::run_batch_kernel(std::size_t num_replicas,
                                const std::vector<double>& betas,
                                const Real* fields_il, const Real* couplings_il,
                                Rng* const* rngs, const qubo::SpinVec* initial,
                                std::int8_t* spins_il) const {
  constexpr bool Threshold = std::is_same_v<Real, float>;
  const std::size_t n = num_spins();
  const std::size_t R = num_replicas;

  if (initial != nullptr) {
    require(initial->size() == n, "SaEngine: initial state size");
    for (std::size_t i = 0; i < n; ++i)  // warm start: broadcast to all replicas
      for (std::size_t r = 0; r < R; ++r) spins_il[i * R + r] = (*initial)[i];
  } else {
    // Random initial configuration (uniform superposition analog); replica r
    // draws its N coins in spin order, as the scalar path does.
    for (std::size_t r = 0; r < R; ++r)
      for (std::size_t i = 0; i < n; ++i)
        spins_il[i * R + r] = rngs[r]->coin() ? 1 : -1;
  }

  // hloc[i*R+r] = f_i^(r) + sum_j J_ij^(r) s_j^(r); flipping spin i of
  // replica r changes its energy by -2 s_i hloc.  Scratch is thread_local
  // so the per-lane sampling loops reuse capacity across blocks and the
  // kernel allocates nothing after a lane's first call (every element is
  // overwritten below; the engine itself stays immutable and shareable).
  thread_local std::vector<Real> hloc;
  thread_local std::vector<Real> acc;
  hloc.resize(n * R);
  acc.resize(R);
  for (std::size_t i = 0; i < n; ++i) {
    const std::uint32_t begin = row_offset_[i];
    const std::uint32_t end = row_offset_[i + 1];
    for (std::size_t r = 0; r < R; ++r) acc[r] = Real(0);
    for (std::uint32_t e = begin; e < end; ++e) {
      const std::int8_t* sn = spins_il + std::size_t{neighbor_[e]} * R;
      if constexpr (SharedCoeffs) {
        const Real c = couplings_il[coupling_index_[e]];
        for (std::size_t r = 0; r < R; ++r) acc[r] += c * static_cast<Real>(sn[r]);
      } else {
        const Real* ce = couplings_il + std::size_t{coupling_index_[e]} * R;
        for (std::size_t r = 0; r < R; ++r)
          acc[r] += ce[r] * static_cast<Real>(sn[r]);
      }
    }
    const Real* fi = SharedCoeffs ? fields_il + i : fields_il + i * R;
    for (std::size_t r = 0; r < R; ++r)
      hloc[i * R + r] = fi[SharedCoeffs ? 0 : r] + acc[r];
  }

  // Exact bookkeeping for flipping spin i of the replicas in
  // flipped[0..num_flipped): negate the spin, then push the change into the
  // neighbors' local fields (no acceptance test here).  The all-replicas
  // case is split out so the common early-schedule sweeps (almost every
  // replica flips) run a dense, vectorizable inner loop; the shared
  // 2*coefficient is hoisted out of both per-replica loops.
  thread_local std::vector<std::uint32_t> flipped;
  flipped.resize(R);
  const auto flip_replicas = [&](std::size_t i, std::size_t num_flipped) {
    const std::size_t base = i * R;
    for (std::size_t k = 0; k < num_flipped; ++k) {
      const std::uint32_t r = flipped[k];
      spins_il[base + r] = static_cast<std::int8_t>(-spins_il[base + r]);
    }
    const std::uint32_t begin = row_offset_[i];
    const std::uint32_t end = row_offset_[i + 1];
    const std::int8_t* si = spins_il + base;
    for (std::uint32_t e = begin; e < end; ++e) {
      Real* hn = hloc.data() + std::size_t{neighbor_[e]} * R;
      if constexpr (SharedCoeffs) {
        const Real twoc = Real(2) * couplings_il[coupling_index_[e]];
        if (num_flipped == R) {
          for (std::size_t r = 0; r < R; ++r)
            hn[r] += twoc * static_cast<Real>(si[r]);
        } else {
          for (std::size_t k = 0; k < num_flipped; ++k) {
            const std::uint32_t r = flipped[k];
            hn[r] += twoc * static_cast<Real>(si[r]);
          }
        }
      } else {
        const Real* ce = couplings_il + std::size_t{coupling_index_[e]} * R;
        if (num_flipped == R) {
          for (std::size_t r = 0; r < R; ++r)
            hn[r] += Real(2) * ce[r] * static_cast<Real>(si[r]);
        } else {
          for (std::size_t k = 0; k < num_flipped; ++k) {
            const std::uint32_t r = flipped[k];
            hn[r] += Real(2) * ce[r] * static_cast<Real>(si[r]);
          }
        }
      }
    }
  };

  thread_local std::vector<Real> sum_local;
  thread_local std::vector<Real> sum_internal;
  sum_local.resize(R);
  sum_internal.resize(R);

  // Threshold-mode scratch: the pre-drawn uniforms (one per replica per
  // decision) and the derived energy thresholds, batched kDrawBlock
  // decisions at a time.  Blocking keeps the buffers L1-resident while
  // turning the draw and transform passes into long straight-line loops the
  // vectorizer handles well; replica r's draw ORDER is unchanged (one
  // uniform per decision, decisions in sweep order), so blocking is
  // invisible in the results.
  constexpr std::size_t kDrawBlock = 64;
  thread_local std::vector<double> udraw;
  thread_local std::vector<Real> threshold;
  if constexpr (Threshold) {
    udraw.resize(kDrawBlock * R);
    threshold.resize(kDrawBlock * R);
  }

  // Pre-draw + transform for `count` upcoming threshold-mode decisions:
  // replica r consumes exactly `count` uniforms, in decision order —
  // data-independent, so any replica blocking or thread placement replays
  // the same per-replica stream.  Decision k's draws land at [k*R, (k+1)*R).
  // The transform loop is branch-free and auto-vectorizes.
  const auto draw_thresholds = [&](std::size_t count, double inv_beta) {
    for (std::size_t r = 0; r < R; ++r) {
      Rng& gen = *rngs[r];
      for (std::size_t k = 0; k < count; ++k) udraw[k * R + r] = gen.uniform();
    }
    const std::size_t total = count * R;
    const double* u = udraw.data();
    Real* t = threshold.data();
    for (std::size_t x = 0; x < total; ++x)
      t[x] = static_cast<Real>(branchless_neg_log(u[x]) * inv_beta);
  };

  // Shared accept pass over one decision's delta_e values.  Exact mode
  // draws data-dependently (the v1 contract, scalar per replica); threshold
  // mode consumes the pre-drawn uniforms/thresholds at `draw_base` via a
  // branch-free compare + index compaction.  Zero-cost flips are taken with
  // probability 1/2 in BOTH modes: accepting them deterministically makes
  // domain walls translate in lock-step with the sequential sweep and orbit
  // forever instead of diffusing/annihilating.
  const auto accept_pass = [&](double beta, std::size_t draw_base,
                               const auto& delta_of) {
    std::size_t num_flipped = 0;
    if constexpr (Threshold) {
      (void)beta;
      const double* u = udraw.data() + draw_base;
      const Real* t = threshold.data() + draw_base;
      for (std::size_t r = 0; r < R; ++r) {
        const Real delta_e = delta_of(r);
        const bool accept =
            delta_e == Real(0) ? (u[r] < 0.5) : (delta_e <= t[r]);
        flipped[num_flipped] = static_cast<std::uint32_t>(r);
        num_flipped += accept ? 1u : 0u;
      }
    } else {
      (void)draw_base;
      for (std::size_t r = 0; r < R; ++r) {
        const Real delta_e = delta_of(r);
        if (delta_e > Real(0) &&
            rngs[r]->uniform() >= std::exp(-beta * static_cast<double>(delta_e)))
          continue;
        if (delta_e == Real(0) && rngs[r]->coin()) continue;
        flipped[num_flipped++] = static_cast<std::uint32_t>(r);
      }
    }
    return num_flipped;
  };

  for (const double beta : betas) {
    const double inv_beta = 1.0 / beta;
    // Single-spin pass: one CSR-row walk per spin serves every replica that
    // accepted a flip.  Threshold mode pre-draws each block of spins'
    // decisions up front.
    for (std::size_t i0 = 0; i0 < n; i0 += kDrawBlock) {
      const std::size_t block = std::min(kDrawBlock, n - i0);
      if constexpr (Threshold) draw_thresholds(block, inv_beta);
      for (std::size_t k = 0; k < block; ++k) {
        const std::size_t i = i0 + k;
        const std::size_t base = i * R;
        const std::size_t num_flipped =
            accept_pass(beta, k * R, [&](std::size_t r) {
              return Real(-2) * static_cast<Real>(spins_il[base + r]) *
                     hloc[base + r];
            });
        if (num_flipped != 0) flip_replicas(i, num_flipped);
      }
    }

    // Collective pass: acceptance over whole groups (embedded chains).
    // Flipping every member leaves internal edges invariant, so
    //   dE = -2 (sum_{i in G} s_i hloc_i - 2 sum_{(i,j) internal} J_ij s_i s_j).
    // Threshold mode pre-draws each block of group decisions like the spin
    // pass does.
    for (std::size_t g0 = 0; g0 < groups_.size(); g0 += kDrawBlock) {
      const std::size_t gblock = std::min(kDrawBlock, groups_.size() - g0);
      if constexpr (Threshold) draw_thresholds(gblock, inv_beta);
      for (std::size_t gk = 0; gk < gblock; ++gk) {
        const Group& group = groups_[g0 + gk];
        for (std::size_t r = 0; r < R; ++r) sum_local[r] = Real(0);
        for (const std::uint32_t m : group.members) {
          const std::int8_t* sm = spins_il + std::size_t{m} * R;
          const Real* hm = hloc.data() + std::size_t{m} * R;
          for (std::size_t r = 0; r < R; ++r)
            sum_local[r] += static_cast<Real>(sm[r]) * hm[r];
        }
        for (std::size_t r = 0; r < R; ++r) sum_internal[r] = Real(0);
        for (const std::uint32_t e : group.internal_edges) {
          const std::int8_t* si = spins_il + std::size_t{edge_i_[e]} * R;
          const std::int8_t* sj = spins_il + std::size_t{edge_j_[e]} * R;
          if constexpr (SharedCoeffs) {
            const Real c = couplings_il[e];
            for (std::size_t r = 0; r < R; ++r)
              sum_internal[r] +=
                  c * static_cast<Real>(si[r]) * static_cast<Real>(sj[r]);
          } else {
            const Real* ce = couplings_il + std::size_t{e} * R;
            for (std::size_t r = 0; r < R; ++r)
              sum_internal[r] +=
                  ce[r] * static_cast<Real>(si[r]) * static_cast<Real>(sj[r]);
          }
        }
        const std::size_t num_flipped =
            accept_pass(beta, gk * R, [&](std::size_t r) {
              return Real(-2) * (sum_local[r] - Real(2) * sum_internal[r]);
            });
        if (num_flipped == 0) continue;
        // Members flip in declaration order, exactly as the scalar path's
        // sequential flip_spin calls, so shared-neighbor local fields
        // accumulate the member contributions in the same order per replica.
        const std::size_t keep = num_flipped;
        for (const std::uint32_t m : group.members) {
          // flip_replicas consumes flipped[0..keep); the list is unchanged,
          // so every member flips the same replica set.
          flip_replicas(m, keep);
        }
      }
    }
  }
}

std::vector<qubo::SpinVec> SaEngine::batch_dispatch(
    const std::vector<double>& betas, const double* fields_rm,
    const double* couplings_rm, bool replicated_coefficients,
    std::vector<Rng>& rngs, const qubo::SpinVec* initial,
    AcceptMode mode) const {
  QUAMAX_PROF_SCOPE("anneal.batch_sweep");
  const std::size_t n = num_spins();
  const std::size_t m = num_couplings();
  const std::size_t R = rngs.size();
  require(R >= 1, "SaEngine::anneal_batch: need at least one replica stream");

  std::vector<Rng*> rng_ptrs(R);
  for (std::size_t r = 0; r < R; ++r) rng_ptrs[r] = &rngs[r];

  // R == 1 writes straight into the result (interleaved == flat); larger R
  // de-interleaves below.  Scratch is thread_local for the same reason as
  // the kernel's: the per-lane sampling loops call this once per block and
  // every element is overwritten.
  std::vector<qubo::SpinVec> result(R, qubo::SpinVec(n));
  thread_local std::vector<std::int8_t> spins_il;
  std::int8_t* out = result.front().data();
  if (R > 1) {
    spins_il.resize(n * R);
    out = spins_il.data();
  }

  if (mode == AcceptMode::kThreshold32) {
    if (!replicated_coefficients) {
      // anneal_batch (the ICE-off serve workload): the precomputed float32
      // base arrays feed the shared-coefficient kernel — no per-call
      // conversion, no broadcast.
      run_batch_kernel<true, float>(R, betas, fields_f32_.data(),
                                    couplings_f32_.data(), rng_ptrs.data(),
                                    initial, out);
    } else {
      thread_local std::vector<float> fields32_il;
      thread_local std::vector<float> couplings32_il;
      interleave(fields_rm, n, R, fields32_il);
      interleave(couplings_rm, m, R, couplings32_il);
      run_batch_kernel<false, float>(R, betas, fields32_il.data(),
                                     couplings32_il.data(), rng_ptrs.data(),
                                     initial, out);
    }
  } else if (R == 1) {
    // Scalar specialization: interleaved and flat layouts coincide, so the
    // caller's arrays feed the kernel directly.
    run_batch_kernel<false, double>(1, betas, fields_rm, couplings_rm,
                                    rng_ptrs.data(), initial, out);
  } else if (!replicated_coefficients) {
    // Shared-coefficient fast path (the ICE-off workload): every replica
    // reads the same flat base arrays, so the O(R*(N+M)) broadcast into the
    // interleaved layout is skipped entirely.  Values are identical, so the
    // result stays bit-identical to the interleaved path.
    run_batch_kernel<true, double>(R, betas, fields_rm, couplings_rm,
                                   rng_ptrs.data(), initial, out);
  } else {
    thread_local std::vector<double> fields_il;
    thread_local std::vector<double> couplings_il;
    interleave(fields_rm, n, R, fields_il);
    interleave(couplings_rm, m, R, couplings_il);
    run_batch_kernel<false, double>(R, betas, fields_il.data(),
                                    couplings_il.data(), rng_ptrs.data(),
                                    initial, out);
  }

  if (R > 1)
    for (std::size_t r = 0; r < R; ++r)
      for (std::size_t i = 0; i < n; ++i) result[r][i] = out[i * R + r];
  return result;
}

qubo::SpinVec SaEngine::anneal_with(const std::vector<double>& betas,
                                    const std::vector<double>& fields,
                                    const std::vector<double>& couplings,
                                    Rng& rng, const qubo::SpinVec* initial,
                                    AcceptMode mode) const {
  require(fields.size() == num_spins(),
          "SaEngine::anneal_with: field array size mismatch");
  require(couplings.size() == num_couplings(),
          "SaEngine::anneal_with: coupling array size mismatch");
  qubo::SpinVec spins(num_spins());
  Rng* rng_ptr = &rng;
  if (mode == AcceptMode::kExact) {
    run_batch_kernel<false, double>(1, betas, fields.data(), couplings.data(),
                                    &rng_ptr, initial, spins.data());
    return spins;
  }
  // Round the caller's arrays to float32 once up front — on the base arrays
  // this reproduces the precomputed float32 images bit-for-bit, keeping the
  // scalar path the R = 1 specialization of the batch.
  thread_local std::vector<float> fields32;
  thread_local std::vector<float> couplings32;
  fields32.assign(fields.begin(), fields.end());
  couplings32.assign(couplings.begin(), couplings.end());
  run_batch_kernel<true, float>(1, betas, fields32.data(), couplings32.data(),
                                &rng_ptr, initial, spins.data());
  return spins;
}

std::vector<qubo::SpinVec> SaEngine::anneal_batch(
    const std::vector<double>& betas, std::vector<Rng>& rngs,
    const qubo::SpinVec* initial, AcceptMode mode) const {
  return batch_dispatch(betas, fields_.data(), coupling_values_.data(),
                        /*replicated_coefficients=*/false, rngs, initial, mode);
}

std::vector<qubo::SpinVec> SaEngine::anneal_batch_with(
    const std::vector<double>& betas, const std::vector<double>& fields,
    const std::vector<double>& couplings, std::vector<Rng>& rngs,
    const qubo::SpinVec* initial, AcceptMode mode) const {
  const std::size_t R = rngs.size();
  require(fields.size() == R * num_spins(),
          "SaEngine::anneal_batch_with: field array size mismatch");
  require(couplings.size() == R * num_couplings(),
          "SaEngine::anneal_batch_with: coupling array size mismatch");
  return batch_dispatch(betas, fields.data(), couplings.data(),
                        /*replicated_coefficients=*/true, rngs, initial, mode);
}

}  // namespace quamax::anneal
