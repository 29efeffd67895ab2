#include "quamax/anneal/sa_engine.hpp"

#include <algorithm>
#include <array>
#include <bit>
#include <cmath>
#include <cstring>
#include <tuple>
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
/// D is double (U = std::uint64_t) or a vector of doubles (U the matching
/// vector of uint64): every lane runs the scalar expression.  Like the
/// other draw helpers it passes vectors by reference and casts bits with
/// the builtin, never through a function returning a vector: a 32-byte
/// vector return changes the ABI between the AVX2 kernel and code compiled
/// without AVX (-Wpsabi).
template <typename D, typename U>
inline void branchless_neg_log(const D& u_in, D& out) noexcept {
  constexpr double kMin = 0x1.0p-64;
  const D u = u_in + kMin;  // branch-free zero guard; invisible above 2^-11
  const U bits = __builtin_bit_cast(U, u);
  // Exponent extraction without an int64->double convert (which SSE2/AVX2
  // cannot vectorize): drop the 11-bit biased exponent into the mantissa of
  // 2^52 and subtract (2^52 + bias) — pure shift/or/sub, all packed ops.
  const D e = __builtin_bit_cast(D, (bits >> 52) | 0x4330000000000000ull) -
              (4503599627370496.0 + 1023.0);
  const D m = __builtin_bit_cast(D, (bits & 0x000FFFFFFFFFFFFFull) |
                                        0x3FF0000000000000ull);
  const D s = m - 1.0;  // log1p argument, in [0, 1)
  const D log_m =
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
  out = -(e * kLn2 + log_m);
}

/// Rng::uniform()'s (x >> 11) * 2^-53, bit for bit, without the
/// uint64 -> double convert SSE2 lacks: the top 52 bits become the mantissa
/// of a double in [1, 2) (minus 1, exact), and the 53rd bit comes back as
/// 2^-53 (exact: the sum is a 53-bit multiple of 2^-53).  Pure integer and
/// two exact double ops; D and U as for branchless_neg_log.
template <typename D, typename U>
inline void unit_double(const U& x, D& out) noexcept {
  const D high = __builtin_bit_cast(D, (x >> 12) | 0x3FF0000000000000ull) - 1.0;
  const U low_bit = (x >> 11) & 1u;
  out = high + __builtin_bit_cast(D, (0 - low_bit) & 0x3CA0000000000000ull);
}

/// N generators' state words or draws, their doubles and their float32
/// images: the vectors of the lockstep draw pass, N = 2 in a 16-byte part,
/// N = 4 in an AVX2 32-byte part and N = 1 at replica width 1.
template <std::size_t N>
struct DrawLanes {
  typedef std::uint64_t U __attribute__((vector_size(8 * N)));
  typedef double D __attribute__((vector_size(8 * N)));
  typedef float F __attribute__((vector_size(4 * N)));
};

/// Transposes W blocks of `count` entries, block r at rm[r*stride ..), into
/// the kernel's interleaved layout il[i*W + r]: stride `count` for ICE
/// blocks, 0 for the one base array every replica reads.  For Real == float
/// the transpose is also the float32 rounding pass.  O(W*count) per call.
template <typename Real>
void interleave(const double* rm, std::size_t count, std::size_t stride,
                std::size_t W, std::vector<Real>& il) {
  il.resize(count * W);
  for (std::size_t r = 0; r < W; ++r)
    for (std::size_t i = 0; i < count; ++i)
      il[i * W + r] = static_cast<Real>(rm[r * stride + i]);
}

/// Per-thread scratch of the sweep kernel, one set per Real shared by every
/// width: the per-lane sampling loops reuse its capacity across calls, so
/// the kernel allocates nothing after a lane's first call (every element
/// read is written first; the engine itself stays immutable and shareable).
template <typename Real>
struct Scratch {
  std::vector<Real> spins, hloc;                // n*W state
  std::vector<Real> fields, couplings, twice;   // interleaved coefficients
  std::vector<float> threshold, heads;          // threshold32: kDrawBlock*W
};

template <typename Real>
Scratch<Real>& scratch() {
  thread_local Scratch<Real> s;
  return s;
}

/// Decisions per pre-draw block: the thresholds and coins stay
/// L1-resident while the draw and transform passes run as long
/// straight-line loops; replica r's draw ORDER is unchanged (one uniform
/// per decision, decisions in sweep order), so blocking is invisible.
constexpr std::size_t kDrawBlock = 64;

/// W lanes of Real, one per replica, held as W/k hardware vectors of
/// `Bytes` bytes (16, or AVX2's 32: k = Bytes / sizeof(Real); one vector of
/// W lanes when W < k) through the GCC/Clang vector extension: each
/// per-replica step of the kernel is W/k packed operations, lane r
/// computing exactly replica r's scalar expression.  The 16-byte parts run
/// at any ISA level (one 32-byte vector would be lowered through the stack
/// on baseline x86-64); the 32-byte parts run only inside with_avx2.
template <typename Real, std::size_t W, std::size_t Bytes>
struct Lanes {
  static constexpr std::size_t kWidth = std::min(W, Bytes / sizeof(Real));
  static constexpr std::size_t kParts = W / kWidth;
  typedef Real Part __attribute__((vector_size(kWidth * sizeof(Real))));
  Part part[kParts];

  // Unaligned loads and stores, one movups per part, through a Part that
  // may sit at any Real boundary (as the intrinsics' __m256_u does); a
  // memcpy of 32 bytes would be split into 16-byte moves through the stack.
  typedef Real Unaligned
      __attribute__((vector_size(sizeof(Part)), aligned(sizeof(Real)), may_alias));
  static Lanes load(const Real* p) noexcept {
    Lanes v;
    for (std::size_t k = 0; k < kParts; ++k)
      v.part[k] = reinterpret_cast<const Unaligned*>(p)[k];
    return v;
  }
  void store(Real* p) const noexcept {
    for (std::size_t k = 0; k < kParts; ++k) reinterpret_cast<Unaligned*>(p)[k] = part[k];
  }
  static Lanes splat(Real x) noexcept {
    Lanes v;
    for (auto& vp : v.part)
      for (std::size_t r = 0; r < kWidth; ++r) vp[r] = x;
    return v;
  }

  friend Lanes operator+(const Lanes& a, const Lanes& b) noexcept {
    Lanes v = a;
    for (std::size_t p = 0; p < kParts; ++p) v.part[p] += b.part[p];
    return v;
  }
  friend Lanes operator-(const Lanes& a, const Lanes& b) noexcept {
    Lanes v = a;
    for (std::size_t p = 0; p < kParts; ++p) v.part[p] -= b.part[p];
    return v;
  }
  friend Lanes operator*(const Lanes& a, const Lanes& b) noexcept {
    Lanes v = a;
    for (std::size_t p = 0; p < kParts; ++p) v.part[p] *= b.part[p];
    return v;
  }
};

/// Whether any lane of a 0/1 mask is set.
template <typename Real, std::size_t W, std::size_t Bytes>
bool any(const Lanes<Real, W, Bytes>& mask) noexcept {
  std::uint32_t words[sizeof mask / sizeof(std::uint32_t)];
  std::memcpy(words, mask.part, sizeof words);
  std::uint32_t set = 0;
  for (const std::uint32_t w : words) set |= w;
  return set != 0;
}

/// The threshold32 accept rule.  The W generators advance in lockstep, one
/// lane per replica and min(W, Bytes / 8) per vector (two in a 16-byte
/// part, four in an AVX2 part), and are written back by finish().
/// draw(count, beta) consumes exactly `count` uniforms per replica, in
/// decision order — data-independent, so any chunking of the replicas,
/// vector width or thread placement replays the same per-replica stream —
/// and lands decision k's thresholds t = -log(u) / beta and coins (1.0f iff
/// u < 1/2) at [k*W, (k+1)*W).  accept(k, delta) is the masked compare: the
/// coin where delta == 0, else delta <= t.
template <std::size_t W, std::size_t Bytes>
class ThresholdRule {
 public:
  using L = Lanes<float, W, Bytes>;

  ThresholdRule(Rng* const* rngs, Scratch<float>& scratch) : rngs_(rngs) {
    scratch.threshold.resize(kDrawBlock * W);
    scratch.heads.resize(kDrawBlock * W);
    t_ = scratch.threshold.data();
    heads_ = scratch.heads.data();
    for (std::size_t r = 0; r < W; ++r)
      for (std::size_t w = 0; w < 4; ++w) state_[w][r] = rngs[r]->state()[w];
  }

  void draw(std::size_t count, double beta) noexcept {
    const double inv_beta = 1.0 / beta;
    constexpr std::size_t N = std::min(W, Bytes / 8);
    using U = typename DrawLanes<N>::U;
    using D = typename DrawLanes<N>::D;
    using F = typename DrawLanes<N>::F;
    for (std::size_t r = 0; r < W; r += N) {
      U w[4];
      for (std::size_t j = 0; j < 4; ++j) std::memcpy(&w[j], state_[j] + r, sizeof w[j]);
      for (std::size_t k = 0; k < count; ++k) {
        U x;
        Rng::next(w[0], w[1], w[2], w[3], x);
        D u, t;
        unit_double(x, u);
        branchless_neg_log<D, U>(u, t);
        const D thr = t * inv_beta;
        // 1.0 where u < 1/2 (an all-ones compare lane masks 1.0's bits).
        const D coin = __builtin_bit_cast(
            D, __builtin_bit_cast(U, u < 0.5) & 0x3FF0000000000000ull);
        const F thr32 = __builtin_convertvector(thr, F);
        const F coin32 = __builtin_convertvector(coin, F);
        std::memcpy(t_ + k * W + r, &thr32, sizeof thr32);
        std::memcpy(heads_ + k * W + r, &coin32, sizeof coin32);
      }
      for (std::size_t j = 0; j < 4; ++j) std::memcpy(state_[j] + r, &w[j], sizeof w[j]);
    }
  }

  L accept(std::size_t k, const L& delta) const noexcept {
    using Part = typename L::Part;
    typedef std::int32_t Bits __attribute__((vector_size(sizeof(Part))));
    const L thresholds = L::load(t_ + k * W);
    const L coins = L::load(heads_ + k * W);
    const Bits one = __builtin_bit_cast(Bits, L::splat(1.0f).part[0]);
    L mask;
    for (std::size_t p = 0; p < L::kParts; ++p) {
      const Bits zero = delta.part[p] == 0.0f;
      const Bits below = delta.part[p] <= thresholds.part[p];
      mask.part[p] = __builtin_bit_cast(
          Part, (zero & __builtin_bit_cast(Bits, coins.part[p])) | (~zero & below & one));
    }
    return mask;
  }

  void finish() noexcept {
    for (std::size_t r = 0; r < W; ++r)
      rngs_[r]->set_state({state_[0][r], state_[1][r], state_[2][r], state_[3][r]});
  }

 private:
  Rng* const* rngs_;
  std::uint64_t state_[4][W] = {};
  float* t_ = nullptr;
  float* heads_ = nullptr;
};

/// The exact (v1) accept rule: each lane runs the scalar Metropolis
/// decision on its own generator — a uniform and std::exp only on an
/// uphill move, a coin only on a zero-cost move — so RNG consumption is
/// data-dependent and the pass is scalar per lane.  Zero-cost flips are
/// taken with probability 1/2: accepting them deterministically makes
/// domain walls translate in lock-step with the sequential sweep and orbit
/// forever instead of diffusing/annihilating.
template <std::size_t W, std::size_t Bytes>
class ExactRule {
 public:
  using L = Lanes<double, W, Bytes>;

  ExactRule(Rng* const* rngs, Scratch<double>&) : rngs_(rngs) {}

  void draw(std::size_t, double beta) noexcept { beta_ = beta; }

  L accept(std::size_t, const L& delta) const {
    double d[W], m[W];
    std::memcpy(d, delta.part, sizeof d);
    for (std::size_t r = 0; r < W; ++r) {
      const bool reject = d[r] > 0.0 ? rngs_[r]->uniform() >= std::exp(-beta_ * d[r])
                                     : d[r] == 0.0 && rngs_[r]->coin();
      m[r] = reject ? 0.0 : 1.0;
    }
    L mask;
    std::memcpy(mask.part, m, sizeof m);
    return mask;
  }

  void finish() noexcept {}

 private:
  Rng* const* rngs_;
  double beta_ = 0.0;
};

#if defined(__x86_64__)
/// Runs body() compiled for AVX2, on 32-byte vector parts: `flatten`
/// inlines body's whole call tree (the kernel, its lambdas, its helpers and
/// the accept rule) into this one target("avx2") function, so no
/// translation unit is built with -mavx2 and no AVX2 instruction runs
/// outside it.  -ffp-contract=off keeps FMA out (AVX2 does not imply FMA
/// here anyway), so every lane runs the same IEEE operations in the same
/// order as the 16-byte parts: the copies agree bit for bit.
template <typename F>
__attribute__((target("avx2"), flatten)) void with_avx2(const F& body) {
  body();
}

/// Whether this CPU (and its OS) runs AVX2 code: CPUID, read once per
/// process.
bool host_avx2() noexcept {
  static const bool avx2 = (__builtin_cpu_init(), __builtin_cpu_supports("avx2"));
  return avx2;
}
#else
template <typename F>
void with_avx2(const F& body) {
  body();
}
bool host_avx2() noexcept { return false; }
#endif

/// Calls f(std::integral_constant<std::size_t, W>{}) at the widest replica
/// width W in {8, 4, 2, 1} that is at most `left`, and returns W.
template <typename F>
std::size_t at_width(std::size_t left, const F& f) {
  if (left >= 8) return f(std::integral_constant<std::size_t, 8>{}), 8;
  if (left >= 4) return f(std::integral_constant<std::size_t, 4>{}), 4;
  if (left >= 2) return f(std::integral_constant<std::size_t, 2>{}), 2;
  return f(std::integral_constant<std::size_t, 1>{}), 1;
}

}  // namespace

const char* kernel_isa(AcceptMode mode) noexcept {
  return mode == AcceptMode::kThreshold32 && host_avx2() ? "avx2" : "baseline";
}

SaEngine::SaEngine(const qubo::IsingModel& problem) {
  const std::size_t n = problem.num_spins();
  fields_ = problem.fields();

  const auto& couplings = problem.couplings();
  coupling_values_.reserve(couplings.size());
  edge_i_.reserve(couplings.size());

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
    neighbor_[cursor[c.i]] = c.j;
    coupling_index_[cursor[c.i]++] = static_cast<std::uint32_t>(idx);
    neighbor_[cursor[c.j]] = c.i;
    coupling_index_[cursor[c.j]++] = static_cast<std::uint32_t>(idx);
  }
}

void SaEngine::set_groups(std::vector<std::vector<std::uint32_t>> groups) {
  group_start_.assign(1, 0);
  group_gather_.clear();
  // Membership mask for internal-edge detection, reused across groups.
  std::vector<std::uint8_t> member_of(num_spins(), 0u);
  std::vector<std::tuple<std::uint32_t, std::uint32_t, std::uint32_t>> internal;
  for (const auto& members : groups) {
    for (const std::uint32_t m : members) {
      require(m < num_spins(), "SaEngine::set_groups: member out of range");
      member_of[m] = 1u;
    }
    // Walk each member's CSR row, taking an edge from its i endpoint only;
    // ascending coupling id keeps the kernel's accumulation order.
    internal.clear();
    for (const std::uint32_t m : members)
      for (std::uint32_t k = row_offset_[m]; k < row_offset_[m + 1]; ++k)
        if (member_of[neighbor_[k]] && edge_i_[coupling_index_[k]] == m)
          internal.emplace_back(coupling_index_[k], m, neighbor_[k]);
    std::sort(internal.begin(), internal.end());
    internal.erase(std::unique(internal.begin(), internal.end()), internal.end());
    for (const std::uint32_t m : members) member_of[m] = 0u;

    group_gather_.push_back(static_cast<std::uint32_t>(members.size()));
    group_gather_.insert(group_gather_.end(), members.begin(), members.end());
    for (const auto& [e, i, j] : internal) group_gather_.insert(group_gather_.end(), {i, j, e});
    group_start_.push_back(static_cast<std::uint32_t>(group_gather_.size()));
  }
}

// The sweep kernel at a compile-time replica width W, for both accept
// rules: Real == float is threshold32, Real == double is exact.  State is
// replica-interleaved (entry index*W + r), so at a fixed spin or edge the W
// replica values are contiguous and the CSR row indices are loaded once for
// all replicas; spins are Real +-1 until the output, local fields and
// accumulators Real.  Each per-replica step is one Lanes<Real, W, Bytes>
// operation (every lane computes exactly the scalar expression, in the same
// order, so the 16- and 32-byte instantiations agree bit for bit).
// Coefficients are staged in the same layout from W ICE blocks or, at a
// replica stride of 0, the one base array; `twice` holds each CSR slot's
// doubled coupling 2c, so a flip adds 2c * s to a field with one multiply.
//
// Each decision asks the rule for a 0/1 accept mask m_r (see ThresholdRule
// and ExactRule), and a flip of spin i is applied to all W replicas at
// once: s_r -= 2 s_r m_r, then every neighbor field gains 2c * (s_r m_r).
// For m_r = 1 that is the scalar path's exact arithmetic.  For m_r = 0 the
// replica adds +-0, which leaves every nonzero field bit-identical and can
// change only the SIGN of a zero field; no decision can read that sign,
// because a zero field yields delta_e = +-0 and both rules' tests —
// `delta_e == 0` and `delta_e <= t` for threshold32, `delta_e > 0` and
// `delta_e == 0` for exact — treat -0 and +0 alike (a +-0 term added to a
// nonzero sum leaves it unchanged, so the sign cannot reach a nonzero value
// either).  The result is therefore bit-identical to W scalar anneals:
// replica r draws only from rngs[r], in the scalar order (every draw, and
// the order of draws, is the rule's scalar one), and accumulates every
// field and group sum in the scalar order.
template <typename Real, std::size_t W, std::size_t Bytes>
void SaEngine::run_kernel(const std::vector<double>& betas, const double* fields_rm,
                          const double* couplings_rm, bool per_replica, Rng* const* rngs,
                          const qubo::SpinVec* initial, qubo::SpinVec* out) const {
  using V = Lanes<Real, W, Bytes>;
  using Rule = std::conditional_t<std::is_same_v<Real, float>, ThresholdRule<W, Bytes>,
                                  ExactRule<W, Bytes>>;
  const std::size_t n = num_spins();
  const std::size_t m = num_couplings();
  Scratch<Real>& buffers = scratch<Real>();
  interleave(fields_rm, n, per_replica ? n : 0, W, buffers.fields);
  interleave(couplings_rm, m, per_replica ? m : 0, W, buffers.couplings);
  buffers.twice.resize(neighbor_.size() * W);
  for (std::size_t e = 0; e < neighbor_.size(); ++e)
    for (std::size_t r = 0; r < W; ++r)
      buffers.twice[e * W + r] = Real(2) * buffers.couplings[coupling_index_[e] * W + r];
  const Real* const fields = buffers.fields.data();
  const Real* const couplings = buffers.couplings.data();
  const Real* const twice = buffers.twice.data();
  buffers.spins.resize(n * W);
  buffers.hloc.resize(n * W);
  Real* const s = buffers.spins.data();
  Real* const h = buffers.hloc.data();

  if (initial != nullptr) {
    require(initial->size() == n, "SaEngine: initial state size");
    for (std::size_t i = 0; i < n; ++i)  // warm start: broadcast to all replicas
      V::splat(static_cast<Real>((*initial)[i])).store(s + i * W);
  } else {
    // Random initial configuration (uniform superposition analog); replica r
    // draws its N coins in spin order, as the scalar path does.
    for (std::size_t r = 0; r < W; ++r)
      for (std::size_t i = 0; i < n; ++i) s[i * W + r] = rngs[r]->coin() ? Real(1) : Real(-1);
  }

  // hloc[i*W+r] = f_i^(r) + sum_j J_ij^(r) s_j^(r); flipping spin i of
  // replica r changes its energy by -2 s_i hloc.
  for (std::size_t i = 0; i < n; ++i) {
    V acc = V::splat(Real(0));
    for (std::uint32_t e = row_offset_[i]; e < row_offset_[i + 1]; ++e)
      acc = acc + V::load(couplings + coupling_index_[e] * W) *
                      V::load(s + std::size_t{neighbor_[e]} * W);
    (V::load(fields + i * W) + acc).store(h + i * W);
  }

  // Applies the accepted flips of spin i (mask lanes in {0, 1}) to all W
  // replicas; see the +-0 argument above.
  const auto flip = [&](std::size_t i, const V& mask) {
    V si = V::load(s + i * W);
    si = si - V::splat(Real(2)) * si * mask;
    si.store(s + i * W);
    const V sm = si * mask;
    for (std::uint32_t e = row_offset_[i]; e < row_offset_[i + 1]; ++e) {
      Real* hn = h + std::size_t{neighbor_[e]} * W;
      (V::load(hn) + V::load(twice + e * W) * sm).store(hn);
    }
  };

  // Constructed after the cold start: threshold32's lockstep generators
  // copy the streams' states past their initial coins.
  Rule rule(rngs, buffers);
  for (const double beta : betas) {
    for (std::size_t i0 = 0; i0 < n; i0 += kDrawBlock) {
      const std::size_t block = std::min(kDrawBlock, n - i0);
      rule.draw(block, beta);
      for (std::size_t k = 0; k < block; ++k) {
        const std::size_t i = i0 + k;
        const V mask = rule.accept(k, V::splat(Real(-2)) * V::load(s + i * W) * V::load(h + i * W));
        if (any(mask)) flip(i, mask);
      }
    }

    // Collective pass: dE = -2 (sum_{i in G} s_i hloc_i
    //                           - 2 sum_{(i,j) internal} J_ij s_i s_j),
    // gathered from the group's compiled list (members, then (i, j, id)
    // internal couplings) with every member flipped on one mask.
    const std::size_t num_groups = group_start_.size() - 1;
    for (std::size_t g0 = 0; g0 < num_groups; g0 += kDrawBlock) {
      const std::size_t block = std::min(kDrawBlock, num_groups - g0);
      rule.draw(block, beta);
      for (std::size_t k = 0; k < block; ++k) {
        const std::uint32_t* p = group_gather_.data() + group_start_[g0 + k];
        const std::uint32_t* end = group_gather_.data() + group_start_[g0 + k + 1];
        const std::uint32_t num_members = *p++;
        const std::uint32_t* members = p;
        V sum_local = V::splat(Real(0));
        for (; p < members + num_members; ++p)
          sum_local = sum_local + V::load(s + std::size_t{*p} * W) * V::load(h + std::size_t{*p} * W);
        V sum_internal = V::splat(Real(0));
        for (; p < end; p += 3)
          sum_internal = sum_internal + V::load(couplings + std::size_t{p[2]} * W) *
                                            V::load(s + std::size_t{p[0]} * W) *
                                            V::load(s + std::size_t{p[1]} * W);
        const V mask =
            rule.accept(k, V::splat(Real(-2)) * (sum_local - V::splat(Real(2)) * sum_internal));
        // Members flip in declaration order, as the scalar path's
        // sequential flips do, so shared-neighbor fields accumulate the
        // member contributions in the same order per replica.
        if (any(mask))
          for (std::uint32_t m = 0; m < num_members; ++m) flip(members[m], mask);
      }
    }
  }
  rule.finish();

  for (std::size_t r = 0; r < W; ++r)
    for (std::size_t i = 0; i < n; ++i) out[r][i] = static_cast<std::int8_t>(s[i * W + r]);
}

void SaEngine::sweep(const std::vector<double>& betas, const double* fields_rm,
                     const double* couplings_rm, bool per_replica,
                     Rng* const* rngs, std::size_t R,
                     const qubo::SpinVec* initial, AcceptMode mode, bool avx2,
                     qubo::SpinVec* out) const {
  // Widths 8, 4, 2, 1 cover any R (5 -> 4+1, 10 -> 8+2): anneal a draws
  // only from stream a, so the chunking is invisible in the results.
  const auto run = [&](auto real, auto bytes) {
    for (std::size_t c0 = 0; c0 < R;) {
      const double* f = fields_rm + (per_replica ? c0 * num_spins() : 0);
      const double* c = couplings_rm + (per_replica ? c0 * num_couplings() : 0);
      c0 += at_width(R - c0, [&](auto w) {
        run_kernel<decltype(real), decltype(w)::value, decltype(bytes)::value>(
            betas, f, c, per_replica, rngs + c0, initial, out + c0);
      });
    }
  };
  // Exact keeps 16-byte parts on every host: an AVX2 copy of it measured
  // no faster, and its scalar accept pass is the bottleneck.
  using Parts16 = std::integral_constant<std::size_t, 16>;
  if (mode == AcceptMode::kExact)
    run(0.0, Parts16{});
  else if (avx2)
    with_avx2([&] { run(0.0f, std::integral_constant<std::size_t, 32>{}); });
  else
    run(0.0f, Parts16{});
}

void SaEngine::draw_thresholds(Rng* const* rngs, std::size_t W, std::size_t count,
                               double beta, bool avx2, float* thresholds, float* coins) {
  require(count <= kDrawBlock && W <= 8 && std::has_single_bit(W),
          "SaEngine::draw_thresholds: one block at width 1, 2, 4 or 8");
  const auto draw = [&](auto bytes) {
    at_width(W, [&](auto w) {
      ThresholdRule<decltype(w)::value, decltype(bytes)::value> rule(rngs, scratch<float>());
      rule.draw(count, beta);
      rule.finish();
    });
  };
  if (avx2)
    with_avx2([&] { draw(std::integral_constant<std::size_t, 32>{}); });
  else
    draw(std::integral_constant<std::size_t, 16>{});
  std::copy_n(scratch<float>().threshold.data(), count * W, thresholds);
  std::copy_n(scratch<float>().heads.data(), count * W, coins);
}

std::vector<qubo::SpinVec> SaEngine::batch_dispatch(
    const std::vector<double>& betas, const double* fields_rm,
    const double* couplings_rm, bool replicated_coefficients,
    std::vector<Rng>& rngs, const qubo::SpinVec* initial,
    AcceptMode mode, bool avx2) const {
  QUAMAX_PROF_SCOPE("anneal.batch_sweep");
  const std::size_t R = rngs.size();
  require(R >= 1, "SaEngine::anneal_batch: need at least one replica stream");
  std::vector<Rng*> rng_ptrs(R);
  for (std::size_t r = 0; r < R; ++r) rng_ptrs[r] = &rngs[r];
  std::vector<qubo::SpinVec> result(R, qubo::SpinVec(num_spins()));
  sweep(betas, fields_rm, couplings_rm, replicated_coefficients, rng_ptrs.data(),
        R, initial, mode, avx2, result.data());
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
  // The R = 1 case of the batch with a per-replica block: threshold32
  // rounds the caller's arrays to float32 exactly as the batch does.
  qubo::SpinVec spins(num_spins());
  Rng* rng_ptr = &rng;
  sweep(betas, fields.data(), couplings.data(), /*per_replica=*/true, &rng_ptr,
        1, initial, mode, host_avx2(), &spins);
  return spins;
}

std::vector<qubo::SpinVec> SaEngine::anneal_batch(
    const std::vector<double>& betas, std::vector<Rng>& rngs,
    const qubo::SpinVec* initial, AcceptMode mode) const {
  return batch_dispatch(betas, fields_.data(), coupling_values_.data(),
                        /*replicated_coefficients=*/false, rngs, initial, mode,
                        host_avx2());
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
                        /*replicated_coefficients=*/true, rngs, initial, mode,
                        host_avx2());
}

}  // namespace quamax::anneal
