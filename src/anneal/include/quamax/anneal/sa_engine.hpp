// Metropolis simulated-annealing engine over an arbitrary Ising model.
//
// This is the compute kernel standing in for the quantum chip.  One "anneal
// cycle" starts from a uniformly random spin configuration (the classical
// analog of the initial uniform superposition) and runs sequential
// Metropolis sweeps along the supplied inverse-temperature schedule.  The
// engine exposes that cycle at two granularities:
//
//  * anneal()/anneal_with() — ONE replica per call (the R = 1
//    specialization of the batched kernel below);
//  * anneal_batch()/anneal_batch_with() — R independent replicas per call,
//    swept together by one batched kernel.  The kernel keeps the state of
//    W replicas in contiguous arrays with the replica index fastest-varying
//    (spins[i*W + r], hloc[i*W + r]), walks the CSR adjacency ONCE per spin
//    per temperature step, and updates every replica's local fields in the
//    inner loop — so the row's neighbor/coupling indices are loaded once for
//    all replicas and the per-neighbor local-field updates are packed
//    operations across replicas.  Replica r draws every random number
//    (initial spins, Metropolis accepts, tie-breaks) from its OWN generator
//    rngs[r], in exactly the order a scalar anneal with that generator
//    would, and all floating-point accumulation per replica happens in the
//    scalar path's order; the batched result is therefore BIT-IDENTICAL to
//    R scalar anneal() calls with matched generators (batch_replica_test.cpp
//    enforces this, and sa_reference_test.cpp checks both against a scalar
//    reference sweep written from this contract).
//
// One kernel, two accept rules.  Both modes run at a compile-time replica
// width W in {8, 4, 2, 1}, the call's R split into such chunks (5 -> 4+1,
// 10 -> 8+2; invisible, as anneal a draws only from stream a), with spins
// and fields in the rule's precision (float for kThreshold32, double for
// kExact) interleaved at i*W + r, and so are the coefficients: each call
// stages them from R ICE blocks or, at a replica stride of 0, from the
// problem's own arrays, with every CSR slot's doubled coupling 2c.  Each
// decision asks the accept rule for a 0/1 mask m per replica, and a flip
// adds 2c * s * m to every replica's neighbor fields.
// Adding +-0 for a replica that did not flip can change only the sign of a
// zero field, which no decision reads (both rules' tests treat -0 and +0
// alike), so the masked update is bit-identical to flipping only the
// accepting replicas.  set_groups() compiles each group into one gather
// list (members, then its internal couplings).
//
// Vector width and the one ISA dispatch.  The per-replica lanes are held
// in 16-byte vector parts, which run on any x86-64.  kThreshold32 is also
// compiled a second time, from the same source, on AVX2's 32-byte parts
// (eight float lanes per operation, four generators per draw vector) inside
// one target("avx2") function, so no translation unit is built with -mavx2.
// Every entry point runs that copy when CPUID reports AVX2, read once per
// process (kernel_isa); kExact and hosts without AVX2 keep the 16-byte
// parts.  Both copies run the same IEEE operations in the same order (no
// FMA: the build passes -ffp-contract=off), so results are identical on
// every host.
//
// Collective (group) moves: single-spin dynamics cannot serve embedded
// problems — once the ferromagnetic chains freeze, flipping a logical
// variable means dragging a domain wall through the whole chain, an
// exponentially suppressed path.  The physical annealer flips chains
// coherently (collective tunneling); we model that with an optional
// per-sweep pass of Metropolis moves over caller-defined spin groups (the
// embedding's chains), each accepted on the exact collective energy change.
// Chain *breaking* — the small-|J_F| failure mode — still happens through
// the single-spin pass, so the embedding trade-offs the paper studies
// remain visible.  Group moves run in both the scalar and the batched path.
//
// The adjacency is prebuilt in CSR form with coupling *indices*, so ICE can
// re-draw the coefficient arrays each anneal without touching the graph
// structure; the batched entry points take per-replica coefficient blocks
// for exactly that purpose.  Local fields are maintained incrementally; a
// sweep costs O(R * sum of degrees) with no allocation inside the sweep
// loop.
//
// Acceptance rules: every entry point takes an AcceptMode.  kExact is the
// v1 Metropolis rule (bit-compatible with all historical results);
// kThreshold32 replaces the data-dependent exp()/RNG decision with a
// pre-drawn, branch-free energy-threshold compare over float32 state —
// statistically equivalent, substantially faster, and bit-identical across
// thread and replica counts under its own (v2) determinism contract.  See
// the AcceptMode documentation below.
//
// Thread safety: after construction (and any set_groups() call), the engine
// is immutable — anneal(), anneal_with(), anneal_batch(), and
// anneal_batch_with() are const, keep all mutable state in locals, and may
// be called concurrently from any number of threads with per-thread Rngs.
// The samplers' fan-out (core::run_stream_blocks) relies on this to share
// one engine across all lanes, each lane annealing its own replica block.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "quamax/common/rng.hpp"
#include "quamax/qubo/ising.hpp"

namespace quamax::anneal {

/// Acceptance rule of the Metropolis sweep kernel.
///
///  * kExact — the v1 contract: accept an uphill move iff
///    uniform() < exp(-beta * dE), flip zero-cost moves on a coin.  RNG
///    consumption is data-dependent (a uniform only on uphill proposals, a
///    coin only on zero-cost ones), so the accept decision is scalar per
///    replica: a `std::exp` call and two branches per spin per replica per
///    sweep, inside the same W-wide kernel as kThreshold32 (double spins and
///    fields, masked flips).  Bit-compatible with every result the library
///    has ever produced.
///
///  * kThreshold32 — the v2 branch-free contract, and the serving default:
///    each decision PRE-DRAWS one uniform u_r per replica in a fixed,
///    data-independent order (replica r always consumes exactly one uniform
///    per spin and per group per sweep), transforms it once into an energy
///    threshold t_r = -log(u_r) / beta, and accepts iff dE <= t_r (zero-cost
///    moves use the same u_r as the coin: accept iff u_r < 1/2).  Identical
///    acceptance probabilities, but no exp() and no data-dependent RNG
///    branches in the inner loop — the per-replica accept pass is
///    straight-line packed code (bench_micro_kernels'
///    BM_SaSweepBatchedThreshold32 and BM_SaSweepIceThreshold32).  Local
///    fields, accumulators, and coefficient reads run in float32, doubling
///    the SIMD width of every vector pass.  NOT bit-identical to kExact
///    (different draws and precision), but replica r's stream consumption
///    is data-independent, so results remain bit-identical at any thread
///    count or replica block size; statistically indistinguishable from
///    kExact (accept_mode_test enforces parity).
enum class AcceptMode : std::uint8_t { kExact = 0, kThreshold32 = 1 };

/// Canonical CLI spelling of an accept mode ("exact" / "threshold32").
const char* to_string(AcceptMode mode) noexcept;

/// The instruction set SaEngine sweeps `mode` at on this host: "avx2"
/// (32-byte vector parts) for kThreshold32 when CPUID reports AVX2, read
/// once per process; otherwise "baseline" (16-byte parts, any x86-64).
/// Both give the same bytes.
const char* kernel_isa(AcceptMode mode) noexcept;

class SaEngine {
 public:
  explicit SaEngine(const qubo::IsingModel& problem);

  /// Number of spins N of the underlying problem.
  std::size_t num_spins() const noexcept { return fields_.size(); }
  /// Number of couplings M of the underlying problem.
  std::size_t num_couplings() const noexcept { return coupling_values_.size(); }

  /// Registers spin groups for collective moves (typically the embedding's
  /// chains).  Groups must contain valid spin indices; they may overlap the
  /// whole spin set or only part of it.  Pass an empty vector to disable.
  void set_groups(std::vector<std::vector<std::uint32_t>> groups);

  /// Base (unperturbed) field array, in the layout anneal_with expects.
  const std::vector<double>& base_fields() const noexcept { return fields_; }
  /// Base (unperturbed) coupling array, in the layout anneal_with expects.
  const std::vector<double>& base_couplings() const noexcept {
    return coupling_values_;
  }

  /// One anneal with the problem's own coefficients.  `initial`, when
  /// non-null, seeds the spin configuration (reverse annealing / warm
  /// start); otherwise spins start uniformly random.  `mode` selects the
  /// acceptance rule (see AcceptMode; kExact preserves the v1 contract).
  qubo::SpinVec anneal(const std::vector<double>& betas, Rng& rng,
                       const qubo::SpinVec* initial = nullptr,
                       AcceptMode mode = AcceptMode::kExact) const {
    return anneal_with(betas, fields_, coupling_values_, rng, initial, mode);
  }

  /// One anneal with caller-supplied (e.g. ICE-perturbed) coefficients;
  /// `fields` must have num_spins() entries and `couplings` num_couplings()
  /// entries in base-array order.
  qubo::SpinVec anneal_with(const std::vector<double>& betas,
                            const std::vector<double>& fields,
                            const std::vector<double>& couplings, Rng& rng,
                            const qubo::SpinVec* initial = nullptr,
                            AcceptMode mode = AcceptMode::kExact) const;

  /// Batched anneal: runs rngs.size() independent replicas of the problem's
  /// own coefficients in one kernel call, replica r drawing all randomness
  /// from rngs[r].  Returns one configuration per replica; replica r is
  /// bit-identical to `anneal(betas, rngs[r], initial, mode)` (and rngs[r]
  /// is left in the same state) — for EVERY accept mode, so blocking anneals
  /// into replicas never changes results.  `initial`, when non-null,
  /// warm-starts EVERY replica from the same configuration, as R scalar
  /// calls would.
  std::vector<qubo::SpinVec> anneal_batch(
      const std::vector<double>& betas, std::vector<Rng>& rngs,
      const qubo::SpinVec* initial = nullptr,
      AcceptMode mode = AcceptMode::kExact) const;

  /// Batched anneal with per-replica coefficient blocks (the ICE path: each
  /// replica carries its own perturbed realization).  `fields` holds R
  /// replica-major blocks of num_spins() entries (replica r's fields are
  /// fields[r*N .. (r+1)*N)), `couplings` R blocks of num_couplings()
  /// entries, with R == rngs.size().  Replica r is bit-identical to
  /// `anneal_with(betas, fields_r, couplings_r, rngs[r], initial, mode)`.
  std::vector<qubo::SpinVec> anneal_batch_with(
      const std::vector<double>& betas, const std::vector<double>& fields,
      const std::vector<double>& couplings, std::vector<Rng>& rngs,
      const qubo::SpinVec* initial = nullptr,
      AcceptMode mode = AcceptMode::kExact) const;

 private:
  /// The sweep kernel at a compile-time replica width W, on vector parts of
  /// Bytes bytes: Real == float runs kThreshold32, Real == double kExact.
  /// Reads W replica-major coefficient blocks of `fields_rm` and
  /// `couplings_rm` when `per_replica`, else the one base array every
  /// replica reads, and writes replica r's spins to out[r].
  template <typename Real, std::size_t W, std::size_t Bytes>
  void run_kernel(const std::vector<double>& betas, const double* fields_rm,
                  const double* couplings_rm, bool per_replica, Rng* const* rngs,
                  const qubo::SpinVec* initial, qubo::SpinVec* out) const;

  /// Anneals R replicas into out[0..R) in chunks of width 8, 4, 2, 1, at
  /// float for threshold32 and double for exact.  `fields_rm` and
  /// `couplings_rm` hold R replica-major blocks when `per_replica`, else
  /// the one base array every replica reads.  The one ISA dispatch: with
  /// `avx2` (the public entry points pass CPUID's answer, see kernel_isa)
  /// threshold32 runs its copy compiled for AVX2 on 32-byte parts; exact
  /// always runs 16-byte parts.
  void sweep(const std::vector<double>& betas, const double* fields_rm,
             const double* couplings_rm, bool per_replica, Rng* const* rngs,
             std::size_t R, const qubo::SpinVec* initial, AcceptMode mode,
             bool avx2, qubo::SpinVec* out) const;

  /// Shared front end of the two anneal_batch* entry points (the
  /// `anneal.batch_sweep` profiler scope): one result per stream.
  std::vector<qubo::SpinVec> batch_dispatch(const std::vector<double>& betas,
                                            const double* fields_rm,
                                            const double* couplings_rm,
                                            bool replicated_coefficients,
                                            std::vector<Rng>& rngs,
                                            const qubo::SpinVec* initial,
                                            AcceptMode mode, bool avx2) const;

  /// threshold32's draw pass alone: `count` <= 64 decisions of W in {1, 2,
  /// 4, 8} lockstep streams rngs[0..W), on the AVX2 copy when `avx2`; the
  /// rule's thresholds and coins land at [k*W + r] of the two outputs.
  static void draw_thresholds(Rng* const* rngs, std::size_t W, std::size_t count,
                              double beta, bool avx2, float* thresholds, float* coins);

  // Seams of tests/kernel_dispatch_test.cpp and threshold_draw_test.cpp.
  friend struct KernelIsaSeam;
  friend struct ThresholdDrawSeam;

  // CSR adjacency: spin i's incident edges are entries
  // [row_offset_[i], row_offset_[i+1]) of neighbor_/coupling_index_.
  std::vector<std::uint32_t> row_offset_;
  std::vector<std::uint32_t> neighbor_;
  std::vector<std::uint32_t> coupling_index_;
  std::vector<std::uint32_t> edge_i_;  ///< coupling id -> endpoint i
  std::vector<double> fields_;
  std::vector<double> coupling_values_;
  // Compiled groups: group g's gather list is
  // group_gather_[group_start_[g] .. group_start_[g+1]) = {k, its k member
  // spins in declaration order, then one (i, j, coupling id) triple per
  // internal coupling in ascending id}.
  std::vector<std::uint32_t> group_start_{0};
  std::vector<std::uint32_t> group_gather_;
};

}  // namespace quamax::anneal
