// quamax::vpp — downlink vector-perturbation precoding as a QUBO
// (ROADMAP: "both directions of a cell"; arXiv 2102.12540's QUBO-VPP
// formulation, adapted to this library's qubo/chimera stack).
//
// The uplink story (core::reduce_ml_to_ising) poses ML *detection* as an
// Ising problem.  The downlink counterpart is vector-perturbation precoding
// (VPP): a base station with Nt antennas serving K single-antenna users
// through a zero-forcing precoder P = H^H (H H^H)^{-1} may add an integer
// perturbation tau*v (v Gaussian-integer) to the user symbol vector u before
// precoding, because each receiver can strip tau*v with a cheap centered
// mod-tau reduction.  The transmit power
//
//     E(v) = || P (u + tau v) ||^2  =  || F (y + tau C q) ||^2
//
// is quadratic in v, so minimizing it over a two's-complement binary
// encoding q of v yields the QUBO
//
//     Q = tau^2 C^T G C + 2 tau C^T G y,   G = F^T F,
//
// (offset y^T G y), where F is the realified precoder and y the realified
// symbol vector.  Lower E(v) means a smaller power-normalization penalty
// sqrt(gamma) at the receivers, hence fewer bit errors than plain ZF — the
// downlink analogue of the paper's "QUBO per channel use" serving unit, and
// the second job family the full-duplex scheduler routes (serve::CellJob).
//
// Encoding: each of the 2K real perturbation components is an integer in
// [-2^t, 2^t - 1] encoded by t+1 bits (t = mag_bits), value
// sum_{j<t} 2^j q_j - 2^t q_t, so a problem has 2K(t+1) logical variables.
// The all-zeros configuration is v = 0, i.e. classic zero-forcing — which
// gives a free optimality anchor: any sample at or below the v=0 energy
// transmits no more power than ZF.
//
// Energy bookkeeping matches the uplink reduction: for every configuration,
// ising.absolute_energy(spins) == transmit_power(p, u, v(spins), tau)
// exactly (tests/vpp_test.cpp checks this exhaustively on small instances).
#pragma once

#include <cstddef>
#include <optional>
#include <vector>

#include "quamax/common/rng.hpp"
#include "quamax/linalg/matrix.hpp"
#include "quamax/qubo/ising.hpp"
#include "quamax/wireless/channel.hpp"
#include "quamax/wireless/modulation.hpp"

namespace quamax::vpp {

/// A family of downlink precoding problems to sample instances from — the
/// downlink mirror of sim::ProblemClass.
struct VppConfig {
  std::size_t users = 4;     ///< K single-antenna users
  std::size_t antennas = 4;  ///< Nt base-station antennas (>= users)
  wireless::Modulation mod = wireless::Modulation::kQpsk;
  wireless::ChannelKind kind = wireless::ChannelKind::kRayleigh;
  /// Perturbation magnitude bits t: each real component ranges over
  /// [-2^t, 2^t - 1], costing t+1 binary variables.  t=1 (range [-2,1])
  /// already captures nearly all of the VPP power win for QPSK.
  std::size_t mag_bits = 1;
  /// Modulo base; 0 selects default_tau(mod) = 2*(c_max + Delta/2).
  double tau = 0.0;
  /// Engaged => receivers see AWGN at this SNR; disengaged => noise-free.
  std::optional<double> snr_db;
};

/// The canonical modulo base 2*(|c_max| + Delta/2) for the unnormalized
/// integer constellations: 4 for BPSK/QPSK, 8 for 16-QAM, 16 for 64-QAM.
double default_tau(wireless::Modulation mod);

/// Zero-forcing (channel-inverting) precoder P = H^H (H H^H)^{-1} for a
/// K x Nt downlink channel with K <= Nt; H P = I on the user streams.
linalg::CMat zero_forcing_precoder(const linalg::CMat& h);

/// One VPP problem in annealer form: 2*users*(mag_bits+1) logical variables.
struct PrecodeProblem {
  qubo::IsingModel ising;
  std::size_t users = 0;
  std::size_t mag_bits = 1;
  double tau = 0.0;

  std::size_t num_vars() const { return ising.num_spins(); }
};

/// Builds the VPP QUBO for precoder `p` (Nt x K) and user symbols `u` (K),
/// reduced to Ising with offset tracking: for every configuration,
/// absolute_energy == transmit_power(p, u, perturbation_from_spins(...), tau).
PrecodeProblem reduce_vpp_to_ising(const linalg::CMat& p, const linalg::CVec& u,
                                   double tau, std::size_t mag_bits);

/// Two's-complement decode: bits (groups of mag_bits+1, LSB first, sign
/// last) -> integers in [-2^t, 2^t - 1].
std::vector<int> integers_from_bits(const qubo::BinVec& bits,
                                    std::size_t mag_bits);

/// Two's-complement encode (exact inverse; throws when out of range).
qubo::BinVec bits_from_integers(const std::vector<int>& values,
                                std::size_t mag_bits);

/// Annealer sample -> complex perturbation vector v (users entries): real
/// components are integers [0, users), imaginary [users, 2*users).
linalg::CVec perturbation_from_spins(const qubo::SpinVec& spins,
                                     std::size_t users, std::size_t mag_bits);

/// The v = 0 configuration (all bits zero): classic zero-forcing.
qubo::SpinVec zero_perturbation_spins(const PrecodeProblem& problem);

/// || P (u + tau v) ||^2 — the objective the QUBO minimizes.
double transmit_power(const linalg::CMat& p, const linalg::CVec& u,
                      const linalg::CVec& v, double tau);

/// One downlink channel use ready to serve: channel, precoder, payload,
/// reduced problem, reference energies, and a pre-drawn receiver noise
/// vector.  Drawing the noise at instance-creation time makes downlink BER
/// a pure function of (instance, spins) — the scheduler consumes no extra
/// randomness for downlink jobs, so full-duplex runs stay bit-identical at
/// any thread / replica / poll interleaving.
struct PrecodeInstance {
  linalg::CMat h;             ///< K x Nt downlink channel
  linalg::CMat p;             ///< Nt x K zero-forcing precoder
  wireless::BitVec tx_bits;   ///< Gray-coded payload (K * Q bits)
  linalg::CVec symbols;       ///< Gray-mapped user symbols u
  wireless::Modulation mod = wireless::Modulation::kQpsk;
  linalg::CVec noise;         ///< per-user receiver AWGN draw (K entries)
  double noise_sigma = 0.0;   ///< per-user sigma actually applied (0 = none)
  double snr_db = 0.0;        ///< target SNR (meaningless when sigma == 0)
  PrecodeProblem problem;
  double zf_power = 0.0;      ///< || P u ||^2: the v = 0 transmit power
  double zf_energy = 0.0;     ///< v = 0 Ising energy (excluding offset)
  /// Reference energy for ground-state accounting: the brute-force optimum
  /// when the oracle ran, else the v = 0 (zero-forcing) energy — "reached
  /// ground" then reads "found a perturbation no worse than ZF".
  double ground_energy = 0.0;
  bool ground_is_opt = false;  ///< true when brute force anchored it

  std::size_t num_vars() const { return problem.num_vars(); }
};

/// Draws an instance of the given class.  When `opt_oracle` is true the
/// exhaustive ground state anchors ground_energy (2^(2K(t+1)) configurations
/// — test/bench scale only).
PrecodeInstance make_precode_instance(const VppConfig& cls, Rng& rng,
                                      bool opt_oracle = false);

/// Centered modulo: x reduced into [-tau/2, tau/2).  tau <= 0 is identity.
double mod_centered(double x, double tau);

/// Receiver pipeline for the perturbation chosen by `spins`: each user sees
/// u_k + tau v_k + sqrt(gamma) n_k with gamma = ||P(u + tau v)||^2 (unit
/// transmit power normalization), applies the centered mod-tau reduction per
/// real dimension, and Gray-slices.  Returns the decoded payload bits.
wireless::BitVec decode_downlink(const PrecodeInstance& instance,
                                 const qubo::SpinVec& spins);

/// Bit errors of decode_downlink against the transmitted payload.
std::size_t downlink_bit_errors(const PrecodeInstance& instance,
                                const qubo::SpinVec& spins);

/// The perturbation a precoder actually transmits for an anneal whose best
/// sample is `best` (energy `best_energy`): `best`, unless it scores worse
/// than the v = 0 energy, in which case v = 0 (classic zero-forcing) — the
/// jobwise VPP <= ZF guarantee the scheduler and bench_vpp both rely on.
qubo::SpinVec clip_to_zero_forcing(const PrecodeInstance& instance,
                                   const qubo::SpinVec& best,
                                   double best_energy);

/// The non-perturbed baseline on the SAME noise draw: plain zero-forcing
/// (v = 0, gamma = zf_power) with a direct slicer — no modulo at the
/// receiver, which is exactly the classic ZF downlink.
std::size_t zero_forcing_bit_errors(const PrecodeInstance& instance);

}  // namespace quamax::vpp
