// ML-to-Ising / ML-to-QUBO problem reduction (paper §3.2, Appendix A/C).
//
// Two implementations are provided and tested against each other:
//
//  * reduce_ml_to_ising() — the generic norm-expansion path.  With the
//    linear transform v = M s and A = H M, the ML metric expands as
//        ||y - A s||^2 = ||y||^2 - 2 Re(y^H A s) + s^T Re(A^H A) s
//    giving f_b = -2 Re(y^H A)_b, g_bc = 2 Re(A^H A)_bc (b < c), and
//    a constant offset ||y||^2 + tr(Re(A^H A)) (since s_b^2 = 1).
//
//  * reduce_ml_to_ising_closed_form() — the paper's per-modulation closed
//    forms (Eq. 6 BPSK, Eqs. 7-8 QPSK, Eqs. 13-14 16-QAM) computed from
//    column dot products of H^I / H^Q, i.e. without materializing A.  These
//    are what "a QuAMax system simply inserts the given channel H and
//    received signal y into" (§3.2.2).
//
// Fidelity note: the published Eq. 14 contains one typo (case i = 4n,
// j = 4n'-2 prints a coefficient 4 where symmetry and the norm expansion
// require 2); we implement the mathematically consistent value and the
// equality test against the generic path documents it.
//
// The reduction guarantees, for EVERY spin configuration s:
//     ising.energy(s) + ising.offset() == ||y - H T(s)||^2
// which is the invariant the test suite checks exhaustively.
#pragma once

#include "quamax/core/transform.hpp"
#include "quamax/linalg/matrix.hpp"
#include "quamax/qubo/ising.hpp"
#include "quamax/wireless/modulation.hpp"

namespace quamax::core {

/// An ML detection problem reduced to Ising form, carrying the context
/// needed to interpret solutions.
struct MlProblem {
  qubo::IsingModel ising;
  Modulation mod = Modulation::kBpsk;
  std::size_t nt = 0;  ///< number of users / transmit antennas

  std::size_t num_vars() const { return ising.num_spins(); }
};

/// Generic norm-expansion reduction; supports all four modulations.
MlProblem reduce_ml_to_ising(const CMat& h, const CVec& y, Modulation mod);

/// Paper closed forms (BPSK/QPSK/16-QAM only; 64-QAM has no published
/// closed form — use the generic path).
MlProblem reduce_ml_to_ising_closed_form(const CMat& h, const CVec& y,
                                         Modulation mod);

/// The serving reducer: the paper's closed form for BPSK/QPSK/16-QAM, the
/// generic path for 64-QAM (which has no published closed form).  Every
/// instance builder and the coherent delta path reduce through this one
/// choice, so update_ml_fields always meets the reducer it must match.
MlProblem reduce_ml(const CMat& h, const CVec& y, Modulation mod);

/// QUBO form of the same reduction (Eq. 3/5), via Ising -> QUBO.
qubo::QuboModel reduce_ml_to_qubo(const CMat& h, const CVec& y, Modulation mod);

/// Incremental re-reduction across a coherence block: recomputes the
/// y-dependent terms of `problem` IN PLACE — the linear fields
/// f_b = -2 Re(y^H A)_b and the offset ||y||^2 + tr(Re(A^H A)) — for a new
/// received vector over the SAME channel, leaving the couplings
/// g_bc = 2 Re(A^H A)_bc untouched (they depend only on H).  The update
/// runs the exact arithmetic of reduce_ml, the full rebuild the problem
/// came from, so updated coefficients equal a from-scratch reduction
/// bit-for-bit — the delta contract serve::LoadGenerator's coherent path
/// relies on.  `problem` must have been produced by reduce_ml for
/// (h, `problem.mod`); only y may have changed.
void update_ml_fields(MlProblem& problem, const CMat& h, const CVec& y);

}  // namespace quamax::core
