// Constellations and bit<->symbol mappings (paper §3.2, Fig. 2).
//
// Two mappings per constellation matter in QuAMax:
//
//  * the *Gray* map — what the transmitter uses (Fig. 2(d)); neighbouring
//    constellation points differ in exactly one bit, minimizing bit errors
//    per symbol error;
//  * the *QuAMax transform* map (Fig. 2(a)) — a per-dimension binary-offset
//    labelling, T(q) = (4q1+2q2-3) + j(4q3+2q4-3) for 16-QAM, chosen because
//    it is LINEAR in the solution variables and therefore keeps the ML
//    objective quadratic (a valid QUBO).
//
// The receiver solves in QuAMax labels and post-translates to Gray labels via
// the two-step pipeline of Fig. 2 (intermediate code, then differential bit
// encoding).  We implement that pipeline verbatim plus the equivalent
// per-dimension binary->Gray conversion; tests prove them identical.
//
// Bit-vector convention: bits are unpacked, one per element, value 0 or 1,
// ordered exactly as the paper writes them (q1 q2 q3 q4 ... — MSB of the I
// label first, then Q label), users concatenated in order.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "quamax/linalg/matrix.hpp"

namespace quamax::wireless {

using linalg::cplx;
using linalg::CVec;

/// Modulations evaluated in the paper (64-QAM appears in Table 2's
/// footprint analysis and is supported end-to-end here).
enum class Modulation { kBpsk, kQpsk, kQam16, kQam64 };

using BitVec = std::vector<std::uint8_t>;

/// Q = log2(|O|): bits carried per symbol (1, 2, 4, 6).
int bits_per_symbol(Modulation mod);

/// |O|: number of constellation points.
int constellation_size(Modulation mod);

/// Bits per I (or Q) dimension: 0 for BPSK's imaginary part, else Q/2.
int bits_per_dimension(Modulation mod);

/// Mean symbol energy E[|v|^2] of the unnormalized integer constellation
/// (1, 2, 10, 42) — needed to set noise power for a target SNR.
double average_symbol_energy(Modulation mod);

/// Human-readable name ("BPSK", "QPSK", "16-QAM", "64-QAM").
std::string to_string(Modulation mod);

/// PAM level for a per-dimension *binary-offset* label (the QuAMax
/// transform's per-dimension rule): level = 2*label - (2^nbits - 1),
/// e.g. nbits=2: 00->-3, 01->-1, 10->+1, 11->+3.
int pam_level_binary(unsigned label, int nbits);

/// PAM level for a per-dimension *Gray* label,
/// e.g. nbits=2: 00->-3, 01->-1, 11->+1, 10->+3.
int pam_level_gray(unsigned label, int nbits);

/// One user's bits -> symbol under the QuAMax transform (Fig. 2(a)).
/// `bits` must have exactly bits_per_symbol(mod) entries.
cplx map_quamax(const BitVec& bits, Modulation mod);

/// One user's bits -> symbol under the Gray map (Fig. 2(d)).
cplx map_gray(const BitVec& bits, Modulation mod);

/// Nearest-point slicer returning the Gray-coded bits of the constellation
/// point closest to `observation` (used by the linear detectors).
BitVec demap_gray_nearest(cplx observation, Modulation mod);

/// Paper-faithful post-translation (Fig. 2, §3.2.1), one user's bits:
/// QuAMax-transform labels -> Gray labels, via the intermediate code
/// ("flip even-numbered columns upside down") followed by differential bit
/// encoding chained across ALL of the user's bits.
BitVec translate_quamax_to_gray_paper(const BitVec& quamax_bits, Modulation mod);

/// Equivalent fast path: independent per-dimension binary->Gray conversion
/// (g = b XOR (b >> 1)).  Proven equal to the paper pipeline in tests.
BitVec translate_quamax_to_gray(const BitVec& quamax_bits, Modulation mod);

/// Inverse translation: Gray labels -> QuAMax-transform labels (per-dimension
/// Gray->binary prefix-XOR).  Needed to express ground-truth transmitted bits
/// in the annealer's solution space.
BitVec translate_gray_to_quamax(const BitVec& gray_bits, Modulation mod);

/// Maps a whole uplink's bits (Nt users x Q bits, concatenated) to the
/// transmitted symbol vector using the Gray map.
CVec modulate_gray(const BitVec& bits, Modulation mod);

/// Hard-decision Gray demap of a symbol-vector estimate.
BitVec demodulate_gray(const CVec& symbols, Modulation mod);

}  // namespace quamax::wireless
